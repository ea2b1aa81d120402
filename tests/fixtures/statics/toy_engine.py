"""Deliberately non-conformant toy engine — the conformance self-test.

``tests/test_engine_conformance.py`` imports and runs this module and
asserts that every executed check rejects it, and the statics tests lint
it and assert RS012 and RS015 fire.  Each violation below is labelled
with the check it exists to trigger.  Do not "fix" them.
"""

import threading

from repro.runtime.registry import Registry

# a registry of its own: the real SSSP_ENGINES must never see the toy
SSSP_ENGINES = Registry("toy SSSP engine")


@SSSP_ENGINES.register("toy")
class ToyEngine:
    """Returns at once: no charge, no span, no cancellation check
    (contract), and a generic raise on a branch no test input takes
    (taxonomy)."""

    name = "toy"

    def solve(self, g, source, *, acc=None, token=None, **_):
        if g is None:
            raise ValueError("toy engine needs a graph")  # taxonomy
        return source

    def _grind(self, g, source):
        total = source
        while True:  # RS015: no exit, no cancellation check; never called
            total += g


def _lock_task(lo, hi, lock):
    return hi - lo


def _spin_task(lo, hi, data):
    acc = 0
    while True:  # RS015: worker-side spin; never called
        acc += data[lo]


def dispatch_nested(pool, n):
    """Ships a nested function, which cannot be pickled by reference."""
    def body(lo, hi):  # pickling: nested-function task
        return hi - lo

    return pool.map_blocks(n, body)


def dispatch_locked(pool, n):
    """Ships a lock in the task arguments."""
    lock = threading.Lock()
    return pool.map_blocks(n, _lock_task, (lock,))  # pickling: lock arg


def racy(pool, hist):
    """Never called: every block writes the same shared bin."""
    def body(lo, hi):
        hist[0] += 1  # RS012: shared write, no annotation, not disjoint

    pool.parallel_for(len(hist), body)
