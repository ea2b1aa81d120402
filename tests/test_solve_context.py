"""Isolation of the ambient solve context across threads.

Every solve reads its tracer, metrics registry, race checker and cancel
token from one :class:`~repro.runtime.context.SolveContext`.  These
tests pin what that buys:

* two solves running at once on two threads, each under its own tracer
  and registry, record exactly what a solo solve records — no span or
  counter lands in the other solve's instruments;
* a race checker installed on one thread neither switches a concurrent
  unchecked solve into shadow mode nor collects its accesses;
* thread-pool blocks run in a copy of the dispatching caller's context.
"""

from __future__ import annotations

import threading

import pytest
from test_golden_traces import SKELETON_NAMES, _counter_totals

from repro.core.sssp import solve_sssp_resilient
from repro.graph.generators import hidden_potential_graph
from repro.observability import Trace, Tracer, phase_sequence, tracing
from repro.observability.metrics import (
    MetricsRegistry,
    current_metrics,
    metering,
)
from repro.observability.tracer import current_tracer
from repro.resilience.preempt import CancelToken, cancel_scope, current_token
from repro.runtime.executor import ForkJoinPool
from repro.runtime.racecheck import current_race_checker, race_checking

SEED = 7
JOIN_TIMEOUT = 60.0


def _graph():
    return hidden_potential_graph(120, 480, seed=3)


def _run_threads(*targets) -> None:
    """Run each target on its own thread; re-raise the first failure."""
    errors: list[BaseException] = []

    def guarded(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guarded(fn)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
    assert not any(t.is_alive() for t in threads), "solve thread hung"
    if errors:
        raise errors[0]


def _integer_counters(reg: MetricsRegistry, names=None) -> dict:
    """Counter families whose samples are all integers (counts, not
    seconds or model work) — the bit-exact part of a solve's metrics."""
    state = reg.state()
    if names is None:
        names = [name for name, fam in state.items()
                 if fam["type"] == "counter"
                 and all(float(v).is_integer()
                         for v in fam["samples"].values())]
    return {name: state.get(name) for name in names}


def _traced_solve(g, tr: Tracer, reg: MetricsRegistry,
                  barrier: threading.Barrier | None = None) -> None:
    with tracing(tr), metering(reg):
        if barrier is not None:
            # both threads have installed their instruments before
            # either starts solving
            barrier.wait(JOIN_TIMEOUT)
        solve_sssp_resilient(g, 0, seed=SEED)


@pytest.mark.observability
def test_concurrent_solves_keep_their_own_trace_and_metrics():
    g = _graph()
    solo_tr, solo_reg = Tracer(), MetricsRegistry()
    _traced_solve(g, solo_tr, solo_reg)
    solo = Trace.from_tracer(solo_tr)
    solo_counters = _integer_counters(solo_reg)
    assert solo_counters, "a solve bumps integer counters"

    barrier = threading.Barrier(2)
    tracers = [Tracer(), Tracer()]
    registries = [MetricsRegistry(), MetricsRegistry()]
    _run_threads(*(
        lambda i=i: _traced_solve(g, tracers[i], registries[i], barrier)
        for i in range(2)))

    for tr, reg in zip(tracers, registries):
        trace = Trace.from_tracer(tr)
        assert (phase_sequence(trace, names=SKELETON_NAMES)
                == phase_sequence(solo, names=SKELETON_NAMES))
        assert _counter_totals(trace) == _counter_totals(solo)
        assert _integer_counters(reg, solo_counters) == solo_counters
        # span ids never mix: each tracer holds exactly the solo solve's
        # span tree, sid for sid
        assert ([(s.sid, s.parent, s.name) for s in tr.spans]
                == [(s.sid, s.parent, s.name) for s in solo_tr.spans])
    assert not ({id(s) for s in tracers[0].spans}
                & {id(s) for s in tracers[1].spans})


def test_race_checker_stays_on_its_own_thread():
    g = _graph()
    with race_checking() as solo:
        solve_sssp_resilient(g, 0, seed=SEED)
    assert solo.n_accesses > 0, "a checked solve records accesses"

    checked_in = threading.Barrier(2)
    unchecked_done = threading.Event()
    seen: dict[str, object] = {}

    def checked_solve():
        with race_checking() as checker:
            seen["checker"] = checker
            checked_in.wait(JOIN_TIMEOUT)
            solve_sssp_resilient(g, 0, seed=SEED)
            # keep the checker installed until the other solve is done
            assert unchecked_done.wait(JOIN_TIMEOUT)

    def unchecked_solve():
        checked_in.wait(JOIN_TIMEOUT)
        seen["unchecked_sees"] = current_race_checker()
        solve_sssp_resilient(g, 0, seed=SEED)
        unchecked_done.set()

    _run_threads(checked_solve, unchecked_solve)
    assert seen["unchecked_sees"] is None
    assert seen["checker"].n_accesses == solo.n_accesses
    assert seen["checker"].findings() == []


def test_thread_pool_blocks_run_in_the_callers_context():
    from repro.runtime.context import current_context

    tok = CancelToken()
    seen: list[tuple] = []
    lock = threading.Lock()

    def body(lo: int, hi: int) -> None:
        with lock:
            seen.append((threading.get_ident(), current_context(),
                         current_tracer(), current_metrics(),
                         current_token(), current_race_checker()))

    tr, reg = Tracer(), MetricsRegistry()
    with ForkJoinPool(2) as pool, tracing(tr), metering(reg), \
            cancel_scope(tok):
        caller = current_context()
        pool.parallel_for(4_000, body, grain=100)
    assert any(s[0] != threading.get_ident() for s in seen), \
        "blocks ran on pool worker threads"
    assert all(s[1] is caller for s in seen)
    assert all(s[2:] == (tr, reg, tok, None) for s in seen)

    # a caller-installed checker reaches the blocks too (under a checker
    # the pool runs its logical blocks in shadow mode)
    seen.clear()
    with ForkJoinPool(2) as pool, race_checking() as checker:
        pool.parallel_for(4_000, body, grain=100)
    assert seen and all(s[5] is checker for s in seen)

    # the installs end with their scopes; fresh threads start empty
    seen.clear()
    _run_threads(lambda: body(0, 1))
    assert seen[0][2:] == (None, None, None, None)
