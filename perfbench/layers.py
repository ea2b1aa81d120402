"""Outside-in per-layer timing of a solve.

``traced()`` swaps each layer's public functions for a timing wrapper:
a module-level function is replaced in every ``repro`` module namespace
that holds it (so the importing module's reference is the one timed), and
a method is replaced on the class that defines it.  Everything is put back
when the block exits, also on error.  No file of the program changes.

A wrapped call's *self time* is its duration minus the time spent in
nested wrapped calls, so the self times of all layers of one solve add up
to the duration of the outermost wrapped call (``core``, the public
``solve_sssp_resilient``).  ``calls`` counts outermost entries into a
layer; a layer calling itself (recursion, a ladder calling its pool) is
one call.  Calls made on other threads run unwrapped: the stack of nested
calls is only meaningful on the thread that solves.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

# layer -> [(module, attribute)] of module-level functions, or
# [(module, "Class.method")] of methods; "Class.*" takes every method the
# class defines itself
LAYERS: dict[str, list[tuple[str, str]]] = {
    "core": [("repro.core.sssp", "solve_sssp_resilient")],
    "core.cycle": [("repro.core.cycle", name) for name in (
        "fallback_cycle", "cycle_from_scc_negative_edge",
        "expand_contracted_cycle", "chain_failure_contracted_cycle",
        "parent_hat_as_tree")],
    "reach.scc": [("repro.reach.scc", "scc")],
    "reach.multisource": [
        ("repro.reach.multisource", "multisource_reachability"),
        ("repro.reach.multisource", "multisource_reachability_min")],
    "dag01": [("repro.dag01.peeling", "dag01_limited_sssp")],
    "limited": [("repro.limited.limited", "limited_sssp")],
    "assp": [("repro.assp.engines", f"{cls}.__call__") for cls in (
        "ExactAssp", "PerturbedAssp", "DeltaSteppingAssp", "FlakyAssp",
        "FaultInjectingAssp")] + [("repro.assp.hopset",
                                   "HopsetAssp.__call__")],
    "graph.digraph": [("repro.graph.digraph", "DiGraph.__init__")],
    "graph.transform": [("repro.graph.transform", "condense"),
                        ("repro.graph.transform", "leq_zero_subgraph"),
                        ("repro.graph.digraph",
                         "DiGraph.induced_subgraph")],
    "runtime.pset": [("repro.runtime.pset", "SortedIntSet.*"),
                     ("repro.runtime.pset", "SetVector.*")],
    "runtime.backends": [
        ("repro.runtime.backends", "DegradationLadder.map_blocks"),
        ("repro.runtime.backends", "ProcessForkJoinPool.map_blocks"),
        ("repro.runtime.executor", "ForkJoinPool.map_blocks")],
    "baselines.dijkstra": [
        ("repro.baselines.dijkstra", "dijkstra"),
        ("repro.baselines.dijkstra", "dijkstra_from_labels")],
    "baselines.sequential": [("repro.reach.scc", "scc_sequential"),
                             ("repro.baselines.dag_relax", "dag_sssp")],
    "resilience.certificate": [
        ("repro.resilience.errors", "Certificate.verify")],
    "resilience.validate": [("repro.graph.validate", "validate_graph")],
}


@dataclass
class LayerStat:
    self_s: float = 0.0
    calls: int = 0
    errors: int = 0             # outermost calls that raised
    counters: dict[str, float] = field(default_factory=dict)


def _edges_built(args, kwargs, result, stat: LayerStat) -> None:
    src = kwargs["src"] if "src" in kwargs else args[2]
    stat.counters["edges_built"] = (stat.counters.get("edges_built", 0)
                                    + len(src))


def _limited_counts(args, kwargs, result, stat: LayerStat) -> None:
    for name in ("refine_calls", "retries"):
        stat.counters[name] = (stat.counters.get(name, 0)
                               + getattr(result, name))


def _blocks(args, kwargs, result, stat: LayerStat) -> None:
    stat.counters["blocks"] = stat.counters.get("blocks", 0) + len(result)


# called after an outermost call of the layer returns
HOOKS: dict[str, Callable] = {
    "graph.digraph": _edges_built,
    "limited": _limited_counts,
    "runtime.backends": _blocks,
}
# the counters the hooks keep, with their units
COUNTERS = {"graph.digraph": [("edges_built", "edges")],
            "limited": [("refine_calls", "count"), ("retries", "count")],
            "runtime.backends": [("blocks", "count")]}


class LayerTracer:
    """Self time, calls and counters per layer, on one thread."""

    def __init__(self) -> None:
        self.stats = {name: LayerStat() for name in LAYERS}
        self._stack: list[list[float]] = []      # child time per open call
        self._depth = dict.fromkeys(LAYERS, 0)
        self._thread = threading.get_ident()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stat, hook = self.stats[layer], HOOKS.get(layer)
        stack, depth, perf = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [0.0]
            stack.append(frame)
            raised = True
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                dt = perf() - t0
                stack.pop()
                depth[layer] -= 1
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if outer:
                    stat.calls += 1
                    stat.errors += raised
            if outer and hook is not None:
                hook(args, kwargs, result, stat)
            return result

        return timed

    @property
    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())


def _targets(module: str, attr: str) -> list[tuple[Any, str, Any]]:
    """``(owner, name, original)`` for one ``LAYERS`` entry."""
    mod = sys.modules[module]
    if "." not in attr:
        fn = getattr(mod, attr)
        # every repro namespace holding this function object (the
        # defining module, importing modules, package re-exports)
        return [(m, name, fn) for m in _repro_modules()
                for name, value in list(vars(m).items()) if value is fn]
    cls_name, meth = attr.split(".")
    cls = getattr(mod, cls_name)
    names = ([n for n, v in vars(cls).items()
              if inspect.isfunction(v) and n != "__repr__"]
             if meth == "*" else [meth])
    return [(cls, n, vars(cls)[n]) for n in names]


def _repro_modules() -> list[Any]:
    return [m for name, m in list(sys.modules.items()) if m is not None
            and (name == "repro" or name.startswith("repro."))]


@contextmanager
def traced(tracer: LayerTracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for layer, entries in LAYERS.items():
            for module, attr in entries:
                for owner, name, original in _targets(module, attr):
                    setattr(owner, name, tracer.wrap(layer, original))
                    patched.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
