"""Sequential DAG shortest paths by topological relaxation.

The classic ``O(n + m)`` algorithm (CLRS): relax edges in topological
order.  Handles arbitrary (negative) weights on DAGs — the oracle for the
§3 distance-limited ``{0,−1}`` peeling algorithm, and the sequential engine
used inside the baseline Goldberg solver (§5 Step 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.digraph import DiGraph
from ..graph.validate import topological_order
from ..resilience.errors import InputValidationError
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.model import CostModel, DEFAULT_MODEL


@dataclass
class DagSsspResult:
    dist: np.ndarray    # float64; +inf unreachable
    parent: np.ndarray  # predecessor vertex
    cost: Cost


def dag_sssp(g: DiGraph, source: int, weights: np.ndarray | None = None,
             model: CostModel = DEFAULT_MODEL) -> DagSsspResult:
    """Exact SSSP on a DAG (raises ``ValueError`` if ``g`` is cyclic)."""
    if not (0 <= source < g.n):
        raise InputValidationError("source out of range")
    order = topological_order(g)
    if order is None:
        raise InputValidationError("dag_sssp requires an acyclic graph")
    w = (g.w if weights is None else np.asarray(weights, dtype=np.int64)
         ).astype(np.float64)
    acc = CostAccumulator()
    acc.charge(g.n + g.m, g.n + g.m)  # sequential baseline cost
    dist = np.full(g.n, np.inf)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0.0
    indptr, indices = g.indptr, g.indices
    for u in order.tolist():  # repro: noqa[RS001] sequential baseline: acc.charge(n+m, n+m) above covers the full relaxation
        du = dist[u]
        if du == np.inf:
            continue
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        for slot in range(lo, hi):  # repro: noqa[RS001] edge scan, covered by the n+m pre-charge
            v = int(indices[slot])
            nd = du + w[slot]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
    return DagSsspResult(dist, parent, acc.snapshot())


def dag_limited_sssp_reference(g: DiGraph, source: int, limit: int,
                               weights: np.ndarray | None = None
                               ) -> np.ndarray:
    """Reference for the §3 problem: distances clamped at the limit.

    Returns float64 distances where ``d(v) = dist(s,v)`` if
    ``dist(s,v) >= -limit``, ``-inf`` if strictly below, and ``+inf`` if
    unreachable — exactly the output contract of the peeling algorithm.
    """
    res = dag_sssp(g, source, weights)
    out = res.dist.copy()
    out[out < -limit] = -np.inf
    return out
