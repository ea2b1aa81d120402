"""Correctness gate that does not use ``repro``.

Distances come from ``scipy.sparse.csgraph.bellman_ford``.  csgraph sums
duplicate ``(u, v)`` entries when it builds a sparse matrix, which would
turn two parallel edges into one heavier edge, so the edge list is first
collapsed to the minimum weight per pair and the matrix is checked to hold
exactly one stored entry per remaining edge (explicit zero weights stay
stored).  A returned negative cycle is re-weighed from the input arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import NegativeCycleError, bellman_ford


@dataclass
class Truth:
    has_cycle: bool
    dist: np.ndarray | None      # float64, +inf where unreachable
    keys: np.ndarray             # sorted u * n + v of the collapsed edges
    min_w: np.ndarray            # minimum weight per key


def collapse(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique edge keys ``u * n + v`` and the minimum weight of each."""
    key = src.astype(np.int64) * n + dst.astype(np.int64)
    order = np.lexsort((w, key))
    key, w = key[order], w[order]
    first = np.r_[True, key[1:] != key[:-1]] if len(key) else np.zeros(0, bool)
    return key[first], w[first].astype(np.int64)


def ground_truth(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray,
                 source: int = 0) -> Truth:
    keys, min_w = collapse(n, src, dst, w)
    mat = csr_matrix((min_w.astype(np.float64), (keys // n, keys % n)),
                     shape=(n, n))
    if mat.nnz != len(keys):
        raise RuntimeError(f"csgraph matrix stores {mat.nnz} entries for "
                           f"{len(keys)} edges")
    try:
        dist = bellman_ford(mat, directed=True, indices=source)
    except NegativeCycleError:
        return Truth(True, None, keys, min_w)
    if np.isinf(dist).any():
        # csgraph only sees cycles reachable from the source, while the
        # solvers report any negative cycle of the graph
        raise ValueError("every vertex must be reachable from the source "
                         "for the cycle verdict to hold")
    return Truth(False, np.asarray(dist, dtype=np.float64), keys, min_w)


def cycle_weight(truth: Truth, n: int, cycle) -> int | None:
    """Weight of the closed walk ``cycle`` over the input edges, or None
    when a hop is not an edge."""
    c = np.asarray(cycle, dtype=np.int64)
    if len(c) == 0:
        return None
    hop = c * n + np.roll(c, -1)
    pos = np.searchsorted(truth.keys, hop)
    pos[pos >= len(truth.keys)] = 0
    if len(truth.keys) == 0 or not (truth.keys[pos] == hop).all():
        return None
    return int(truth.min_w[pos].sum())


def check(truth: Truth, n: int, dist, cycle) -> str | None:
    """None when a solver answer matches the truth, else why it does not.

    ``dist`` is the solver's distance array (None for a cycle answer) and
    ``cycle`` its negative-cycle vertex list (None for a distance answer).
    """
    if cycle is not None:
        if not truth.has_cycle:
            return "reported a negative cycle on a feasible graph"
        weight = cycle_weight(truth, n, cycle)
        if weight is None:
            return "returned cycle uses a non-edge"
        if weight >= 0:
            return f"returned cycle has weight {weight} >= 0"
        return None
    if truth.has_cycle:
        return "returned distances on a graph with a negative cycle"
    if dist is None or not np.array_equal(np.asarray(dist, np.float64),
                                          truth.dist):
        return "distances differ from scipy bellman_ford"
    return None
