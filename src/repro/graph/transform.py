"""Graph transformations: reweighting by price functions and condensation.

These implement the mechanical pieces of Goldberg's framework (§5): a price
function ``p`` induces reduced weights ``w_p(u,v) = w(u,v) + p(u) − p(v)``
(shortest paths are preserved), and strongly-connected components get
contracted into a condensation whose parallel edges collapse to their
minimum weight (the correct semantics for shortest paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..resilience.errors import InputValidationError
from .digraph import DiGraph


def reweight(g: DiGraph, price: np.ndarray) -> np.ndarray:
    """Reduced weights ``w_p`` aligned with ``g``'s edge ids.

    Johnson-style reweighting: around any cycle the price terms telescope,
    so cycle weights — in particular negative cycles — are invariant.
    """
    price = np.asarray(price, dtype=np.int64)
    if len(price) != g.n:
        raise InputValidationError(
            "price function must have one entry per vertex")
    return g.w + price[g.src] - price[g.dst]


@dataclass(frozen=True)
class Condensation:
    """Result of contracting vertex groups of a graph.

    Attributes
    ----------
    graph : DiGraph
        The contracted graph.  Parallel edges between two components are
        collapsed to a single minimum-weight edge; intra-component edges are
        dropped.
    comp : np.ndarray
        Maps each original vertex to its component id.
    members : list[np.ndarray]
        ``members[c]`` is the array of original vertices in component ``c``
        (ascending), computed on first access.
    rep_eid : np.ndarray
        For each contracted edge id, one *original* edge id achieving the
        minimum weight — used to expand paths/cycles back to the original
        graph (Appendix A.2).
    """

    graph: DiGraph
    comp: np.ndarray
    rep_eid: np.ndarray

    @property
    def n_components(self) -> int:
        return self.graph.n

    @cached_property
    def members(self) -> list[np.ndarray]:
        order = np.argsort(self.comp, kind="stable")
        bounds = np.searchsorted(self.comp[order],
                                 np.arange(self.n_components + 1))
        return [order[bounds[c]:bounds[c + 1]]
                for c in range(self.n_components)]


def condense(g: DiGraph, comp: np.ndarray,
             weights: np.ndarray | None = None) -> Condensation:
    """Contract each component of ``comp`` to a single vertex.

    ``weights`` overrides ``g.w`` (e.g. reduced weights) without copying the
    topology.  Fully vectorised: a lexsort groups parallel contracted edges
    so the first edge of each group is the minimum-weight representative;
    the surviving pairs are then sorted and unique, already in the
    contracted graph's edge-id order.
    """
    comp = np.asarray(comp, dtype=np.int64)
    if len(comp) != g.n:
        raise InputValidationError("component labels must cover every vertex")
    w = g.w if weights is None else np.asarray(weights, dtype=np.int64)
    if len(w) != g.m:
        raise InputValidationError("weights must align with edge ids")
    nc = int(comp.max()) + 1 if g.n else 0
    if g.n and comp.min() < 0:
        raise InputValidationError("component ids must be nonnegative")

    csrc = comp[g.src]
    cdst = comp[g.dst]
    cross = csrc != cdst
    csrc, cdst = csrc[cross], cdst[cross]
    wc = w[cross]
    orig_eids = np.flatnonzero(cross)

    if len(csrc):
        # one int64 key orders the pairs like (csrc, cdst): both are < nc
        pair = csrc * nc + cdst
        order = np.lexsort((wc, pair))
        pair = pair[order]
        first = order[np.r_[True, pair[1:] != pair[:-1]]]
        csrc, cdst, wc = csrc[first], cdst[first], wc[first]
        orig_eids = orig_eids[first]

    return Condensation(DiGraph(nc, csrc, cdst, wc), comp, orig_eids)


def edge_subgraph_mask(g: DiGraph, mask: np.ndarray) -> DiGraph:
    """Subgraph keeping only the edges selected by boolean ``mask`` (same
    vertex set)."""
    mask = np.asarray(mask, dtype=bool)
    if len(mask) != g.m:
        raise ValueError("mask must align with edge ids")
    return g._edge_subgraph(mask)


def leq_zero_subgraph(g: DiGraph, weights: np.ndarray | None = None
                      ) -> tuple[DiGraph, np.ndarray]:
    """``G≤0``: the subgraph of edges with weight ≤ 0 (§5).

    Returns the subgraph and the original edge ids of its edges (aligned
    with the subgraph's edge ids).
    """
    w = g.w if weights is None else np.asarray(weights, dtype=np.int64)
    keep = w <= 0
    return g._edge_subgraph(keep, w), np.flatnonzero(keep)
