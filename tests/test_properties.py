"""Deep hypothesis property tests on the paper's core invariants.

These complement the per-module tests with cross-cutting invariants stated
directly from the paper's lemmas: improvement validity/monotonicity
(Lemma 18), scaling-instance validity (§5), interval containment
(Lemma 11), and certificate soundness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import bellman_ford, dijkstra, johnson_potential
from repro.core import (
    is_valid_improvement,
    one_reweighting,
    solve_sssp,
    sqrt_k_improvement,
)
from repro.graph import (
    DiGraph,
    is_feasible_price,
    random_digraph,
    validate_negative_cycle,
)
from repro.limited import limited_sssp


def small_graph(draw, n_max=12, w_min=-2, w_max=5):
    n = draw(st.integers(2, n_max))
    m = draw(st.integers(0, 4 * n))
    seed = draw(st.integers(0, 10_000))
    return random_digraph(n, m, min_w=w_min, max_w=w_max, seed=seed)


graphs = st.builds(lambda: None)  # placeholder; use @st.composite below


@st.composite
def mixed_graphs(draw):
    return small_graph(draw)


@st.composite
def multi_graphs(draw):
    """Edges drawn as raw triples in arbitrary order over few vertices, so
    parallel edges (with differing weights) and self-loops are common."""
    n = draw(st.integers(1, 6))
    v = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(v, v, st.integers(-2, 5)),
                          max_size=4 * n + 4))
    return DiGraph.from_edges(n, edges)


@st.composite
def reweighting_graphs(draw):
    return small_graph(draw, w_min=-1, w_max=4)


@st.composite
def nonneg_graphs(draw):
    return small_graph(draw, w_min=0, w_max=5)


class TestImprovementInvariants:
    @given(reweighting_graphs(), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_improvement_valid_and_monotonic(self, g, seed):
        """Lemma 18: every returned price delta keeps weights >= -1 and
        never creates new negative edges; Theorem 16: progress >= ceil(√k)
        (unless a cycle is certified)."""
        out = sqrt_k_improvement(g, g.w, seed=seed)
        if out.negative_cycle is not None:
            assert validate_negative_cycle(g, out.negative_cycle)
            return
        tau = None
        if out.k > 0:
            import math

            tau = min(math.isqrt(out.k), out.k)
        assert is_valid_improvement(g, g.w, out.price_delta, tau=tau)

    @given(reweighting_graphs(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_one_reweighting_certificates(self, g, seed):
        res = one_reweighting(g, seed=seed)
        if res.feasible:
            assert is_feasible_price(g, res.price)
        else:
            assert validate_negative_cycle(g, res.negative_cycle)

    @given(reweighting_graphs(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_k_trajectory_strictly_decreasing(self, g, seed):
        res = one_reweighting(g, seed=seed)
        traj = res.stats.k_trajectory
        assert all(a > b for a, b in zip(traj, traj[1:]))


class TestSolverCertificates:
    @given(mixed_graphs(), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_certificate_trichotomy(self, g, seed):
        """Exactly one of (feasible price, negative cycle); both checked;
        detection agrees with the Bellman–Ford-based oracle."""
        res = solve_sssp(g, 0, seed=seed)
        oracle = johnson_potential(g)
        if res.has_negative_cycle:
            assert oracle.negative_cycle is not None
            assert validate_negative_cycle(g, res.negative_cycle)
            assert res.dist is None and res.price is None
        else:
            assert oracle.negative_cycle is None
            assert is_feasible_price(g, res.price)
            np.testing.assert_array_equal(res.dist, bellman_ford(g, 0).dist)

    @given(mixed_graphs(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_distances_invariant_under_source_shift(self, g, seed):
        """Solving from another source never contradicts triangle
        inequalities with the first solution."""
        res0 = solve_sssp(g, 0, seed=seed)
        if res0.has_negative_cycle:
            return
        s2 = g.n - 1
        res2 = solve_sssp(g, s2, seed=seed)
        assert not res2.has_negative_cycle
        d0, d2 = res0.dist, res2.dist
        # if 0 reaches s2, then d0(v) <= d0(s2) + d2(v) for all v
        if np.isfinite(d0[s2]):
            finite = np.isfinite(d2)
            assert (d0[finite] <= d0[s2] + d2[finite] + 1e-9).all()


class TestLimitedInvariants:
    @given(nonneg_graphs(), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_limited_monotone_in_limit(self, g, limit):
        """Raising the limit only ever reveals more finite distances, and
        finite values never change."""
        r1 = limited_sssp(g, 0, limit)
        r2 = limited_sssp(g, 0, limit + 3)
        finite1 = np.isfinite(r1.dist)
        np.testing.assert_array_equal(r1.dist[finite1], r2.dist[finite1])
        assert (np.isfinite(r2.dist) | ~finite1).all()

    @given(nonneg_graphs(), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_limited_equals_clamped_dijkstra(self, g, limit):
        expected = dijkstra(g, 0).dist
        expected[expected > limit] = np.inf
        np.testing.assert_array_equal(limited_sssp(g, 0, limit).dist,
                                      expected)


def assert_same_graph(h, ref):
    """All ten ``__slots__`` of ``h`` equal those of ``ref``, array for
    array (edge-id order included)."""
    for name in DiGraph.__slots__:
        a, b = getattr(h, name), getattr(ref, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype == np.int64, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        else:
            assert a == b, name


@st.composite
def graph_and_edge_data(draw):
    """A multigraph, a boolean edge mask and a second weight array."""
    g = draw(multi_graphs())
    mask = np.array(draw(st.lists(st.booleans(), min_size=g.m,
                                  max_size=g.m)), dtype=bool)
    w2 = np.array(draw(st.lists(st.integers(-3, 3), min_size=g.m,
                                max_size=g.m)), dtype=np.int64)
    return g, mask, w2


class TestGraphAlgebra:
    @given(st.one_of(mixed_graphs(), multi_graphs()))
    @settings(max_examples=60, deadline=None)
    def test_reverse_involution(self, g):
        r = g.reversed()
        assert_same_graph(r, DiGraph(g.n, g.dst, g.src, g.w))
        assert_same_graph(r.reversed(), g)

    @given(st.one_of(mixed_graphs(), multi_graphs()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_subgraph_equals_rebuilt(self, g, data):
        nodes = np.array(data.draw(st.lists(st.integers(0, g.n - 1))),
                         dtype=np.int64)
        h, kept = g.induced_subgraph(nodes)
        new_id = np.full(g.n, -1, dtype=np.int64)
        new_id[kept] = np.arange(len(kept))
        keep = (new_id[g.src] >= 0) & (new_id[g.dst] >= 0)
        assert_same_graph(h, DiGraph(len(kept), new_id[g.src[keep]],
                                     new_id[g.dst[keep]], g.w[keep]))

    @given(graph_and_edge_data())
    @settings(max_examples=40, deadline=None)
    def test_edge_subgraphs_equal_rebuilt(self, case):
        from repro.graph import edge_subgraph_mask, leq_zero_subgraph

        g, mask, w2 = case
        for w in (g.w, w2):
            assert_same_graph(
                edge_subgraph_mask(g.with_weights(w), mask),
                DiGraph(g.n, g.src[mask], g.dst[mask], w[mask]))
        for weights, w in ((None, g.w), (w2, w2)):
            sub, eids = leq_zero_subgraph(g, weights)
            np.testing.assert_array_equal(eids, np.flatnonzero(w <= 0))
            assert_same_graph(sub, DiGraph(g.n, g.src[eids], g.dst[eids],
                                           w[eids]))

    @given(graph_and_edge_data(), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_condensation_equals_rebuilt(self, case, seed):
        from repro.graph import condense
        from repro.reach import scc

        g, _, w2 = case
        comp = scc(g, seed=seed).comp
        for weights, w in ((None, g.w), (w2, w2)):
            c = condense(g, comp, weights)
            best: dict[tuple[int, int], int] = {}
            for cu, cv, ww in zip(comp[g.src].tolist(), comp[g.dst].tolist(),
                                  w.tolist()):
                if cu != cv:
                    best[cu, cv] = min(ww, best.get((cu, cv), ww))
            ref = DiGraph.from_edges(
                c.n_components, [(u, v, ww) for (u, v), ww in best.items()])
            assert_same_graph(c.graph, ref)
            rep = c.rep_eid
            np.testing.assert_array_equal(comp[g.src[rep]], c.graph.src)
            np.testing.assert_array_equal(comp[g.dst[rep]], c.graph.dst)
            np.testing.assert_array_equal(w[rep], c.graph.w)
            for k, members in enumerate(c.members):
                np.testing.assert_array_equal(members,
                                              np.flatnonzero(comp == k))

    @given(mixed_graphs(), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_condensation_is_dag(self, g, seed):
        from repro.graph import condense, is_dag
        from repro.reach import scc

        comp = scc(g, seed=seed).comp
        cg = condense(g, comp).graph
        assert is_dag(cg)

    @given(mixed_graphs(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scc_seed_invariant_partition(self, g, seed):
        from repro.reach import scc

        a = scc(g, seed=seed).comp
        b = scc(g, seed=seed + 1).comp
        # partitions are equal up to renaming
        import numpy as np

        pairs_a = a[g.src] == a[g.dst]
        pairs_b = b[g.src] == b[g.dst]
        np.testing.assert_array_equal(pairs_a, pairs_b)
        assert len(set(a.tolist())) == len(set(b.tolist()))
