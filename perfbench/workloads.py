"""Seeded inputs for the three benchmark workloads.

Every input is a plain edge list ``(n, src, dst, w)`` of int64 arrays; the
solver only ever sees the ``DiGraph`` the benchmark builds from it during
set-up.  The same ``--seed`` gives bit-identical inputs.

Each workload relabels a fixed set of base graphs rather than drawing fresh
ones: at n = 8000 the model work of ``goldberg_parallel`` differs by up to
1.8x between generator seeds (38M to 70M), and a run fits only a handful
of solves, so a median over fresh graphs would measure which graphs were
drawn, not the solver.  A random relabelling of vertices 1..n-1 (the
source stays vertex 0) and a shuffle of the edge order give different
input bits per seed with the same difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.generators import hidden_potential_graph

ENGINES = ("goldberg_parallel", "goldberg_sequential", "bnw_scaling",
           "fischer_simple")


@dataclass
class Instance:
    """One input graph plus where it came from (for the provenance line)."""

    name: str
    family: str
    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    gen_seed: int
    relabel_seed: int | None = None

    @property
    def m(self) -> int:
        return len(self.src)


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    engines: tuple[str, ...]
    backend: str | None          # None = in-process, else a ladder name
    warmup: Instance
    schedule: list[tuple[int, str]] = field(init=False)

    def __post_init__(self) -> None:
        # one pass = every (instance, engine) pair once, engines innermost
        self.schedule = [(i, e) for i in range(len(self.instances))
                         for e in self.engines]


def _sub_seed(seed: int, *salts: int) -> int:
    return int(np.random.SeedSequence([seed, *salts]).generate_state(1)[0])


def hidden(name: str, n: int, m: int, gen_seed: int) -> Instance:
    g = hidden_potential_graph(n, m, seed=gen_seed)
    return Instance(name, "hidden_potential", n, g.src, g.dst, g.w, gen_seed)


def relabelled(base: Instance, relabel_seed: int) -> Instance:
    """``base`` with vertices 1..n-1 permuted and edges shuffled."""
    rng = np.random.default_rng(relabel_seed)
    perm = np.r_[0, 1 + rng.permutation(base.n - 1)].astype(np.int64)
    order = rng.permutation(base.m)
    return Instance(base.name, base.family, base.n, perm[base.src[order]],
                    perm[base.dst[order]], base.w[order], base.gen_seed,
                    relabel_seed)


def late_scale_cycle(name: str, n: int, gen_seed: int,
                     cycle_len: int = 8) -> Instance:
    """A feasible hidden-potential base graph plus a cycle of fresh vertices
    with weights 0 except one -1, entered from the base graph with no edge
    back.  Scaled weights ``ceil(w / s)`` hide the -1 at every scale but the
    last, so every engine has to find the cycle at scale 1."""
    n0 = n - cycle_len
    g = hidden_potential_graph(n0, 4 * n0, seed=gen_seed)
    rng = np.random.default_rng(gen_seed)
    ring = np.arange(n0, n, dtype=np.int64)
    ring_w = np.zeros(cycle_len, dtype=np.int64)
    ring_w[rng.integers(cycle_len)] = -1
    entry = int(rng.integers(n0))
    src = np.r_[g.src, ring, entry]
    dst = np.r_[g.dst, np.roll(ring, -1), n0]
    w = np.r_[g.w, ring_w, rng.integers(0, 9)]
    return Instance(name, "late_scale_cycle", n, src, dst, w, gen_seed)


def _warmup() -> Instance:
    # large enough (about 2.5k negative edges) that a process ladder splits
    # its first map into 2 blocks and so starts its workers during set-up
    return hidden("warmup", 1000, 4000, gen_seed=0)


def paper_large(seed: int) -> Workload:
    # one base graph: with two of different difficulty (seeds 0 and 1 have
    # 48M and 54M model work) the median of a handful of solves falls
    # between the two groups and moves with the slower group's fastest solve
    base = hidden("hp8000", 8000, 32000, gen_seed=0)
    return Workload("paper-large", [relabelled(base, _sub_seed(seed, 1, 0))],
                    ("goldberg_parallel",), None, _warmup())


def mixed_small(seed: int) -> Workload:
    # n = 200..480; one instance in four carries a late-scale cycle
    bases = [late_scale_cycle(f"cyc{n}", n, gen_seed=i) if i % 4 == 3
             else hidden(f"hp{n}", n, 4 * n, gen_seed=i)
             for i, n in enumerate(range(200, 520, 40))]
    return Workload(
        "mixed-small",
        [relabelled(b, _sub_seed(seed, 2, i)) for i, b in enumerate(bases)],
        ENGINES, None, _warmup())


def successors_process(seed: int) -> Workload:
    bases = [hidden(f"hp4000-{b}", 4000, 16000, gen_seed=b)
             for b in range(4)]
    return Workload(
        "successors-process",
        [relabelled(b, _sub_seed(seed, 3, i)) for i, b in enumerate(bases)],
        ("fischer_simple", "bnw_scaling", "goldberg_sequential"), "process",
        _warmup())


WORKLOADS = {
    "paper-large": paper_large,
    "mixed-small": mixed_small,
    "successors-process": successors_process,
}
