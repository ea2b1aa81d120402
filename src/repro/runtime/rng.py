"""Deterministic randomness utilities.

All randomised pieces of the paper (geometric vertex priorities in §3.1,
perturbed/flaky ASSSP engines) draw from numpy ``Generator`` instances seeded
explicitly, so every experiment in EXPERIMENTS.md is reproducible bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalise a seed-or-generator argument to a ``Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def priority_cap(n: int) -> int:
    """``⌈log2 n⌉`` — the highest priority value for an n-vertex graph."""
    if n <= 1:
        return 1
    return max(1, math.ceil(math.log2(n)))


def geometric_priorities(n: int, rng: np.random.Generator,
                         cap: int | None = None) -> np.ndarray:
    """Sample the paper's truncated geometric priorities for ``n`` vertices.

    ``priority(v) = i`` with probability ``2^-i`` for ``1 <= i < cap`` and the
    remaining tail mass ``2^-(cap-1)`` collapses onto ``cap`` (§3.1's
    "geometric distribution with a rounded tail").  Priorities are fixed for
    the lifetime of a peeling run.
    """
    if cap is None:
        cap = priority_cap(max(n, 1))
    if n < 0 or cap < 1:
        # deferred: repro.resilience imports this module
        from ..resilience.errors import InputValidationError
        raise InputValidationError("n must be nonnegative" if n < 0
                                   else "cap must be >= 1")
    u = rng.random(n)
    # u uniform in [0,1): priority i iff u in [2^-i, 2^-(i-1)) => i = floor(-lg u)+1
    with np.errstate(divide="ignore"):
        pri = np.floor(-np.log2(np.maximum(u, np.finfo(float).tiny))).astype(np.int64) + 1
    np.clip(pri, 1, cap, out=pri)
    return pri


def derive_seed(seed: int, *salts: int) -> int:
    """Deterministically derive a child seed from ``seed`` and salt values.

    Used by nested randomised stages (per-scale, per-iteration) so that one
    top-level seed reproduces the whole run while stages stay independent.
    """
    x = (int(seed) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    for s in salts:
        x = (x ^ (int(s) + 0x9E3779B9)) * 0xBF58476D1CE4E5B9
        x &= 0xFFFFFFFFFFFFFFFF
    return x
