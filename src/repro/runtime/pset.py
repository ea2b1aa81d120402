"""Parallel ordered integer sets (Blelloch–Ferizovic–Sun "Just Join" model).

The peeling algorithm (§3.5) stores, for every vertex ``u``, the set
``SentLabel(u)`` of vertices currently labeled by an edge leaving ``u``.  The
paper implements these as join-based balanced trees supporting merge in
``O(m·lg(n/m+1))`` work and ``O(lg m · lg n)`` span, plus ``O(n)``-work
enumeration.  We realise the same semantics with sorted numpy arrays —
vectorised set union/enumeration — and charge the published costs, so the
work/span ledger matches the data structure the paper assumes.
"""

from __future__ import annotations

import numpy as np

from .metrics import Cost, CostAccumulator
from .model import CostModel, DEFAULT_MODEL
from .racecheck import race_read, race_write


_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class SortedIntSet:
    """An ordered set of int64 keys backed by a sorted numpy array."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray | None = None) -> None:
        if data is None:
            self._data = np.empty(0, dtype=np.int64)
        else:
            arr = np.asarray(data, dtype=np.int64)
            self._data = np.unique(arr)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: int) -> bool:
        i = np.searchsorted(self._data, key)
        return bool(i < len(self._data) and self._data[i] == key)

    def merge(self, other: "SortedIntSet | np.ndarray",
              acc: CostAccumulator | None = None,
              model: CostModel = DEFAULT_MODEL) -> None:
        """Union ``other`` into this set (in place)."""
        race_write(self, label="SortedIntSet", site="pset.merge")
        arr = other._data if isinstance(other, SortedIntSet) else \
            np.unique(np.asarray(other, dtype=np.int64))
        if acc is not None:
            small, big = sorted((len(arr), len(self._data)))
            acc.charge_cost(model.set_merge(small, big))
        if len(arr) == 0:
            return
        if len(self._data) == 0:
            self._data = arr.copy()
            return
        merged = np.union1d(self._data, arr)
        self._data = merged

    def enumerate(self, acc: CostAccumulator | None = None,
                  model: CostModel = DEFAULT_MODEL) -> np.ndarray:
        """All elements, ascending.  Returns a read-only view."""
        race_read(self, label="SortedIntSet", site="pset.enumerate")
        if acc is not None:
            acc.charge_cost(model.set_enumerate(len(self._data)))
        view = self._data.view()
        view.flags.writeable = False
        return view

    def clear(self, acc: CostAccumulator | None = None,
              model: CostModel = DEFAULT_MODEL) -> None:
        race_write(self, label="SortedIntSet", site="pset.clear")
        if acc is not None:
            acc.charge_cost(model.set_enumerate(len(self._data)))
        self._data = np.empty(0, dtype=np.int64)

    def difference_update(self, other: np.ndarray,
                          acc: CostAccumulator | None = None,
                          model: CostModel = DEFAULT_MODEL) -> None:
        """Remove the sorted keys in ``other`` from this set."""
        race_write(self, label="SortedIntSet", site="pset.difference_update")
        arr = np.asarray(other, dtype=np.int64)
        if acc is not None:
            small, big = sorted((len(arr), len(self._data)))
            acc.charge_cost(model.set_merge(small, big))
        if len(arr) == 0 or len(self._data) == 0:
            return
        mask = np.isin(self._data, arr, assume_unique=False)
        self._data = self._data[~mask]

    def to_list(self) -> list[int]:
        return self._data.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedIntSet({self._data.tolist()!r})"


class SetVector:
    """A vector of ordered int64 sets, one per identifier (§4.3).

    Supports the operations Lemma 14 relies on: O(#sets) initialisation,
    batched adds, gathering the union of ``t`` identified sets into a flat
    array with linear work, and emptying identified sets.  Each set is a
    sorted duplicate-free array with :class:`SortedIntSet`'s semantics and
    charges; the empty sets share one read-only array.
    """

    __slots__ = ("_sets",)

    def __init__(self, n_sets: int,
                 acc: CostAccumulator | None = None,
                 model: CostModel = DEFAULT_MODEL) -> None:
        if acc is not None:
            acc.charge_cost(model.map(n_sets))
        self._sets: list[np.ndarray] = [_EMPTY] * n_sets

    def __len__(self) -> int:
        return len(self._sets)

    def add_batch(self, ident: int, keys: np.ndarray,
                  acc: CostAccumulator | None = None,
                  model: CostModel = DEFAULT_MODEL) -> None:
        """Union ``keys`` into set ``ident``."""
        race_write(self, ident, ident + 1, label="SetVector",
                   site="pset.add_batch")
        arr = np.unique(np.asarray(keys, dtype=np.int64))
        cur = self._sets[ident]
        if acc is not None:
            small, big = sorted((len(arr), len(cur)))
            acc.charge_cost(model.set_merge(small, big))
        if len(arr):
            self._sets[ident] = np.union1d(cur, arr) if len(cur) else arr

    def size(self, ident: int) -> int:
        return len(self._sets[ident])

    def gather(self, idents: np.ndarray | list[int],
               acc: CostAccumulator | None = None,
               model: CostModel = DEFAULT_MODEL) -> np.ndarray:
        """Flat array of all elements across the identified sets."""
        race_read(self, label="SetVector", site="pset.gather")
        parts = [self._sets[i] for i in np.asarray(idents, dtype=np.int64)
                 .tolist()]
        total = sum(len(p) for p in parts)
        if acc is not None:
            acc.charge_cost(model.scan(len(parts)))
            acc.charge_cost(model.map(total))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def clear_many(self, idents: np.ndarray | list[int],
                   acc: CostAccumulator | None = None,
                   model: CostModel = DEFAULT_MODEL) -> None:
        """Empty the identified sets, charging one enumeration per set."""
        race_write(self, label="SetVector", site="pset.clear_many")
        sets = self._sets
        charges: dict[int, Cost] = {}
        for i in np.asarray(idents, dtype=np.int64).tolist():
            if acc is not None:
                size = len(sets[i])
                cost = charges.get(size)
                if cost is None:
                    cost = charges[size] = model.set_enumerate(size)
                acc.charge_cost(cost)
            sets[i] = _EMPTY
