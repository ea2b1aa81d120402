"""Tests for parallel ordered sets and the vector-of-sets (§3.5, §4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import CostAccumulator, SetVector, SortedIntSet
from repro.runtime.executor import ForkJoinPool
from repro.runtime.model import DEFAULT_MODEL
from repro.runtime.racecheck import race_checking


class TestSortedIntSet:
    def test_empty(self):
        s = SortedIntSet()
        assert len(s) == 0
        assert 5 not in s

    def test_init_dedupes_and_sorts(self):
        s = SortedIntSet(np.array([3, 1, 3, 2]))
        assert s.to_list() == [1, 2, 3]

    def test_contains(self):
        s = SortedIntSet(np.array([10, 20, 30]))
        assert 20 in s and 15 not in s and 40 not in s

    def test_merge_into_empty(self):
        s = SortedIntSet()
        s.merge(np.array([5, 1]))
        assert s.to_list() == [1, 5]

    def test_merge_empty_arg(self):
        s = SortedIntSet(np.array([1]))
        s.merge(np.array([], dtype=np.int64))
        assert s.to_list() == [1]

    def test_merge_overlapping(self):
        s = SortedIntSet(np.array([1, 3]))
        s.merge(SortedIntSet(np.array([2, 3, 4])))
        assert s.to_list() == [1, 2, 3, 4]

    def test_merge_charges_cost(self):
        acc = CostAccumulator()
        s = SortedIntSet(np.arange(100))
        s.merge(np.arange(100, 110), acc)
        assert acc.work > 0 and acc.span > 0

    def test_enumerate_readonly(self):
        s = SortedIntSet(np.array([1, 2]))
        view = s.enumerate()
        with pytest.raises(ValueError):
            view[0] = 9

    def test_clear(self):
        s = SortedIntSet(np.array([1, 2]))
        s.clear()
        assert len(s) == 0

    def test_difference_update(self):
        s = SortedIntSet(np.array([1, 2, 3, 4]))
        s.difference_update(np.array([2, 4, 9]))
        assert s.to_list() == [1, 3]

    def test_difference_update_empty(self):
        s = SortedIntSet(np.array([1]))
        s.difference_update(np.array([], dtype=np.int64))
        assert s.to_list() == [1]

    @given(st.lists(st.integers(0, 50), max_size=40),
           st.lists(st.integers(0, 50), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_set_union(self, a, b):
        s = SortedIntSet(np.array(a, dtype=np.int64))
        s.merge(np.array(b, dtype=np.int64))
        assert s.to_list() == sorted(set(a) | set(b))


class TestSetVector:
    def test_init_sizes(self):
        vs = SetVector(5)
        assert len(vs) == 5
        assert all(vs.size(i) == 0 for i in range(5))

    def test_add_and_gather(self):
        vs = SetVector(3)
        vs.add_batch(0, np.array([1, 2]))
        vs.add_batch(2, np.array([5]))
        out = vs.gather([0, 1, 2])
        assert sorted(out.tolist()) == [1, 2, 5]

    def test_gather_empty_idents(self):
        vs = SetVector(3)
        assert vs.gather([]).tolist() == []

    def test_clear_many(self):
        vs = SetVector(3)
        vs.add_batch(0, np.array([1]))
        vs.add_batch(1, np.array([2]))
        vs.clear_many([0])
        assert vs.size(0) == 0 and vs.size(1) == 1

    def test_add_batch_dedupes(self):
        vs = SetVector(1)
        vs.add_batch(0, np.array([1, 1, 2]))
        vs.add_batch(0, np.array([2, 3]))
        assert vs.size(0) == 3

    def test_costs_charged(self):
        acc = CostAccumulator()
        vs = SetVector(4, acc)
        vs.add_batch(0, np.arange(10), acc)
        vs.gather([0, 1], acc)
        assert acc.work >= 10


SIZES = (0, 1, 2, 3, 1000)


def _ledger(acc):
    return (acc.work, acc.span, acc.span_model)


class TestSetVectorLedger:
    """The vector charges exactly what one ordered set per identifier
    would: the same primitives, per set, in the same order."""

    def test_charges_bit_equal_to_per_set_ledger(self):
        model = DEFAULT_MODEL
        acc, ref = CostAccumulator(), CostAccumulator()
        vs = SetVector(len(SIZES), acc, model)
        ref.charge_cost(model.map(len(SIZES)))
        sizes = [0] * len(SIZES)
        # a first batch with duplicates, then an overlapping one
        for batch in (lambda k: np.repeat(np.arange(k)[::-1], 2),
                      lambda k: np.arange(k // 2, k + k // 2)):
            for i, k in enumerate(SIZES):
                keys = batch(k)
                vs.add_batch(i, keys, acc, model)
                fresh = len(np.unique(keys))
                ref.charge_cost(model.set_merge(*sorted((fresh, sizes[i]))))
                sizes[i] = len(np.union1d(np.arange(sizes[i]), keys))
                assert vs.size(i) == sizes[i]
        idents = [4, 0, 3, 1, 2]
        out = vs.gather(idents, acc, model)
        ref.charge_cost(model.scan(len(idents)))
        ref.charge_cost(model.map(sum(sizes)))
        assert len(out) == sum(sizes)
        # ident 4 twice: the second clear enumerates an empty set
        cleared = np.array([4, 0, 3, 1, 2, 4])
        vs.clear_many(cleared, acc, model)
        for i in cleared.tolist():
            ref.charge_cost(model.set_enumerate(sizes[i]))
            sizes[i] = 0
        assert _ledger(acc) == _ledger(ref)
        assert all(vs.size(i) == 0 for i in range(len(SIZES)))

    @pytest.mark.parametrize("k", SIZES)
    def test_sets_stay_sorted_and_unique(self, k):
        vs = SetVector(2)
        keys = np.arange(k)[::-1]
        vs.add_batch(1, keys)
        vs.add_batch(1, keys)
        assert vs.gather([1]).tolist() == list(range(k))
        assert vs.size(0) == 0

    def test_caller_keys_not_aliased(self):
        vs = SetVector(1)
        keys = np.array([1, 2, 3])
        vs.add_batch(0, keys)
        keys[0] = 99
        out = vs.gather([0])
        out[0] = -5
        assert vs.gather([0]).tolist() == [1, 2, 3]


def _parallel(n, body):
    with ForkJoinPool(2) as pool, race_checking() as checker:
        pool.parallel_for(n, body, grain=1)
    return checker.findings()


class TestSetVectorRaceAnnotations:
    def test_add_batch_same_set_races(self):
        vs = SetVector(4)
        found = _parallel(4, lambda lo, hi: [
            vs.add_batch(0, np.array([i])) for i in range(lo, hi)])
        assert found and {f.a_site for f in found} == {"pset.add_batch"}
        assert {f.label for f in found} == {"SetVector"}

    def test_add_batch_disjoint_sets_clean(self):
        vs = SetVector(4)
        assert _parallel(4, lambda lo, hi: [
            vs.add_batch(i, np.array([i])) for i in range(lo, hi)]) == []

    def test_clear_many_races(self):
        vs = SetVector(4)
        found = _parallel(4, lambda lo, hi: vs.clear_many(range(lo, hi)))
        assert {f.a_site for f in found} == {"pset.clear_many"}

    def test_gather_read_races_with_add_batch(self):
        vs = SetVector(4)

        def body(lo, hi):
            for i in range(lo, hi):
                if i % 2:
                    vs.gather([0])
                else:
                    vs.add_batch(0, np.array([i]))

        found = _parallel(4, body)
        assert any(f.kind == "read-write" and "pset.gather" in
                   (f.a_site, f.b_site) for f in found)
