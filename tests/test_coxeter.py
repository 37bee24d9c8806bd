import itertools

import pytest
from hypothesis import given, strategies as st

from bandgroup.coxeter import (
    BandPair,
    CoxeterDatum,
    Partition,
    commutes_in_brn,
    crossing,
    matrix_from_json,
    partition_from_json,
    partition_to_matrix,
    set_partitions,
)


def parts_joined_by_one(m):
    """The strands of m grouped by entries equal to 1, a part per strand."""
    return {
        tuple(b for b in range(1, m.n + 1) if b == a or m.entry_at(a, b) == 1)
        for a in range(1, m.n + 1)
    }


def bp(a, b):
    return BandPair.of(a, b)


class TestBandPair:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BandPair(3, 2)
        with pytest.raises(ValueError):
            BandPair(0, 1)
        with pytest.raises(ValueError):
            BandPair.of(2, 2)

    def test_of_sorts(self):
        assert BandPair.of(4, 1) == BandPair(1, 4)


class TestCommutesAndCrossing:
    def test_commutes_examples(self):
        assert commutes_in_brn(bp(1, 2), bp(3, 4)) is True
        assert commutes_in_brn(bp(1, 3), bp(2, 4)) is False
        assert commutes_in_brn(bp(1, 2), bp(1, 3)) is False

    def test_crossing_examples(self):
        assert crossing(bp(1, 3), bp(2, 4)) is True
        assert crossing(bp(1, 2), bp(3, 4)) is False
        assert crossing(bp(1, 4), bp(2, 3)) is False

    def test_crossing_rejects_shared_index(self):
        with pytest.raises(ValueError):
            crossing(bp(1, 2), bp(2, 3))

    def test_symmetry_and_equivalence(self):
        pairs = [bp(a, b) for a, b in itertools.combinations(range(1, 7), 2)]
        for tau, sigma in itertools.combinations(pairs, 2):
            assert commutes_in_brn(tau, sigma) == commutes_in_brn(sigma, tau)
            if not {tau.i, tau.j} & {sigma.i, sigma.j}:
                assert crossing(tau, sigma) == crossing(sigma, tau)
                assert commutes_in_brn(tau, sigma) == (not crossing(tau, sigma))


class TestCoxeterDatum:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoxeterDatum.from_rows([[0, 1], [2, 0]])  # not symmetric
        with pytest.raises(ValueError):
            CoxeterDatum.from_rows([[1, 2], [2, 0]])  # nonzero diagonal
        with pytest.raises(ValueError):
            CoxeterDatum.from_rows([[0, -1], [-1, 0]])

    def test_large_type(self):
        assert CoxeterDatum.constant(4, 3).is_large_type()
        assert CoxeterDatum.from_entries(3, {(1, 2): 3, (1, 3): 0, (2, 3): 5}).is_large_type()
        assert not CoxeterDatum.constant(3, 2).is_large_type()

    def test_band_pairs_skip_zero_entries(self):
        m = CoxeterDatum.from_entries(4, {(1, 2): 3, (3, 4): 3})
        assert m.band_pairs() == [BandPair(1, 2), BandPair(3, 4)]

    def test_json_round_trip(self):
        m = CoxeterDatum.constant(3, 2)
        import json

        again = matrix_from_json(json.dumps({"n": m.n, "m": [list(row) for row in m.m]}))
        assert again == m


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition.of(3, [[1, 2]])  # 3 missing
        with pytest.raises(ValueError):
            Partition.of(3, [[1, 2], [2, 3]])  # overlap
        with pytest.raises(ValueError):
            Partition.of(3, [[1, 2], [3], []])

    def test_missing_elements_are_named_up_to_ten(self):
        with pytest.raises(ValueError, match=r"^elements \[2, 4\] not covered$"):
            Partition.of(4, [[1, 3]])
        with pytest.raises(ValueError, match=r"^elements \[2, 3, .*, 11\] not covered$"):
            Partition.of(11, [[1]])
        first_ten = r"the first ten \[2, 3, .*, 11\]$"
        with pytest.raises(ValueError, match=r"^11 elements not covered, " + first_ten):
            Partition.of(12, [[1]])

    def test_induced_and_extension(self):
        assert Partition.of(3, [[1], [2, 3]]).with_singleton() == Partition.of(
            4, [[1], [2, 3], [4]]
        )

    def test_json_round_trip(self):
        import json

        p = Partition.of(5, [[1, 3], [2], [4, 5]])
        text = json.dumps({"n": p.n, "parts": [list(part) for part in p.parts]})
        assert partition_from_json(text) == p


class TestSetPartitions:
    def test_bell_numbers(self):
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            parts = list(set_partitions(n))
            assert len(parts) == bell
            assert len(set(parts)) == bell


class TestPartitionMatrixBijection:
    def test_partition_to_matrix_examples(self):
        m = partition_to_matrix(Partition.of(3, [[1, 2], [3]]))
        assert m.entry_at(1, 2) == 1
        assert m.entry_at(1, 3) == 2
        assert m.entry_at(2, 3) == 2

        pure = partition_to_matrix(Partition.singletons(4))
        assert all(
            pure.entry_at(i, j) == 2 for i, j in itertools.combinations(range(1, 5), 2)
        )

        full = partition_to_matrix(Partition.of(3, [range(1, 4)]))
        assert all(
            full.entry_at(i, j) == 1 for i, j in itertools.combinations(range(1, 4), 2)
        )

    def test_round_trips_all_partitions_up_to_5(self):
        # the matrix keeps the whole partition: its 1-entries give the parts back
        for n in range(1, 6):
            for p in set_partitions(n):
                assert Partition.of(n, parts_joined_by_one(partition_to_matrix(p))) == p

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_matrix_round_trip_random(self, n, data):
        code = [0]
        for pos in range(1, n):
            code.append(data.draw(st.integers(0, max(code) + 1)))
        blocks = {}
        for idx, b in enumerate(code):
            blocks.setdefault(b, []).append(idx + 1)
        p = Partition.of(n, blocks.values())
        assert Partition.of(n, parts_joined_by_one(partition_to_matrix(p))) == p
