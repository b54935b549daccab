from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from tensorwalk.combinat import (
    Partition,
    count_partitions,
    count_skew_syt,
    count_skew_syt_row,
    count_syt,
    enumerate_partitions,
    is_prime,
    partition_counts,
    prime_factors,
    q_binomial,
)

from oracles import count_standard_fillings, count_subspaces, euler_partition_count


@st.composite
def partitions(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    parts = sorted(Counter(bins).values(), reverse=True) if n else []
    return Partition(parts)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, 0])

    def test_serialization_round_trip(self):
        assert str(Partition([2, 1])) == "[2,1]"
        assert str(Partition()) == "[]"

    @given(partitions())
    def test_conjugate_involution(self, lam):
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().size == lam.size

    @given(partitions())
    def test_contains_reflexive(self, lam):
        assert lam.contains(lam)

    def test_corner_moves(self):
        lam = Partition([2, 1])
        assert set(lam.corner_removals()) == {Partition([1, 1]), Partition([2])}

    @given(partitions(max_n=8))
    def test_corner_moves_change_size_by_one(self, lam):
        for mu in lam.corner_removals():
            assert mu.size == lam.size - 1 and lam.contains(mu)


class TestEnumeratePartitions:
    def test_base_cases(self):
        assert enumerate_partitions(0) == [Partition()]
        assert enumerate_partitions(1) == [Partition([1])]

    def test_count_matches_recurrence(self):
        for n in range(13):
            assert len(enumerate_partitions(n)) == euler_partition_count(n)
            assert count_partitions(n) == euler_partition_count(n)

    def test_lexicographic_descending_order(self):
        got = enumerate_partitions(4)
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        for n in range(9):
            parts = enumerate_partitions(n)
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)


class TestCountSyt:
    def test_single_column_and_row(self):
        assert count_syt(Partition([1, 1, 1])) == 1
        assert count_syt(Partition([5])) == 1
        assert count_syt(Partition()) == 1

    def test_small_values(self):
        assert count_syt(Partition([2, 1])) == 2
        assert count_syt(Partition([2, 2])) == 2

    def test_against_enumeration(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert count_syt(lam) == count_standard_fillings(lam)

    def test_plancherel_normalization(self):
        for n in range(1, 7):
            total = sum(count_syt(lam) ** 2 for lam in enumerate_partitions(n))
            assert total == factorial(n)


class TestCountSkewSyt:
    def test_not_contained_is_zero(self):
        for n in range(1, 6):
            column = Partition([1] * n)
            assert count_skew_syt(column, Partition([2])) == 0

    def test_single_row_skew(self):
        for n in range(1, 7):
            for k in range(n + 1):
                inner = Partition([k]) if k else Partition()
                assert count_skew_syt(Partition([n]), inner) == 1

    def test_known_value(self):
        assert count_skew_syt(Partition([2, 1]), Partition([1])) == 2

    def test_empty_inner_matches_straight_count(self):
        for n in range(9):
            for lam in enumerate_partitions(n):
                assert count_skew_syt(lam, Partition()) == count_syt(lam)

    def test_against_corner_enumeration(self):
        for outer_size in range(1, 8):
            for outer in enumerate_partitions(outer_size):
                for inner_size in range(outer_size + 1):
                    for inner in enumerate_partitions(inner_size):
                        if not outer.contains(inner):
                            continue
                        expected = count_standard_fillings(outer, inner)
                        assert count_skew_syt(outer, inner) == expected

    @given(partitions(), partitions())
    def test_plain_tuples(self, outer, inner):
        parts, inner_parts = tuple(outer), tuple(inner)
        assert Partition(parts) == parts and hash(Partition(parts)) == hash(parts)
        assert str(outer) == "[" + ",".join(map(str, parts)) + "]"
        assert repr(outer) == f"Partition({list(parts)})"
        expected = count_standard_fillings(parts, inner_parts) if outer.contains(inner) else 0
        assert count_skew_syt(parts, inner_parts) == expected
        # uncached too: the caches may hold the results of earlier Partition calls
        assert count_skew_syt.__wrapped__(parts, inner_parts) == expected
        assert count_syt.__wrapped__(parts) == count_standard_fillings(parts)

    def test_disconnected_shape(self):
        assert count_skew_syt(Partition([3, 1]), Partition([2])) == \
            count_standard_fillings((3, 1), (2,))

    def test_row_helper(self):
        lam = Partition([3, 2])
        assert count_skew_syt_row(lam, 0) == count_syt(lam)
        assert count_skew_syt_row(lam, 4) == 0


class TestQBinomial:
    def test_edges(self):
        for n in range(6):
            assert q_binomial(n, 0, 7) == 1
            assert q_binomial(n, n, 3) == 1
        assert q_binomial(4, -1, 2) == 0
        assert q_binomial(4, 5, 2) == 0

    def test_known_values(self):
        assert q_binomial(2, 1, 2) == 3
        assert q_binomial(4, 2, 2) == 35

    def test_against_subspace_enumeration(self):
        assert q_binomial(2, 1, 2) == count_subspaces(2, 1, 2)
        assert q_binomial(4, 2, 2) == count_subspaces(4, 2, 2)
        assert q_binomial(3, 1, 3) == count_subspaces(3, 1, 3)
        assert q_binomial(3, 2, 3) == count_subspaces(3, 2, 3)

    def test_symmetry(self):
        for q in (2, 3, 4, 5):
            for n in range(11):
                for k in range(n + 1):
                    assert q_binomial(n, k, q) == q_binomial(n, n - k, q)

    def test_pascal_recurrence(self):
        # [n k] = [n-1 k-1] + q^k [n-1 k]
        for q in (2, 3):
            for n in range(1, 9):
                for k in range(1, n):
                    assert q_binomial(n, k, q) == q_binomial(n - 1, k - 1, q) + (
                        q**k
                    ) * q_binomial(n - 1, k, q)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            q_binomial(3, 1, 1)


@pytest.fixture(scope="module")
def partition_census():
    return [count_partitions(m) for m in range(513)]


class TestPartitionCounts:
    def test_matches_pentagonal_recurrence(self, partition_census):
        # ascending m keeps the recursive oracle's recursion shallow
        for m in range(513):
            assert partition_census[m] == euler_partition_count(m)

    def test_no_ones_is_first_difference(self, partition_census):
        for m in range(1, 513):
            assert (
                partition_counts(m, min_part=2)[m]
                == partition_census[m] - partition_census[m - 1]
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partition_counts(-1)
        with pytest.raises(ValueError):
            partition_counts(4, min_part=0)


class TestCountPartitionsNoOnes:
    def test_base_values(self):
        assert partition_counts(0, min_part=2)[0] == 1
        assert partition_counts(1, min_part=2)[1] == 0
        assert partition_counts(4, min_part=2)[4] == 2

    def test_against_enumeration(self):
        for m in range(13):
            direct = sum(
                1 for lam in enumerate_partitions(m) if all(p >= 2 for p in lam)
            )
            assert partition_counts(m, min_part=2)[m] == direct

    def test_census_totals_partition_count(self):
        # classes of the symmetric group split by fixed point count
        for n in range(1, 13):
            total = sum(
                partition_counts(n - i, min_part=2)[n - i]
                for i in list(range(n - 1)) + [n]
            )
            assert total == euler_partition_count(n)


class TestIsPrime:
    def test_matches_trial_division(self):
        for q in range(-2, 500):
            expected = q >= 2 and all(q % d for d in range(2, q))
            assert is_prime(q) == expected, q


class TestPrimeFactors:
    def test_rebuilds_q_with_prime_keys(self):
        for q in range(1, 2001):
            factors = prime_factors(q)
            product = 1
            for p, e in factors.items():
                assert e >= 1 and all(p % d for d in range(2, p)), (q, p)
                product *= p**e
            assert product == q, q

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors(0)
