import math
from collections import Counter
from math import factorial

import pytest

from tensorwalk import characters
from tensorwalk.characters import (
    character_table,
    character_value,
    conjugacy_classes,
    fixed_point_character_sum,
    signed_fixed_point_sum,
    tensor_multiplicity,
)
from tensorwalk.combinat import Partition, count_syt, enumerate_partitions
from tensorwalk.errors import ConsistencyError

from oracles import (
    fixed_point_census,
    fixed_point_sum_by_fraction_terms,
    signed_sum_by_enumeration,
)


def cycle_type_of(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class TestConjugacyClasses:
    def test_sizes_s3(self):
        sizes = {c.cycle_type: c.class_size for c in conjugacy_classes(3)}
        assert sizes == {(3,): 2, (2, 1): 3, (1, 1, 1): 1}

    def test_identity_class(self):
        for n in range(1, 7):
            classes = {c.cycle_type: c for c in conjugacy_classes(n)}
            identity = classes[(1,) * n]
            assert identity.class_size == 1
            assert identity.fixed_points == n
            assert identity.sign == 1

    def test_class_equation(self):
        for n in range(1, 9):
            assert sum(c.class_size for c in conjugacy_classes(n)) == factorial(n)

    def test_against_permutation_enumeration(self):
        from itertools import permutations

        for n in range(1, 6):
            census = Counter(cycle_type_of(p) for p in permutations(range(n)))
            for c in conjugacy_classes(n):
                assert census[c.cycle_type] == c.class_size

    def test_descriptor_fields(self):
        for c in conjugacy_classes(5):
            assert c.fixed_points == c.cycle_type.count(1)
            assert c.sign == (-1) ** (5 - len(c.cycle_type))

    def test_centralizer_not_dividing_raises(self, monkeypatch):
        # the 3-cycles' centralizer 3 (1! + 1) = 6 does not divide 3! + 1 = 7
        monkeypatch.setattr(characters, "factorial", lambda m: math.factorial(m) + 1)
        with pytest.raises(ConsistencyError, match=r"order 6 does not divide 3! at \[3\]"):
            conjugacy_classes(3)

    def test_empty_group(self):
        # S_0 has one element, hence one class and the one-entry table
        assert [c.class_size for c in conjugacy_classes(0)] == [1]
        assert character_table(0).values == ((1,),)


# classical tables, frozen with classes in lexicographic descending cycle
# type order; cross-validated below by orthogonality and dimensions
S3_TABLE = {
    (3,): (1, 1, 1),
    (2, 1): (-1, 0, 2),
    (1, 1, 1): (1, -1, 1),
}
S4_TABLE = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (-1, 0, -1, 1, 3),
    (2, 2): (0, -1, 2, 0, 2),
    (2, 1, 1): (1, 0, -1, -1, 3),
    (1, 1, 1, 1): (-1, 1, 1, -1, 1),
}


class TestCharacterTable:
    def test_s3_values(self):
        table = character_table(3)
        for parts, row in S3_TABLE.items():
            assert table.row(Partition(parts)) == row

    def test_s4_values(self):
        table = character_table(4)
        for parts, row in S4_TABLE.items():
            assert table.row(Partition(parts)) == row

    def test_trivial_and_sign_rows(self):
        for n in range(2, 8):
            table = character_table(n)
            assert all(v == 1 for v in table.row(Partition([n])))
            sign_row = table.row(Partition([1] * n))
            assert sign_row == tuple(c.sign for c in table.classes)

    def test_orthogonality(self):
        for n in range(1, 8):
            table = character_table(n)
            table.check_row_orthogonality()
            table.check_column_orthogonality()

    def test_dimensions_match_tableau_counts(self):
        for n in range(1, 8):
            table = character_table(n)
            for lam in enumerate_partitions(n):
                assert table.dimension(lam) == count_syt(lam)

    def test_conjugation_gives_sign_twist(self):
        table = character_table(6)
        for lam in enumerate_partitions(6):
            conj_row = table.row(lam.conjugate())
            row = table.row(lam)
            for v, w, c in zip(row, conj_row, table.classes):
                assert w == c.sign * v

    def test_character_value_size_mismatch(self):
        with pytest.raises(ValueError):
            character_value(Partition([2, 1]), Partition([2]))


class TestFixedPointCharacterSum:
    def test_known_examples(self):
        assert fixed_point_character_sum(3, Partition([2, 1]), 1) == 0
        assert fixed_point_character_sum(3, Partition([1, 1, 1]), 0) == 2

    def test_trivial_shape_counts_permutations(self):
        for n in range(1, 7):
            census = fixed_point_census(n)
            for i in range(n + 1):
                assert fixed_point_character_sum(n, Partition([n]), i) == census.get(
                    i, 0
                )

    def test_both_routes_all_shapes(self):
        # route agreement is asserted inside; run the whole small grid
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                for i in range(n + 1):
                    fixed_point_character_sum(n, lam, i)

    def test_integer_formula_matches_fraction_terms(self):
        for n in range(1, 11):
            for lam in enumerate_partitions(n):
                for i in range(n + 1):
                    expected = fixed_point_sum_by_fraction_terms(lam, i)
                    assert fixed_point_character_sum(n, lam, i) == expected, (lam, i)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fixed_point_character_sum(3, Partition([2, 1]), 4)
        with pytest.raises(ValueError):
            fixed_point_character_sum(3, Partition([2]), 1)


class TestSignedFixedPointSum:
    def test_known_examples(self):
        assert signed_fixed_point_sum(4, 0) == -3
        assert signed_fixed_point_sum(3, 1) == -3
        assert signed_fixed_point_sum(5, 5) == 1

    def test_none_with_all_but_one_fixed(self):
        for n in range(2, 9):
            assert signed_fixed_point_sum(n, n - 1) == 0

    def test_against_permutation_enumeration(self):
        for n in range(1, 7):
            for i in range(n):
                assert signed_fixed_point_sum(n, i) == signed_sum_by_enumeration(n, i)


class TestTensorMultiplicity:
    def test_trivial_factor_is_identity(self):
        n = 4
        table = character_table(n)
        trivial = [1] * len(table.classes)
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n):
                expected = 1 if lam == rho else 0
                assert tensor_multiplicity(n, lam, trivial, rho) == expected

    def test_defining_factor_examples(self):
        table = character_table(3)
        eta = table.fixed_points
        assert tensor_multiplicity(3, Partition([3]), eta, Partition([2, 1])) == 1
        assert tensor_multiplicity(3, Partition([1, 1, 1]), eta, Partition([3])) == 0

    def test_non_integer_average_raises(self):
        # A class function that is not a character: 1 on the identity class
        # only. Its average against the trivial character twice is 1/6.
        table = character_table(3)
        eta = [1 if c.fixed_points == 3 else 0 for c in table.classes]
        with pytest.raises(ConsistencyError, match="value=1/6"):
            tensor_multiplicity(3, Partition([3]), eta, Partition([3]))

    def test_dimension_consistency(self):
        for n in range(2, 7):
            table = character_table(n)
            eta = table.fixed_points
            for lam in enumerate_partitions(n):
                total = sum(
                    count_syt(rho) * tensor_multiplicity(n, lam, eta, rho)
                    for rho in enumerate_partitions(n)
                )
                assert total == count_syt(lam) * n
