import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from tensorwalk import snwalk
from tensorwalk.chains import TransitionKernel
from tensorwalk.characters import character_table
from tensorwalk.combinat import Partition, count_skew_syt_row, count_syt, enumerate_partitions
from tensorwalk.errors import ConsistencyError, SizeLimitError
from tensorwalk.occupancy import occupancy_exact
from tensorwalk.snwalk import (
    build_kernel_boxes,
    build_kernel_characters,
    check_single_column_extremal,
    ratio_at,
    ratio_via_kernel,
    ratio_via_occupancy,
    ratio_via_spectrum,
    separation_closed_form,
    separation_closed_forms,
    separation_profile,
    separation_routes,
    sign_shape,
    spectrum_sn,
    tensor_power_check,
    trivial_shape,
    tv_exact,
)


@pytest.fixture(scope="module")
def kernels():
    return {n: build_kernel_characters(n) for n in range(2, 7)}


@pytest.fixture(scope="module")
def tables():
    return {n: character_table(n) for n in range(2, 7)}


class TestKernelConstruction:
    def test_s3_rows_and_stationary(self, kernels):
        k = kernels[3]
        assert k.states == (Partition([3]), Partition([2, 1]), Partition([1, 1, 1]))
        assert k.matrix[0] == (Fraction(1, 3), Fraction(2, 3), Fraction(0))
        assert k.matrix[2] == (Fraction(0), Fraction(2, 3), Fraction(1, 3))
        assert k.stationary == (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))

    def test_box_route_matches_characters(self):
        for n in range(1, 7):
            assert build_kernel_boxes(n).matrix == build_kernel_characters(n).matrix, n

    def test_reaching_trivial_needs_near_trivial_shape(self, kernels):
        for n in range(3, 7):
            k = kernels[n]
            top = trivial_shape(n)
            reachers = {
                lam for lam in k.states if k.matrix[k.index(lam)][k.index(top)] > 0
            }
            assert reachers == {top, Partition([n - 1, 1])}

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            build_kernel_characters(11)


class TestSpectrum:
    def test_s4_multiplicities(self):
        entries = spectrum_sn(4).entries
        assert entries == (
            (Fraction(1), 1),
            (Fraction(1, 2), 1),
            (Fraction(1, 4), 1),
            (Fraction(0), 2),
        )

    def test_unit_eigenvalue_simple(self):
        for n in range(2, 9):
            spectrum = spectrum_sn(n)
            assert spectrum.entries[0] == (Fraction(1), 1)

    def test_total_multiplicity_is_class_count(self):
        for n in range(2, 11):
            assert spectrum_sn(n).total_multiplicity() == len(enumerate_partitions(n))

    def test_distinct_count(self):
        for n in range(2, 9):
            assert len(spectrum_sn(n).eigenvalues) == n

    def test_bad_multiplicity_table_raises(self, monkeypatch):
        # the total is checked against a separately built partition count,
        # so a single wrong no-ones entry must not pass
        original = snwalk.partition_counts

        def off_by_one(n, min_part=1):
            counts = original(n, min_part)
            if min_part == 2:
                counts[3] += 1
            return counts

        monkeypatch.setattr(snwalk, "partition_counts", off_by_one)
        with pytest.raises(ConsistencyError):
            spectrum_sn(12)


class TestRatios:
    def test_point_mass_at_start(self, kernels, tables):
        for n in range(2, 7):
            assert ratio_at(n, 0, trivial_shape(n), kernels[n], tables[n]) == factorial(n)

    def test_known_examples(self, kernels, tables):
        assert ratio_at(3, 1, Partition([1, 1, 1]), kernels[3], tables[3]) == 0
        assert ratio_at(3, 2, Partition([1, 1, 1]), kernels[3], tables[3]) == Fraction(2, 3)

    def test_three_routes_agree_exhaustively(self, kernels, tables):
        for n in range(2, 6):
            for lam in enumerate_partitions(n):
                for r in range(0, 2 * n + 1):
                    ratio_at(n, r, lam, kernels[n], tables[n])

    def test_nonnegative_terms(self):
        # every summand of the occupancy route is a product of nonnegatives
        for n in range(2, 6):
            for lam in enumerate_partitions(n):
                d = count_syt(lam)
                for r in (0, 1, n, 2 * n):
                    for a in range(n + 1):
                        term = occupancy_exact(a, r, n) * Fraction(
                            factorial(n - a) * count_skew_syt_row(lam, n - a), d
                        )
                        assert term >= 0

    def test_large_power_spot_check(self, kernels, tables):
        n, r = 5, 37
        sign = sign_shape(n)
        assert 1 - ratio_via_kernel(kernels[n], r, sign) == separation_closed_form(n, r)


class TestTensorPowerCheck:
    def test_trivial_shape_first_power(self, kernels, tables):
        for n in range(2, 6):
            assert tensor_power_check(n, 1, trivial_shape(n), kernels[n], tables[n])

    def test_sign_absent_from_defining(self, kernels, tables):
        assert tensor_power_check(3, 1, Partition([1, 1, 1]), kernels[3], tables[3])
        row = kernels[3].step_distribution(trivial_shape(3), 1)
        assert row[kernels[3].index(Partition([1, 1, 1]))] == 0

    def test_zero_power_is_point_mass(self, kernels, tables):
        for lam in enumerate_partitions(4):
            assert tensor_power_check(4, 0, lam, kernels[4], tables[4])


class TestSeparation:
    def test_known_examples(self, kernels):
        for n, r, expected in ((3, 2, Fraction(1, 3)), (4, 3, Fraction(5, 8)), (4, 2, 1)):
            eigenvalues = spectrum_sn(n).eigenvalues
            routes = separation_routes(n, r, kernels[n], eigenvalues)
            assert len(routes) == 4
            assert all(value == expected for value in routes.values()), routes

    def test_extremality_check_catches_an_undercut(self):
        # reversible S_3 kernel that swaps trivial and sign and holds [2,1]:
        # after one step the trivial shape has ratio 0 < the sign's ratio 6
        states = enumerate_partitions(3)
        swap = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        plancherel = [Fraction(count_syt(lam) ** 2, 6) for lam in states]
        kernel = TransitionKernel(states, swap, plancherel)
        kernel.validate()
        check_single_column_extremal(kernel, 0)
        with pytest.raises(ConsistencyError, match="undercuts"):
            check_single_column_extremal(kernel, 1)

    def test_closed_form_small_n(self):
        # one surviving eigenvalue for three letters: 3^(1-r) for r >= 1
        for r in range(1, 8):
            assert separation_closed_form(3, r) == Fraction(3, 3**r)
        assert separation_closed_form(3, 0) == 1

    def test_saturated_prefix_then_strict_drop(self):
        for n in range(3, 9):
            for r in range(n - 1):
                assert separation_closed_form(n, r) == 1
            assert separation_closed_form(n, n - 1) < 1

    def test_matches_occupancy_complement(self):
        for n in range(2, 9):
            for r in range(0, 2 * n):
                expected = 1 - occupancy_exact(n, r, n) - occupancy_exact(n - 1, r, n)
                assert separation_closed_form(n, r) == expected

    def test_values_in_unit_interval(self):
        for n in (2, 5, 9, 17, 33):
            for r in (0, 1, n, 2 * n, 4 * n):
                assert 0 <= separation_closed_form(n, r) <= 1

    def test_monotone_on_computed_grid(self):
        for n in range(2, 9):
            values = [separation_closed_form(n, r) for r in range(4 * n + 1)]
            assert all(x >= y for x, y in zip(values, values[1:]))


class TestSteppedClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_top_occupancy(self, data):
        n = data.draw(st.integers(min_value=2, max_value=40))
        rs = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=4 * n), max_size=8)))
        if data.draw(st.booleans()):
            rs = [0] + rs
        expected = [
            1 - occupancy_exact(n, r, n) - occupancy_exact(n - 1, r, n) for r in rs
        ]
        assert list(separation_closed_forms(n, rs)) == expected

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 2"):
            list(separation_closed_forms(1, [0]))

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError, match="r >= 0"):
            list(separation_closed_forms(5, [-1]))
        with pytest.raises(ValueError, match="r >= 0"):
            separation_closed_form(5, -1)

    def test_rejects_descending_r(self):
        values = separation_closed_forms(5, [0, 4, 3])
        assert next(values) == 1
        assert next(values) == separation_closed_form(5, 4)
        with pytest.raises(ValueError, match="decrease"):
            next(values)


class TestProfile:
    def test_reference_values(self):
        assert separation_profile(0.0) == pytest.approx(0.26424111765711536, rel=1e-14)
        assert separation_profile(1.0) == pytest.approx(0.05315299240107115, rel=1e-14)
        assert separation_profile(50.0) == pytest.approx(0.0, abs=1e-15)

    def test_profile_tracks_exact_values(self):
        # at time n log n the finite-size value sits near the limit profile
        n = 64
        r = math.ceil(n * math.log(n))
        gap = abs(float(separation_closed_form(n, r)) - separation_profile(0.0))
        assert gap < 0.05


class TestTotalVariation:
    def test_zero_steps(self, kernels):
        for n in range(2, 7):
            assert tv_exact(n, 0, kernels[n]) == 1 - Fraction(1, factorial(n))

    def test_dominated_by_separation(self, kernels):
        for n in range(2, 7):
            for r in range(0, 2 * n + 1):
                assert tv_exact(n, r, kernels[n]) <= separation_closed_form(n, r)

    def test_nonnegative_and_decreasing(self, kernels):
        for n in (3, 5):
            values = [tv_exact(n, r, kernels[n]) for r in range(3 * n)]
            assert all(v >= 0 for v in values)
            assert all(x >= y for x, y in zip(values, values[1:]))


class TestEigenfunctions:
    def test_rational_eigenfunction_identity(self, kernels, tables):
        for n in range(2, 6):
            k, t = kernels[n], tables[n]
            for c in t.classes:
                vec = [
                    Fraction(t.value(rho, c.cycle_type), t.dimension(rho))
                    for rho in k.states
                ]
                eig = Fraction(c.fixed_points, n)
                for i in range(k.size):
                    image = sum(k.matrix[i][j] * vec[j] for j in range(k.size))
                    assert image == eig * vec[i]
