import math
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from tensorwalk import snwalk
from tensorwalk.chains import TransitionKernel
from tensorwalk.characters import character_table
from tensorwalk.combinat import Partition, count_skew_syt_row, count_syt, enumerate_partitions
from tensorwalk.errors import ConsistencyError
from tensorwalk.occupancy import occupancy_exact, occupancy_probabilities
from tensorwalk.snwalk import (
    BoxWalk,
    box_walk,
    build_kernel_boxes,
    build_kernel_characters,
    check_single_column_extremal,
    ratio_via_kernel,
    ratio_via_occupancy,
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

from oracles import sn_separation_by_fresh_powers, tv_by_dense_rows


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
        assert k.power(1)[0] == (Fraction(1, 3), Fraction(2, 3), Fraction(0))
        assert k.power(1)[2] == (Fraction(0), Fraction(2, 3), Fraction(1, 3))
        assert k.stationary == (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))

    def test_box_route_matches_characters(self):
        for n in range(1, 7):
            assert build_kernel_boxes(n).power(1) == build_kernel_characters(n).power(1), n

    def test_builders_pass_only_nonzero_entries(self, monkeypatch):
        seen = []

        class Recording(TransitionKernel):
            def __init__(self, states, rows, stationary):
                seen.append(rows)
                super().__init__(states, rows, stationary)

        monkeypatch.setattr(snwalk, "TransitionKernel", Recording)
        for build in (build_kernel_boxes, build_kernel_characters.__wrapped__):
            kernel = build(6)
            (rows,) = seen
            seen.clear()
            assert all(x > 0 for row in rows for x in row.values())
            assert [sorted(row) for row in rows] == [
                [j for j, _ in row] for row in kernel.scaled_rows
            ]

    def test_reaching_trivial_needs_near_trivial_shape(self, kernels):
        for n in range(3, 7):
            k = kernels[n]
            top = trivial_shape(n)
            reachers = {
                lam for lam in k.states if k.power(1)[k.index(lam)][k.index(top)] > 0
            }
            assert reachers == {top, Partition([n - 1, 1])}

    def test_builders_reject_n_below_one(self):
        # n = 0 is a bad input, not a broken kernel, so no ConsistencyError
        for build in (BoxWalk, build_kernel_characters, build_kernel_boxes):
            with pytest.raises(ValueError, match="need n >= 1"):
                build(0)


class TestBoxWalk:
    def test_masses_match_character_kernel_rows(self):
        """The kernel route's ratio is the character kernel's r-step mass over
        the stationary law at every shape. By detailed balance that ratio is
        n! (D K)^r e_triv / D^r, with D K applied by `scaled_image`."""
        for n in range(2, 11):
            kernel, walk = build_kernel_characters(n), box_walk(n)
            assert walk.states == kernel.states
            start = kernel.index(trivial_shape(n))
            vector = [int(i == start) for i in range(kernel.size)]
            for r in range(3 * n + 1):
                if r:
                    vector = kernel.scaled_image(vector)
                for lam, v in zip(kernel.states, vector):
                    expected = Fraction(factorial(n) * v, kernel.scale**r)
                    assert ratio_via_kernel(n, r, lam) == expected, (n, r, lam)

    def test_tv_matches_dense_rows(self):
        for n in range(2, 8):
            kernel = build_kernel_characters(n)
            for r in range(2 * n + 1):
                expected = tv_by_dense_rows(kernel.power(1), kernel.stationary, 0, r)
                assert tv_exact(n, r) == expected, (n, r)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_routes_at_random_steps(self, data):
        n = data.draw(st.integers(min_value=2, max_value=10))
        r = data.draw(st.integers(min_value=0, max_value=4 * n))
        kernel = build_kernel_characters(n)
        assert tv_exact(n, r) == tv_by_dense_rows(kernel.power(1), kernel.stationary, 0, r)
        for lam in enumerate_partitions(n):
            assert tensor_power_check(n, r, lam), (n, r, lam)

    def test_latest_step_is_kept_and_read_only(self):
        walk = BoxWalk(5)
        third = walk.multiplicities(3)
        assert walk.multiplicities(3) is third
        assert isinstance(third, tuple)
        assert walk.multiplicities(0) == (1,) + (0,) * (len(walk.states) - 1)

    def test_earlier_power_restarts_from_the_start(self):
        walk = BoxWalk(5)
        walk.multiplicities(9)
        assert walk.multiplicities(5) == BoxWalk(5).multiplicities(5)

    def test_memory_stays_flat_along_a_curve(self):
        # only the latest step is kept, so a long curve holds one vector
        walk = BoxWalk(15)
        tracemalloc.start()
        try:
            for r in range(121):
                walk.multiplicities(r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError, match="negative"):
            BoxWalk(4).multiplicities(-1)

    def test_dimension_weighted_multiplicities_sum_to_n_to_the_r(self):
        # dim of the r-th tensor power of the permutation representation
        walk = BoxWalk(20)
        for r in range(11):
            assert sum(f * m for f, m in zip(walk.dims, walk.multiplicities(r))) == 20**r


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

        spectrum_sn.cache_clear()
        monkeypatch.setattr(snwalk, "partition_counts", off_by_one)
        with pytest.raises(ConsistencyError):
            spectrum_sn(12)


def checked_ratio(n, r, lam):
    """The mass ratio at `lam` by the kernel and occupancy routes, required
    equal, with the class sum checked against the kernel route's multiplicity."""
    assert tensor_power_check(n, r, lam)
    ratio = ratio_via_kernel(n, r, lam)
    assert ratio_via_occupancy(n, r, lam) == ratio, (n, r, lam)
    return ratio


class TestRatios:
    def test_point_mass_at_start(self):
        for n in range(2, 7):
            assert checked_ratio(n, 0, trivial_shape(n)) == factorial(n)

    def test_known_examples(self):
        assert checked_ratio(3, 1, Partition([1, 1, 1])) == 0
        assert checked_ratio(3, 2, Partition([1, 1, 1])) == Fraction(2, 3)

    def test_three_routes_agree_exhaustively(self):
        for n in range(2, 6):
            for lam in enumerate_partitions(n):
                for r in range(0, 2 * n + 1):
                    checked_ratio(n, r, lam)

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

    def test_occupancy_route_skips_zero_skew_counts(self, monkeypatch):
        """Only the a with lam_1 >= n - a carry weight, so the sign shape
        needs the occupancy law at a = n - 1 and n alone."""
        n, r = 9, 20
        calls = []

        def counting(a, n, rs):
            calls.append(a)
            return occupancy_probabilities(a, n, rs)

        monkeypatch.setattr(snwalk, "occupancy_probabilities", counting)
        assert ratio_via_occupancy(n, r, sign_shape(n)) == ratio_via_kernel(
            n, r, sign_shape(n)
        )
        assert sorted(calls) == [n - 1, n]

    def test_large_power_spot_check(self):
        n, r = 5, 37
        sign = sign_shape(n)
        assert 1 - ratio_via_kernel(n, r, sign) == separation_closed_form(n, r)


class TestTensorPowerCheck:
    def test_trivial_shape_first_power(self):
        for n in range(2, 6):
            assert tensor_power_check(n, 1, trivial_shape(n))

    def test_sign_absent_from_defining(self, kernels):
        assert tensor_power_check(3, 1, Partition([1, 1, 1]))
        k = kernels[3]
        assert k.power(1)[k.index(trivial_shape(3))][k.index(Partition([1, 1, 1]))] == 0

    def test_zero_power_is_point_mass(self):
        for lam in enumerate_partitions(4):
            assert tensor_power_check(4, 0, lam)


class TestSeparation:
    def test_known_examples(self):
        for n, r, expected in ((3, 2, Fraction(1, 3)), (4, 3, Fraction(5, 8)), (4, 2, 1)):
            routes = separation_routes(n, r)
            assert len(routes) == 4
            assert all(value == expected for value in routes.values()), routes

    def test_routes_agree_above_the_command_line_limit(self):
        for n in (11, 12):
            for r in range(3 * n + 1):
                assert len(separation_routes(n, r)) == 4, (n, r)

    def test_extremality_check_catches_an_undercut(self):
        # reversible S_3 kernel that swaps trivial and sign and holds [2,1]:
        # after one step the trivial shape has ratio 0 < the sign's ratio 6
        states = enumerate_partitions(3)
        swap = [{2: 1}, {1: 1}, {0: 1}]
        plancherel = [Fraction(count_syt(lam) ** 2, 6) for lam in states]
        kernel = TransitionKernel(states, swap, plancherel)
        kernel.validate()
        check_single_column_extremal(kernel, 0)
        with pytest.raises(ConsistencyError, match="undercuts"):
            check_single_column_extremal(kernel, 1)
        # back at the point mass at r = 2, so only a pass over every r <= 2 sees it
        with pytest.raises(ConsistencyError, match=r"shape at n=3 r=1$"):
            check_single_column_extremal(kernel, 2)

    def test_extremality_check_finds_a_late_undercut(self):
        # reversible S_4 path [4] - [3,1] - [2,2] - [1^4] - [2,1,1] under the
        # uniform law: the sign shape, three steps from the start, gains mass
        # at r = 3 while [2,1,1] behind it still has none
        states = enumerate_partitions(4)
        index = {lam: i for i, lam in enumerate(states)}
        path = [index[Partition(p)] for p in ([4], [3, 1], [2, 2], [1, 1, 1, 1], [2, 1, 1])]
        rows = [{} for _ in states]
        for x, y in zip(path, path[1:]):
            rows[x][y] = rows[y][x] = Fraction(1, 2)
        rows[path[0]][path[0]] = rows[path[-1]][path[-1]] = Fraction(1, 2)
        kernel = TransitionKernel(states, rows, [Fraction(1, 5)] * 5)
        check_single_column_extremal(kernel, 2)
        with pytest.raises(ConsistencyError, match=r"at \[2,1,1\] undercuts .* n=4 r=3$"):
            check_single_column_extremal(kernel, 3)

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

    @pytest.mark.parametrize("n", [60, 200, 512])
    def test_saturated_prefix_then_strict_drop_in_one_stepped_pass(self, n):
        # Each value of the prefix is n^r / n^r, so its reduction widens the
        # residue up to the full exponent on every row.
        values = list(separation_closed_forms(n, range(n + 1)))
        assert all((v.numerator, v.denominator) == (1, 1) for v in values[: n - 1])
        assert values[n - 1] < 1 and values[n] < values[n - 1]
        for r in (n - 1, n):
            assert values[r] == sn_separation_by_fresh_powers(n, r)

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


# n = 2 and 3; n - 1 prime (6, 8, 12, 32); powers of two (4, 8, 16, 32, 64,
# 128); n with an odd square factor (9, 45, 50, 200); at the CLI cap of 512,
# a prime n (509), an odd top index n - 2 (511) and the cap itself.
JUMP_NS = (2, 3, 4, 6, 8, 9, 12, 16, 32, 45, 50, 64, 128, 200, 509, 511, 512)


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

    @pytest.mark.parametrize("n", JUMP_NS)
    def test_jumps_match_fresh_powers(self, n):
        rs = sorted([0, 0, 1, 2, 2, 5, n - 1, n, 3 * n, 3 * n, 5 * n + 7])
        expected = [sn_separation_by_fresh_powers(n, r) for r in rs]
        assert list(separation_closed_forms(n, rs)) == expected

    def test_step_of_one_after_a_jump_matches_fresh_powers(self):
        # `profile --n 128 --c=0,0.008` reads r = 622 and then r = 623
        rs = [0, 622, 623]
        expected = [sn_separation_by_fresh_powers(128, r) for r in rs]
        assert list(separation_closed_forms(128, rs)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ascending_rs_match_fresh_powers(self, data):
        n = data.draw(st.sampled_from(JUMP_NS) | st.integers(min_value=2, max_value=60))
        gaps = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=4 * n),
                min_size=1,
                max_size=8,
            )
        )
        rs = [sum(gaps[: k + 1]) for k in range(len(gaps))]
        if data.draw(st.booleans()):
            rs = [0] + rs
        expected = [sn_separation_by_fresh_powers(n, r) for r in rs]
        assert list(separation_closed_forms(n, rs)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_a_range_from_r0_is_the_tail_of_the_range_from_0(self, data):
        """A pass that starts at r0 jumps there, then carries its terms and
        n^r from the first step of one on, as the upper half of a split
        `sn-sep` curve does."""
        n = data.draw(st.sampled_from(JUMP_NS) | st.integers(min_value=2, max_value=60))
        r1 = data.draw(st.integers(min_value=0, max_value=5 * n))
        r0 = data.draw(st.integers(min_value=0, max_value=r1))
        whole = list(separation_closed_forms(n, range(r1)))
        assert list(separation_closed_forms(n, range(r0, r1))) == whole[r0:]

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


class TestSteppedRoutes:
    """The one-pass route table against its one-r case at each r."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_pass_matches_each_r(self, data):
        n = data.draw(st.integers(min_value=2, max_value=10))
        gaps = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2) | st.integers(min_value=0, max_value=3 * n),
                min_size=1,
                max_size=8,
            )
        )
        rs = [sum(gaps[: k + 1]) for k in range(len(gaps))]
        if data.draw(st.booleans()):
            rs = [0] + rs
        stepped = list(snwalk.separations_by_route(n, iter(rs)))
        assert stepped == [separation_routes(n, r) for r in rs]

    def test_occupancy_pass_matches_each_r_for_every_shape(self):
        rs = [0, 0, 1, 2, 2, 3, 7, 8, 8, 9, 20, 21, 33]
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                stepped = list(snwalk.ratios_via_occupancy(n, lam, iter(rs)))
                assert stepped == [ratio_via_occupancy(n, r, lam) for r in rs], lam
                assert stepped == [ratio_via_kernel(n, r, lam) for r in rs], lam

    @pytest.mark.parametrize("rs", [[-1], [0, 3, 2], [4, 4, 1]])
    def test_negative_or_decreasing_r_raises(self, rs):
        passes = (
            snwalk.ratios_via_occupancy(5, sign_shape(5), rs),
            snwalk.separations_by_route(5, rs),
        )
        for values in passes:
            with pytest.raises(ValueError, match="need r >= 0|must not decrease"):
                list(values)


class TestProfile:
    # reference values computed with 40-digit arithmetic
    def test_reference_values(self):
        assert separation_profile(0.0) == pytest.approx(0.26424111765711536, rel=1e-14)
        assert separation_profile(1.0) == pytest.approx(0.05315299240107115, rel=1e-14)
        assert separation_profile(-2.0) == pytest.approx(0.99481573959054099, rel=1e-14)

    def test_limits(self):
        assert separation_profile(40.0) == pytest.approx(0.0, abs=1e-15)
        assert separation_profile(800.0) == 0.0
        assert separation_profile(-800.0) == 1.0

    def test_monotone_decreasing_in_c(self):
        values = [separation_profile(c / 2) for c in range(-10, 11)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_profile_tracks_exact_values(self):
        # at time n log n the finite-size value sits near the limit profile
        n = 64
        r = math.ceil(n * math.log(n))
        gap = abs(float(separation_closed_form(n, r)) - separation_profile(0.0))
        assert gap < 0.05


class TestTotalVariation:
    def test_zero_steps(self):
        for n in range(2, 7):
            assert tv_exact(n, 0) == 1 - Fraction(1, factorial(n))

    def test_dominated_by_separation(self):
        for n in (*range(2, 7), 12):
            for r in range(0, 2 * n + 1):
                assert tv_exact(n, r) <= separation_closed_form(n, r)

    def test_nonnegative_and_decreasing(self):
        for n in (3, 5):
            values = [tv_exact(n, r) for r in range(3 * n)]
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
                    image = sum(k.power(1)[i][j] * vec[j] for j in range(k.size))
                    assert image == eig * vec[i]
