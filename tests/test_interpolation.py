from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tensorwalk.chains import TransitionKernel
from tensorwalk.errors import ConsistencyError
from tensorwalk.glwalk import gl_spectrum
from tensorwalk.interpolation import (
    interpolation_coefficients,
    separation_from_spectrum,
    separations_from_spectrum,
    verify_distance,
)
from tensorwalk.occupancy import occupancy_exact
from tensorwalk.snwalk import (
    build_kernel_characters,
    separation_closed_form,
    sign_shape,
    spectrum_sn,
    trivial_shape,
)

from oracles import (
    interpolation_coefficients_subsets,
    spectral_separation_by_fraction_terms,
)


@pytest.fixture(scope="module")
def kernels():
    return {n: build_kernel_characters(n) for n in range(2, 8)}


def lazy_ehrenfest() -> TransitionKernel:
    # lazy nearest-neighbour walk on {0,1,2} with binomial stationary law;
    # its distinct eigenvalues are exactly 1, 1/2, 0
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return TransitionKernel(
        states=range(3),
        rows=[
            {0: half, 1: half},
            {0: quarter, 1: half, 2: quarter},
            {1: half, 2: half},
        ],
        stationary=[quarter, half, quarter],
    )


def direct_separation(kernel: TransitionKernel, r: int) -> Fraction:
    """1 - K^r(0, d) / pi(d) from the last state d, by the dense power."""
    d = kernel.size - 1
    return 1 - kernel.power(r)[0][d] / kernel.stationary[d]


distinct_fractions = st.lists(
    st.fractions(max_denominator=8, min_value=-1, max_value=1),
    min_size=1,
    max_size=6,
    unique=True,
)


class TestInterpolationCoefficients:
    def test_single_eigenvalue(self):
        assert interpolation_coefficients([Fraction(1)], 7) == [Fraction(1)]

    def test_two_point_formula(self):
        lam = Fraction(2, 5)
        for r in range(6):
            expected = [
                (lam**r - lam) / (1 - lam),
                (1 - lam**r) / (1 - lam),
            ]
            assert interpolation_coefficients([Fraction(1), lam], r) == expected

    @settings(max_examples=60, deadline=None)
    @given(distinct_fractions, st.integers(min_value=0, max_value=9))
    def test_matches_subset_enumeration(self, eigs, r):
        fast = interpolation_coefficients(eigs, r)
        naive = interpolation_coefficients_subsets(eigs, r)
        assert fast == naive

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            interpolation_coefficients([Fraction(1), Fraction(1)], 2)

    def test_reconstructs_kernel_powers(self, kernels):
        for n in range(2, 8):
            kernel = kernels[n]
            eigs = spectrum_sn(n).eigenvalues
            m = len(eigs)
            for r in (0, 1, 2, n, 2 * n, 20):
                gamma = interpolation_coefficients(eigs, r)
                size = kernel.size
                combo = [[Fraction(0)] * size for _ in range(size)]
                for a in range(m):
                    power = kernel.power(a)
                    for i in range(size):
                        for j in range(size):
                            combo[i][j] += gamma[a] * power[i][j]
                expected = kernel.power(r)
                assert all(
                    combo[i][j] == expected[i][j]
                    for i in range(size)
                    for j in range(size)
                )


class TestSeparationFromSpectrum:
    def test_two_state(self):
        lam = Fraction(1, 3)
        for r in range(7):
            assert separation_from_spectrum([Fraction(1), lam], r) == lam**r

    def test_matches_symmetric_group_closed_form(self):
        for n in range(2, 8):
            eigs = spectrum_sn(n).eigenvalues
            for r in range(3 * n):
                assert separation_from_spectrum(eigs, r) == separation_closed_form(n, r)

    def test_geometric_ladder(self):
        eigs = [Fraction(1), Fraction(1, 2), Fraction(1, 4)]
        assert separation_from_spectrum(eigs, 2) == Fraction(5, 8)

    def test_requires_unit_eigenvalue(self):
        with pytest.raises(ValueError):
            separation_from_spectrum([Fraction(1, 2), Fraction(1, 4)], 3)

    def test_invalid_spectrum_raises_between_valid_calls(self):
        valid = [Fraction(1), Fraction(1, 2), Fraction(1, 4)]
        invalid = [Fraction(1), Fraction(1, 2), Fraction(2, 4)]
        assert separation_from_spectrum(valid, 2) == Fraction(5, 8)
        for _ in range(2):
            with pytest.raises(ValueError, match="distinct"):
                separation_from_spectrum(invalid, 2)
        assert separation_from_spectrum(valid, 2) == Fraction(5, 8)
        assert separation_from_spectrum(valid, 3) == spectral_separation_by_fraction_terms(
            valid, 3
        )

    def test_spurious_eigenvalue_changes_value(self):
        # with the full ladder 0/n .. (n-1)/n the formula instead gives the
        # pure-birth occupancy complement, which differs from the walk's
        # distance once the extra eigenvalue matters
        for n in range(2, 7):
            padded = [Fraction(1)] + [Fraction(i, n) for i in range(n)]
            for r in range(0, 3 * n):
                value = separation_from_spectrum(padded, r)
                assert value == 1 - occupancy_exact(n, r, n)
            for r in range(n - 1, 3 * n):
                assert separation_from_spectrum(padded, r) != separation_closed_form(
                    n, r
                )


class TestSpectralIntegerSum:
    """The sum over one denominator equals the per-term Fraction sum."""

    @settings(max_examples=60, deadline=None)
    @given(distinct_fractions, st.integers(min_value=0, max_value=40))
    def test_arbitrary_spectra(self, eigs, r):
        eigs = [Fraction(1)] + [v for v in eigs if v != 1]
        assert separation_from_spectrum(eigs, r) == spectral_separation_by_fraction_terms(
            eigs, r
        )

    @given(st.integers(2, 12), st.integers(0, 40))
    def test_symmetric_group_spectra(self, n, r):
        eigs = spectrum_sn(n).eigenvalues
        assert separation_from_spectrum(eigs, r) == spectral_separation_by_fraction_terms(
            eigs, r
        )

    @given(st.integers(1, 12), st.sampled_from((2, 3, 4, 5, 7, 9)), st.integers(0, 40))
    def test_gl_spectra(self, n, q, r):
        eigs = gl_spectrum(n, q).eigenvalues
        assert separation_from_spectrum(eigs, r) == spectral_separation_by_fraction_terms(
            eigs, r
        )


class TestSteppedSpectralPass:
    """`separations_from_spectrum` against the per-term Fraction sum at each r."""

    RS = [0, 0, 1, 2, 5, 6, 7, 7, 19, 20, 40]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_symmetric_group_spectra(self, n):
        eigs = spectrum_sn(n).eigenvalues
        values = list(separations_from_spectrum(eigs, iter(self.RS)))
        assert values == [spectral_separation_by_fraction_terms(eigs, r) for r in self.RS]

    def test_negative_or_decreasing_r_raises(self):
        eigs = spectrum_sn(4).eigenvalues
        for rs in ([-2], [3, 1]):
            with pytest.raises(ValueError):
                list(separations_from_spectrum(eigs, rs))


class TestVerifyDistance:
    def test_self_distance(self, kernels):
        k = kernels[3]
        for state in k.states:
            assert verify_distance(k, state, state) == 0

    def test_extreme_shapes(self, kernels):
        for n in range(2, 7):
            d = verify_distance(
                kernels[n], trivial_shape(n), sign_shape(n), eigenvalue_count=n
            )
            assert d == n - 1

    def test_all_pairs_bounded(self, kernels):
        k = kernels[3]
        for x in k.states:
            for y in k.states:
                assert verify_distance(k, x, y, eigenvalue_count=3) <= 2

    def test_bound_violation_raises(self, kernels):
        with pytest.raises(ConsistencyError):
            verify_distance(
                kernels[4], trivial_shape(4), sign_shape(4), eigenvalue_count=2
            )

    def test_non_ergodic_rejected(self):
        half = Fraction(1, 2)
        one, zero = Fraction(1), Fraction(0)
        kernel = TransitionKernel(
            states=("a", "b"),
            rows=[{0: one, 1: zero}, {0: zero, 1: one}],
            stationary=[half, half],
        )
        with pytest.raises(ValueError):
            verify_distance(kernel, "a", "b")

    def test_periodic_rejected(self):
        half = Fraction(1, 2)
        kernel = TransitionKernel(
            states=("a", "b"), rows=[{1: 1}, {0: 1}], stationary=[half, half]
        )
        with pytest.raises(ValueError, match="no state holds in place"):
            verify_distance(kernel, "a", "b")

    def test_reads_only_the_sparse_rows(self, kernels):
        k = kernels[6]
        rows = [{j: Fraction(a, k.scale) for j, a in row} for row in k.scaled_rows]
        sparse = TransitionKernel(k.states, rows, k.stationary)
        d = verify_distance(sparse, trivial_shape(6), sign_shape(6), eigenvalue_count=6)
        assert d == 5
        assert not sparse._powers


class TestBirthDeath:
    """Tridiagonal kernels: the eigenvalue-only formula against the row walk."""

    def test_two_state_chain(self):
        a, c = Fraction(1, 3), Fraction(1, 2)
        kernel = TransitionKernel(
            states=range(2),
            rows=[{0: 1 - c, 1: c}, {0: a, 1: 1 - a}],
            stationary=[a / (a + c), c / (a + c)],
        )
        eigs = [Fraction(1), 1 - a - c]
        for r in range(6):
            assert separation_from_spectrum(eigs, r) == (1 - a - c) ** r
            assert separation_from_spectrum(eigs, r) == direct_separation(kernel, r)

    def test_lazy_walk_example(self):
        kernel = lazy_ehrenfest()
        assert kernel.stationary == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
        eigs = [Fraction(1), Fraction(1, 2), Fraction(0)]
        for r in range(8):
            assert separation_from_spectrum(eigs, r) == direct_separation(kernel, r)
        assert separation_from_spectrum(eigs, 0) == 1
        assert separation_from_spectrum(eigs, 2) == Fraction(1, 2)


class TestStationaryIdentity:
    def test_endpoint_mass_from_eigenvalues(self, kernels):
        # stationary mass at the far shape equals the first positive hitting
        # mass rescaled by the product of one minus each non-unit eigenvalue
        for n in range(2, 8):
            kernel = kernels[n]
            eigs = [v for v in spectrum_sn(n).eigenvalues if v != 1]
            d = n - 1
            mass = kernel.power(d)[kernel.index(trivial_shape(n))][
                kernel.index(sign_shape(n))
            ]
            product = Fraction(1)
            for lam in eigs:
                product *= 1 - lam
            assert kernel.stationary[kernel.index(sign_shape(n))] == mass / product
