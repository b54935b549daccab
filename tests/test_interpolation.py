from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tensorwalk.chains import TransitionKernel
from tensorwalk.errors import ConsistencyError
from tensorwalk.interpolation import (
    BirthDeathChain,
    birth_death_separation,
    interpolation_coefficients,
    interpolation_coefficients_subsets,
    separation_from_spectrum,
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


@pytest.fixture(scope="module")
def kernels():
    return {n: build_kernel_characters(n) for n in range(2, 8)}


def lazy_ehrenfest() -> BirthDeathChain:
    # lazy nearest-neighbour walk on {0,1,2} with binomial stationary law;
    # its distinct eigenvalues are exactly 1, 1/2, 0
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return BirthDeathChain(
        down=(quarter, half), hold=(half, half, half), up=(half, quarter)
    )


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
            matrix=[[one, zero], [zero, one]],
            stationary=[half, half],
        )
        with pytest.raises(ValueError):
            verify_distance(kernel, "a", "b")


class TestBirthDeath:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            BirthDeathChain(
                down=(Fraction(1, 4),),
                hold=(Fraction(1, 2), Fraction(1, 2)),
                up=(Fraction(1, 2),),
            )

    def test_two_state_chain(self):
        a, c = Fraction(1, 3), Fraction(1, 2)
        chain = BirthDeathChain(down=(a,), hold=(1 - c, 1 - a), up=(c,))
        assert chain.is_monotone()
        eigs = [Fraction(1), 1 - a - c]
        for r in range(6):
            assert birth_death_separation(chain, eigs, r) == (1 - a - c) ** r

    def test_lazy_walk_example(self):
        chain = lazy_ehrenfest()
        assert chain.stationary() == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        eigs = [Fraction(1), Fraction(1, 2), Fraction(0)]
        kernel = chain.kernel()
        for r in range(8):
            value = birth_death_separation(chain, eigs, r)
            direct = 1 - kernel.power(r)[0][2] / chain.stationary()[2]
            assert value == direct
        assert birth_death_separation(chain, eigs, 0) == 1
        assert birth_death_separation(chain, eigs, 2) == Fraction(1, 2)

    def test_wrong_eigenvalue_rejected(self):
        chain = lazy_ehrenfest()
        with pytest.raises(ValueError):
            birth_death_separation(
                chain, [Fraction(1), Fraction(1, 3), Fraction(0)], 2
            )

    def test_eigenvalue_off_by_tiny_amount_rejected(self):
        chain = lazy_ehrenfest()
        near = Fraction(1, 2) + Fraction(1, 10**30)
        with pytest.raises(ValueError):
            birth_death_separation(chain, [Fraction(1), near, Fraction(0)], 2)

    def test_zero_leading_pivot_accepted(self):
        # K - I/2 has a zero top-left entry, so the singularity check must
        # swap rows before it can eliminate
        chain = lazy_ehrenfest()
        assert chain.kernel().matrix[0][0] == Fraction(1, 2)
        eigs = [Fraction(1), Fraction(1, 2), Fraction(0)]
        assert birth_death_separation(chain, eigs, 3) == Fraction(1, 4)

    def test_non_monotone_rejected(self):
        third, two_thirds = Fraction(1, 3), Fraction(2, 3)
        chain = BirthDeathChain(
            down=(two_thirds, third),
            hold=(third, Fraction(0), two_thirds),
            up=(two_thirds, third),
        )
        assert not chain.is_monotone()
        with pytest.raises(ValueError):
            birth_death_separation(chain, [Fraction(1)], 1)


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
