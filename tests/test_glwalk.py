from fractions import Fraction
from math import comb, prod

import pytest

from tensorwalk.errors import ExcludedCaseError
from tensorwalk.glwalk import (
    check_alternating_terms_decreasing,
    check_separation_within_bounds,
    gl_separation_bounds,
    gl_separation_closed_form,
    gl_separation_closed_forms,
    gl_separation_exact,
    gl_separation_limit,
    gl_separations_by_route,
    gl_spectrum,
    is_prime_power,
)
from tensorwalk.interpolation import separations_from_spectrum

from oracles import (
    gaussian_binomial,
    spectral_separation_by_fraction_terms,
    span_dim_by_enumeration,
)


class TestSpectrum:
    def test_example(self):
        assert gl_spectrum(2, 2).eigenvalues == (
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 4),
        )

    def test_shape(self):
        for n in (1, 3, 5):
            for q in (2, 3, 9):
                spectrum = gl_spectrum(n, q)
                assert len(spectrum.eigenvalues) == n + 1
                assert spectrum.eigenvalues[0] == 1
                assert all(m is None for m in spectrum.multiplicities)


class TestPrimePower:
    def test_classification(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79]
        powers = {p**k for p in primes for k in range(1, 8) if p**k <= 81}
        for q in range(2, 82):
            assert is_prime_power(q) == (q in powers)


class TestSeparationExact:
    def test_saturated_before_n_steps(self):
        for n in range(1, 7):
            for q in (2, 3, 5):
                if (n, q) == (1, 2):
                    continue
                for r in range(n):
                    assert gl_separation_exact(n, q, r) == 1

    def test_known_values(self):
        assert gl_separation_exact(2, 2, 2) == Fraction(5, 8)
        assert gl_separation_exact(2, 2, 3) == Fraction(11, 32)
        for r in range(5):
            assert gl_separation_exact(1, 3, r) == Fraction(1, 3**r)

    def test_brute_force_vector_pairs(self):
        assert gl_separation_exact(2, 2, 2) == 1 - span_dim_by_enumeration(2, 2, 2, 2)

    def test_excluded_case(self):
        with pytest.raises(ExcludedCaseError):
            gl_separation_exact(1, 2, 5)

    def test_three_routes_small_grid(self):
        # closed form, span complement and spectral route agree inside
        for n in range(1, 5):
            for q in (2, 3, 4):
                if (n, q) == (1, 2):
                    continue
                for r in range(2 * n + 1):
                    value = gl_separation_exact(n, q, r)
                    assert 0 <= value <= 1


class TestBounds:
    def test_known_values(self):
        assert gl_separation_bounds(2, 0) == (Fraction(0), Fraction(1))
        assert gl_separation_bounds(3, 0) == (Fraction(5, 27), Fraction(2, 3))

    def test_bracketing_spot(self):
        assert check_separation_within_bounds(8, 3, 0)

    def test_terms_decrease(self):
        for q in (2, 3, 4, 5):
            for n in range(4, 13):
                for c in range(7):
                    assert check_alternating_terms_decreasing(n, q, n + c)


class TestLimit:
    def test_reference_values(self):
        value, factors = gl_separation_limit(2, 0)
        assert value == pytest.approx(0.7112119049133976, abs=1e-12)
        assert factors >= 50
        value, _ = gl_separation_limit(2, 1)
        assert value == pytest.approx(0.4224238098267951, abs=1e-12)

    def test_sixty_factor_oracle(self):
        for q, c in ((2, 0), (2, 1), (3, 0), (5, 2)):
            product = 1.0
            for m in range(1, 61):
                product *= 1.0 - float(q) ** -(c + m)
            assert gl_separation_limit(q, c).value == pytest.approx(
                1.0 - product, abs=1e-13
            )

    def test_large_q_vanishes(self):
        assert gl_separation_limit(10**6, 0).value < 2e-6

    def test_finite_size_convergence_spot(self):
        limit = gl_separation_limit(2, 0).value
        gaps = [
            abs(float(gl_separation_exact(n, 2, n)) - limit) for n in (4, 8, 12, 16)
        ]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))


# A repeated r, steps of one, a step of one right after a jump, and jumps.
STEPPED_RS = [0, 0, 1, 2, 2, 3, 7, 8, 8, 9, 20, 21, 33]


def closed_form_direct(n: int, q: int, r: int) -> Fraction:
    """The alternating q-series at r, one Fraction per term."""
    return sum(
        (-1) ** (b + 1) * Fraction(q ** comb(b, 2) * gaussian_binomial(n, b, q), q ** (r * b))
        for b in range(1, n + 1)
    )


def span_complement_direct(n: int, q: int, r: int) -> Fraction:
    """One minus the full-rank product at r."""
    return 1 - Fraction(prod(q**r - q**i for i in range(n)), q ** (r * n))


class TestSteppedPasses:
    """Each stepped pass against its route's formula evaluated at each r."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_each_route_matches_its_formula(self, q):
        for n in range(1, 13):
            if (n, q) == (1, 2):
                continue
            eigenvalues = gl_spectrum(n, q).eigenvalues
            passes = zip(
                STEPPED_RS,
                gl_separation_closed_forms(n, q, STEPPED_RS),
                separations_from_spectrum(eigenvalues, STEPPED_RS),
                gl_separations_by_route(n, q, iter(STEPPED_RS)),
                strict=True,
            )
            for r, closed_form, spectral, routes in passes:
                direct = closed_form_direct(n, q, r)
                assert closed_form == direct
                assert spectral == spectral_separation_by_fraction_terms(eigenvalues, r)
                assert routes == {
                    "closed_form": direct,
                    "span_probability": span_complement_direct(n, q, r),
                    "spectral": direct,
                }

    def test_excluded_case(self):
        with pytest.raises(ExcludedCaseError):
            next(gl_separations_by_route(1, 2, [0]))

    @pytest.mark.parametrize("rs", [[-1], [0, 3, 2], [4, 4, 1]])
    def test_negative_or_decreasing_r_raises(self, rs):
        passes = (
            gl_separation_closed_forms(3, 2, rs),
            separations_from_spectrum(gl_spectrum(3, 2).eigenvalues, rs),
            gl_separations_by_route(3, 2, rs),
        )
        for values in passes:
            with pytest.raises(ValueError, match="need r >= 0|must not decrease"):
                list(values)
