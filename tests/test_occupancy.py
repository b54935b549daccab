import copy
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tensorwalk.errors import UnsupportedFieldError
from tensorwalk.occupancy import (
    McEstimate,
    _rank_mod,
    occupancy_chain_power,
    occupancy_exact,
    occupancy_mc,
    poisson_not01,
    qspan_chain_power,
    qspan_exact,
    qspan_mc,
)

from oracles import occupancy_by_enumeration, rank_by_span, span_dim_by_enumeration

SEED = 20260801


class TestOccupancyExact:
    def test_known_examples(self):
        assert occupancy_exact(1, 1, 5) == 1
        assert occupancy_exact(2, 2, 2) == Fraction(1, 2)
        assert occupancy_exact(2, 3, 3) == Fraction(2, 3)

    def test_against_enumeration(self):
        for n in (2, 3):
            for r in range(4):
                for a in range(n + 1):
                    assert occupancy_exact(a, r, n) == occupancy_by_enumeration(a, r, n)

    def test_zero_cases(self):
        assert occupancy_exact(3, 2, 5) == 0  # more boxes than balls
        assert occupancy_exact(2, 0, 5) == 0
        assert occupancy_exact(0, 0, 5) == 1
        assert occupancy_exact(0, 1, 5) == 0

    def test_distribution_sums_to_one(self):
        for n in range(1, 13):
            for r in (0, 1, 2, 3, 7, 19, 40, 60):
                assert sum(occupancy_exact(a, r, n) for a in range(n + 1)) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            occupancy_exact(6, 1, 5)
        with pytest.raises(ValueError):
            occupancy_exact(1, -1, 5)


    def test_no_boxes_rejected(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            occupancy_exact(0, 0, 0)
        with pytest.raises(ValueError, match="need n >= 1"):
            occupancy_mc(0, 3, 0, 10, SEED)


class TestOccupancyChainPower:
    def test_point_mass_at_zero_steps(self):
        assert occupancy_chain_power(4, 0) == [1, 0, 0, 0, 0]

    def test_known_example(self):
        assert occupancy_chain_power(2, 2) == [0, Fraction(1, 2), Fraction(1, 2)]

    def test_matches_exact_formula(self):
        for n in range(1, 11):
            for r in range(41):
                dist = occupancy_chain_power(n, r)
                for a in range(n + 1):
                    assert dist[a] == occupancy_exact(a, r, n)


class TestQspanExact:
    def test_zero_dimension_is_all_zero_vectors(self):
        for q in (2, 3, 5):
            for n in (1, 2, 3):
                for r in (0, 1, 2, 4):
                    assert qspan_exact(0, r, n, q) == Fraction(1, q ** (r * n))

    def test_known_example(self):
        assert qspan_exact(2, 2, 2, 2) == Fraction(3, 8)

    def test_more_dimensions_than_vectors(self):
        assert qspan_exact(2, 1, 2, 3) == 0
        assert qspan_exact(3, 2, 3, 2) == 0

    def test_against_enumeration(self):
        for a in range(3):
            assert qspan_exact(a, 2, 2, 2) == span_dim_by_enumeration(a, 2, 2, 2)
        for a in range(3):
            assert qspan_exact(a, 3, 2, 2) == span_dim_by_enumeration(a, 3, 2, 2)
        assert qspan_exact(0, 1, 3, 3) == Fraction(1, 27)
        assert qspan_exact(1, 1, 3, 3) == span_dim_by_enumeration(1, 1, 3, 3)

    def test_distribution_sums_to_one(self):
        for q in (2, 3, 5):
            for n in range(1, 9):
                for r in (0, 1, 2, 5, 9, 12):
                    assert sum(qspan_exact(a, r, n, q) for a in range(n + 1)) == 1

    def test_chain_power_reproduces_exact(self):
        for q in (2, 3, 5):
            for n in range(1, 9):
                for r in range(13):
                    dist = qspan_chain_power(n, r, q)
                    for a in range(n + 1):
                        assert dist[a] == qspan_exact(a, r, n, q)


class TestMonteCarlo:
    def test_deterministic_events(self):
        assert occupancy_mc(1, 1, 5, 1000, SEED).estimate == 1.0
        assert occupancy_mc(0, 1, 5, 1000, SEED).estimate == 0.0

    def test_occupancy_within_four_sigma(self):
        est = occupancy_mc(2, 2, 2, 100_000, SEED)
        assert est.within(Fraction(1, 2), sigmas=4)

    def test_qspan_within_four_sigma(self):
        est = qspan_mc(2, 2, 2, 2, 100_000, SEED)
        assert est.within(Fraction(3, 8), sigmas=4)

    def test_qspan_impossible_dimensions(self):
        est = qspan_mc(3, 5, 2, 2, 100, SEED)
        assert est.estimate == 0.0

    def test_reproducibility(self):
        a = occupancy_mc(2, 3, 4, 5000, SEED)
        b = occupancy_mc(2, 3, 4, 5000, SEED)
        assert a == b
        c = occupancy_mc(2, 3, 4, 5000, SEED + 1)
        assert c != a

    def test_nonprime_field_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            qspan_mc(1, 1, 2, 4, 10, SEED)

    def test_estimate_stderr(self):
        est = McEstimate(successes=25, samples=100)
        assert est.estimate == 0.25
        assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100))


@st.composite
def matrices_mod_q(draw):
    q = draw(st.sampled_from((2, 3, 5)))
    r = draw(st.integers(0, 4))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=r, max_size=r)), q


class TestRankMod:
    @given(matrices_mod_q())
    @example(([], 2))
    @example(([[0, 0], [0, 0], [0, 0]], 3))
    @example(([[1, 2], [0, 0], [2, 4], [3, 1]], 5))
    def test_matches_span_size(self, case):
        rows, q = case
        before = copy.deepcopy(rows)
        assert _rank_mod(rows, q) == rank_by_span(rows, q)
        assert rows == before


class TestPoissonNot01:
    # reference values computed with 40-digit arithmetic
    def test_reference_values(self):
        assert poisson_not01(0.0) == pytest.approx(0.26424111765711536, rel=1e-14)
        assert poisson_not01(1.0) == pytest.approx(0.05315299240107115, rel=1e-14)
        assert poisson_not01(-2.0) == pytest.approx(0.99481573959054099, rel=1e-14)

    def test_limits(self):
        assert poisson_not01(40.0) == pytest.approx(0.0, abs=1e-15)
        assert poisson_not01(800.0) == 0.0
        assert poisson_not01(-800.0) == 1.0

    def test_monotone_decreasing_in_c(self):
        values = [poisson_not01(c / 2) for c in range(-10, 11)]
        assert all(x >= y for x, y in zip(values, values[1:]))
