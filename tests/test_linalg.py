from fractions import Fraction

import pytest

from tensorwalk.chains import TransitionKernel
from tensorwalk.linalg import det_bareiss


class TestDetBareiss:
    def test_integral_fractions_accepted(self):
        assert det_bareiss([[Fraction(3), Fraction(1)], [Fraction(4), Fraction(2)]]) == 2
        assert det_bareiss([[Fraction(6, 3)]]) == 2

    def test_non_integral_entry_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            det_bareiss([[Fraction(1, 2)]])
        with pytest.raises(ValueError, match="3/2"):
            det_bareiss([[Fraction(3, 2), 0], [0, 2]])

    def test_zero_leading_pivot_swaps_rows_and_sign(self):
        assert det_bareiss([[0, 1], [1, 0]]) == -1
        assert det_bareiss([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
        assert det_bareiss([[0, 2, 1], [1, 0, 0], [0, 1, 3]]) == -5

    def test_lazy_ehrenfest_shift_is_singular(self):
        # K - I/2 for the lazy walk on {0,1,2} has a zero top-left entry, so
        # elimination must swap rows before it can divide by the pivot
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        kernel = TransitionKernel(
            states=range(3),
            rows=[
                {0: half, 1: half},
                {0: quarter, 1: half, 2: quarter},
                {1: half, 2: half},
            ],
            stationary=[quarter, half, quarter],
        )

        def scaled_shift(lam):
            s = kernel.scale * lam.denominator
            return [
                [s * (x - lam if i == j else x) for j, x in enumerate(row)]
                for i, row in enumerate(kernel.power(1))
            ]

        shifted = scaled_shift(half)
        assert shifted[0][0] == 0
        assert det_bareiss(shifted) == 0
        assert det_bareiss(scaled_shift(Fraction(1, 3))) != 0

    def test_column_without_pivot(self):
        assert det_bareiss([[0, 1], [0, 2]]) == 0
        assert det_bareiss([[1, 2, 3], [2, 4, 5], [3, 6, 7]]) == 0
        assert det_bareiss([[1, 2, 3, 4], [2, 4, 5, 6], [3, 6, 7, 8], [4, 8, 9, 1]]) == 0
