from fractions import Fraction

import pytest

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
