"""The Bonferroni bracket of the S_n separation against the exact closed form."""

import math

from hypothesis import given, settings, strategies as st

from tensorwalk import snwalk
from tensorwalk.bracket import BITS, brackets, separation_float


def test_every_bracket_holds_the_exact_value():
    """lower <= 2^BITS s <= upper after every term, at every r <= 2 ceil(n ln n)."""
    for n in range(2, 41):
        r_max = 2 * math.ceil(n * math.log(n))
        for r, exact in enumerate(snwalk.separation_closed_forms(n, range(r_max + 1))):
            scaled, den = exact.numerator << BITS, exact.denominator
            pairs = list(brackets(n, r))
            assert pairs, (n, r)
            assert all(lower * den <= scaled <= upper * den for lower, upper in pairs), (n, r)


@st.composite
def points(draw):
    """(n, r) with r = ceil(n ln n + c n) for an offset |c| <= ln n."""
    n = draw(st.integers(2, 512))
    c = draw(st.floats(-math.log(n), math.log(n)))
    return n, max(0, math.ceil(n * math.log(n) + c * n))


@settings(max_examples=40, deadline=None)
@given(points())
def test_a_pinned_float_is_the_float_of_the_exact_value(point):
    value = separation_float(*point)
    if value is not None:
        assert value == float(snwalk.separation_closed_form(*point))
