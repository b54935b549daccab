"""The S_n separation as a float, certified by Bonferroni brackets.

After r steps the separation from the trivial start is s = P(X >= 2), for X
the number of empty boxes after r balls fall into n boxes, and
inclusion-exclusion writes it as

    s = sum over j = 2, ..., n of (-1)^j (j - 1) C(n, j) ((n - j) / n)^r.

By the Bonferroni-type inequalities for P(X >= k) (Galambos and Simonelli,
1996) the partial sums alternate around s: through an even j they bound it
from above, through an odd j from below, and through j = n they are s. Near
the cutoff n ln n + c n the terms fall fast, so a few dozen of them, each
bracketed in fixed point, pin the float of s; the exact sum at n = 512 has
tens of thousands of bits. This route shares no code with
`snwalk.separation_closed_forms`.
"""

from collections.abc import Iterator
from math import comb, log2

# Fixed-point bits of each bracketed term. Near the cutoff a term's bracket
# is a few units wide, times its weight (j - 1) C(n, j), which stays below
# 2^154 through the 26 terms that pin s at n = 512, c = -1: the rounding
# stays about 2^100 under an ulp of s at this scale.
BITS = 320


def _power_bracket(k: int, n: int, r: int) -> tuple[int, int]:
    """Integers lo <= 2^BITS (k / n)^r <= hi, for 0 <= k <= n.

    Binary powering from the top bit of r; every product of lower bounds is
    rounded down and every product of upper bounds up, so each stays a bound.
    """
    base_lo = (k << BITS) // n
    base_hi = -((-k << BITS) // n)
    lo = hi = 1 << BITS
    for bit in bin(r)[2:]:
        lo = lo * lo >> BITS
        hi = -(-hi * hi >> BITS)
        if bit == "1":
            lo = lo * base_lo >> BITS
            hi = -(-hi * base_hi >> BITS)
    return lo, hi


def brackets(n: int, r: int) -> Iterator[tuple[int, int]]:
    """Integers lower <= 2^BITS s <= upper after each term j = 2, ..., n.

    Each is the best pair so far, starting from 0 <= s <= 1. The partial sums
    are carried twice, with every term rounded down and with every term
    rounded up. Stops early once the two differ by more than an ulp of
    `upper` at 53 bits: the terms then cancel past the fixed point (far
    before the cutoff), and their spread, which only grows, keeps every
    later pair about an ulp wide or wider.
    """
    lower, upper = 0, 1 << BITS
    low = high = 0
    for j in range(2, n + 1):
        term_lo, term_hi = _power_bracket(n - j, n, r)
        weight = (j - 1) * comb(n, j)
        if j % 2:
            low -= weight * term_hi
            high -= weight * term_lo
            lower = max(lower, low)
        else:
            low += weight * term_lo
            high += weight * term_hi
            upper = min(upper, high)
        if j == n:  # the whole sum
            lower, upper = max(lower, low), min(upper, high)
        yield lower, upper
        if high - low > upper >> 53:
            return


def _cancels(n: int, r: int) -> bool:
    """Whether, estimated in floats, the weights (j - 1) C(n, j) pass
    2^(BITS - 53), an ulp of 1 at 53 bits, while the terms are still above
    2^-56.

    The rounding spread of a term is at least its weight, so `brackets`
    would then give up before the terms fall far enough to pin a float. At
    n = 512 this skips the 59 terms it would try at c = -5 (1.5 ms) for 0.02
    ms. Over c from -ln n to -1.5 in steps of 0.01 and every fourth n from
    200 to 512 it sent no point that the bracket pins to the exact sums.
    """
    log_binom = log2(n)
    for j in range(2, n):
        log_binom += log2((n - j + 1) / j)
        log_weight = log_binom + log2(j - 1)
        if log_weight + r * log2(1 - j / n) < -56:
            return False
        if log_weight > BITS - 53:
            return True
    return False


def separation_float(n: int, r: int) -> float | None:
    """float(s) after r steps on Irr(S_n), or None if the bracket cannot pin it.

    Before r = n - 1, the distance from the trivial to the sign shape, the
    sign shape is out of reach and s is exactly 1. Otherwise the first
    bracket whose ends round to one float gives it: int / int rounds
    correctly and rounding is monotone, so that float is float(s).
    """
    if r < n - 1:
        return 1.0
    if _cancels(n, r):
        return None
    one = 1 << BITS
    for lower, upper in brackets(n, r):
        if (value := lower / one) == upper / one:
            return value
    return None
