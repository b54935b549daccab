"""Occupancy engines: exact balls-in-boxes and random-vector span laws.

The exact routes return Fractions and never load numpy. The Monte Carlo
checks `occupancy_mc` and `qspan_mc` draw with `tensorwalk.montecarlo`,
which they import on their first call.
"""

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import comb
from operator import mul

from .chains import ascending_steps
from .combinat import is_prime, q_binomial
from .errors import UnsupportedFieldError


class McEstimate(namedtuple("McEstimate", "successes samples")):
    """Empirical frequency with its binomial standard error."""

    __slots__ = ()

    @property
    def estimate(self) -> float:
        return self.successes / self.samples

    @property
    def stderr(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.samples)

    def within(self, exact, sigmas: float = 4.0) -> bool:
        """True when the estimate is within `sigmas` standard errors of exact;
        a zero standard error (all successes or none) demands exact match."""
        err = self.stderr
        if err == 0.0:
            return self.estimate == float(exact)
        return abs(self.estimate - float(exact)) <= sigmas * err


def occupancy_probabilities(a: int, n: int, rs) -> Iterator[Fraction]:
    """Probability that r balls dropped into n boxes occupy exactly a boxes,
    at each r of the ascending `rs`, in one pass.

    Inclusion-exclusion over the occupied set: over the one denominator n^r
    the k occupied boxes of the inner sum contribute the integer
    (-1)^(a-k) C(n, a) C(a, k) k^r, so each r's sum reduces once. A step of
    one multiplies each carried term by its k and n^r by n. Any other step
    is a jump (see `chains.ascending_steps`): it sums the terms afresh, one
    `pow` at a time, and keeps none, so a one-r call holds one term at a
    time; a step of one right after a jump makes the terms at its r and
    carries them from there on. 0^0 = 1, so r = 0 gives a point mass at
    a = 0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= a <= n:
        raise ValueError("need 0 <= a <= n")
    coefficients = [(-1) ** (a - k) * comb(n, a) * comb(a, k) for k in range(a + 1)]
    terms = coefficients
    power = 1
    for r, step in ascending_steps(rs):
        # summed only where no terms are carried; a carried list is never empty
        fresh = (c * pow(k, r) for k, c in enumerate(coefficients))
        if step == 1:
            terms = list(map(mul, terms, range(a + 1)) if terms else fresh)
            power *= n
        elif step:
            terms = None
            power = n**r
        yield Fraction(sum(terms or fresh), power)


def occupancy_exact(a: int, r: int, n: int) -> Fraction:
    """Probability that r balls dropped into n boxes occupy exactly a boxes;
    one r of `occupancy_probabilities`."""
    return next(occupancy_probabilities(a, n, [r]))


def _pure_birth_power(n: int, r: int, hold_at) -> list[Fraction]:
    """Law after r steps from 0 of a pure-birth chain on 0..n.

    At a the chain holds with probability hold_at(a) and steps up otherwise.
    """
    if r < 0:
        raise ValueError("need r >= 0")
    dist = [Fraction(0)] * (n + 1)
    dist[0] = Fraction(1)
    for _ in range(r):
        nxt = [Fraction(0)] * (n + 1)
        for a, mass in enumerate(dist):
            if mass == 0:
                continue
            hold = hold_at(a)
            nxt[a] += mass * hold
            if a < n:
                nxt[a + 1] += mass * (1 - hold)
        dist = nxt
    return dist


def occupancy_chain_power(n: int, r: int) -> list[Fraction]:
    """Distribution of the occupied-box count as a pure-birth chain power.

    The count a holds with probability a/n and steps up otherwise; from 0,
    the r-step law must match `occupancy_exact` entry for entry.
    """
    return _pure_birth_power(n, r, lambda a: Fraction(a, n))


def qspan_exact(a: int, r: int, n: int, q: int) -> Fraction:
    """Probability that r uniform vectors in an n-space over F_q span dim a."""
    if not 0 <= a <= n:
        raise ValueError("need 0 <= a <= n")
    if r < 0:
        raise ValueError("need r >= 0")
    if q < 2:
        raise ValueError("q must be at least 2")
    # Over the one denominator q^(rn) the b-th term gains the factor
    # q^(r(n-b)), so every term is an integer and the sum reduces once.
    total = sum(
        (-1) ** j * q ** (comb(j, 2) + r * (a - j)) * q_binomial(a, a - j, q)
        for j in range(a + 1)
    )
    return Fraction(q_binomial(n, a, q) * total, q ** (r * n))


def qspan_chain_power(n: int, r: int, q: int) -> list[Fraction]:
    """Span-dimension law as a pure-birth chain with hold probability q^(a-n)."""
    return _pure_birth_power(n, r, lambda a: Fraction(1, q ** (n - a)))


def occupancy_mc(a: int, r: int, n: int, samples: int, seed: int) -> McEstimate:
    """Empirical frequency of exactly a occupied boxes after r drops."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= a <= n:
        raise ValueError("need 0 <= a <= n")
    if r == 0:
        return McEstimate(successes=samples if a == 0 else 0, samples=samples)
    from .montecarlo import _count_matches, _distinct_counts

    return _count_matches(seed, samples, n, (r,), _distinct_counts, a)


def qspan_mc(
    a: int, r: int, n: int, q: int, samples: int, seed: int
) -> McEstimate:
    """Empirical frequency that r uniform vectors over F_q span dimension a.

    Requires prime q: ranks are computed by elimination modulo q, and no
    extension-field arithmetic is provided (the exact formulas cover the
    prime-power case).
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    if not is_prime(q):
        raise UnsupportedFieldError(f"q={q} is not prime; Monte Carlo needs a prime field")
    if a > n or a < 0:
        return McEstimate(successes=0, samples=samples)
    if r == 0:
        return McEstimate(successes=samples if a == 0 else 0, samples=samples)
    from .montecarlo import _batch_rank_mod, _count_matches

    return _count_matches(seed, samples, q, (r, n), lambda m: _batch_rank_mod(m, q), a)
