"""Separation distance of the fixed-space walk on GL(n, q) representations.

Everything reduces to closed forms in q: the spectrum is the geometric
ladder q^0 .. q^-n, and the separation distance is an alternating q-series
equal to one minus the probability that n uniform vectors span. Formulas
are rational functions of q, so they evaluate at any integer q >= 2; the
prime-power flag only matters for group-theoretic interpretation and for
Monte Carlo elsewhere.

No GL character table is built: the q-series routes need no
representation-level bookkeeping.
"""

import sys
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import pairwise
from math import comb

from .chains import Spectrum, reduced_over_power
from .combinat import prime_factors, q_binomial
from .errors import ConsistencyError, ExcludedCaseError, common_value
from .interpolation import separation_from_spectrum


def is_prime_power(q: int) -> bool:
    return q >= 2 and len(prime_factors(q)) == 1


def _check_q(q: int) -> None:
    if q < 2:
        raise ValueError("q must be at least 2")


@cache
def gl_spectrum(n: int, q: int) -> Spectrum:
    """Distinct eigenvalues q^-i, i = 0..n; multiplicities are not tracked.

    Eigenvalue multiplicities would require counting conjugacy classes by
    fixed-space dimension, which nothing downstream needs. Cached, so each
    (n, q) is built and validated once.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_q(q)
    entries = tuple((Fraction(1, q**i), None) for i in range(n + 1))
    return Spectrum(entries)


def _alternating_terms(n: int, q: int, r: int) -> Iterator[int]:
    """The closed form's term magnitudes q^C(b,2) [n choose b]_q q^(-rb), b = 1..n,
    as integers over the common denominator q^(rn)."""
    for b in range(1, n + 1):
        yield q ** (comb(b, 2) + r * (n - b)) * q_binomial(n, b, q)


def gl_separation_closed_form(n: int, q: int, r: int) -> Fraction:
    """Alternating q-series for the separation distance after r steps.

    The terms of `_alternating_terms`, positive at odd b, are summed as
    integers over the common denominator q^(rn) and reduced once by
    `reduced_over_power`, which takes the gcd from a residue of about a
    thousand bits where q^(rn) is larger.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_q(q)
    if r < 0:
        raise ValueError("need r >= 0")
    terms = enumerate(_alternating_terms(n, q, r), 1)
    numerator = sum(term if b % 2 == 1 else -term for b, term in terms)
    return reduced_over_power(numerator, q, r * n)


def span_probability(n: int, q: int, r: int) -> Fraction:
    """Probability that r uniform vectors span the n-space over F_q.

    The classical full-rank count: the r vectors span with probability
    prod_{i<n} (q^r - q^i) / q^(rn), one integer product reduced once.
    """
    numerator = 1
    for i in range(n):
        numerator *= q**r - q**i
    return Fraction(numerator, q ** (r * n))


def gl_separation_routes(n: int, q: int, r: int) -> dict[str, Fraction]:
    """Separation after r steps by three independent routes, checked equal.

    Keyed by route name: the closed form, one minus the probability that r
    uniform vectors span the whole space, and the eigenvalue-only route on
    the q-ladder spectrum. The CLI prints each r's rows sorted by route
    name, so `closed_form` comes first. The one-dimensional group over the
    two-element field is excluded (its walk is trivial and the extremal
    representation argument needs a second degree-one character).
    """
    if (n, q) == (1, 2):
        raise ExcludedCaseError("the walk on GL(1,2) is excluded")
    routes = {
        "closed_form": gl_separation_closed_form(n, q, r),
        "span_probability": 1 - span_probability(n, q, r),
        "spectral": separation_from_spectrum(gl_spectrum(n, q).eigenvalues, r),
    }
    common_value(routes, f"the GL separation, n={n} q={q} r={r}")
    return routes


def gl_separation_exact(n: int, q: int, r: int) -> Fraction:
    """Exact separation distance, triple-checked by `gl_separation_routes`."""
    return gl_separation_routes(n, q, r)["closed_form"]


def gl_separation_bounds(q: int, c: int) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds for the separation distance n + c steps in."""
    _check_q(q)
    if c < 0:
        raise ValueError("need c >= 0")
    lower = Fraction(1, q ** (c + 1)) - Fraction(4, q ** (2 * c + 3))
    upper = Fraction(2, q ** (c + 1))
    return lower, upper


def check_separation_within_bounds(n: int, q: int, c: int) -> bool:
    """Exact check that the distance at n + c steps sits inside the bounds."""
    lower, upper = gl_separation_bounds(q, c)
    value = gl_separation_exact(n, q, n + c)
    if not lower <= value <= upper:
        raise ConsistencyError(
            f"separation at n={n} q={q} c={c} escapes bounds: "
            f"{lower} <= {value} <= {upper} fails"
        )
    return True


EulerProductLimit = namedtuple("EulerProductLimit", "value factors")


def gl_separation_limit(q: int, c: int) -> EulerProductLimit:
    """Large-n limit of the separation distance n + c steps in.

    One minus an infinite product of factors (1 - q^-(c+m)); the product is
    truncated once a factor differs from 1 by less than machine precision,
    and the truncation index is reported for reproducibility.
    """
    _check_q(q)
    if c < 0:
        raise ValueError("need c >= 0")
    eps = sys.float_info.epsilon
    product = 1.0
    m = 0
    while True:
        m += 1
        deviation = float(q) ** -(c + m)
        if deviation < eps:
            break
        product *= 1.0 - deviation
        if m > 10_000:
            raise RuntimeError("product did not stabilize")
    return EulerProductLimit(value=1.0 - product, factors=m - 1)


def check_alternating_terms_decreasing(n: int, q: int, r: int) -> bool:
    """Exact check that the closed form's term magnitudes strictly decrease.

    The terms share one positive denominator, so they are compared as integers.
    """
    for t1, t2 in pairwise(_alternating_terms(n, q, r)):
        if not t2 < t1:
            raise ConsistencyError(
                f"alternating terms fail to decrease at n={n} q={q} r={r}"
            )
    return True
