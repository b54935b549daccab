"""Exact combinatorial primitives: partitions, tableaux counts, q-binomials.

All counting here is integer-exact. Rational intermediates use Fraction and
are checked to collapse to integers before returning; a broken identity
raises ConsistencyError instead of being truncated.
"""

from fractions import Fraction
from functools import cache
from math import factorial, isqrt

from .errors import ConsistencyError
from .linalg import det_bareiss


class Partition(tuple):
    """Weakly decreasing tuple of positive integer parts; may be empty.

    A partition equals and hashes like the plain tuple of its parts.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition({list(self)})"

    def __str__(self):
        """Bracketed comma-separated parts, e.g. "[2,1]"; empty is "[]"."""
        return "[" + ",".join(str(p) for p in self) + "]"

    def contains(self, other: "Partition") -> bool:
        """Row-wise containment: other fits inside self."""
        if len(other) > len(self):
            return False
        return all(o <= s for s, o in zip(self, other))

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def corner_removals(self) -> list["Partition"]:
        """Partitions obtained by removing one outer corner box."""
        out = []
        for i, p in enumerate(self):
            below = self[i + 1] if i + 1 < len(self) else 0
            if p > below:
                new = self[:i] + ((p - 1,) if p > 1 else ()) + self[i + 1 :]
                out.append(Partition(new))
        return out


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, each once, in lexicographic descending order.

    The order is the fixed state order used everywhere downstream, so that
    matrices indexed by partitions are reproducible run to run.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in gen(n, n)] if n else [Partition()]


@cache
def count_syt(lam: Partition) -> int:
    """Number of standard fillings of a straight shape (hook length formula).

    The shape may be given as a plain tuple of parts.
    """
    lam = Partition(lam)
    n = lam.size
    if n == 0:
        return 1
    conj = lam.conjugate()
    hook_product = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hook_product *= (row - j) + (conj[j] - i) - 1
    num = factorial(n)
    if num % hook_product:
        raise ConsistencyError(f"hook product {hook_product} does not divide {n}! at {lam}")
    return num // hook_product


@cache
def count_skew_syt(outer: Partition, inner: Partition) -> int:
    """Number of standard fillings of the skew shape outer/inner.

    Either shape may be given as a plain tuple of parts. Returns 0 when the
    inner shape is not contained in the outer one (so sums indexed by
    arbitrary inner rows are well defined). Computed by the factorial
    determinant formula; rows are rescaled to integers so the determinant
    itself runs fraction-free.
    """
    outer, inner = Partition(outer), Partition(inner)
    if not outer.contains(inner):
        return 0
    cells = outer.size - inner.size
    if cells == 0:
        return 1
    ell = len(outer)
    inner_padded = inner + (0,) * (ell - len(inner))
    # entry (i, j) of the determinant is 1 / f!, f = outer_i - inner_j - i + j;
    # scaling row i by s_i! = (row maximum)! makes every entry integral.
    scales = []
    matrix = []
    for i in range(ell):
        s = outer[i] - inner_padded[ell - 1] + (ell - 1 - i)
        scales.append(s)
        row = []
        for j in range(ell):
            f = outer[i] - inner_padded[j] - i + j
            if f < 0:
                row.append(0)
            else:
                prod = 1
                for t in range(f + 1, s + 1):
                    prod *= t
                row.append(prod)
        matrix.append(row)
    det = det_bareiss(matrix)
    denom = 1
    for s in scales:
        denom *= factorial(s)
    value = Fraction(factorial(cells) * det, denom)
    if value.denominator != 1 or value < 0:
        raise ConsistencyError(
            f"skew tableau count of {outer}/{inner} is not a nonnegative integer: {value}"
        )
    return int(value)


def count_skew_syt_row(lam: Partition, row: int) -> int:
    """Skew count for inner shape a single row of the given length."""
    inner = Partition([row]) if row > 0 else Partition()
    return count_skew_syt(lam, inner)


@cache
def q_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient at an integer q >= 2; 0 outside 0..n.

    Counts k-dimensional subspaces of an n-dimensional space over a field
    with q elements when q is a prime power; as a polynomial identity the
    product formula evaluates exactly at any integer q >= 2. Cached, since
    the GL laws ask for the same coefficients at every step r.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    acc = 1
    for i in range(k):
        acc *= q ** (n - i) - 1
        den = q ** (i + 1) - 1
        if acc % den:
            raise ConsistencyError(
                f"q-binomial [{n} {k}] at q={q}: {den} does not divide the partial product"
            )
        acc //= den
    return acc


def partition_counts(n: int, min_part: int = 1) -> list[int]:
    """Numbers of partitions of 0..n with every part at least `min_part`.

    One coin-change table: each allowed part size is admitted in turn by
    counts[m] += counts[m - part], so the whole table costs O(n^2) additions.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if min_part < 1:
        raise ValueError("min_part must be positive")
    counts = [1] + [0] * n
    for part in range(min_part, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts


def count_partitions(n: int) -> int:
    """Total number of partitions of n."""
    return partition_counts(n)[n]


def prime_factors(q: int) -> dict[int, int]:
    """Prime factorization of q >= 1 by trial division, as prime -> exponent."""
    if q < 1:
        raise ValueError("q must be positive")
    factors = {}
    p = 2
    while p * p <= q:
        while q % p == 0:
            factors[p] = factors.get(p, 0) + 1
            q //= p
        p += 1
    if q > 1:
        factors[q] = 1
    return factors


def is_prime(q: int) -> bool:
    """Primality by trial division (see `prime_factors`); below 2 nothing is prime."""
    return q >= 2 and prime_factors(q) == {q: 1}


def primes_up_to(m: int) -> list[int]:
    """The primes p <= m in ascending order, by one sieve of Eratosthenes."""
    if m < 2:
        return []
    sieve = bytearray([1]) * (m + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]
