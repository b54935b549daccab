"""Exact combinatorial primitives: partitions, tableaux counts, q-binomials.

All counting here is integer-exact. Rational intermediates use Fraction and
are asserted to collapse to integers before returning.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .linalg import det_bareiss


class Partition:
    """Weakly decreasing sequence of positive integer parts; may be empty."""

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        self._parts = parts

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    def __len__(self):
        return len(self._parts)

    def __getitem__(self, i):
        return self._parts[i]

    def __iter__(self):
        return iter(self._parts)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return f"Partition({list(self._parts)})"

    def __str__(self):
        """Bracketed comma-separated parts, e.g. "[2,1]"; empty is "[]"."""
        return "[" + ",".join(str(p) for p in self._parts) + "]"

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"expected bracketed part list, got {text!r}")
        body = text[1:-1].strip()
        if not body:
            return cls()
        return cls(int(p) for p in body.split(","))

    def contains(self, other: "Partition") -> bool:
        """Row-wise containment: other fits inside self."""
        if len(other) > len(self):
            return False
        return all(o <= s for s, o in zip(self._parts, other._parts))

    def conjugate(self) -> "Partition":
        if not self._parts:
            return Partition()
        cols = [0] * self._parts[0]
        for p in self._parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def corner_removals(self) -> list["Partition"]:
        """Partitions obtained by removing one outer corner box."""
        out = []
        parts = self._parts
        for i, p in enumerate(parts):
            below = parts[i + 1] if i + 1 < len(parts) else 0
            if p > below:
                new = parts[:i] + ((p - 1,) if p > 1 else ()) + parts[i + 1 :]
                out.append(Partition(new))
        return out

    def corner_additions(self) -> list["Partition"]:
        """Partitions obtained by adding one box at an addable corner."""
        out = []
        parts = self._parts
        for i, p in enumerate(parts):
            above = parts[i - 1] if i > 0 else None
            if above is None or p < above:
                out.append(Partition(parts[:i] + (p + 1,) + parts[i + 1 :]))
        out.append(Partition(parts + (1,)))
        return out


@dataclass(frozen=True)
class SkewShape:
    """Pair of partitions outer/inner; containment may fail (count is then 0)."""

    outer: Partition
    inner: Partition

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size


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
    """Number of standard fillings of a straight shape (hook length formula)."""
    n = lam.size
    if n == 0:
        return 1
    conj = lam.conjugate().parts
    hook_product = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            hook_product *= (row - j) + (conj[j] - i) - 1
    num = factorial(n)
    assert num % hook_product == 0
    return num // hook_product


@cache
def count_skew_syt(shape: SkewShape) -> int:
    """Number of standard fillings of a skew shape.

    Returns 0 when the inner shape is not contained in the outer one (so
    sums indexed by arbitrary inner rows are well defined). Computed by the
    factorial determinant formula; rows are rescaled to integers so the
    determinant itself runs fraction-free.
    """
    outer, inner = shape.outer, shape.inner
    if not outer.contains(inner):
        return 0
    cells = outer.size - inner.size
    if cells == 0:
        return 1
    ell = len(outer)
    inner_padded = inner.parts + (0,) * (ell - len(inner))
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
    assert value.denominator == 1 and value >= 0
    return int(value)


def count_skew_syt_row(lam: Partition, row: int) -> int:
    """Skew count for inner shape a single row of the given length."""
    inner = Partition([row]) if row > 0 else Partition()
    return count_skew_syt(SkewShape(lam, inner))


def q_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient at an integer q >= 2; 0 outside 0..n.

    Counts k-dimensional subspaces of an n-dimensional space over a field
    with q elements when q is a prime power; as a polynomial identity the
    product formula evaluates exactly at any integer q >= 2.
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
        assert acc % den == 0
        acc //= den
    return acc


@cache
def _partitions_min_part(m: int, max_part: int, min_part: int) -> int:
    if m == 0:
        return 1
    total = 0
    for p in range(min(m, max_part), min_part - 1, -1):
        total += _partitions_min_part(m - p, p, min_part)
    return total


def count_partitions_no_ones(m: int) -> int:
    """Number of partitions of m with every part at least 2 (m=0 gives 1)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _partitions_min_part(m, m, 2)


def count_partitions(n: int) -> int:
    """Total number of partitions of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partitions_min_part(n, n, 1)


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
