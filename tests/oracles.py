"""Independent brute-force oracles used to freeze expected test values.

Nothing here may call into the code paths under test: counting is by
explicit enumeration or classical recurrences only. Everything is meant for
desk-scale inputs.
"""

import csv
import io
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial


@cache
def euler_partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        total += sign * (euler_partition_count(n - g1) + euler_partition_count(n - g2))
        k += 1
    return total


def skew_cells(outer, inner) -> list[tuple[int, int]]:
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return [
        (i, j)
        for i, row in enumerate(outer)
        for j in range(inner[i], row)
    ]


def count_standard_fillings(outer, inner=()) -> int:
    """Standard fillings of a (skew) shape by direct recursive placement."""
    cells = skew_cells(tuple(outer), tuple(inner))
    cell_set = set(cells)
    filled: set[tuple[int, int]] = set()

    def placeable(c):
        i, j = c
        left = (i, j - 1)
        up = (i - 1, j)
        if left in cell_set and left not in filled:
            return False
        if up in cell_set and up not in filled:
            return False
        return True

    def rec(remaining):
        if not remaining:
            return 1
        total = 0
        for c in list(remaining):
            if placeable(c):
                filled.add(c)
                remaining.remove(c)
                total += rec(remaining)
                remaining.add(c)
                filled.remove(c)
        return total

    return rec(set(cells))


@cache
def count_row_skew_fillings(outer: tuple, m: int) -> int:
    """Standard fillings of outer/(m), the shape less a first row of m cells.

    Zero when the row does not fit inside the first row of `outer`.
    """
    if m > (outer[0] if outer else 0):
        return 0
    return count_standard_fillings(outer, (m,))


def fixed_point_sum_by_fraction_terms(lam, i: int) -> Fraction:
    """Character sum of shape `lam` over the permutations with exactly i
    fixed points, (n!/i!) sum_j (-1)^j/j! f^(lam/(n-i-j)), adding one
    Fraction per term, with each skew count by direct placement."""
    n = sum(lam)
    total = Fraction(0)
    for j in range(n - i + 1):
        term = Fraction((-1) ** j, factorial(j))
        total += term * count_row_skew_fillings(tuple(lam), n - i - j)
    return total * Fraction(factorial(n), factorial(i))


def span_of(vectors, q: int) -> frozenset:
    """All linear combinations of the given tuples over the prime field F_q."""
    n = len(vectors[0]) if vectors else 0
    span = {(0,) * n}
    for v in vectors:
        new = set()
        for s in span:
            for c in range(q):
                new.add(tuple((a + c * b) % q for a, b in zip(s, v)))
        span = new
    return frozenset(span)


def rank_by_span(rows, q: int) -> int:
    """Rank over the prime field F_q as log_q of the span size.

    The span is listed from all q^r coefficient choices for the r rows.
    """
    n = len(rows[0]) if rows else 0
    span = {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(n))
        for coeffs in product(range(q), repeat=len(rows))
    }
    rank = 0
    while q**rank < len(span):
        rank += 1
    assert q**rank == len(span)
    return rank


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank over the prime field F_q by forward elimination, one matrix at a time.

    Rows are rebound, never changed in place, so a copy of the outer list
    leaves the argument as it was.
    """
    rows = list(rows)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        for i in range(rank, len(rows)):
            if rows[i][col] % q:
                rows[rank], rows[i] = rows[i], rows[rank]
                break
        else:
            continue
        top = rows[rank]
        inv = pow(top[col], -1, q)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % q
            if f:
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], top)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def count_subspaces(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n by exhaustive span listing."""
    if k == 0:
        return 1
    vectors = list(product(range(q), repeat=n))
    seen = set()
    for combo in product(vectors, repeat=k):
        span = span_of(list(combo), q)
        if len(span) == q**k:
            seen.add(span)
    return len(seen)


def occupancy_by_enumeration(a: int, r: int, n: int) -> Fraction:
    """Exact occupancy probability by listing all n^r drop sequences."""
    hits = sum(
        1 for seq in product(range(n), repeat=r) if len(set(seq)) == a
    )
    return Fraction(hits, n**r)


def occupancy_by_fraction_terms(a: int, r: int, n: int) -> Fraction:
    """Occupancy law by inclusion-exclusion, adding one Fraction per term."""
    total = Fraction(0)
    for b in range(n - a, n + 1):
        sign = (-1) ** (b - (n - a))
        total += sign * comb(a, n - b) * Fraction(n - b, n) ** r
    return comb(n, a) * total


@cache
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q by the q-Pascal recurrence; 0 outside 0..n."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(n - 1, k, q)


def qspan_by_fraction_terms(a: int, r: int, n: int, q: int) -> Fraction:
    """Span-dimension law by inclusion-exclusion, adding one Fraction per term."""
    total = Fraction(0)
    for b in range(n - a, n + 1):
        j = b - (n - a)
        total += (
            (-1) ** j
            * q ** comb(j, 2)
            * gaussian_binomial(a, n - b, q)
            * Fraction(1, q ** (r * b))
        )
    return gaussian_binomial(n, a, q) * total


def spectral_separation_by_fraction_terms(eigenvalues, r: int) -> Fraction:
    """Sum over the non-unit lambda of lambda^r times the product over the
    other non-unit mu of (1-mu)/(lambda-mu), adding one Fraction per term."""
    others = [Fraction(v) for v in eigenvalues if v != 1]
    total = Fraction(0)
    for i, lam in enumerate(others):
        weight = Fraction(1)
        for j, mu in enumerate(others):
            if j != i:
                weight *= (1 - mu) / (lam - mu)
        total += lam**r * weight
    return total


def interpolation_coefficients_subsets(eigenvalues, r: int) -> list[Fraction]:
    """Coefficients gamma with K^r = sum_a gamma[a] K^a for any matrix whose
    distinct eigenvalues are the given m values, by literal enumeration of
    the subsets in the elementary symmetric sums."""
    eigs = [Fraction(v) for v in eigenvalues]
    if len(set(eigs)) != len(eigs):
        raise ValueError("eigenvalues must be pairwise distinct")
    if r < 0:
        raise ValueError("need r >= 0")
    m = len(eigs)
    gamma = [Fraction(0)] * m
    for a in range(1, m + 1):
        total = Fraction(0)
        for i, lam in enumerate(eigs):
            others = [eigs[j] for j in range(m) if j != i]
            denom = Fraction(1)
            for other in others:
                denom *= lam - other
            subset_sum = Fraction(0)
            for subset in combinations(others, m - a):
                term = Fraction(1)
                for s in subset:
                    term *= s
                subset_sum += term
            total += lam**r / denom * subset_sum
        gamma[a - 1] = (-1) ** (m - a) * total
    return gamma


def sn_separation_by_fresh_powers(n: int, r: int) -> Fraction:
    """S_n separation after r steps: the alternating sum
    sum_i comb(n, i)(n - i - 1)(-1)^(n - i) i^r / n^r, each i^r a fresh power."""
    total = sum(
        comb(n, i) * (n - i - 1) * (-1) ** (n - i) * i**r for i in range(n - 1)
    )
    return Fraction(total, n**r)


def tv_by_dense_rows(matrix, stationary, start: int, r: int) -> Fraction:
    """Total-variation distance to `stationary` after r steps from state
    `start`: a point mass pushed r times through the dense `Fraction` rows of
    `matrix`, then half the summed absolute differences."""
    size = len(matrix)
    row = [Fraction(int(j == start)) for j in range(size)]
    for _ in range(r):
        row = [sum(row[i] * matrix[i][j] for i in range(size)) for j in range(size)]
    return sum(abs(p - pi) for p, pi in zip(row, stationary)) / 2


def curve_csv_by_writer(q, rows) -> str:
    """A separation curve's CSV text as `csv.writer` renders it.

    `rows` holds (r, exact value, route) in output order; the exact value is
    written "num/den" and its float with 17 significant digits.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    q_header, q_cell = ([], []) if q is None else (["q"], [q])
    writer.writerow(["r", *q_header, "s_exact", "s_float", "route"])
    for r, value, route in rows:
        exact = f"{value.numerator}/{value.denominator}"
        writer.writerow([r, *q_cell, exact, f"{float(value):.17g}", route])
    return buf.getvalue()


def span_dim_by_enumeration(a: int, r: int, n: int, q: int) -> Fraction:
    """Exact span-dimension probability by listing all vector r-tuples."""
    vectors = list(product(range(q), repeat=n))
    hits = 0
    for combo in product(vectors, repeat=r):
        span = span_of(list(combo), q)
        size = len(span)
        dim = 0
        while q**dim < size:
            dim += 1
        if dim == a:
            hits += 1
    return Fraction(hits, len(vectors) ** r)


def permutation_stats(n: int):
    """(fixed points, cycle count) for every permutation of n letters."""
    out = []
    for perm in permutations(range(n)):
        fixed = sum(1 for i, p in enumerate(perm) if i == p)
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        out.append((fixed, cycles))
    return out


def signed_sum_by_enumeration(n: int, i: int) -> int:
    """Sum of signs over permutations with exactly i fixed points."""
    return sum(
        (-1) ** (n - cycles)
        for fixed, cycles in permutation_stats(n)
        if fixed == i
    )


def fixed_point_census(n: int) -> dict[int, int]:
    """Number of permutations of n letters with each fixed point count."""
    census: dict[int, int] = {}
    for fixed, _ in permutation_stats(n):
        census[fixed] = census.get(fixed, 0) + 1
    return census
