"""Eigenvalue-only analysis of reversible chains via polynomial interpolation.

Any power of a diagonalizable kernel with m distinct eigenvalues is a
polynomial of degree below m in the kernel itself. For a pair of states at
maximal support distance this collapses the separation distance to a sum
over the eigenvalues alone; the support distance is verified on the
kernel's sparse rows.

Eigenvalues are always inputs here, never computed numerically: every chain
in scope has a known exact spectrum.
"""

from collections import deque
from fractions import Fraction
from functools import cache
from math import lcm, prod

from .chains import TransitionKernel
from .errors import ConsistencyError


def _check_distinct(values) -> tuple[Fraction, ...]:
    values = tuple(Fraction(v) for v in values)
    if len(set(values)) != len(values):
        raise ValueError("eigenvalues must be pairwise distinct")
    return values


def interpolation_coefficients(eigenvalues, r: int) -> list[Fraction]:
    """Coefficients expressing the r-th power in powers 0..m-1 of the kernel.

    For any matrix whose distinct eigenvalues are exactly the given m
    values, K^r = sum_a gamma[a] K^a with the returned gamma of length m.
    Computed from the characteristic-style polynomial by synthetic division,
    which packs the elementary symmetric sums in O(m^2) instead of raw
    subset enumeration.
    """
    eigs = _check_distinct(eigenvalues)
    if r < 0:
        raise ValueError("need r >= 0")
    m = len(eigs)
    if m == 0:
        raise ValueError("need at least one eigenvalue")
    # coefficients of prod_j (s - eig_j), low degree first
    poly = [Fraction(1)]
    for lam in eigs:
        poly = [Fraction(0)] + poly
        poly = [c0 - lam * c1 for c0, c1 in zip(poly, poly[1:] + [Fraction(0)])]
    gamma = [Fraction(0)] * m
    for i, lam in enumerate(eigs):
        # synthetic division by (s - lam): quotient coefficients, low first
        quotient = [Fraction(0)] * m
        carry = Fraction(0)
        for a in range(m - 1, -1, -1):
            carry = poly[a + 1] + lam * carry
            quotient[a] = carry
        denom = Fraction(1)
        for j, other in enumerate(eigs):
            if j != i:
                denom *= lam - other
        weight = lam**r / denom
        for a in range(m):
            gamma[a] += weight * quotient[a]
    return gamma


def separation_from_spectrum(eigenvalues, r: int) -> Fraction:
    """Separation-style quantity from the distinct eigenvalues alone.

    For a reversible ergodic kernel and states x, y whose support distance
    equals the number of non-unit eigenvalues, this equals
    1 - K^r(x, y) / pi(y). The caller certifies that hypothesis. The
    eigenvalues are exact rationals (`int` or `Fraction`).
    """
    if r < 0:
        raise ValueError("need r >= 0")
    ratios = tuple((v.numerator, v.denominator) for v in eigenvalues)
    scale, weight_lcm, terms = _spectral_weights(ratios)
    total = sum(weight * lam**r for lam, weight in terms)
    return Fraction(total, weight_lcm * scale**r)


@cache
def _spectral_weights(
    ratios: tuple[tuple[int, int], ...],
) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """(L, D, pairs (L lambda, D w)) over the non-unit eigenvalues lambda.

    `ratios` holds each eigenvalue as its reduced (numerator, denominator);
    they must be distinct and include 1. The weight w of lambda is the
    product over the other non-unit mu of (1-mu)/(lambda-mu) =
    (L - L mu)/(L lambda - L mu), with L the lcm of the eigenvalue
    denominators, so each weight is one integer ratio; D is the lcm of the
    weight denominators. So the sum of w lambda^r is an integer sum over the
    one denominator D L^r. Nothing here depends on r, so a curve over many r
    validates and weighs its spectrum once; an invalid spectrum raises on
    every call, as errors are not cached.
    """
    if len(set(ratios)) != len(ratios):
        raise ValueError("eigenvalues must be pairwise distinct")
    if (1, 1) not in ratios:
        raise ValueError("eigenvalue list must contain 1")
    others = [ratio for ratio in ratios if ratio != (1, 1)]
    scale = lcm(*(d for _, d in others))
    scaled = [a * (scale // d) for a, d in others]
    complements = prod(scale - y for y in scaled)
    weights = [
        Fraction(complements // (scale - x), prod(x - y for y in scaled if y != x))
        for x in scaled
    ]
    weight_lcm = lcm(*(w.denominator for w in weights))
    terms = tuple(
        (x, w.numerator * (weight_lcm // w.denominator))
        for x, w in zip(scaled, weights)
    )
    return scale, weight_lcm, terms


def _bfs_distances_to(kernel: TransitionKernel, target: int) -> list[int | None]:
    """Directed distances from every state to `target` on the support graph.

    The edges are the nonzero entries of the kernel's sparse rows, which a
    validated kernel holds positive.
    """
    reverse: list[list[int]] = [[] for _ in kernel.states]
    for i, row in enumerate(kernel.scaled_rows):
        for j, _ in row:
            reverse[j].append(i)
    dist: list[int | None] = [None] * kernel.size
    dist[target] = 0
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for u in reverse[v]:
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def verify_distance(
    kernel: TransitionKernel, x, y, eigenvalue_count: int | None = None
) -> int:
    """Smallest r with positive r-step mass from x to y, with sanity checks.

    Positivity of an r-step entry is equivalent to a directed path of
    length r in the support graph, so the distance is a shortest path. The
    kernel is cheaply verified ergodic (every state reaches y, and some
    state holds in place). When the number of distinct eigenvalues is
    supplied, the distance must not exceed it minus one.
    """
    xi, yi = kernel.index(x), kernel.index(y)
    dist = _bfs_distances_to(kernel, yi)
    if any(d is None for d in dist):
        raise ValueError("kernel is not ergodic: some state never reaches the target")
    if not any(j == i for i, row in enumerate(kernel.scaled_rows) for j, _ in row):
        raise ValueError("could not verify aperiodicity: no state holds in place")
    d = dist[xi]
    if eigenvalue_count is not None and d > eigenvalue_count - 1:
        raise ConsistencyError(
            f"distance {d} exceeds the eigenvalue bound {eigenvalue_count - 1}"
        )
    return d
