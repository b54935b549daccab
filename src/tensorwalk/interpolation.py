"""Eigenvalue-only analysis of reversible chains via polynomial interpolation.

Any power of a diagonalizable kernel with m distinct eigenvalues is a
polynomial of degree below m in the kernel itself. For a pair of states at
maximal support distance this collapses the separation distance to a sum
over the eigenvalues alone; monotone birth-death chains are the classical
one-dimensional instance.

Eigenvalues are always inputs here, never computed numerically: every chain
in scope has a known exact spectrum, and exact singularity checks stand in
for an eigensolver.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm

from .chains import TransitionKernel
from .errors import ConsistencyError, common_value
from .linalg import det_bareiss


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


def interpolation_coefficients_subsets(eigenvalues, r: int) -> list[Fraction]:
    """Same coefficients by literal subset enumeration; oracle for small m."""
    eigs = _check_distinct(eigenvalues)
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
                prod = Fraction(1)
                for s in subset:
                    prod *= s
                subset_sum += prod
            total += lam**r / denom * subset_sum
        gamma[a - 1] = (-1) ** (m - a) * total
    return gamma


def separation_from_spectrum(eigenvalues, r: int) -> Fraction:
    """Separation-style quantity from the distinct eigenvalues alone.

    For a reversible ergodic kernel and states x, y whose support distance
    equals the number of non-unit eigenvalues, this equals
    1 - K^r(x, y) / pi(y). The caller certifies that hypothesis.
    """
    eigs = _check_distinct(eigenvalues)
    if r < 0:
        raise ValueError("need r >= 0")
    if Fraction(1) not in eigs:
        raise ValueError("eigenvalue list must contain 1")
    total = Fraction(0)
    for lam, weight in _spectral_weights(eigs):
        total += lam**r * weight
    return total


@cache
def _spectral_weights(eigs: tuple[Fraction, ...]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Pairs (lambda, product over the other non-unit mu of (1-mu)/(lambda-mu)).

    The weights do not depend on r, so a curve over many r computes them
    once per distinct, validated eigenvalue tuple.
    """
    others = [v for v in eigs if v != 1]
    pairs = []
    for i, lam in enumerate(others):
        prod = Fraction(1)
        for j, mu in enumerate(others):
            if j != i:
                prod *= (1 - mu) / (lam - mu)
        pairs.append((lam, prod))
    return tuple(pairs)


def _bfs_distances_to(kernel: TransitionKernel, target: int) -> list[int | None]:
    """Directed distances from every state to `target` on the support graph."""
    reverse: list[list[int]] = [[] for _ in kernel.states]
    for i, row in enumerate(kernel.matrix):
        for j, x in enumerate(row):
            if x > 0:
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
    if not any(kernel.matrix[i][i] > 0 for i in range(kernel.size)):
        raise ValueError("could not verify aperiodicity: no state holds in place")
    d = dist[xi]
    if eigenvalue_count is not None and d > eigenvalue_count - 1:
        raise ConsistencyError(
            f"distance {d} exceeds the eigenvalue bound {eigenvalue_count - 1}"
        )
    return d


@dataclass(frozen=True)
class BirthDeathChain:
    """Tridiagonal chain on {0..d}: down rates a, holds b, up rates c.

    down[x] is the rate from x+1 to x (x = 0..d-1), hold[x] the rate from x
    to x, up[x] the rate from x to x+1. All interior moves must be positive
    and each row must sum to one exactly.
    """

    down: tuple[Fraction, ...]
    hold: tuple[Fraction, ...]
    up: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "down", tuple(Fraction(x) for x in self.down))
        object.__setattr__(self, "hold", tuple(Fraction(x) for x in self.hold))
        object.__setattr__(self, "up", tuple(Fraction(x) for x in self.up))
        d = self.d
        if len(self.down) != d or len(self.up) != d:
            raise ValueError("rate vectors have inconsistent lengths")
        if any(x <= 0 for x in self.down) or any(x <= 0 for x in self.up):
            raise ValueError("interior moves must have positive probability")
        for x in range(d + 1):
            total = self.hold[x]
            if x > 0:
                total += self.down[x - 1]
            if x < d:
                total += self.up[x]
            if total != 1:
                raise ValueError(f"row {x} does not sum to 1")

    @property
    def d(self) -> int:
        return len(self.hold) - 1

    def is_monotone(self) -> bool:
        """Up rate plus the next down rate never exceeds one."""
        return all(self.up[x] + self.down[x] <= 1 for x in range(self.d))

    def stationary(self) -> list[Fraction]:
        weights = [Fraction(1)]
        for x in range(1, self.d + 1):
            weights.append(weights[-1] * self.up[x - 1] / self.down[x - 1])
        z = sum(weights)
        return [w / z for w in weights]

    def kernel(self) -> TransitionKernel:
        d = self.d
        matrix = []
        for x in range(d + 1):
            row = [Fraction(0)] * (d + 1)
            row[x] = self.hold[x]
            if x > 0:
                row[x - 1] = self.down[x - 1]
            if x < d:
                row[x + 1] = self.up[x]
            matrix.append(row)
        return TransitionKernel(range(d + 1), matrix, self.stationary())


def birth_death_separation(chain: BirthDeathChain, eigenvalues, r: int) -> Fraction:
    """Separation distance of a monotone birth-death chain started at 0.

    The supplied eigenvalues (all d+1 of them, including 1) are validated by
    a vanishing fraction-free determinant of the shifted kernel. The
    eigenvalue-only value is asserted against the direct route through the
    r-step mass at the far endpoint.
    """
    if not chain.is_monotone():
        raise ValueError("chain is not monotone")
    eigs = _check_distinct(eigenvalues)
    if len(eigs) != chain.d + 1:
        raise ValueError("need every distinct eigenvalue of the chain")
    kernel = chain.kernel()
    scale = lcm(*(x.denominator for row in kernel.matrix for x in row))
    for lam in eigs:
        # K - lam I scaled by a common denominator to integers; it is singular
        # exactly when its determinant vanishes.
        s = scale * lam.denominator
        shifted = [
            [s * (x - lam if i == j else x) for j, x in enumerate(row)]
            for i, row in enumerate(kernel.matrix)
        ]
        if det_bareiss(shifted) != 0:
            raise ValueError(f"{lam} is not an eigenvalue of the chain")
    pi = chain.stationary()
    separations = {
        "spectral": separation_from_spectrum(eigs, r),
        "direct": 1 - kernel.step_distribution(0, r)[chain.d] / pi[chain.d],
    }
    return common_value(separations, f"the birth-death separation, r={r}")
