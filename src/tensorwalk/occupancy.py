"""Occupancy engines: exact balls-in-boxes and random-vector span laws.

The exact routes return Fractions. Each Monte Carlo run takes one seed, which
fixes its whole draw sequence, so a run is reproducible bit for bit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .combinat import is_prime, q_binomial
from .errors import UnsupportedFieldError

_CHUNK = 1 << 14


def _draws(seed: int, samples: int, high: int, shape: tuple[int, ...]):
    """The seeded draws of one run: uniform ints below `high`, in chunks.

    Yields arrays of shape (chunk, *shape) until `samples` rows are drawn.
    The spawn key (0,) keeps every recorded run reproducible.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    rng = np.random.Generator(np.random.PCG64(seq))
    for start in range(0, samples, _CHUNK):
        yield rng.integers(0, high, size=(min(_CHUNK, samples - start), *shape))


@dataclass(frozen=True)
class McEstimate:
    """Empirical frequency with its binomial standard error."""

    successes: int
    samples: int

    @property
    def estimate(self) -> float:
        return self.successes / self.samples

    @property
    def stderr(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.samples)

    def within(self, exact, sigmas: float = 4.0) -> bool:
        """True when the estimate is within `sigmas` standard errors of exact.

        A zero standard error (all successes or none) demands exact match.
        """
        err = self.stderr
        if err == 0.0:
            return self.estimate == float(exact)
        return abs(self.estimate - float(exact)) <= sigmas * err


def occupancy_exact(a: int, r: int, n: int) -> Fraction:
    """Probability that r balls dropped into n boxes occupy exactly a boxes.

    Inclusion-exclusion over the occupied set; 0^0 = 1 so that r = 0 gives
    a point mass at a = 0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= a <= n:
        raise ValueError("need 0 <= a <= n")
    if r < 0:
        raise ValueError("need r >= 0")
    total = Fraction(0)
    for b in range(n - a, n + 1):
        sign = (-1) ** (b - (n - a))
        total += sign * comb(a, n - b) * Fraction(n - b, n) ** r
    return comb(n, a) * total


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

    The count of occupied boxes holds with probability a/n and steps up
    otherwise; starting from 0, the r-step law must match `occupancy_exact`
    entry for entry.
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
    total = Fraction(0)
    for b in range(n - a, n + 1):
        j = b - (n - a)
        sign = (-1) ** j
        total += (
            sign
            * q ** comb(j, 2)
            * q_binomial(a, n - b, q)
            * Fraction(1, q ** (r * b))
        )
    return q_binomial(n, a, q) * total


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
    successes = 0
    for draws in _draws(seed, samples, n, (r,)):
        draws.sort(axis=1)
        distinct = 1 + (np.diff(draws, axis=1) != 0).sum(axis=1)
        successes += int((distinct == a).sum())
    return McEstimate(successes=successes, samples=samples)


def _rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank over the prime field F_q by forward elimination.

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
    successes = sum(
        _rank_mod(mat, q) == a
        for draws in _draws(seed, samples, q, (r, n))
        for mat in draws.tolist()
    )
    return McEstimate(successes=successes, samples=samples)


def poisson_not01(c: float) -> float:
    """Probability that a Poisson variable with mean e^(-c) is neither 0 nor 1."""
    if c < -700.0:
        return 1.0
    mean = math.exp(-c)
    if mean > 700.0:
        return 1.0
    return 1.0 - math.exp(-mean) * (1.0 + mean)
