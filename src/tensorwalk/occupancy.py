"""Occupancy engines: exact balls-in-boxes and random-vector span laws.

The exact routes return Fractions and never load numpy. Each Monte Carlo run
takes one seed, which fixes its whole draw sequence, so a run is
reproducible bit for bit. numpy loads on the first draw. The draws come in
chunks of 2^18 values (one row, if a row is larger): the calling thread draws
chunk k + 1 while one worker thread counts chunk k, so up to two narrow chunks
are alive at once.
"""

import math
from collections import namedtuple
from fractions import Fraction
from math import comb

from .combinat import is_prime, q_binomial
from .errors import UnsupportedFieldError

_CHUNK_ELEMENTS = 1 << 18


def _int_dtype(largest: int):
    """Narrowest signed integer dtype of at least 16 bits that holds `largest`.

    Past int64 it is `object`, so numpy works on Python ints. Narrower types
    are not used: numpy's sort of int8 and uint8 is far slower than of int16.
    """
    import numpy as np

    for dtype in (np.int16, np.int32, np.int64):
        if largest <= np.iinfo(dtype).max:
            return dtype
    return object


def _draws(seed: int, samples: int, high: int, shape: tuple[int, ...]):
    """The seeded draws of one run: uniform ints below `high`, in chunks.

    Yields arrays of shape (chunk, *shape) until `samples` rows are drawn,
    each with at most `_CHUNK_ELEMENTS` values unless one row is larger.
    Chunking does not change the values: the chunks, concatenated, equal one
    draw of shape (samples, *shape). The values are drawn as int64, which
    fixes the stream, and handed on in the narrowest dtype that holds
    high - 1, so only that narrow chunk outlives the draw. The spawn key
    (0,) keeps every recorded run reproducible.

    numpy is imported here, on the first draw. `_count_matches` counts each
    chunk on a worker thread while the next is drawn, so up to two chunks of
    at most 2^18 values are alive at once.
    """
    import numpy as np

    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    rng = np.random.Generator(np.random.PCG64(seq))
    rows = max(1, _CHUNK_ELEMENTS // max(1, math.prod(shape)))
    dtype = _int_dtype(high - 1)
    for start in range(0, samples, rows):
        size = (min(rows, samples - start), *shape)
        yield rng.integers(0, high, size=size).astype(dtype, copy=False)


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
    # Over the one denominator n^r the k occupied boxes of the inner sum
    # contribute the integer (-1)^(a-k) C(a, k) k^r, so the sum reduces once.
    total = sum((-1) ** (a - k) * comb(a, k) * k**r for k in range(a + 1))
    return Fraction(comb(n, a) * total, n**r)


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
    return _count_matches(seed, samples, n, (r,), _distinct_counts, a)


def _count_matches(
    seed: int, samples: int, high: int, shape: tuple[int, ...], statistic, a: int
) -> McEstimate:
    """Rows of the seeded draws (see `_draws`) whose `statistic` equals a.

    `statistic` maps a (k, *shape) chunk to k values and may change the
    chunk. The generator stays in this thread, so the stream does not
    depend on the counting. One worker thread counts chunk k while this
    thread draws chunk k + 1: each chunk is handed over through a one-slot
    queue, and chunk k + 2 is drawn only once chunk k is counted. The worker
    is joined before this returns, and an error of `statistic` is raised
    here.
    """
    import queue
    import threading

    import numpy as np

    chunks, counts = queue.Queue(maxsize=1), queue.SimpleQueue()

    def count() -> None:
        while (chunk := chunks.get()) is not None:
            try:
                counts.put(int(np.count_nonzero(statistic(chunk) == a)))
            except BaseException as error:
                # `collect` raises it; a worker that died instead would hang `collect`.
                counts.put(error)

    def collect() -> int:
        result = counts.get()
        if isinstance(result, BaseException):
            raise result
        return result

    worker = threading.Thread(target=count)
    worker.start()
    successes = 0
    try:
        for k, chunk in enumerate(_draws(seed, samples, high, shape)):
            chunks.put(chunk)
            if k:
                successes += collect()
        successes += collect()
    finally:
        chunks.put(None)
        worker.join()
    return McEstimate(successes=successes, samples=samples)


def _distinct_counts(rows):
    """Number of distinct values in each row; sorts the rows in place."""
    import numpy as np

    rows.sort(axis=1)
    return 1 + np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)


def _inverse_mod(x, q: int):
    """x^(q-2) mod q elementwise: the inverse of each x that q does not divide."""
    import numpy as np

    out = np.ones_like(x)
    e = q - 2
    while e:
        if e & 1:
            out = out * x % q
        x = x * x % q
        e >>= 1
    return out


def _batch_rank_mod(mats, q: int):
    """Rank over the prime field F_q of each matrix in a (k, r, n) stack.

    Forward elimination on the whole stack at once, pivoting per matrix: in
    each column, the first row not yet used as a pivot with a nonzero entry
    becomes the pivot, and every row sheds its multiple of it (a row once
    used is never read again, so clearing it too costs nothing). Entries must
    lie in [0, q), as the draws do, and every update reduces mod q, so it
    runs in the narrowest dtype that holds (q - 1)^2 (see `_int_dtype`).
    `mats` is left unchanged.
    """
    import numpy as np

    k, r, n = mats.shape
    if r == 0:
        return np.zeros(k, dtype=np.int64)
    # Column-major per matrix, with the stack last: m[col, row] is a vector.
    m = np.array(mats.transpose(2, 1, 0), dtype=_int_dtype((q - 1) ** 2), order="C")
    unused = np.ones((r, k), dtype=bool)
    stack = np.arange(k)
    for col in range(n):
        column = m[col]
        candidate = unused & (column != 0)
        found = candidate.any(axis=0)
        pivot_row = candidate.argmax(axis=0)
        unused[pivot_row, stack] &= ~found
        factor = column * _inverse_mod(column[pivot_row, stack], q) % q
        for j in range(col + 1, n):
            m[j] = (m[j] - factor * m[j, pivot_row, stack]) % q
    return r - np.count_nonzero(unused, axis=0)


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
    return _count_matches(seed, samples, q, (r, n), lambda m: _batch_rank_mod(m, q), a)
