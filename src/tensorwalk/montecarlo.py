"""The Monte Carlo engine behind `occupancy.occupancy_mc` and `qspan_mc`.

One seed fixes the whole draw sequence of a run, so a run is reproducible
bit for bit, however many CPUs draw it. numpy loads on the first draw. A
range of 2^k values is read from raw PCG64 words (see `_draws`), and residues
mod q come from floor division (`_mod`): numpy vectorises `//` by a scalar,
not `%`. `occupancy_mc` and `qspan_mc` import this module on their first
draw, so `import tensorwalk.cli` does not compile it.
"""

import math

from .occupancy import McEstimate

_CHUNK_ELEMENTS = 1 << 18


def _int_dtype(largest: int):
    """Narrowest signed integer dtype of at least 16 bits that holds `largest`, or
    `object` (Python ints) past int64. numpy sorts int8 far slower than int16."""
    import numpy as np

    for dtype in (np.int16, np.int32, np.int64):
        if largest <= np.iinfo(dtype).max:
            return dtype
    return object


def _draws(source, samples: int, high: int, shape: tuple[int, ...], parts: int = 1):
    """The seeded draws of a run, or of a part of one: uniform ints below `high`.

    `source` is the run's seed (spawn key (0,), as every recorded run used)
    or a `PCG64` set where the part starts, left where the draws end. Yields
    (chunk, *shape) arrays of at most `_CHUNK_ELEMENTS // parts` values (one
    row, if larger) until `samples` rows are drawn, equal to one draw when
    joined: int32 up to high = 2^31 (the int64 stream in half the memory),
    int64 above, handed on in the narrowest dtype that holds high - 1. At
    high = 2^k Lemire's method cannot reject (its threshold, (2^32 - high)
    mod high or the 64-bit analogue, is 0) and keeps the top k bits of each
    32-bit half, or of each 64-bit word for k > 32. Those come straight from
    `random_raw`: a half buffered in the state first, then low half before
    high, and an odd count leaves its last high half buffered, as numpy does.
    """
    import numpy as np

    if not isinstance(source, np.random.PCG64):
        source = np.random.PCG64(np.random.SeedSequence(source, spawn_key=(0,)))
    rng = np.random.Generator(source)
    rows = max(1, _CHUNK_ELEMENTS // parts // max(1, math.prod(shape)))
    drawn = np.int32 if high <= 2**31 else np.int64
    dtype = _int_dtype(high - 1)
    bits = high.bit_length() - 1
    for start in range(0, samples, rows):
        size = (min(rows, samples - start), *shape)
        if high != 1 << bits or not 0 < bits < 64:
            yield rng.integers(0, high, size=size, dtype=drawn).astype(dtype, copy=False)
            continue
        out = np.empty(math.prod(size), dtype)
        first = 0
        if bits > 32:
            units = source.random_raw(out.size)
        else:
            state = source.state
            first = state["has_uint32"]
            out[:first] = state["uinteger"] >> (32 - bits)
            words = source.random_raw((out.size - first + 1) // 2)
            units = words.view(np.uint32)[: out.size - first]
            state = source.state
            state["has_uint32"] = (state["has_uint32"] + out.size) % 2
            if words.size:
                state["uinteger"] = int(words[-1]) >> 32
            source.state = state
            del words
        units >>= 8 * units.itemsize - bits
        out[first:] = units
        del units
        yield out.reshape(size)


def _count_matches(
    seed: int, samples: int, high: int, shape: tuple[int, ...], statistic, a: int
) -> McEstimate:
    """Rows of the seeded draws (see `_draws`) whose `statistic` equals a.

    `statistic` maps a (k, *shape) chunk to k values and may change it. The
    rows are split into contiguous parts, one per CPU and at most one per
    chunk; a thread per part draws and counts its chunks in order, while the
    calling thread (which signal handlers interrupt) waits or runs a lone
    part. numpy takes a value below 2^32 from half a 64-bit PCG64 output, low
    half first, and a larger one from a whole output, but Lemire's method
    rejects one now and then. So a part starts where the stream is if none
    before it was rejected, and is kept only if the part before ended there;
    the rest is split again from the true state, so the count is one draw's.
    A run whose values would likely see a rejection is drawn as one part.
    """
    import os
    import threading

    import numpy as np

    def start(state, halves: int):
        bitgen = np.random.PCG64()
        bitgen.state = state
        if halves:  # a buffered half comes first, and `advance` drops it
            halves -= state["has_uint32"]
            bitgen.advance(halves // 2)
            if halves % 2:  # one half, as numpy takes it: the low one, the high one kept
                word = int(bitgen.random_raw())
                bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": word >> 32}
        return bitgen

    def where(state) -> tuple:
        return state["state"], state["has_uint32"], state["has_uint32"] and state["uinteger"]

    def count(j: int) -> None:
        try:
            chunks = _draws(gens[j], bounds[j + 1] - bounds[j], high, shape, parts)
            counts[j] = sum(int(np.count_nonzero(statistic(c) == a)) for c in chunks)
        except BaseException as error:
            errors.append(error)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    bits = 32 if high <= 2**32 else 64
    if ((1 << bits) - high) % high * samples * math.prod(shape) >= 1 << bits:
        cpus = 1  # a rejection is likely, and every part after it would be drawn twice
    row_halves = math.prod(shape) * (0 if high == 1 else bits // 32)
    chunk_rows = max(1, _CHUNK_ELEMENTS // max(1, math.prod(shape)))
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))).state
    successes = done = 0
    while done < samples:
        parts = min(cpus, -(-(samples - done) // chunk_rows))
        bounds = [done + (samples - done) * j // parts for j in range(parts + 1)]
        gens = [start(state, (row - done) * row_halves) for row in bounds[:-1]]
        starts, counts, errors = [where(b.state) for b in gens], [0] * parts, []
        if parts == 1:
            count(0)
        else:
            threads = [threading.Thread(target=count, args=(j,)) for j in range(parts)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        kept = next((j for j in range(1, parts) if where(gens[j - 1].state) != starts[j]), parts)
        successes += sum(counts[:kept])
        done, state = bounds[kept], gens[kept - 1].state
    return McEstimate(successes=successes, samples=samples)


def _distinct_counts(rows):
    """Number of distinct values in each row; sorts the rows in place."""
    import numpy as np

    rows.sort(axis=1)
    return 1 + np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)


def _mod(x, q: int):
    """x mod q elementwise for q > 0, as `%` gives it: numpy vectorises floor
    division by a scalar but not `%`. Products that wrap cancel mod 2^bits."""
    return x - x // q * q


def _inverse_mod(x, q: int):
    """x^(q-2) mod q elementwise for x in [0, q): the inverse of each nonzero
    x, and 0 for 0. The dtype of x must hold (q - 1)^2."""
    import numpy as np

    # Mod 2 each x is its own inverse; starting from x keeps 0 at 0 there.
    out = np.ones_like(x) if q > 2 else x.copy()
    e = q - 2
    while e:
        if e & 1:
            out = _mod(out * x, q)
        x = _mod(x * x, q)
        e >>= 1
    return out


def _batch_rank_mod(mats, q: int):
    """Rank over the prime field F_q of each matrix in a (k, r, n) stack.

    Forward elimination on the whole stack at once, pivoting per matrix: in
    each column the first row not yet a pivot with a nonzero entry becomes
    the pivot, and every row sheds its multiple of it (a used row is never
    read again, so clearing it too costs nothing). Entries must lie in
    [0, q). Only what is read is reduced mod q: the pivot column, and the
    pivot row's later entries, scaled by the pivot's inverse. An update
    subtracts a product of two residues, moving an entry by at most
    (q - 1)^2, so the stack is held in the narrowest dtype that holds
    (q - 1)^2 (see `_int_dtype`), with room for (max - (q - 1)) // (q - 1)^2
    pending updates; before one more could overflow, the rest of the stack
    is reduced once (never with Python ints). `mats` is left unchanged.
    """
    import numpy as np

    k, r, n = mats.shape
    if r == 0:
        return np.zeros(k, dtype=np.int64)
    dtype = _int_dtype((q - 1) ** 2)
    # Column-major per matrix, with the stack last: m[col, row] is a vector.
    m = np.array(mats.transpose(2, 1, 0), dtype=dtype, order="C")
    if dtype is object:
        budget = math.inf
    else:
        budget = (np.iinfo(dtype).max - (q - 1)) // (q - 1) ** 2
    pending = 0
    unused = np.ones((r, k), dtype=bool)
    stack = np.arange(k)
    for col in range(n):
        column = _mod(m[col], q)
        candidate = unused & (column != 0)
        found = candidate.any(axis=0)
        pivot_row = candidate.argmax(axis=0)
        unused[pivot_row, stack] &= ~found
        inverse = _inverse_mod(column[pivot_row, stack], q)
        scaled = _mod(_mod(m[col + 1 :, pivot_row, stack], q) * inverse, q)
        if pending == budget:
            m[col + 1 :] = _mod(m[col + 1 :], q)
            pending = 0
        pending += 1
        for j, factor in enumerate(scaled, col + 1):
            m[j] -= column * factor
    return r - np.count_nonzero(unused, axis=0)
