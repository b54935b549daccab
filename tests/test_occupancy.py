import copy
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tensorwalk import montecarlo
from tensorwalk.errors import UnsupportedFieldError
from tensorwalk.montecarlo import (
    _CHUNK_ELEMENTS,
    _batch_rank_mod,
    _count_matches,
    _draws,
    _int_dtype,
    _inverse_mod,
    _mod,
)
from tensorwalk.occupancy import (
    McEstimate,
    occupancy_chain_power,
    occupancy_exact,
    occupancy_mc,
    occupancy_probabilities,
    qspan_chain_power,
    qspan_exact,
    qspan_mc,
)

from oracles import (
    occupancy_by_enumeration,
    occupancy_by_fraction_terms,
    qspan_by_fraction_terms,
    rank_by_span,
    rank_mod,
    span_dim_by_enumeration,
)

SEED = 20260801


class TestOccupancyExact:
    def test_known_examples(self):
        assert occupancy_exact(1, 1, 5) == 1
        assert occupancy_exact(2, 2, 2) == Fraction(1, 2)
        assert occupancy_exact(2, 3, 3) == Fraction(2, 3)

    def test_against_enumeration(self):
        for n in (2, 3):
            for r in range(4):
                for a in range(n + 1):
                    assert occupancy_exact(a, r, n) == occupancy_by_enumeration(a, r, n)

    def test_zero_cases(self):
        assert occupancy_exact(3, 2, 5) == 0  # more boxes than balls
        assert occupancy_exact(2, 0, 5) == 0
        assert occupancy_exact(0, 0, 5) == 1
        assert occupancy_exact(0, 1, 5) == 0

    def test_distribution_sums_to_one(self):
        for n in range(1, 13):
            for r in (0, 1, 2, 3, 7, 19, 40, 60):
                assert sum(occupancy_exact(a, r, n) for a in range(n + 1)) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            occupancy_exact(6, 1, 5)
        with pytest.raises(ValueError):
            occupancy_exact(1, -1, 5)


    def test_no_boxes_rejected(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            occupancy_exact(0, 0, 0)
        with pytest.raises(ValueError, match="need n >= 1"):
            occupancy_mc(0, 3, 0, 10, SEED)


class TestOccupancyChainPower:
    def test_point_mass_at_zero_steps(self):
        assert occupancy_chain_power(4, 0) == [1, 0, 0, 0, 0]

    def test_known_example(self):
        assert occupancy_chain_power(2, 2) == [0, Fraction(1, 2), Fraction(1, 2)]

    def test_matches_exact_formula(self):
        for n in range(1, 11):
            for r in range(41):
                dist = occupancy_chain_power(n, r)
                for a in range(n + 1):
                    assert dist[a] == occupancy_exact(a, r, n)


class TestQspanExact:
    def test_zero_dimension_is_all_zero_vectors(self):
        for q in (2, 3, 5):
            for n in (1, 2, 3):
                for r in (0, 1, 2, 4):
                    assert qspan_exact(0, r, n, q) == Fraction(1, q ** (r * n))

    def test_known_example(self):
        assert qspan_exact(2, 2, 2, 2) == Fraction(3, 8)

    def test_more_dimensions_than_vectors(self):
        assert qspan_exact(2, 1, 2, 3) == 0
        assert qspan_exact(3, 2, 3, 2) == 0

    def test_against_enumeration(self):
        for a in range(3):
            assert qspan_exact(a, 2, 2, 2) == span_dim_by_enumeration(a, 2, 2, 2)
        for a in range(3):
            assert qspan_exact(a, 3, 2, 2) == span_dim_by_enumeration(a, 3, 2, 2)
        assert qspan_exact(0, 1, 3, 3) == Fraction(1, 27)
        assert qspan_exact(1, 1, 3, 3) == span_dim_by_enumeration(1, 1, 3, 3)

    def test_distribution_sums_to_one(self):
        for q in (2, 3, 5):
            for n in range(1, 9):
                for r in (0, 1, 2, 5, 9, 12):
                    assert sum(qspan_exact(a, r, n, q) for a in range(n + 1)) == 1

    def test_chain_power_reproduces_exact(self):
        for q in (2, 3, 5):
            for n in range(1, 9):
                for r in range(13):
                    dist = qspan_chain_power(n, r, q)
                    for a in range(n + 1):
                        assert dist[a] == qspan_exact(a, r, n, q)


@st.composite
def stepped_law_cases(draw):
    """(a, n, rs): ascending rs with repeats, steps of one and jumps,
    sometimes from r = 0."""
    n = draw(st.integers(1, 12))
    gaps = draw(
        st.lists(st.integers(0, 2) | st.integers(0, 40), min_size=1, max_size=8)
    )
    rs = [sum(gaps[: k + 1]) for k in range(len(gaps))]
    if draw(st.booleans()):
        rs = [0] + rs
    return draw(st.integers(0, n)), n, rs


class TestSteppedLaw:
    @given(stepped_law_cases())
    @example((0, 1, [0, 0, 1, 2]))
    @example((0, 5, [0, 3, 3, 4]))
    @example((12, 12, [0, 1, 12, 13, 40]))
    def test_matches_each_r(self, case):
        a, n, rs = case
        stepped = list(occupancy_probabilities(a, n, iter(rs)))
        assert stepped == [occupancy_exact(a, r, n) for r in rs]
        assert stepped == [occupancy_by_fraction_terms(a, r, n) for r in rs]

    def test_matches_enumeration(self):
        rs = [0, 0, 1, 2, 2, 3, 5, 6]
        for n in (1, 2, 3, 4):
            for a in range(n + 1):
                expected = [occupancy_by_enumeration(a, r, n) for r in rs]
                assert list(occupancy_probabilities(a, n, rs)) == expected, (a, n)

    @pytest.mark.parametrize("rs", [[-1], [0, 3, 2], [4, 4, 1]])
    def test_negative_or_decreasing_r_raises(self, rs):
        with pytest.raises(ValueError, match="need r >= 0|must not decrease"):
            list(occupancy_probabilities(2, 5, rs))

    def test_a_jump_holds_one_term_at_a_time(self):
        # the 256 terms at r = 1420 take about 350 KiB together
        tracemalloc.start()
        try:
            occupancy_exact(255, 1420, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


@st.composite
def law_cases(draw):
    n = draw(st.integers(1, 12))
    return draw(st.integers(0, n)), draw(st.integers(0, 40)), n


class TestIntegerSums:
    """The laws summed over one denominator equal the per-term Fraction sums."""

    @given(law_cases())
    @example((0, 0, 1))
    @example((12, 40, 12))
    def test_occupancy_matches_fraction_terms(self, case):
        a, r, n = case
        assert occupancy_exact(a, r, n) == occupancy_by_fraction_terms(a, r, n)

    @given(law_cases(), st.sampled_from((2, 3, 4, 5, 7, 9)))
    @example((0, 0, 1), 2)
    @example((12, 40, 12), 9)
    def test_qspan_matches_fraction_terms(self, case, q):
        a, r, n = case
        assert qspan_exact(a, r, n, q) == qspan_by_fraction_terms(a, r, n, q)


class TestMonteCarlo:
    def test_deterministic_events(self):
        assert occupancy_mc(1, 1, 5, 1000, SEED).estimate == 1.0
        assert occupancy_mc(0, 1, 5, 1000, SEED).estimate == 0.0

    def test_occupancy_within_four_sigma(self):
        est = occupancy_mc(2, 2, 2, 100_000, SEED)
        assert est.within(Fraction(1, 2), sigmas=4)

    def test_qspan_within_four_sigma(self):
        est = qspan_mc(2, 2, 2, 2, 100_000, SEED)
        assert est.within(Fraction(3, 8), sigmas=4)

    def test_qspan_impossible_dimensions(self):
        est = qspan_mc(3, 5, 2, 2, 100, SEED)
        assert est.estimate == 0.0

    def test_reproducibility(self):
        a = occupancy_mc(2, 3, 4, 5000, SEED)
        b = occupancy_mc(2, 3, 4, 5000, SEED)
        assert a == b
        c = occupancy_mc(2, 3, 4, 5000, SEED + 1)
        assert c != a

    def test_nonprime_field_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            qspan_mc(1, 1, 2, 4, 10, SEED)

    def test_estimate_stderr(self):
        est = McEstimate(successes=25, samples=100)
        assert est.estimate == 0.25
        assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100))

    def test_estimate_is_an_immutable_value(self):
        est = McEstimate(successes=25, samples=100)
        assert est == McEstimate(25, 100)
        assert est != McEstimate(successes=26, samples=100)
        with pytest.raises(AttributeError):
            est.successes = 26
        with pytest.raises(AttributeError):
            est.extra = 1
        assert est.within(Fraction(1, 4))
        assert not est.within(Fraction(1, 2))


@st.composite
def matrices_mod_q(draw):
    q = draw(st.sampled_from((2, 3, 5)))
    r = draw(st.integers(0, 4))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=r, max_size=r)), q


class TestRankMod:
    @given(matrices_mod_q())
    @example(([], 2))
    @example(([[0, 0], [0, 0], [0, 0]], 3))
    @example(([[1, 2], [0, 0], [2, 4], [3, 1]], 5))
    def test_matches_span_size(self, case):
        rows, q = case
        before = copy.deepcopy(rows)
        assert rank_mod(rows, q) == rank_by_span(rows, q)
        assert rows == before


@st.composite
def stacks_mod_q(draw):
    q = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    k = draw(st.integers(1, 4))
    r = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    size = k * r * n
    entries = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    return np.array(entries, dtype=np.int64).reshape(k, r, n), q


def _rank_by_smaller_span(mat, q):
    """rank_by_span on the rows or the columns, whichever spans fewer vectors.

    None when both spans list more than 2000 combinations.
    """
    rows = mat.tolist()
    cols = mat.T.tolist()
    smaller = min(rows, cols, key=len)
    return rank_by_span(smaller, q) if q ** len(smaller) <= 2000 else None


class TestBatchRankMod:
    @given(stacks_mod_q())
    @example((np.zeros((2, 3, 0), dtype=np.int64), 2))
    @example((np.zeros((2, 0, 3), dtype=np.int64), 3))
    @example((np.array([[[0, 0], [0, 0], [0, 0]], [[0, 1], [0, 2], [0, 0]]]), 3))
    @example((np.array([[[1, 2], [0, 0], [2, 4], [3, 1]]]), 5))
    @example((np.array([[[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]]]), 11))
    @example((np.array([[[0, 1, 1, 0, 1], [0, 1, 0, 1, 1]]] * 3), 2))
    def test_matches_per_matrix_oracles(self, case):
        mats, q = case
        before = mats.copy()
        ranks = _batch_rank_mod(mats, q)
        assert ranks.shape == (len(mats),)
        for mat, rank in zip(mats, ranks):
            assert rank == rank_mod(mat.tolist(), q)
            assert _rank_by_smaller_span(mat, q) in (rank, None)
        assert np.array_equal(mats, before)

    @pytest.mark.parametrize(
        "q,r,n",
        [
            (2147483647, 5, 2),
            (2147483647, 6, 5),
            (4294967311, 5, 4),
            (4294967311, 3, 6),
            (31, 45, 40),
            (181, 7, 6),
        ],
        ids=[
            "2^31-1-narrow",
            "2^31-1-wide",
            "above-2^32-narrow",
            "above-2^32-wide",
            "31-budget-36-of-39",
            "181-budget-1",
        ],
    )
    def test_large_primes_are_exact(self, q, r, n):
        """Entries near q overflow their dtype unless the elimination reduces
        them in time or runs on Python ints. At q = 2^31 - 1 int64 has room
        for 2 pending updates, at q = 31 int16 for 36 of the 39 eliminations
        and at q = 181 for 1. The last row of each matrix is a combination of
        the first two."""
        rng = np.random.default_rng(SEED)
        mats = rng.integers(q - 4, q, size=(40, r, n))
        mats[::2] = rng.integers(0, q, size=mats[::2].shape)
        mats[:, -1] = (
            3 * mats[:, 0].astype(object) + (q - 1) * mats[:, 1].astype(object)
        ) % q
        before = mats.copy()
        ranks = _batch_rank_mod(mats, q)
        assert ranks.tolist() == [rank_mod(mat, q) for mat in mats.tolist()]
        assert max(ranks) == min(r - 1, n)
        assert np.array_equal(mats, before)


def drifting_stack(q: int, n: int):
    """Two n x n matrices whose elimination moves one entry by (q - 1)^2 at
    every column.

    Rows 0..n-2 are upper unitriangular with q - 1 above the diagonal, so
    row i is the pivot of column i and every later column sheds q - 1 times
    it. The last row holds (j - 1) mod q in column j < n - 1: each shedding
    lowers its residues by (q - 1)^2 = 1 mod q, so it reads q - 1 at every
    column, and its last column moves by (q - 1)^2 n - 1 times without a
    reduction. That entry's residue is then 0 in the first matrix (rank
    n - 1) and 1 in the second (rank n).
    """
    rows = [[0] * i + [1] + [q - 1] * (n - 1 - i) for i in range(n - 1)]
    last = [(j - 1) % q for j in range(n - 1)]
    return np.array(
        [rows + [last + [(n - 1) % q]], rows + [last + [n % q]]], dtype=np.int64
    )


class TestOverflowBudget:
    @pytest.mark.parametrize(
        "q,n,dtype",
        [(31, 40, np.int16), (2147483647, 6, np.int64)],
        ids=["31-int16-budget-36-of-39", "2^31-1-int64-budget-2-of-5"],
    )
    def test_every_update_at_its_largest(self, q, n, dtype):
        """Each of the n - 1 updates of the last column is (q - 1)^2, more
        than the dtype holds without reducing the stack in between."""
        assert _int_dtype((q - 1) ** 2) is dtype
        assert (np.iinfo(dtype).max - (q - 1)) // (q - 1) ** 2 < n - 1
        mats = drifting_stack(q, n)
        ranks = _batch_rank_mod(mats, q)
        assert ranks.tolist() == [rank_mod(mat, q) for mat in mats.tolist()] == [n - 1, n]


class TestIntDtype:
    @pytest.mark.parametrize(
        "largest,dtype",
        [
            (0, np.int16),
            (2**15 - 1, np.int16),
            (2**15, np.int32),
            (2**31 - 1, np.int32),
            (2**31, np.int64),
            (2**63 - 1, np.int64),
            (2**63, object),
            (180**2, np.int16),
            (190**2, np.int32),
            (46336**2, np.int32),
            (46348**2, np.int64),
        ],
    )
    def test_narrowest_signed_width_of_16_bits_or_more(self, largest, dtype):
        assert _int_dtype(largest) is dtype


class TestBatchRankWidths:
    @pytest.mark.parametrize(
        "q,r,n,dtype",
        [
            (31, 45, 40, np.int16),
            (181, 4, 5, np.int16),
            (191, 4, 5, np.int32),
            (46337, 4, 5, np.int32),
            (46349, 4, 5, np.int64),
        ],
        ids=["31-int16", "181-int16", "191-int32", "46337-int32", "46349-int64"],
    )
    def test_each_side_of_a_width_switch(self, q, r, n, dtype):
        """Entries near q drive every pending update toward (q - 1)^2. The
        elimination's dtype must hold one such update per elimination up to
        its budget, (max - (q - 1)) // (q - 1)^2, and the stack is reduced
        before one more: at q = 31 after 36 of its 39 eliminations, and at
        q = 181 and 46337 before every column after the first. The last row
        of each matrix is a combination of the first two."""
        assert _int_dtype((q - 1) ** 2) is dtype
        rng = np.random.default_rng(SEED)
        mats = rng.integers(q - 4, q, size=(40, r, n))
        mats[::2] = rng.integers(0, q, size=mats[::2].shape)
        mats[:, -1] = (2 * mats[:, 0] + (q - 1) * mats[:, 1]) % q
        ranks = _batch_rank_mod(mats, q)
        assert ranks.tolist() == [rank_mod(mat, q) for mat in mats.tolist()]
        assert max(ranks) == min(r - 1, n)


class TestInverseMod:
    @pytest.mark.parametrize("q", [2, 3, 181, 191, 46337, 2**31 - 1])
    def test_inverts_every_unit_and_keeps_zero(self, q):
        """On the elimination's dtype for q, each x in 1..q - 1 times its
        inverse is 1 mod q, and 0 maps to 0."""
        dtype = _int_dtype((q - 1) ** 2)
        x = np.unique(np.linspace(1, q - 1, 60).astype(np.int64)).astype(dtype)
        inverse = _inverse_mod(x, q)
        assert inverse.dtype == dtype
        assert all(a * b % q == 1 for a, b in zip(x.tolist(), inverse.tolist()))
        assert _inverse_mod(np.zeros(3, dtype=dtype), q).tolist() == [0, 0, 0]


class TestOccupancyCount:
    @pytest.mark.parametrize("r,n", [(6, 1), (6, 3), (6, 24), (6, 400), (1, 5)])
    def test_matches_set_sizes(self, r, n):
        """occupancy_mc counts exactly the rows of its draws with a distinct values."""
        rows = np.concatenate(list(_draws(SEED, 500, n, (r,)))).tolist()
        for a in range(min(r, n) + 1):
            expected = sum(len(set(row)) == a for row in rows)
            assert occupancy_mc(a, r, n, 500, SEED).successes == expected


    @pytest.mark.parametrize(
        "n,r,samples", [(32768, 400, 200), (32769, 400, 200), (2**31 + 1, 2000, 20)]
    )
    def test_width_boundaries(self, n, r, samples):
        """Box labels up to n - 1 sort in int16 at n = 32768, int32 just above
        and int64 past 2^31, and still count like the set of each row."""
        rows = np.concatenate(list(_draws(SEED, samples, n, (r,)))).tolist()
        sizes = Counter(len(set(row)) for row in rows)
        for a in {*sizes, r}:
            assert occupancy_mc(a, r, n, samples, SEED).successes == sizes[a]


def _one_draw(seed, samples, high, shape):
    """The draws of a run as one unchunked array."""
    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    return np.random.Generator(np.random.PCG64(seq)).integers(
        0, high, size=(samples, *shape)
    )


def _cpus(monkeypatch, count):
    """Make `os.sched_getaffinity` report `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _mod4_sums(rows):
    return (rows % 4).sum(axis=1)


def _position(state):
    """Where a PCG64 state is in its stream: a stale `uinteger` does not count."""
    return (
        state["state"]["state"], state["state"]["inc"], state["has_uint32"],
        state["uinteger"] if state["has_uint32"] else None,
    )


class TestDraws:
    @pytest.mark.parametrize(
        "shape,high",
        [
            ((267,), 64),
            ((1420,), 256),
            ((10, 8), 2),
            ((8, 6), 3),
            ((3, 0), 5),
            ((4,), 2**31 - 1),
            ((4,), 2**31),
            ((4,), 2**31 + 1),
        ],
    )
    def test_chunks_concatenate_to_one_draw(self, shape, high):
        """The draws, int32 up to high = 2^31 and int64 above, equal one int64
        draw of the same seed."""
        samples = 5 * _CHUNK_ELEMENTS // (2 * max(1, math.prod(shape))) + 1
        chunks = list(_draws(SEED, samples, high, shape))
        whole = _one_draw(SEED, samples, high, shape)
        assert len(chunks) == 3
        assert all(chunk.size <= _CHUNK_ELEMENTS for chunk in chunks)
        assert all(len(chunk) <= _CHUNK_ELEMENTS for chunk in chunks)
        assert np.array_equal(np.concatenate(chunks), whole)

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-half"])
    @pytest.mark.parametrize(
        "shape", [(5,), (3,), (3, 0)], ids=["even-chunks", "odd-chunks", "empty-rows"]
    )
    @pytest.mark.parametrize("high", [2, 4, 64, 256, 2**15, 2**31, 2**32, 2**40, 2**63])
    def test_powers_of_two_match_integers(self, monkeypatch, high, shape, buffered):
        """A power-of-two high, drawn from raw words, equals `Generator.integers`
        chunk by chunk and leaves the same state. Chunks hold 40 values and a
        last one of 15 at shape (5,), and 39 each at (3,), so they end and
        start on half words; a start may take a half buffered before it, and
        empty rows leave it buffered."""
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 40)
        raw, twin = (np.random.PCG64(np.random.SeedSequence(SEED, spawn_key=(0,))) for _ in "ab")
        rng = np.random.Generator(twin)
        if buffered:
            for bitgen in (raw, twin):
                np.random.Generator(bitgen).integers(1 << 32, dtype=np.uint32)
        chunks = list(_draws(raw, 19, high, shape))
        lengths = {(5,): [8, 8, 3], (3,): [13, 6], (3, 0): [19]}[shape]
        assert [len(chunk) for chunk in chunks] == lengths
        drawn = np.int32 if high <= 2**31 else np.int64
        for chunk in chunks:
            assert chunk.dtype == _int_dtype(high - 1)
            assert np.array_equal(chunk, rng.integers(0, high, size=chunk.shape, dtype=drawn))
        assert _position(raw.state) == _position(twin.state)

    def test_powers_of_two_never_call_integers(self, monkeypatch):
        """With `Generator.integers` raising, balls in boxes at n = 64 and the
        span law at q = 2 still run, split over two CPUs at an odd half."""
        class NoIntegers(np.random.Generator):
            def integers(self, *args, **kwargs):
                raise AssertionError("Generator.integers was called")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 40)
        runs = [(occupancy_mc, (4, 5, 64, 43, SEED)), (qspan_mc, (2, 3, 3, 2, 43, SEED))]
        expected = [run(*args) for run, args in runs]
        monkeypatch.setattr(np.random, "Generator", NoIntegers)
        assert [run(*args) for run, args in runs] == expected


class TestMod:
    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, object])
    def test_matches_percent_at_the_extremes(self, dtype):
        """`_mod` equals `%` at the dtype's minimum, maximum and negative values,
        for q = 2, 3, 181 and the largest q whose (q - 1)^2 each width up to
        this one holds (object: one past int64's)."""
        largest = [182, 46341, 3037000500, 3037000501]
        widths = [np.int16, np.int32, np.int64, object]
        assert [_int_dtype((q - 1) ** 2) for q in largest] == widths
        assert [_int_dtype(q**2) for q in largest[:3]] == widths[1:]
        if dtype is object:
            lo, hi = -(2**80), 2**80
        else:
            lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
        values = [lo, lo + 1, -(2**15), -182, -181, -3, -2, -1, 0, 1, 2, 181, 182, hi - 1, hi]
        x = np.array([v for v in values if lo <= v <= hi], dtype=dtype)
        for q in [2, 3, 181] + largest[: widths.index(dtype) + 1]:
            reduced = _mod(x, q)
            assert reduced.dtype == x.dtype
            assert reduced.tolist() == [v % q for v in x.tolist()]


class TestStreamSplit:
    """A run split into parts counts the rows of one sequential draw."""

    SAMPLES, SHAPE = 41, (5,)  # odd values per row, so parts start on half words
    # A 32-bit half is rejected with probability (2^24 + 2^18) / 2^32, 0.81 over
    # the run's 205 values: the run is still split, and with SEED a rejection
    # lands before a later part for 2, 3 and 4 CPUs.
    REJECTING = 2**31 - 2**23 - 2**17

    def _run(self, monkeypatch, high, parts, samples=SAMPLES, shape=SHAPE):
        """(start, end, chunks) of each `_draws` call of one run on `parts`
        CPUs, and the run's successes."""
        _cpus(monkeypatch, parts)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 40)
        calls, draws = [], _draws

        def recorded(source, *args):
            start, chunks = _position(source.state), list(draws(source, *args))
            calls.append((start, _position(source.state), chunks))
            yield from chunks

        monkeypatch.setattr(montecarlo, "_draws", recorded)
        estimate = _count_matches(SEED, samples, high, shape, _mod4_sums, 2)
        monkeypatch.setattr(montecarlo, "_draws", draws)
        return calls, estimate.successes

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "high",
        [2, 3, 64, 200, 256, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**29, 2**32 + 3, REJECTING],
    )
    def test_kept_parts_concatenate_to_one_draw(self, monkeypatch, high, parts):
        """Following each part's end to the part that starts there, from the
        seed's start, gives one draw, and the count is that draw's."""
        threads = threading.active_count()
        calls, successes = self._run(monkeypatch, high, parts)
        by_start = {start: (end, chunks) for start, end, chunks in calls}
        assert len(by_start) == len(calls)
        fresh = np.random.PCG64(np.random.SeedSequence(SEED, spawn_key=(0,)))
        position, kept = _position(fresh.state), []
        while sum(map(len, kept)) < self.SAMPLES:
            position, chunks = by_start[position]
            kept += chunks
        whole = _one_draw(SEED, self.SAMPLES, high, self.SHAPE)
        assert np.array_equal(np.concatenate(kept), whole)
        assert successes == np.count_nonzero(_mod4_sums(whole) == 2)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_rows_after_a_rejection_are_drawn_again(self, monkeypatch, parts):
        """A part after a rejection misses its assumed start, and the rest of
        the run is split again."""
        calls, successes = self._run(monkeypatch, self.REJECTING, parts)
        assert len(calls) > parts
        assert successes == self._run(monkeypatch, self.REJECTING, 1)[1]

    @pytest.mark.parametrize("parts", [2, 4])
    @pytest.mark.parametrize("high", [2**31 - 2**23, 2**63 - 2**55])
    def test_one_part_once_a_rejection_is_likely(self, monkeypatch, high, parts):
        """A value is rejected with probability p = 2^-8 at both highs (32-bit
        halves below, 64-bit words above): a run of 256 values, p times its
        values = 1, is drawn as one part, and one of 252 values is split. At
        3 * 2^29, which rejects a quarter of the halves, 205 values run as one."""
        assert len(self._run(monkeypatch, high, parts, 64, (4,))[0]) == 1
        assert len(self._run(monkeypatch, high, parts, 63, (4,))[0]) >= parts
        assert len(self._run(monkeypatch, 3 * 2**29, parts)[0]) == 1

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        two = [self._run(monkeypatch, high, 2)[1] for high in (200, self.REJECTING)]
        mc = occupancy_mc(3, 5, 4, self.SAMPLES, SEED), qspan_mc(3, 4, 3, 2, self.SAMPLES, SEED)

        def no_start(thread):
            raise AssertionError("a thread started")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        one = [self._run(monkeypatch, high, 1) for high in (200, self.REJECTING)]
        assert [len(calls) for calls, _ in one] == [1, 1]
        assert [successes for _, successes in one] == two
        assert mc == (
            occupancy_mc(3, 5, 4, self.SAMPLES, SEED), qspan_mc(3, 4, 3, 2, self.SAMPLES, SEED)
        )


class TestPipeline:
    """Each part of a run is drawn and counted, chunk by chunk, on its own thread."""

    SAMPLES = 50

    @pytest.mark.parametrize(
        "rows", [1, 7, SAMPLES], ids=["one-row-per-chunk", "ragged-last-chunk", "one-chunk"]
    )
    def test_chunked_counts_match_one_draw(self, monkeypatch, rows):
        threads = threading.active_count()
        r, n = 6, 4
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", rows * r)
        assert len(list(_draws(SEED, self.SAMPLES, n, (r,)))) == -(-self.SAMPLES // rows)
        sizes = Counter(len(set(row)) for row in _one_draw(SEED, self.SAMPLES, n, (r,)).tolist())
        for a in range(n + 1):
            assert occupancy_mc(a, r, n, self.SAMPLES, SEED).successes == sizes[a]

        q, r, n = 3, 5, 4
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", rows * r * n)
        mats = _one_draw(SEED, self.SAMPLES, q, (r, n)).tolist()
        ranks = Counter(rank_mod(mat, q) for mat in mats)
        for a in range(n + 1):
            assert qspan_mc(a, r, n, q, self.SAMPLES, SEED).successes == ranks[a]
        assert threading.active_count() == threads

    def test_each_part_thread_holds_one_chunk_at_a_time(self, monkeypatch):
        """With two CPUs, two threads other than the calling one each draw
        chunks of at most `_CHUNK_ELEMENTS // 2` values and count each chunk
        before they draw the next."""
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 12)
        events = {}
        draws = montecarlo._draws

        def watched_draws(*args):
            for chunk in draws(*args):
                events.setdefault(threading.current_thread(), []).append(chunk.size)
                yield chunk

        def statistic(chunk):
            events[threading.current_thread()].append("counted")
            return np.zeros(len(chunk))

        monkeypatch.setattr(montecarlo, "_draws", watched_draws)
        threads = threading.active_count()
        assert _count_matches(SEED, 30, 4, (6,), statistic, 0).successes == 30
        assert len(events) == 2 and threading.current_thread() not in events
        for sequence in events.values():
            assert sequence[1::2] == ["counted"] * (len(sequence) // 2)
            assert all(size <= 12 // 2 for size in sequence[::2])
        assert sum(len(sequence) // 2 for sequence in events.values()) == 30
        assert threading.active_count() == threads

    def test_statistic_error_propagates(self, monkeypatch):
        """An error of `statistic` on a chunk of either part is raised to the caller."""
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 6)
        whole = _one_draw(SEED, 10, 4, (6,))
        threads = threading.active_count()
        for bad_row in (1, 7):

            def statistic(chunk):
                if np.array_equal(chunk, whole[bad_row : bad_row + 1]):
                    raise RuntimeError(f"row {bad_row}")
                return np.zeros(len(chunk))

            with pytest.raises(RuntimeError, match=f"row {bad_row}"):
                _count_matches(SEED, 10, 4, (6,), statistic, 0)
            assert threading.active_count() == threads

    def test_counting_thread_loads_no_worker_pool(self):
        """After one draw of each kind and a run of more than 2^18 values split
        over two part threads, a fresh interpreter has loaded neither
        `concurrent.futures` nor `logging`, and only its main thread is left.
        It runs isolated and without `site` (`-I -S`), so no `.pth` file
        preloads them; `src/` and the test interpreter's path go on `sys.path`
        by hand, so numpy stays importable."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = [src] + [entry for entry in sys.path if entry]
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", DRAW_PROBE, json.dumps(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"loaded": ["numpy"], "started": 2, "threads": 1}


DRAW_PROBE = """
import json, os, sys, threading
sys.path[:0] = json.loads(sys.argv[1])
from tensorwalk.occupancy import occupancy_mc, qspan_mc
os.sched_getaffinity = lambda pid: {0, 1}
started, start = [], threading.Thread.start
threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]
occupancy_mc(2, 3, 4, 100, 1)
qspan_mc(2, 3, 3, 2, 100, 1)
occupancy_mc(60, 3, 64, 100_000, 1)
watched = ("concurrent.futures", "logging", "numpy")
print(json.dumps({
    "loaded": [name for name in watched if name in sys.modules],
    "started": len(started),
    "threads": threading.active_count(),
}))
"""
