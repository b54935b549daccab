"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here. Exact assertions compare reduced rationals;
the two float-level checks (limit profile, cutoff profile) carry explicit
numeric tolerances stated inline.
"""

import json
import math
import time
from fractions import Fraction
from math import factorial

import pytest

from tensorwalk.characters import (
    character_table,
    conjugacy_classes,
    fixed_point_character_sum,
    signed_fixed_point_sum,
)
from tensorwalk.cli import main as cli_main
from tensorwalk.combinat import (
    Partition,
    count_skew_syt_row,
    count_syt,
    enumerate_partitions,
)
from tensorwalk.glwalk import (
    gl_separation_bounds,
    gl_separation_closed_form,
    gl_separation_exact,
    gl_separation_limit,
)
from tensorwalk.interpolation import separation_from_spectrum, verify_distance
from tensorwalk.occupancy import (
    occupancy_exact,
    occupancy_mc,
    qspan_exact,
    qspan_mc,
)
from tensorwalk.snwalk import (
    build_kernel_boxes,
    build_kernel_characters,
    separation_closed_form,
    separation_profile,
    sign_shape,
    spectrum_sn,
    tensor_power_check,
    trivial_shape,
    tv_exact,
)

from oracles import span_dim_by_enumeration

SEED = 20260801


def _report(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")


@pytest.fixture(scope="module")
def sn_bundle():
    return {
        n: (build_kernel_characters(n), character_table(n)) for n in range(3, 9)
    }


def test_criterion_01_four_route_separation_equality(sn_bundle):
    label = "criterion 1: four-route separation equality, n=3..8, r<=4n, under 60 s"
    ok = False
    try:
        start = time.monotonic()
        for n in range(3, 9):
            kernel, table = sn_bundle[n]
            eigenvalues = spectrum_sn(n).eigenvalues
            sign = sign_shape(n)
            start_state = trivial_shape(n)
            si, ti = kernel.index(start_state), kernel.index(sign)
            d = count_syt(sign)
            for r in range(4 * n + 1):
                by_kernel = 1 - kernel.power(r)[si][ti] / kernel.stationary[ti]
                by_tableaux = 1 - sum(
                    occupancy_exact(a, r, n)
                    * Fraction(factorial(n - a) * count_skew_syt_row(sign, n - a), d)
                    for a in range(n + 1)
                )
                closed = separation_closed_form(n, r)
                by_spectrum = separation_from_spectrum(eigenvalues, r)
                assert by_kernel == by_tableaux == closed == by_spectrum, (n, r)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
        ok = True
    finally:
        _report(label, ok)


def test_criterion_02_single_column_extremality(sn_bundle):
    label = "criterion 2: ratio minimized at the single-column shape, n<=8, r<=4n"
    ok = False
    try:
        for n in range(3, 9):
            kernel, _ = sn_bundle[n]
            si = kernel.index(trivial_shape(n))
            ti = kernel.index(sign_shape(n))
            for r in range(4 * n + 1):
                row = kernel.power(r)[si]
                ratios = [p / pi for p, pi in zip(row, kernel.stationary)]
                sign_ratio = ratios[ti]
                assert all(value >= sign_ratio for value in ratios), (n, r)
        ok = True
    finally:
        _report(label, ok)


def test_criterion_03_gl_three_route_equality():
    label = "criterion 3: three-route GL separation equality, n<=6, q in {2,3,4,5,8,9}, r<=3n"
    ok = False
    try:
        for n in range(1, 7):
            for q in (2, 3, 4, 5, 8, 9):
                if (n, q) == (1, 2):
                    continue
                ladder = [Fraction(1, q**i) for i in range(n + 1)]
                for r in range(3 * n + 1):
                    value = gl_separation_closed_form(n, q, r)
                    assert value == 1 - qspan_exact(n, r, n, q), (n, q, r)
                    assert value == separation_from_spectrum(ladder, r), (n, q, r)
                    if r < n:
                        assert value == 1, (n, q, r)
        spot = gl_separation_exact(2, 2, 2)
        assert spot == Fraction(5, 8)
        assert spot == 1 - span_dim_by_enumeration(2, 2, 2, 2)
        ok = True
    finally:
        _report(label, ok)


def test_criterion_04_gl_bracketing_bounds():
    label = "criterion 4: GL bounds hold exactly, q in {2,3,4,5}, n in 4..12, c in 0..6"
    ok = False
    try:
        for q in (2, 3, 4, 5):
            for c in range(7):
                lower, upper = gl_separation_bounds(q, c)
                for n in range(4, 13):
                    value = gl_separation_closed_form(n, q, n + c)
                    assert lower <= value <= upper, (q, n, c)
        ok = True
    finally:
        _report(label, ok)


def test_criterion_05_gl_limit_convergence():
    label = "criterion 5: GL limit gap decreasing in n and < 1e-3 at n=30 (q=2, c=0)"
    ok = False
    try:
        # oracle: partial products to 60 factors
        oracle = 1.0
        for m in range(1, 61):
            oracle *= 1.0 - 2.0 ** -(0 + m)
        oracle = 1.0 - oracle
        limit = gl_separation_limit(2, 0).value
        assert abs(limit - oracle) < 1e-13
        gaps = [
            abs(float(gl_separation_closed_form(n, 2, n)) - limit)
            for n in range(4, 31)
        ]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
        ok = True
    finally:
        _report(label, ok)


def test_criterion_06_cutoff_profile_scaling():
    label = (
        "criterion 6: profile error scaled by n/log(n) stays <= 10 and the raw "
        "error shrinks with n, n in {128,256,512}, c in {-1,0,1,2}, under 5 min"
    )
    ok = False
    try:
        start = time.monotonic()
        for c in (-1, 0, 1, 2):
            profile = separation_profile(float(c))
            previous_gap = None
            for n in (128, 256, 512):
                r = math.ceil(n * math.log(n) + c * n)
                exact = separation_closed_form(n, r)
                gap = abs(float(exact) - profile)
                scaled = gap * n / math.log(n)
                assert scaled <= 10.0, (n, c, scaled)
                if previous_gap is not None:
                    assert gap <= previous_gap, (n, c)
                previous_gap = gap
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f} s"
        ok = True
    finally:
        _report(label, ok)


def test_criterion_07_identity_suites():
    label = (
        "criterion 7: fixed-point sums (n<=7), signed sums (n<=8), "
        "term nonnegativity (n<=7), tensor powers (n<=7, r<=12)"
    )
    ok = False
    try:
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                for i in range(n + 1):
                    fixed_point_character_sum(n, lam, i)
        for n in range(1, 9):
            classes = conjugacy_classes(n)
            for i in range(n):
                direct = sum(
                    c.class_size * c.sign for c in classes if c.fixed_points == i
                )
                assert direct == signed_fixed_point_sum(n, i), (n, i)
        for n in range(2, 8):
            for lam in enumerate_partitions(n):
                d = count_syt(lam)
                for r in (0, 1, n - 1, 2 * n):
                    for a in range(n + 1):
                        term = occupancy_exact(a, r, n) * Fraction(
                            factorial(n - a) * count_skew_syt_row(lam, n - a), d
                        )
                        assert term >= 0, (n, lam, r, a)
        for n in range(3, 8):
            for lam in enumerate_partitions(n):
                for r in range(13):
                    assert tensor_power_check(n, r, lam)
        ok = True
    finally:
        _report(label, ok)


def test_criterion_08_structural_chain_properties(sn_bundle):
    label = (
        "criterion 8: row sums, detailed balance, kernel route equality (n<=10), "
        "eigenfunction identity (n<=7), support distance n-1 (n<=8)"
    )
    ok = False
    try:
        # construction validates row sums, stationarity and detailed balance;
        # the box route is compared entry by entry with the character route
        for n in range(2, 11):
            if n in sn_bundle:
                kernel = sn_bundle[n][0]
                kernel.validate()
                boxes = build_kernel_boxes(n)
                assert boxes.power(1) == kernel.power(1), n
            else:
                assert build_kernel_boxes(n).power(1) == build_kernel_characters(n).power(1), n
        for n in range(3, 8):
            kernel, table = sn_bundle[n]
            for c in table.classes:
                vec = [
                    Fraction(table.value(rho, c.cycle_type), table.dimension(rho))
                    for rho in kernel.states
                ]
                eig = Fraction(c.fixed_points, n)
                for i in range(kernel.size):
                    image = sum(
                        kernel.power(1)[i][j] * vec[j] for j in range(kernel.size)
                    )
                    assert image == eig * vec[i], (n, c.cycle_type)
        for n in range(3, 9):
            kernel, _ = sn_bundle[n]
            d = verify_distance(
                kernel, trivial_shape(n), sign_shape(n), eigenvalue_count=n
            )
            assert d == n - 1, n
        ok = True
    finally:
        _report(label, ok)


def test_criterion_09_total_variation_relations():
    label = (
        "criterion 9: tv <= separation on the grid, and tv at the half-time "
        "plus one-unit mark at n=8 stays below exp(-2)/2"
    )
    ok = False
    try:
        for n in range(3, 9):
            for r in range(4 * n + 1):
                assert tv_exact(n, r) <= separation_closed_form(n, r), (n, r)
        r = math.ceil(0.5 * 8 * math.log(8) + 8)
        assert float(tv_exact(8, r)) <= math.exp(-2) / 2
        # contrast: at that time the separation distance is still far from 0
        assert separation_closed_form(8, r) > Fraction(1, 10)
        for n in (6, 7):
            r = math.ceil(0.5 * n * math.log(n) + n)
            assert tv_exact(n, r) < Fraction(1, 20), n
            assert separation_closed_form(n, r) > Fraction(1, 10), n
        ok = True
    finally:
        _report(label, ok)


def test_criterion_10_monte_carlo_agreement(capsys):
    label = (
        "criterion 10: Monte Carlo within 4 standard errors at 1e5 samples, "
        "pinned seeds, byte-identical reruns"
    )
    ok = False
    try:
        occ = occupancy_mc(2, 2, 2, 100_000, SEED)
        assert occ.within(occupancy_exact(2, 2, 2), sigmas=4)
        span = qspan_mc(2, 2, 2, 2, 100_000, SEED)
        assert span.within(qspan_exact(2, 2, 2, 2), sigmas=4)
        assert occupancy_mc(2, 2, 2, 100_000, SEED) == occ
        assert qspan_mc(2, 2, 2, 2, 100_000, SEED) == span

        argv = [
            "occupancy",
            "--a", "2", "--r", "2", "--n", "2",
            "--samples", "100000", "--seed", str(SEED),
        ]
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second
        record = json.loads(first)
        assert record["exact"] == "1/2"
        assert abs(record["estimate"] - 0.5) <= 4 * record["stderr"]
        ok = True
    finally:
        _report(label, ok)
