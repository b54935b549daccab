import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tensorwalk import glwalk, interpolation, occupancy, snwalk
from tensorwalk.chains import Spectrum, TransitionKernel, format_exact, format_float
from tensorwalk.characters import character_table
from tensorwalk.combinat import Partition
from tensorwalk.errors import ConsistencyError
from tensorwalk.cli import _gl_checks, main
from tensorwalk.occupancy import occupancy_exact

from oracles import euler_partition_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestSnSep:
    def test_small_curve_values(self, capsys):
        code, out, _ = run_cli(capsys, "sn-sep", "--n", "3", "--rmax", "3")
        assert code == 0
        rows = parse_csv(out)
        closed = {int(r["r"]): r["s_exact"] for r in rows if r["route"] == "closed_form"}
        assert closed == {0: "1/1", 1: "1/1", 2: "1/3", 3: "1/9"}
        routes = {r["route"] for r in rows}
        assert routes == {
            "kernel_power",
            "occupancy_tableaux",
            "closed_form",
            "spectral",
        }

    def test_single_record_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sn-sep", "--n", "5", "--rmax", "0")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["s_exact"] == "1/1" for r in rows)

    def test_closed_form_only_above_guard(self, capsys):
        code, out, _ = run_cli(capsys, "sn-sep", "--n", "40", "--rmax", "2")
        assert code == 0
        rows = parse_csv(out)
        assert {r["route"] for r in rows} == {"closed_form"}

    def test_rising_curve_warns_on_stderr(self, capsys, monkeypatch):
        # No computed grid rises, so a rising curve is put in its place. The
        # warning is one exact line; the curve is still written and exits 0.
        monkeypatch.setattr(
            snwalk, "separation_closed_forms", lambda n, rs: iter([Fraction(1, 2), Fraction(3, 4)])
        )
        code, out, err = run_cli(capsys, "sn-sep", "--n", "20", "--rmax", "1")
        assert code == 0
        assert out == "r,s_exact,s_float,route\n0,1/2,0.5,closed_form\n1,3/4,0.75,closed_form\n"
        assert err == "WARNING distance increased with step count: route=closed_form r=0->1\n"

    def test_closed_form_curve_in_one_pass(self, capsys, monkeypatch):
        passes = []
        singles = []
        stepped = snwalk.separation_closed_forms
        single = snwalk.separation_closed_form

        def counting_stepped(n, rs):
            passes.append(n)
            return stepped(n, rs)

        def counting_single(n, r):
            singles.append((n, r))
            return single(n, r)

        monkeypatch.setattr(snwalk, "separation_closed_forms", counting_stepped)
        monkeypatch.setattr(snwalk, "separation_closed_form", counting_single)
        code, out, _ = run_cli(capsys, "sn-sep", "--n", "40", "--rmax", "30")
        assert code == 0
        assert len(parse_csv(out)) == 31
        assert passes == [40]
        assert singles == []

    def test_closed_form_at_largest_n(self, capsys):
        n = 512
        code, out, _ = run_cli(capsys, "sn-sep", "--n", str(n), "--rmax", "300")
        assert code == 0
        rows = parse_csv(out)
        assert [int(row["r"]) for row in rows] == list(range(301))
        for r in (0, 300):
            top = 1 - occupancy_exact(n, r, n) - occupancy_exact(n - 1, r, n)
            assert rows[r]["s_exact"] == format_exact(top)

    def test_all_routes_at_size_guard(self, capsys):
        code, out, _ = run_cli(capsys, "sn-sep", "--n", "10", "--rmax", "1")
        assert code == 0
        assert {r["route"] for r in parse_csv(out)} == {
            "kernel_power",
            "occupancy_tableaux",
            "closed_form",
            "spectral",
        }

    def test_closed_form_only_just_above_size_guard(self, capsys):
        code, out, _ = run_cli(capsys, "sn-sep", "--n", "11", "--rmax", "1")
        assert code == 0
        assert {r["route"] for r in parse_csv(out)} == {"closed_form"}

    def test_only_the_latest_kernel_is_kept(self, capsys):
        snwalk.box_walk.cache_clear()
        for n in ("7", "8"):
            code, _, _ = run_cli(capsys, "sn-sep", "--n", n, "--rmax", "2", "--with-tv")
            assert code == 0
        info = snwalk.box_walk.cache_info()
        assert (info.misses, info.currsize) == (2, 1)

    def test_builds_no_character_table_or_kernel(self, capsys):
        character_table.cache_clear()
        snwalk.build_kernel_characters.cache_clear()
        code, _, _ = run_cli(capsys, "sn-sep", "--n", "8", "--rmax", "24", "--with-tv")
        assert code == 0
        assert character_table.cache_info().misses == 0
        assert snwalk.build_kernel_characters.cache_info().misses == 0

    def test_tv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sn-sep", "--n", "4", "--rmax", "2", "--with-tv")
        assert code == 0
        rows = parse_csv(out)
        tv = {int(r["r"]): r["s_exact"] for r in rows if r["route"] == "total_variation"}
        assert tv[0] == "23/24"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sn-sep", "--n", "3", "--rmax", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert all("s_exact" in rec for rec in payload["records"])

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "sn-sep", "--n", "1000", "--rmax", "2")
        assert code == 2
        assert "error" in err

    def test_negative_rmax(self, capsys):
        code, out, err = run_cli(capsys, "sn-sep", "--n", "5", "--rmax", "-1")
        assert code == 2
        assert out == ""
        assert "--rmax" in err


class TestGlSep:
    def test_curve_values(self, capsys):
        code, out, _ = run_cli(capsys, "gl-sep", "--n", "2", "--q", "2", "--rmax", "3")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["q"] == "2" for r in rows)
        closed = {int(r["r"]): r["s_exact"] for r in rows if r["route"] == "closed_form"}
        assert closed == {0: "1/1", 1: "1/1", 2: "5/8", 3: "11/32"}

    def test_excluded_case_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gl-sep", "--n", "1", "--q", "2", "--rmax", "2")
        assert code == 2
        assert "excluded" in err

    def test_negative_rmax(self, capsys):
        code, out, err = run_cli(capsys, "gl-sep", "--n", "2", "--q", "2", "--rmax", "-1")
        assert code == 2
        assert out == ""
        assert "--rmax" in err

    def test_q_not_prime_power(self, capsys):
        code, out, err = run_cli(capsys, "gl-sep", "--n", "3", "--q", "6", "--rmax", "4")
        assert code == 2
        assert out == ""
        assert "prime power" in err

    def test_spectral_route_once_per_step(self, capsys, monkeypatch):
        calls = []
        original = interpolation.separation_from_spectrum

        def counting(eigenvalues, r):
            calls.append(r)
            return original(eigenvalues, r)

        for module in (interpolation, glwalk, snwalk):
            monkeypatch.setattr(module, "separation_from_spectrum", counting)
        code, _, _ = run_cli(capsys, "gl-sep", "--n", "3", "--q", "2", "--rmax", "4")
        assert code == 0
        assert calls == [0, 1, 2, 3, 4]


class TestProfile:
    def test_scaled_difference_small(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--n", "128", "--c", "0,1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row["scaled_diff"]) < 10.0

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--n", "64,128", "--c", "0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [rec["n"] for rec in payload] == [64, 128]

    def test_negative_offsets_use_equals_form(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--n", "64", "--c=-1,0")
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["c"]) for r in rows] == [-1.0, 0.0]

    def test_one_stepped_pass_per_n(self, capsys, monkeypatch):
        passes = []
        stepped = snwalk.separation_closed_forms

        def counting_stepped(n, rs):
            passes.append(n)
            return stepped(n, rs)

        monkeypatch.setattr(snwalk, "separation_closed_forms", counting_stepped)
        code, out, _ = run_cli(capsys, "profile", "--n", "64,128", "--c=2,-1,0,2")
        assert code == 0
        assert passes == [64, 128]
        rows = parse_csv(out)
        expected = [(n, c) for n in (64, 128) for c in (2.0, -1.0, 0.0, 2.0)]
        assert [(int(row["n"]), float(row["c"])) for row in rows] == expected
        for row, (n, c) in zip(rows, expected):
            r = math.ceil(n * math.log(n) + c * n)
            assert int(row["r"]) == r
            assert row["s_float"] == format_float(float(snwalk.separation_closed_form(n, r)))

    @pytest.mark.parametrize("offsets", ["--c=inf", "--c=nan"], ids=["inf", "nan"])
    def test_non_finite_offset_rejected(self, capsys, offsets):
        code, out, err = run_cli(capsys, "profile", "--n", "64", offsets)
        assert code == 2
        assert out == ""
        assert "--c" in err and "finite" in err

    @pytest.mark.parametrize(
        "grid, flag",
        [(["--n", ",", "--c", "0"], "--n"), (["--n", "64", "--c", ","], "--c")],
        ids=["no-sizes", "no-offsets"],
    )
    def test_empty_grid_rejected(self, capsys, grid, flag):
        code, out, err = run_cli(capsys, "profile", *grid, "--format", "json")
        assert code == 2
        assert out == ""
        assert f"argument {flag}: need at least one value" in err

    @pytest.mark.parametrize("offset", ["1e308", "-1e308"])
    def test_non_finite_step_rejected(self, capsys, offset):
        code, out, err = run_cli(capsys, "profile", "--n", "64", f"--c={offset}")
        assert code == 2
        assert out == ""
        assert f"n ln n + c n finite, got n = 64, c = {float(offset)}" in err

    def test_step_cap_is_twice_the_cutoff_step(self, capsys):
        """At n = 2, 2 ceil(n ln n) = 4: c = 1.3 gives r = 4 and c = 1.4 gives r = 5."""
        code, out, _ = run_cli(capsys, "profile", "--n", "2", "--c=1.3")
        assert code == 0
        assert [int(row["r"]) for row in parse_csv(out)] == [4]
        code, out, err = run_cli(capsys, "profile", "--n", "2", "--c=1.3,1.4")
        assert code == 2
        assert out == ""
        assert "need r <= 2 ceil(n ln n) = 4, got r = ceil(n ln n + c n) = 5" in err


class TestOccupancyCommand:
    ARGS = (
        "occupancy",
        "--a", "2", "--r", "2", "--n", "2",
        "--samples", "20000", "--seed", "7",
    )

    def test_record_fields_and_accuracy(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        record = json.loads(out)
        assert record["exact"] == "1/2"
        assert record["samples"] == 20000
        assert record["seed"] == 7
        assert abs(record["estimate"] - 0.5) <= 4 * record["stderr"]

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_field_variant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "occupancy",
            "--a", "2", "--r", "2", "--n", "2", "--q", "2",
            "--samples", "20000", "--seed", "7",
        )
        assert code == 0
        record = json.loads(out)
        assert record["q"] == 2
        assert record["exact"] == "3/8"
        assert abs(record["estimate"] - 0.375) <= 4 * record["stderr"]

    def test_format_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert code == 2
        assert out == ""
        assert "--format" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--a", "0", "--r", "0", "--n", "0"), "need n >= 1"),
            (("--a", "0", "--r", "3", "--n", "0"), "need n >= 1"),
            (("--a", "1", "--r", "-1", "--n", "3"), "--r"),
            (("--a", "1", "--r", "1", "--n", "3", "--seed", "-1"), "--seed"),
            (("--a", "-1", "--r", "1", "--n", "3"), "--a"),
            (("--a", "1", "--r", "1", "--n", "3", "--samples", "0"), "--samples"),
            (("--a", "1", "--r", "1", "--n", "3", "--samples", "-5"), "--samples"),
            (("--a", "1", "--r", "1", "--n", "3", "--streams", "2"), "--streams"),
        ],
        ids=[
            "n0-r0", "n0-r3", "negative-r", "negative-seed", "negative-a",
            "zero-samples", "negative-samples", "streams-removed",
        ],
    )
    def test_bad_input_is_usage_error(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "occupancy", "--samples", "100", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--a", "5", "--r", "3", "--n", "3"), "need a <= n"),
            (("--a", "5", "--r", "3", "--n", "3", "--q", "2"), "need a <= n"),
            (("--a", "1", "--r", "1", "--n", "2", "--q", "4"), "need q to be prime"),
            (("--a", "1", "--r", "1", "--n", "2", "--q", "1"), "need q to be prime"),
        ],
        ids=["a-above-n", "a-above-n-field", "q4", "q1"],
    )
    def test_rejected_before_any_draw(self, capsys, monkeypatch, flags, message):
        def no_draws(*args):
            raise AssertionError("the Monte Carlo run started")

        monkeypatch.setattr(occupancy, "occupancy_mc", no_draws)
        monkeypatch.setattr(occupancy, "qspan_mc", no_draws)
        code, out, err = run_cli(capsys, "occupancy", "--samples", "100", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_nonprime_q_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "occupancy",
            "--a", "1", "--r", "1", "--n", "2", "--q", "4",
            "--samples", "100",
        )
        assert code == 2
        assert "prime" in err


class TestSpectrumCommand:
    def test_symmetric_group(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eigenvalue_exact,eigenvalue_float,multiplicity"
        assert lines[1].startswith("1/1,1,")
        assert lines[-1].startswith("0/1,0,2")

    def test_gl_multiplicities_blank(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--q", "3")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert line.endswith(",")

    def test_multiplicities_sum_to_partition_count(self, capsys):
        # warm the recursive oracle upwards so its recursion stays shallow
        for m in range(513):
            euler_partition_count(m)
        for n in (100, 512):
            code, out, _ = run_cli(capsys, "spectrum", "--n", str(n))
            assert code == 0
            rows = parse_csv(out)
            assert len(rows) == n
            total = sum(int(row["multiplicity"]) for row in rows)
            assert total == euler_partition_count(n)

    def test_rejects_n_above_closed_form_range(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n", "513")
        assert code == 2
        assert out == ""
        assert "2 <= n <= 512" in err

    def test_format_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n", "4", "--format", "json")
        assert code == 2
        assert out == ""
        assert "--format" in err

    @pytest.mark.parametrize(
        "n,q,message",
        [("3", "6", "prime power"), ("1", "2", "GL(1, 2)"), ("0", "3", "need n >= 1")],
        ids=["q6", "gl12", "n0"],
    )
    def test_bad_gl_parameters(self, capsys, n, q, message):
        code, out, err = run_cli(capsys, "spectrum", "--n", n, "--q", q)
        assert code == 2
        assert out == ""
        assert message in err


class TestCrosscheck:
    def test_symmetric_group_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "5")
        assert code == 0
        assert "ALL PASS" in out
        assert "FAIL" not in out.replace("FAILURES PRESENT", "")

    def test_gl_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "3", "--q", "3")
        assert code == 0
        assert "ALL PASS" in out

    def test_negative_rmax(self, capsys):
        code, out, err = run_cli(capsys, "crosscheck", "--n", "4", "--rmax", "-1")
        assert code == 2
        assert "ALL PASS" not in out
        assert "--rmax" in err

    @pytest.mark.parametrize(
        "n,q,message",
        [
            ("4", "1", "need q >= 2"),
            ("0", "3", "need n >= 1"),
            ("1", "2", "GL(1, 2)"),
            ("3", "6", "prime power"),
        ],
        ids=["q1", "n0", "gl12", "q6"],
    )
    def test_bad_gl_parameters(self, capsys, n, q, message):
        code, out, err = run_cli(capsys, "crosscheck", "--n", n, "--q", q)
        assert code == 2
        assert out == ""
        assert message in err

    def test_character_kernel_built_once(self, capsys):
        snwalk.build_kernel_characters.cache_clear()
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "6")
        assert code == 0
        assert "ALL PASS" in out
        assert snwalk.build_kernel_characters.cache_info().misses == 1

    def test_character_table_built_once(self, capsys):
        character_table.cache_clear()
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "8")
        assert code == 0
        assert "ALL PASS" in out
        info = character_table.cache_info()
        assert info.misses == 1
        assert info.hits >= 1

    def test_tensor_power_label_names_the_checked_bound(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "3", "--rmax", "5")
        assert code == 0
        assert "PASS  tensor power multiplicities (n=3, r<=5)" in out.splitlines()

    def test_spectrum_multiplicities_checked_against_the_classes(self, capsys, monkeypatch):
        # swapping two multiplicities keeps their total but not the class census
        true_spectrum = snwalk.spectrum_sn

        def swapped(n):
            (top, a), *middle, (bottom, b) = true_spectrum(n).entries
            return Spectrum(((top, b), *middle, (bottom, a)))

        monkeypatch.setattr(snwalk, "spectrum_sn", swapped)
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "5")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert len(failed) == 1
        assert "spectrum multiplicity total (n=5)" in failed[0]

    def test_rejects_n_above_size_guard(self, capsys):
        code, out, err = run_cli(capsys, "crosscheck", "--n", "11")
        assert code == 2
        assert out == ""
        assert "2 <= n <= 10" in err

    def test_internal_error_propagates(self, monkeypatch):
        def broken(n):
            raise TypeError("boom")

        monkeypatch.setattr(snwalk, "spectrum_sn", broken)
        with pytest.raises(TypeError, match="boom"):
            main(["crosscheck", "--n", "4"])

    def test_invalid_character_kernel_reported_once(self, capsys, monkeypatch):
        """An extra [3,1] in [4] tensored with the permutation representation
        breaks the kernel's row sum: `kernel validation` says so, and every
        other check that reads the kernel fails with one fixed message."""
        original = snwalk.tensor_multiplicity

        def one_too_many(n, lam, eta, rho):
            extra = (lam, rho) == (Partition([4]), Partition([3, 1]))
            return original(n, lam, eta, rho) + extra

        snwalk.build_kernel_characters.cache_clear()
        monkeypatch.setattr(snwalk, "tensor_multiplicity", one_too_many)
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "4")
        assert code == 1
        # A report line is "FAIL  <name padded to the widest>  <message>".
        failed = dict(
            re.split(r"\s{2,}", line.removeprefix("FAIL  "), maxsplit=1)
            for line in out.splitlines()
            if line.startswith("FAIL ")
        )
        assert failed.pop("kernel validation: rows, stationarity, reversibility (n=4)") == (
            "row [4] does not sum to 1"
        )
        assert sorted(failed) == [
            "kernel route equality (n=4)",
            "rational eigenfunction identity (n=4)",
            "single-column extremality (n=4, r<=16)",
            "support distance between extremes (n=4)",
        ]
        assert set(failed.values()) == {"character kernel invalid; see kernel validation"}

    def test_dropped_corner_in_the_walk_fails_its_checks(self, capsys, monkeypatch):
        walk = snwalk.BoxWalk(5)
        walk.removals = (walk.removals[0], walk.removals[1][:1], *walk.removals[2:])
        monkeypatch.setattr(snwalk, "box_walk", lambda n: walk)
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "5")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert any(line.startswith("FAIL  tensor power multiplicities") for line in failed)
        assert any("box-move kernel invalid at n=5" in line for line in failed)
        assert not any("kernel validation" in line for line in failed)

    def test_non_ergodic_kernel_is_a_failed_check(self, capsys, monkeypatch):
        def non_ergodic(*args, **kwargs):
            raise ValueError("kernel is not ergodic: some state never reaches the target")

        monkeypatch.setattr(interpolation, "verify_distance", non_ergodic)
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "4")
        assert code == 1
        assert "FAIL  support distance between extremes (n=4)" in out
        assert "kernel is not ergodic" in out


    def test_lazy_kernel_fails_only_the_eigenfunction_identity(self, capsys, monkeypatch):
        """The lazy walk (I + K)/2 is a valid reversible kernel with other eigenvalues.

        Both kernel builders return it, so the comparison of the two builds
        passes, and --rmax 0 keeps the step-count checks at the point mass.
        """

        def lazy(build):
            @functools.cache
            def wrapped(n):
                k = build(n)
                rows = [
                    {j: (int(i == j) + x) / 2 for j, x in enumerate(row)}
                    for i, row in enumerate(k.power(1))
                ]
                return TransitionKernel(k.states, rows, k.stationary)

            return wrapped

        monkeypatch.setattr(snwalk, "build_kernel_characters",
                            lazy(snwalk.build_kernel_characters))
        monkeypatch.setattr(snwalk, "build_kernel_boxes", lazy(snwalk.build_kernel_boxes))
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "5", "--rmax", "0")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL  rational eigenfunction identity (n=5)")


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["sn-sep", "--n", "3", "--rmax", "1", "--bogus"]) == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "sn-sep", "--n", "3", "--rmax", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("r,s_exact")


class TestRouteDisagreement:
    """A broken route must fail every command that checks it, naming the route."""

    @pytest.fixture
    def broken_sn_route(self, monkeypatch):
        monkeypatch.setattr(snwalk, "ratio_via_occupancy", lambda n, r, lam: Fraction(7, 3))

    @pytest.fixture
    def broken_gl_route(self, monkeypatch):
        monkeypatch.setattr(glwalk, "span_probability", lambda n, q, r: Fraction(1, 7))

    def test_sn_sep(self, capsys, broken_sn_route):
        code, out, err = run_cli(capsys, "sn-sep", "--n", "4", "--rmax", "3")
        assert code == 1
        assert out == ""
        assert "route occupancy_tableaux" in err
        assert "n=4 r=0: -4/3 vs 1" in err

    def test_gl_sep(self, capsys, broken_gl_route):
        code, out, err = run_cli(capsys, "gl-sep", "--n", "3", "--q", "2", "--rmax", "3")
        assert code == 1
        assert out == ""
        assert "route span_probability" in err
        assert "n=3 q=2 r=0: 6/7 vs 1" in err

    def test_sn_crosscheck(self, capsys, broken_sn_route):
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "4")
        assert code == 1
        assert "FAIL  four-route separation equality" in out
        assert "occupancy_tableaux" in out

    def test_box_kernel_crosscheck(self, capsys, monkeypatch):
        build = snwalk.build_kernel_boxes

        def lazy_boxes(n):
            kernel = build(n)
            identity = [{i: 1} for i in range(kernel.size)]
            return TransitionKernel(kernel.states, identity, kernel.stationary)

        monkeypatch.setattr(snwalk, "build_kernel_boxes", lazy_boxes)
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "4")
        assert code == 1
        assert "FAIL  kernel route equality" in out
        assert "box-move kernel disagrees with character kernel at n=4" in out

    def test_gl_crosscheck(self, capsys, broken_gl_route):
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "3", "--q", "2")
        assert code == 1
        assert "FAIL  three-route separation equality" in out
        assert "span_probability" in out

    def test_crosscheck_pads_names_only_before_messages(self, capsys, broken_gl_route):
        names = [name for name, _ in _gl_checks(3, 2, 9)]
        width = max(map(len, names))
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "3", "--q", "2")
        lines = out.splitlines()
        assert code == 1
        assert lines[-1] == f"FAILURES PRESENT ({len(names)} checks)"
        assert {line[:4] for line in lines[:-1]} == {"PASS", "FAIL"}
        for name, line in zip(names, lines):
            if line.startswith("PASS"):
                assert line == f"PASS  {name}"
            else:
                prefix = f"FAIL  {name.ljust(width)}  "
                assert line.startswith(prefix) and line[len(prefix)] != " "


class TestArgumentsCheckedBeforeWork:
    """Inputs the library would reject are usage errors found by the parser."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("occupancy", "--a", "0", "--r", "2", "--n", "0"), "need n >= 1"),
            (("occupancy", "--a", "1", "--r", "2", "--n", str(10**20)), "need n <= 2^63"),
            (("profile", "--n", "2", "--c=-5"), "need r >= 0"),
            (("profile", "--n", "128", "--c=-100"), "need r >= 0"),
            (("profile", "--n", "512", "--c=1e6"), "need r <= 2 ceil(n ln n) = 6390"),
            (("sn-sep", "--n", "11", "--rmax", "2", "--with-tv"), "--with-tv needs n <= 10"),
            (("sn-sep", "--n", "11", "--rmax", "2", "--out", "missing/curve.csv"),
             "need a file path in an existing directory, got missing/curve.csv"),
            (("sn-sep", "--n", "3", "--rmax", "1", "--out", ""),
             "need a file path in an existing directory, got \n"),
            (("occupancy", "--a", "1", "--r", "2", "--n", "3", "--out", "missing/x.json"),
             "need a file path in an existing directory, got missing/x.json"),
            (("spectrum", "--n", "4", "--out", "."),
             "need a file path in an existing directory, got ."),
        ],
        ids=["occupancy-n0", "occupancy-n1e20", "profile-n2", "profile-n128", "profile-c1e6", "sn-sep-with-tv",
             "sn-sep-out-missing-directory", "sn-sep-out-empty",
             "occupancy-out-missing-directory",
             "spectrum-out-directory"],
    )
    def test_rejected_before_any_computation(
        self, capsys, monkeypatch, tmp_path, argv, message
    ):
        def no_work(*args):
            raise AssertionError("the computation started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(occupancy, "occupancy_mc", no_work)
        monkeypatch.setattr(snwalk, "separation_closed_forms", no_work)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert err.startswith("usage: tensorwalk " + argv[0])

    def test_internal_error_is_not_a_usage_error(self, monkeypatch):
        def broken(n, r):
            raise ValueError("boom")

        monkeypatch.setattr(snwalk, "separation_routes", broken)
        with pytest.raises(ValueError, match="boom"):
            main(["sn-sep", "--n", "4", "--rmax", "2"])


def _command(name, **flags):
    """Strategy for the argv of command `name`, one `--flag=value` per drawn value."""

    def argv(values):
        return [name] + [f"--{flag}={value}" for flag, value in values.items()
                         if value is not None]

    return st.fixed_dictionaries(flags).map(argv)


def _joined(values):
    return st.lists(values, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))


SMALL = st.integers(-2, 6)
GL_N = st.integers(-1, 5)
FIELD = st.integers(-1, 9)
ARGUMENTS = {
    "sn-sep": _command(
        "sn-sep", n=st.integers(-1, 12) | st.sampled_from([511, 512, 513]),
        rmax=st.integers(-1, 6),
    ),
    "gl-sep": _command("gl-sep", n=GL_N, q=FIELD, rmax=SMALL),
    "profile": _command(
        "profile", n=_joined(st.integers(-1, 12) | st.just(513)),
        c=_joined(st.floats(-6, 3) | st.sampled_from([math.inf, math.nan])),
    ),
    "occupancy": _command(
        "occupancy", a=SMALL, r=SMALL, n=SMALL, q=st.none() | FIELD,
        samples=st.integers(-1, 20), seed=SMALL,
    ),
    "crosscheck": _command("crosscheck", n=st.integers(-1, 6) | st.just(11),
                           rmax=st.integers(-1, 3))
    | _command("crosscheck", n=GL_N, q=FIELD, rmax=st.integers(-1, 3)),
    "spectrum": _command("spectrum", n=st.integers(-1, 12) | st.just(513))
    | _command("spectrum", n=GL_N, q=FIELD),
}


@pytest.mark.parametrize("command", sorted(ARGUMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_argument_gets_an_exit_code(command, data):
    """Any small argument set gives exit 0, 1 or 2, and exit 2 prints nothing."""
    argv = data.draw(ARGUMENTS[command])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert "usage: tensorwalk" in err.getvalue()


def test_route_disagreement_carries_its_fields(capsys, monkeypatch):
    # A closed form of 0 at r = 0, where every route gives 1.
    monkeypatch.setattr(glwalk, "gl_separation_closed_form", lambda n, q, r: Fraction(0))
    with pytest.raises(ConsistencyError) as caught:
        glwalk.gl_separation_routes(3, 2, 0)
    exc = caught.value
    assert (exc.where, exc.route, exc.value, exc.first_route, exc.first) == (
        "the GL separation, n=3 q=2 r=0", "span_probability", 1, "closed_form", 0
    )
    message = (
        "route span_probability disagrees with closed_form on the GL separation, "
        "n=3 q=2 r=0: 1 vs 0"
    )
    assert str(exc) == message
    code, out, err = run_cli(capsys, "gl-sep", "--n", "3", "--q", "2", "--rmax", "0")
    assert (code, out, err) == (1, "", f"consistency failure: {message}\n")


def run_python(*args):
    """A fresh interpreter with `src/` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestProcessExitStatus:
    """The status the operating system sees from `python -m tensorwalk.cli`."""

    @staticmethod
    def run(*argv):
        return run_python("-m", "tensorwalk.cli", *argv)

    def test_success(self):
        proc = self.run("sn-sep", "--n", "3", "--rmax", "2")
        assert proc.returncode == 0
        assert proc.stdout.startswith("r,s_exact")

    @pytest.mark.parametrize(
        "argv",
        [
            ("sn-sep", "--n", "1000", "--rmax", "2"),
            ("occupancy", "--a", "0", "--r", "2", "--n", "0"),
        ],
        ids=["sn-sep-n1000", "occupancy-n0"],
    )
    def test_usage_error(self, argv):
        proc = self.run(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage: tensorwalk" in proc.stderr


IMPORT_PROBE = """
import json, os, sys
path, commands, watched = json.loads(sys.argv[1])
sys.path[:0] = path
import tensorwalk.cli as cli

def loaded():
    return [name for name in watched if name in sys.modules]

report = {"import": loaded()}
for argv in commands:
    assert cli.main(argv + ["--out", os.devnull]) == 0, argv
    report[" ".join(argv)] = loaded()
print(json.dumps(report))
"""

# Modules no command needs: the import and every exact command go without
# them. A Monte Carlo draw loads numpy, and numpy may load some of the rest;
# the draw's counting thread loads neither `concurrent.futures` nor `logging`.
UNNEEDED = (
    "__future__", "concurrent.futures", "dataclasses", "inspect", "logging", "numpy", "typing"
)
EXACT_COMMANDS = (
    "sn-sep --n 8 --rmax 5", "gl-sep --n 4 --q 2 --rmax 4", "profile --n 64 --c=0",
    "crosscheck --n 5", "spectrum --n 6",
)
DRAW_COMMAND = "occupancy --a 2 --r 3 --n 4 --samples 100"


@functools.cache
def import_probe_report():
    """What the probe saw loaded after the import and after each command.

    The interpreter runs isolated and without `site` (`-I -S`), so no `.pth`
    file preloads a module the import would otherwise load. `src/` and the
    test interpreter's path go on `sys.path` by hand, so numpy stays
    importable.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [entry for entry in sys.path if entry]
    commands = [c.split() for c in EXACT_COMMANDS + (DRAW_COMMAND,)]
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_PROBE,
         json.dumps([path, commands, UNNEEDED])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_monte_carlo_loads_numpy():
    """numpy loads on the first Monte Carlo draw, so every other command, and
    the import itself, go without it. The draw's counting thread needs no
    worker pool."""
    report = import_probe_report()
    assert {c: report[c] for c in ("import",) + EXACT_COMMANDS} == {
        "import": [], **{c: [] for c in EXACT_COMMANDS}
    }
    assert "numpy" in report[DRAW_COMMAND]
    assert not {"concurrent.futures", "logging"} & set(report[DRAW_COMMAND])


def test_import_loads_no_unneeded_stdlib():
    """`import tensorwalk.cli` loads argparse, json, fractions and the package,
    and none of dataclasses, logging, inspect, typing or __future__."""
    assert import_probe_report()["import"] == []


SECOND_PROCESS_PROBE = """
import json, os, sys, time
src, cpus, setup, argv = json.loads(sys.argv[1])
sys.path.insert(0, src)
from tensorwalk import cli, snwalk
from tensorwalk.errors import ConsistencyError

os.sched_getaffinity = lambda pid: set(range(cpus))
forks = []
fork = os.fork


def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counted_fork
report = {}
start = time.monotonic()
try:
    exec(setup)
    report["result"] = cli.main(argv) if argv is not None else run()
except Exception as exc:
    report["error"] = [type(exc).__name__, str(exc)]
report["seconds"] = time.monotonic() - start
report["forks"] = len(forks)
try:
    os.waitpid(-1, os.WNOHANG)
    report["child_left"] = True
except ChildProcessError:
    report["child_left"] = False
print(json.dumps(report))
"""

# Makes every closed-form pass that starts above r = 0, the upper half of a
# split `sn-sep` curve, raise `kind`.
FAULT = """
def faulty(n, rs, real=snwalk.separation_closed_forms):
    rs = list(rs)
    if rs and rs[0] > 0:
        raise {kind}(f"injected at n={{n}} r={{rs[0]}}")
    return real(n, rs)

snwalk.separation_closed_forms = faulty
"""


def second_process_probe(*, cpus=2, setup="", argv=None):
    """Runs `cli.main(argv)`, or `run()` from `setup`, in a fresh isolated
    interpreter that has one OS thread and sees `cpus` CPUs. Returns the
    finished process and its report: the result or the error, the seconds,
    the forks made and whether a child was left unreaped."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SECOND_PROCESS_PROBE,
         json.dumps([src, cpus, setup, argv])],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


class TestSecondProcess:
    @pytest.mark.parametrize(
        "command",
        [
            "sn-sep --n 128 --rmax 622",
            "sn-sep --n 200 --rmax 700 --format json",
            "profile --n 128,256,512 --c=-1,0,1,2",
            "profile --n 256 --c=0,0.004,1 --format json",
        ],
    )
    def test_same_bytes_as_one_process(self, monkeypatch, capsys, tmp_path, command):
        out = tmp_path / "two.out"
        _, report = second_process_probe(argv=command.split() + ["--out", str(out)])
        assert report["result"] == 0
        assert (report["forks"], report["child_left"]) == (1, False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, one, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, "")
        assert out.read_text() == one

    @pytest.mark.parametrize(
        "command",
        ["sn-sep --n 11 --rmax 12", "sn-sep --n 60 --rmax 300", "profile --n 128 --c=0"],
    )
    def test_small_commands_stay_in_one_process(self, command):
        _, report = second_process_probe(argv=command.split() + ["--out", os.devnull])
        assert (report["result"], report["forks"]) == (0, 0)

    def test_one_cpu_or_a_second_thread_keeps_one_process(self):
        argv = ["sn-sep", "--n", "128", "--rmax", "622", "--out", os.devnull]
        _, report = second_process_probe(cpus=1, argv=argv)
        assert (report["result"], report["forks"]) == (0, 0)
        thread = (
            "import threading\n"
            "done = threading.Event()\n"
            "threading.Thread(target=done.wait, daemon=True).start()\n"
        )
        _, report = second_process_probe(setup=thread, argv=argv)
        assert (report["result"], report["forks"]) == (0, 0)

    def test_consistency_error_in_the_child_exits_1_with_its_message(self):
        argv = ["sn-sep", "--n", "128", "--rmax", "622", "--out", os.devnull]
        proc, report = second_process_probe(
            setup=FAULT.format(kind="ConsistencyError"), argv=argv
        )
        assert (report["result"], report["forks"], report["child_left"]) == (1, 1, False)
        assert proc.stderr == "consistency failure: injected at n=128 r=441\n"

    def test_other_error_in_the_child_propagates(self):
        argv = ["sn-sep", "--n", "128", "--rmax", "622", "--out", os.devnull]
        _, report = second_process_probe(setup=FAULT.format(kind="RuntimeError"), argv=argv)
        assert (report["forks"], report["child_left"]) == (1, False)
        kind, message = report["error"]
        assert kind == "RuntimeError"
        assert message.startswith("the second process failed:\nTraceback")
        assert message.endswith("RuntimeError: injected at n=128 r=441\n")

    def test_a_child_that_dies_fails_the_call(self):
        setup = "def run():\n    return cli._in_two_processes(list, lambda: os._exit(3))\n"
        _, report = second_process_probe(setup=setup)
        assert report["error"] == [
            "RuntimeError", "the second process ended before sending its result"
        ]
        assert (report["forks"], report["child_left"]) == (1, False)

    def test_an_error_in_the_first_half_kills_the_child(self):
        setup = (
            "def run():\n"
            "    return cli._in_two_processes(\n"
            "        lambda: 1 / 0, lambda: time.sleep(60) or []\n"
            "    )\n"
        )
        _, report = second_process_probe(setup=setup)
        assert report["error"][0] == "ZeroDivisionError"
        assert (report["forks"], report["child_left"]) == (1, False)
        assert report["seconds"] < 30

    def test_results_of_both_halves(self):
        setup = (
            "def run():\n"
            "    return cli._in_two_processes(\n"
            "        lambda: [os.getpid()], lambda: [os.getpid(), 2**5000, (1, 2.5)]\n"
            "    )\n"
        )
        _, report = second_process_probe(setup=setup)
        (mine,), (theirs, big, pair) = report["result"]
        assert mine != theirs
        assert (big, pair) == (2**5000, [1, 2.5])
        assert (report["forks"], report["child_left"]) == (1, False)

