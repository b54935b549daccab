import ast
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

from tensorwalk import bracket, cli, glwalk, interpolation, occupancy, snwalk
from tensorwalk.chains import (
    SeparationCurve, Spectrum, TransitionKernel, format_exact, format_float,
)
from tensorwalk.characters import character_table
from tensorwalk.checks import _gl_checks
from tensorwalk.combinat import Partition
from tensorwalk.errors import ConsistencyError
from tensorwalk.cli import main
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

    def test_each_route_steps_once_per_r(self, capsys, monkeypatch):
        # one pass over r: each stepped route yields each r once, and the box
        # walk, read by the kernel route and by total variation, steps once per r
        calls = {}
        steps = []
        step = snwalk.BoxWalk.step

        def counting(name, original):
            def stepped(*args):
                *head, rs = args
                rs = list(rs)
                for r, value in zip(rs, original(*head, rs)):
                    calls.setdefault(name, []).append(r)
                    yield value

            return stepped

        def counting_step(walk, mult):
            steps.append(walk)
            return step(walk, mult)

        for name in ("ratios_via_occupancy", "separation_closed_forms", "separations_from_spectrum"):
            monkeypatch.setattr(snwalk, name, counting(name, getattr(snwalk, name)))
        monkeypatch.setattr(snwalk.BoxWalk, "step", counting_step)
        code, out, _ = run_cli(capsys, "sn-sep", "--n", "6", "--rmax", "10", "--with-tv")
        assert code == 0
        assert len(parse_csv(out)) == 5 * 11
        assert calls == {
            "ratios_via_occupancy": list(range(11)),
            "separation_closed_forms": list(range(11)),
            "separations_from_spectrum": list(range(11)),
        }
        assert len(steps) == 10

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
        # one stepped spectral pass, which yields each r's value once
        calls = []
        original = interpolation.separations_from_spectrum

        def counting(eigenvalues, rs):
            rs = list(rs)
            for r, value in zip(rs, original(eigenvalues, rs)):
                calls.append(r)
                yield value

        for module in (interpolation, glwalk):
            monkeypatch.setattr(module, "separations_from_spectrum", counting)
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
        # the bracket pins none of the points, so all take the exact sums
        monkeypatch.setattr(bracket, "separation_float", lambda n, r: None)
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

    def test_bracket_pins_every_benchmark_point(self, capsys, monkeypatch):
        """The benchmark's grid prints the exact sums' bytes without reading them."""
        argv = ("profile", "--n", "128,256,512", "--c=-1,0,1,2")
        with monkeypatch.context() as patch:
            patch.setattr(bracket, "separation_float", lambda n, r: None)
            exact = run_cli(capsys, *argv)
        assert exact[0] == 0

        def no_exact_sums(n, rs):
            raise AssertionError(f"exact sums read at n={n}")

        monkeypatch.setattr(snwalk, "separation_closed_forms", no_exact_sums)
        assert run_cli(capsys, *argv) == exact

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


LONG_EXACT = "9" * 4000 + "/" + "1" + "0" * 4200
JSON_RECORDS = [
    {"a": 2, "r": 3, "n": 4, "exact": "27040/177147", "estimate": 0.23,
     "stderr": 0.042083250825001625, "samples": 100, "seed": 5},
    {"a": 7, "r": 0, "n": 2**63, "q": 2**61 - 1, "exact": "1/1", "estimate": 1.0,
     "stderr": 0.0, "samples": 10**30, "seed": 2**64 + 1},
    {"n": 512, "c": -4.5, "r": 885, "s_float": 5e-324, "profile": -0.0,
     "scaled_diff": -1.2345678901234567e-300},
    {"a": 600, "r": 4000, "n": 700, "exact": LONG_EXACT, "estimate": 1e-05,
     "stderr": 3.1622618688779837e-06, "samples": 10**4000, "seed": -(10**300)},
]


class TestJsonWrittenByHand:
    """The `occupancy` record and the `profile --format json` document are
    written without the `json` module, byte for byte as `json.dumps` writes
    them: default separators for the record, `indent=2` for the document,
    each with a final newline."""

    @pytest.mark.parametrize("record", JSON_RECORDS)
    def test_record_line(self, record):
        assert cli._json_line(record) == json.dumps(record) + "\n"

    def test_record_list(self):
        for k in range(1, len(JSON_RECORDS) + 1):
            records = JSON_RECORDS[:k]
            assert cli._json_list(records) == json.dumps(records, indent=2) + "\n"

    @given(values=st.lists(
        st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=6,
    ))
    def test_numbers(self, values):
        record = {f"k{i}": value for i, value in enumerate(values)}
        assert cli._json_line(record) == json.dumps(record) + "\n"
        assert cli._json_list([record, record]) == json.dumps([record, record], indent=2) + "\n"

    @pytest.mark.parametrize("q", [[], ["--q", "3"]], ids=["balls", "q-span"])
    def test_occupancy_command(self, capsys, q):
        argv = ["occupancy", "--a", "2", "--r", "4", "--n", "4", *q, "--samples", "50"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"
        assert ("q" in json.loads(out)) == bool(q)

    def test_profile_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--n", "64,512", "--c=-3.5,0,2", "--format", "json"
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert [row["c"] for row in json.loads(out)] == [-3.5, 0.0, 2.0] * 2


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
        original = snwalk.tensor_multiplicities

        def one_too_many(n, lam, eta, rhos):
            return [
                m + ((lam, rho) == (Partition([4]), Partition([3, 1])))
                for m, rho in zip(original(n, lam, eta, rhos), rhos)
            ]

        snwalk.build_kernel_characters.cache_clear()
        monkeypatch.setattr(snwalk, "tensor_multiplicities", one_too_many)
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
        monkeypatch.setattr(
            snwalk, "ratios_via_occupancy", lambda n, lam, rs: (Fraction(7, 3) for _ in rs)
        )

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
        def broken(n, rs):
            raise ValueError("boom")

        monkeypatch.setattr(snwalk, "separations_by_route", broken)
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
    monkeypatch.setattr(glwalk, "gl_separation_closed_forms", lambda n, q, rs: iter([Fraction(0)]))
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


class TestParserCache:
    """`main` builds its parser once per process; argparse keeps no state
    between `parse_args` calls, so the cached parser answers as a fresh one."""

    SEQUENCE = [
        ["sn-sep", "--n", "1000", "--rmax", "2"],
        ["sn-sep", "--n", "5", "--rmax", "2"],
        ["--help"],
        ["occupancy", "--help"],
        ["gl-sep", "--n", "2", "--q", "3", "--rmax", "2", "--format", "json"],
        ["spectrum", "--n", "5"],
        ["gl-sep", "--n", "1", "--q", "2", "--rmax", "2"],
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_same_bytes_and_exit_codes_as_fresh_parsers(self, capsys, monkeypatch):
        cached = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        assert cached == fresh
        assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0, 0, 2]
        assert all(out for code, out, _ in cached if code == 0)


def run_python(*args, text=True):
    """A fresh interpreter with `src/` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=text, env={**os.environ, "PYTHONPATH": path},
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


@pytest.mark.parametrize(
    "command",
    [
        "sn-sep --n 128 --rmax 622",
        "sn-sep --n 200 --rmax 300 --format json",
        "sn-sep --n 6 --rmax 4 --with-tv --format json",
        "gl-sep --n 4 --q 3 --rmax 8",
        "profile --n 64,128 --c=0,1",
        "crosscheck --n 4",
        "spectrum --n 6",
    ],
)
def test_stdout_and_out_get_the_same_bytes(tmp_path, command):
    out = tmp_path / "command.out"
    to_stdout = run_python("-m", "tensorwalk.cli", *command.split(), text=False)
    to_file = run_python("-m", "tensorwalk.cli", *command.split(), "--out", str(out), text=False)
    assert (to_stdout.returncode, to_file.returncode, to_file.stdout) == (0, 0, b"")
    assert to_stdout.stdout == out.read_bytes()


# Reads its argument with `ast.literal_eval` and writes its report with
# `repr`, so the probe itself loads no `json`.
IMPORT_PROBE = """
import ast, os, sys
path, commands, watched = ast.literal_eval(sys.argv[1])
sys.path[:0] = path
import tensorwalk.cli as cli

def loaded():
    return [name for name in watched if name in sys.modules]

report = {"import": loaded()}
for argv in commands:
    assert cli.main(argv + ["--out", os.devnull]) == 0, argv
    report[" ".join(argv)] = loaded()
print(repr(report))
"""

# Modules no command needs: the import and every exact command go without
# them. A Monte Carlo draw loads numpy, and numpy may load some of the rest;
# the draw's counting thread loads neither `concurrent.futures` nor `logging`,
# and no command loads `json`.
UNNEEDED = (
    "__future__", "concurrent.futures", "dataclasses", "inspect", "json", "logging", "numpy",
    "typing",
)
# Only `profile` reads the bracket module, only the closed-form branch of
# `sn-sep` the closed-curve module, only `crosscheck` the check matrix and
# only a Monte Carlo draw its engine, so the import compiles none of them.
BRACKET = "tensorwalk.bracket"
CLOSED_CURVE = "tensorwalk.closedcurve"
CHECKS = "tensorwalk.checks"
MONTE_CARLO = "tensorwalk.montecarlo"
LAZY = (BRACKET, CLOSED_CURVE, CHECKS, MONTE_CARLO)
PROFILE_COMMAND = "profile --n 64 --c=0"
CLOSED_FORM_COMMAND = "sn-sep --n 11 --rmax 3"
CROSSCHECK_COMMAND = "crosscheck --n 5"
EXACT_COMMANDS = (
    "sn-sep --n 8 --rmax 5", "gl-sep --n 4 --q 2 --rmax 4", CLOSED_FORM_COMMAND,
    PROFILE_COMMAND, CROSSCHECK_COMMAND, "spectrum --n 6",
)
DRAW_COMMAND = "occupancy --a 2 --r 3 --n 4 --samples 100"


@functools.cache
def import_probe_report():
    """What the probe saw loaded of UNNEEDED and LAZY after the import and
    after each command.

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
         repr([path, commands, UNNEEDED + LAZY])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_only_monte_carlo_loads_numpy():
    """numpy loads on the first Monte Carlo draw, so every other command, and
    the import itself, go without it. The draw's counting thread needs no
    worker pool."""
    report = {c: set(loaded) - set(LAZY) for c, loaded in import_probe_report().items()}
    assert {c: report[c] for c in ("import",) + EXACT_COMMANDS} == {
        "import": set(), **{c: set() for c in EXACT_COMMANDS}
    }
    assert "numpy" in report[DRAW_COMMAND]
    assert not {"concurrent.futures", "json", "logging"} & report[DRAW_COMMAND]


def test_import_loads_no_unneeded_stdlib():
    """`import tensorwalk.cli` loads argparse, fractions and the package, and
    none of json, dataclasses, logging, inspect, typing or __future__, nor the
    bracket, closed-curve, check-matrix or Monte Carlo module."""
    assert import_probe_report()["import"] == []


def loaded_first_by(module: str) -> str | None:
    """The first probe step, the import or a command, after which `module` was loaded."""
    report = import_probe_report()
    steps = ("import",) + EXACT_COMMANDS + (DRAW_COMMAND,)
    return next((c for c in steps if module in report[c]), None)


def test_only_profile_loads_the_bracket():
    assert loaded_first_by(BRACKET) == PROFILE_COMMAND


def test_only_closed_form_sn_sep_loads_the_closed_curve_module():
    # the multi-route `sn-sep --n 8` before it leaves the module unloaded
    assert loaded_first_by(CLOSED_CURVE) == CLOSED_FORM_COMMAND


def test_only_crosscheck_loads_the_check_matrix():
    assert loaded_first_by(CHECKS) == CROSSCHECK_COMMAND


def test_only_a_draw_loads_the_monte_carlo_engine():
    # every exact command, `profile` and `crosscheck` included, runs before it
    assert loaded_first_by(MONTE_CARLO) == DRAW_COMMAND


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

# Makes the closed-form value at r = {split}, the second process's first row
# of a split `sn-sep` curve, exactly 1, so the curve rises there.
RISE = """
from fractions import Fraction


def rising(n, rs, real=snwalk.separation_closed_forms):
    rs = list(rs)
    for r, value in zip(rs, real(n, rs)):
        yield Fraction(1) if r == {split} else value

snwalk.separation_closed_forms = rising
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
            "sn-sep --n 128 --rmax 622 --format json",
            "sn-sep --n 200 --rmax 700 --format json",
            "sn-sep --n 512 --rmax 400",
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
        [
            "sn-sep --n 11 --rmax 12",
            "sn-sep --n 60 --rmax 300",
            "profile --n 128 --c=0",
            "profile --n 128,256,512 --c=-1,0,1,2",
            "profile --n 256 --c=0,0.004,1 --format json",
        ],
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
        split, _ = cli._split_row(128, 622)
        assert proc.stderr == f"consistency failure: injected at n=128 r={split}\n"

    def test_other_error_in_the_child_propagates(self):
        argv = ["sn-sep", "--n", "128", "--rmax", "622", "--out", os.devnull]
        _, report = second_process_probe(setup=FAULT.format(kind="RuntimeError"), argv=argv)
        assert (report["forks"], report["child_left"]) == (1, False)
        kind, message = report["error"]
        assert kind == "RuntimeError"
        assert message.startswith("the second process failed:\nTraceback")
        split, _ = cli._split_row(128, 622)
        assert message.endswith(f"RuntimeError: injected at n=128 r={split}\n")

    def test_a_rise_at_the_split_warns_as_in_one_process(self):
        argv = ["sn-sep", "--n", "128", "--rmax", "622", "--out", os.devnull]
        split, _ = cli._split_row(128, 622)
        setup = RISE.format(split=split)
        two, report = second_process_probe(setup=setup, argv=argv)
        assert (report["result"], report["forks"]) == (0, 1)
        one, report = second_process_probe(cpus=1, setup=setup, argv=argv)
        assert (report["result"], report["forks"]) == (0, 0)
        warning = (
            "WARNING distance increased with step count: "
            f"route=closed_form r={split - 1}->{split}\n"
        )
        assert two.stderr == one.stderr == warning

    def test_split_balances_the_estimated_work(self):
        # each process gets about half of the rows' estimated cost, the jump
        # to the second process's first row counted on its side
        for n, r_max in ((128, 622), (200, 1060), (512, 3300)):
            split, work = cli._split_row(n, r_max)
            lower = sum(cli._row_cost(n, r) for r in range(split))
            upper = sum(cli._row_cost(n, r) for r in range(split, r_max + 1))
            assert work == pytest.approx(upper + cli.JUMP_STEPS * cli._term_bits(n, split))
            assert work <= lower < work + 2 * cli._row_cost(n, split)
            assert 0.65 < split / (r_max + 1) < 0.8

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



# Replaces the closed-form value at each r of {edits} (r -> kind) by: 1 ("one",
# a rise of the floats), the row before plus or minus 10^-2000 ("up", "down":
# the floats tie and the exact values decide), the row before ("same") or 3/2
# ("over", out of range). "up" is the one rise among the ties.
EDITS = """
from fractions import Fraction

TINY = Fraction(1, 10**2000)


def edited(n, rs, real=snwalk.separation_closed_forms, edits={edits}):
    rs = list(rs)
    before = None
    for r, value in zip(rs, real(n, rs)):
        kind = edits.get(r)
        if kind == "one":
            value = Fraction(1)
        elif kind == "up":
            value = before + TINY
        elif kind == "down":
            value = before - TINY
        elif kind == "same":
            value = before
        elif kind == "over":
            value = Fraction(3, 2)
        before = value
        yield value

snwalk.separation_closed_forms = edited
"""


class TestChecksAcrossTheSplit:
    """Each process checks its own rows and the parent the pair at the split:
    the WARNING lines, the bytes and a range failure are those of one process."""

    N, R_MAX = 128, 622

    def both(self, tmp_path, edits, fmt="csv"):
        """(stderr, report, output) of the split run and of the one-CPU run."""
        runs = []
        for cpus in (2, 1):
            out = tmp_path / f"cpus{cpus}.out"
            argv = ["sn-sep", "--n", str(self.N), "--rmax", str(self.R_MAX),
                    "--format", fmt, "--out", str(out)]
            proc, report = second_process_probe(
                cpus=cpus, setup=EDITS.format(edits=edits), argv=argv
            )
            assert report["forks"] == (1 if cpus == 2 else 0)
            assert not report["child_left"]
            runs.append((proc.stderr, report["result"], out.read_bytes() if out.exists() else None))
        return runs

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rises_in_each_process_and_at_the_split(self, tmp_path, fmt):
        split, _ = cli._split_row(self.N, self.R_MAX)
        edits = {
            200: "up", 300: "one", 350: "same", 351: "down",  # the parent's rows
            split: "one",
            split + 20: "one", split + 60: "up", split + 61: "same",  # the child's rows
            split + 90: "down",
        }
        (two, code_two, bytes_two), (one, code_one, bytes_one) = self.both(tmp_path, edits, fmt)
        rises = [(199, 200), (299, 300), (split - 1, split), (split + 19, split + 20),
                 (split + 59, split + 60)]
        assert two == one == "".join(
            f"WARNING distance increased with step count: route=closed_form r={a}->{b}\n"
            for a, b in rises
        )
        assert (code_two, code_one) == (0, 0)
        assert bytes_two == bytes_one

    def test_value_above_one_in_the_child(self, tmp_path):
        split, _ = cli._split_row(self.N, self.R_MAX)
        (two, code_two, _), (one, code_one, _) = self.both(tmp_path, {split + 10: "over"})
        assert (code_two, code_one) == (1, 1)
        assert two == one == (
            f"consistency failure: distance value out of [0,1]: r={split + 10} "
            "route=closed_form value=3/2\n"
        )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [11, 40, 128])
def test_closed_form_rows_render_as_a_separation_curve(capsys, n, fmt):
    for r_max in (0, 1, 3 * n):
        curve = SeparationCurve(n=n)
        for r, value in enumerate(snwalk.separation_closed_forms(n, range(r_max + 1))):
            curve.add(r, value, "closed_form")
        argv = ["sn-sep", "--n", str(n), "--rmax", str(r_max), "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (curve.to_csv() if fmt == "csv" else curve.to_json())
