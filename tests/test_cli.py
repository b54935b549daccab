import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tensorwalk import glwalk, interpolation, occupancy, snwalk
from tensorwalk.chains import TransitionKernel, format_exact, format_float
from tensorwalk.characters import character_table
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

    def test_size_guard_ignores_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TENSORWALK_MAX_N", "11")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "sn-sep", "--n", "11", "--rmax", "1")
        assert code == 0
        assert {r["route"] for r in parse_csv(out)} == {"closed_form"}

    def test_only_the_latest_kernel_is_kept(self, capsys):
        snwalk.build_kernel_characters.cache_clear()
        for n in ("7", "8"):
            code, _, _ = run_cli(capsys, "sn-sep", "--n", n, "--rmax", "2", "--with-tv")
            assert code == 0
        info = snwalk.build_kernel_characters.cache_info()
        assert (info.misses, info.currsize) == (2, 1)

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

    @pytest.mark.parametrize("offset", ["1e308", "-1e308"])
    def test_non_finite_step_rejected(self, capsys, offset):
        code, out, err = run_cli(capsys, "profile", "--n", "64", f"--c={offset}")
        assert code == 2
        assert out == ""
        assert f"n ln n + c n finite, got n = 64, c = {float(offset)}" in err


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

    def test_size_guard_ignores_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TENSORWALK_MAX_N", "11")
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

    def test_non_ergodic_kernel_is_a_failed_check(self, capsys, monkeypatch):
        def non_ergodic(*args, **kwargs):
            raise ValueError("kernel is not ergodic: some state never reaches the target")

        monkeypatch.setattr(interpolation, "verify_distance", non_ergodic)
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "4")
        assert code == 1
        assert "FAIL  support distance between extremes (n=4)" in out
        assert "kernel is not ergodic" in out


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
            identity = [[int(i == j) for j in range(kernel.size)] for i in range(kernel.size)]
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


class TestArgumentsCheckedBeforeWork:
    """Inputs the library would reject are usage errors found by the parser."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("occupancy", "--a", "0", "--r", "2", "--n", "0"), "need n >= 1"),
            (("profile", "--n", "2", "--c=-5"), "need r >= 0"),
            (("profile", "--n", "128", "--c=-100"), "need r >= 0"),
        ],
        ids=["occupancy-n0", "profile-n2", "profile-n128"],
    )
    def test_rejected_before_any_computation(self, capsys, monkeypatch, argv, message):
        def no_work(*args):
            raise AssertionError("the computation started")

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


class TestProcessExitStatus:
    """The status the operating system sees from `python -m tensorwalk.cli`."""

    @staticmethod
    def run(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "tensorwalk.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )

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
