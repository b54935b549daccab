import csv
import io
import json
import math
import warnings
from fractions import Fraction

import pytest

from tensorwalk import glwalk, interpolation, snwalk
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


class TestOccupancyCommand:
    ARGS = (
        "occupancy",
        "--a", "2", "--r", "2", "--n", "2",
        "--samples", "20000", "--seed", "7", "--streams", "2",
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

    def test_character_kernel_built_once(self, capsys, monkeypatch):
        builds = []
        build = snwalk.build_kernel_characters

        def counting_build(n):
            builds.append(n)
            return build(n)

        monkeypatch.setattr(snwalk, "build_kernel_characters", counting_build)
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "6")
        assert code == 0
        assert "ALL PASS" in out
        assert builds == [6]

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
        monkeypatch.setattr(glwalk, "qspan_exact", lambda a, r, n, q: Fraction(1, 7))

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
