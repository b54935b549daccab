"""Tests of the benchmark itself: inputs, metric names, self time, smoke runs."""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED_FLAGS = {"--format", "--seed"}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _work(argv):
    """The argv without the flags the seed picks."""
    f = checks.flags(argv[1:])
    return (argv[0],) + tuple(sorted((k, v) for k, v in f.items() if k not in SEED_FLAGS))


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_argv_is_deterministic_for_a_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.spot_rows(workload, 7, 0, 50) == workloads.spot_rows(workload, 7, 0, 50)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_seed_leaves_the_work_unchanged(workload):
    runs = [sorted(map(_work, workloads.generate(workload, seed))) for seed in range(20)]
    assert all(ops == runs[0] for ops in runs)
    assert len({json.dumps(workloads.generate(workload, seed)) for seed in range(20)}) > 1


def test_metric_names():
    declared = _declared()
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in declared["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in declared["workloads"]} == set(workloads.GENERATORS)
    assert [m["name"] for m in declared["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    layer_names = set(tracer.Tracer().layer_metrics()) | {"trace.overhead"}
    assert {m["name"] for m in declared["per_layer"]} == layer_names


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        (2, "c", 2.0, 3.0, 1, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (3, "b", 5.0, 9.0, 0, 0),
        (0, "root", 0.0, 10.0, None, 0),
        (4, "a", 11.0, 12.5, None, 1),
    ]
    assert tracer.self_times(spans) == {"root": 3.0, "a": 3.5, "b": 4.0, "c": 1.0}


def test_tracer_records_nesting_and_operation():
    t = tracer.Tracer()

    def inner(x):
        return x + 1

    traced_inner = t.wrap("inner", inner)
    traced_outer = t.wrap("outer", lambda x: traced_inner(x) * 2)
    t.op = 5
    assert traced_outer(1) == 4
    (child, parent) = sorted(t.spans, key=lambda span: span[1])
    assert child[1] == "inner" and parent[1] == "outer"
    assert child[4] == parent[0] and parent[4] is None
    assert child[5] == parent[5] == 5


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    tail = run.tail_percentile(list(range(20)))
    assert tail == {"percentile": 50.0, "value": 9}


def _smallest(workload):
    ops = workloads.generate(workload, 0)
    return min(ops, key=lambda op: int(checks.flags(op[1:])["--n"].split(",")[0]))


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_smoke_run_of_smallest_op(workload, tmp_path):
    argv = _smallest(workload)
    spec = {"src": SRC, "ops": [argv], "outdir": str(tmp_path), "trace": True,
            "spans": str(tmp_path / "spans.jsonl"), "result": str(tmp_path / "result.json")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "rep.py"), str(tmp_path / "spec.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    (op,) = result["ops"]
    assert op["exit"] == 0 and op["error"] is None
    assert checks.check_output(workload, 0, 0, argv, str(tmp_path / "op0.out")) == []
    assert result["layers"]["cli.self_s"] > 0
    assert (tmp_path / "spans.jsonl").read_text().count("\n") >= 1


def test_fails_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_declared()))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sn_routes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
