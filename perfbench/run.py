"""Benchmark of the tensorwalk command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory that holds `src/` and
`BENCHMARK.json`). The workload is a closed loop with one client: each
repetition starts a fresh interpreter (perfbench/rep.py) that runs every
operation of the workload once, in order, through `tensorwalk.cli.main`.
Repetitions follow each other until S seconds have passed (at least two).

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
the median over repetitions of the summed operation times (`wall_s`) and of
peak RSS, and the median import time of `tensorwalk.cli` in a fresh
interpreter (`setup_s`), over five probes before the repetitions and the
import of each repetition. Times are in reference seconds (see rep.py); the
run record keeps the raw seconds too. With `--trace 1` untraced and traced
repetitions alternate, and the run reports the per-layer metrics of the
traced ones plus the tracing overhead.

After the repetitions every output is checked (perfbench/checks.py) and
compared byte for byte across repetitions. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. A run record
with the seed, source revision, Python version and CPU count goes to
`.perfbench_results/`; a human summary goes to standard error.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import GENERATORS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
REP = os.path.join(HERE, "rep.py")
SETUP_PROBES = 5
MIN_REPS = 2
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 160  # no repetition starts that would likely end after this
RESULTS_DIR = ".perfbench_results"
WORK_DIR = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tensorwalk CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TENSORWALK_MAX_N", None)  # the default size guard is part of the workload
    return env


def import_time(src: str) -> dict:
    """Seconds, raw and scaled, of one fresh interpreter's `import tensorwalk.cli`."""
    proc = subprocess.run(
        [sys.executable, REP, "--import-time", src],
        capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import of tensorwalk.cli failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def run_rep(src: str, ops, workdir: str, outdir: str, trace: bool, spans: str) -> dict:
    """One repetition in a fresh interpreter; failures come back as op errors."""
    os.makedirs(outdir, exist_ok=True)
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    spec = {"src": src, "ops": ops, "outdir": outdir, "trace": trace,
            "spans": spans, "result": result_path}
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    try:
        proc = subprocess.run(
            [sys.executable, REP, spec_path],
            capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
        )
        problem = None if proc.returncode == 0 else (
            f"repetition exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    except subprocess.TimeoutExpired:
        problem = f"repetition exceeded {CHILD_TIMEOUT_S} s"
    if problem is None:
        with open(result_path) as handle:
            return json.load(handle)
    return {"problem": problem,
            "ops": [{"seconds": None, "scaled_s": None, "exit": None, "error": problem,
                     "sha256": None}
                    for _ in ops]}


def wall(rep: dict, key: str = "scaled_s") -> float | None:
    times = [op.get(key) for op in rep["ops"]]
    return None if None in times else sum(times)


def tail_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return {"percentile": 100 * (k + 1) / len(ordered), "value": ordered[k]}


def summary(values) -> dict:
    return {"median": statistics.median(values), "samples": len(values),
            "tail": tail_percentile(values)}


def git_revision(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def judge(workload, seed, ops, reps, first_outdir) -> tuple[int, int, list[str]]:
    """Attempted and failed op counts over all repetitions, with the reasons."""
    from checks import check_output

    reasons = []
    bad_output = set()
    for i, argv in enumerate(ops):
        for problem in check_output(workload, seed, i, argv, os.path.join(first_outdir, f"op{i}.out")):
            reasons.append(f"op {i} ({' '.join(argv)}): {problem}")
            bad_output.add(i)
    failed = 0
    for k, rep in enumerate(reps):
        for i, op in enumerate(rep["ops"]):
            problems = []
            if op["error"] is not None:
                problems.append(op["error"])
            elif op["exit"] != 0:
                problems.append(f"exit code {op['exit']}")
            if op["sha256"] != reps[0]["ops"][i]["sha256"]:
                problems.append("output differs from the first repetition")
            if problems or i in bad_output:
                failed += 1
            reasons += [f"rep {k} op {i} ({' '.join(ops[i])}): {p}" for p in problems]
    return len(reps) * len(ops), failed, reasons


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tensorwalk", "cli.py")):
        print(f"error: no tensorwalk sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    sys.set_int_max_str_digits(0)  # the checks parse outputs with thousands of digits
    sys.path.insert(0, src)

    ops = generate(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, WORK_DIR, f"{tag}-{os.getpid()}")
    results = os.path.join(root, RESULTS_DIR)
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    try:
        probes = []
        if not args.trace:
            import_time(src)  # warm-up: compiles bytecode, fills the page cache
            probes = [import_time(src) for _ in range(SETUP_PROBES)]
        reps, traced = [], []
        start = time.perf_counter()
        longest = 0.0
        while len(reps) + len(traced) < MIN_REPS or (
            time.perf_counter() - start < args.seconds
            and time.perf_counter() - start + longest < RUN_BUDGET_S
        ):
            k = len(reps) + len(traced)
            trace = bool(args.trace) and k % 2 == 1
            outdir = os.path.join(workdir, "first" if k == 0 else "later")
            spans = os.path.join(results, f"{tag}-rep{k}.spans.jsonl")
            began = time.perf_counter()
            rep = run_rep(src, ops, workdir, outdir, trace, spans)
            longest = max(longest, time.perf_counter() - began)
            (traced if trace else reps).append(rep)
        attempted, failed, reasons = judge(
            args.workload, args.seed, ops, reps + traced, os.path.join(workdir, "first")
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [w for w in map(wall, reps) if w is not None]
    raw_walls = [w for w in (wall(rep, "seconds") for rep in reps) if w is not None]
    peaks = [rep["peak_rss_mb"] for rep in reps if "peak_rss_mb" in rep]
    probes += [{"seconds": rep["import_s"], "scaled_s": rep["import_scaled_s"]}
               for rep in reps if "import_s" in rep]
    setup = [probe["scaled_s"] for probe in probes]
    values = {}
    record = {"wall_s": summary(walls) if walls else None,
              "raw_wall_s": summary(raw_walls) if raw_walls else None,
              "peak_rss_mb": summary(peaks) if peaks else None}
    if args.trace:
        traced_walls = [w for w in map(wall, traced) if w is not None]
        layers = [rep["layers"] for rep in traced if "layers" in rep]
        if layers:
            values = {name: statistics.median(layer[name] for layer in layers)
                      for name in layers[0]}
        if walls and traced_walls:
            values["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        declared_metrics = declared["per_layer"]
    else:
        if walls and peaks:
            values = {"wall_s": record["wall_s"]["median"],
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": record["peak_rss_mb"]["median"]}
        record["setup_s"] = summary(setup) if setup else None
        record["raw_setup_s"] = summary([p["seconds"] for p in probes]) if probes else None
        declared_metrics = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics if m["name"] in values}

    error_rate = failed / attempted
    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(root),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ops": [" ".join(op) for op in ops],
        "op_seconds": [[op["seconds"] for op in rep["ops"]] for rep in reps + traced],
        "op_scaled_s": [[op["scaled_s"] for op in rep["ops"]] for rep in reps + traced],
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "failures": reasons,
        "summaries": record,
        "metrics": metrics,
    }
    with open(os.path.join(results, f"{tag}.json"), "w") as handle:
        json.dump(run_record, handle, indent=2)

    print(f"{args.workload} seed={args.seed}: {len(reps)} untraced and {len(traced)} "
          f"traced repetitions of {len(ops)} ops", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"  {'error_rate':40s} {error_rate:.6g} fraction ({failed}/{attempted})",
          file=sys.stderr)
    for reason in reasons[:20]:
        print(f"  FAIL {reason}", file=sys.stderr)
    complete = len(metrics) == len(declared_metrics)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
