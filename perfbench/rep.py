"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py SPEC.json

SPEC names the source directory, the operations, the output directory and
whether to trace. The repetition imports `tensorwalk.cli`, calls
`tensorwalk.cli.main(argv)` once per operation with `--out` pointing into
the output directory, and times each call with `time.perf_counter`. Hashing
the outputs, reading peak RSS and building per-layer metrics all happen
after the timed calls. The result goes to the JSON file SPEC names.

    python3 perfbench/rep.py --import-time SRC

prints the seconds a fresh interpreter takes to `import tensorwalk.cli`.

The speed of a shared machine drifts by tens of percent within seconds, so
every timed call also comes scaled to reference seconds (`SpeedProbe`).
Before the timed import only `os`, `signal`, `sys` and `time` are loaded, so
modules the benchmark uses cannot make that import look cheaper.
"""

import os
import signal
import sys
import time

CALIBRATION_REFERENCE_S = 0.008
SAMPLE_INTERVAL_S = 0.1


CALIBRATION_MODULUS = 2**521 - 1
CALIBRATION_BASE = 3**300


def calibrate() -> float:
    """Seconds a fixed loop of big-integer and object work takes right now.

    Modular inverses of ~500-bit integers run the same extended gcd that
    reduces every `Fraction`, and each result goes into a new tuple, so the
    loop slows down with the program's exact-arithmetic work when the
    machine does. Uses builtins only, so it imports nothing the program
    imports.
    """
    start = time.perf_counter()
    kept = []
    for i in range(1, 110):
        value = CALIBRATION_BASE + i
        inverse = pow(value, -1, CALIBRATION_MODULUS)
        kept.append((inverse % 1_000_003, value * inverse))
    x = 0
    for i in range(500):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


class SpeedProbe:
    """Machine speed around and during one timed call.

    Runs `calibrate` before the call, every SAMPLE_INTERVAL_S during it (from
    a SIGALRM handler) and after it. `net` removes the handler's time from
    the call's time. `scaled` converts the net time to reference seconds:
    the time the call would take on a machine that runs the loop in
    CALIBRATION_REFERENCE_S.
    """

    def __init__(self):
        self.samples = []
        self.busy = 0.0

    def _sample(self, signum, frame):
        seconds = calibrate()
        self.samples.append(seconds)
        self.busy += seconds

    def __enter__(self):
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())

    def net(self, seconds: float) -> float:
        return seconds - self.busy

    def scaled(self, seconds: float) -> float:
        speed = sum(CALIBRATION_REFERENCE_S / s for s in self.samples) / len(self.samples)
        return self.net(seconds) * speed


def _import_cli(src: str):
    """Import tensorwalk.cli from src; returns (module, seconds, scaled seconds)."""
    sys.path.insert(0, src)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        import tensorwalk.cli as cli

        elapsed = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported tensorwalk from {cli.__file__}, not from {src}")
    return cli, probe.net(elapsed), probe.scaled(elapsed)


def _sha256(path: str) -> str | None:
    import hashlib

    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run(spec: dict) -> dict:
    cli, import_s, import_scaled_s = _import_cli(spec["src"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops, scales = [], {}
    for i, argv in enumerate(spec["ops"]):
        out = os.path.join(spec["outdir"], f"op{i}.out")
        if tracer is not None:
            tracer.op = i
        error = None
        with SpeedProbe() as probe:
            start = time.perf_counter()
            try:
                code = cli.main(argv + ["--out", out])
            except Exception as exc:  # an escaped exception fails the op, not the run
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        scaled = probe.scaled(elapsed)
        # Spans include the sampling handler's time; this factor removes it
        # in proportion and converts to reference seconds.
        scales[i] = scaled / elapsed
        ops.append({"seconds": probe.net(elapsed), "scaled_s": scaled, "exit": code,
                    "error": error})
    import resource

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, op in enumerate(ops):
        op["sha256"] = _sha256(os.path.join(spec["outdir"], f"op{i}.out"))
    result = {"import_s": import_s, "import_scaled_s": import_scaled_s,
              "peak_rss_mb": peak_kb / 1024, "ops": ops}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(scales)
        tracer.write_spans(spec["spans"])
    return result


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--import-time":
        _, seconds, scaled = _import_cli(argv[1])
        import json

        print(json.dumps({"seconds": seconds, "scaled_s": scaled}))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    import json

    with open(argv[0]) as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
