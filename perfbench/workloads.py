"""Workload generators: the argv lists each workload sends to the CLI.

A workload is a fixed list of CLI operations. The values that set the cost
(n, q, rmax, sample counts, stream counts, and the format of the multi-MB
outputs) are fixed per workload, so runs with different seeds measure the
same amount of work and memory. The seed picks what leaves the cost
unchanged: the operation order, the output format of the small outputs, the
Monte Carlo seeds, and the rows spot-checked afterwards.
"""

import math
import random

FORMATS = ("csv", "json")


def _ceil_nlogn(n: int, c: float = 0.0) -> int:
    return math.ceil(n * math.log(n) + c * n)


def _sn_routes(rng):
    """Multi-route `sn-sep` at the largest n where exact kernel powers still fit."""
    ops = [
        ["sn-sep", "--n", "7", "--rmax", "21"],
        ["sn-sep", "--n", "8", "--rmax", "24", "--with-tv"],
        ["sn-sep", "--n", "9", "--rmax", "27"],
    ]
    return [op + ["--format", rng.choice(FORMATS)] for op in ops]


def _crosscheck(rng):
    """The CI gate: both kernel builds, every identity check, one GL matrix."""
    ops = [
        ["crosscheck", "--n", "7"],
        ["crosscheck", "--n", "8", "--rmax", "24"],
        ["crosscheck", "--n", "16", "--q", "3"],
    ]
    # crosscheck accepts --format and prints text either way.
    return [op + ["--format", rng.choice(FORMATS)] for op in ops]


def _closed_forms(rng):
    """Big-integer closed forms, q-series and spectral interpolation; no kernel."""
    # The JSON of the n = 200 curve peaks higher in memory than its CSV, so
    # the two large curves keep the default CSV.
    large = [
        ["sn-sep", "--n", "128", "--rmax", str(_ceil_nlogn(128))],
        ["sn-sep", "--n", "200", "--rmax", str(_ceil_nlogn(200))],
    ]
    small = [
        ["gl-sep", "--n", "16", "--q", "7", "--rmax", "32"],
        ["gl-sep", "--n", "24", "--q", "2", "--rmax", "48"],
        ["gl-sep", "--n", "24", "--q", "5", "--rmax", "48"],
        ["gl-sep", "--n", "30", "--q", "3", "--rmax", "60"],
        ["profile", "--n", "128,256,512", "--c=-1,0,1,2"],
    ]
    return large + [op + ["--format", rng.choice(FORMATS)] for op in small]


def _occupancy(rng):
    """Exact occupancy laws next to numpy Monte Carlo, plus pure-Python q-span ranks."""
    ops = []
    for n, samples in ((64, 100_000), (200, 5_000), (256, 4_000)):
        r = _ceil_nlogn(n)
        ops.append(
            ["occupancy", "--a", str(n - 1), "--r", str(r), "--n", str(n),
             "--samples", str(samples)]
        )
    ops.append(["occupancy", "--a", "8", "--r", "10", "--n", "8", "--q", "2",
                "--samples", "20000"])
    ops.append(["occupancy", "--a", "6", "--r", "8", "--n", "6", "--q", "3",
                "--samples", "20000"])
    # One stream: more streams split the draws into smaller chunks and lower
    # the peak memory, so the stream count is part of the work.
    return [op + ["--seed", str(rng.randrange(2**31))] for op in ops]


GENERATORS = {
    "sn_routes": _sn_routes,
    "crosscheck": _crosscheck,
    "closed_forms": _closed_forms,
    "occupancy": _occupancy,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """Argv of every operation of one repetition, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


def spot_rows(workload: str, seed: int, op_index: int, rmax: int, count: int = 2) -> list[int]:
    """Step counts at which the output of one operation is spot-checked."""
    rng = random.Random(f"{workload}:{seed}:check:{op_index}")
    return sorted(rng.sample(range(rmax + 1), min(count, rmax + 1)))
