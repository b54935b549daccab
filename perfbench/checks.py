"""Output checks, run after the timed repetitions.

Each check reads one operation's output file and returns a list of
problems; an empty list means the output is correct. The checks use routes
of the program other than the one that produced the output: separation rows
are spot-checked against the occupancy law, exact occupancy values against
the pure-birth chain powers, and Monte Carlo estimates against the exact
value within four standard errors.
"""

import csv
import io
import json
import math
from fractions import Fraction

from workloads import spot_rows

SN_ROUTES = {"kernel_power", "occupancy_tableaux", "closed_form", "spectral"}
GL_ROUTES = {"closed_form", "span_probability", "spectral"}
MULTI_ROUTE_MAX_N = 10
CHAIN_CHECK_MAX_N = 64


def flags(argv) -> dict[str, str]:
    """Flag values of an argv, for both `--k v` and `--k=v` spellings."""
    out = {}
    i = 0
    while i < len(argv):
        token = argv[i]
        if "=" in token:
            key, value = token.split("=", 1)
            out[key] = value
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[token] = argv[i + 1]
            i += 1
        else:
            out[token] = ""
        i += 1
    return out


def _records(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["records"]
    return list(csv.DictReader(io.StringIO(text)))


def _unit_interval(value, label: str) -> list[str]:
    return [] if 0 <= value <= 1 else [f"{label} = {value} outside [0, 1]"]


def _curve(text: str, argv, routes: set[str]) -> tuple[dict, list[str]]:
    """Rows grouped by r; checks range, coverage and equality of the routes."""
    f = flags(argv[1:])
    problems = []
    by_r = {}
    for rec in _records(text, f.get("--format", "csv")):
        r, route = int(rec["r"]), rec["route"]
        exact = Fraction(rec["s_exact"])
        problems += _unit_interval(exact, f"r={r} {route} s_exact")
        problems += _unit_interval(float(rec["s_float"]), f"r={r} {route} s_float")
        by_r.setdefault(r, {})[route] = exact
    rmax = int(f["--rmax"])
    if sorted(by_r) != list(range(rmax + 1)):
        problems.append(f"rows cover r = {sorted(by_r)[:3]}..., expected 0..{rmax}")
    for r, values in by_r.items():
        if set(values) - {"total_variation"} != routes:
            problems.append(f"r={r}: routes {sorted(values)}, expected {sorted(routes)}")
        distinct = {v for route, v in values.items() if route != "total_variation"}
        if len(distinct) > 1:
            problems.append(f"r={r}: routes disagree")
    return by_r, problems


def check_sn_sep(text, argv, spot) -> list[str]:
    from tensorwalk.occupancy import occupancy_exact

    n = int(flags(argv[1:])["--n"])
    routes = SN_ROUTES if n <= MULTI_ROUTE_MAX_N else {"closed_form"}
    by_r, problems = _curve(text, argv, routes)
    if "--with-tv" in argv and any("total_variation" not in v for v in by_r.values()):
        problems.append("total_variation rows missing")
    for r in spot:
        expected = 1 - occupancy_exact(n, r, n) - occupancy_exact(n - 1, r, n)
        if by_r.get(r, {}).get("closed_form") != expected:
            problems.append(f"r={r}: closed form differs from the occupancy route")
    return problems


def check_gl_sep(text, argv, spot) -> list[str]:
    return _curve(text, argv, GL_ROUTES)[1]


def check_profile(text, argv, spot) -> list[str]:
    f = flags(argv[1:])
    if f.get("--format", "csv") == "json":
        rows = json.loads(text)
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    n_list = [int(x) for x in f["--n"].split(",")]
    c_list = [float(x) for x in f["--c"].split(",")]
    expected = [(n, c, math.ceil(n * math.log(n) + c * n)) for n in n_list for c in c_list]
    got = [(int(row["n"]), float(row["c"]), int(row["r"])) for row in rows]
    problems = [] if got == expected else [f"grid rows {got} != {expected}"]
    for row in rows:
        label = f"n={row['n']} c={row['c']}"
        problems += _unit_interval(float(row["s_float"]), f"{label} s_float")
        problems += _unit_interval(float(row["profile"]), f"{label} profile")
    return problems


def check_occupancy(text, argv, spot) -> list[str]:
    from tensorwalk.occupancy import McEstimate, occupancy_chain_power, qspan_chain_power

    f = flags(argv[1:])
    a, r, n = int(f["--a"]), int(f["--r"]), int(f["--n"])
    q = int(f["--q"]) if "--q" in f else None
    record = json.loads(text)
    exact = Fraction(record["exact"])
    problems = _unit_interval(exact, "exact")
    if n <= CHAIN_CHECK_MAX_N:
        chain = occupancy_chain_power(n, r) if q is None else qspan_chain_power(n, r, q)
        if chain[a] != exact:
            problems.append("exact value differs from the chain power")
    samples = int(f["--samples"])
    if record["samples"] != samples:
        problems.append(f"{record['samples']} samples, expected {samples}")
    estimate = McEstimate(successes=round(record["estimate"] * samples), samples=samples)
    if not estimate.within(exact):
        problems.append(f"estimate {record['estimate']} not within 4 stderr of {float(exact)}")
    return problems


def check_crosscheck(text, argv, spot) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("ALL PASS"):
        return [f"crosscheck report ends with {lines[-1] if lines else 'nothing'!r}"]
    return []


CHECKS = {
    "sn-sep": check_sn_sep,
    "gl-sep": check_gl_sep,
    "profile": check_profile,
    "occupancy": check_occupancy,
    "crosscheck": check_crosscheck,
}


def check_output(workload: str, seed: int, op_index: int, argv, path: str) -> list[str]:
    """Problems with the output one operation wrote to `path`."""
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        return ["no output written"]
    rmax = flags(argv[1:]).get("--rmax")
    spot = spot_rows(workload, seed, op_index, int(rmax)) if argv[0] == "sn-sep" else []
    try:
        return CHECKS[argv[0]](text, argv, spot)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
