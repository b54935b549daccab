"""Command-line front end: curves, cross-check reports, Monte Carlo records.

Exit codes: 0 on success, 1 when an exact consistency check fails, 2 on
usage errors. Output is deterministic for a fixed flag set (including seed
and stream count), so reruns are byte-identical.
"""

import argparse
import json
import logging
import math
import sys
from fractions import Fraction
from functools import cache

from . import glwalk, interpolation, occupancy, snwalk
from .chains import SeparationCurve, format_exact, format_float
from .characters import (
    character_table,
    fixed_point_character_sum,
    signed_fixed_point_sum,
)
from .combinat import enumerate_partitions
from .config import PRACTICAL_MAX_N
from .errors import ConsistencyError, common_value
from .occupancy import RandomSource, merge_estimates

CLOSED_FORM_MAX_N = 512


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _closed_form_n_ok(n: int) -> bool:
    """Whether n is in the closed-form range; reports the usage error if not."""
    if 2 <= n <= CLOSED_FORM_MAX_N:
        return True
    print(f"error: need 2 <= n <= {CLOSED_FORM_MAX_N}", file=sys.stderr)
    return False


def _emit_curve(curve: SeparationCurve, fmt: str, out: str | None) -> None:
    curve.warn_if_not_monotone()
    _write_output(curve.to_csv() if fmt == "csv" else curve.to_json(), out)


def cmd_sn_sep(args) -> int:
    n, r_max = args.n, args.rmax
    if not _closed_form_n_ok(n):
        return 2
    multi = n <= PRACTICAL_MAX_N
    curve = SeparationCurve(n=n)
    if multi:
        kernel = snwalk.build_kernel_characters(n)
        eigenvalues = snwalk.spectrum_sn(n).eigenvalues
        for r in range(r_max + 1):
            routes = snwalk.separation_routes(n, r, kernel, eigenvalues)
            for route, value in routes.items():
                curve.add(r, value, route)
            if args.with_tv:
                curve.add(r, snwalk.tv_exact(n, r, kernel), "total_variation")
    else:
        values = snwalk.separation_closed_forms(n, range(r_max + 1))
        for r, value in enumerate(values):
            curve.add(r, value, "closed_form")
    _emit_curve(curve, args.format, args.out)
    return 0


def cmd_gl_sep(args) -> int:
    n, q, r_max = args.n, args.q, args.rmax
    curve = SeparationCurve(n=n, q=q)
    for r in range(r_max + 1):
        for route, value in glwalk.gl_separation_routes(n, q, r).items():
            curve.add(r, value, route)
    _emit_curve(curve, args.format, args.out)
    return 0


def cmd_profile(args) -> int:
    n_list = args.n_list
    c_list = args.c_list
    rows = []
    for n in n_list:
        if not _closed_form_n_ok(n):
            return 2
        r_list = [math.ceil(n * math.log(n) + c * n) for c in c_list]
        # One stepped pass over the distinct r in ascending order serves every c.
        ascending = sorted(set(r_list))
        exact_at = dict(zip(ascending, snwalk.separation_closed_forms(n, ascending)))
        for c, r in zip(c_list, r_list):
            exact = exact_at[r]
            limit = snwalk.separation_profile(c)
            scaled = abs(float(exact) - limit) * n / math.log(n)
            rows.append(
                {
                    "n": n,
                    "c": c,
                    "r": r,
                    "s_float": float(exact),
                    "profile": limit,
                    "scaled_diff": scaled,
                }
            )
    if args.format == "json":
        _write_output(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        lines = ["n,c,r,s_float,profile,scaled_diff"]
        for row in rows:
            lines.append(
                f"{row['n']},{row['c']},{row['r']},"
                f"{format_float(row['s_float'])},{format_float(row['profile'])},"
                f"{format_float(row['scaled_diff'])}"
            )
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_occupancy(args) -> int:
    a, r, n = args.a, args.r, args.n
    if args.samples < 1 or args.streams < 1:
        print("error: samples and streams must be positive", file=sys.stderr)
        return 2
    per_stream = args.samples // args.streams
    counts = [per_stream] * args.streams
    counts[0] += args.samples - per_stream * args.streams
    estimates = []
    for stream, count in enumerate(counts):
        if count == 0:
            continue
        src = RandomSource(seed=args.seed, stream_id=stream)
        if args.q is None:
            estimates.append(occupancy.occupancy_mc(a, r, n, count, src))
        else:
            estimates.append(occupancy.qspan_mc(a, r, n, args.q, count, src))
    merged = merge_estimates(estimates)
    if args.q is None:
        exact = occupancy.occupancy_exact(a, r, n)
    else:
        exact = occupancy.qspan_exact(a, r, n, args.q)
    record = {"a": a, "r": r, "n": n}
    if args.q is not None:
        record["q"] = args.q
    record.update(
        {
            "exact": format_exact(exact),
            "estimate": merged.estimate,
            "stderr": merged.stderr,
            "samples": merged.samples,
            "seed": args.seed,
        }
    )
    _write_output(json.dumps(record) + "\n", args.out)
    return 0


def cmd_spectrum(args) -> int:
    if args.q is None:
        if not _closed_form_n_ok(args.n):
            return 2
        spectrum = snwalk.spectrum_sn(args.n)
    else:
        spectrum = glwalk.gl_spectrum(args.n, args.q)
    lines = ["eigenvalue_exact,eigenvalue_float,multiplicity"]
    for value, mult in spectrum.entries:
        lines.append(
            f"{format_exact(value)},{format_float(float(value))},"
            f"{'' if mult is None else mult}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _run_checks(checks) -> tuple[list[tuple[str, bool, str]], bool]:
    results = []
    all_ok = True
    for name, thunk in checks:
        try:
            thunk()
            results.append((name, True, ""))
        except Exception as exc:  # report and keep going
            results.append((name, False, str(exc)))
            all_ok = False
    return results, all_ok


def _sn_checks(n: int, r_max: int):
    @cache
    def get_kernel():
        return snwalk.build_kernel_characters(n)

    def kernel_routes():
        if snwalk.build_kernel_boxes(n).matrix != get_kernel().matrix:
            raise ConsistencyError(
                f"box-move kernel disagrees with character kernel at n={n}"
            )

    def eigenfunctions():
        k = get_kernel()
        t = character_table(n)
        for c in t.classes:
            vec = [
                Fraction(t.value(rho, c.cycle_type), t.dimension(rho))
                for rho in k.states
            ]
            eig = Fraction(c.fixed_points, n)
            for i in range(k.size):
                image = sum(k.matrix[i][j] * vec[j] for j in range(k.size))
                if image != eig * vec[i]:
                    raise ConsistencyError(
                        f"eigenfunction identity fails for class {c.cycle_type}"
                    )

    def spectrum_mass():
        snwalk.spectrum_sn(n)

    def four_routes():
        k = get_kernel()
        eigenvalues = snwalk.spectrum_sn(n).eigenvalues
        for r in range(r_max + 1):
            snwalk.separation_routes(n, r, k, eigenvalues)

    def extremality():
        k = get_kernel()
        for r in range(r_max + 1):
            snwalk.check_single_column_extremal(k, r)

    def tv_dominated():
        k = get_kernel()
        separations = snwalk.separation_closed_forms(n, range(r_max + 1))
        for r, separation in enumerate(separations):
            if snwalk.tv_exact(n, r, k) > separation:
                raise ConsistencyError(f"total variation exceeds separation at r={r}")

    def support_distance():
        k = get_kernel()
        d = interpolation.verify_distance(
            k, snwalk.trivial_shape(n), snwalk.sign_shape(n), eigenvalue_count=n
        )
        if d != n - 1:
            raise ConsistencyError(f"support distance is {d}, expected {n - 1}")

    def fixed_point_sums():
        t = character_table(n)
        for lam in enumerate_partitions(n):
            for i in range(n + 1):
                fixed_point_character_sum(n, lam, i, t)

    def signed_sums():
        t = character_table(n)
        for i in range(n):
            direct = sum(
                c.class_size * c.sign for c in t.classes if c.fixed_points == i
            )
            sums = {"classes": direct, "closed_form": signed_fixed_point_sum(n, i)}
            common_value(sums, f"the signed fixed point sum, n={n} i={i}")

    def tensor_powers():
        k = get_kernel()
        t = character_table(n)
        for lam in enumerate_partitions(n):
            for r in range(min(r_max, 12) + 1):
                snwalk.tensor_power_check(n, r, lam, k, t)

    checks = [
        (f"kernel route equality (n={n})", kernel_routes),
        (f"kernel validation: rows, stationarity, reversibility (n={n})", lambda: get_kernel().validate()),
        (f"rational eigenfunction identity (n={n})", eigenfunctions),
        (f"spectrum multiplicity total (n={n})", spectrum_mass),
        (f"four-route separation equality (n={n}, r<={r_max})", four_routes),
        (f"single-column extremality (n={n}, r<={r_max})", extremality),
        (f"total variation below separation (n={n}, r<={r_max})", tv_dominated),
        (f"support distance between extremes (n={n})", support_distance),
        (f"fixed point character sums, both routes (n={n})", fixed_point_sums),
        (f"signed fixed point sums vs closed form (n={n})", signed_sums),
    ]
    if n <= 7:
        checks.append((f"tensor power multiplicities (n={n}, r<=12)", tensor_powers))
    return checks


def _gl_checks(n: int, q: int, r_max: int):
    def three_routes():
        for r in range(r_max + 1):
            glwalk.gl_separation_exact(n, q, r)

    def early_saturation():
        for r in range(n):
            if glwalk.gl_separation_closed_form(n, q, r) != 1:
                raise ConsistencyError(f"separation below 1 at r={r} < n")

    def bounds():
        for c in range(7):
            glwalk.check_separation_within_bounds(n, q, c)

    def decreasing_terms():
        for c in range(7):
            glwalk.check_alternating_terms_decreasing(n, q, n + c)

    def families_exist():
        if (n, q) != (1, 2) and glwalk.count_gl_families(n, q, avoid_e=True) <= 0:
            raise ConsistencyError("no family avoids the unit cuspidal")

    def cuspidal_integrality():
        for m in range(1, 13):
            glwalk.cuspidal_count(m, q)

    return [
        (f"three-route separation equality (n={n}, q={q}, r<={r_max})", three_routes),
        (f"separation pinned at 1 before n steps (n={n}, q={q})", early_saturation),
        (f"separation inside bracketing bounds (n={n}, q={q}, c<=6)", bounds),
        (f"alternating terms strictly decreasing (n={n}, q={q})", decreasing_terms),
        (f"families avoiding the unit cuspidal exist (n={n}, q={q})", families_exist),
        (f"cuspidal count integrality (q={q}, m<=12)", cuspidal_integrality),
    ]


def cmd_crosscheck(args) -> int:
    n = args.n
    if args.q is None:
        if not 2 <= n <= PRACTICAL_MAX_N:
            print(
                f"error: need 2 <= n <= {PRACTICAL_MAX_N} for the full matrix",
                file=sys.stderr,
            )
            return 2
        r_max = args.rmax if args.rmax is not None else 4 * n
        checks = _sn_checks(n, r_max)
    else:
        r_max = args.rmax if args.rmax is not None else 3 * n
        checks = _gl_checks(n, args.q, r_max)
    results, all_ok = _run_checks(checks)
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, ok, message in results:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name.ljust(width)}"
        if message:
            line += f"  {message}"
        lines.append(line)
    lines.append(f"{'ALL PASS' if all_ok else 'FAILURES PRESENT'} ({len(results)} checks)")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorwalk",
        description=(
            "Exact separation and total-variation analysis of tensor-product "
            "random walks on irreducible representations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("sn-sep", help="separation curve for the symmetric group walk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rmax", type=_nonnegative_int, required=True)
    p.add_argument("--with-tv", action="store_true", help="append total variation rows")
    add_common(p)
    p.set_defaults(func=cmd_sn_sep)

    p = sub.add_parser("gl-sep", help="separation curve for the general linear walk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--rmax", type=_nonnegative_int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_gl_sep)

    p = sub.add_parser("profile", help="finite-size distance vs limiting profile")
    p.add_argument("--n", dest="n_list", type=_int_list, required=True,
                   help="comma-separated sizes")
    p.add_argument("--c", dest="c_list", type=_float_list, required=True,
                   help="comma-separated time offsets")
    add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("occupancy", help="Monte Carlo check of an occupancy law (JSON)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None,
                   help="prime field size; omit for balls-in-boxes")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_occupancy)

    p = sub.add_parser("crosscheck", help="run the route-equality matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--rmax", type=_nonnegative_int, default=None)
    # The report is always text; --format is accepted and ignored because
    # existing scripts (perfbench/workloads.py) pass it.
    add_common(p)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("spectrum", help="distinct eigenvalues of a walk (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
