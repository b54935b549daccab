"""Command-line front end: curves, cross-check reports, Monte Carlo records.

Exit codes: 0 on success, 1 when an exact consistency check fails, 2 on
usage errors. The parser checks every argument rule, so argparse reports
each usage error with its usage line; any other exception is an internal
error and propagates. Output is deterministic for a fixed flag set
(including the seed), so reruns are byte-identical.
"""

import argparse
import json
import marshal
import math
import os
import sys
from collections import Counter

from . import glwalk, interpolation, occupancy, snwalk
from .chains import SeparationCurve, format_exact, format_float, lowest_terms
from .characters import (
    character_table,
    fixed_point_character_sum,
    signed_fixed_point_sum,
)
from .combinat import enumerate_partitions, is_prime
from .errors import ConsistencyError, common_value

PRACTICAL_MAX_N = 10
CLOSED_FORM_MAX_N = 512
CHARACTER_KERNEL_INVALID = "character kernel invalid; see kernel validation"
# Estimated work of a second process, in bits of closed-form terms stepped
# (see `_term_bits`), below which its fork costs more than it saves. On a
# 2-vCPU VM the fork and exit cost about 2.5 ms, and `sn-sep` broke even
# near n = 60 to 100 (rmax = 5n, second halves of 5 to 21 million bits).
SECOND_PROCESS_MIN_WORK = 20_000_000
# A jump to a far r costs about as much as this many steps at that r
# (measured 5.6 at n = 128, 8.2 at n = 256 and 10.8 at n = 512).
JUMP_STEPS = 8


def _write_output(text: str, path: str | None) -> None:
    handle = sys.stdout if path is None else open(path, "w")
    try:
        # In slices, so a multi-megabyte output is never encoded whole.
        for start in range(0, len(text), 1 << 16):
            handle.write(text[start : start + (1 << 16)])
    finally:
        if path is not None:
            handle.close()


def _emit_curve(curve: SeparationCurve, fmt: str, out: str | None) -> None:
    curve.warn_if_not_monotone()
    _write_output(curve.to_csv() if fmt == "csv" else curve.to_json(), out)


def _second_process_pays(work: float) -> bool:
    """Whether to hand work of this estimated cost to a forked process.

    Only if it is at least SECOND_PROCESS_MIN_WORK, `os.fork` exists, two
    CPUs are ours, and this process has one OS thread: a thread holding a
    lock at the fork (numpy's BLAS pool starts some) could leave the child
    deadlocked.
    """
    if work < SECOND_PROCESS_MIN_WORK:
        return False
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _send_frame(pipe, value) -> None:
    data = marshal.dumps(value)
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)


def _receive_frame(pipe):
    header = pipe.read(8)
    size = int.from_bytes(header, "little")
    data = pipe.read(size)
    if len(header) < 8 or len(data) < size:
        raise RuntimeError("the second process ended before sending its result")
    return marshal.loads(data)


def _run_second(second, pipe) -> None:
    """Child side: run `second` and send its list of items, one frame each,
    after a status frame; or send why it failed."""
    try:
        items = second()
    except ConsistencyError as exc:
        _send_frame(pipe, ("consistency", str(exc)))
    except Exception:
        import traceback

        _send_frame(pipe, ("error", traceback.format_exc()))
    else:
        _send_frame(pipe, ("ok", len(items)))
        for item in items:
            _send_frame(pipe, item)
    pipe.flush()


def _in_two_processes(first, second) -> tuple:
    """(first(), second()), with `second` run in a forked process.

    Callers ask `_second_process_pays` first. `second` must return a list
    of values `marshal` can carry. The child sends them back over a pipe as
    length-prefixed `marshal` frames, read one at a time once `first` is
    done. A `ConsistencyError` in the child is raised again here with its
    message; any other error in the child raises `RuntimeError` with its
    traceback, and a child that dies fails the call the same way. The child
    is always reaped, and killed first if `first` or the transfer fails.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                _run_second(second, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            mine = first()
            kind, detail = _receive_frame(pipe)
            if kind == "consistency":
                raise ConsistencyError(detail)
            if kind == "error":
                raise RuntimeError(f"the second process failed:\n{detail}")
            theirs = [_receive_frame(pipe) for _ in range(detail)]
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    return mine, theirs


def _term_bits(n: int, r: int) -> float:
    """Bits of the n - 1 closed-form terms at step r: the unit of work estimates."""
    return (n - 1) * r * math.log2(n)


def cmd_sn_sep(args) -> int:
    n, r_max = args.n, args.rmax
    curve = SeparationCurve(n=n)
    if n <= PRACTICAL_MAX_N:
        for r in range(r_max + 1):
            for route, value in snwalk.separation_routes(n, r).items():
                curve.add(r, value, route)
            if args.with_tv:
                curve.add(r, snwalk.tv_exact(n, r), "total_variation")
    else:
        # A step costs about its r, so the rows past (r_max + 1) / sqrt(2)
        # carry half the stepped work; a second process takes them.
        split = round((r_max + 1) / math.sqrt(2))
        if _second_process_pays(_term_bits(n, r_max + 1) * (r_max + 1 - split) / 2):
            lower, upper = _in_two_processes(
                lambda: list(snwalk.separation_closed_forms(n, range(split))),
                lambda: [
                    (value.numerator, value.denominator)
                    for value in snwalk.separation_closed_forms(n, range(split, r_max + 1))
                ],
            )
            values = [*lower, *(lowest_terms(*pair) for pair in upper)]
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


def _profile_step(n: int, c: float) -> int:
    """The step count r = ceil(n ln n + c n) at which `profile` reads offset c."""
    return math.ceil(n * math.log(n) + c * n)


def _separation_floats(points) -> list[float]:
    """float(s) at each (n, r) of `points`, sorted; one stepped pass per n."""
    values = []
    for n in sorted({n for n, _ in points}):
        values += map(float, snwalk.separation_closed_forms(n, [r for m, r in points if m == n]))
    return values


def cmd_profile(args) -> int:
    n_list, c_list = args.n_list, args.c_list
    # Each distinct (n, r), dearest first, goes to the process with less
    # work; the points lie far apart, so each costs about one jump.
    points = sorted({(n, _profile_step(n, c)) for n in n_list for c in c_list})
    shares, work = ([], []), [0.0, 0.0]
    for point in sorted(points, key=lambda p: _term_bits(*p), reverse=True):
        side = work[1] < work[0]
        shares[side].append(point)
        work[side] += JUMP_STEPS * _term_bits(*point)
    if _second_process_pays(work[1]):
        mine, theirs = sorted(shares[0]), sorted(shares[1])
        first, second = _in_two_processes(
            lambda: _separation_floats(mine), lambda: _separation_floats(theirs)
        )
        exact_float = dict(zip(mine + theirs, first + second))
    else:
        exact_float = dict(zip(points, _separation_floats(points)))
    rows = []
    for n in n_list:
        for c in c_list:
            r = _profile_step(n, c)
            s_float = exact_float[n, r]
            limit = snwalk.separation_profile(c)
            scaled = abs(s_float - limit) * n / math.log(n)
            rows.append(
                {
                    "n": n,
                    "c": c,
                    "r": r,
                    "s_float": s_float,
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
    a, r, n, q = args.a, args.r, args.n, args.q
    if q is None:
        estimate = occupancy.occupancy_mc(a, r, n, args.samples, args.seed)
        exact = occupancy.occupancy_exact(a, r, n)
    else:
        estimate = occupancy.qspan_mc(a, r, n, q, args.samples, args.seed)
        exact = occupancy.qspan_exact(a, r, n, q)
    record = {"a": a, "r": r, "n": n}
    if q is not None:
        record["q"] = q
    record.update(
        {
            "exact": format_exact(exact),
            "estimate": estimate.estimate,
            "stderr": estimate.stderr,
            "samples": estimate.samples,
            "seed": args.seed,
        }
    )
    _write_output(json.dumps(record) + "\n", args.out)
    return 0


def cmd_spectrum(args) -> int:
    if args.q is None:
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
        except ConsistencyError as exc:  # report and keep going
            results.append((name, False, str(exc)))
            all_ok = False
    return results, all_ok


def _sn_checks(n: int, r_max: int):
    def character_kernel():
        # The kernel validates itself when built. `kernel validation` reports
        # why it is invalid; every other check that reads it fails with one
        # fixed message, so one defect is not reported under many names.
        try:
            return snwalk.build_kernel_characters(n)
        except ConsistencyError as exc:
            raise ConsistencyError(CHARACTER_KERNEL_INVALID) from exc

    def kernel_routes():
        characters = character_kernel()
        try:
            boxes = snwalk.build_kernel_boxes(n)
        except ConsistencyError as exc:
            raise ConsistencyError(f"box-move kernel invalid at n={n}: {exc}") from exc
        if (boxes.scale, boxes.scaled_rows) != (characters.scale, characters.scaled_rows):
            raise ConsistencyError(
                f"box-move kernel disagrees with character kernel at n={n}"
            )

    def eigenfunctions():
        # chi/d is an eigenfunction with eigenvalue fixed_points/n; scaled by
        # L, the lcm of the dimensions, into integers w, the identity reads
        # n D K w = D fixed_points w.
        k = character_kernel()
        t = character_table(n)
        dims = [t.dimension(rho) for rho in k.states]
        dims_lcm = math.lcm(*dims)
        for c in t.classes:
            vec = [
                t.value(rho, c.cycle_type) * (dims_lcm // d) for rho, d in zip(k.states, dims)
            ]
            eig = k.scale * c.fixed_points
            if any(n * x != eig * v for x, v in zip(k.scaled_image(vec), vec)):
                raise ConsistencyError(
                    f"eigenfunction identity fails for class {c.cycle_type}"
                )

    def spectrum_mass():
        # the multiplicity of i/n counts the classes with i fixed points
        spectrum = {int(value * n): mult for value, mult in snwalk.spectrum_sn(n).entries}
        if spectrum != Counter(c.fixed_points for c in character_table(n).classes):
            raise ConsistencyError("spectrum multiplicities differ from the class census")

    def four_routes():
        for r in range(r_max + 1):
            snwalk.separation_routes(n, r)

    def extremality():
        snwalk.check_single_column_extremal(character_kernel(), r_max)

    def tv_dominated():
        separations = snwalk.separation_closed_forms(n, range(r_max + 1))
        for r, separation in enumerate(separations):
            if snwalk.tv_exact(n, r) > separation:
                raise ConsistencyError(f"total variation exceeds separation at r={r}")

    def support_distance():
        k = character_kernel()
        try:
            d = interpolation.verify_distance(
                k, snwalk.trivial_shape(n), snwalk.sign_shape(n), eigenvalue_count=n
            )
        except ValueError as exc:  # the kernel failed its ergodicity check
            raise ConsistencyError(str(exc)) from exc
        if d != n - 1:
            raise ConsistencyError(f"support distance is {d}, expected {n - 1}")

    def fixed_point_sums():
        for lam in enumerate_partitions(n):
            for i in range(n + 1):
                fixed_point_character_sum(n, lam, i)

    def signed_sums():
        t = character_table(n)
        for i in range(n):
            direct = sum(
                c.class_size * c.sign for c in t.classes if c.fixed_points == i
            )
            sums = {"classes": direct, "closed_form": signed_fixed_point_sum(n, i)}
            common_value(sums, f"the signed fixed point sum, n={n} i={i}")

    tensor_r_max = min(r_max, 12)

    def tensor_powers():
        # r outside, so the box walk steps up once instead of once per shape
        shapes = enumerate_partitions(n)
        for r in range(tensor_r_max + 1):
            for lam in shapes:
                snwalk.tensor_power_check(n, r, lam)

    checks = [
        (f"kernel route equality (n={n})", kernel_routes),
        (
            f"kernel validation: rows, stationarity, reversibility (n={n})",
            lambda: snwalk.build_kernel_characters(n).validate(),
        ),
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
        checks.append(
            (f"tensor power multiplicities (n={n}, r<={tensor_r_max})", tensor_powers)
        )
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

    return [
        (f"three-route separation equality (n={n}, q={q}, r<={r_max})", three_routes),
        (f"separation pinned at 1 before n steps (n={n}, q={q})", early_saturation),
        (f"separation inside bracketing bounds (n={n}, q={q}, c<=6)", bounds),
        (f"alternating terms strictly decreasing (n={n}, q={q})", decreasing_terms),
    ]


def cmd_crosscheck(args) -> int:
    n = args.n
    if args.q is None:
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
        line = f"{status}  {name}"
        if message:  # names are padded only to align the messages after them
            line = f"{status}  {name.ljust(width)}  {message}"
        lines.append(line)
    lines.append(f"{'ALL PASS' if all_ok else 'FAILURES PRESENT'} ({len(results)} checks)")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def _checked(parse, ok, rule: str):
    """Argument type: `parse` the text, then reject a value failing `ok` with `rule`."""

    def convert(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    convert.__name__ = parse.__name__  # argparse names the type in "invalid ..."
    return convert


def _file_path(path: str) -> bool:
    """Whether `open(path, "w")` can take `path`: it is not empty, its
    directory exists, and it is not a directory itself."""
    return path != "" and os.path.isdir(os.path.dirname(path) or ".") and not os.path.isdir(path)


def _list_of(item):
    """Argument type: comma-separated values of type `item`, at least one."""

    def convert(text: str) -> list:
        values = [item(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"need at least one value, got {text!r}")
        return values

    convert.__name__ = f"{item.__name__} list"
    return convert


class _Command(argparse.ArgumentParser):
    """A subcommand parser that also checks its `rule` default, if it has one.

    `rule(args)` says what is wrong with the parsed arguments, or returns None.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        problem = getattr(namespace, "rule", None) and namespace.rule(namespace)
        if problem:
            self.error(problem)
        return namespace, extras


def _gl_rule(args):
    if (args.n, args.q) == (1, 2):
        return "the walk on GL(1, 2) is excluded"


def _sn_or_gl_rule(max_n: int, scope: str = ""):
    """Rule for a command on Irr(S_n), or on Irr(GL(n, q)) when --q is given."""

    def rule(args):
        if args.q is not None:
            return _gl_rule(args)
        if not 2 <= args.n <= max_n:
            return f"need 2 <= n <= {max_n}{scope}, got {args.n}"

    return rule


def _sn_sep_rule(args):
    if args.with_tv and args.n > PRACTICAL_MAX_N:
        return f"--with-tv needs n <= {PRACTICAL_MAX_N}, got {args.n}"


def _profile_rule(args):
    for n in args.n_list:
        for c in args.c_list:
            if not math.isfinite(n * math.log(n) + c * n):
                return f"need n ln n + c n finite, got n = {n}, c = {c}"
            if (r := _profile_step(n, c)) < 0:
                return f"need r >= 0, got r = ceil(n ln n + c n) = {r} at n = {n}, c = {c}"
            # Twice the cutoff step is far past the window the profile describes.
            if r > (cap := 2 * _profile_step(n, 0)):
                return (
                    f"need r <= 2 ceil(n ln n) = {cap}, "
                    f"got r = ceil(n ln n + c n) = {r} at n = {n}, c = {c}"
                )


def _occupancy_rule(args):
    if args.a > args.n:
        return f"need a <= n, got a = {args.a} > n = {args.n}"
    if args.q is None and args.n < 1:
        return f"need n >= 1 without --q, got {args.n}"
    if args.q is None and args.n > 2**63:  # numpy draws box labels as int64
        return f"need n <= 2^63 without --q, got {args.n}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorwalk",
        description=(
            "Exact separation and total-variation analysis of tensor-product "
            "random walks on irreducible representations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    count = _checked(int, lambda v: v >= 0, "must be >= 0")
    sn_n = _checked(int, lambda n: 2 <= n <= CLOSED_FORM_MAX_N,
                    f"need 2 <= n <= {CLOSED_FORM_MAX_N}")
    gl_n = _checked(int, lambda n: n >= 1, "need n >= 1")
    gl_q = _checked(_checked(int, lambda q: q >= 2, "need q >= 2"),
                    glwalk.is_prime_power, "need q to be a prime power")

    out_path = _checked(str, _file_path, "need a file path in an existing directory")

    def add_out(p):
        p.add_argument("--out", type=out_path, default=None,
                       help="output path (default stdout)")

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        add_out(p)

    p = sub.add_parser("sn-sep", help="separation curve for the symmetric group walk")
    p.add_argument("--n", type=sn_n, required=True)
    p.add_argument("--rmax", type=count, required=True)
    p.add_argument("--with-tv", action="store_true",
                   help=f"append total variation rows (n <= {PRACTICAL_MAX_N})")
    add_common(p)
    p.set_defaults(func=cmd_sn_sep, rule=_sn_sep_rule)

    p = sub.add_parser("gl-sep", help="separation curve for the general linear walk")
    p.add_argument("--n", type=gl_n, required=True)
    p.add_argument("--q", type=gl_q, required=True)
    p.add_argument("--rmax", type=count, required=True)
    add_common(p)
    p.set_defaults(func=cmd_gl_sep, rule=_gl_rule)

    p = sub.add_parser("profile", help="finite-size distance vs limiting profile")
    p.add_argument("--n", dest="n_list", type=_list_of(sn_n), required=True,
                   help="comma-separated sizes")
    p.add_argument("--c", dest="c_list", required=True,
                   help="comma-separated time offsets; each step count "
                   "r = ceil(n ln n + c n) must lie in [0, 2 ceil(n ln n)]",
                   type=_list_of(_checked(float, math.isfinite, "need finite values")))
    add_common(p)
    p.set_defaults(func=cmd_profile, rule=_profile_rule)

    p = sub.add_parser("occupancy", help="Monte Carlo check of an occupancy law (JSON)")
    p.add_argument("--a", type=count, required=True)
    p.add_argument("--r", type=count, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_checked(int, is_prime, "need q to be prime"), default=None,
                   help="prime field size; omit for balls-in-boxes")
    p.add_argument("--samples", type=_checked(int, lambda v: v >= 1, "must be >= 1"),
                   default=100_000)
    p.add_argument("--seed", type=count, default=0)
    add_out(p)
    p.set_defaults(func=cmd_occupancy, rule=_occupancy_rule)

    p = sub.add_parser("crosscheck", help="run the route-equality matrix")
    p.add_argument("--n", type=gl_n, required=True)
    p.add_argument("--q", type=gl_q, default=None)
    p.add_argument("--rmax", type=count, default=None)
    # The report is always text; --format is accepted and ignored because
    # existing scripts (perfbench/workloads.py) pass it.
    add_common(p)
    p.set_defaults(
        func=cmd_crosscheck, rule=_sn_or_gl_rule(PRACTICAL_MAX_N, " for the full matrix")
    )

    p = sub.add_parser("spectrum", help="distinct eigenvalues of a walk (CSV)")
    p.add_argument("--n", type=gl_n, required=True)
    p.add_argument("--q", type=gl_q, default=None)
    add_out(p)
    p.set_defaults(func=cmd_spectrum, rule=_sn_or_gl_rule(CLOSED_FORM_MAX_N))

    return parser


def main(argv=None) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
