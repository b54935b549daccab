"""Command-line front end: curves, cross-check reports, Monte Carlo records.

Exit codes: 0 on success, 1 when an exact consistency check fails, 2 on
usage errors. The parser checks every argument rule, so argparse reports
each usage error with its usage line; any other exception is an internal
error and propagates. Output is deterministic for a fixed flag set
(including the seed), so reruns are byte-identical.
"""

import argparse
import functools
import marshal
import math
import os
import sys

from . import glwalk, occupancy, snwalk
from .chains import SeparationCurve, format_exact, format_float
from .combinat import is_prime
from .errors import ConsistencyError

PRACTICAL_MAX_N = 10
CLOSED_FORM_MAX_N = 512
# Estimated work of a second process, in bits of closed-form terms stepped
# (see `_row_cost`), below which its fork costs more than it saves. On a
# 2-vCPU VM the fork and exit cost about 2.5 ms, and `sn-sep --rmax 5n`
# lost about 20 % at n = 70 (a second share of 65 million bits), gained 4 %
# at n = 80 (83 million) and 26 % at n = 100 (best of 9 fresh processes).
SECOND_PROCESS_MIN_WORK = 75_000_000
# `format_exact` of a row of b-bit numbers costs as much as stepping about
# b^2 / FORMAT_BITS bits (CPython 3.11's int-to-str is quadratic), and the
# rest of a row's own work (its reduction from a residue of about 1024 bits,
# its float, its check and its text) about ROW_BITS bits. Fitted to where the
# two processes' rows take equally long (CPU time in one process, the two
# pieces alternating): 0.68 of the rows to ceil(n ln n) at n = 128, 0.73 at
# n = 200, and 0.76 of 3301 rows at n = 512.
FORMAT_BITS = 34
ROW_BITS = 250_000
# A jump to a far r costs about as much as this many steps at that r
# (measured 6.4 at n = 128, 5.8 at n = 200 and 7.9 at n = 512).
JUMP_STEPS = 8


def _write_output(chunks, path: str | None) -> None:
    """Write the strings of `chunks` in turn to `path`, or to stdout."""
    handle = sys.stdout if path is None else open(path, "w")
    try:
        handle.writelines(chunks)
    finally:
        if path is not None:
            handle.close()


def _emit_curve(curve: SeparationCurve, fmt: str, out: str | None) -> None:
    curve.warn_if_not_monotone()
    _write_output(curve.csv_lines() if fmt == "csv" else curve.json_chunks(), out)


def _second_process_pays(work: float) -> bool:
    """Whether to hand work of this estimated cost to a forked process.

    Only if it is at least SECOND_PROCESS_MIN_WORK, `os.fork` exists, two
    CPUs are ours, and this process has one OS thread: a thread holding a
    lock at the fork (numpy's BLAS pool starts some) could leave the child
    deadlocked.
    """
    if work < SECOND_PROCESS_MIN_WORK or not hasattr(os, "fork"):
        return False
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
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
        os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        os.waitpid(pid, 0)
    return mine, theirs


def _term_bits(n: int, r: int) -> float:
    """Bits of the n - 1 closed-form terms at step r: the unit of work estimates."""
    return (n - 1) * r * math.log2(n)


def _row_cost(n: int, r: int) -> float:
    """Estimated work of closed-form row r: stepping its terms, then checking
    and formatting it."""
    return _term_bits(n, r) + ROW_BITS + (r * math.log2(n)) ** 2 / FORMAT_BITS


def _split_row(n: int, r_max: int) -> tuple[int, float]:
    """Where a second process starts on the rows 0..r_max, and its work.

    It takes rows from the top while its work, their `_row_cost`s plus the
    jump to its first row, stays below that of the rows left below.
    """
    costs = [_row_cost(n, r) for r in range(r_max + 1)]
    split, upper, lower = r_max + 1, 0.0, sum(costs)
    while split and upper + 2 * costs[split - 1] + JUMP_STEPS * _term_bits(n, split - 1) <= lower:
        split -= 1
        upper, lower = upper + costs[split], lower - costs[split]
    return split, upper + JUMP_STEPS * _term_bits(n, split)


def cmd_sn_sep(args) -> int:
    n, r_max, fmt = args.n, args.rmax, args.format
    if n > PRACTICAL_MAX_N:
        # Each process checks and renders the rows it computes. Imported
        # here, so `import tensorwalk.cli` does not compile it.
        from . import closedcurve

        split, work = _split_row(n, r_max)
        if _second_process_pays(work):
            pieces = _in_two_processes(
                lambda: closedcurve.piece(n, range(split), fmt),
                lambda: closedcurve.piece(n, range(split, r_max + 1), fmt),
            )
        else:
            pieces = [closedcurve.piece(n, range(r_max + 1), fmt)]
        _write_output(closedcurve.document(pieces, n, fmt), args.out)
        return 0
    curve = SeparationCurve(n=n)
    for r, routes in enumerate(snwalk.separations_by_route(n, range(r_max + 1))):
        for route, value in routes.items():
            curve.add(r, value, route)
        if args.with_tv:
            curve.add(r, snwalk.tv_exact(n, r), "total_variation")
    _emit_curve(curve, fmt, args.out)
    return 0


def cmd_gl_sep(args) -> int:
    n, q, r_max = args.n, args.q, args.rmax
    curve = SeparationCurve(n=n, q=q)
    for r, routes in enumerate(glwalk.gl_separations_by_route(n, q, range(r_max + 1))):
        for route, value in routes.items():
            curve.add(r, value, route)
    _emit_curve(curve, args.format, args.out)
    return 0


def _json_fields(record: dict) -> list[str]:
    """The `"key": value` pairs of `record` as `json.dumps` writes them. Every
    value is an int, a finite float (written by `repr`, as `json` does) or a
    string that needs no escaping, such as a "num/den" fraction."""
    return [
        f'"{key}": "{value}"' if isinstance(value, str) else f'"{key}": {value!r}'
        for key, value in record.items()
    ]


def _json_line(record: dict) -> str:
    """`json.dumps(record)` and a newline."""
    return "{" + ", ".join(_json_fields(record)) + "}\n"


def _json_list(records: list[dict]) -> str:
    """`json.dumps(records, indent=2)` and a newline, for records that are
    not empty in a list that is not empty."""
    return "[\n" + ",\n".join(
        "  {\n    " + ",\n    ".join(_json_fields(record)) + "\n  }" for record in records
    ) + "\n]\n"


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
    # Imported here, so `import tensorwalk.cli` does not compile it.
    from .bracket import separation_float

    n_list, c_list = args.n_list, args.c_list
    points = sorted({(n, _profile_step(n, c)) for n in n_list for c in c_list})
    exact_float = {point: separation_float(*point) for point in points}
    # The exact sums read the points whose bracket pins no float.
    unpinned = [point for point, value in exact_float.items() if value is None]
    exact_float.update(zip(unpinned, _separation_floats(unpinned)))
    rows = []  # (n, c, r, s_float, profile, scaled_diff)
    for n in n_list:
        for c in c_list:
            r = _profile_step(n, c)
            s_float, limit = exact_float[n, r], snwalk.separation_profile(c)
            rows.append((n, c, r, s_float, limit, abs(s_float - limit) * n / math.log(n)))
    keys = ("n", "c", "r", "s_float", "profile", "scaled_diff")
    if args.format == "json":
        text = _json_list([dict(zip(keys, row)) for row in rows])
    else:
        text = ",".join(keys) + "\n" + "".join(
            f"{n},{c},{r},{','.join(map(format_float, floats))}\n" for n, c, r, *floats in rows
        )
    _write_output([text], args.out)
    return 0


def cmd_occupancy(args) -> int:
    a, r, n, q = args.a, args.r, args.n, args.q
    if q is None:
        estimate = occupancy.occupancy_mc(a, r, n, args.samples, args.seed)
        exact = occupancy.occupancy_exact(a, r, n)
    else:
        estimate = occupancy.qspan_mc(a, r, n, q, args.samples, args.seed)
        exact = occupancy.qspan_exact(a, r, n, q)
    record = {"a": a, "r": r, "n": n, **({} if q is None else {"q": q})}
    record.update(
        exact=format_exact(exact), estimate=estimate.estimate, stderr=estimate.stderr,
        samples=estimate.samples, seed=args.seed,
    )
    _write_output([_json_line(record)], args.out)
    return 0


def cmd_spectrum(args) -> int:
    if args.q is None:
        spectrum = snwalk.spectrum_sn(args.n)
    else:
        spectrum = glwalk.gl_spectrum(args.n, args.q)
    lines = ["eigenvalue_exact,eigenvalue_float,multiplicity"] + [
        f"{format_exact(value)},{format_float(float(value))},{'' if mult is None else mult}"
        for value, mult in spectrum.entries
    ]
    _write_output((line + "\n" for line in lines), args.out)
    return 0


def cmd_crosscheck(args) -> int:
    # Imported here, so `import tensorwalk.cli` does not compile it.
    from .checks import _gl_checks, _run_checks, _sn_checks

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
    _write_output((line + "\n" for line in lines), args.out)
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
    """A subcommand parser that makes its arguments when it first parses, and
    then also checks its `rule` default, if it has one.

    `arguments(parser)` makes the `add_argument` calls, so a process builds
    the arguments of the one command it runs. `rule(args)` says what is wrong
    with the parsed arguments, or returns None.
    """

    def __init__(self, *args, arguments, **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            self._arguments(self)
            self._arguments = None
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


@functools.cache
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
        p.add_argument("--out", type=out_path, default=None, help="output path (default stdout)")

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        add_out(p)

    def sn_sep_args(p):
        p.add_argument("--n", type=sn_n, required=True)
        p.add_argument("--rmax", type=count, required=True)
        p.add_argument("--with-tv", action="store_true",
                       help=f"append total variation rows (n <= {PRACTICAL_MAX_N})")
        add_common(p)

    p = sub.add_parser("sn-sep", help="separation curve for the symmetric group walk",
                       arguments=sn_sep_args)
    p.set_defaults(func=cmd_sn_sep, rule=_sn_sep_rule)

    def gl_sep_args(p):
        p.add_argument("--n", type=gl_n, required=True)
        p.add_argument("--q", type=gl_q, required=True)
        p.add_argument("--rmax", type=count, required=True)
        add_common(p)

    p = sub.add_parser("gl-sep", help="separation curve for the general linear walk",
                       arguments=gl_sep_args)
    p.set_defaults(func=cmd_gl_sep, rule=_gl_rule)

    def profile_args(p):
        p.add_argument("--n", dest="n_list", type=_list_of(sn_n), required=True,
                       help="comma-separated sizes")
        p.add_argument("--c", dest="c_list", required=True,
                       help="comma-separated time offsets; each step count "
                       "r = ceil(n ln n + c n) must lie in [0, 2 ceil(n ln n)]",
                       type=_list_of(_checked(float, math.isfinite, "need finite values")))
        add_common(p)

    p = sub.add_parser("profile", help="finite-size distance vs limiting profile",
                       arguments=profile_args)
    p.set_defaults(func=cmd_profile, rule=_profile_rule)

    def occupancy_args(p):
        p.add_argument("--a", type=count, required=True)
        p.add_argument("--r", type=count, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=_checked(int, is_prime, "need q to be prime"), default=None,
                       help="prime field size; omit for balls-in-boxes")
        p.add_argument("--samples", type=_checked(int, lambda v: v >= 1, "must be >= 1"),
                       default=100_000)
        p.add_argument("--seed", type=count, default=0)
        add_out(p)

    p = sub.add_parser("occupancy", help="Monte Carlo check of an occupancy law (JSON)",
                       arguments=occupancy_args)
    p.set_defaults(func=cmd_occupancy, rule=_occupancy_rule)

    def crosscheck_args(p):
        p.add_argument("--n", type=gl_n, required=True)
        p.add_argument("--q", type=gl_q, default=None)
        p.add_argument("--rmax", type=count, default=None)
        # The report is always text; --format is accepted and ignored because
        # existing scripts (perfbench/workloads.py) pass it.
        add_common(p)

    p = sub.add_parser("crosscheck", help="run the route-equality matrix",
                       arguments=crosscheck_args)
    p.set_defaults(
        func=cmd_crosscheck, rule=_sn_or_gl_rule(PRACTICAL_MAX_N, " for the full matrix")
    )

    def spectrum_args(p):
        p.add_argument("--n", type=gl_n, required=True)
        p.add_argument("--q", type=gl_q, default=None)
        add_out(p)

    p = sub.add_parser("spectrum", help="distinct eigenvalues of a walk (CSV)",
                       arguments=spectrum_args)
    p.set_defaults(func=cmd_spectrum, rule=_sn_or_gl_rule(CLOSED_FORM_MAX_N))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
