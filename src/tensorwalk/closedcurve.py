"""The closed-form S_n separation curve of `sn-sep`, checked and rendered in pieces.

A piece is the curve's rows at consecutive r, checked and rendered by the
process that computed them: the list [first, last, rises, *chunks]. `first`
and `last` are the (r, numerator, denominator, float) of its end rows,
`rises` the (route, r_prev, r) at which its value increased with r, and
`chunks` the text of its rows in the requested format, joined about
CHUNK_CHARS characters at a time. A piece holds only lists, tuples, ints,
floats and strings, so `marshal` carries it from a second process, one
frame per item. `cli` imports this module in `cmd_sn_sep` only, so
`import tensorwalk.cli` does not compile it.
"""

from itertools import chain, pairwise

from . import snwalk
from .chains import (
    JSON_TAIL,
    check_distance,
    csv_head,
    csv_row,
    format_exact,
    json_head,
    json_row,
    warn_of_rises,
)

ROUTE = "closed_form"
CHUNK_CHARS = 1 << 16


def _rises(before, after) -> bool:
    """Whether the row `after` holds a larger value than the row `before`.

    The floats decide: they are correctly rounded, so they keep the exact
    order whenever they differ. The exact values, compared as integers,
    decide only between equal floats.
    """
    (_, a, b, x), (_, c, d, y) = before, after
    return y > x or (y == x and c * b > a * d)


def piece(n: int, rs, fmt: str) -> list:
    """The piece of the rows at the consecutive ascending `rs`, in one
    stepped pass of `snwalk.separation_closed_forms`.

    Raises ConsistencyError at the first value outside [0, 1]. In JSON every
    row but the curve's first, at r = 0, starts with the comma that
    separates it from the row before.
    """
    rises, chunks, pending, size = [], [], [], 0
    first = row = None
    for r, value in zip(rs, snwalk.separation_closed_forms(n, rs)):
        check_distance(r, value, ROUTE)
        text, float_value = format_exact(value), float(value)
        before, row = row, (r, value.numerator, value.denominator, float_value)
        if before is None:
            first = row
        elif _rises(before, row):
            rises.append((ROUTE, before[0], r))
        if fmt == "csv":
            line = csv_row(r, text, float_value, ROUTE)
        else:
            line = ("," if r else "") + json_row(r, text, float_value, ROUTE)
        pending.append(line)
        size += len(line)
        if size >= CHUNK_CHARS:
            chunks.append("".join(pending))
            pending, size = [], 0
    chunks.append("".join(pending))
    return [first, row, rises, *chunks]


def document(pieces: list, n: int, fmt: str):
    """The chunks of the curve made of `pieces`, given in ascending r.

    First writes one WARNING line on stderr per rise, in ascending r: those
    each piece found, and one where a piece's first row rises above the last
    row of the piece before.
    """
    rises = list(pieces[0][2])
    for (_, last, *_), (first, _, later, *_) in pairwise(pieces):
        if _rises(last, first):
            rises.append((ROUTE, last[0], first[0]))
        rises += later
    warn_of_rises(rises)
    head, tail = (csv_head(None), "") if fmt == "csv" else (json_head(n, None), JSON_TAIL)
    return chain([head], *(part[3:] for part in pieces), [tail])
