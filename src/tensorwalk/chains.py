"""Chain-level containers: exact kernels, spectra, separation curves."""

import io
import json
import math
import numbers
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError
from .linalg import identity_matrix, mat_mul


def format_exact(value: Fraction) -> str:
    """Stable "num/den" serialization of an exact rational of any size."""
    # Python 3.11+ (and security releases of older lines) refuse int->str
    # conversions above 4300 digits; exact values near the cutoff at n = 512
    # have more. The limit is lifted for this conversion only.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    previous = get_limit() if get_limit else 0
    if previous:
        sys.set_int_max_str_digits(0)
    try:
        return f"{value.numerator}/{value.denominator}"
    finally:
        if previous:
            sys.set_int_max_str_digits(previous)


class _LowestTerms:
    """A numerator and a positive denominator already in lowest terms.

    Registered as a `numbers.Rational`, so `Fraction(x)` copies the two
    fields through its documented Rational path without a gcd.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_LowestTerms)


def lowest_terms(numerator: int, denominator: int) -> Fraction:
    """The `Fraction` numerator / denominator, taking no gcd.

    For a pair already in lowest terms with a positive denominator, such as
    the `numerator` and `denominator` of another `Fraction`.
    """
    return Fraction(_LowestTerms(numerator, denominator))


@lru_cache(maxsize=32)
def _power(base: int, exponent: int) -> int:
    """base**exponent, kept for the few moduli `reduced_over_power` tries."""
    return base**exponent


def reduced_over_power(
    numerator: int, base: int, exponent: int, power: int | None = None
) -> Fraction:
    """numerator / base**exponent in lowest terms, reduced from a small residue.

    Equal to `Fraction(numerator, base**exponent)`. Every prime of the
    denominator divides `base`, so gcd(numerator, base**exponent) equals
    g = gcd(numerator mod base**k, base**k) for any k <= exponent with
    numerator / g coprime to `base`. k starts where base**k has about 1024
    bits and doubles while that fails, so the gcd runs on numbers of about
    a thousand bits, not on the whole numerator; the reduced pair is handed
    to `Fraction` by `lowest_terms`, which does not reduce again. Once k
    passes half the exponent, where the residue saves less than it costs,
    `Fraction` reduces by the full gcd itself; small values start there.

    `power`, if given, must be base**exponent: a caller stepping through
    exponents carries it, one big-by-small multiply per step, instead of
    having it built here.
    """
    if base < 2 or exponent < 0:
        raise ValueError("need base >= 2 and exponent >= 0")
    if power is None:
        power = base**exponent
    k = max(1, 1024 // base.bit_length())
    while 2 * k <= exponent:
        modulus = _power(base, k)
        divisor = math.gcd(numerator % modulus, modulus)
        quotient = numerator // divisor
        if math.gcd(quotient % base, base) == 1:
            return lowest_terms(quotient, power // divisor)
        k *= 2
    return Fraction(numerator, power)


def format_float(value: float) -> str:
    return f"{value:.17g}"


class TransitionKernel:
    """Reversible stochastic kernel over exact rationals, given by sparse rows.

    States are arbitrary hashable labels. `rows[i]` maps a target index j to
    K[i][j]; zero entries may be left out, and explicit zeros are dropped.
    Construction validates exact row sums, stationarity normalization and
    detailed balance, so any kernel that exists is reversible.

    The kernel is kept scaled once by D (`scale`), the lcm of its entry
    denominators, as sparse integer rows (`scaled_rows`, one (j, D K[i][j])
    per nonzero entry, sorted by j). Validation runs in integers over these
    rows, and `scaled_image` is the walk operator: it applies D K to an
    integer vector over the nonzeros, so r applications give D^r K^r v
    with no matrix power formed. No k x k object exists until `power`, the
    dense exact reference, is called.
    """

    def __init__(self, states, rows, stationary):
        self.states = tuple(states)
        self.stationary = tuple(Fraction(x) for x in stationary)
        self._state_index = {s: i for i, s in enumerate(self.states)}
        if len(self._state_index) != len(self.states):
            raise ValueError("duplicate state labels")
        entries = [
            sorted((j, Fraction(x)) for j, x in row.items() if x) for row in rows
        ]
        self.scale = math.lcm(*(x.denominator for row in entries for _, x in row))
        self.scaled_rows = tuple(
            tuple((j, x.numerator * (self.scale // x.denominator)) for j, x in row)
            for row in entries
        )
        self._powers = []
        self.validate()

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        return self._state_index[state]

    def validate(self) -> None:
        """Check the kernel in integers over its nonzero scaled entries a_ij.

        Each a_ij is non-negative and each row sums to D. The stationary
        weights w_i over their common denominator W are non-negative and sum
        to W. Detailed balance is w_i a_ij = w_j a_ji at every nonzero a_ij,
        with an absent a_ji read as 0, so a one-way edge fails.
        """
        n = self.size
        if len(self.scaled_rows) != n or len(self.stationary) != n:
            raise ValueError("dimension mismatch")
        if any(j not in range(n) for row in self.scaled_rows for j, _ in row):
            raise ValueError("target index out of range")
        for i, row in enumerate(self.scaled_rows):
            if any(a < 0 for _, a in row):
                raise ConsistencyError(f"negative entry in row {self.states[i]}")
            if sum(a for _, a in row) != self.scale:
                raise ConsistencyError(f"row {self.states[i]} does not sum to 1")
        total = math.lcm(*(p.denominator for p in self.stationary))
        weights = [p.numerator * (total // p.denominator) for p in self.stationary]
        if any(w < 0 for w in weights) or sum(weights) != total:
            raise ConsistencyError("stationary vector does not sum to 1")
        entries = [dict(row) for row in self.scaled_rows]
        # The first failing pair in the order of (smaller index, larger index).
        failure = min(
            (
                (min(i, j), max(i, j))
                for i, row in enumerate(self.scaled_rows)
                for j, a in row
                if weights[i] * a != weights[j] * entries[j].get(i, 0)
            ),
            default=None,
        )
        if failure is not None:
            i, j = failure
            raise ConsistencyError(
                f"detailed balance fails for pair ({self.states[i]}, {self.states[j]})"
            )

    def scaled_image(self, vector) -> list:
        """D K v for a vector v indexed like the states, summed over the nonzeros."""
        return [sum(a * vector[j] for j, a in row) for row in self.scaled_rows]

    def power(self, r: int):
        """Exact r-step transition matrix, the dense reference (cached incrementally).

        The first call builds the one-step `Fraction` matrix from the sparse rows.
        """
        if r < 0:
            raise ValueError("negative power")
        if not self._powers:
            step = [[Fraction(0)] * self.size for _ in self.states]
            for i, row in enumerate(self.scaled_rows):
                for j, a in row:
                    step[i][j] = Fraction(a, self.scale)
            self._powers = [identity_matrix(self.size), tuple(map(tuple, step))]
        while len(self._powers) <= r:
            self._powers.append(mat_mul(self._powers[-1], self._powers[1]))
        return self._powers[r]


class Spectrum(namedtuple("Spectrum", "entries")):
    """Distinct eigenvalues, sorted descending, with optional multiplicities.

    `entries` is a tuple of (eigenvalue, multiplicity or None) pairs.
    """

    __slots__ = ()

    def __new__(cls, entries):
        values = [v for v, _ in entries]
        if sorted(values, reverse=True) != values or len(set(values)) != len(values):
            raise ValueError("eigenvalues must be distinct and sorted descending")
        return super().__new__(cls, entries)

    @property
    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.entries)

    @property
    def multiplicities(self) -> tuple[int | None, ...]:
        return tuple(m for _, m in self.entries)

    def total_multiplicity(self) -> int | None:
        ms = self.multiplicities
        if any(m is None for m in ms):
            return None
        return sum(ms)


class CurveRecord(namedtuple("CurveRecord", "r value route")):
    __slots__ = ()

    @property
    def float_value(self) -> float:
        return float(self.value)


class SeparationCurve:
    """Per-step distance values, possibly from several computation routes."""

    def __init__(self, n: int, q: int | None = None):
        self.n = n
        self.q = q
        self.records = []

    def add(self, r: int, value: Fraction, route: str) -> None:
        value = Fraction(value)
        if not 0 <= value <= 1:
            raise ConsistencyError(
                f"distance value out of [0,1]: r={r} route={route} value={value}"
            )
        self.records.append(CurveRecord(r, value, route))

    def monotonicity_violations(self) -> list[tuple[str, int, int]]:
        """(route, r_prev, r) triples where the value increased with r, in ascending r.

        Non-increase holds in every case computed here but is not asserted
        hard; callers warn about the violations instead of failing. Each
        comparison is decided by the two floats, which are correctly rounded
        and so keep the exact order whenever they differ; the exact values are
        compared only when the floats are equal.
        """
        out, last = [], {}  # last: route -> (float value, record) at its latest r
        for cur in sorted(self.records, key=lambda rec: rec.r):
            after = cur.float_value
            if cur.route in last:
                before, prev = last[cur.route]
                if after > before or (after == before and cur.value > prev.value):
                    out.append((cur.route, prev.r, cur.r))
            last[cur.route] = after, cur
        return out

    def warn_if_not_monotone(self) -> None:
        """One "WARNING ..." line on stderr per violation."""
        for route, r_prev, r_cur in self.monotonicity_violations():
            sys.stderr.write(
                f"WARNING distance increased with step count: route={route} "
                f"r={r_prev}->{r_cur}\n"
            )

    def to_csv(self) -> str:
        """One header and one row per record, sorted by (r, route).

        Every cell is an integer, a "num/den" fraction, a float or a route
        name, so no cell needs CSV quoting and each row is written as is.
        """
        buf = io.StringIO()
        q_header, q_cell = ("", "") if self.q is None else ("q,", f"{self.q},")
        buf.write(f"r,{q_header}s_exact,s_float,route\n")
        for rec in sorted(self.records, key=lambda x: (x.r, x.route)):
            buf.write(
                f"{rec.r},{q_cell}{format_exact(rec.value)},"
                f"{format_float(rec.float_value)},{rec.route}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        obj: dict = {"n": self.n}
        if self.q is not None:
            obj["q"] = self.q
        obj["records"] = [
            {
                "r": rec.r,
                "s_exact": format_exact(rec.value),
                "s_float": rec.float_value,
                "route": rec.route,
            }
            for rec in sorted(self.records, key=lambda x: (x.r, x.route))
        ]
        return json.dumps(obj, indent=2) + "\n"
