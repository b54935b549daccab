import csv
import io
import json
import struct
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from tensorwalk.chains import (
    SeparationCurve,
    Spectrum,
    TransitionKernel,
    format_exact,
    format_float,
    lowest_terms,
    reduced_over_power,
)
from tensorwalk.errors import ConsistencyError
from tensorwalk.cli import main
from tensorwalk.glwalk import gl_separation_routes
from tensorwalk.snwalk import build_kernel_characters, separation_routes

from oracles import curve_csv_by_writer

HALF = Fraction(1, 2)
RISING_WARNING = "WARNING distance increased with step count: route=closed_form r=0->1\n"


@cache
def sn_kernel(n):
    return build_kernel_characters(n)


def fresh_copy(kernel):
    """Same kernel with empty caches."""
    rows = [{j: Fraction(a, kernel.scale) for j, a in row} for row in kernel.scaled_rows]
    return TransitionKernel(kernel.states, rows, kernel.stationary)


def dense(matrix):
    """Rows of a dense matrix as maps from every column index to its entry."""
    return [dict(enumerate(row)) for row in matrix]


def assert_images_match_powers(kernel, steps):
    """r applications of `scaled_image` to the point mass at x give
    D^r pi(x) K^r(x, y) / pi(y) at each y: by detailed balance, the ratio
    row of the dense power times one positive factor."""
    for r in steps:
        for x in range(kernel.size):
            vector = [int(i == x) for i in range(kernel.size)]
            for _ in range(r):
                vector = kernel.scaled_image(vector)
            factor = kernel.scale**r * kernel.stationary[x]
            assert factor > 0
            row = kernel.power(r)[x]
            assert vector == [factor * p / pi for p, pi in zip(row, kernel.stationary)]


@st.composite
def tridiagonal_kernels(draw):
    """Birth-death kernels on {0..d}: up[x] from x to x + 1, down[x] from
    x + 1 to x, the rest held, and the stationary law by detailed balance.
    A hold of 0 (both rates 1/2) is given as an explicit zero."""
    d = draw(st.integers(min_value=1, max_value=5))
    rate = st.fractions(min_value=Fraction(1, 9), max_value=HALF, max_denominator=9)
    down = draw(st.lists(rate, min_size=d, max_size=d))
    up = draw(st.lists(rate, min_size=d, max_size=d))
    rows = [{x: Fraction(1)} for x in range(d + 1)]
    for x in range(d):
        rows[x][x + 1], rows[x + 1][x] = up[x], down[x]
        rows[x][x] -= up[x]
        rows[x + 1][x + 1] -= down[x]
    weights = [Fraction(1)]
    for x in range(d):
        weights.append(weights[-1] * up[x] / down[x])
    return TransitionKernel(range(d + 1), rows, [w / sum(weights) for w in weights])


def two_state_kernel():
    return TransitionKernel(
        states=("a", "b"),
        rows=[{0: HALF, 1: HALF}, {0: HALF, 1: HALF}],
        stationary=[HALF, HALF],
    )


class TestTransitionKernel:
    def test_power_cache(self):
        k = two_state_kernel()
        assert k.power(0)[0][0] == 1
        assert k.power(3)[0][1] == HALF
        assert k.power(3) is k.power(3)

    def test_rejects_bad_rows(self):
        with pytest.raises(ConsistencyError):
            TransitionKernel(
                states=("a", "b"),
                rows=[{0: HALF, 1: HALF}, {0: HALF, 1: Fraction(1, 3)}],
                stationary=[HALF, HALF],
            )

    def test_rejects_unbalanced(self):
        third = Fraction(1, 3)
        with pytest.raises(ConsistencyError):
            TransitionKernel(
                states=("a", "b"),
                rows=[{0: third, 1: 1 - third}, {0: third, 1: 1 - third}],
                stationary=[HALF, HALF],
            )

    def test_step_distribution_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            two_state_kernel().power(-1)

    def test_rejects_duplicate_states(self):
        with pytest.raises(ValueError):
            TransitionKernel(
                states=("a", "a"),
                rows=[{0: HALF, 1: HALF}, {0: HALF, 1: HALF}],
                stationary=[HALF, HALF],
            )


QUARTER, THIRD = Fraction(1, 4), Fraction(1, 3)


class TestSparseRows:
    """The constructor's input: one map from target index to entry per state."""

    def test_rejects_wrong_row_count(self):
        for rows in ([{0: 1}], [{0: 1}, {1: 1}, {2: 1}]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                TransitionKernel(("a", "b"), rows, [HALF, HALF])

    def test_rejects_out_of_range_target(self):
        for target in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                TransitionKernel(("a", "b"), [{0: 1}, {target: 1}], [HALF, HALF])

    def test_explicit_zeros_left_out(self):
        rows = [
            {0: HALF, 1: HALF, 2: 0},
            {0: QUARTER, 1: HALF, 2: QUARTER},
            {0: Fraction(0), 1: HALF, 2: HALF},
        ]
        k = TransitionKernel("abc", rows, [QUARTER, HALF, QUARTER])
        assert k.scale == 4
        assert k.scaled_rows == (
            ((0, 2), (1, 2)),
            ((0, 1), (1, 2), (2, 1)),
            ((1, 2), (2, 2)),
        )

    def test_rows_sorted_by_target(self):
        rows = [{1: THIRD, 0: 1 - THIRD}, {1: THIRD, 0: 1 - THIRD}]
        k = TransitionKernel("ab", rows, [1 - THIRD, THIRD])
        assert k.scaled_rows == (((0, 2), (1, 1)), ((0, 2), (1, 1)))

    def test_first_power_is_the_given_rows(self):
        rows = [[HALF, HALF, 0], [QUARTER, HALF, QUARTER], [0, HALF, HALF]]
        k = TransitionKernel("abc", dense(rows), [QUARTER, HALF, QUARTER])
        assert not k._powers
        assert k.power(1) == tuple(map(tuple, rows))
        assert all(isinstance(x, Fraction) for row in k.power(1) for x in row)
        assert k.power(0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


ONE_WAY = r"detailed balance fails for pair \(a, b\)"


class TestValidate:
    """Each integer check of `validate` rejects a kernel only it catches."""

    @pytest.mark.parametrize(
        "matrix,stationary,message",
        [
            ([[HALF, HALF], [0, 1]], [HALF, HALF], ONE_WAY),
            ([[1, 0], [HALF, HALF]], [HALF, HALF], ONE_WAY),
            (
                [[Fraction(3, 2), -HALF], [-HALF, Fraction(3, 2)]],
                [HALF, HALF],
                "negative entry in row a",
            ),
            ([[1, 0], [0, 1]], [HALF, THIRD], "stationary vector does not sum to 1"),
            (
                [[1, 0], [0, 1]],
                [Fraction(3, 2), -HALF],
                "stationary vector does not sum to 1",
            ),
        ],
        ids=["one-way", "one-way-back", "negative-entry", "weight-sum", "negative-weight"],
    )
    def test_rejects(self, matrix, stationary, message):
        with pytest.raises(ConsistencyError, match=message):
            TransitionKernel(("a", "b"), dense(matrix), stationary)

    def test_rejects_balance_broken_at_one_pair(self):
        matrix = [
            [HALF, QUARTER, QUARTER],
            [QUARTER, QUARTER, HALF],
            [QUARTER, QUARTER, HALF],
        ]
        with pytest.raises(ConsistencyError, match=r"pair \(b, c\)$"):
            TransitionKernel(("a", "b", "c"), dense(matrix), [THIRD] * 3)

    def test_scaled_rows_and_image(self):
        k = sn_kernel(6)
        assert all(a > 0 for row in k.scaled_rows for _, a in row)
        vector = list(range(k.size))
        expected = [k.scale * sum(x * v for x, v in zip(row, vector)) for row in k.power(1)]
        assert k.scaled_image(vector) == expected


class TestStepDistribution:
    """r-step distributions through `scaled_image` match the exact Fraction power."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_symmetric_group_kernels(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        steps = data.draw(
            st.lists(st.integers(min_value=0, max_value=3 * n), min_size=1, max_size=3)
        )
        assert_images_match_powers(fresh_copy(sn_kernel(n)), steps)

    @settings(max_examples=40, deadline=None)
    @given(
        tridiagonal_kernels(),
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3),
    )
    def test_birth_death_kernels(self, kernel, steps):
        assert_images_match_powers(kernel, steps)


class TestSpectrum:
    def test_requires_sorted_distinct(self):
        with pytest.raises(ValueError):
            Spectrum(((Fraction(0), 1), (Fraction(1), 1)))
        with pytest.raises(ValueError):
            Spectrum(((Fraction(1), 1), (Fraction(1), 2)))

    def test_total_multiplicity_with_unknowns(self):
        s = Spectrum(((Fraction(1), None), (Fraction(1, 2), None)))
        assert s.total_multiplicity() is None


class TestFormatting:
    def test_exact(self):
        assert format_exact(Fraction(1, 2)) == "1/2"
        assert format_exact(Fraction(1)) == "1/1"
        assert format_exact(Fraction(0)) == "0/1"

    def test_float_17_digits(self):
        assert format_float(1 / 3) == "0.33333333333333331"

    @given(st.floats(allow_nan=False))
    def test_float_round_trips_bit_for_bit(self, x):
        # JSON records carry the float itself; its 17-digit text must not
        # name a different double, or CSV and JSON output would disagree.
        assert struct.pack("<d", float(format_float(x))) == struct.pack("<d", x)

    def test_python_without_digit_limit(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert format_exact(Fraction(-7, 3)) == "-7/3"


# Several primes (60, 200, 210) and prime powers (4, 8, 9, 512).
REDUCTION_BASES = (2, 3, 4, 8, 9, 60, 200, 210, 512)


@st.composite
def over_power(draw):
    """(numerator, base, exponent), with exponents past the first residue of
    every base. Numerators are any integer or, more often, a multiple of a
    high power of the base, so the residue has to widen, up to the full
    exponent."""
    base = draw(st.sampled_from(REDUCTION_BASES))
    exponent = draw(st.integers(min_value=0, max_value=1200))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(st.integers(min_value=-(10**400), max_value=10**400)), base, exponent
    shift = draw(st.sampled_from([0, exponent // 2, max(exponent - 1, 0), exponent, exponent + 3]))
    unit = draw(st.integers(min_value=-(base**3), max_value=base**3))
    numerator = unit * base**shift + draw(st.sampled_from([0, 0, 1, -1, base**exponent]))
    return numerator, base, exponent


class TestReducedOverPower:
    """`reduced_over_power` against the standard library's full-size gcd."""

    @staticmethod
    def assert_same(numerator, base, exponent):
        """Built afresh and from a carried base**exponent, the same fraction."""
        expected = Fraction(numerator, base**exponent)
        for got in (
            reduced_over_power(numerator, base, exponent),
            reduced_over_power(numerator, base, exponent, base**exponent),
        ):
            assert type(got) is Fraction
            assert type(got.numerator) is int and type(got.denominator) is int
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
            assert hash(got) == hash(expected)

    @settings(max_examples=300, deadline=None)
    @given(over_power())
    def test_matches_fraction(self, case):
        self.assert_same(*case)

    @pytest.mark.parametrize("base", REDUCTION_BASES)
    def test_zero_negative_and_exponent_zero(self, base):
        for numerator in (0, 1, -1, -base, 7 * base**5, -(base**700)):
            for exponent in (0, 1, 5, 699, 700, 701, 1100):
                self.assert_same(numerator, base, exponent)

    @pytest.mark.parametrize("base", REDUCTION_BASES)
    def test_multiples_of_all_but_one_power_widen_to_the_full_exponent(self, base):
        exponent = 1100
        for unit in (1, -1, base - 1, base + 1, base**2 - 1):
            self.assert_same(unit * base ** (exponent - 1), base, exponent)
        assert reduced_over_power(base ** (exponent - 1), base, exponent) == Fraction(1, base)
        assert reduced_over_power(base**exponent, base, exponent) == 1

    @pytest.mark.parametrize("base,two_power", [(60, 4), (200, 8), (210, 2)])
    def test_residue_with_a_whole_prime_power_still_widens(self, base, two_power):
        # With b = 2^a c, c odd, the numerator 2^(ak) + b^k leaves the residue
        # 2^(ak) mod b^k, whose quotient by the gcd is 1, while the numerator
        # over that gcd, 1 + c^k, is even: only the quotient of the whole
        # numerator shows that k is too small.
        odd = base // two_power
        for k in range(1, 300):
            self.assert_same(two_power**k * (1 + odd**k), base, 1200)

    @pytest.mark.parametrize("base,exponent", [(1, 3), (0, 3), (-2, 3), (2, -1)])
    def test_rejects_bad_base_or_exponent(self, base, exponent):
        with pytest.raises(ValueError):
            reduced_over_power(1, base, exponent)


def test_lowest_terms_takes_the_pair_as_given():
    value = lowest_terms(-(3**40), 2**70)
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (-(3**40), 2**70)
    assert value == Fraction(-(3**40), 2**70)


def digit_limit():
    """Python's int<->str digit limit, or None where there is none."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else None


def parse_exact(text):
    """Inverse of format_exact for values of any size."""
    previous = digit_limit()
    if previous:
        sys.set_int_max_str_digits(0)
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    finally:
        if previous:
            sys.set_int_max_str_digits(previous)


class TestHugeValues:
    """Exact values above Python's default 4300-digit int->str limit."""

    VALUE = Fraction(10**4999 + 1, 10**5000)

    def test_format_exact(self):
        limit = digit_limit()
        text = format_exact(self.VALUE)
        assert text == "1" + "0" * 4998 + "1/1" + "0" * 5000
        assert parse_exact(text) == self.VALUE
        assert digit_limit() == limit

    def test_curve_csv_and_json(self):
        for q in (None, 3):
            curve = SeparationCurve(n=512, q=q)
            curve.add(0, self.VALUE, "closed_form")
            (row,) = csv.DictReader(io.StringIO(curve.to_csv()))
            assert parse_exact(row["s_exact"]) == self.VALUE
            (record,) = json.loads(curve.to_json())["records"]
            assert parse_exact(record["s_exact"]) == self.VALUE


class TestSeparationCurve:
    def test_rejects_out_of_range(self):
        curve = SeparationCurve(n=3)
        with pytest.raises(ConsistencyError):
            curve.add(0, Fraction(3, 2), "closed_form")

    def test_monotonicity_soft_check(self, capsys):
        curve = SeparationCurve(n=3)
        curve.add(0, Fraction(1, 2), "closed_form")
        curve.add(1, Fraction(3, 4), "closed_form")
        assert curve.monotonicity_violations() == [("closed_form", 0, 1)]
        curve.warn_if_not_monotone()
        assert capsys.readouterr() == ("", RISING_WARNING)

    def test_curves_never_share_records(self):
        first, second = SeparationCurve(n=3), SeparationCurve(n=3)
        first.add(0, Fraction(1), "closed_form")
        assert second.records == []
        assert first.records is not second.records

    def test_record_float_value(self):
        curve = SeparationCurve(n=3)
        curve.add(2, Fraction(1, 3), "spectral")
        (record,) = curve.records
        assert (record.r, record.value, record.route) == (2, Fraction(1, 3), "spectral")
        assert record.float_value == 1 / 3

    def test_float_tie_falls_back_to_exact_order(self):
        base = Fraction(1, 3)
        up, down = base + Fraction(1, 10**30), base - Fraction(1, 10**30)
        assert float(up) == float(base) == float(down)
        rising = SeparationCurve(n=3)
        rising.add(0, base, "closed_form")
        rising.add(1, up, "closed_form")
        assert rising.monotonicity_violations() == [("closed_form", 0, 1)]
        falling = SeparationCurve(n=3)
        falling.add(0, base, "closed_form")
        falling.add(1, down, "closed_form")
        falling.add(2, down, "closed_form")
        assert falling.monotonicity_violations() == []

    def test_violations_come_in_ascending_r_across_routes(self):
        curve = SeparationCurve(n=3)
        # each route falls but for one rise, at r = 3 and r = 1 respectively
        for route, rise in {"closed_form": 3, "spectral": 1}.items():
            for r in range(4):
                curve.add(r, Fraction(1, 2) if r == rise else Fraction(1, 4 + r), route)
        assert curve.monotonicity_violations() == [("spectral", 0, 1), ("closed_form", 2, 3)]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**60),
                st.integers(min_value=-3, max_value=3),
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_violations_match_exact_comparison(self, draws):
        # values within a few units of 2^-200 of one another share a float
        values = [
            Fraction(numerator, 2**60) + Fraction(nudge, 2**200)
            for numerator, nudge in draws
        ]
        values = [min(max(v, Fraction(0)), Fraction(1)) for v in values]
        curve = SeparationCurve(n=3)
        for r, value in enumerate(values):
            curve.add(r, value, "closed_form")
        expected = [
            ("closed_form", r, r + 1)
            for r in range(len(values) - 1)
            if values[r + 1] > values[r]
        ]
        assert curve.monotonicity_violations() == expected

    def test_csv_headers(self):
        curve = SeparationCurve(n=3)
        curve.add(0, Fraction(1), "closed_form")
        assert curve.to_csv().splitlines()[0] == "r,s_exact,s_float,route"
        gl = SeparationCurve(n=3, q=2)
        gl.add(0, Fraction(1), "closed_form")
        assert gl.to_csv().splitlines()[0] == "r,q,s_exact,s_float,route"

    def test_json_fields(self):
        import json

        curve = SeparationCurve(n=2, q=3)
        curve.add(1, Fraction(1, 3), "closed_form")
        payload = json.loads(curve.to_json())
        assert payload == {
            "n": 2,
            "q": 3,
            "records": [
                {
                    "r": 1,
                    "s_exact": "1/3",
                    "s_float": 0.3333333333333333,
                    "route": "closed_form",
                }
            ],
        }


class TestStreamedText:
    """`csv_lines` and `json_chunks` give in pieces what one string would hold."""

    @staticmethod
    def curve(q):
        curve = SeparationCurve(n=9, q=q)
        for r in reversed(range(40)):
            curve.add(r, Fraction(1, r + 1), "spectral")
            curve.add(r, Fraction(1, r + 1), "closed_form")
        curve.add(40, Fraction(10**4999 + 1, 10**5000), "closed_form")
        return curve

    @pytest.mark.parametrize("q", [None, 5])
    def test_json_equals_one_dumps(self, q):
        curve = self.curve(q)
        obj = {"n": 9, **({} if q is None else {"q": q}), "records": [
            {"r": rec.r, "s_exact": format_exact(rec.value), "s_float": float(rec.value),
             "route": rec.route}
            for rec in sorted(curve.records, key=lambda rec: (rec.r, rec.route))
        ]}
        chunks = list(curve.json_chunks())
        text = "".join(chunks)
        assert text == curve.to_json() == json.dumps(obj, indent=2) + "\n"
        # several short pieces; only the one holding the long value is long
        assert len(chunks) > 3 and sorted(map(len, chunks))[-2] < 4_000

    @pytest.mark.parametrize("q", [None, 5])
    def test_empty_curve_json_equals_one_dumps(self, q):
        curve = SeparationCurve(n=9, q=q)
        obj = {"n": 9, **({} if q is None else {"q": q}), "records": []}
        assert curve.to_json() == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("q", [None, 5])
    def test_csv_lines_are_its_rows(self, q):
        curve = self.curve(q)
        lines = list(curve.csv_lines())
        assert len(lines) == 1 + len(curve.records)
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        assert "".join(lines) == curve.to_csv()


class TestCsvRows:
    """`to_csv` writes rows directly; `csv.writer` must agree byte for byte."""

    @staticmethod
    def rows(curve):
        return [
            (rec.r, rec.value, rec.route)
            for rec in sorted(curve.records, key=lambda x: (x.r, x.route))
        ]

    def test_sn_and_gl_curves(self):
        sn = SeparationCurve(n=6)
        gl = SeparationCurve(n=5, q=3)
        for r in range(13):
            for route, value in separation_routes(6, r).items():
                sn.add(r, value, route)
            for route, value in gl_separation_routes(5, 3, r).items():
                gl.add(r, value, route)
        for curve in (sn, gl):
            assert curve.to_csv() == curve_csv_by_writer(curve.q, self.rows(curve))

    @settings(max_examples=60, deadline=None)
    @given(
        st.none() | st.integers(min_value=2, max_value=10**6),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**4),
                st.fractions(min_value=0, max_value=1, max_denominator=10**40),
                st.sampled_from(["closed_form", "spectral", "total_variation"]),
            ),
            max_size=6,
        ),
    )
    def test_matches_csv_writer(self, q, records):
        curve = SeparationCurve(n=4, q=q)
        for r, value, route in records:
            curve.add(r, value, route)
        assert curve.to_csv() == curve_csv_by_writer(q, self.rows(curve))

    def test_cli_route_names_need_no_quoting(self, tmp_path):
        # direct rows are only valid CSV while no route name holds a
        # delimiter, a quote or a line break
        routes = set()
        commands = (
            ["sn-sep", "--n", "5", "--rmax", "3", "--with-tv"],
            ["sn-sep", "--n", "11", "--rmax", "3"],
            ["gl-sep", "--n", "3", "--q", "2", "--rmax", "3"],
        )
        for argv in commands:
            out = tmp_path / "curve.json"
            assert main([*argv, "--format", "json", "--out", str(out)]) == 0
            routes |= {rec["route"] for rec in json.loads(out.read_text())["records"]}
        assert {"closed_form", "spectral", "total_variation"} <= routes
        for route in routes:
            assert not set(route) & set(',"\r\n'), route
