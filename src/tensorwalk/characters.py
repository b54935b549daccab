"""Exact character theory of small symmetric groups.

Character values come from the Murnaghan-Nakayama rule, implemented on
first-column hook length sets (beta sets), so the whole table is integer
arithmetic. A table has one row and one column per partition of n and
grows quickly with n, so each table is built once per n and cached.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import mul

from .combinat import Partition, count_skew_syt_row, enumerate_partitions
from .errors import ConsistencyError, common_value


class ClassDescriptor(
    namedtuple("ClassDescriptor", "cycle_type class_size fixed_points sign")
):
    """Conjugacy class of the symmetric group, described by its cycle type."""

    __slots__ = ()


def conjugacy_classes(n: int) -> list[ClassDescriptor]:
    """One descriptor per cycle type, in the fixed partition order."""
    out = []
    for ct in enumerate_partitions(n):
        counts = Counter(ct)
        centralizer = 1
        for j, m in counts.items():
            centralizer *= j**m * factorial(m)
        if factorial(n) % centralizer:
            raise ConsistencyError(
                f"centralizer order {centralizer} does not divide {n}! at {ct}"
            )
        out.append(
            ClassDescriptor(
                cycle_type=ct,
                class_size=factorial(n) // centralizer,
                fixed_points=counts.get(1, 0),
                sign=(-1) ** (n - len(ct)),
            )
        )
    return out


def _beta_set(lam: Partition) -> tuple[int, ...]:
    ell = len(lam)
    return tuple(sorted(lam[i] + (ell - 1 - i) for i in range(ell)))


@cache
def _mn_value(beta: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # Murnaghan-Nakayama on beta sets: removing a border strip of length t
    # moves one element of the set down by t; the crossing count gives the
    # sign. Recursion consumes cycle lengths one at a time.
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    members = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb >= 0 and nb not in members:
            height = sum(1 for x in beta if nb < x < b)
            new_beta = tuple(sorted(members - {b} | {nb}))
            total += (-1) ** height * _mn_value(new_beta, rest)
    return total


def character_value(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible character of shape `lam` on the given cycle type."""
    if lam.size != cycle_type.size:
        raise ValueError("shape and cycle type must have equal size")
    return _mn_value(_beta_set(lam), tuple(sorted(cycle_type, reverse=True)))


class CharacterTable:
    """Full integer character table, rows by shape, columns by cycle type."""

    def __init__(self, n: int, partitions, classes, values):
        self.n = n
        self.partitions = tuple(partitions)
        self.classes = tuple(classes)
        # Two columns of `classes` as plain tuples, for the sums over classes.
        # `fixed_points` is also the n-dimensional permutation character.
        self.class_sizes = tuple(c.class_size for c in self.classes)
        self.fixed_points = tuple(c.fixed_points for c in self.classes)
        self.values = tuple(tuple(row) for row in values)
        self._row_index = {p: i for i, p in enumerate(self.partitions)}
        self._col_index = {c.cycle_type: j for j, c in enumerate(self.classes)}

    def value(self, lam: Partition, cycle_type: Partition) -> int:
        return self.values[self._row_index[lam]][self._col_index[cycle_type]]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self._row_index[lam]]

    def dimension(self, lam: Partition) -> int:
        return self.value(lam, Partition([1] * self.n))


@cache
def character_table(n: int) -> CharacterTable:
    """Integer character table of the symmetric group on n letters (cached)."""
    partitions = enumerate_partitions(n)
    classes = conjugacy_classes(n)
    values = [
        [character_value(lam, c.cycle_type) for c in classes] for lam in partitions
    ]
    return CharacterTable(n, partitions, classes, values)


def fixed_point_character_sums(n: int, lam: Partition) -> list[int]:
    """Character sums over the permutations with exactly i fixed points, for
    i = 0..n.

    Each is evaluated two independent ways, by classes and by the
    inclusion-exclusion formula sum_j (-1)^j n!/(i! j!) f^(lam/(n-i-j)) in
    skew tableau counts, both in integers, and the two must agree exactly.
    One pass serves every i: the n + 1 skew counts f^(lam/k) and the class
    sums grouped by fixed points are formed once.
    """
    if lam.size != n:
        raise ValueError("shape size must equal n")
    table = character_table(n)
    by_classes = [0] * (n + 1)
    for size, fixed, chi in zip(table.class_sizes, table.fixed_points, table.row(lam)):
        by_classes[fixed] += size * chi
    skew = [count_skew_syt_row(lam, k) for k in range(n + 1)]
    sums = []
    for i in range(n + 1):
        # n!/(i! j!) is an integer whenever i + j <= n.
        by_formula = sum(
            (-1) ** j * (factorial(n) // (factorial(i) * factorial(j))) * skew[n - i - j]
            for j in range(n - i + 1)
        )
        routes = {"classes": by_classes[i], "formula": by_formula}
        sums.append(common_value(routes, f"the fixed point character sum, n={n} lam={lam} i={i}"))
    return sums


def fixed_point_character_sum(n: int, lam: Partition, i: int) -> int:
    """Character sum over all permutations with exactly i fixed points; one i
    of `fixed_point_character_sums`."""
    if not 0 <= i <= n:
        raise ValueError("fixed point count out of range")
    return fixed_point_character_sums(n, lam)[i]


def signed_fixed_point_sum(n: int, i: int) -> int:
    """Sign sum over permutations with exactly i fixed points (closed form)."""
    if not 0 <= i <= n:
        raise ValueError("fixed point count out of range")
    if i == n:
        return 1
    return (-1) ** (n - i + 1) * comb(n, i) * (n - i - 1)


def tensor_multiplicities(n: int, lam: Partition, eta_values, rhos) -> list[int]:
    """Multiplicity of each of `rhos` in the tensor product of `lam` with a character.

    `eta_values` lists the integer character values of the tensoring factor,
    aligned with `conjugacy_classes(n)`. The class weights |C| eta(C)
    chi_lam(C) are formed once; each rho's weighted sum is taken in integers
    and must be a nonnegative multiple of n!; anything else raises.
    """
    table = character_table(n)
    if len(eta_values) != len(table.classes):
        raise ValueError("need one character value per conjugacy class")
    weights = list(map(mul, map(mul, table.class_sizes, eta_values), table.row(lam)))
    multiplicities = []
    for rho in rhos:
        total = sum(map(mul, weights, table.row(rho)))
        value, remainder = divmod(total, factorial(n))
        if remainder or value < 0:
            raise ConsistencyError(
                f"tensor multiplicity not a nonnegative integer: "
                f"lam={lam} rho={rho} value={Fraction(total, factorial(n))}"
            )
        multiplicities.append(value)
    return multiplicities


def tensor_multiplicity(n: int, lam: Partition, eta_values, rho: Partition) -> int:
    """Multiplicity of `rho` in the tensor product of `lam` with a character;
    one rho of `tensor_multiplicities`."""
    return tensor_multiplicities(n, lam, eta_values, [rho])[0]
