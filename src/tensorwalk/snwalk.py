"""Random walk on the irreducible representations of the symmetric group.

The walk is driven by tensoring with the n-dimensional permutation
representation; its stationary law weights a shape by the squared dimension
over n!. Separation and total-variation distances are computed by several
independent exact routes which are cross-asserted wherever cheap.
"""

from collections.abc import Iterator
from fractions import Fraction
from math import comb, factorial

from .chains import Spectrum, TransitionKernel
from .characters import (
    CharacterTable,
    character_table,
    defining_character_values,
    tensor_multiplicity,
)
from .combinat import (
    Partition,
    count_partitions,
    count_skew_syt_row,
    count_syt,
    enumerate_partitions,
    partition_counts,
)
from .config import check_n
from .errors import ConsistencyError, common_value
from .interpolation import separation_from_spectrum
from .occupancy import occupancy_exact, poisson_not01


def trivial_shape(n: int) -> Partition:
    return Partition([n])


def sign_shape(n: int) -> Partition:
    return Partition([1] * n)


def _plancherel(states) -> list[Fraction]:
    n = states[0].size if states else 0
    return [Fraction(count_syt(lam) ** 2, factorial(n)) for lam in states]


def build_kernel_characters(n: int) -> TransitionKernel:
    """Transition kernel from exact tensor-product multiplicities."""
    check_n(n)
    states = enumerate_partitions(n)
    table = character_table(n)
    eta = defining_character_values(table.classes)
    dims = {lam: count_syt(lam) for lam in states}
    matrix = []
    for lam in states:
        row = []
        for rho in states:
            m = tensor_multiplicity(n, lam, eta, rho, table)
            row.append(Fraction(dims[rho] * m, dims[lam] * n))
        matrix.append(row)
    return TransitionKernel(states, matrix, _plancherel(states))


def build_kernel_boxes(n: int) -> TransitionKernel:
    """Transition kernel from the remove-a-box / add-a-box description.

    The multiplicity of a target shape equals the number of intermediate
    shapes reachable by removing one corner from the source and one corner
    from the target. This construction shares nothing with
    `build_kernel_characters`, so comparing the two checks both.
    """
    check_n(n)
    states = enumerate_partitions(n)
    dims = {lam: count_syt(lam) for lam in states}
    removals = {lam: set(lam.corner_removals()) for lam in states}
    matrix = []
    for lam in states:
        row = []
        for rho in states:
            m = len(removals[lam] & removals[rho])
            row.append(Fraction(dims[rho] * m, dims[lam] * n))
        matrix.append(row)
    return TransitionKernel(states, matrix, _plancherel(states))


def spectrum_sn(n: int) -> Spectrum:
    """Distinct eigenvalues i/n with i in {0..n-2, n} and their multiplicities.

    The multiplicity of i/n is the number of conjugacy classes with exactly
    i fixed points, i.e. the number of partitions of n-i with no part 1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    no_ones = partition_counts(n, min_part=2)
    entries = [(Fraction(i, n), no_ones[n - i]) for i in [n, *range(n - 2, -1, -1)]]
    spectrum = Spectrum(tuple(entries))
    if spectrum.total_multiplicity() != count_partitions(n):
        raise ConsistencyError("spectrum multiplicities do not sum to the class count")
    return spectrum


def ratio_via_kernel(kernel: TransitionKernel, r: int, lam: Partition) -> Fraction:
    """r-step mass at `lam` from the trivial start, over its stationary mass."""
    n = kernel.states[0].size
    row = kernel.step_distribution(trivial_shape(n), r)
    j = kernel.index(lam)
    return row[j] / kernel.stationary[j]


def ratio_via_spectrum(
    n: int, r: int, lam: Partition, table: CharacterTable
) -> Fraction:
    """Spectral form of the same ratio: sum over classes of eigenvalue powers.

    Uses the rational eigenfunction scaling (character over dimension), so
    the whole sum stays in exact arithmetic.
    """
    d = table.dimension(lam)
    total = Fraction(0)
    for c in table.classes:
        total += Fraction(c.fixed_points, n) ** r * Fraction(
            c.class_size * table.value(lam, c.cycle_type), d
        )
    return total


def ratio_via_occupancy(n: int, r: int, lam: Partition) -> Fraction:
    """Nonnegative form of the ratio: occupancy law against skew tableau counts."""
    d = count_syt(lam)
    total = Fraction(0)
    for a in range(n + 1):
        p = occupancy_exact(a, r, n)
        if p == 0:
            continue
        total += p * Fraction(factorial(n - a) * count_skew_syt_row(lam, n - a), d)
    return total


def ratio_at(
    n: int,
    r: int,
    lam: Partition,
    kernel: TransitionKernel,
    table: CharacterTable,
) -> Fraction:
    """Ratio of walked mass to stationary mass at `lam`, triple-checked.

    Computes the kernel power route, the spectral route and the occupancy
    route and requires exact agreement.
    """
    if lam.size != n:
        raise ValueError("shape size must equal n")
    if r < 0:
        raise ValueError("need r >= 0")
    ratios = {
        "kernel": ratio_via_kernel(kernel, r, lam),
        "spectrum": ratio_via_spectrum(n, r, lam, table),
        "occupancy": ratio_via_occupancy(n, r, lam),
    }
    return common_value(ratios, f"the mass ratio at {lam}, n={n} r={r}")


def tensor_power_check(
    n: int,
    r: int,
    lam: Partition,
    kernel: TransitionKernel,
    table: CharacterTable,
) -> bool:
    """Verify the walked mass encodes an exact tensor-power multiplicity.

    The r-step mass at `lam`, times n^r over the dimension of `lam`, must
    equal the multiplicity of `lam` in the r-th tensor power of the
    permutation representation, computed independently as a character sum,
    and that multiplicity must be a nonnegative integer. Intended for small
    n and r (the character sum grows quickly).
    """
    row = kernel.step_distribution(trivial_shape(n), r)
    mass = row[kernel.index(lam)]
    d = table.dimension(lam)
    from_walk = mass * Fraction(n**r, d)
    char_sum = sum(
        c.class_size * c.fixed_points**r * table.value(lam, c.cycle_type)
        for c in table.classes
    )
    multiplicity = Fraction(char_sum, factorial(n))
    if multiplicity.denominator != 1 or multiplicity < 0:
        raise ConsistencyError(
            f"tensor power multiplicity not a nonnegative integer at "
            f"n={n} r={r} lam={lam}: {multiplicity}"
        )
    multiplicities = {"walk": from_walk, "characters": multiplicity}
    common_value(multiplicities, f"the tensor power identity, n={n} r={r} lam={lam}")
    return True


def separation_closed_forms(n: int, rs) -> Iterator[Fraction]:
    """Separation distance after each r of the ascending `rs`, in one pass.

    The distance is one alternating integer sum over the common denominator
    n^r, reduced once per r; fixed-precision evaluation of this sum cancels
    catastrophically, the exact route does not. The signed terms
    comb(n, i)(n - i - 1) i^r and the denominator n^r are carried from one r
    to the next, so a step of one costs a single big-by-small multiply per
    term instead of a fresh power.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    terms = [comb(n, i) * (n - i - 1) * (-1) ** (n - i) for i in range(n - 1)]
    denominator = 1
    previous = 0
    for r in rs:
        if r < 0:
            raise ValueError("need r >= 0")
        if r < previous:
            raise ValueError(f"r must not decrease, got {r} after {previous}")
        step = r - previous
        if step:
            terms = [term * pow(i, step) for i, term in enumerate(terms)]
            denominator *= pow(n, step)
            previous = r
        yield Fraction(sum(terms), denominator)


def separation_closed_form(n: int, r: int) -> Fraction:
    """Separation distance after r steps; see `separation_closed_forms`."""
    return next(separation_closed_forms(n, [r]))


def separation_routes(
    n: int, r: int, kernel: TransitionKernel, eigenvalues
) -> dict[str, Fraction]:
    """Separation after r steps from the trivial start, by four independent routes.

    Keyed by route name: the r-step row of `kernel` at the single-column
    shape, the occupancy sum against skew tableau counts, the alternating
    closed form, and the eigenvalue-only formula on `eigenvalues` (the
    distinct eigenvalues i/n of the walk). Raises ConsistencyError unless
    all four are the same fraction. The CLI prints each r's rows sorted by
    route name, so `closed_form` comes first.
    """
    sign = sign_shape(n)
    routes = {
        "kernel_power": 1 - ratio_via_kernel(kernel, r, sign),
        "occupancy_tableaux": 1 - ratio_via_occupancy(n, r, sign),
        "closed_form": separation_closed_form(n, r),
        "spectral": separation_from_spectrum(eigenvalues, r),
    }
    common_value(routes, f"the S_n separation, n={n} r={r}")
    return routes


def check_single_column_extremal(kernel: TransitionKernel, r: int) -> None:
    """Raise unless the single-column shape attains the minimum mass ratio.

    The ratio is the r-step mass from the trivial start over the stationary
    mass; ties with other shapes are allowed.
    """
    n = kernel.states[0].size
    row = kernel.step_distribution(trivial_shape(n), r)
    ratios = [p / pi for p, pi in zip(row, kernel.stationary)]
    sign_ratio = ratios[kernel.index(sign_shape(n))]
    for lam, ratio in zip(kernel.states, ratios):
        if ratio < sign_ratio:
            raise ConsistencyError(
                f"ratio at {lam} undercuts the single-column shape at n={n} r={r}"
            )


def separation_profile(c: float) -> float:
    """Limiting separation profile at time n log n + c n.

    The number of unoccupied boxes is asymptotically Poisson with mean
    e^(-c); the profile is the probability that it is neither 0 nor 1. The
    finite-n error decays like log(n)/n.
    """
    return poisson_not01(c)


def tv_exact(n: int, r: int, kernel: TransitionKernel) -> Fraction:
    """Exact total-variation distance to stationarity after r steps."""
    row = kernel.step_distribution(trivial_shape(n), r)
    return sum(abs(p - pi) for p, pi in zip(row, kernel.stationary)) / 2
