"""Random walk on the irreducible representations of the symmetric group.

The walk is driven by tensoring with the n-dimensional permutation
representation; its stationary law weights a shape by the squared dimension
over n!. Separation and total-variation distances are computed by several
independent exact routes which are cross-asserted wherever cheap.
"""

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
    count_partitions_no_ones,
    count_skew_syt_row,
    count_syt,
    enumerate_partitions,
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


def build_kernel_boxes(n: int, check_against_characters: bool = True) -> TransitionKernel:
    """Transition kernel from the remove-a-box / add-a-box description.

    The multiplicity of a target shape equals the number of intermediate
    shapes reachable by removing one corner from the source and one corner
    from the target. By default the result is checked entry by entry against
    the character route.
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
    kernel = TransitionKernel(states, matrix, _plancherel(states))
    if check_against_characters:
        other = build_kernel_characters(n)
        if kernel.matrix != other.matrix:
            raise ConsistencyError(
                f"box-move kernel disagrees with character kernel at n={n}"
            )
    return kernel


def spectrum_sn(n: int) -> Spectrum:
    """Distinct eigenvalues i/n with i in {0..n-2, n} and their multiplicities.

    The multiplicity of i/n is the number of conjugacy classes with exactly
    i fixed points, i.e. the number of partitions of n-i with no part 1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    entries = []
    for i in [n] + list(range(n - 2, -1, -1)):
        mult = count_partitions_no_ones(n - i)
        entries.append((Fraction(i, n), mult))
    spectrum = Spectrum(tuple(entries))
    if spectrum.total_multiplicity() != len(enumerate_partitions(n)):
        raise ConsistencyError("spectrum multiplicities do not sum to the class count")
    return spectrum


def ratio_via_kernel(kernel: TransitionKernel, r: int, lam: Partition) -> Fraction:
    """r-step mass at `lam` from the trivial start, over its stationary mass."""
    n = kernel.states[0].size
    row = kernel.step_distribution(trivial_shape(n), r)
    j = kernel.index(lam)
    return row[j] / kernel.stationary[j]


def ratio_via_spectrum(
    n: int, r: int, lam: Partition, table: CharacterTable | None = None
) -> Fraction:
    """Spectral form of the same ratio: sum over classes of eigenvalue powers.

    Uses the rational eigenfunction scaling (character over dimension), so
    the whole sum stays in exact arithmetic.
    """
    if table is None:
        table = character_table(n)
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
    kernel: TransitionKernel | None = None,
    table: CharacterTable | None = None,
) -> Fraction:
    """Ratio of walked mass to stationary mass at `lam`, triple-checked.

    Computes the kernel power route, the spectral route and the occupancy
    route and requires exact agreement.
    """
    if lam.size != n:
        raise ValueError("shape size must equal n")
    if r < 0:
        raise ValueError("need r >= 0")
    if kernel is None:
        kernel = build_kernel_characters(n)
    if table is None:
        table = character_table(n)
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
    kernel: TransitionKernel | None = None,
    table: CharacterTable | None = None,
) -> bool:
    """Verify the walked mass encodes an exact tensor-power multiplicity.

    The r-step mass at `lam`, times n^r over the dimension of `lam`, must
    equal the multiplicity of `lam` in the r-th tensor power of the
    permutation representation, computed independently as a character sum,
    and that multiplicity must be a nonnegative integer. Intended for small
    n and r (the character sum grows quickly).
    """
    if kernel is None:
        kernel = build_kernel_characters(n)
    if table is None:
        table = character_table(n)
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


def separation_closed_form(n: int, r: int) -> Fraction:
    """Separation distance after r steps, as one alternating integer sum.

    Evaluated over the common denominator n^r in big-integer arithmetic and
    reduced once at the end; fixed-precision evaluation of this sum cancels
    catastrophically, the exact route does not.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if r < 0:
        raise ValueError("need r >= 0")
    numerator = 0
    for i in range(n - 1):
        term = comb(n, i) * (n - i - 1) * pow(i, r)
        numerator += term if (n - i) % 2 == 0 else -term
    return Fraction(numerator, pow(n, r))


def separation_routes(
    n: int, r: int, kernel: TransitionKernel, eigenvalues
) -> dict[str, Fraction]:
    """Separation after r steps from the trivial start, by four independent routes.

    Keyed by route name, in the order the CLI prints them: the r-step row
    of `kernel` at the single-column shape, the occupancy sum against skew
    tableau counts, the alternating closed form, and the eigenvalue-only
    formula on `eigenvalues` (the distinct eigenvalues i/n of the walk).
    Raises ConsistencyError unless all four are the same fraction.
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


def separation_exact(
    n: int,
    r: int,
    kernel: TransitionKernel | None = None,
    table: CharacterTable | None = None,
) -> Fraction:
    """Exact separation distance from the trivial start after r steps.

    Returns the closed form and asserts agreement with the occupancy route
    (one minus the two top occupancy probabilities) and with one minus the
    triple-checked ratio at the single-column shape, which is also verified
    to attain the minimum ratio over all shapes (ties allowed).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if kernel is None:
        kernel = build_kernel_characters(n)
    if table is None:
        table = character_table(n)
    sign = sign_shape(n)
    separations = {
        "closed_form": separation_closed_form(n, r),
        "top_occupancy": 1 - occupancy_exact(n, r, n) - occupancy_exact(n - 1, r, n),
        "single_column_ratio": 1 - ratio_at(n, r, sign, kernel, table),
    }
    value = common_value(separations, f"the S_n separation, n={n} r={r}")
    row = kernel.step_distribution(trivial_shape(n), r)
    sign_ratio = row[kernel.index(sign)] / kernel.stationary[kernel.index(sign)]
    for j, lam in enumerate(kernel.states):
        if row[j] / kernel.stationary[j] < sign_ratio:
            raise ConsistencyError(
                f"ratio at {lam} undercuts the single-column shape at n={n} r={r}"
            )
    return value


def separation_profile(c: float) -> float:
    """Limiting separation profile at time n log n + c n.

    The number of unoccupied boxes is asymptotically Poisson with mean
    e^(-c); the profile is the probability that it is neither 0 nor 1. The
    finite-n error decays like log(n)/n.
    """
    return poisson_not01(c)


def tv_exact(n: int, r: int, kernel: TransitionKernel | None = None) -> Fraction:
    """Exact total-variation distance to stationarity after r steps."""
    if kernel is None:
        kernel = build_kernel_characters(n)
    row = kernel.step_distribution(trivial_shape(n), r)
    return sum(abs(p - pi) for p, pi in zip(row, kernel.stationary)) / 2
