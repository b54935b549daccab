"""Random walk on the irreducible representations of the symmetric group.

The walk is driven by tensoring with the n-dimensional permutation
representation; its stationary law weights a shape by the squared dimension
over n!. Separation and total-variation distances are computed by several
independent exact routes which are cross-asserted wherever cheap.
"""

from collections.abc import Iterator
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, exp, factorial
from operator import mul

from .chains import Spectrum, TransitionKernel, ascending_steps, reduced_over_power
from .characters import character_table, tensor_multiplicities
from .combinat import (
    Partition,
    count_partitions,
    count_skew_syt_row,
    count_syt,
    enumerate_partitions,
    partition_counts,
    primes_up_to,
)
from .errors import ConsistencyError, common_value
from .interpolation import separations_from_spectrum
from .occupancy import occupancy_probabilities


def trivial_shape(n: int) -> Partition:
    return Partition([n])


def sign_shape(n: int) -> Partition:
    return Partition([1] * n)


def _kernel_from_multiplicities(n: int, rows) -> TransitionKernel:
    """Kernel d_rho m(lam, rho) / (d_lam n) under the Plancherel law d_lam^2 / n!.

    `rows[i]` maps the index j of each rho with m(lam, rho) > 0 to that
    multiplicity, for lam the i-th partition of n; each builder computes its
    own. One `Fraction` is formed per nonzero multiplicity.
    """
    states = enumerate_partitions(n)
    dims = [count_syt(lam) for lam in states]
    kernel_rows = [
        {j: Fraction(dims[j] * m, dims[i] * n) for j, m in row.items()}
        for i, row in enumerate(rows)
    ]
    stationary = [Fraction(d**2, factorial(n)) for d in dims]
    return TransitionKernel(states, kernel_rows, stationary)


@lru_cache(maxsize=1)
def build_kernel_characters(n: int) -> TransitionKernel:
    """Transition kernel from exact tensor-product multiplicities.

    The most recent kernel is kept, so every check at one n shares a
    single build.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    eta = character_table(n).fixed_points
    states = enumerate_partitions(n)
    rows = []
    for lam in states:
        row = tensor_multiplicities(n, lam, eta, states)
        rows.append({j: m for j, m in enumerate(row) if m})
    return _kernel_from_multiplicities(n, rows)


class BoxWalk:
    """Tensor-power multiplicities of the S_n walk, stepped in integers.

    `states` are the partitions of n in the order of `enumerate_partitions`,
    `dims` their dimensions, and `removals[i]` the indices, among the
    partitions of n - 1, of the shapes one corner box short of `states[i]`.
    The multiplicity of rho in lam tensored with the permutation
    representation is the number of shapes one box short of both, so one
    step is a down pass onto the partitions of n - 1 and an up pass back.
    The r-step kernel mass at lam from the trivial start is then
    dims[lam] mult_r(lam) / n^r, and no `Fraction` is formed until a route
    reads one. Every curve walks r upward, so only the latest (r, mult_r) is
    kept: a later r steps on from it and an earlier r restarts from r = 0.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.states = tuple(enumerate_partitions(n))
        self.dims = tuple(count_syt(lam) for lam in self.states)
        below = {mu: j for j, mu in enumerate(enumerate_partitions(n - 1))}
        self.removals = tuple(
            tuple(below[mu] for mu in lam.corner_removals()) for lam in self.states
        )
        self._below_count = len(below)
        self._state_index = {lam: i for i, lam in enumerate(self.states)}
        # The 0-th tensor power is the trivial representation, the first state.
        self._start = tuple(int(i == 0) for i in range(len(self.states)))
        self._latest = 0, self._start

    def index(self, lam: Partition) -> int:
        return self._state_index[lam]

    def step(self, mult) -> tuple[int, ...]:
        """Multiplicities after tensoring once more with the permutation representation."""
        down = [0] * self._below_count
        for m, below in zip(mult, self.removals):
            if m:
                for j in below:
                    down[j] += m
        return tuple(sum(down[j] for j in below) for below in self.removals)

    def multiplicities(self, r: int) -> tuple[int, ...]:
        """mult_r: each state's multiplicity in the r-th tensor power."""
        if r < 0:
            raise ValueError("negative power")
        latest, mult = self._latest if self._latest[0] <= r else (0, self._start)
        for _ in range(r - latest):
            mult = self.step(mult)
        self._latest = r, mult
        return mult


@lru_cache(maxsize=1)
def box_walk(n: int) -> BoxWalk:
    """The box walk at n; the most recent one is kept with its latest step."""
    return BoxWalk(n)


def build_kernel_boxes(n: int) -> TransitionKernel:
    """Transition kernel from the remove-a-box / add-a-box description.

    Row lam holds the nonzero multiplicities of one `BoxWalk.step` from the
    point mass at lam: the number of intermediate shapes reachable by
    removing one corner from the source and one corner from the target.
    This construction shares nothing with `build_kernel_characters`, so
    comparing the two checks both, and with them the steps every kernel
    route takes.
    """
    walk = box_walk(n)
    size = len(walk.states)
    rows = []
    for i in range(size):
        row = walk.step([int(i == j) for j in range(size)])
        rows.append({j: m for j, m in enumerate(row) if m})
    return _kernel_from_multiplicities(n, rows)


@cache
def spectrum_sn(n: int) -> Spectrum:
    """Distinct eigenvalues i/n with i in {0..n-2, n} and their multiplicities.

    The multiplicity of i/n is the number of conjugacy classes with exactly
    i fixed points, i.e. the number of partitions of n-i with no part 1.
    Cached per n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    no_ones = partition_counts(n, min_part=2)
    entries = [(Fraction(i, n), no_ones[n - i]) for i in [n, *range(n - 2, -1, -1)]]
    spectrum = Spectrum(tuple(entries))
    if spectrum.total_multiplicity() != count_partitions(n):
        raise ConsistencyError("spectrum multiplicities do not sum to the class count")
    return spectrum


def ratio_via_kernel(n: int, r: int, lam: Partition) -> Fraction:
    """r-step mass at `lam` from the trivial start, over its stationary mass.

    The mass is f mult_r(lam) / n^r with f the dimension of `lam` and mult_r
    from the box walk, and the stationary mass is f^2 / n!.
    """
    walk = box_walk(n)
    i = walk.index(lam)
    return Fraction(factorial(n) * walk.multiplicities(r)[i], n**r * walk.dims[i])


def ratios_via_occupancy(n: int, lam: Partition, rs) -> Iterator[Fraction]:
    """`ratio_via_occupancy` at each r of the ascending `rs`, in one pass.

    The ratio is the sum over a of the occupancy law at a times the weight
    (n - a)! f^{lam/(n-a)} / f^lam; the numerators of the weights are made
    once. The skew count is 0 unless lam_1 >= n - a, so the law is one
    stepped pass of `occupancy_probabilities` for each a that carries weight
    (a = n always does), and a negative or decreasing r raises ValueError
    there.
    """
    rs = tuple(rs)
    weights, laws = zip(*(
        (factorial(n - a) * skew, occupancy_probabilities(a, n, rs))
        for a in range(n + 1)
        if (skew := count_skew_syt_row(lam, n - a))
    ))
    for probabilities in zip(*laws):
        yield sum(map(mul, probabilities, weights)) / count_syt(lam)


def ratio_via_occupancy(n: int, r: int, lam: Partition) -> Fraction:
    """Nonnegative form of the ratio: occupancy law against skew tableau counts."""
    return next(ratios_via_occupancy(n, lam, [r]))


def tensor_power_check(n: int, r: int, lam: Partition) -> bool:
    """Verify the box walk's multiplicity against the character sum.

    The multiplicity of `lam` in the r-th tensor power of the permutation
    representation, stepped in integers by `BoxWalk`, must equal the class
    sum of fixed_points^r times the character of `lam`, over n!, and that
    must be a nonnegative integer. Intended for small n and r (the
    character sum grows quickly).
    """
    walk = box_walk(n)
    table = character_table(n)
    char_sum = sum(
        size * fixed**r * chi
        for size, fixed, chi in zip(table.class_sizes, table.fixed_points, table.row(lam))
    )
    multiplicity = Fraction(char_sum, factorial(n))
    if multiplicity.denominator != 1 or multiplicity < 0:
        raise ConsistencyError(
            f"tensor power multiplicity not a nonnegative integer at "
            f"n={n} r={r} lam={lam}: {multiplicity}"
        )
    multiplicities = {"walk": walk.multiplicities(r)[walk.index(lam)], "characters": multiplicity}
    common_value(multiplicities, f"the tensor power identity, n={n} r={r} lam={lam}")
    return True


def _power_sum(coefficients: list[int], r: int) -> int:
    """The sum of coefficients[i] i^r over i >= 1, in one Horner pass.

    Each i is the product of its prime factors in ascending order, so the
    sum nests as S(m, p0) = c_m + sum over primes p >= p0 with m p <= top of
    p^r S(m p, p), and the total is S(1, 2). A node with no child, where
    m p^2 > top, is c_{m p} p^r, one big-by-small multiply; a factor 2^r is
    a shift, and each odd prime costs one `pow`, made once for the pass.
    Only the few nodes with children multiply two big integers.
    """
    top = len(coefficients) - 1
    primes = primes_up_to(top)
    powers = {p: pow(p, r) for p in primes[1:]}

    def horner(m: int, first: int) -> int:
        total = coefficients[m]
        for k in range(first, len(primes)):
            p = primes[k]
            i = m * p
            if i > top:
                break
            inner = horner(i, k) if i * p <= top else coefficients[i]
            total += inner << r if p == 2 else inner * powers[p]
        return total

    return horner(1, 0) if top else 0


def separation_closed_forms(n: int, rs) -> Iterator[Fraction]:
    """Separation distance after each r of the ascending `rs`, in one pass.

    The distance is one alternating integer sum over the common denominator
    n^r, reduced once per r by `reduced_over_power`, which takes the gcd from
    a residue of about a thousand bits where n^r is larger; fixed-precision
    evaluation of this sum cancels catastrophically, the exact route does
    not. Its terms are the small signed coefficients
    comb(n, i)(n - i - 1)(-1)^(n - i) times i^r. A step of one multiplies
    each carried term by i and the carried n^r by n, one big-by-small
    multiply each. Any other step is a jump: it evaluates the sum afresh by
    `_power_sum` and n^r by one `pow`, and carries no terms. A step of one
    right after a jump makes the terms at its r with one `pow` each and
    carries them from there on. A negative or decreasing r raises ValueError
    (see `chains.ascending_steps`).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    coefficients = [comb(n, i) * (n - i - 1) * (-1) ** (n - i) for i in range(n - 1)]
    terms = coefficients
    total = sum(terms)
    power = 1
    for r, step in ascending_steps(rs):
        if step == 1:
            if terms is None:
                terms = [c * pow(i, r) for i, c in enumerate(coefficients)]
            else:
                terms = list(map(mul, terms, range(n - 1)))
            total = sum(terms)
            power *= n
        elif step:
            terms = None
            total = _power_sum(coefficients, r)
            power = n**r
        yield reduced_over_power(total, n, r, power)


def separation_closed_form(n: int, r: int) -> Fraction:
    """Separation distance after r steps; see `separation_closed_forms`."""
    return next(separation_closed_forms(n, [r]))


def separations_by_route(n: int, rs) -> Iterator[dict[str, Fraction]]:
    """Separation after each r of the ascending `rs` from the trivial start,
    by four independent routes, checked equal at every r.

    Keyed by route name: the r-step row of the box walk at the single-column
    shape, the occupancy sum against skew tableau counts, the alternating
    closed form, and the eigenvalue-only formula on the distinct eigenvalues
    i/n of the walk. Each route carries its own state through the pass: the
    box walk steps on from its latest r, and the other three are stepped
    passes over `rs`. Raises ConsistencyError unless all four are the same
    fraction. The CLI prints each r's rows sorted by route name, so
    `closed_form` comes first.
    """
    rs = tuple(rs)
    sign = sign_shape(n)
    for r, occupancy_ratio, closed_form, spectral in zip(
        rs,
        ratios_via_occupancy(n, sign, rs),
        separation_closed_forms(n, rs),
        separations_from_spectrum(spectrum_sn(n).eigenvalues, rs),
    ):
        routes = {
            "kernel_power": 1 - ratio_via_kernel(n, r, sign),
            "occupancy_tableaux": 1 - occupancy_ratio,
            "closed_form": closed_form,
            "spectral": spectral,
        }
        common_value(routes, f"the S_n separation, n={n} r={r}")
        yield routes


def separation_routes(n: int, r: int) -> dict[str, Fraction]:
    """Separation after r steps by four routes; see `separations_by_route`."""
    return next(separations_by_route(n, [r]))


def check_single_column_extremal(kernel: TransitionKernel, r_max: int) -> None:
    """Raise unless the single-column shape attains the minimum mass ratio at every r <= r_max.

    The ratio is the r-step mass from the trivial start over the stationary
    mass; ties with other shapes are allowed. The kernel is reversible, so
    K^r(triv, lam) / pi(lam) = (K^r e_triv)(lam) / pi(triv), and the integer
    vector v_r = (D K)^r e_triv, one `scaled_image` per step, is a positive
    multiple of the ratios at r: shapes are compared in integers.
    """
    n = kernel.states[0].size
    sign = kernel.index(sign_shape(n))
    start = kernel.index(trivial_shape(n))
    vector = [int(i == start) for i in range(kernel.size)]
    for r in range(r_max + 1):
        if r:
            vector = kernel.scaled_image(vector)
        for lam, x in zip(kernel.states, vector):
            if x < vector[sign]:
                raise ConsistencyError(
                    f"ratio at {lam} undercuts the single-column shape at n={n} r={r}"
                )


def separation_profile(c: float) -> float:
    """Limiting separation profile at time n log n + c n.

    The number of unoccupied boxes is asymptotically Poisson with mean
    e^(-c); the profile is the probability that it is neither 0 nor 1. The
    finite-n error decays like log(n)/n.
    """
    if c < -700.0:
        return 1.0
    mean = exp(-c)
    if mean > 700.0:
        return 1.0
    return 1.0 - exp(-mean) * (1.0 + mean)


def tv_exact(n: int, r: int) -> Fraction:
    """Exact total-variation distance to stationarity after r steps.

    With masses f mult_r / n^r and stationary masses f^2 / n! over the
    states of the box walk, this is one integer sum over the common
    denominator 2 n^r n!.
    """
    walk = box_walk(n)
    order, steps = factorial(n), n**r
    gap = sum(
        abs(f * m * order - f * f * steps)
        for f, m in zip(walk.dims, walk.multiplicities(r))
    )
    return Fraction(gap, 2 * steps * order)
