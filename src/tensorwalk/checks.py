"""The route-equality matrix that `crosscheck` runs.

Each check is a (name, thunk) pair; a thunk raises `ConsistencyError` when
its identity fails. `_run_checks` runs every check in order and reports each
failure without stopping, so one report lists them all. Only `crosscheck`
imports this module, so `import tensorwalk.cli` does not compile it.
"""

import math
from collections import Counter

from . import glwalk, interpolation, snwalk
from .characters import character_table, fixed_point_character_sums, signed_fixed_point_sum
from .combinat import enumerate_partitions
from .errors import ConsistencyError, common_value

CHARACTER_KERNEL_INVALID = "character kernel invalid; see kernel validation"


def _run_checks(checks) -> tuple[list[tuple[str, bool, str]], bool]:
    results = []
    for name, thunk in checks:
        try:
            thunk()
            results.append((name, True, ""))
        except ConsistencyError as exc:  # report and keep going
            results.append((name, False, str(exc)))
    return results, all(ok for _, ok, _ in results)


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
        for _ in snwalk.separations_by_route(n, range(r_max + 1)):
            pass

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
            fixed_point_character_sums(n, lam)

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
        for _ in glwalk.gl_separations_by_route(n, q, range(r_max + 1)):
            pass

    def early_saturation():
        for r, value in enumerate(glwalk.gl_separation_closed_forms(n, q, range(n))):
            if value != 1:
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
