"""Exact analysis of tensor-product random walks on irreducible representations.

The package builds the walks on the irreducible representations of the
symmetric and general linear groups in exact rational arithmetic, computes
their separation and total-variation distances along several independent
routes, and cross-asserts the routes against each other.
"""

from .chains import SeparationCurve, Spectrum, TransitionKernel
from .characters import (
    CharacterTable,
    ClassDescriptor,
    character_table,
    conjugacy_classes,
    fixed_point_character_sum,
    signed_fixed_point_sum,
    tensor_multiplicity,
)
from .combinat import (
    Partition,
    count_skew_syt,
    count_syt,
    enumerate_partitions,
    is_prime,
    q_binomial,
)
from .errors import (
    ConsistencyError,
    ExcludedCaseError,
    RouteDisagreement,
    UnsupportedFieldError,
)
from .glwalk import (
    gl_separation_bounds,
    gl_separation_closed_form,
    gl_separation_exact,
    gl_separation_limit,
    gl_separation_routes,
    gl_spectrum,
    is_prime_power,
)
from .interpolation import (
    interpolation_coefficients,
    separation_from_spectrum,
    verify_distance,
)
from .occupancy import (
    McEstimate,
    occupancy_chain_power,
    occupancy_exact,
    occupancy_mc,
    qspan_chain_power,
    qspan_exact,
    qspan_mc,
)
from .snwalk import (
    build_kernel_boxes,
    build_kernel_characters,
    separation_closed_form,
    separation_closed_forms,
    separation_profile,
    separation_routes,
    spectrum_sn,
    tensor_power_check,
    tv_exact,
)

__version__ = "0.1.0"
