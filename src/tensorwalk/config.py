"""Practical size limits and their environment override."""

import os
import warnings

from .errors import SizeLimitError

PRACTICAL_MAX_N = 10
MAX_N_ENV_VAR = "TENSORWALK_MAX_N"


def effective_max_n() -> int:
    """Largest n for which full kernel and table construction is allowed.

    Defaults to PRACTICAL_MAX_N. Setting the TENSORWALK_MAX_N environment
    variable raises the bound, with a warning, since table sizes and exact
    arithmetic costs grow quickly.
    """
    raw = os.environ.get(MAX_N_ENV_VAR)
    if raw is None:
        return PRACTICAL_MAX_N
    value = int(raw)
    if value > PRACTICAL_MAX_N:
        warnings.warn(
            f"{MAX_N_ENV_VAR}={value} overrides the default bound "
            f"{PRACTICAL_MAX_N}; expect large exact computations",
            stacklevel=2,
        )
    return value


def check_n(n: int) -> None:
    """Raise SizeLimitError unless 1 <= n <= effective_max_n()."""
    limit = effective_max_n()
    if not 1 <= n <= limit:
        raise SizeLimitError(
            f"n={n} outside the supported range 1..{limit} "
            "(raise TENSORWALK_MAX_N to override)"
        )
