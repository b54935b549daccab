"""Practical size limit for full kernel and character table construction."""

from .errors import SizeLimitError

PRACTICAL_MAX_N = 10


def check_n(n: int) -> None:
    """Raise SizeLimitError unless 1 <= n <= PRACTICAL_MAX_N."""
    if not 1 <= n <= PRACTICAL_MAX_N:
        raise SizeLimitError(
            f"n={n} outside the supported range 1..{PRACTICAL_MAX_N}"
        )
