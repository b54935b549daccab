"""Exception types shared across the package."""


class ConsistencyError(Exception):
    """Two independent computation routes disagreed.

    Raised when exact values that must coincide (different formulas for the
    same quantity, internal identities) differ. Indicates a bug or a broken
    invariant, never bad user input.
    """


def common_value(values: dict, where: str):
    """The value that every route in `values` (route name -> value) gives.

    Raises ConsistencyError naming the first route whose value differs from
    the first route's, `where` (the quantity and the walk parameters) and
    both values.
    """
    (first_route, first), *rest = values.items()
    for route, value in rest:
        if value != first:
            raise ConsistencyError(
                f"route {route} disagrees with {first_route} on {where}: "
                f"{value} vs {first}"
            )
    return first


class SizeLimitError(ValueError):
    """Requested size exceeds the documented practical bound."""


class UnsupportedFieldError(ValueError):
    """Field arithmetic requested for a modulus that is not prime."""


class ExcludedCaseError(ValueError):
    """Parameter combination explicitly excluded from the analysis."""
