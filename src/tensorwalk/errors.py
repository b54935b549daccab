"""Exception types shared across the package."""


class ConsistencyError(Exception):
    """Two independent computation routes disagreed.

    Raised when exact values that must coincide (different formulas for the
    same quantity, internal identities) differ. Indicates a bug or a broken
    invariant, never bad user input.
    """


class RouteDisagreement(ConsistencyError):
    """Two routes gave different values for the same quantity.

    `where` names the quantity and the walk parameters, `route` and `value`
    the route that differs, and `first_route` and `first` the route it was
    compared with. The message names all five.
    """

    def __init__(self, where: str, route, value, first_route, first):
        super().__init__(
            f"route {route} disagrees with {first_route} on {where}: {value} vs {first}"
        )
        self.where = where
        self.route = route
        self.value = value
        self.first_route = first_route
        self.first = first


def common_value(values: dict, where: str):
    """The value that every route in `values` (route name -> value) gives.

    Raises RouteDisagreement for the first route whose value differs from
    the first route's.
    """
    (first_route, first), *rest = values.items()
    for route, value in rest:
        if value != first:
            raise RouteDisagreement(where, route, value, first_route, first)
    return first


class UnsupportedFieldError(ValueError):
    """Field arithmetic requested for a modulus that is not prime."""


class ExcludedCaseError(ValueError):
    """Parameter combination explicitly excluded from the analysis."""
