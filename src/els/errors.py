"""Exception types shared across the toolkit."""


class ElsError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(ElsError):
    """Raised when a numeric argument violates a documented precondition."""


class ParseError(ElsError):
    """Raised when a problem/point file cannot be decoded."""


class ValidationError(ElsError):
    """Raised when decoded data is structurally inconsistent."""


class UnknownFixture(ElsError):
    """Raised for fixture names outside the built-in catalogue."""


class Infeasible(ElsError):
    """Raised when every branch of a decomposed problem is infeasible."""


class NoFeasiblePoint(ElsError):
    """Raised when the search oracle finds no feasible point (inconclusive).

    ``diagnostics`` holds the oracle's counters when a single search raised it.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
