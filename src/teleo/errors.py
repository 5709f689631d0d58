"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TeleoError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(TeleoError):
    """A graph-spec document could not be parsed.

    Carries the 1-based line number where the problem was detected, when
    one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidGraphError(TeleoError):
    """An operation required a valid graph but validation found violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid graph: " + "; ".join(self.violations))


class UnknownVariableError(TeleoError):
    """A variable name does not resolve to a declared variable."""


class DataError(TeleoError):
    """A dataset does not fit the graph it is analyzed with."""


class ZeroProbabilityError(TeleoError):
    """Conditioning on an event the model assigns probability zero."""


class RegimeError(TeleoError):
    """A regime clamps a variable it must not clamp in this context."""


class PolicyError(TeleoError):
    """Agent policy parameters violate their invariants."""


class HypothesisError(TeleoError):
    """An intention hypothesis names a variable outside the action's effects."""


class EnumerationLimitError(TeleoError):
    """Exact enumeration was requested beyond the configured size cap."""
