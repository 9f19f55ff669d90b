"""Exception types shared across the toolkit, and its admissibility rule.

``require_finite`` alone decides which numbers the parameter types and the
pricing entry points admit, so a bad value is refused by name before any
pricing or path-step.  Correlation intervals, integer settings and the chain
parser's line-numbered errors are other rules, kept by their owners.
"""

import math


def require_finite(*, positive: bool = False, **values) -> None:
    """ValueError naming the first of ``values`` that is not finite, or, with
    ``positive``, not finite and strictly positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and (value > 0 or not positive)):
            rule = "finite and positive" if positive else "finite"
            raise ValueError(f"{name} must be {rule}, got {value!r}")


class MsHestonError(Exception):
    """Base class for all toolkit errors."""


class BranchCrossing(MsHestonError):
    """The rotation-safe log argument landed exactly on the negative real axis.

    Diagnostic only: under the principal-branch square root this is not
    expected to occur for admissible parameters.
    """


class NonConvergence(MsHestonError):
    """No implied vol reproduces a price: it is not finite, its time value is
    below float resolution, it implies a vol outside the bracket, or the
    iteration stalls."""


class OutOfBand(MsHestonError):
    """A price violates its no-arbitrage band; ``bound`` is 'lower' or 'upper'."""

    def __init__(self, message, bound):
        super().__init__(message)
        self.bound = bound


class StepExplosion(MsHestonError):
    """A simulated state became non-finite; carries the path index and step."""

    def __init__(self, message, path_index, step):
        super().__init__(message)
        self.path_index = path_index
        self.step = step


class ParseError(MsHestonError):
    """An input failed validation: a chain CSV row, with its 1-based line
    number, or a command-line setting, with line number 0 and no prefix."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}" if line_number else message)
        self.line_number = line_number


class EmptyAfterFilter(MsHestonError):
    """Every chain row was rejected by the data filters."""


class NonFinite(MsHestonError):
    """An objective or parameter vector evaluated to a non-finite value."""
