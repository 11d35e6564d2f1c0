"""Exception hierarchy shared by all modules.

Public functions never raise bare ValueError/RuntimeError; they raise one of
the semantic classes below so the CLI can map them to a stable exit code.
"""

from __future__ import annotations


class WishartDpError(Exception):
    """Base class for all library errors."""


class DomainError(WishartDpError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DegenerateInputError(DomainError):
    """Structurally valid input that is degenerate (all-zero matrix, empty list)."""


class ConfigError(WishartDpError, ValueError):
    """Inconsistent configuration (e.g. a noisy variant without noise, or sigma with eps_target)."""


class PreconditionError(WishartDpError, ValueError):
    """A stated precondition of a closed-form bound fails for the given parameters."""


class InadmissibleAlignmentError(PreconditionError):
    """Alignment rho is at or below the admissibility threshold of the vector bound.

    Carries the threshold so callers can report how far off the input was.
    """

    def __init__(self, rho: float, threshold: float):
        self.rho = rho
        self.threshold = threshold
        super().__init__(
            f"alignment rho={rho:.6g} is inadmissible: the vector bound requires "
            f"rho > {threshold:.6g} at these (r, delta') values"
        )


class RegimeError(PreconditionError):
    """The rank r is outside the regime where the small-r improvement holds.

    ``condition`` is "lower" (r too small for the Beta-tail budget) or "upper"
    (r too large for the trade-off budget); ``r_bound`` is the minimal
    (resp. maximal) rank that would satisfy the violated condition.
    """

    def __init__(self, condition: str, r: int, r_bound: int | None, detail: str):
        self.condition = condition
        self.r = r
        self.r_bound = r_bound
        super().__init__(detail)


class OutsideSupportError(DomainError):
    """A density was evaluated at a point outside its support."""

