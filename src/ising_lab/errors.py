"""Shared error and warning types."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PhaseError(DomainError):
    """Coupling on the wrong side of the critical point (k >= 1)."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to meet its tolerance.

    Carries the best value reached, the remaining gap and the number of
    terms summed so callers can salvage a flagged result instead of losing
    the work.  terms is None when the failure came before any term.
    """

    def __init__(self, message, best=None, gap=None, terms=None):
        super().__init__(message)
        self.best = best
        self.gap = gap
        self.terms = terms


class PrecisionWarning(UserWarning):
    """Result is returned but its accuracy may be degraded."""
