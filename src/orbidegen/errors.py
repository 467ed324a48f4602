"""Shared exception types."""

from __future__ import annotations


class ValidationError(ValueError):
    """Input data violates a structural invariant; message names the offender."""


class ResourceLimitError(RuntimeError):
    """A hard size cap (vertex count, permutation budget) was exceeded."""


class NonConvergenceError(RuntimeError):
    """Correction iteration diverged; carries the residual history."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = residuals
