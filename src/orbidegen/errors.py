"""Shared exception types, and the base of the records that check their fields."""

from __future__ import annotations

from collections import namedtuple
from typing import Any


class ValidationError(ValueError):
    """Input data violates a structural invariant; message names the offender."""


class ResourceLimitError(RuntimeError):
    """A hard size cap (vertex count, permutation budget) was exceeded."""


class NonConvergenceError(RuntimeError):
    """Correction iteration diverged; carries the residual history."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = residuals


def named(where: str, build, *args: Any, **kwargs: Any) -> Any:
    """`build(*args, **kwargs)`; a ValidationError it raises is prefixed with `where`."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def checked_record(typename: str, field_names: str) -> type:
    """A namedtuple base for a record whose subclass checks its fields in
    `__new__`.  `_make` builds through the subclass, so `_replace` (which
    calls it) checks the new fields as well."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
