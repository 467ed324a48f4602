"""Virtual dimension calculators and the splitting dimension ledger.

Four flavors share the backbone c1(A) + (3-n)(g-1) + m; relative flavors add
k and deduct contact orders (floor brackets in the orbifold case), orbifold
flavors deduct the degree shifts of the insertions.  All values are exact
rationals; smooth flavors come out integral.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .contact import MonodromyTable, floor_bracket
from .errors import ValidationError, checked_record

ABSOLUTE_SMOOTH = "absolute-smooth"
RELATIVE_SMOOTH = "relative-smooth"
ABSOLUTE_ORBIFOLD = "absolute-orbifold"
RELATIVE_ORBIFOLD = "relative-orbifold"

FLAVORS = (ABSOLUTE_SMOOTH, RELATIVE_SMOOTH, ABSOLUTE_ORBIFOLD, RELATIVE_ORBIFOLD)


class RelTerm(namedtuple("RelTerm", "order shift monodromy", defaults=(Fraction(0), "e"))):
    """One relative insertion as the dimension formula sees it."""

    __slots__ = ()


class ModuliSpec(checked_record("ModuliSpec", "flavor n genus c1A shifts rel zA")):
    """Inputs of one moduli dimension computation.

    shifts are the degree shifts of the absolute insertions (m = len);
    rel carries the relative insertions (k = len).  zA is the divisor pairing
    of the class and must equal the contact sum when rel is nonempty; an
    omitted zA is that sum (0 with no relative insertions).
    """

    __slots__ = ()

    def __new__(klass, flavor: str, n: int, genus: int, c1A: Fraction,
                shifts: tuple[Fraction, ...] = (), rel: tuple[RelTerm, ...] = (),
                zA: Fraction | None = None) -> ModuliSpec:
        total = sum((t.order.value for t in rel), Fraction(0))
        self = super().__new__(klass, flavor, n, genus, c1A, shifts, rel,
                               total if zA is None else zA)
        if self.flavor not in FLAVORS:
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if self.n <= 0:
            raise ValidationError(f"ambient dimension must be positive, got {self.n}")
        if self.genus < 0:
            raise ValidationError(f"genus must be non-negative, got {self.genus}")
        if self.rel and total != self.zA:
            raise ValidationError(f"contact orders sum to {total} but zA is {self.zA}")
        if self.flavor in (ABSOLUTE_SMOOTH, RELATIVE_SMOOTH):
            if any(s != 0 for s in self.shifts) or any(t.shift != 0 for t in self.rel):
                raise ValidationError(f"{self.flavor} spec carries nonzero degree shifts")
            if any(t.order.r != 1 for t in self.rel):
                raise ValidationError(f"{self.flavor} spec carries fractional contact orders")
        if self.flavor in (ABSOLUTE_SMOOTH, ABSOLUTE_ORBIFOLD) and self.rel:
            raise ValidationError(f"{self.flavor} spec carries relative insertions")
        if self.flavor in (RELATIVE_SMOOTH, RELATIVE_ORBIFOLD) and not self.rel:
            raise ValidationError(f"{self.flavor} spec needs relative insertions")
        return self

    @property
    def m(self) -> int:
        return len(self.shifts)

    @property
    def k(self) -> int:
        return len(self.rel)


def virdim(spec: ModuliSpec) -> Fraction:
    """Complex virtual dimension of the moduli space described by `spec`.

    The relative-orbifold expression serves every flavor: a smooth spec has
    no shifts and integral contacts (whose floor bracket is the contact), and
    an absolute spec has no relative insertions.
    """
    return (spec.c1A + (3 - spec.n) * (spec.genus - 1) + spec.m + spec.k
            - sum(spec.shifts, Fraction(0))
            - sum((t.shift + floor_bracket(t.order.value) for t in spec.rel), Fraction(0)))


class Ledger(namedtuple("Ledger", "d_total d_plus d_minus constraint_dims")):
    """Dimension bookkeeping of one splitting: the two halves, the fiber-product
    constraints at matched nodes, and the resulting defect against the total."""

    __slots__ = ()

    @property
    def defect(self) -> Fraction:
        return self.d_plus + self.d_minus - sum(self.constraint_dims, Fraction(0)) - self.d_total


def splitting_ledger(
    plus: ModuliSpec,
    minus: ModuliSpec | None,
    matched_sector_dims: tuple[Fraction, ...] | tuple[int, ...],
    total: ModuliSpec,
    table: MonodromyTable | None = None,
) -> Ledger:
    """Build the ledger for a splitting with matched relative insertions.

    Both sides are pieces of the degeneration of the target of `total`, so
    their ambient dimension n must equal its own.  The two sides must match
    node by node: equal contact orders, and (when a class table is supplied)
    mutually inverse monodromies.  A trivial splitting passes minus=None
    (empty side, dimension 0).  The caller is trusted for
    the genus/class bookkeeping of `total`; the ledger reports the defect
    without judgment except in the smooth specialization, where it is 0
    exactly whenever c1A = c1A(+) + c1A(-) - 2 zA.
    """
    for name, side in (("plus", plus), ("minus", minus)):
        if side is not None and side.n != total.n:
            raise ValidationError(
                f"{name}: ambient dimension {side.n} differs from the total's {total.n}")
    minus_k = minus.k if minus is not None else 0
    if plus.k != minus_k:
        raise ValidationError(
            f"sides match {plus.k} vs {minus_k} relative insertions"
        )
    if len(matched_sector_dims) != plus.k:
        raise ValidationError(
            f"{len(matched_sector_dims)} sector dims for {plus.k} matched nodes"
        )
    if minus is not None:
        for j, (tp, tm) in enumerate(zip(plus.rel, minus.rel)):
            if tp.order != tm.order:
                raise ValidationError(
                    f"node {j}: contact orders differ ({tp.order} vs {tm.order})"
                )
            if table is not None and table.inverse_of(tp.monodromy) != tm.monodromy:
                raise ValidationError(
                    f"node {j}: monodromies {tp.monodromy!r}, {tm.monodromy!r} "
                    f"are not mutually inverse"
                )
    dims = tuple(Fraction(d) for d in matched_sector_dims)
    return Ledger(
        d_total=virdim(total),
        d_plus=virdim(plus),
        d_minus=virdim(minus) if minus is not None else Fraction(0),
        constraint_dims=dims,
    )
