"""Finite groups by multiplication table, twisted sectors, and degree shifting.

Conjugacy classes index the sectors of the inertia object of a global
quotient; each sector carries rotation numbers theta_i = m_i/m in [0,1)
whose sum is the rational degree shift, and a formal Betti table standing
in for the sector cohomology.  All arithmetic here is exact.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .contact import MonodromyTable
from .errors import ValidationError, checked_record

MAX_TABLE_ORDER = 64


class FiniteGroupTable(namedtuple("FiniteGroupTable", "order mul identity", defaults=(0,))):
    """A finite group given extensionally: mul[a][b] is the product index.

    validate checks the group axioms, and class_data runs it once per table;
    instances keep a __dict__ for that cache.
    """

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], identity: int = 0) -> "FiniteGroupTable":
        table = cls(order=len(rows), mul=tuple(tuple(int(x) for x in row) for row in rows),
                    identity=identity)
        table.class_data  # validates, and keeps the classes for every later reader
        return table

    @cached_property
    def class_data(self) -> "ClassData":
        """The validated class list and inverse-class map, computed once per table.

        The table is immutable, so the cache cannot go stale.  A table that
        fails validation raises on every access, since an exception is not
        cached.
        """
        return _class_data(self)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupTable":
        if n <= 0:
            raise ValidationError(f"cyclic group order must be positive, got {n}")
        if n > MAX_TABLE_ORDER:  # before the n x n table is built
            raise ValidationError(f"group order {n} outside supported range 1..{MAX_TABLE_ORDER}")
        rows = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return cls(order=n, mul=rows, identity=0)

    def validate(self) -> list[int]:
        """Check the group axioms; return the inverse of each element by index.

        Associativity is checked by Light's test: (a*b)*c = a*(b*c) for every
        a and c, but only for b in a generating set S.  The b that pass are
        closed under the product ((a*bb')*c = ((a*b)*b')*c = (a*b)*(b'*c) =
        a*(b*(b'*c)) = a*((b*b')*c)), and the identity passes by the unit law;
        S and the identity generate the table, so every b passes.  That costs
        |S|*n^2 lookups instead of n^3 (one generator for a cyclic table).
        Only a table that fails is scanned triple by triple: Light's test
        finds some failing b, and the scan names the lexicographically first
        failing (a,b,c), so the message does not depend on S.
        """
        n = self.order
        if n <= 0 or n > MAX_TABLE_ORDER:
            raise ValidationError(f"group order {n} outside supported range 1..{MAX_TABLE_ORDER}")
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise ValidationError(f"multiplication table is not {n}x{n}")
        for a in range(n):
            for b in range(n):
                if not 0 <= self.mul[a][b] < n:
                    raise ValidationError(f"table entry mul[{a}][{b}]={self.mul[a][b]} out of range")
        e = self.identity
        if not 0 <= e < n:
            raise ValidationError(f"identity index {e} out of range")
        for a in range(n):
            if self.mul[e][a] != a or self.mul[a][e] != a:
                raise ValidationError(f"element {a} breaks the two-sided unit law at identity {e}")
        inverses = [self.inverse(a) for a in range(n)]
        mul = self.mul
        for b in _generators(mul, e):
            row_b = mul[b]
            for row_a in mul:
                # row a*b against a*(b*c) for every c; tuple() returns a tuple
                # row itself and makes a hand-built list row comparable
                if tuple(mul[row_a[b]]) != tuple(map(row_a.__getitem__, row_b)):
                    a, b, c = _first_failing_triple(mul)
                    raise ValidationError(f"associativity fails on triple ({a},{b},{c})")
        return inverses

    def inverse(self, a: int) -> int:
        e = self.identity
        for b in range(self.order):
            if self.mul[a][b] == e and self.mul[b][a] == e:
                return b
        raise ValidationError(f"element {a} has no two-sided inverse")

    def element_order(self, a: int) -> int:
        x = a
        n = 1
        while x != self.identity:
            x = self.mul[x][a]
            n += 1
            if n > self.order:
                raise ValidationError(f"element {a} does not generate a finite cycle")
        return n


def _generators(mul: Sequence[Sequence[int]], identity: int) -> list[int]:
    """A greedy generating set: each element the products of the earlier ones
    (in either order, any bracketing) and the identity do not reach."""
    reached = [False] * len(mul)
    reached[identity] = True
    members = [identity]
    gens: list[int] = []
    for g in range(len(mul)):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        members.append(g)
        i = len(members) - 1
        while i < len(members):  # close under x*y and y*x with each new x
            x = members[i]
            for y in members[:i + 1]:
                for z in (mul[x][y], mul[y][x]):
                    if not reached[z]:
                        reached[z] = True
                        members.append(z)
            i += 1
    return gens


def _first_failing_triple(mul: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """The lexicographically first (a,b,c) with (a*b)*c != a*(b*c); one must exist."""
    n = len(mul)
    return next((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                if mul[mul[a][b]][c] != mul[a][mul[b][c]])


class ConjugacyClass(NamedTuple):
    representative: int
    members: frozenset[int]
    ord: int


class ClassData(NamedTuple):
    """Conjugacy classes of one table: the identity class first, then by least member.

    Shared by every reader of the table, so treat the maps as read-only.
    """

    classes: tuple[ConjugacyClass, ...]
    index_of: Mapping[frozenset[int], int]
    inverse_of: Mapping[frozenset[int], ConjugacyClass]


def _class_data(group: FiniteGroupTable) -> ClassData:
    inverses = group.validate()
    n = group.order
    seen: set[int] = set()
    classes: list[ConjugacyClass] = []
    for a in range(n):
        if a in seen:
            continue
        orbit = {group.mul[group.mul[g][a]][inverses[g]] for g in range(n)}
        seen |= orbit
        rep = min(orbit)
        classes.append(ConjugacyClass(rep, frozenset(orbit), group.element_order(rep)))
    classes.sort(key=lambda c: (c.representative != group.identity, min(c.members)))
    by_members = {cls_.members: cls_ for cls_ in classes}
    return ClassData(
        classes=tuple(classes),
        index_of={cls_.members: i for i, cls_ in enumerate(classes)},
        inverse_of={cls_.members: by_members[frozenset(inverses[m] for m in cls_.members)]
                    for cls_ in classes},
    )


def conjugacy_classes(group: FiniteGroupTable) -> list[ConjugacyClass]:
    """Conjugation orbits; the identity class comes first, then by least member.

    Returns a new list on each call, so a caller may change it freely.
    """
    return list(group.class_data.classes)


def inverse_class(group: FiniteGroupTable, cls_: ConjugacyClass) -> ConjugacyClass:
    """The class of inverses; applying twice is the identity on classes."""
    inverse = group.class_data.inverse_of.get(cls_.members)
    if inverse is None:
        raise ValidationError(f"no class holds the inverses of class of {cls_.representative}")
    return inverse


def class_label(index: int) -> str:
    return f"c{index}"


def monodromy_table(group: FiniteGroupTable) -> MonodromyTable:
    """Label the classes c0,c1,... (c0 = identity) and record orders and inverses."""
    data = group.class_data
    orders: dict[str, int] = {}
    inverses: dict[str, str] = {}
    for i, cls_ in enumerate(data.classes):
        orders[class_label(i)] = cls_.ord
        inv = data.inverse_of[cls_.members]
        inverses[class_label(i)] = class_label(data.index_of[inv.members])
    return MonodromyTable(orders=orders, inverses=inverses)


class SectorDatum(checked_record("SectorDatum", "cls rotations betti")):
    """One twisted sector: rotation numbers and a formal Betti table.

    shift and sector_dim are always recomputed from the rotations; betti maps
    an integer cohomology degree of the sector to a multiplicity.  A sector
    built without betti gets a fresh empty table of its own.
    """

    __slots__ = ()

    def __new__(klass, cls: ConjugacyClass, rotations: tuple[Fraction, ...],
                betti: Mapping[int, int] | None = None) -> SectorDatum:
        self = super().__new__(klass, cls, rotations, {} if betti is None else betti)
        for theta in self.rotations:
            if not 0 <= theta < 1:
                raise ValidationError(
                    f"rotation {theta} of class of {self.cls.representative} outside [0,1)"
                )
            if self.cls.ord % theta.denominator != 0:
                raise ValidationError(
                    f"rotation {theta} has denominator not dividing ord={self.cls.ord} "
                    f"(class of {self.cls.representative})"
                )
        for degree, mult in self.betti.items():
            if mult < 0:
                raise ValidationError(f"negative Betti number at degree {degree}")
        return self

    @property
    def shift(self) -> Fraction:
        """Sum of the rotation numbers, an exact rational in [0, n)."""
        return sum(self.rotations, Fraction(0))

    def sector_dim(self, ambient_dim: int) -> int:
        return ambient_dim - sum(1 for t in self.rotations if t != 0)

    def total_rank(self) -> int:
        return sum(self.betti.values())


class CRProfile(checked_record("CRProfile", "group ambient_dim sectors")):
    """Sector data covering every conjugacy class of a fixed ambient dimension.

    The class keeps an instance __dict__ for the _sector_index cache."""

    def __new__(klass, group: FiniteGroupTable, ambient_dim: int,
                sectors: tuple[SectorDatum, ...]) -> CRProfile:
        self = super().__new__(klass, group, ambient_dim, sectors)
        by_members = self._sector_index
        if len(by_members) != len(self.sectors):
            raise ValidationError("duplicate sector for a conjugacy class")
        for cls_ in self.group.class_data.classes:
            if cls_.members not in by_members:
                raise ValidationError(f"no sector for the class of {cls_.representative}")
        for sector in self.sectors:
            if len(sector.rotations) != self.ambient_dim:
                raise ValidationError(
                    f"sector of class of {sector.cls.representative} has "
                    f"{len(sector.rotations)} rotations, ambient dim is {self.ambient_dim}"
                )
        for sector in self.sectors:
            if self.group.identity in sector.cls.members:
                if any(t != 0 for t in sector.rotations):
                    raise ValidationError("untwisted sector has a nonzero rotation")
        # inverse-class rotations must be the complements (1 - theta) mod 1
        for sector in self.sectors:
            inv = inverse_class(self.group, sector.cls)
            partner = by_members[inv.members]
            expected = sorted((1 - t) % 1 if t != 0 else Fraction(0) for t in sector.rotations)
            if sorted(partner.rotations) != expected:
                raise ValidationError(
                    f"rotations of the inverse of class of {sector.cls.representative} "
                    f"are not the complements"
                )
        return self

    @cached_property
    def _sector_index(self) -> dict[frozenset[int], SectorDatum]:
        return {s.cls.members: s for s in self.sectors}

    def sector_of(self, cls_: ConjugacyClass) -> SectorDatum:
        sector = self._sector_index.get(cls_.members)
        if sector is None:
            raise ValidationError(f"no sector for the class of {cls_.representative}")
        return sector

    def labeled_sectors(self) -> list[tuple[str, SectorDatum]]:
        """Sectors in class order with their c{i} labels."""
        return [(class_label(i), self.sector_of(cls_))
                for i, cls_ in enumerate(self.group.class_data.classes)]


class PairingViolation(NamedTuple):
    sector: str
    degree: int
    found: int
    expected: int
    detail: str


class PairingReport(NamedTuple):
    violations: tuple[PairingViolation, ...]
    checked_pairs: int

    @property
    def ok(self) -> bool:
        return not self.violations


def pairing_check(profile: CRProfile) -> PairingReport:
    """Report (never raise) every violation of the graded pairing shape."""
    data = profile.group.class_data
    n = profile.ambient_dim
    violations: list[PairingViolation] = []
    checked = 0
    for sector in profile.sectors:
        label = class_label(data.index_of[sector.cls.members])
        partner = profile.sector_of(data.inverse_of[sector.cls.members])
        dim = sector.sector_dim(n)
        degrees = sorted(set(sector.betti) | {2 * dim - d for d in partner.betti})
        for d in degrees:
            checked += 1
            found = sector.betti.get(d, 0)
            expected = partner.betti.get(2 * dim - d, 0)
            if found != expected:
                violations.append(PairingViolation(
                    sector=label, degree=d, found=found, expected=expected,
                    detail=f"betti[{d}]={found} but inverse sector betti[{2 * dim - d}]={expected}",
                ))
    return PairingReport(tuple(violations), checked)


def cr_poincare_polynomial(profile: CRProfile) -> list[tuple[Fraction, int]]:
    """Rationally graded Betti counts: each sector's table shifted up by 2*shift."""
    report = pairing_check(profile)
    if not report.ok:
        first = report.violations[0]
        raise ValidationError(f"pairing shape violated at sector {first.sector}: {first.detail}")
    counts: dict[Fraction, int] = {}
    for sector in profile.sectors:
        for degree, mult in sector.betti.items():
            if mult == 0:
                continue
            cr_degree = Fraction(degree) + 2 * sector.shift
            counts[cr_degree] = counts.get(cr_degree, 0) + mult
    return sorted(counts.items())
