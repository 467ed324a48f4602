"""Fractional contact orders, partition enumeration, and insertion automorphisms.

A contact order at an orbifold point with local group Z_r is a positive
rational l = k/r carried as the raw pair (k, r); k is the lowest nonzero
degree of the normal component of the local lift and is NOT reduced against
r, because downstream degree products need the raw numerators.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import ResourceLimitError, ValidationError, checked_record

MAX_PARTITIONS = 100_000


class ContactOrder(checked_record("ContactOrder", "k r")):
    """A fractional contact order k/r with monodromy order r."""

    __slots__ = ()

    def __new__(klass, k: int, r: int = 1) -> ContactOrder:
        self = super().__new__(klass, k, r)
        if self.k <= 0 or self.r <= 0:
            raise ValidationError(f"contact order needs k>0 and r>0, got k={self.k}, r={self.r}")
        return self

    @property
    def value(self) -> Fraction:
        return Fraction(self.k, self.r)

    def __str__(self) -> str:
        return f"{self.k}/{self.r}"


class MonodromyTable(checked_record("MonodromyTable", "orders inverses")):
    """Conjugacy-class labels of the divisor group with orders and inverses.

    This is the label-level shadow of a finite group's class data: enough to
    check edge balance (mutually inverse half decorations) and the r = ord(h)
    tie between a contact order and its monodromy class.
    """

    __slots__ = ()

    def __new__(klass, orders: Mapping[str, int], inverses: Mapping[str, str]) -> MonodromyTable:
        self = super().__new__(klass, orders, inverses)
        for label, order in self.orders.items():
            if order <= 0:
                raise ValidationError(f"class {label!r} has non-positive order {order}")
            inv = self.inverses.get(label)
            if inv is None:
                raise ValidationError(f"class {label!r} has no inverse entry")
            if inv not in self.orders:
                raise ValidationError(f"inverse {inv!r} of class {label!r} is not a known class")
            if inv not in self.inverses:
                raise ValidationError(f"class {inv!r} has no inverse entry")
            if self.inverses[inv] != label:
                raise ValidationError(f"inverse map is not an involution at class {label!r}")
            if self.orders[inv] != order:
                raise ValidationError(f"class {label!r} and its inverse differ in order")
        return self

    def order_of(self, label: str) -> int:
        if label not in self.orders:
            raise ValidationError(f"unknown monodromy class {label!r}")
        return self.orders[label]

    def inverse_of(self, label: str) -> str:
        if label not in self.inverses:
            raise ValidationError(f"unknown monodromy class {label!r}")
        return self.inverses[label]

    def __contains__(self, label: str) -> bool:
        return label in self.orders

    @classmethod
    def trivial(cls) -> "MonodromyTable":
        return cls(orders={"e": 1}, inverses={"e": "e"})


class RelInsertion(namedtuple("RelInsertion", "order monodromy basis_label", defaults=("e", ""))):
    """A relative insertion (contact order, monodromy class, formal basis label)."""

    __slots__ = ()

    def triple(self) -> tuple[Fraction, str, str]:
        return (self.order.value, self.monodromy, self.basis_label)


def floor_bracket(value: Fraction | int) -> int:
    """Floor of a positive rational; at integers this returns the integer itself."""
    q = Fraction(value)
    if q <= 0:
        raise ValidationError(f"floor bracket needs a positive argument, got {q}")
    return q.numerator // q.denominator


def enumerate_partitions(
    total: Fraction | int, slot_orders: Sequence[int]
) -> list[tuple[ContactOrder, ...]]:
    """All ordered tuples (l_1..l_k), l_j = k_j/r_j with k_j >= 1, summing to total.

    Output is in lexicographic order of the value tuples; infeasible input
    yields an empty list.  More than MAX_PARTITIONS tuples, or more than
    MAX_PARTITIONS memoized states to count them, or more slots than the
    interpreter can nest, raise ResourceLimitError before any tuple is built.
    """
    goal = Fraction(total)
    if goal <= 0:
        raise ValidationError(f"partition total must be positive, got {goal}")
    for r in slot_orders:
        if r < 1:
            raise ValidationError(f"slot orders must be >= 1, got {r}")
    try:
        count, walk = _partitions(goal, slot_orders, MAX_PARTITIONS)
        if count > MAX_PARTITIONS:
            raise ResourceLimitError(
                f"partitions of {goal} into {len(slot_orders)} slots number more than "
                f"{MAX_PARTITIONS}"
            )
        return walk() if count else []
    except RecursionError:  # the count and the walk both recurse once per slot
        raise ResourceLimitError(f"partitions of {goal} into {len(slot_orders)} slots: "
                                 "more slots than the walk can nest") from None


def _partitions(
    goal: Fraction, slot_orders: Sequence[int], cap: int
) -> tuple[int, Callable[[], list[tuple[ContactOrder, ...]]]]:
    """(count, walk) for the tuples enumerate_partitions(goal, slot_orders)
    returns: count is their number, or some number above `cap` once the count
    passes it, and walk() builds them, for a count at or below `cap`.

    Counted in units of 1/L, L = lcm(slot_orders): a slot of order r takes
    k >= 1 steps of w = L/r units, so the tuples are the ways to write
    U = goal * L as sum k_j w_j.  A U that is no positive integer has none.
    """
    lcm = math.lcm(*slot_orders)
    units = goal * lcm
    if not slot_orders or units <= 0 or units.denominator != 1:
        return 0, list
    # the later slots need a step each and can fill only multiples of the gcd
    # of their weights
    weights = [lcm // r for r in slot_orders]
    last = len(slot_orders) - 1
    reserves, gcds = [0] * (last + 1), [0] * (last + 1)
    for j in range(last - 1, -1, -1):
        reserves[j] = reserves[j + 1] + weights[j + 1]
        gcds[j] = math.gcd(gcds[j + 1], weights[j + 1])

    def steps(slot: int, rest: int) -> range:
        """The k of a non-last slot, ascending, that leave the later slots at
        least their reserve and a multiple of the gcd g of their weights:
        the solutions of k * w = rest (mod g)."""
        w, g = weights[slot], gcds[slot]
        d = math.gcd(w, g)  # divides rest, which is a multiple of the gcd before
        step = g // d
        first = rest // d * pow(w // d, -1, step) % step
        return range(1 + (first - 1) % step, (rest - reserves[slot]) // w + 1, step)

    memo: dict[tuple[int, int], int] = {}  # (slot, rest) -> count(slot, rest)

    def count(slot: int, rest: int) -> int:
        """How many ways slots slot..last, one step each at least, take
        exactly rest units, for a rest that steps() left to them.

        A loop stops once its sum passes `cap`, so a count stored above `cap`
        may be short of the true one; but it is still above `cap` and still
        nonzero, and those are the only two things a caller reads.  A count
        at or below `cap` had no loop cut short: it is exact, and every state
        below it is stored.  Past MAX_PARTITIONS stored states the count
        raises ResourceLimitError.
        """
        if slot == last:  # steps() left a positive multiple of its weight
            return 1
        found = memo.get((slot, rest))
        if found is None:
            w, found = weights[slot], 0
            for k in steps(slot, rest):
                found += count(slot + 1, rest - k * w)
                if found > cap:
                    break
            memo[slot, rest] = found
            if len(memo) > MAX_PARTITIONS:
                raise ResourceLimitError(
                    f"partitions of {goal} into {len(slot_orders)} slots need more than "
                    f"{MAX_PARTITIONS} states to count"
                )
        return found

    out: list[tuple[ContactOrder, ...]] = []

    def fill(slot: int, rest: int, prefix: tuple[ContactOrder, ...]) -> None:
        # every call completes: a prefix is extended only where count() > 0,
        # which under a count(0, U) at or below `cap` is a memo read
        r, w = slot_orders[slot], weights[slot]
        if slot == last:
            out.append((*prefix, ContactOrder(rest // w, r)))
            return
        for k in steps(slot, rest):
            if count(slot + 1, rest - k * w):
                fill(slot + 1, rest - k * w, (*prefix, ContactOrder(k, r)))

    def walk() -> list[tuple[ContactOrder, ...]]:
        fill(0, units.numerator, ())
        return out

    return count(0, units.numerator), walk


def aut_order(insertions: Iterable[RelInsertion]) -> int:
    """Order of the permutation group preserving every (l, h, beta) triple: the
    multiset automorphisms of the triples, with l = k/r keyed by its value, so
    2/4 and 1/2 tie (Fractions are equal exactly when their lowest-terms pairs
    are)."""
    return _multiset_aut(ins.triple() for ins in insertions)


def _multiset_aut(items: Iterable[Hashable]) -> int:
    """Order of the permutation group of a multiset that fixes each item: the
    product of the factorials of the multiplicities."""
    counts: dict[Hashable, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return math.prod(map(math.factorial, counts.values()))

