"""Fractional contact orders, partition enumeration, and insertion automorphisms.

A contact order at an orbifold point with local group Z_r is a positive
rational l = k/r carried as the raw pair (k, r); k is the lowest nonzero
degree of the normal component of the local lift and is NOT reduced against
r, because downstream degree products need the raw numerators.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

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

    @classmethod
    def cyclic(cls, n: int) -> "MonodromyTable":
        """Class table of Z_n with labels 'c0'..'c{n-1}', cj the singleton {j}."""
        if n <= 0:
            raise ValidationError(f"cyclic order must be positive, got {n}")
        orders = {f"c{j}": n // math.gcd(n, j) if j else 1 for j in range(n)}
        inverses = {f"c{j}": f"c{(n - j) % n}" for j in range(n)}
        return cls(orders=orders, inverses=inverses)


class RelInsertion(NamedTuple):
    """A relative insertion (contact order, monodromy class, formal basis label)."""

    order: ContactOrder
    monodromy: str = "e"
    basis_label: str = ""

    def triple(self) -> tuple[Fraction, str, str]:
        return (self.order.value, self.monodromy, self.basis_label)

    def check_order(self, table: MonodromyTable) -> None:
        r = table.order_of(self.monodromy)
        if self.order.r != r:
            raise ValidationError(
                f"contact order {self.order} has r={self.order.r} but class "
                f"{self.monodromy!r} has order {r}"
            )


def floor_bracket(value: Fraction | int) -> int:
    """Floor of a positive rational; at integers this returns the integer itself."""
    q = Fraction(value)
    if q <= 0:
        raise ValidationError(f"floor bracket needs a positive argument, got {q}")
    return q.numerator // q.denominator


class SumCheck(NamedTuple):
    ok: bool
    computed: Fraction
    expected: Fraction


def contact_sum_check(orders: Sequence[ContactOrder], total: Fraction | int) -> SumCheck:
    """Exact check that the contact orders sum to the divisor pairing total."""
    expected = Fraction(total)
    if expected < 0:
        raise ValidationError(f"total must be non-negative, got {expected}")
    computed = sum((o.value for o in orders), Fraction(0))
    return SumCheck(computed == expected, computed, expected)


def enumerate_partitions(
    total: Fraction | int, slot_orders: Sequence[int]
) -> list[tuple[ContactOrder, ...]]:
    """All ordered tuples (l_1..l_k), l_j = k_j/r_j with k_j >= 1, summing to total.

    Output is in lexicographic order of the value tuples; infeasible input
    yields an empty list.  More than MAX_PARTITIONS tuples raise
    ResourceLimitError before any is built.
    """
    goal = Fraction(total)
    if goal <= 0:
        raise ValidationError(f"partition total must be positive, got {goal}")
    for r in slot_orders:
        if r < 1:
            raise ValidationError(f"slot orders must be >= 1, got {r}")
    count = _partition_count(goal, slot_orders, MAX_PARTITIONS) if slot_orders else 0
    if count > MAX_PARTITIONS:
        raise ResourceLimitError(
            f"partitions of {goal} into {len(slot_orders)} slots number more than "
            f"{MAX_PARTITIONS}"
        )
    if count == 0:  # nothing to walk for, infeasible units included
        return []
    lcm = math.lcm(*slot_orders)
    units = goal * lcm
    # the units of _partition_count, w = lcm/r per step of k; the later slots need
    # a step each and can fill only multiples of the gcd of their weights
    weights = [lcm // r for r in slot_orders]
    last = len(slot_orders) - 1
    reserves, gcds = [0] * (last + 1), [0] * (last + 1)
    for j in range(last - 1, -1, -1):
        reserves[j] = reserves[j + 1] + weights[j + 1]
        gcds[j] = math.gcd(gcds[j + 1], weights[j + 1])
    out: list[tuple[ContactOrder, ...]] = []

    def fill(slot: int, rest: int, prefix: tuple[ContactOrder, ...]) -> None:
        r, w = slot_orders[slot], weights[slot]
        if slot == last:
            k, left = divmod(rest, w)
            if left == 0 and k >= 1:
                out.append((*prefix, ContactOrder(k, r)))
            return
        for k in range(1, (rest - reserves[slot]) // w + 1):
            if (rest - k * w) % gcds[slot] == 0:
                fill(slot + 1, rest - k * w, (*prefix, ContactOrder(k, r)))

    try:
        fill(0, units.numerator, ())
    except RecursionError:
        raise ResourceLimitError(f"partitions of {goal} into {len(slot_orders)} slots: "
                                 "more slots than the walk can nest") from None
    return out


def _partition_count(goal: Fraction, slot_orders: Sequence[int], cap: int) -> int:
    """How many tuples enumerate_partitions(goal, slot_orders) returns, or some
    number above `cap` once the count passes it.

    Counted in units of 1/L, L = lcm(slot_orders), so a slot of order r counts
    w = L/r units per step of k.  The m slots of one order r that take K/r
    together split it C(K - 1, m - 1) ways, so only the per-order totals K are
    walked, and of those only the ones whose leftover units are a multiple of
    the gcd of the later orders' weights (nothing else can be filled).

    count(i, rest) depends only on its arguments, so each pair is counted once
    per call.  A loop stops once its count passes `cap`, so a stored count
    above `cap` may be short of the true one.  Reusing it would still be
    safe: a caller multiplies it by a binomial of at least 1 and adds
    non-negative terms, so the caller's count passes `cap` as well.  In fact
    it is never read back, since every loop up to the top then stops.  A
    count at or below `cap` had no term cut short and is exact.
    """
    lcm = math.lcm(*slot_orders)
    units = goal * lcm
    if units.denominator != 1:
        return 0
    groups = sorted(Counter(slot_orders).items())
    weights = [lcm // r for r, _ in groups]
    later_gcd = [0] * (len(groups) + 1)  # gcd of the weights after each group
    reserve = [0] * (len(groups) + 1)  # units the groups after each one need
    for i in range(len(groups) - 1, -1, -1):
        later_gcd[i] = math.gcd(weights[i], later_gcd[i + 1])
        reserve[i] = reserve[i + 1] + groups[i][1] * weights[i]

    memo: dict[tuple[int, int], int] = {}  # (i, rest) -> count(i, rest)

    def count(i: int, rest: int) -> int:
        m, w, g = groups[i][1], weights[i], later_gcd[i + 1]
        if g == 0:  # the last group takes all the rest
            k, left = divmod(rest, w)
            return math.comb(k - 1, m - 1) if left == 0 and k >= m else 0
        found = memo.get((i, rest))
        if found is not None:
            return found
        # d = gcd(w, g) divides rest: 1 at i = 0, and each K below leaves a multiple of g
        d = later_gcd[i]
        step = g // d  # K must solve K * w = rest (mod g)
        first = rest // d * pow(w // d, -1, step) % step
        found = 0
        k = m + (first - m) % step
        while k * w <= rest - reserve[i + 1] and found <= cap:
            found += math.comb(k - 1, m - 1) * count(i + 1, rest - k * w)
            k += step
        memo[i, rest] = found
        return found

    return count(0, units.numerator)


def aut_order(insertions: Iterable[RelInsertion]) -> int:
    """Order of the permutation group preserving every (l, h, beta) triple; l = k/r
    is keyed by its lowest-terms pair, equal exactly when the values are."""
    keys = []
    for ins in insertions:
        k, r = ins.order.k, ins.order.r
        g = math.gcd(k, r)
        keys.append((k // g, r // g, ins.monodromy, ins.basis_label))
    return _multiset_aut(keys)


def _multiset_aut(items: Iterable[Hashable]) -> int:
    """Order of the permutation group of a multiset that fixes each item: the
    product of the factorials of the multiplicities."""
    counts: dict[Hashable, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return math.prod(map(math.factorial, counts.values()))


def branch_cover_degree(r: int) -> int:
    """Degree of the smoothing-parameter cover at an orbifold node of multiplicity r."""
    if r < 1:
        raise ValidationError(f"multiplicity must be >= 1, got {r}")
    return r
