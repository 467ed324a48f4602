import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from orbidegen import contact
from orbidegen.contact import (
    ContactOrder,
    MonodromyTable,
    RelInsertion,
    aut_order,
    branch_cover_degree,
    contact_sum_check,
    enumerate_partitions,
    floor_bracket,
)
from orbidegen.errors import ResourceLimitError, ValidationError


def brute_force_partitions(total, slot_orders):
    """Independent oracle: scan every numerator tuple up to the obvious cap."""
    total = F(total)
    caps = [int(total * r) for r in slot_orders]
    out = []

    def rec(i, prefix, acc):
        if i == len(slot_orders):
            if acc == total:
                out.append(tuple(prefix))
            return
        for k in range(1, caps[i] + 1):
            rec(i + 1, prefix + [(k, slot_orders[i])], acc + F(k, slot_orders[i]))

    rec(0, [], F(0))
    return out


class TestFloorBracket:
    def test_three_halves(self):
        assert floor_bracket(F(3, 2)) == 1

    def test_integer_stays(self):
        # integer contact orders must not lose a unit (smooth specialization)
        assert floor_bracket(F(2)) == 2

    def test_below_one(self):
        assert floor_bracket(F(1, 3)) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            floor_bracket(F(0))
        with pytest.raises(ValidationError):
            floor_bracket(F(-1, 2))

    def test_floor_plus_fraction(self):
        rng = random.Random(5)
        for _ in range(200):
            q = F(rng.randint(1, 60), rng.randint(1, 12))
            frac = q - floor_bracket(q)
            assert 0 <= frac < 1
            assert floor_bracket(q) + frac == q


class TestSumCheck:
    def test_matching_integers(self):
        orders = [ContactOrder(1, 1), ContactOrder(1, 1)]
        assert contact_sum_check(orders, 2).ok

    def test_matching_halves(self):
        orders = [ContactOrder(1, 2), ContactOrder(3, 2)]
        report = contact_sum_check(orders, 2)
        assert report.ok and report.computed == 2

    def test_mismatch(self):
        assert not contact_sum_check([ContactOrder(1, 2)], 1).ok

    def test_negative_total_rejected(self):
        with pytest.raises(ValidationError, match="^total must be non-negative, got -1$"):
            contact_sum_check([], -1)


class TestEnumeratePartitions:
    def test_two_unit_slots(self):
        assert enumerate_partitions(2, [1, 1]) == [(ContactOrder(1, 1), ContactOrder(1, 1))]

    def test_two_half_slots(self):
        got = enumerate_partitions(2, [2, 2])
        assert got == [
            (ContactOrder(1, 2), ContactOrder(3, 2)),
            (ContactOrder(2, 2), ContactOrder(2, 2)),
            (ContactOrder(3, 2), ContactOrder(1, 2)),
        ]

    def test_infeasible_is_empty(self):
        assert enumerate_partitions(1, [1, 1]) == []
        # 1/3 is not a multiple of 1/2, so no tuple is counted or built
        assert enumerate_partitions(F(1, 3), [2]) == []

    @pytest.mark.parametrize("total,orders", [
        (2, [2, 2]), (3, [1, 2]), (F(5, 2), [2, 2, 2]), (2, [3, 6]), (4, [1, 1, 1]),
    ])
    def test_against_brute_force(self, total, orders):
        got = [tuple((o.k, o.r) for o in tup) for tup in enumerate_partitions(total, orders)]
        assert sorted(got) == sorted(brute_force_partitions(total, orders))
        assert got == sorted(got)  # lexicographic output order

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_composition_counts(self, n, k):
        got = len(enumerate_partitions(n, [1] * k))
        assert got == math.comb(n - 1, k - 1)

    def test_slot_permutation_bijection(self):
        orders = [2, 3, 1]
        base = {tuple((o.k, o.r) for o in tup)
                for tup in enumerate_partitions(3, orders)}
        permuted = {tuple((o.k, o.r) for o in tup)
                    for tup in enumerate_partitions(3, [orders[2], orders[0], orders[1]])}
        assert {(t[2], t[0], t[1]) for t in base} == permuted

    def test_wide_orders_skip_leftovers_no_later_slot_fills(self):
        # orders 1..12 count in units of 1/27720; a prefix whose leftover is no
        # multiple of the later weights' gcd is dropped before it is extended
        orders = list(range(1, 13))
        started = time.perf_counter()
        got = enumerate_partitions(6, orders)
        assert time.perf_counter() - started < 5
        assert len(got) == contact._partition_count(F(6), orders, 10**9) == 48
        assert all(sum(o.value for o in tup) == 6 for tup in got)
        assert got == sorted(got)

    def test_zero_count_builds_nothing(self, monkeypatch):
        # 6 into orders 1..20 counts 0 tuples, so the walk never starts
        built = []

        class Counted(ContactOrder):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(contact, "ContactOrder", Counted)
        assert enumerate_partitions(6, list(range(1, 21))) == []
        assert built == []

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            enumerate_partitions(0, [1])
        with pytest.raises(ValidationError):
            enumerate_partitions(2, [0])


class TestPartitionCount:
    """The count enumerate_partitions checks against MAX_PARTITIONS before it
    builds a tuple."""

    def test_matches_the_enumeration(self):
        # the enumeration is itself checked against brute_force_partitions above
        rng = random.Random(20261018)
        for _ in range(500):
            orders = [rng.choice([1, 2, 3, 4, 6]) for _ in range(rng.randint(1, 4))]
            total = F(rng.randint(1, 16), rng.choice([1, 2, 3, 4, 6, 12]))
            expected = len(enumerate_partitions(total, orders))
            assert contact._partition_count(total, orders, 10**9) == expected, (total, orders)

    @pytest.mark.parametrize("total,orders", [
        (10**9, [63, 64]), (10**9, [2, 3, 5, 7]), (F(10**9 + 1, 6), [2, 3]),
        (300, [1, 1, 1, 1]), (10**6, [4, 6, 10, 15]),
    ])
    def test_stops_above_the_cap(self, total, orders):
        assert contact._partition_count(F(total), orders, 100) > 100

    def test_refused_before_building(self):
        with pytest.raises(ResourceLimitError, match="partitions of 300 into 4 slots"):
            enumerate_partitions(300, [1, 1, 1, 1])

    def test_cap_is_exact(self, monkeypatch):
        # C(7, 2) = 21 tuples
        monkeypatch.setattr(contact, "MAX_PARTITIONS", 20)
        with pytest.raises(ResourceLimitError, match="more than 20"):
            enumerate_partitions(8, [1, 1, 1])
        monkeypatch.setattr(contact, "MAX_PARTITIONS", 21)
        assert len(enumerate_partitions(8, [1, 1, 1])) == 21


class TestAutOrder:
    def test_distinct_triples(self):
        ins = [RelInsertion(ContactOrder(1), "h", "b1"),
               RelInsertion(ContactOrder(2), "h", "b2")]
        assert aut_order(ins) == 1

    def test_spec_example(self):
        ins = [RelInsertion(ContactOrder(1), "h", "b1"),
               RelInsertion(ContactOrder(1), "h", "b1"),
               RelInsertion(ContactOrder(2), "h", "b2")]
        assert aut_order(ins) == 2

    def test_three_identical(self):
        ins = [RelInsertion(ContactOrder(1), "h", "b")] * 3
        assert aut_order(ins) == 6

    def test_divides_factorial_and_max_iff_identical(self):
        rng = random.Random(11)
        for _ in range(100):
            k = rng.randint(1, 5)
            ins = [RelInsertion(ContactOrder(rng.randint(1, 2)), "h", rng.choice("ab"))
                   for _ in range(k)]
            order = aut_order(ins)
            assert math.factorial(k) % order == 0
            identical = len({i.triple() for i in ins}) == 1
            assert (order == math.factorial(k)) == identical

    def test_equal_values_with_different_raw_pairs(self):
        # 2/2 and 1/1 are one contact value, as are 2/4 and 1/2
        assert aut_order([RelInsertion(ContactOrder(2, 2), "e", "b"),
                          RelInsertion(ContactOrder(1, 1), "e", "b")]) == 2
        assert aut_order([RelInsertion(ContactOrder(2, 4), "h", "b"),
                          RelInsertion(ContactOrder(1, 2), "h", "b"),
                          RelInsertion(ContactOrder(3, 6), "h", "b")]) == 6
        assert aut_order([RelInsertion(ContactOrder(2, 4), "h", "b"),
                          RelInsertion(ContactOrder(1, 4), "h", "b")]) == 1

    def test_against_value_keyed_reference(self):
        def reference(insertions):
            counts = Counter(ins.triple() for ins in insertions)
            return math.prod(math.factorial(c) for c in counts.values())

        rng = random.Random(2026)
        repeated = 0
        for _ in range(500):
            ins = [RelInsertion(ContactOrder(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6))),
                                rng.choice("eh"), rng.choice("ab"))
                   for _ in range(rng.randint(0, 6))]
            assert aut_order(ins) == reference(ins)
            repeated += reference(ins) > 1 and len({(i.order, i.monodromy, i.basis_label)
                                                    for i in ins}) == len(ins)
        # some draws repeat a value only through different raw pairs
        assert repeated > 10


class TestBranchCover:
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_degree_is_r(self, r):
        assert branch_cover_degree(r) == r

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            branch_cover_degree(0)


class TestContactOrder:
    def test_value_and_raw_pair(self):
        order = ContactOrder(2, 2)
        assert order.value == 1 and order.k == 2 and order.r == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            ContactOrder(0, 1)


class TestMonodromyTable:
    def test_cyclic_orders_and_inverses(self):
        table = MonodromyTable.cyclic(6)
        assert table.order_of("c2") == 3
        assert table.order_of("c3") == 2
        assert table.inverse_of("c1") == "c5"
        for label in table.orders:
            assert table.inverse_of(table.inverse_of(label)) == label

    def test_rel_insertion_order_check(self):
        table = MonodromyTable.cyclic(2)
        RelInsertion(ContactOrder(1, 2), "c1").check_order(table)
        with pytest.raises(ValidationError):
            RelInsertion(ContactOrder(1, 3), "c1").check_order(table)

    def test_broken_involution_rejected(self):
        with pytest.raises(ValidationError):
            MonodromyTable(orders={"a": 2, "b": 2}, inverses={"a": "b", "b": "b"})

    def test_missing_inverse_entry_of_an_inverse_rejected(self):
        with pytest.raises(ValidationError, match="class 'b' has no inverse entry"):
            MonodromyTable(orders={"a": 1, "b": 1}, inverses={"a": "b"})

    def test_mutually_inverse_pair_accepted(self):
        table = MonodromyTable(orders={"a": 3, "b": 3}, inverses={"a": "b", "b": "a"})
        assert table.inverse_of("a") == "b"


@pytest.mark.parametrize("build,message", [
    (lambda: MonodromyTable(orders={"a": 0}, inverses={"a": "a"}),
     "class 'a' has non-positive order 0"),
    (lambda: MonodromyTable(orders={"a": 1}, inverses={}), "class 'a' has no inverse entry"),
    (lambda: MonodromyTable(orders={"a": 1}, inverses={"a": "b"}),
     "inverse 'b' of class 'a' is not a known class"),
    (lambda: MonodromyTable(orders={"a": 1, "b": 1, "c": 1},
                            inverses={"a": "b", "b": "c", "c": "a"}),
     "inverse map is not an involution at class 'a'"),
    (lambda: MonodromyTable(orders={"a": 1, "b": 2}, inverses={"a": "b", "b": "a"}),
     "class 'a' and its inverse differ in order"),
    (lambda: MonodromyTable.cyclic(0), "cyclic order must be positive, got 0"),
    (lambda: MonodromyTable.trivial().order_of("q"), "unknown monodromy class 'q'"),
    (lambda: MonodromyTable.trivial().inverse_of("q"), "unknown monodromy class 'q'"),
], ids=["non-positive-order", "no-inverse-entry", "unknown-inverse", "not-an-involution",
        "orders-differ", "cyclic-0", "unknown-order", "unknown-inverse-of"])
def test_monodromy_table_message(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message
