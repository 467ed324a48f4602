import itertools
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

from orbidegen import inertia
from orbidegen.contact import MonodromyTable
from orbidegen.errors import ValidationError
from orbidegen.inertia import (
    MAX_TABLE_ORDER,
    ConjugacyClass,
    CRProfile,
    FiniteGroupTable,
    SectorDatum,
    conjugacy_classes,
    cr_poincare_polynomial,
    inverse_class,
    monodromy_table,
    pairing_check,
)
from orbidegen.io import load_document

DATA = Path(__file__).resolve().parent / "data"


def s3_table() -> FiniteGroupTable:
    """S3 built here from permutation composition, independent of the module."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return FiniteGroupTable.from_rows(rows, identity=index[(0, 1, 2)])


def scan_verdict(rows, identity: int) -> str | None:
    """The message validate gives a table that keeps the unit law, found by
    checking inverses and then every triple in lexicographic order."""
    n = len(rows)
    for a in range(n):
        if not any(rows[a][b] == identity == rows[b][a] for b in range(n)):
            return f"element {a} has no two-sided inverse"
    for a, b, c in itertools.product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return f"associativity fails on triple ({a},{b},{c})"
    return None


def brute_force_classes(group: FiniteGroupTable):
    """Independent conjugation-orbit oracle."""
    n = group.order
    inv = [next(b for b in range(n)
                if group.mul[a][b] == group.identity and group.mul[b][a] == group.identity)
           for a in range(n)]
    remaining = set(range(n))
    classes = []
    while remaining:
        a = min(remaining)
        orbit = {group.mul[group.mul[g][a]][inv[g]] for g in range(n)}
        classes.append(frozenset(orbit))
        remaining -= orbit
    return classes


def sector(group, rep, rotations, betti=None):
    cls = next(c for c in conjugacy_classes(group) if rep in c.members)
    return SectorDatum(cls=cls, rotations=tuple(F(r) for r in rotations),
                       betti=betti or {0: 1})


def plane_profile(group, assignments, ambient=2, untwisted_betti=None):
    """Profile on C^ambient with rotations per class representative; every
    sector gets the minimal Poincare-symmetric Betti table for its dimension."""
    betti_top = untwisted_betti or {0: 1, 2: 2, 4: 1}
    sectors = []
    for cls in conjugacy_classes(group):
        rotations = tuple(F(r) for r in assignments[cls.representative])
        if cls.representative == group.identity:
            betti = betti_top
        else:
            dim = ambient - sum(1 for t in rotations if t != 0)
            betti = {0: 1} if dim == 0 else {0: 1, 2 * dim: 1}
        sectors.append(SectorDatum(cls=cls, rotations=rotations, betti=betti))
    return CRProfile(group=group, ambient_dim=ambient, sectors=tuple(sectors))


Z2_PLANE = {0: ("0", "0"), 1: ("1/2", "1/2")}
Z3_PLANE = {0: ("0", "0"), 1: ("1/3", "2/3"), 2: ("2/3", "1/3")}
Z6_PLANE = {0: ("0", "0"), 1: ("1/6", "5/6"), 2: ("1/3", "2/3"),
            3: ("1/2", "1/2"), 4: ("2/3", "1/3"), 5: ("5/6", "1/6")}
S3_PLANE = {0: ("0", "0"), 1: ("0", "1/2"), 3: ("1/3", "2/3")}


def all_test_profiles():
    out = [
        ("trivial", plane_profile(FiniteGroupTable.cyclic(1), {0: ("0", "0")})),
        ("z2", plane_profile(FiniteGroupTable.cyclic(2), Z2_PLANE)),
        ("z3", plane_profile(FiniteGroupTable.cyclic(3), Z3_PLANE)),
        ("z6", plane_profile(FiniteGroupTable.cyclic(6), Z6_PLANE)),
    ]
    group = s3_table()
    assignments = {}
    for cls in conjugacy_classes(group):
        assignments[cls.representative] = S3_PLANE[cls.representative]
    out.append(("s3", plane_profile(group, assignments)))
    return out


class TestGroupTable:
    def test_cyclic_passes(self):
        FiniteGroupTable.cyclic(6).validate()

    def test_non_associative_names_triple(self):
        rows = [[0, 1], [1, 1]]  # 1*1 = 1 leaves 1 without an inverse
        with pytest.raises(ValidationError, match="two-sided inverse"):
            FiniteGroupTable.from_rows(rows)

    def test_loop_with_inverses_names_the_failing_triple(self):
        # identity 0, every element its own inverse, but (1*1)*2 != 1*(1*2)
        rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0]]
        with pytest.raises(ValidationError, match=r"^associativity fails on triple \(1,1,2\)$"):
            FiniteGroupTable.from_rows(rows)

    def test_groups_never_reach_the_scan(self, monkeypatch):
        # Light's test passes every group on its generating set alone
        def scan(mul):
            raise AssertionError("the triple scan ran on a group")

        monkeypatch.setattr(inertia, "_first_failing_triple", scan)
        for n in range(1, MAX_TABLE_ORDER + 1):
            FiniteGroupTable.cyclic(n).validate()
        s3_table(), dihedral8_table()  # from_rows validates
        d32 = dihedral_table(16)
        FiniteGroupTable(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]).validate()  # list rows
        # the cost is |S| * n^2: one generator for Z64, two for the dihedral 32
        assert inertia._generators(FiniteGroupTable.cyclic(64).mul, 0) == [1]
        assert len(inertia._generators(d32.mul, d32.identity)) == 2

    def test_order_64_names_the_scanned_triple(self):
        text = (DATA / "groups_nonassoc64.json").read_text()
        rows = json.loads(text)["groups"][0]["table"]
        verdict = scan_verdict(rows, 0)
        assert verdict == "associativity fails on triple (1,39,7)"
        with pytest.raises(ValidationError) as info:
            load_document(text)  # a table entry is validated as it is read
        assert str(info.value) == f"groups[g]: {verdict}"

    def test_missing_identity_detected(self):
        rows = [[1, 0], [0, 1]]
        with pytest.raises(ValidationError, match="unit"):
            FiniteGroupTable.from_rows(rows, identity=0)

    def test_element_order(self):
        group = FiniteGroupTable.cyclic(6)
        assert [group.element_order(a) for a in range(6)] == [1, 6, 3, 2, 3, 6]


class TestConjugacyClasses:
    def test_trivial_group(self):
        classes = conjugacy_classes(FiniteGroupTable.cyclic(1))
        assert len(classes) == 1

    def test_cyclic_three_singletons(self):
        classes = conjugacy_classes(FiniteGroupTable.cyclic(3))
        assert [sorted(c.members) for c in classes] == [[0], [1], [2]]

    def test_s3_sizes_against_oracle(self):
        group = s3_table()
        got = sorted(len(c.members) for c in conjugacy_classes(group))
        oracle = sorted(len(c) for c in brute_force_classes(group))
        assert got == oracle == [1, 2, 3]

    def test_identity_class_first(self):
        for group in (FiniteGroupTable.cyclic(4), s3_table()):
            assert group.identity in conjugacy_classes(group)[0].members

    def test_partition(self):
        group = s3_table()
        classes = conjugacy_classes(group)
        union = sorted(x for c in classes for x in c.members)
        assert union == list(range(group.order))


class TestInverseClass:
    def test_identity_fixed(self):
        group = FiniteGroupTable.cyclic(5)
        identity_class = conjugacy_classes(group)[0]
        assert inverse_class(group, identity_class) == identity_class

    def test_cyclic_generator(self):
        group = FiniteGroupTable.cyclic(3)
        classes = conjugacy_classes(group)
        gen = next(c for c in classes if 1 in c.members)
        assert 2 in inverse_class(group, gen).members

    def test_transpositions_self_inverse(self):
        group = s3_table()
        classes = conjugacy_classes(group)
        transpositions = next(c for c in classes if len(c.members) == 3)
        assert inverse_class(group, transpositions) == transpositions

    def test_involution(self):
        for group in (FiniteGroupTable.cyclic(6), s3_table()):
            for cls in conjugacy_classes(group):
                assert inverse_class(group, inverse_class(group, cls)) == cls


class TestDegreeShift:
    def test_untwisted_zero(self):
        group = FiniteGroupTable.cyclic(2)
        assert sector(group, 0, ("0",), {0: 1}).shift == 0

    def test_z2_half(self):
        group = FiniteGroupTable.cyclic(2)
        assert sector(group, 1, ("1/2",)).shift == F(1, 2)

    def test_z3_sum_one(self):
        group = FiniteGroupTable.cyclic(3)
        assert sector(group, 1, ("1/3", "2/3")).shift == 1

    def test_rotation_out_of_range(self):
        group = FiniteGroupTable.cyclic(2)
        with pytest.raises(ValidationError):
            sector(group, 1, ("3/2",))

    def test_denominator_must_divide_order(self):
        group = FiniteGroupTable.cyclic(2)
        with pytest.raises(ValidationError):
            sector(group, 1, ("1/3",))

    @pytest.mark.parametrize("name,profile", all_test_profiles())
    def test_shift_sum_is_nonzero_rotation_count(self, name, profile):
        # iota(g) + iota(g^-1) = #(nonzero rotations) = n - sector_dim, exactly
        for datum in profile.sectors:
            inv = inverse_class(profile.group, datum.cls)
            partner = profile.sector_of(inv)
            nonzero = sum(1 for t in datum.rotations if t != 0)
            assert datum.shift + partner.shift == nonzero
            assert nonzero == profile.ambient_dim - datum.sector_dim(profile.ambient_dim)

    @pytest.mark.parametrize("name,profile", all_test_profiles())
    def test_shift_range_and_denominator(self, name, profile):
        for datum in profile.sectors:
            assert 0 <= datum.shift < profile.ambient_dim
            assert datum.cls.ord % datum.shift.denominator == 0


class TestCRPolynomial:
    def test_manifold_no_shift(self):
        group = FiniteGroupTable.cyclic(1)
        profile = CRProfile(group=group, ambient_dim=1, sectors=(
            SectorDatum(cls=conjugacy_classes(group)[0], rotations=(F(0),),
                        betti={0: 1, 2: 1}),))
        assert cr_poincare_polynomial(profile) == [(F(0), 1), (F(2), 1)]

    def test_z2_sector_contributes_shifted(self):
        profile = plane_profile(FiniteGroupTable.cyclic(2), Z2_PLANE)
        poly = dict(cr_poincare_polynomial(profile))
        # twisted sector: betti {0:1} shifted by 2 * (1/2 + 1/2) = 2
        assert poly[F(2)] == 2 + 1  # untwisted q^2 multiplicity 2 plus the sector

    def test_z3_inverse_pair(self):
        group = FiniteGroupTable.cyclic(3)
        assignments = {0: ("0",), 1: ("1/3",), 2: ("2/3",)}
        sectors = []
        for cls in conjugacy_classes(group):
            betti = {0: 1, 2: 1} if cls.representative == 0 else {0: 1}
            sectors.append(SectorDatum(cls=cls,
                                       rotations=(F(assignments[cls.representative][0]),),
                                       betti=betti))
        profile = CRProfile(group=group, ambient_dim=1, sectors=tuple(sectors))
        poly = dict(cr_poincare_polynomial(profile))
        assert poly[F(2, 3)] == 1 and poly[F(4, 3)] == 1

    @pytest.mark.parametrize("name,profile", all_test_profiles())
    def test_total_rank_matches_betti(self, name, profile):
        poly = cr_poincare_polynomial(profile)
        assert sum(m for _, m in poly) == sum(sum(s.betti.values()) for s in profile.sectors)

    def test_zero_multiplicity_skipped(self):
        group = FiniteGroupTable.cyclic(1)
        profile = CRProfile(group=group, ambient_dim=1, sectors=(
            SectorDatum(cls=conjugacy_classes(group)[0], rotations=(F(0),),
                        betti={0: 1, 1: 0, 2: 1}),))
        assert cr_poincare_polynomial(profile) == [(F(0), 1), (F(2), 1)]

    def test_raises_on_pairing_violation(self):
        profile = _corrupted_z2()
        with pytest.raises(ValidationError, match="pairing"):
            cr_poincare_polynomial(profile)


def _corrupted_z2():
    group = FiniteGroupTable.cyclic(2)
    classes = conjugacy_classes(group)
    return CRProfile(group=group, ambient_dim=2, sectors=(
        SectorDatum(cls=classes[0], rotations=(F(0), F(0)), betti={0: 1, 2: 2, 4: 1}),
        SectorDatum(cls=classes[1], rotations=(F(1, 2), F(1, 2)), betti={0: 1, 2: 1}),
    ))


class TestPairingCheck:
    @pytest.mark.parametrize("name,profile", all_test_profiles())
    def test_valid_profiles_pass(self, name, profile):
        assert pairing_check(profile).ok

    def test_corrupted_profile_located(self):
        report = pairing_check(_corrupted_z2())
        assert not report.ok
        assert any(v.sector == "c1" and v.degree == 2 for v in report.violations)

    def test_cr_degrees_pair_to_2n(self):
        profile = plane_profile(FiniteGroupTable.cyclic(3), Z3_PLANE)
        n = profile.ambient_dim
        for datum in profile.sectors:
            partner = profile.sector_of(inverse_class(profile.group, datum.cls))
            dim = datum.sector_dim(n)
            for d in datum.betti:
                cr_left = d + 2 * datum.shift
                cr_right = (2 * dim - d) + 2 * partner.shift
                assert cr_left + cr_right == 2 * n

    @pytest.mark.parametrize("name,profile", all_test_profiles())
    def test_rank_invariant_under_inverse_swap(self, name, profile):
        total = sum(sum(s.betti.values()) for s in profile.sectors)
        swapped = 0
        for datum in profile.sectors:
            partner = profile.sector_of(inverse_class(profile.group, datum.cls))
            swapped += sum(partner.betti.values())
        assert swapped == total


class TestMonodromyTableFromGroup:
    def test_s3_labels(self):
        table = monodromy_table(s3_table())
        assert table.orders == {"c0": 1, "c1": 2, "c2": 3}
        assert table.inverse_of("c2") == "c2"

    def test_cyclic_labels_agree_with_the_contact_table(self):
        # the closed form of Z_n: cj is the class of j, of order n / gcd(n, j),
        # with inverse c(-j mod n)
        for n in range(1, MAX_TABLE_ORDER + 1):
            oracle = MonodromyTable(orders={f"c{j}": n // math.gcd(n, j) for j in range(n)},
                                    inverses={f"c{j}": f"c{-j % n}" for j in range(n)})
            assert monodromy_table(FiniteGroupTable.cyclic(n)) == oracle


def dihedral8_table() -> FiniteGroupTable:
    """Symmetries of a square."""
    return dihedral_table(4)


def dihedral_table(m: int) -> FiniteGroupTable:
    """Symmetries of a regular m-gon as vertex permutations, closed under composition."""
    rotation = tuple((i + 1) % m for i in range(m))
    reflection = tuple(-i % m for i in range(m))
    identity = tuple(range(m))
    perms = {identity}
    frontier = [rotation, reflection]
    while frontier:
        p = frontier.pop()
        if p not in perms:
            perms.add(p)
            frontier.extend(tuple(p[q[i]] for i in range(m)) for q in (rotation, reflection))
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    rows = [[index[tuple(p[q[i]] for i in range(m))] for q in perms] for p in perms]
    return FiniteGroupTable.from_rows(rows, identity=index[identity])


def z16_profile(group: FiniteGroupTable) -> CRProfile:
    """C with Z16 rotating by j/16 in sector j; the inverse sector rotates by 1 - j/16."""
    sectors = []
    for cls in conjugacy_classes(group):
        j = cls.representative
        betti = {0: 1, 2: 1} if j == 0 else {0: 1}
        sectors.append(SectorDatum(cls=cls, rotations=(F(j, 16),), betti=betti))
    return CRProfile(group=group, ambient_dim=1, sectors=tuple(sectors))


class TestClassDataComputedOnce:
    def test_validate_runs_once_per_table(self, monkeypatch):
        calls = []
        original = FiniteGroupTable.validate

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(FiniteGroupTable, "validate", counting)
        rows = FiniteGroupTable.cyclic(16).mul
        for build in (lambda: FiniteGroupTable.cyclic(16),
                      lambda: FiniteGroupTable.from_rows(rows)):
            calls.clear()
            group = build()
            profile = z16_profile(group)
            profile.labeled_sectors()
            assert pairing_check(profile).ok
            assert sum(m for _, m in cr_poincare_polynomial(profile)) == 17
            table = monodromy_table(group)
            assert table.inverse_of("c3") == "c13"
            for cls in conjugacy_classes(group):
                profile.sector_of(inverse_class(group, cls))
            assert calls == [group]

    def test_each_inverse_found_once(self, monkeypatch):
        # validate finds every inverse, and the class data reuses them
        calls = []
        original = FiniteGroupTable.inverse

        def counting(self, a):
            calls.append(a)
            return original(self, a)

        monkeypatch.setattr(FiniteGroupTable, "inverse", counting)
        data = FiniteGroupTable.cyclic(64).class_data
        assert sorted(calls) == list(range(64))
        assert data.inverse_of[frozenset({5})].members == {59}

    @pytest.mark.parametrize("name,group", [(f"z{n}", FiniteGroupTable.cyclic(n))
                                            for n in range(1, 17)]
                             + [("s3", s3_table()), ("d8", dihedral8_table())])
    def test_inverse_class_against_brute_force(self, name, group):
        e = group.identity
        oracle = set(brute_force_classes(group))
        for cls in conjugacy_classes(group):
            inverted = frozenset(
                next(b for b in range(group.order)
                     if group.mul[m][b] == e and group.mul[b][m] == e)
                for m in cls.members)
            got = inverse_class(group, cls)
            assert got.members == inverted
            assert got.members in oracle

    def test_dihedral8_has_five_classes(self):
        sizes = sorted(len(c.members) for c in conjugacy_classes(dihedral8_table()))
        assert sizes == [1, 1, 2, 2, 2]

    def test_returned_list_is_a_copy(self):
        group = s3_table()
        first = conjugacy_classes(group)
        expected = list(first)
        first.reverse()
        first.append(first[0])
        assert conjugacy_classes(group) == expected
        first.clear()
        assert conjugacy_classes(group) == expected

    def test_class_outside_the_table_rejected(self):
        group = FiniteGroupTable.cyclic(6)
        stranger = next(c for c in conjugacy_classes(s3_table()) if len(c.members) == 3)
        with pytest.raises(ValidationError, match="no class holds the inverses"):
            inverse_class(group, stranger)

    def test_bad_table_raises_on_every_call(self):
        group = FiniteGroupTable(order=2, mul=((0, 1), (1, 1)))
        for _ in range(2):
            with pytest.raises(ValidationError):
                conjugacy_classes(group)


def z_classes(n: int) -> list:
    return conjugacy_classes(FiniteGroupTable.cyclic(n))


# (build, message): each rule of the group, sector and profile checks once
VALIDATION_CASES = {
    "order-0": (lambda: FiniteGroupTable.from_rows([]),
                "group order 0 outside supported range 1..64"),
    "order-65": (lambda: FiniteGroupTable.cyclic(65).validate(),
                 "group order 65 outside supported range 1..64"),
    # refused before its n x n table is built
    "cyclic-10^6": (lambda: FiniteGroupTable.cyclic(10**6),
                    "group order 1000000 outside supported range 1..64"),
    "cyclic-0": (lambda: FiniteGroupTable.cyclic(0),
                 "cyclic group order must be positive, got 0"),
    "ragged-rows": (lambda: FiniteGroupTable.from_rows([[0, 1], [1]]),
                    "multiplication table is not 2x2"),
    "entry-out-of-range": (lambda: FiniteGroupTable.from_rows([[0, 2], [1, 0]]),
                           "table entry mul[0][1]=2 out of range"),
    "identity-out-of-range": (lambda: FiniteGroupTable.from_rows([[0, 1], [1, 0]], identity=5),
                              "identity index 5 out of range"),
    "unit-law": (lambda: FiniteGroupTable.from_rows([[1, 0], [0, 1]]),
                 "element 0 breaks the two-sided unit law at identity 0"),
    "no-inverse": (lambda: FiniteGroupTable.from_rows([[0, 1], [1, 1]]),
                   "element 1 has no two-sided inverse"),
    "unvalidated-inverse": (lambda: FiniteGroupTable(2, ((0, 1), (1, 1))).inverse(1),
                            "element 1 has no two-sided inverse"),
    "unvalidated-order": (lambda: FiniteGroupTable(2, ((0, 1), (1, 1))).element_order(1),
                          "element 1 does not generate a finite cycle"),
    "rotation-out-of-range": (lambda: SectorDatum(z_classes(2)[1], (F(3, 2),)),
                              "rotation 3/2 of class of 1 outside [0,1)"),
    "rotation-denominator": (lambda: SectorDatum(z_classes(2)[1], (F(1, 3),)),
                             "rotation 1/3 has denominator not dividing ord=2 (class of 1)"),
    "negative-betti": (lambda: SectorDatum(z_classes(2)[1], (F(1, 2),), {2: -1}),
                       "negative Betti number at degree 2"),
    "duplicate-sector": (lambda: CRProfile(FiniteGroupTable.cyclic(1), 1, (
        SectorDatum(z_classes(1)[0], (F(0),)), SectorDatum(z_classes(1)[0], (F(0),)))),
        "duplicate sector for a conjugacy class"),
    "missing-sector": (lambda: CRProfile(FiniteGroupTable.cyclic(2), 1, (
        SectorDatum(z_classes(2)[0], (F(0),)),)),
        "no sector for the class of 1"),
    "rotation-count": (lambda: CRProfile(FiniteGroupTable.cyclic(2), 2, (
        SectorDatum(z_classes(2)[0], (F(0), F(0))), SectorDatum(z_classes(2)[1], (F(1, 2),)))),
        "sector of class of 1 has 1 rotations, ambient dim is 2"),
    # the identity class has order 1, so only a hand-built class reaches this
    "twisted-identity": (lambda: CRProfile(FiniteGroupTable.cyclic(1), 1, (
        SectorDatum(ConjugacyClass(0, frozenset({0}), 2), (F(1, 2),)),)),
        "untwisted sector has a nonzero rotation"),
    "not-complements": (lambda: CRProfile(FiniteGroupTable.cyclic(3), 1, (
        SectorDatum(z_classes(3)[0], (F(0),)), SectorDatum(z_classes(3)[1], (F(1, 3),)),
        SectorDatum(z_classes(3)[2], (F(1, 3),)))),
        "rotations of the inverse of class of 1 are not the complements"),
    "unknown-sector": (lambda: plane_profile(FiniteGroupTable.cyclic(2), Z2_PLANE).sector_of(
        z_classes(4)[2]), "no sector for the class of 2"),
}


@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
def test_validation_message(case):
    build, message = VALIDATION_CASES[case]
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def subgroup_order(group: FiniteGroupTable, a: int) -> int:
    """Order of a as the size of {a, a^2, ..., a^|G|}, the subgroup it generates."""
    powers = itertools.accumulate([a] * group.order, lambda x, y: group.mul[x][y])
    return len(set(powers))


def shipped_groups():
    data = Path(__file__).resolve().parent.parent / "demos" / "data"
    # a ledger document (ledger_*.json) is read by load_ledger, and its members
    # are not load_document's
    return [(f"{path.name}:{name}", group) for path in sorted(data.glob("*.json"))
            if not path.name.startswith("ledger_")
            for name, group in load_document(path.read_text()).groups.items()]


@pytest.mark.parametrize("name,group", [(f"z{n}", FiniteGroupTable.cyclic(n))
                                        for n in range(1, 65)]
                         + [("s3", s3_table()), ("d8", dihedral8_table())]
                         + shipped_groups())
def test_class_members_share_the_class_order(name, group):
    """The invariant the class builder no longer re-checks: conjugate elements
    have equal orders, and each class's `ord` is that order."""
    for cls in conjugacy_classes(group):
        assert {subgroup_order(group, m) for m in cls.members} == {cls.ord}
