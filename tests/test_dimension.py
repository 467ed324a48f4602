import random
from fractions import Fraction as F

import pytest

from orbidegen.contact import ContactOrder, floor_bracket
from orbidegen.dimension import (
    ABSOLUTE_ORBIFOLD,
    ABSOLUTE_SMOOTH,
    FLAVORS,
    RELATIVE_SMOOTH,
    Ledger,
    ModuliSpec,
    RelTerm,
    splitting_ledger,
    virdim,
)
from orbidegen.errors import ValidationError
from orbidegen.inertia import FiniteGroupTable, monodromy_table


def rel(k, r=1, shift=0, monodromy="e"):
    return RelTerm(order=ContactOrder(k, r), shift=F(shift), monodromy=monodromy)


class TestVirdim:
    def test_absolute_smooth_point_count(self):
        spec = ModuliSpec("absolute-smooth", n=2, genus=0, c1A=F(0))
        assert virdim(spec) == -1

    def test_absolute_smooth_with_marks(self):
        spec = ModuliSpec("absolute-smooth", n=3, genus=2, c1A=F(5),
                          shifts=(F(0), F(0)))
        assert virdim(spec) == 5 + 0 * 1 + 2  # (3-n) term vanishes at n=3

    def test_relative_smooth_formula(self):
        # n=1, g=0, one relative point of order d, c1A = c:
        # c + (3-1)(-1) + 0 + 1 - d = c - 1 - d
        for c, d in [(3, 1), (5, 2), (2, 2)]:
            spec = ModuliSpec("relative-smooth", n=1, genus=0, c1A=F(c),
                              rel=(rel(d),), zA=F(d))
            assert virdim(spec) == c - 1 - d

    def test_absolute_orbifold_deducts_shifts(self):
        spec = ModuliSpec("absolute-orbifold", n=2, genus=0, c1A=F(2),
                          shifts=(F(1, 2), F(1, 3)))
        assert virdim(spec) == F(2) + F(-1) + 2 - F(1, 2) - F(1, 3)

    def test_relative_orbifold_floor_bracket(self):
        spec = ModuliSpec("relative-orbifold", n=2, genus=0, c1A=F(2),
                          rel=(rel(3, 2, shift=F(1, 2)),), zA=F(3, 2))
        # base 2 - 1 + 0, +k=1, -iota_h=1/2, -floor(3/2)=1
        assert virdim(spec) == F(2) - 1 + 1 - F(1, 2) - 1

    def test_flavor_data_mismatch(self):
        with pytest.raises(ValidationError):
            ModuliSpec("absolute-smooth", n=2, genus=0, c1A=F(0), shifts=(F(1, 2),))
        with pytest.raises(ValidationError):
            ModuliSpec("absolute-smooth", n=2, genus=0, c1A=F(0),
                       rel=(rel(1),), zA=F(1))
        with pytest.raises(ValidationError):
            ModuliSpec("relative-smooth", n=2, genus=0, c1A=F(0))

    def test_fractional_contact_in_smooth_spec_rejected(self):
        with pytest.raises(ValidationError,
                           match="^relative-smooth spec carries fractional contact orders$"):
            ModuliSpec("relative-smooth", n=2, genus=0, c1A=F(0), rel=(rel(3, 2),), zA=F(3, 2))

    def test_negative_genus_is_named(self):
        with pytest.raises(ValidationError, match="genus must be non-negative, got -5"):
            ModuliSpec("absolute-smooth", n=2, genus=-5, c1A=F(0))

    def test_omitted_za_is_the_contact_sum(self):
        relative = ModuliSpec("relative-orbifold", n=2, genus=0, c1A=F(3),
                              rel=(rel(2), rel(1, 2)))
        absolute = ModuliSpec("absolute-orbifold", n=2, genus=0, c1A=F(3))
        assert relative.zA == F(5, 2) and absolute.zA == 0
        assert repr(absolute) == ("ModuliSpec(flavor='absolute-orbifold', n=2, genus=0, "
                                  "c1A=Fraction(3, 1), shifts=(), rel=(), zA=Fraction(0, 1))")

    def test_contact_sum_consistency_enforced(self):
        with pytest.raises(ValidationError, match="zA"):
            ModuliSpec("relative-smooth", n=2, genus=0, c1A=F(0),
                       rel=(rel(2),), zA=F(1))


def random_smooth_relative(rng, n=None):
    n = n if n is not None else rng.randint(1, 4)
    genus = rng.randint(0, 3)
    m = rng.randint(0, 3)
    k = rng.randint(1, 4)
    contacts = [rng.randint(1, 4) for _ in range(k)]
    c1 = F(rng.randint(-5, 10))
    return ModuliSpec("relative-smooth", n=n, genus=genus, c1A=c1,
                      shifts=(F(0),) * m,
                      rel=tuple(rel(c) for c in contacts),
                      zA=F(sum(contacts)))


class TestSmoothSpecialization:
    def test_500_random_specs(self):
        rng = random.Random(17)
        for _ in range(500):
            smooth = random_smooth_relative(rng)
            orbifold = ModuliSpec("relative-orbifold", n=smooth.n, genus=smooth.genus,
                                  c1A=smooth.c1A, shifts=smooth.shifts,
                                  rel=smooth.rel, zA=smooth.zA)
            assert virdim(orbifold) == virdim(smooth)

    def test_additive_in_marked_points(self):
        rng = random.Random(23)
        for _ in range(100):
            shift = F(rng.randint(0, 6), rng.randint(1, 6))
            base = ModuliSpec("absolute-orbifold", n=3, genus=1, c1A=F(4),
                              shifts=(F(1, 2),))
            more = ModuliSpec("absolute-orbifold", n=3, genus=1, c1A=F(4),
                              shifts=(F(1, 2), shift))
            assert virdim(more) - virdim(base) == 1 - shift

    def test_relative_insertion_delta(self):
        rng = random.Random(29)
        for _ in range(100):
            ell = rng.randint(1, 5)
            base = random_smooth_relative(rng)
            extended = ModuliSpec(base.flavor, n=base.n, genus=base.genus,
                                  c1A=base.c1A, shifts=base.shifts,
                                  rel=base.rel + (rel(ell),),
                                  zA=base.zA + ell)
            assert virdim(extended) - virdim(base) == 1 - ell


def per_flavor_virdim(spec):
    """The four flavor formulas, each written out on its own."""
    base = spec.c1A + (3 - spec.n) * (spec.genus - 1) + spec.m
    if spec.flavor == ABSOLUTE_SMOOTH:
        return base
    if spec.flavor == RELATIVE_SMOOTH:
        return base + spec.k - sum((t.order.value for t in spec.rel), F(0))
    if spec.flavor == ABSOLUTE_ORBIFOLD:
        return base - sum(spec.shifts, F(0))
    return (base - sum(spec.shifts, F(0)) + spec.k
            - sum((t.shift for t in spec.rel), F(0))
            - sum(floor_bracket(t.order.value) for t in spec.rel))


def random_spec(rng, flavor):
    smooth = flavor in (ABSOLUTE_SMOOTH, RELATIVE_SMOOTH)
    relative = flavor not in (ABSOLUTE_SMOOTH, ABSOLUTE_ORBIFOLD)

    def shift():
        return F(0) if smooth else F(rng.randint(0, 5), rng.randint(1, 6))

    rel_terms = tuple(
        rel(rng.randint(1, 7), 1 if smooth else rng.randint(1, 4), shift=shift())
        for _ in range(rng.randint(1, 4) if relative else 0))
    return ModuliSpec(flavor, n=rng.randint(1, 4), genus=rng.randint(0, 3),
                      c1A=F(rng.randint(-6, 12), rng.randint(1, 3)),
                      shifts=tuple(shift() for _ in range(rng.randint(0, 3))),
                      rel=rel_terms, zA=sum((t.order.value for t in rel_terms), F(0)))


class TestOneFormula:
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_matches_per_flavor_formula(self, flavor):
        rng = random.Random(f"virdim-{flavor}")
        for _ in range(300):
            spec = random_spec(rng, flavor)
            assert virdim(spec) == per_flavor_virdim(spec)


def random_smooth_splitting(rng):
    """Random matched splitting with the c1 compatibility identity imposed."""
    n = rng.randint(1, 4)
    k = rng.randint(1, 4)
    contacts = [rng.randint(1, 3) for _ in range(k)]
    za = F(sum(contacts))
    g_plus, g_minus = rng.randint(0, 3), rng.randint(0, 3)
    m_plus, m_minus = rng.randint(0, 2), rng.randint(0, 2)
    c1_plus, c1_minus = F(rng.randint(-4, 8)), F(rng.randint(-4, 8))
    plus = ModuliSpec("relative-smooth", n=n, genus=g_plus, c1A=c1_plus,
                      shifts=(F(0),) * m_plus,
                      rel=tuple(rel(c) for c in contacts), zA=za)
    minus = ModuliSpec("relative-smooth", n=n, genus=g_minus, c1A=c1_minus,
                       shifts=(F(0),) * m_minus,
                       rel=tuple(rel(c) for c in contacts), zA=za)
    total = ModuliSpec("absolute-smooth", n=n,
                       genus=g_plus + g_minus + k - 1,
                       c1A=c1_plus + c1_minus - 2 * za,
                       shifts=(F(0),) * (m_plus + m_minus))
    dims = tuple(F(n - 1) for _ in range(k))
    return plus, minus, dims, total


class TestSplittingLedger:
    def test_smooth_one_node_example(self):
        plus = ModuliSpec("relative-smooth", n=2, genus=0, c1A=F(3),
                          rel=(rel(1),), zA=F(1))
        minus = ModuliSpec("relative-smooth", n=2, genus=0, c1A=F(1),
                           rel=(rel(1),), zA=F(1))
        total = ModuliSpec("absolute-smooth", n=2, genus=0, c1A=F(3 + 1 - 2))
        ledger = splitting_ledger(plus, minus, (F(1),), total)
        assert ledger.defect == 0

    def test_200_random_smooth_splittings(self):
        rng = random.Random(31)
        for _ in range(200):
            plus, minus, dims, total = random_smooth_splitting(rng)
            assert splitting_ledger(plus, minus, dims, total).defect == 0

    def test_trivial_splitting(self):
        plus = ModuliSpec("absolute-smooth", n=2, genus=1, c1A=F(4), shifts=(F(0),))
        total = plus
        ledger = splitting_ledger(plus, None, (), total)
        assert ledger.d_plus == ledger.d_total and ledger.defect == 0

    def test_orbifold_defect_reported_consistently(self):
        plus = ModuliSpec("relative-orbifold", n=2, genus=0, c1A=F(3),
                          rel=(rel(1, 2, shift=F(1, 2), monodromy="h"),), zA=F(1, 2))
        minus = ModuliSpec("relative-orbifold", n=2, genus=0, c1A=F(1),
                           rel=(rel(1, 2, shift=F(1, 2), monodromy="h"),), zA=F(1, 2))
        total = ModuliSpec("absolute-orbifold", n=2, genus=0, c1A=F(3))
        ledger = splitting_ledger(plus, minus, (F(1),), total)
        # defect is definitionally consistent with its own parts
        assert ledger.defect == (ledger.d_plus + ledger.d_minus
                                 - sum(ledger.constraint_dims) - ledger.d_total)

    def test_mismatched_contact_orders_name_node(self):
        plus = ModuliSpec("relative-smooth", n=2, genus=0, c1A=F(0),
                          rel=(rel(1), rel(2)), zA=F(3))
        minus = ModuliSpec("relative-smooth", n=2, genus=0, c1A=F(0),
                           rel=(rel(1), rel(1)), zA=F(2))
        total = ModuliSpec("absolute-smooth", n=2, genus=0, c1A=F(0))
        with pytest.raises(ValidationError, match="node 1"):
            splitting_ledger(plus, minus, (F(1), F(1)), total)

    def test_sector_dim_per_matched_node(self):
        rng = random.Random(33)
        plus, minus, dims, total = random_smooth_splitting(rng)
        with pytest.raises(ValidationError, match=rf"^{len(dims) - 1} sector dims for "
                                                  rf"{len(dims)} matched nodes$"):
            splitting_ledger(plus, minus, dims[:-1], total)

    def test_monodromy_inverse_check_with_table(self):
        table = monodromy_table(FiniteGroupTable.cyclic(3))
        plus = ModuliSpec("relative-orbifold", n=2, genus=0, c1A=F(0),
                          rel=(rel(1, 3, monodromy="c1"),), zA=F(1, 3))
        bad_minus = ModuliSpec("relative-orbifold", n=2, genus=0, c1A=F(0),
                               rel=(rel(1, 3, monodromy="c1"),), zA=F(1, 3))
        total = ModuliSpec("absolute-orbifold", n=2, genus=0, c1A=F(0))
        with pytest.raises(ValidationError, match="^node 0: monodromies 'c1', 'c1' are not "
                                                  "mutually inverse$"):
            splitting_ledger(plus, bad_minus, (F(1),), total, table=table)
        good_minus = ModuliSpec("relative-orbifold", n=2, genus=0, c1A=F(0),
                                rel=(rel(1, 3, monodromy="c2"),), zA=F(1, 3))
        assert splitting_ledger(plus, good_minus, (F(1),), total, table=table)

    def test_mixed_ambient_dimensions_name_the_side(self):
        rng = random.Random(32)
        plus, minus, dims, total = random_smooth_splitting(rng)
        wider = ModuliSpec(minus.flavor, n=total.n + 1, genus=minus.genus, c1A=minus.c1A,
                           shifts=minus.shifts, rel=minus.rel, zA=minus.zA)
        with pytest.raises(ValidationError, match=rf"^minus: ambient dimension {total.n + 1} "):
            splitting_ledger(plus, wider, dims, total)
        with pytest.raises(ValidationError, match=r"^plus: "):
            splitting_ledger(wider, minus, dims, total)
