"""The library's records are named tuples: construction checks, immutability,
defaults and repr, each pinned to what the dataclasses they replaced gave."""

import re
from fractions import Fraction as F

import numpy as np
import pytest

from orbidegen.contact import ContactOrder, MonodromyTable, RelInsertion
from orbidegen.dimension import Ledger, ModuliSpec, RelTerm
from orbidegen.errors import ValidationError
from orbidegen.expand import (
    AbsInsertion,
    BasisEntry,
    CRBasisZ,
    GluingBundleReport,
    Matching,
    MenuEntry,
    SplittingScenario,
    Term,
)
from orbidegen.glue import (
    ApproxChart,
    ChartMapResult,
    ConditionReport,
    CorrectionResult,
    FredholmSystem,
    GlueConstants,
    InjectivityReport,
)
from orbidegen.graph import (
    Diagnostic,
    Edge,
    HomologyModel,
    PosetBounds,
    RelGraph,
    StratPoset,
    Tail,
    Vertex,
)
from orbidegen.inertia import (
    ClassData,
    ConjugacyClass,
    CRProfile,
    FiniteGroupTable,
    PairingReport,
    PairingViolation,
    SectorDatum,
    monodromy_table,
)
from orbidegen.io import InputDocument, LedgerDocument

HALF = ContactOrder(1, 2)
Z2 = FiniteGroupTable.cyclic(2)
E_CLASS = ConjugacyClass(0, frozenset({0}), 1)
H_CLASS = ConjugacyClass(1, frozenset({1}), 2)
SECTORS = (SectorDatum(E_CLASS, (F(0),), {0: 1}), SectorDatum(H_CLASS, (F(1, 2),), {0: 1}))
GRAPH = RelGraph((Vertex(0, (1,)),), (), (Tail(0, "relative", "h", ContactOrder(3, 2)),))
SPEC = ModuliSpec("relative-orbifold", 2, 0, F(3), (F(1, 2),),
                  (RelTerm(ContactOrder(2), F(0), "e"),), F(2))
ENTRY = BasisEntry("one", "e", F(0))
COND = ConditionReport("B1 t Lipschitz", 0.5, (0.25,), True)

G = ("RelGraph(vertices=(Vertex(genus=0, cls=(1,), level=0),), edges=(), "
     "tails=(Tail(vertex=0, kind='relative', monodromy='h', contact=ContactOrder(k=3, r=2)),))")
S = ("ModuliSpec(flavor='relative-orbifold', n=2, genus=0, c1A=Fraction(3, 1), "
     "shifts=(Fraction(1, 2),), rel=(RelTerm(order=ContactOrder(k=2, r=1), "
     "shift=Fraction(0, 1), monodromy='e'),), zA=Fraction(2, 1))")
COND_REPR = ("ConditionReport(name='B1 t Lipschitz', estimate=0.5, witness=(0.25,), ok=True, "
             "note='')")
Z2_REPR = "FiniteGroupTable(order=2, mul=((0, 1), (1, 0)), identity=0)"
E_REPR = "ConjugacyClass(representative=0, members=frozenset({0}), ord=1)"
H_REPR = "ConjugacyClass(representative=1, members=frozenset({1}), ord=2)"
SECTOR_REPR = f"SectorDatum(cls={H_REPR}, rotations=(Fraction(1, 2),), betti={{0: 1}})"

# one instance of every record, and its repr as the dataclass printed it
RECORDS = {
    "ContactOrder": (HALF, "ContactOrder(k=1, r=2)"),
    "MonodromyTable": (monodromy_table(Z2), "MonodromyTable(orders={'c0': 1, 'c1': 2}, "
                       "inverses={'c0': 'c0', 'c1': 'c1'})"),
    "RelInsertion": (RelInsertion(HALF, "h", "b1"), "RelInsertion(order=ContactOrder(k=1, r=2), "
                     "monodromy='h', basis_label='b1')"),
    "RelTerm": (RelTerm(HALF, F(1, 2), "h"), "RelTerm(order=ContactOrder(k=1, r=2), "
                "shift=Fraction(1, 2), monodromy='h')"),
    "ModuliSpec": (SPEC, S),
    "Ledger": (Ledger(F(1), F(2), F(3, 2), (F(1, 2),)), "Ledger(d_total=Fraction(1, 1), "
               "d_plus=Fraction(2, 1), d_minus=Fraction(3, 2), constraint_dims=(Fraction(1, 2),))"),
    "HomologyModel": (HomologyModel(1, (F(3),), (F(1),), ((0,), (1,))),
                      "HomologyModel(rank=1, c1=(Fraction(3, 1),), z_pairing=(Fraction(1, 1),), "
                      "effective=((0,), (1,)))"),
    "Vertex": (Vertex(2, (1, 0), 1), "Vertex(genus=2, cls=(1, 0), level=1)"),
    "Edge": (Edge("absolute", (0, 0)),
             "Edge(kind='absolute', ends=(0, 0), halves=('e', 'e'), contact=None)"),
    "Tail": (Tail(1, "absolute"), "Tail(vertex=1, kind='absolute', monodromy='e', contact=None)"),
    "RelGraph": (GRAPH, G),
    "Diagnostic": (Diagnostic("genus", "vertex 0", "negative genus -1"),
                   "Diagnostic(rule='genus', element='vertex 0', message='negative genus -1')"),
    "PosetBounds": (PosetBounds(3, 2, ("e",), 2), "PosetBounds(max_vertices=3, max_levels=2, "
                    "edge_monodromies=('e',), max_edge_contact_numerator=2)"),
    "StratPoset": (StratPoset((GRAPH,), ((0, 0),), False),
                   f"StratPoset(nodes=({G},), covers=((0, 0),), complete=False)"),
    "FiniteGroupTable": (Z2, Z2_REPR),
    "ConjugacyClass": (H_CLASS, H_REPR),
    "ClassData": (ClassData((E_CLASS,), {frozenset({0}): 0}, {frozenset({0}): E_CLASS}),
                  f"ClassData(classes=({E_REPR},), index_of={{frozenset({{0}}): 0}}, "
                  f"inverse_of={{frozenset({{0}}): {E_REPR}}})"),
    "SectorDatum": (SECTORS[1], SECTOR_REPR),
    "CRProfile": (CRProfile(Z2, 1, SECTORS), f"CRProfile(group={Z2_REPR}, ambient_dim=1, "
                  f"sectors=(SectorDatum(cls={E_REPR}, rotations=(Fraction(0, 1),), "
                  f"betti={{0: 1}}), {SECTOR_REPR}))"),
    "PairingViolation": (PairingViolation("c1", 0, 1, 2, "betti"), "PairingViolation("
                         "sector='c1', degree=0, found=1, expected=2, detail='betti')"),
    "PairingReport": (PairingReport((), 3), "PairingReport(violations=(), checked_pairs=3)"),
    "BasisEntry": (ENTRY, "BasisEntry(label='one', sector='e', cr_degree=Fraction(0, 1))"),
    "CRBasisZ": (CRBasisZ(0, (ENTRY,), ((0, 0),)), "CRBasisZ(dim_z=0, entries=(BasisEntry("
                 "label='one', sector='e', cr_degree=Fraction(0, 1)),), duality=((0, 0),))"),
    "AbsInsertion": (AbsInsertion("a"), "AbsInsertion(label='a', descendant=0)"),
    "MenuEntry": (MenuEntry("h", 2, "h"), "MenuEntry(label='h', order=2, inverse='h')"),
    "SplittingScenario": (
        SplittingScenario(1, (), (((1,), (0,)),), 2, (MenuEntry("e", 1, "e"),), F(1)),
        "SplittingScenario(genus=1, absolute=(), class_splittings=(((1,), (0,)),), max_nodes=2, "
        "monodromy_menu=(MenuEntry(label='e', order=1, inverse='e'),), z_total=Fraction(1, 1))"),
    "Matching": (Matching(GRAPH, GRAPH, (HALF,), ("h",)), f"Matching(gamma_plus={G}, "
                 f"gamma_minus={G}, contacts=(ContactOrder(k=1, r=2),), monodromies=('h',))"),
    "Term": (Term(GRAPH, GRAPH, ("one",), F(1, 2)),
             f"Term(gamma_plus={G}, gamma_minus={G}, labels=('one',), coefficient=Fraction(1, 2))"),
    "GluingBundleReport": (GluingBundleReport(6, (3, 2), 1, F(6)), "GluingBundleReport(kappa=6, "
                           "exponents=(3, 2), quotient_order=1, ell=Fraction(6, 1))"),
    "LedgerDocument": (LedgerDocument(SPEC, None, (F(0),), SPEC), f"LedgerDocument(plus={S}, "
                       f"minus=None, sector_dims=(Fraction(0, 1),), total={S})"),
    "FredholmSystem": (FredholmSystem(1, 2, abs), "FredholmSystem(dim_b=1, dim_f=2, "
                       "evaluate=<built-in function abs>, derivative=None, domain_bound=10.0, "
                       "name='system')"),
    "ApproxChart": (ApproxChart(abs, len, (0.0,), (2.0,), "unit"), "ApproxChart(param=<built-in "
                    "function abs>, right_inverse=<built-in function len>, s_low=(0.0,), "
                    "s_high=(2.0,), name='unit')"),
    "ConditionReport": (COND, COND_REPR),
    "GlueConstants": (GlueConstants(1.0, 2.0, 0.0, 0.2, 1.0, True, (COND,)), "GlueConstants("
                      f"c1=1.0, c2=2.0, eps1=0.0, delta1=0.2, k1=1.0, ordering_ok=True, "
                      f"conditions=({COND_REPR},))"),
    "CorrectionResult": (CorrectionResult(np.zeros(1), 0.0, 0, (0.0,), (0.0,)),
                         "CorrectionResult(xi=array([0.]), residual=0.0, iterations=0, "
                         "residual_history=(0.0,), xi_history=(0.0,))"),
    "ChartMapResult": (ChartMapResult(np.array([1.0, 0.0]), 1.0, True), "ChartMapResult("
                       "point=array([1., 0.]), derivative_norm=1.0, within_bound=True)"),
    "InjectivityReport": (InjectivityReport(3, ()),
                          "InjectivityReport(pairs_checked=3, collisions=())"),
}
GLUE = ("FredholmSystem", "ApproxChart", "ConditionReport", "GlueConstants", "CorrectionResult",
        "ChartMapResult", "InjectivityReport")

# (record, field, bad value, the message the frozen dataclass raised)
CHECKED = [
    (HALF, "k", 0, "contact order needs k>0 and r>0, got k=0, r=2"),
    (RECORDS["MonodromyTable"][0], "inverses", {"c0": "c0", "c1": "c0"},
     "inverse map is not an involution at class 'c1'"),
    (RECORDS["HomologyModel"][0], "effective", ((1,),),
     "the zero class must be in the effective list"),
    (RECORDS["PosetBounds"][0], "max_edge_contact_numerator", None,
     "max_edge_contact_numerator is required when max_levels > 1 "
     "(relative edge contacts are otherwise unbounded)"),
    (RECORDS["CRBasisZ"][0], "duality", (), "duality does not cover every entry exactly once"),
    (RECORDS["SplittingScenario"][0], "max_nodes", -1, "max_nodes must be non-negative, got -1"),
    (SPEC, "zA", F(1), "contact orders sum to 2 but zA is 1"),
    (SECTORS[1], "rotations", (F(1, 3),),
     "rotation 1/3 has denominator not dividing ord=2 (class of 1)"),
    (RECORDS["CRProfile"][0], "ambient_dim", 2,
     "sector of class of 0 has 1 rotations, ambient dim is 2"),
]


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_repr(name):
    record, text = RECORDS[name]
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record, _ = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("record,field,bad,message", CHECKED,
                         ids=[type(case[0]).__name__ for case in CHECKED])
def test_bad_field_refused_by_the_class_and_by_replace(record, field, bad, message):
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValidationError, match=exact):
        type(record)(**{**record._asdict(), field: bad})
    with pytest.raises(ValidationError, match=exact):
        record._replace(**{field: bad})
    assert record._replace(**{field: getattr(record, field)}) == record


@pytest.mark.parametrize("name", GLUE)
def test_glue_record_replace_builds_a_changed_copy(name):
    record, text = RECORDS[name]
    field = record._fields[0]
    changed = record._replace(**{field: "changed"})
    assert type(changed) is type(record)
    assert changed == ("changed", *record[1:]) and repr(record) == text


def test_chart_without_bounds_samples_the_unit_interval():
    # the default bounds are tuples, shared safely by every chart, and draw
    # what the arrays [-1.0] and [1.0] drew
    chart = ApproxChart(abs, len)
    assert (chart.s_low, chart.s_high) == ((-1.0,), (1.0,))
    drawn = chart.sample(np.random.default_rng(3))
    assert drawn.tolist() == np.random.default_rng(3).uniform(np.array([-1.0]),
                                                               np.array([1.0])).tolist()


def test_group_table_checks_on_first_read_not_through_a_copied_cache():
    # a table is checked by validate, which class_data runs; a replaced
    # table is a new instance and starts without the original's cache
    assert len(Z2.class_data.classes) == 2
    message = "^identity index 5 out of range$"
    with pytest.raises(ValidationError, match=message):
        FiniteGroupTable(2, Z2.mul, 5).class_data
    with pytest.raises(ValidationError, match=message):
        Z2._replace(identity=5).class_data


def test_sector_without_betti_gets_its_own_table():
    a, b = SectorDatum(E_CLASS, (F(0),)), SectorDatum(E_CLASS, (F(0),))
    assert a.betti == {} and a.betti is not b.betti


def test_input_document_starts_with_its_own_empty_sections():
    a, b = InputDocument(), InputDocument()
    sections = ("groups", "profiles", "classes", "homology", "graphs", "graph_context",
                "basis", "scenarios", "scenario_context")
    for section in sections:
        assert getattr(a, section) == {} and getattr(a, section) is not getattr(b, section)
