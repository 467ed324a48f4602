import copy
import json
from fractions import Fraction as F

import pytest

from orbidegen.contact import ContactOrder, MonodromyTable
from orbidegen.errors import ValidationError
from orbidegen.io import _contact, _integer, _rational, load_document, load_ledger, parse_rel


class TestContactParsing:
    def test_parse_roundtrip(self):
        assert _contact("3/2", "c") == ContactOrder(3, 2)
        assert _contact("4", "c") == ContactOrder(4, 1)
        assert str(ContactOrder(3, 2)) == "3/2"

    @pytest.mark.parametrize("text,message", [
        ("1/2/3", "edges[0].contact: cannot parse contact order '1/2/3'"),
        ("0/2", "edges[0].contact: contact order needs k>0 and r>0, got k=0, r=2"),
        ("x/2", "edges[0].contact: cannot parse contact order 'x/2'"),
        ("1_0/1", "edges[0].contact: cannot parse contact order '1_0/1'"),
        ("\u0661/2", "edges[0].contact: cannot parse contact order '\u0661/2'"),
    ], ids=["three-parts", "zero-numerator", "not-an-integer", "underscore", "non-ascii-digit"])
    def test_bad_text_names_the_field(self, text, message):
        with pytest.raises(ValidationError) as info:
            _contact(text, "edges[0].contact")
        assert str(info.value).startswith(message)


@pytest.mark.parametrize("text,value", [
    (" 3/2 ", F(3, 2)), ("-3/2", F(-3, 2)), ("+4", F(4)), ("6/4", F(3, 2)), ("007", F(7)),
])
def test_rational_forms_read(text, value):
    assert _rational(text, "x") == value


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", "\u0661/\u0662", "3/-2", "1/2/3", ""])
def test_rational_other_forms_refused(text):
    with pytest.raises(ValidationError, match=r"^x: cannot parse rational "):
        _rational(text, "x")


def test_integer_forms():
    assert [_integer(t, "x") for t in (" 12 ", "-3", "+0")] == [12, -3, 0]
    for text in ("1_0", "\u0662", "1.0", "1/1", ""):
        with pytest.raises(ValidationError, match=r"^x: expected an integer"):
            _integer(text, "x")


def test_trivial_class_table_loads():
    doc = load_document(json.dumps({"schema": "orbi-degen/1",
                                    "classes": [{"name": "t", "trivial": True}]}))
    assert doc.classes["t"] == MonodromyTable.trivial()


HOMOLOGY = [{"name": "h", "rank": 1, "c1": ["0"], "z_pairing": ["0"], "effective": [[0]]}]
GRAPH = {"schema": "orbi-degen/1", "homology": HOMOLOGY,
         "graphs": [{"name": "g", "homology": "h", "vertices": [{"genus": 0, "class": [0]}],
                     "edges": [{"kind": "absolute", "ends": [0, 0]}],
                     "tails": [{"vertex": 0, "kind": "absolute"}]}]}
GROUP = {"schema": "orbi-degen/1", "groups": [{"name": "g", "table": [[0]]}],
         "profiles": [{"name": "p", "group": "g", "ambient_dim": 1,
                       "sectors": [{"class": "c0", "rotations": ["0"]}]}]}
SCENARIO = {"schema": "orbi-degen/1", "homology": HOMOLOGY,
            "scenarios": [{"name": "s", "homology": "h", "genus": 0, "absolute": [{"label": "a"}],
                           "splittings": [[[0], [0]]], "max_nodes": 0, "z_total": "0",
                           "monodromy_menu": [{"label": "e", "order": 1, "inverse": "e"}]}]}
LEDGER = {"schema": "orbi-degen/1",
          "plus": {"flavor": "relative-orbifold", "n": 2, "genus": 0, "c1A": "3",
                   "rel": [{"contact": "1/1"}], "zA": "1"},
          "total": {"flavor": "absolute-orbifold", "n": 2, "genus": 0, "c1A": "2"}}


def graph_part(kind):
    return lambda text: getattr(load_document(text).graphs["g"], kind)[0]


# member -> (a document omitting it, the path to its object, the default that
# the record or function it is passed to states, the record read)
OMITTED_MEMBERS = {
    "Vertex.level": (GRAPH, ("graphs", 0, "vertices", 0), 0, graph_part("vertices")),
    "Edge.halves": (GRAPH, ("graphs", 0, "edges", 0), ["e", "e"], graph_part("edges")),
    "Edge.contact": (GRAPH, ("graphs", 0, "edges", 0), None, graph_part("edges")),
    "Tail.monodromy": (GRAPH, ("graphs", 0, "tails", 0), "e", graph_part("tails")),
    "Tail.contact": (GRAPH, ("graphs", 0, "tails", 0), None, graph_part("tails")),
    "FiniteGroupTable.identity": (GROUP, ("groups", 0), 0,
                                  lambda text: load_document(text).groups["g"]),
    "SectorDatum.betti": (GROUP, ("profiles", 0, "sectors", 0), {},
                          lambda text: load_document(text).profiles["p"].sectors[0]),
    "AbsInsertion.descendant": (SCENARIO, ("scenarios", 0, "absolute", 0), 0,
                                lambda text: load_document(text).scenarios["s"].absolute[0]),
    "RelTerm.shift": (LEDGER, ("plus", "rel", 0), "0", lambda text: load_ledger(text).plus),
    "RelTerm.monodromy": (LEDGER, ("plus", "rel", 0), "e", lambda text: load_ledger(text).plus),
    "ModuliSpec.shifts": (LEDGER, ("total",), [], lambda text: load_ledger(text).total),
    "ModuliSpec.rel": (LEDGER, ("total",), [], lambda text: load_ledger(text).total),
    "ModuliSpec.zA": (LEDGER, ("total",), "0", lambda text: load_ledger(text).total),
}


@pytest.mark.parametrize("member", OMITTED_MEMBERS)
def test_an_omitted_member_takes_the_library_default(member):
    doc, path, default, record = OMITTED_MEMBERS[member]
    key = member.split(".")[1]
    spelled = copy.deepcopy(doc)
    target = spelled
    for step in path:
        target = target[step]
    assert key not in target
    target[key] = default
    assert record(json.dumps(doc)) == record(json.dumps(spelled))


CLASSES = {"schema": "orbi-degen/1",
           "classes": [{"name": "c", "labels": [{"label": "e", "order": 1, "inverse": "e"}]}]}
BASIS = {"schema": "orbi-degen/1",
         "basis": [{"name": "b", "dim_z": 1,
                    "entries": [{"label": "one", "sector": "e", "degree": "0"},
                                {"label": "pt", "sector": "e", "degree": "2"}],
                    "duality": [["one", "pt"]]}]}

# reader -> (a document, the path to an object it reads, a member it does not
# take, the object's name in the error)
UNREAD_MEMBERS = {
    "group": (GROUP, ("groups", 0), "identiy", "groups[g]"),
    "profile": (GROUP, ("profiles", 0), "sector", "profiles[p]"),
    "sector": (GROUP, ("profiles", 0, "sectors", 0), "bettis", "profiles[p].sectors[0]"),
    "class table": (CLASSES, ("classes", 0), "trivail", "classes[c]"),
    "label row": (CLASSES, ("classes", 0, "labels", 0), "ordre", "classes[c].labels[0]"),
    "homology": (GRAPH, ("homology", 0), "c_1", "homology[h]"),
    "graph": (GRAPH, ("graphs", 0), "colour", "graphs[g]"),
    "vertex": (GRAPH, ("graphs", 0, "vertices", 0), "levle", "graphs[g].vertices[0]"),
    "edge": (GRAPH, ("graphs", 0, "edges", 0), "halfs", "graphs[g].edges[0]"),
    "tail": (GRAPH, ("graphs", 0, "tails", 0), "contacts", "graphs[g].tails[0]"),
    "basis": (BASIS, ("basis", 0), "dimz", "basis[b]"),
    "basis entry": (BASIS, ("basis", 0, "entries", 1), "deg", "basis[b].entries[1]"),
    "scenario": (SCENARIO, ("scenarios", 0), "maxnodes", "scenarios[s]"),
    "insertion": (SCENARIO, ("scenarios", 0, "absolute", 0), "descendent",
                  "scenarios[s].absolute[0]"),
    "menu entry": (SCENARIO, ("scenarios", 0, "monodromy_menu", 0), "oder",
                   "scenarios[s].monodromy_menu[0]"),
    "ledger spec": (LEDGER, ("total",), "shift", "total"),
    "relative term": (LEDGER, ("plus", "rel", 0), "shifts", "plus.rel[0]"),
}


@pytest.mark.parametrize("reader", UNREAD_MEMBERS)
def test_a_member_no_reader_takes_is_refused(reader):
    doc, path, member, where = UNREAD_MEMBERS[reader]
    load = load_ledger if doc is LEDGER else load_document
    load(json.dumps(doc))
    mistyped = copy.deepcopy(doc)
    target = mistyped
    for step in path:
        target = target[step]
    target[member] = "0"
    with pytest.raises(ValidationError) as info:
        load(json.dumps(mistyped))
    assert str(info.value) == f"{where}: unknown member {member!r}"


def test_omitted_rel_fields_take_the_library_defaults():
    assert (parse_rel("3/2") == parse_rel("3/2::e") == parse_rel("3/2:0:e")
            == parse_rel("3/2:0:"))
