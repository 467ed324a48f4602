"""JSON input documents and report serialization for the command line.

Documents carry a top-level  "schema": "orbi-degen/1".  Rationals are strings
"p/q" in lowest terms (integers may drop the "/q"); contact orders are the raw
"k/r" pair and are not reduced.  Parsing resolves every cross-reference and
rejects duplicate identifiers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .contact import ContactOrder, MonodromyTable
from .dimension import ModuliSpec, RelTerm
from .errors import ValidationError
from .expand import AbsInsertion, BasisEntry, CRBasisZ, MenuEntry, SplittingScenario
from .graph import Edge, HomologyModel, RelGraph, Tail, Vertex
from .inertia import CRProfile, FiniteGroupTable, SectorDatum, class_label
from . import inertia

SCHEMA = "orbi-degen/1"


def parse_rational(text: Any) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational {text!r}: {exc}") from None
    raise ValidationError(f"rational must be a string or integer, got {text!r}")


def format_rational(q: Fraction) -> str:
    return str(q)


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise ValidationError(f"{where}: missing field {key!r}")
    return mapping[key]


def _contact(value: Any, where: str) -> ContactOrder | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValidationError(f"{where}: contact order must be a 'k/r' string")
    return ContactOrder.parse(value)


@dataclass
class InputDocument:
    groups: dict[str, FiniteGroupTable] = field(default_factory=dict)
    profiles: dict[str, CRProfile] = field(default_factory=dict)
    classes: dict[str, MonodromyTable] = field(default_factory=dict)
    homology: dict[str, HomologyModel] = field(default_factory=dict)
    graphs: dict[str, RelGraph] = field(default_factory=dict)
    graph_context: dict[str, tuple[str, str]] = field(default_factory=dict)
    basis: dict[str, CRBasisZ] = field(default_factory=dict)
    scenarios: dict[str, SplittingScenario] = field(default_factory=dict)
    scenario_context: dict[str, tuple[str, str]] = field(default_factory=dict)

    def one(self, kind: str, name: str | None):
        """Fetch a named object, or the unique one when no name is given."""
        table: dict = getattr(self, kind)
        if name is not None:
            if name not in table:
                raise ValidationError(f"no {kind} entry named {name!r}")
            return name, table[name]
        if len(table) != 1:
            raise ValidationError(
                f"document has {len(table)} {kind} entries; pass an explicit name"
            )
        return next(iter(table.items()))


def _check_name(name: Any, used: set[str], where: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{where}: name must be a non-empty string")
    if name in used:
        raise ValidationError(f"duplicate identifier {name!r}")
    used.add(name)
    return name


def _load_object(text: str) -> dict:
    """Parse a document's JSON text and check its top level and schema."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ValidationError("top level must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise ValidationError(f"schema must be {SCHEMA!r}, got {raw.get('schema')!r}")
    return raw


def load_document(text: str) -> InputDocument:
    raw = _load_object(text)
    doc = InputDocument()
    used: set[str] = set()

    for entry in raw.get("groups", []):
        name = _check_name(_require(entry, "name", "groups"), used, "groups")
        where = f"groups[{name}]"
        if "cyclic" in entry:
            group = FiniteGroupTable.cyclic(int(entry["cyclic"]))
        elif "table" in entry:
            group = FiniteGroupTable.from_rows(entry["table"], int(entry.get("identity", 0)))
        else:
            raise ValidationError(f"{where}: needs 'cyclic' or 'table'")
        doc.groups[name] = group

    for entry in raw.get("classes", []):
        name = _check_name(_require(entry, "name", "classes"), used, "classes")
        where = f"classes[{name}]"
        if entry.get("trivial"):
            doc.classes[name] = MonodromyTable.trivial()
        elif "group" in entry:
            gname = entry["group"]
            if gname not in doc.groups:
                raise ValidationError(f"{where}: unknown group {gname!r}")
            doc.classes[name] = inertia.monodromy_table(doc.groups[gname])
        elif "labels" in entry:
            orders = {}
            inverses = {}
            for item in entry["labels"]:
                label = _require(item, "label", where)
                orders[label] = int(_require(item, "order", where))
                inverses[label] = _require(item, "inverse", where)
            doc.classes[name] = MonodromyTable(orders=orders, inverses=inverses)
        else:
            raise ValidationError(f"{where}: needs 'trivial', 'group', or 'labels'")

    for entry in raw.get("profiles", []):
        name = _check_name(_require(entry, "name", "profiles"), used, "profiles")
        where = f"profiles[{name}]"
        gname = _require(entry, "group", where)
        if gname not in doc.groups:
            raise ValidationError(f"{where}: unknown group {gname!r}")
        group = doc.groups[gname]
        by_label = {class_label(i): cls_ for i, cls_ in enumerate(group.class_data.classes)}
        ambient = int(_require(entry, "ambient_dim", where))
        sectors = []
        for sec in _require(entry, "sectors", where):
            label = _require(sec, "class", where)
            if label not in by_label:
                raise ValidationError(f"{where}: unknown class label {label!r}")
            rotations = tuple(parse_rational(r) for r in _require(sec, "rotations", where))
            betti = {int(k): int(v) for k, v in sec.get("betti", {}).items()}
            sectors.append(SectorDatum(cls=by_label[label], rotations=rotations, betti=betti))
        doc.profiles[name] = CRProfile(group=group, ambient_dim=ambient,
                                       sectors=tuple(sectors))

    for entry in raw.get("homology", []):
        name = _check_name(_require(entry, "name", "homology"), used, "homology")
        where = f"homology[{name}]"
        rank = int(_require(entry, "rank", where))
        doc.homology[name] = HomologyModel(
            rank=rank,
            c1=tuple(parse_rational(x) for x in _require(entry, "c1", where)),
            z_pairing=tuple(parse_rational(x) for x in _require(entry, "z_pairing", where)),
            effective=tuple(tuple(int(v) for v in vec)
                            for vec in _require(entry, "effective", where)),
        )

    for entry in raw.get("graphs", []):
        name = _check_name(_require(entry, "name", "graphs"), used, "graphs")
        where = f"graphs[{name}]"
        hname = _require(entry, "homology", where)
        if hname not in doc.homology:
            raise ValidationError(f"{where}: unknown homology model {hname!r}")
        cname = entry.get("classes")
        if cname is not None and cname not in doc.classes:
            raise ValidationError(f"{where}: unknown class table {cname!r}")
        vertices = tuple(
            Vertex(genus=int(_require(v, "genus", where)),
                   cls=tuple(int(x) for x in _require(v, "class", where)),
                   level=int(v.get("level", 0)))
            for v in entry.get("vertices", []))
        edges = tuple(
            Edge(kind=_require(e, "kind", where),
                 ends=tuple(int(x) for x in _require(e, "ends", where)),
                 halves=tuple(e.get("halves", ["e", "e"])),
                 contact=_contact(e.get("contact"), where))
            for e in entry.get("edges", []))
        tails = tuple(
            Tail(vertex=int(_require(t, "vertex", where)),
                 kind=_require(t, "kind", where),
                 monodromy=t.get("monodromy", "e"),
                 contact=_contact(t.get("contact"), where))
            for t in entry.get("tails", []))
        doc.graphs[name] = RelGraph(vertices, edges, tails)
        doc.graph_context[name] = (hname, cname if cname is not None else "")

    for entry in raw.get("basis", []):
        name = _check_name(_require(entry, "name", "basis"), used, "basis")
        where = f"basis[{name}]"
        entries = tuple(
            BasisEntry(label=_require(b, "label", where),
                       sector=_require(b, "sector", where),
                       cr_degree=parse_rational(_require(b, "degree", where)))
            for b in _require(entry, "entries", where))
        index = {b.label: i for i, b in enumerate(entries)}
        duality = []
        for pair in _require(entry, "duality", where):
            a, b = pair
            if a not in index or b not in index:
                raise ValidationError(f"{where}: duality references unknown label in {pair}")
            duality.append((index[a], index[b]))
        doc.basis[name] = CRBasisZ(dim_z=int(_require(entry, "dim_z", where)),
                                   entries=entries, duality=tuple(duality))

    for entry in raw.get("scenarios", []):
        name = _check_name(_require(entry, "name", "scenarios"), used, "scenarios")
        where = f"scenarios[{name}]"
        hname = _require(entry, "homology", where)
        if hname not in doc.homology:
            raise ValidationError(f"{where}: unknown homology model {hname!r}")
        bname = entry.get("basis", "")
        if bname and bname not in doc.basis:
            raise ValidationError(f"{where}: unknown basis {bname!r}")
        menu = tuple(
            MenuEntry(label=_require(m, "label", where),
                      order=int(_require(m, "order", where)),
                      inverse=_require(m, "inverse", where))
            for m in _require(entry, "monodromy_menu", where))
        scenario = SplittingScenario(
            genus=int(_require(entry, "genus", where)),
            absolute=tuple(
                AbsInsertion(label=_require(a, "label", where),
                             descendant=int(a.get("descendant", 0)))
                for a in entry.get("absolute", [])),
            class_splittings=tuple(
                (tuple(int(x) for x in pair[0]), tuple(int(x) for x in pair[1]))
                for pair in _require(entry, "splittings", where)),
            max_nodes=int(_require(entry, "max_nodes", where)),
            monodromy_menu=menu,
            z_total=parse_rational(_require(entry, "z_total", where)),
        )
        doc.scenarios[name] = scenario
        doc.scenario_context[name] = (hname, bname)

    return doc


@dataclass(frozen=True)
class LedgerDocument:
    """The inputs of one splitting ledger: the two halves, node sectors, the total."""

    plus: ModuliSpec
    minus: ModuliSpec | None
    sector_dims: tuple[Fraction, ...]
    total: ModuliSpec


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: must be a JSON object")
    return value


def _array(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: must be a JSON array")
    return value


def _integer(value: Any, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: expected an integer, got {value!r}") from None


def _moduli_spec(data: Any, where: str) -> ModuliSpec:
    data = _object(data, where)
    rel = []
    for i, term in enumerate(_array(data.get("rel", []), f"{where}.rel")):
        at = f"{where}.rel[{i}]"
        term = _object(term, at)
        order = _contact(_require(term, "contact", at), at)
        if order is None:
            raise ValidationError(f"{at}: contact order must be a 'k/r' string")
        rel.append(RelTerm(order=order, shift=parse_rational(term.get("shift", "0")),
                           monodromy=term.get("monodromy", "e")))
    return ModuliSpec(
        flavor=_require(data, "flavor", where),
        n=_integer(_require(data, "n", where), f"{where}.n"),
        genus=_integer(_require(data, "genus", where), f"{where}.genus"),
        c1A=parse_rational(_require(data, "c1A", where)),
        shifts=tuple(parse_rational(x) for x in _array(data.get("shifts", []), f"{where}.shifts")),
        rel=tuple(rel),
        zA=parse_rational(data.get("zA", "0")))


def load_ledger(text: str) -> LedgerDocument:
    """Parse a `dim ledger` document: 'plus' and 'total' specs, optional 'minus'."""
    raw = _load_object(text)
    for key in ("plus", "total"):
        if raw.get(key) is None:
            raise ValidationError(f"ledger document needs a {key!r} spec")
    minus = raw.get("minus")
    return LedgerDocument(
        plus=_moduli_spec(raw["plus"], "plus"),
        minus=None if minus is None else _moduli_spec(minus, "minus"),
        sector_dims=tuple(parse_rational(x)
                          for x in _array(raw.get("sector_dims", []), "sector_dims")),
        total=_moduli_spec(raw["total"], "total"))


def dump_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
