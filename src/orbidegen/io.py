"""JSON input documents and report serialization for the command line.

Documents carry a top-level  "schema": "orbi-degen/1".  Rationals are strings
"p/q" in lowest terms (integers may drop the "/q"); contact orders are the raw
"k/r" pair and are not reduced.  Parsing resolves every cross-reference and
rejects duplicate identifiers.  Every entry and nested object refuses a
member that its reader does not look up, so a misspelled optional member is
an error, not an omission; the top level refuses a member other than
"schema" and the loader's sections.

Each section has its own reader, which imports the module of the types it
builds, so a document loads only the modules its sections need: inertia for
groups, profiles and class tables built from a group, graph for homology and
graphs, expand for basis and scenarios, dimension for ledgers and --rel.

`dump_json` is the deterministic JSON of every --json report
(`commands.emit`).
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .contact import ContactOrder, MonodromyTable
from .errors import ValidationError, named

if TYPE_CHECKING:
    from .dimension import ModuliSpec, RelTerm
    from .expand import CRBasisZ, SplittingScenario
    from .graph import HomologyModel, RelGraph
    from .inertia import CRProfile, FiniteGroupTable

SCHEMA = "orbi-degen/1"
# the number forms read: sign, ASCII digits and, in a rational, one "/digits"
_INTEGER_FORM = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)
_RATIONAL_FORM = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", re.ASCII)


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: must be a JSON object")
    return value


def _array(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: must be a JSON array")
    return value


def _require(mapping: Any, key: str, where: str) -> Any:
    if key not in _object(mapping, where):
        raise ValidationError(f"{where}: missing field {key!r}")
    return mapping[key]


def _integer(value: Any, where: str) -> int:
    """A JSON integer, or a string holding one (object keys are strings)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER_FORM.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise ValidationError(f"{where}: expected an integer, got {value!r}")


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where}: expected a string, got {value!r}")
    return value


def _rational(value: Any, where: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if not _RATIONAL_FORM.fullmatch(value):
                raise ValueError("not of the form p/q")
            return Fraction(value.strip())
        except ZeroDivisionError:  # its text is the repr Fraction(p, 0), not a reason
            raise ValidationError(
                f"{where}: cannot parse rational {value!r}: zero denominator") from None
        except ValueError as exc:
            raise ValidationError(f"{where}: cannot parse rational {value!r}: {exc}") from None
    raise ValidationError(f"{where}: rational must be a string or integer, got {value!r}")


def _array_of(read):
    """A reader of JSON arrays whose elements `read` reads, each under its index."""
    def read_array(value: Any, where: str) -> tuple:
        return tuple(read(x, f"{where}[{i}]") for i, x in enumerate(_array(value, where)))
    return read_array


def _pair_of(read):
    """A reader of two-element JSON arrays."""
    read_array = _array_of(read)

    def read_pair(value: Any, where: str) -> tuple:
        items = read_array(value, where)
        if len(items) != 2:
            raise ValidationError(f"{where}: expected a pair, got {len(items)} entries")
        return items
    return read_pair


_integers = _array_of(_integer)
_rationals = _array_of(_rational)


class _Members(dict):
    """A JSON object that records each member its reader looks up, through
    _field, _optional or _form."""

    __slots__ = ("asked",)

    def __init__(self, value: Any, where: str) -> None:
        super().__init__(_object(value, where))
        self.asked: set[str] = set()

    def __contains__(self, key: Any) -> bool:
        self.asked.add(key)
        return super().__contains__(key)

    def __getitem__(self, key: Any) -> Any:
        self.asked.add(key)
        return super().__getitem__(key)

    def refuse_unread(self, where: str) -> None:
        for key in self:
            if key not in self.asked:
                raise ValidationError(f"{where}: unknown member {key!r}")


def _closed(read):
    """`read` of one JSON object, which then refuses a member that it never
    looked up: the members a reader takes are stated once, in its own reads."""
    def read_closed(value: Any, where: str) -> Any:
        members = _Members(value, where)
        out = read(members, where)
        members.refuse_unread(where)
        return out
    return read_closed


def _field(mapping: Any, key: str, where: str, read, default: Any = ...) -> Any:
    """Read one member; a missing member is an error unless a default is given."""
    if default is not ... and key not in _object(mapping, where):
        return default
    return read(_require(mapping, key, where), f"{where}.{key}")


def _optional(mapping: Any, where: str, **reads) -> dict:
    """The members named in `reads` that `mapping` has, each read by its
    reader, as keyword arguments: an omitted one takes the default of the
    record or function they are passed to."""
    given = _object(mapping, where)
    return {key: read(given[key], f"{where}.{key}") for key, read in reads.items() if key in given}


def _contact(value: Any, where: str) -> ContactOrder | None:
    """The raw 'k/r' form of a contact order ('k' alone means r=1), or None."""
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValidationError(f"{where}: contact order must be a 'k/r' string")
    parts = value.strip().split("/")
    if len(parts) > 2 or not all(map(_INTEGER_FORM.fullmatch, parts)):
        raise ValidationError(f"{where}: cannot parse contact order {value!r}")
    try:
        return ContactOrder(*map(int, parts))
    except (ValidationError, ValueError) as exc:  # ValueError: more digits than int() converts
        raise ValidationError(f"{where}: {exc}") from None


class InputDocument:
    """The named entries of one document, section by section."""

    def __init__(self) -> None:
        self.groups: dict[str, FiniteGroupTable] = {}
        self.profiles: dict[str, CRProfile] = {}
        self.classes: dict[str, MonodromyTable] = {}
        self.homology: dict[str, HomologyModel] = {}
        self.graphs: dict[str, RelGraph] = {}
        self.graph_context: dict[str, tuple[str, str]] = {}
        self.basis: dict[str, CRBasisZ] = {}
        self.scenarios: dict[str, SplittingScenario] = {}
        self.scenario_context: dict[str, tuple[str, str]] = {}

    def one(self, kind: str, name: str | None):
        """Fetch a named object, or the unique one when no name is given."""
        table: dict = getattr(self, kind)
        if name is not None:
            if name not in table:
                raise ValidationError(f"no {kind} entry named {name!r}")
            return name, table[name]
        if not table:
            raise ValidationError(f"document has no {kind} entries")
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


def _load_object(text: str, members: frozenset[str]) -> dict:
    """Parse a document's JSON text and check its top level: the schema, and
    no member outside `members` (the first in document order is named)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # nested too deep, or too many digits
        raise ValidationError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("top level must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise ValidationError(f"schema must be {SCHEMA!r}, got {raw.get('schema')!r}")
    for key in raw:
        if key not in members:
            raise ValidationError(f"top level: unknown member {key!r}")
    return raw


def _entries(raw: dict, section: str, used: set[str]):
    """(name, where, entry) for each entry of a section; names are unique document-wide."""
    for value in _array(raw.get(section, []), section):
        entry = _Members(value, section)
        name = _check_name(_require(entry, "name", section), used, section)
        yield name, f"{section}[{name}]", entry


def _known(name: str, table: dict, what: str, where: str) -> str:
    if name not in table:
        raise ValidationError(f"{where}: unknown {what} {name!r}")
    return name


def _true(value: Any, where: str) -> bool:
    if value is not True:
        raise ValidationError(f"{where}: expected true, got {value!r}")
    return value


def _form(entry: dict, forms: tuple[str, ...], where: str) -> str | None:
    """The one field of `forms` that defines an entry, or None when it names none."""
    present = [name for name in forms if name in entry]
    if len(present) > 1:
        raise ValidationError(
            f"{where}: names {' and '.join(map(repr, present))}; give only one of them")
    return present[0] if present else None


@_closed
def _label_row(item: Any, at: str) -> tuple[str, int, str]:
    return (_field(item, "label", at, _string), _field(item, "order", at, _integer),
            _field(item, "inverse", at, _string))


def _read_group(doc: InputDocument, name: str, where: str, entry: Any) -> None:
    from .inertia import FiniteGroupTable

    form = _form(entry, ("cyclic", "table"), where)
    if form == "cyclic":
        group = named(where, FiniteGroupTable.cyclic, _field(entry, "cyclic", where, _integer))
    elif form == "table":
        rows = _field(entry, "table", where, _array_of(_integers))
        group = named(where, FiniteGroupTable.from_rows, rows,
                      **_optional(entry, where, identity=_integer))
    else:
        raise ValidationError(f"{where}: needs 'cyclic' or 'table'")
    doc.groups[name] = group


def _read_class_table(doc: InputDocument, name: str, where: str, entry: Any) -> None:
    form = _form(entry, ("trivial", "group", "labels"), where)
    if form == "trivial":
        _field(entry, "trivial", where, _true)
        doc.classes[name] = MonodromyTable.trivial()
    elif form == "group":
        # a class table built from a group needs inertia; the other two do not
        from .inertia import monodromy_table

        gname = _known(_field(entry, "group", where, _string), doc.groups, "group", where)
        doc.classes[name] = monodromy_table(doc.groups[gname])
    elif form == "labels":
        rows = _field(entry, "labels", where, _array_of(_label_row))
        doc.classes[name] = named(where, MonodromyTable,
                                  orders={lb: o for lb, o, _ in rows},
                                  inverses={lb: inv for lb, _, inv in rows})
    else:
        raise ValidationError(f"{where}: needs 'trivial', 'group', or 'labels'")


def _betti(value: Any, where: str) -> dict[int, int]:
    return {_integer(k, where): _integer(v, f"{where}.{k}")
            for k, v in _object(value, where).items()}


def _read_profile(doc: InputDocument, name: str, where: str, entry: Any) -> None:
    from .inertia import CRProfile, SectorDatum, class_label

    gname = _known(_field(entry, "group", where, _string), doc.groups, "group", where)
    group = doc.groups[gname]
    by_label = {class_label(i): cls_ for i, cls_ in enumerate(group.class_data.classes)}

    @_closed
    def sector(sec: Any, at: str) -> SectorDatum:
        label = _known(_field(sec, "class", at, _string), by_label, "class label", at)
        return named(at, SectorDatum, cls=by_label[label],
                     rotations=_field(sec, "rotations", at, _rationals),
                     **_optional(sec, at, betti=_betti))

    doc.profiles[name] = named(
        where, CRProfile,
        group=group, ambient_dim=_field(entry, "ambient_dim", where, _integer),
        sectors=_field(entry, "sectors", where, _array_of(sector)))


def _read_homology(doc: InputDocument, name: str, where: str, entry: Any) -> None:
    from .graph import HomologyModel

    doc.homology[name] = named(
        where, HomologyModel,
        rank=_field(entry, "rank", where, _integer),
        c1=_field(entry, "c1", where, _rationals),
        z_pairing=_field(entry, "z_pairing", where, _rationals),
        effective=_field(entry, "effective", where, _array_of(_integers)))


def _read_graph(doc: InputDocument, name: str, where: str, entry: Any) -> None:
    from .graph import Edge, RelGraph, Tail, Vertex

    @_closed
    def vertex(v: Any, at: str) -> Vertex:
        return Vertex(genus=_field(v, "genus", at, _integer),
                      cls=_field(v, "class", at, _integers), **_optional(v, at, level=_integer))

    @_closed
    def edge(e: Any, at: str) -> Edge:
        return Edge(kind=_field(e, "kind", at, _string),
                    ends=_field(e, "ends", at, _pair_of(_integer)),
                    **_optional(e, at, halves=_pair_of(_string), contact=_contact))

    @_closed
    def tail(t: Any, at: str) -> Tail:
        return Tail(vertex=_field(t, "vertex", at, _integer),
                    kind=_field(t, "kind", at, _string),
                    **_optional(t, at, monodromy=_string, contact=_contact))

    hname = _known(_field(entry, "homology", where, _string), doc.homology,
                   "homology model", where)
    cname = _field(entry, "classes", where, _string, None)
    if cname is not None:
        _known(cname, doc.classes, "class table", where)
    doc.graphs[name] = RelGraph(
        _field(entry, "vertices", where, _array_of(vertex), ()),
        _field(entry, "edges", where, _array_of(edge), ()),
        _field(entry, "tails", where, _array_of(tail), ()))
    doc.graph_context[name] = (hname, cname if cname is not None else "")


def _read_basis(doc: InputDocument, name: str, where: str, entry: Any) -> None:
    from .expand import BasisEntry, CRBasisZ

    @_closed
    def basis_entry(b: Any, at: str) -> BasisEntry:
        return BasisEntry(label=_field(b, "label", at, _string),
                          sector=_field(b, "sector", at, _string),
                          cr_degree=_field(b, "degree", at, _rational))

    entries = _field(entry, "entries", where, _array_of(basis_entry))
    index = {b.label: i for i, b in enumerate(entries)}
    duality = []
    for pair in _field(entry, "duality", where, _array_of(_pair_of(_string))):
        if any(label not in index for label in pair):
            raise ValidationError(f"{where}: duality references unknown label in {list(pair)}")
        duality.append((index[pair[0]], index[pair[1]]))
    doc.basis[name] = named(where, CRBasisZ, dim_z=_field(entry, "dim_z", where, _integer),
                            entries=entries, duality=tuple(duality))


def _read_scenario(doc: InputDocument, name: str, where: str, entry: Any) -> None:
    from .expand import AbsInsertion, MenuEntry, SplittingScenario

    def menu_entry(m: Any, at: str) -> MenuEntry:
        return MenuEntry(*_label_row(m, at))

    @_closed
    def insertion(a: Any, at: str) -> AbsInsertion:
        return AbsInsertion(label=_field(a, "label", at, _string),
                            **_optional(a, at, descendant=_integer))

    hname = _known(_field(entry, "homology", where, _string), doc.homology,
                   "homology model", where)
    bname = _field(entry, "basis", where, _string, "")
    if bname:
        _known(bname, doc.basis, "basis", where)
    doc.scenarios[name] = named(
        where, SplittingScenario,
        genus=_field(entry, "genus", where, _integer),
        absolute=_field(entry, "absolute", where, _array_of(insertion), ()),
        class_splittings=_field(entry, "splittings", where, _array_of(_pair_of(_integers))),
        max_nodes=_field(entry, "max_nodes", where, _integer),
        monodromy_menu=_field(entry, "monodromy_menu", where, _array_of(menu_entry)),
        z_total=_field(entry, "z_total", where, _rational))
    doc.scenario_context[name] = (hname, bname)


# sections in reading order: each may refer to the ones before it
_SECTIONS = (("groups", _read_group), ("classes", _read_class_table),
             ("profiles", _read_profile), ("homology", _read_homology),
             ("graphs", _read_graph), ("basis", _read_basis), ("scenarios", _read_scenario))
_DOCUMENT_MEMBERS = frozenset(["schema", *(section for section, _ in _SECTIONS)])
_LEDGER_MEMBERS = frozenset(["schema", "plus", "minus", "sector_dims", "total"])


def load_document(text: str) -> InputDocument:
    """Parse a document; every field is read through a typed reader, so a
    malformed value raises ValidationError naming its field."""
    raw = _load_object(text, _DOCUMENT_MEMBERS)
    doc = InputDocument()
    used: set[str] = set()
    for section, read in _SECTIONS:
        for name, where, entry in _entries(raw, section, used):
            read(doc, name, where, entry)
            entry.refuse_unread(where)
    return doc


class LedgerDocument(namedtuple("LedgerDocument", "plus minus sector_dims total")):
    """The inputs of one splitting ledger: the two halves, node sectors, the total."""

    __slots__ = ()


@_closed
def _rel_term(term: Any, at: str) -> RelTerm:
    from .dimension import RelTerm

    order = _field(term, "contact", at, _contact)
    if order is None:
        raise ValidationError(f"{at}: contact order must be a 'k/r' string")
    return RelTerm(order=order, **_optional(term, at, shift=_rational, monodromy=_string))


@_closed
def _moduli_spec(data: Any, where: str) -> ModuliSpec:
    from .dimension import ModuliSpec

    return named(
        where, ModuliSpec,
        flavor=_field(data, "flavor", where, _string),
        n=_field(data, "n", where, _integer),
        genus=_field(data, "genus", where, _integer),
        c1A=_field(data, "c1A", where, _rational),
        **_optional(data, where, shifts=_rationals, rel=_array_of(_rel_term), zA=_rational))


def load_ledger(text: str) -> LedgerDocument:
    """Parse a `dim ledger` document: 'plus' and 'total' specs, optional 'minus'."""
    raw = _load_object(text, _LEDGER_MEMBERS)
    for key in ("plus", "total"):
        if raw.get(key) is None:
            raise ValidationError(f"ledger document needs a {key!r} spec")
    minus = raw.get("minus")
    return LedgerDocument(
        plus=_moduli_spec(raw["plus"], "plus"),
        minus=None if minus is None else _moduli_spec(minus, "minus"),
        sector_dims=_rationals(raw.get("sector_dims", []), "sector_dims"),
        total=_moduli_spec(raw["total"], "total"))


def parse_rel(text: str) -> tuple[RelTerm, ...]:
    """The `--rel` option: comma-separated 'k/r[:shift[:monodromy]]' terms."""
    from .dimension import RelTerm

    if not text:
        return ()
    terms = []
    for chunk in text.split(","):
        where = f"--rel term {chunk!r}"
        parts = chunk.split(":")
        if len(parts) > 3:
            raise ValidationError(
                f"{where}: expected 'k/r[:shift[:monodromy]]', got {len(parts)} fields")
        order = _contact(parts[0], where)
        # an empty or omitted shift or monodromy takes RelTerm's default
        shift = {"shift": _rational(parts[1], where)} if len(parts) > 1 and parts[1] else {}
        monodromy = {"monodromy": parts[2]} if len(parts) > 2 and parts[2] else {}
        terms.append(RelTerm(order, **shift, **monodromy))
    return tuple(terms)


def parse_list(text: str, option: str, read) -> tuple:
    """A comma-separated option value, element i read by `read` as `option[i]`;
    an empty value is the empty tuple, an empty element is an error."""
    def element(item: str, where: str) -> Any:
        if not item.strip():
            raise ValidationError(f"{where}: empty element")
        return read(item, where)
    return _array_of(element)(text.split(","), option) if text else ()


def read_text(path: str) -> str:
    """A UTF-8 input file; an unreadable path is a validation error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def dump_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
