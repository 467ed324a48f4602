"""Symbolic expansion of the degeneration formula.

A splitting scenario fixes the glued invariants (genus, labeled absolute
insertions, the finite list of admissible class splittings, a monodromy menu
for the matched nodes, and the divisor pairing total).  The expander
enumerates splittings into two vertex-only bullet graphs joined at matched
relative tails, attaches dual-basis insertions at the nodes, and emits terms
with coefficient (product of node contact values) * |Aut of the decorated
insertion multiset|, deduplicated up to simultaneous isomorphism and sorted
into a byte-stable order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .contact import ContactOrder, MonodromyTable, RelInsertion, aut_order, enumerate_partitions
from .errors import ResourceLimitError, ValidationError
from .graph import (
    ABSOLUTE,
    RELATIVE,
    Edge,
    HomologyModel,
    RelGraph,
    Tail,
    Vertex,
    _class_assignments,
    _compositions,
    canonical_form,
    encode,
    is_connected,
)

_CANDIDATE_BUDGET = 2_000_000


@dataclass(frozen=True)
class BasisEntry:
    label: str
    sector: str
    cr_degree: Fraction


@dataclass(frozen=True)
class CRBasisZ:
    """Formal graded basis of the divisor's sector cohomology with a dual pairing.

    duality is an involutive perfect matching on entry indices; paired entries
    sit on mutually inverse sectors and their degrees sum to 2*dim_z.
    """

    dim_z: int
    entries: tuple[BasisEntry, ...]
    duality: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate basis labels")
        covered: set[int] = set()
        for a, b in self.duality:
            pair = {a, b}
            if pair & covered:
                raise ValidationError("duality pairs an entry twice")
            covered |= pair
        if covered != set(range(len(self.entries))):
            raise ValidationError("duality does not cover every entry exactly once")

    def check_against(self, table: MonodromyTable) -> None:
        for i, j in self.duality:
            a, b = self.entries[i], self.entries[j]
            if table.inverse_of(a.sector) != b.sector:
                raise ValidationError(
                    f"dual entries {a.label!r}, {b.label!r} sit on sectors "
                    f"{a.sector!r}, {b.sector!r} which are not mutually inverse"
                )
            if a.cr_degree + b.cr_degree != 2 * self.dim_z:
                raise ValidationError(
                    f"dual entries {a.label!r}, {b.label!r} have degrees summing to "
                    f"{a.cr_degree + b.cr_degree}, expected {2 * self.dim_z}"
                )

    def index_of(self, label: str) -> int:
        for i, e in enumerate(self.entries):
            if e.label == label:
                return i
        raise ValidationError(f"unknown basis label {label!r}")

    def dual_label(self, label: str) -> str:
        i = self.index_of(label)
        for a, b in self.duality:
            if a == i:
                return self.entries[b].label
            if b == i:
                return self.entries[a].label
        raise ValidationError(f"basis label {label!r} is unmatched")

    def supported_on(self, sector: str) -> list[BasisEntry]:
        return [e for e in self.entries if e.sector == sector]


@dataclass(frozen=True)
class AbsInsertion:
    """A formal absolute insertion tau_l(alpha): carried, never evaluated."""

    label: str
    descendant: int = 0


@dataclass(frozen=True)
class MenuEntry:
    label: str
    order: int
    inverse: str


@dataclass(frozen=True)
class SplittingScenario:
    genus: int
    absolute: tuple[AbsInsertion, ...]
    class_splittings: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    max_nodes: int
    monodromy_menu: tuple[MenuEntry, ...]
    z_total: Fraction

    def table(self) -> MonodromyTable:
        orders: dict[str, int] = {}
        inverses: dict[str, str] = {}
        for entry in self.monodromy_menu:
            orders[entry.label] = entry.order
            inverses[entry.label] = entry.inverse
            orders.setdefault(entry.inverse, entry.order)
            inverses.setdefault(entry.inverse, entry.label)
        return MonodromyTable(orders=orders, inverses=inverses)

    def check_against(self, homology: HomologyModel) -> None:
        for plus_cls, minus_cls in self.class_splittings:
            for side_cls, side in ((plus_cls, "+"), (minus_cls, "-")):
                if homology.z_of(side_cls) != self.z_total:
                    raise ValidationError(
                        f"splitting side {side} class {side_cls} pairs to "
                        f"{homology.z_of(side_cls)}, scenario total is {self.z_total}"
                    )


@dataclass(frozen=True)
class Matching:
    """One admissible splitting before basis insertions are attached.

    Node j is the j-th relative tail of both side graphs; plus-side tails
    carry the node monodromy, minus-side tails its inverse.  The insertion
    index tuples record which scenario absolute insertions went to each side.
    """

    gamma_plus: RelGraph
    gamma_minus: RelGraph
    plus_insertions: tuple[int, ...]
    minus_insertions: tuple[int, ...]
    contacts: tuple[ContactOrder, ...]
    monodromies: tuple[str, ...]


@dataclass(frozen=True)
class Term:
    gamma_plus: RelGraph
    gamma_minus: RelGraph
    labels: tuple[str, ...]
    coefficient: Fraction


def gluing_degrees(orders: Sequence[ContactOrder]) -> tuple[int, Fraction]:
    """kappa = product of the k_i, and the smoothing-parameter degree l = prod k_i/r_i."""
    if not orders:
        raise ValidationError("gluing degrees need at least one contact order")
    kappa = 1
    ell = Fraction(1)
    for o in orders:
        kappa *= o.k
        ell *= o.value
    return kappa, ell


@dataclass(frozen=True)
class GluingBundleReport:
    kappa: int
    exponents: tuple[int, ...]
    quotient_order: int
    ell: Fraction


def gluing_bundle_report(orders: Sequence[ContactOrder]) -> GluingBundleReport:
    """Normalization data of the gluing bundle: the fiber curve
    {z_1^{k_1} = ... = z_k^{k_k}} is normalized by w -> (w^{kappa/k_i}), and the
    quotient by Z_{r_1} x ... x Z_{r_k} maps to the smoothing parameter with
    degree l = kappa / prod r_i."""
    kappa, ell = gluing_degrees(orders)
    exponents = tuple(kappa // o.k for o in orders)
    quotient = 1
    for o in orders:
        quotient *= o.r
    return GluingBundleReport(kappa=kappa, exponents=exponents,
                              quotient_order=quotient, ell=Fraction(kappa, quotient))


def _node_multisets(
    n: int, menu: Sequence[MenuEntry], z_total: Fraction
) -> list[tuple[tuple[str, ContactOrder], ...]]:
    """Distinct multisets of n (monodromy, contact) node decorations summing to z_total."""
    if n == 0:
        return [()] if z_total == 0 else []
    if z_total <= 0:
        return []
    out: set[tuple[tuple[str, ContactOrder], ...]] = set()
    labels = sorted({entry.label for entry in menu})
    orders = {entry.label: entry.order for entry in menu}
    for label_tuple in itertools.combinations_with_replacement(labels, n):
        for contacts in enumerate_partitions(z_total, [orders[h] for h in label_tuple]):
            key = tuple(sorted(zip(label_tuple, contacts),
                               key=lambda p: (p[0], p[1].k, p[1].r)))
            out.add(key)
    return sorted(out, key=lambda ms: [(h, c.k, c.r) for h, c in ms])


def _extract_matching(canon: RelGraph, scenario: SplittingScenario,
                      table: MonodromyTable) -> Matching:
    """Read the two side graphs back off the canonical glued representation."""
    plus_ids = [i for i, v in enumerate(canon.vertices) if v.level == 0]
    minus_ids = [i for i, v in enumerate(canon.vertices) if v.level == 1]
    remap = {}
    for new, old in enumerate(plus_ids):
        remap[old] = new
    for new, old in enumerate(minus_ids):
        remap[old] = new

    contacts = tuple(e.contact for e in canon.edges)
    monodromies = tuple(e.halves[0] for e in canon.edges)

    plus_insertions = tuple(t for t, tail in enumerate(canon.tails)
                            if canon.vertices[tail.vertex].level == 0)
    minus_insertions = tuple(t for t, tail in enumerate(canon.tails)
                             if canon.vertices[tail.vertex].level == 1)

    def side_graph(ids: list[int], insertion_ids: tuple[int, ...], plus_side: bool) -> RelGraph:
        vertices = tuple(Vertex(canon.vertices[i].genus, canon.vertices[i].cls, 0) for i in ids)
        tails = [Tail(vertex=remap[canon.tails[t].vertex], kind=ABSOLUTE,
                      monodromy=scenario.absolute[t].label)
                 for t in insertion_ids]
        for j, edge in enumerate(canon.edges):
            end = edge.ends[0] if plus_side else edge.ends[1]
            mono = monodromies[j] if plus_side else table.inverse_of(monodromies[j])
            tails.append(Tail(vertex=remap[end], kind=RELATIVE,
                              monodromy=mono, contact=contacts[j]))
        return RelGraph(vertices, (), tuple(tails))

    return Matching(
        gamma_plus=side_graph(plus_ids, plus_insertions, True),
        gamma_minus=side_graph(minus_ids, minus_insertions, False),
        plus_insertions=plus_insertions,
        minus_insertions=minus_insertions,
        contacts=contacts,
        monodromies=monodromies,
    )


def enumerate_splittings(
    scenario: SplittingScenario, homology: HomologyModel
) -> list[Matching]:
    """All admissible splittings, deduplicated up to simultaneous isomorphism.

    Side graphs are vertex-only bullet graphs; node j is the j-th relative
    tail on both sides, with inverse monodromies and equal contact orders.
    The glued graph must be connected, reach the scenario genus through the
    bullet convention, distribute the labeled absolute insertions, and realize
    one of the listed class splittings.
    """
    table = scenario.table()
    scenario.check_against(homology)
    m = len(scenario.absolute)
    found: dict[tuple, Matching] = {}
    budget = _CANDIDATE_BUDGET
    effective = homology.effective

    for a_plus, a_minus in sorted(set(scenario.class_splittings)):
        for n_nodes in range(0, scenario.max_nodes + 1):
            for nodes in _node_multisets(n_nodes, scenario.monodromy_menu, scenario.z_total):
                for v_plus in range(0, n_nodes + 2):
                    for v_minus in range(0, n_nodes + 2 - v_plus):
                        total_v = v_plus + v_minus
                        if total_v == 0 or total_v > n_nodes + 1:
                            continue
                        if n_nodes > 0 and (v_plus == 0 or v_minus == 0):
                            continue
                        if v_plus == 0 and any(x != 0 for x in a_plus):
                            continue
                        if v_minus == 0 and any(x != 0 for x in a_minus):
                            continue
                        cycles = n_nodes - total_v + 1
                        if cycles < 0 or scenario.genus - cycles < 0:
                            continue
                        genus_budget = scenario.genus - cycles
                        for cls_plus in _class_assignments(a_plus, v_plus, effective):
                            for cls_minus in _class_assignments(a_minus, v_minus, effective):
                                classes = cls_plus + cls_minus
                                for genera in _compositions(genus_budget, total_v):
                                    for homes in itertools.product(range(total_v), repeat=m):
                                        attach_options = [
                                            (p, q)
                                            for p in range(v_plus)
                                            for q in range(v_plus, total_v)
                                        ]
                                        for attach in itertools.product(
                                                attach_options, repeat=n_nodes):
                                            vertices = tuple(
                                                Vertex(genera[v], classes[v],
                                                       0 if v < v_plus else 1)
                                                for v in range(total_v))
                                            edges = tuple(
                                                # half decorations: node monodromy on
                                                # the plus side, inverse on the minus
                                                _node_edge(attach[j], nodes[j], table)
                                                for j in range(n_nodes))
                                            tails = tuple(
                                                Tail(vertex=homes[i], kind=ABSOLUTE,
                                                     monodromy=scenario.absolute[i].label)
                                                for i in range(m))
                                            budget -= 1
                                            if budget < 0:
                                                raise ResourceLimitError(
                                                    "splitting enumeration exceeded "
                                                    f"the candidate budget "
                                                    f"({_CANDIDATE_BUDGET}); a partial "
                                                    "term sum would be wrong, tighten "
                                                    "the scenario bounds")
                                            glued = RelGraph(vertices, edges, tails)
                                            if not is_connected(glued):
                                                continue
                                            canon = canonical_form(glued)
                                            key = encode(canon)
                                            if key in found:
                                                continue
                                            found[key] = _extract_matching(
                                                canon, scenario, table)
    return [found[key] for key in sorted(found)]


def _node_edge(attach: tuple[int, int], node: tuple[str, ContactOrder],
               table: MonodromyTable) -> Edge:
    label, contact = node
    return Edge(RELATIVE, attach, (label, table.inverse_of(label)), contact)


def _side_record(graph: RelGraph) -> str:
    vs = ";".join(f"g={v.genus},A=({','.join(str(x) for x in v.cls)})"
                  for v in graph.vertices)
    parts = []
    for tail in graph.tails:
        if tail.kind == ABSOLUTE:
            parts.append(f"a[{tail.monodromy}]@{tail.vertex}")
        else:
            parts.append(f"r[{tail.contact.k}/{tail.contact.r},({tail.monodromy})]@{tail.vertex}")
    return f"V({vs})|T({';'.join(parts)})"


def term_record(term: Term) -> str:
    """Canonical one-line record of a term; sorted fields, lowest-terms rationals."""
    return (f"coeff={term.coefficient} "
            f"I=({','.join(term.labels)}) "
            f"plus={_side_record(term.gamma_plus)} "
            f"minus={_side_record(term.gamma_minus)}")


def expand(
    scenario: SplittingScenario,
    basis: CRBasisZ,
    homology: HomologyModel,
    total_degree: Fraction | None = None,
) -> list[Term]:
    """Emit the term sum: one term per splitting per sector-compatible index tuple.

    The plus side receives the dual-basis labels (the tuple I); the minus side
    implicitly carries the duals b_I.  The coefficient of a term is the product
    of its node contact values times the automorphism order of the decorated
    insertion multiset.  With `total_degree` set, only index tuples whose plus
    side degrees sum to that value are kept.
    """
    table = scenario.table()
    basis.check_against(table)
    for entry in scenario.monodromy_menu:
        if not basis.supported_on(entry.label):
            raise ValidationError(
                f"menu class {entry.label!r} has no basis entries on its sector"
            )
        if not basis.supported_on(entry.inverse):
            raise ValidationError(
                f"menu class {entry.label!r}: inverse sector {entry.inverse!r} "
                f"has no basis entries"
            )
    matchings = enumerate_splittings(scenario, homology)
    terms: list[Term] = []
    for matching in matchings:
        supports = [basis.supported_on(h) for h in matching.monodromies]
        for combo in itertools.product(*supports):
            labels = tuple(entry.label for entry in combo)
            if total_degree is not None:
                degree_sum = sum((entry.cr_degree for entry in combo), Fraction(0))
                if degree_sum != total_degree:
                    continue
            insertions = [
                RelInsertion(order=c, monodromy=h, basis_label=lb)
                for c, h, lb in zip(matching.contacts, matching.monodromies, labels)
            ]
            ell = Fraction(1)
            for c in matching.contacts:
                ell *= c.value
            coefficient = ell * aut_order(insertions)
            terms.append(Term(matching.gamma_plus, matching.gamma_minus,
                              labels, coefficient))
    terms.sort(key=term_record)
    return terms


def side_swap(terms: Sequence[Term], basis: CRBasisZ) -> list[Term]:
    """Exchange the two sides of every term and replace each label by its dual."""
    swapped = [
        Term(gamma_plus=t.gamma_minus, gamma_minus=t.gamma_plus,
             labels=tuple(basis.dual_label(lb) for lb in t.labels),
             coefficient=t.coefficient)
        for t in terms
    ]
    swapped.sort(key=term_record)
    return swapped
