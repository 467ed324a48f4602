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

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .contact import ContactOrder, MonodromyTable, _multiset_aut, enumerate_partitions
from .errors import ResourceLimitError, ValidationError, checked_record, named
from .graph import (
    ABSOLUTE,
    RELATIVE,
    Edge,
    HomologyModel,
    RelGraph,
    Tail,
    Vertex,
    _CANDIDATE_BUDGET,
    _class_draws,
    _class_sums,
    _composition_count,
    _vec_str,
    canonical_form,
    encode,
    is_connected,
)


class BasisEntry(namedtuple("BasisEntry", "label sector cr_degree")):
    __slots__ = ()


class CRBasisZ(checked_record("CRBasisZ", "dim_z entries duality")):
    """Formal graded basis of the divisor's sector cohomology with a dual pairing.

    duality is an involutive perfect matching on entry indices; paired entries
    sit on mutually inverse sectors and their degrees sum to 2*dim_z.
    """

    __slots__ = ()

    def __new__(klass, dim_z: int, entries: tuple[BasisEntry, ...],
                duality: tuple[tuple[int, int], ...]) -> CRBasisZ:
        self = super().__new__(klass, dim_z, entries, duality)
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
        return self

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
        # __new__ proved that the duality covers every entry index
        return next(self.entries[b if a == i else a].label
                    for a, b in self.duality if i in (a, b))

    def supported_on(self, sector: str) -> list[BasisEntry]:
        return [e for e in self.entries if e.sector == sector]


class AbsInsertion(namedtuple("AbsInsertion", "label descendant", defaults=(0,))):
    """A formal absolute insertion tau_l(alpha); terms carry its label, not l."""

    __slots__ = ()


class MenuEntry(namedtuple("MenuEntry", "label order inverse")):
    __slots__ = ()


class SplittingScenario(checked_record("SplittingScenario", "genus absolute class_splittings "
                                       "max_nodes monodromy_menu z_total")):
    __slots__ = ()

    def __new__(klass, genus: int, absolute: tuple[AbsInsertion, ...],
                class_splittings: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
                max_nodes: int, monodromy_menu: tuple[MenuEntry, ...],
                z_total: Fraction) -> SplittingScenario:
        self = super().__new__(klass, genus, absolute, class_splittings, max_nodes,
                               monodromy_menu, z_total)
        for name, value in (("genus", self.genus), ("max_nodes", self.max_nodes)):
            if value < 0:
                raise ValidationError(f"{name} must be non-negative, got {value}")
        labels = [entry.label for entry in self.monodromy_menu]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValidationError(f"monodromy_menu[{i}] repeats label {label!r}")
        self.table()  # a menu no class table can hold is refused here, not in the walk
        return self

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
        for i, (plus_cls, minus_cls) in enumerate(self.class_splittings):
            for side_cls, side in ((plus_cls, "+"), (minus_cls, "-")):
                if len(side_cls) != homology.rank:
                    raise ValidationError(
                        f"splitting {i} side {side} class {side_cls} has {len(side_cls)} "
                        f"entries, homology rank is {homology.rank}"
                    )
                if homology.z_of(side_cls) != self.z_total:
                    raise ValidationError(
                        f"splitting side {side} class {side_cls} pairs to "
                        f"{homology.z_of(side_cls)}, scenario total is {self.z_total}"
                    )


class Matching(namedtuple("Matching", "gamma_plus gamma_minus contacts monodromies")):
    """One admissible splitting before basis insertions are attached.

    Node j is the j-th relative tail of both side graphs; plus-side tails
    carry the node monodromy, minus-side tails its inverse.  Each side's
    absolute tails come first, in scenario order.
    """

    __slots__ = ()


class Term(namedtuple("Term", "gamma_plus gamma_minus labels coefficient")):
    __slots__ = ()


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


class GluingBundleReport(namedtuple("GluingBundleReport", "kappa exponents quotient_order ell")):
    __slots__ = ()


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
                              quotient_order=quotient, ell=ell)


def _node_multisets(
    n: int, menu: Sequence[MenuEntry], z_total: Fraction
) -> list[tuple[tuple[str, ContactOrder], ...]]:
    """Distinct multisets of n (monodromy, contact) node decorations summing to
    z_total; n >= 1 needs z_total > 0, which _splitting_shapes' node cap ensures."""
    if n == 0:
        return [()] if z_total == 0 else []
    out: set[tuple[tuple[str, ContactOrder], ...]] = set()
    orders = {entry.label: entry.order for entry in menu}  # SplittingScenario refuses repeats
    for label_tuple in itertools.combinations_with_replacement(sorted(orders), n):
        for contacts in enumerate_partitions(z_total, [orders[h] for h in label_tuple]):
            out.add(tuple(sorted(zip(label_tuple, contacts))))
    return sorted(out)


def _extract_matching(canon: RelGraph) -> Matching:
    """Read the two side graphs back off a canonical glued graph.

    canonical_form lists the level-0 vertices first and every node edge with
    its level-0 end first, so the plus side keeps the level-0 vertices and
    their absolute tails as they are, the minus side shifts its indices down
    by the plus-side vertex count, and side `level` takes end and half
    `level` of each edge as its relative tail.
    """
    n_plus = sum(v.level == 0 for v in canon.vertices)
    edges = canon.edges
    plus_tails = [t for t in canon.tails if t.vertex < n_plus]
    plus_tails += [Tail(e.ends[0], RELATIVE, e.halves[0], e.contact) for e in edges]
    minus_tails = [Tail(t.vertex - n_plus, ABSOLUTE, t.monodromy)
                   for t in canon.tails if t.vertex >= n_plus]
    minus_tails += [Tail(e.ends[1] - n_plus, RELATIVE, e.halves[1], e.contact) for e in edges]
    return Matching(
        gamma_plus=RelGraph(canon.vertices[:n_plus], (), tuple(plus_tails)),
        gamma_minus=RelGraph(tuple([Vertex(v.genus, v.cls) for v in canon.vertices[n_plus:]]),
                             (), tuple(minus_tails)),
        contacts=tuple([e.contact for e in edges]),
        monodromies=tuple([e.halves[0] for e in edges]),
    )


def enumerate_splittings(
    scenario: SplittingScenario, homology: HomologyModel
) -> list[Matching]:
    """All admissible splittings, deduplicated up to simultaneous isomorphism.

    Side graphs are vertex-only bullet graphs; node j is the j-th relative
    tail on both sides, with inverse monodromies and equal contact orders.
    The glued graph must be connected, reach the scenario genus through the
    bullet convention, distribute the labeled absolute insertions, and realize
    one of the listed class splittings.  Each connected candidate's canonical
    form goes into one set; the splittings are read off those graphs in
    encode order, a total order on distinct graphs, so the list does not
    depend on hashing.

    Each shape builds its node-edge tuples, its vertex tuples (class draws
    times genus compositions) and its absolute-tail tuples once, into lists,
    and walks edges, then vertices, then tails.  With tails innermost,
    consecutive candidates share their edges and vertices objects, so
    is_connected answers from its memory of the last edges and canonical_form
    labels each tail-free graph once; both are still called per candidate.
    """
    table = scenario.table()
    scenario.check_against(homology)
    m = len(scenario.absolute)
    found: set[RelGraph] = set()  # canonical glued graphs
    shapes = _splitting_shapes(scenario, homology)
    if _candidate_count(shapes, m) > _CANDIDATE_BUDGET:
        raise ResourceLimitError(
            f"splitting enumeration exceeded the candidate budget ({_CANDIDATE_BUDGET}); "
            "a partial term sum would be wrong, tighten the scenario bounds")

    for nodes, (a_plus, a_minus), v_plus, v_minus, _, genus_budget in shapes:
        total_v = v_plus + v_minus
        # each node joins a plus vertex (half: the node monodromy) to a minus
        # vertex (half: its inverse); absolute tails go on any vertex
        edge_tuples = list(itertools.product(*(
            [Edge(RELATIVE, (p, q), (label, table.inverse_of(label)), contact)
             for p in range(v_plus) for q in range(v_plus, total_v)]
            for label, contact in nodes)))
        tail_tuples = [tuple([Tail(home, ABSOLUTE, insertion.label)
                              for home, insertion in zip(homes, scenario.absolute)])
                       for homes in itertools.product(range(total_v), repeat=m)]
        minus_draws = list(_class_draws(a_minus, range(v_minus), homology.effective))
        vertex_tuples = []
        for cls_plus in _class_draws(a_plus, range(v_plus), homology.effective):
            for cls_minus in minus_draws:
                classes = cls_plus + cls_minus
                # genera by stars and bars: the gaps between total_v - 1 bars
                for bars in itertools.combinations(range(genus_budget + total_v - 1), total_v - 1):
                    ends = (-1, *bars, genus_budget + total_v - 1)
                    vertex_tuples.append(tuple(Vertex(ends[v + 1] - ends[v] - 1, classes[v],
                                                      int(v >= v_plus)) for v in range(total_v)))
        for edges, vertices, tails in itertools.product(edge_tuples, vertex_tuples, tail_tuples):
            glued = RelGraph(vertices, edges, tails)
            if is_connected(glued):
                found.add(canonical_form(glued))
    return [_extract_matching(canon) for canon in sorted(found, key=encode)]


def _splitting_shapes(scenario: SplittingScenario, homology: HomologyModel) -> list[tuple]:
    """(nodes, class splitting, v_plus, v_minus, class-tuple pairs, genus
    budget) for every class splitting, node multiset and side sizes that class
    tuples realize: at most n_nodes + 1 vertices, both sides occupied when
    there is a node; a negative genus budget (too many cycles) has no
    compositions.  A node of order r has contact at least 1/r, so no more
    than z_total * (largest menu order) nodes have a multiset."""
    effective = homology.effective
    top_order = max((entry.order for entry in scenario.monodromy_menu), default=0)
    n_max = min(scenario.max_nodes, math.floor(scenario.z_total * top_order))
    return [
        (nodes, (a_plus, a_minus), v_plus, v_minus, pairs,
         scenario.genus - (n_nodes - v_plus - v_minus + 1))
        for a_plus, a_minus in sorted(set(scenario.class_splittings))
        for n_nodes in range(n_max + 1)
        for nodes in _node_multisets(n_nodes, scenario.monodromy_menu, scenario.z_total)
        for v_plus in range(n_nodes + 2)
        for v_minus in range(n_nodes + 2 - v_plus)
        if (v_plus and v_minus if n_nodes else v_plus + v_minus)
        and (pairs := _class_sums(effective, v_plus).get(a_plus, 0)
             * _class_sums(effective, v_minus).get(a_minus, 0))]


def _candidate_count(shapes: list[tuple], m: int) -> int:
    """How many glued candidates the splitting walk over `shapes` builds with m
    absolute insertions: class-tuple pairs * genus compositions * tail homes *
    node edge choices, summed over the shapes."""
    return sum(pairs * _composition_count(genus_budget, v_plus + v_minus)
               * (v_plus + v_minus) ** m * (v_plus * v_minus) ** len(nodes)
               for nodes, _, v_plus, v_minus, pairs, genus_budget in shapes)


def _side_record(graph: RelGraph) -> str:
    vs = ";".join(f"g={v.genus},A={_vec_str(v.cls)}" for v in graph.vertices)
    parts = []
    for tail in graph.tails:
        if tail.kind == ABSOLUTE:
            parts.append(f"a[{tail.monodromy}]@{tail.vertex}")
        else:
            parts.append(f"r[{tail.contact!s},({tail.monodromy})]@{tail.vertex}")
    return f"V({vs})|T({';'.join(parts)})"


def _record_head(coefficient: Fraction, labels: Sequence[str]) -> str:
    """A term record up to its labels: "coeff=... I=(labels"."""
    return f"coeff={coefficient} I=({','.join(labels)}"


def _record_tail(plus: str, minus: str) -> str:
    """The rest of a term record, after its labels, from the two side records."""
    return f") plus={plus} minus={minus}"


def term_record(term: Term) -> str:
    """Canonical one-line record of a term; sorted fields, lowest-terms rationals."""
    return (_record_head(term.coefficient, term.labels)
            + _record_tail(_side_record(term.gamma_plus), _side_record(term.gamma_minus)))


def _term_heads(contacts: tuple[ContactOrder, ...], monodromies: tuple[str, ...],
                labels_on: dict, degree_of: dict, total_degree: Fraction | None) -> list[tuple]:
    """(labels, coefficient, record head) for each index tuple kept on nodes
    of these contact orders and monodromies.

    The coefficient is l(Gamma) times |Aut| of the labels, with l(Gamma) =
    prod k / prod r as gluing_degrees states it, and 1 with no nodes; |Aut|
    is the multiset count of the nodes' (contact, monodromy, label) triples."""
    ell = gluing_degrees(contacts)[1] if contacts else Fraction(1)
    heads = []
    for labels in itertools.product(*map(labels_on.__getitem__, monodromies)):
        if total_degree is not None and sum(map(degree_of.__getitem__, labels)) != total_degree:
            continue
        coefficient = ell * _multiset_aut(zip(contacts, monodromies, labels))
        heads.append((labels, coefficient, _record_head(coefficient, labels)))
    return heads


def expand(
    scenario: SplittingScenario,
    basis: CRBasisZ,
    homology: HomologyModel,
    total_degree: Fraction | None = None,
    where: tuple[str, str] = ("scenario", "basis"),
) -> list[Term]:
    """Emit the term sum: one term per splitting per sector-compatible index tuple.

    The plus side receives the dual-basis labels (the tuple I); the minus side
    implicitly carries the duals b_I.  The coefficient of a term is its
    matching's l(Gamma), the product of the node contact values, times the
    automorphism order of the decorated insertion multiset.  With
    `total_degree` set, only index tuples whose plus side degrees sum to that
    value are kept.  Before the walk the scenario is checked against the
    homology model and the basis, and the basis against the scenario's menu;
    each error starts with where[0] when the scenario is at fault and with
    where[1] when the basis is.
    """
    at_scenario, at_basis = where
    table = scenario.table()
    named(at_scenario, scenario.check_against, homology)
    for e in basis.entries:
        if e.sector not in table:
            raise ValidationError(
                f"{at_scenario}: unknown monodromy class {e.sector!r}: the sector of "
                f"basis entry {e.label!r} is not on the monodromy menu")
    named(at_basis, basis.check_against, table)
    for entry in scenario.monodromy_menu:
        if not basis.supported_on(entry.label):
            raise ValidationError(
                f"{at_scenario}: menu class {entry.label!r} has no basis entries on its sector"
            )
    degree_of = {e.label: e.cr_degree for e in basis.entries}
    labels_on = {h: tuple([e.label for e in basis.supported_on(h)]) for h in table.orders}
    # (term_record(term), term) pairs: a record is a head, made once per node
    # signature (contact orders, monodromies), and its matching's side records,
    # made once per distinct side graph
    heads_of: dict[tuple, list[tuple]] = {}
    side_record = functools.cache(_side_record)
    records: list[tuple[str, Term]] = []
    for m in enumerate_splittings(scenario, homology):
        signature = (m.contacts, m.monodromies)
        heads = heads_of.get(signature)
        if heads is None:
            heads = heads_of[signature] = _term_heads(*signature, labels_on, degree_of,
                                                      total_degree)
        plus, minus = m.gamma_plus, m.gamma_minus
        tail = _record_tail(side_record(plus), side_record(minus))
        records += [(head + tail, Term(plus, minus, labels, coefficient))
                    for labels, coefficient, head in heads]
    records.sort(key=operator.itemgetter(0))
    return [term for _, term in records]


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
