"""Decorated relative dual graphs: validation, contraction moves, posets, DOT.

A graph records the combinatorial type of a relative stable map: vertices
carry (genus, homology class, level); absolute edges join equal levels,
relative edges join adjacent levels and carry a contact order; tails are the
marked points.  Half-edge decorations are conjugacy-class labels resolved
against a MonodromyTable.

Identity convention: tails are labeled by their list position (marked points
are distinguishable), so two graphs that differ only in which vertex carries
tail 0 are distinct, and a symmetry counted by automorphism_order fixes every
tail.  A graph's identity is its least encoding over vertex relabelings;
canonical_form is that encoding decoded.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .contact import ContactOrder, MonodromyTable
from .errors import ResourceLimitError, ValidationError

ABSOLUTE = "absolute"
RELATIVE = "relative"

MAX_AUT_VERTICES = 12
_PERM_BUDGET = 2_000_000


@dataclass(frozen=True)
class HomologyModel:
    """Finite effective-class model of H_2 with c1 and divisor-pairing functionals."""

    rank: int
    c1: tuple[Fraction, ...]
    z_pairing: tuple[Fraction, ...]
    effective: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.c1) != self.rank or len(self.z_pairing) != self.rank:
            raise ValidationError("c1 and z_pairing must have length equal to rank")
        zero = (0,) * self.rank
        if zero not in self.effective:
            raise ValidationError("the zero class must be in the effective list")
        for vec in self.effective:
            if len(vec) != self.rank:
                raise ValidationError(f"effective class {vec} has wrong rank")

    def c1_of(self, vec: Sequence[int]) -> Fraction:
        return sum((c * v for c, v in zip(self.c1, vec)), Fraction(0))

    def z_of(self, vec: Sequence[int]) -> Fraction:
        return sum((z * v for z, v in zip(self.z_pairing, vec)), Fraction(0))


def add_classes(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class Vertex:
    genus: int
    cls: tuple[int, ...]
    level: int = 0


@dataclass(frozen=True)
class Edge:
    kind: str
    ends: tuple[int, int]
    halves: tuple[str, str] = ("e", "e")
    contact: ContactOrder | None = None

    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]


@dataclass(frozen=True)
class Tail:
    vertex: int
    kind: str
    monodromy: str = "e"
    contact: ContactOrder | None = None


@dataclass(frozen=True)
class RelGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    tails: tuple[Tail, ...]

    def degree_of(self, v: int) -> int:
        return sum((e.ends[0] == v) + (e.ends[1] == v) for e in self.edges)


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    element: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.element}: {self.message}"


def validate(
    graph: RelGraph,
    homology: HomologyModel,
    classes: MonodromyTable | None = None,
) -> list[Diagnostic]:
    """All invariant violations, each naming the offending vertex/edge/tail."""
    table = classes if classes is not None else MonodromyTable.trivial()
    diags: list[Diagnostic] = []
    nv = len(graph.vertices)

    for i, vertex in enumerate(graph.vertices):
        if vertex.genus < 0:
            diags.append(Diagnostic("genus", f"vertex {i}", f"negative genus {vertex.genus}"))
        if vertex.cls not in homology.effective:
            diags.append(Diagnostic("effective", f"vertex {i}",
                                    f"class {vertex.cls} not in the effective list"))

    for j, edge in enumerate(graph.edges):
        name = f"edge {j}"
        if any(not 0 <= v < nv for v in edge.ends):
            diags.append(Diagnostic("structure", name, f"endpoint out of range {edge.ends}"))
            continue
        lv0 = graph.vertices[edge.ends[0]].level
        lv1 = graph.vertices[edge.ends[1]].level
        if edge.kind == ABSOLUTE:
            if lv0 != lv1:
                diags.append(Diagnostic("level rule", name,
                                        f"absolute edge joins levels {lv0} and {lv1}"))
            if edge.contact is not None:
                diags.append(Diagnostic("structure", name, "absolute edge carries a contact order"))
        elif edge.kind == RELATIVE:
            if abs(lv0 - lv1) != 1:
                diags.append(Diagnostic("level rule", name,
                                        f"relative edge joins levels {lv0} and {lv1}"))
            if edge.contact is None:
                diags.append(Diagnostic("structure", name, "relative edge missing a contact order"))
        else:
            diags.append(Diagnostic("structure", name, f"unknown edge kind {edge.kind!r}"))
            continue
        for half in edge.halves:
            if half not in table:
                diags.append(Diagnostic("balance", name, f"unknown class label {half!r}"))
        if all(h in table for h in edge.halves):
            if table.inverse_of(edge.halves[0]) != edge.halves[1]:
                diags.append(Diagnostic("balance", name,
                                        f"half decorations {edge.halves} are not mutually inverse"))
            if edge.kind == RELATIVE and edge.contact is not None:
                r = table.order_of(edge.halves[0])
                if edge.contact.r != r:
                    diags.append(Diagnostic("contact order", name,
                                            f"contact {edge.contact} has r={edge.contact.r}, "
                                            f"class {edge.halves[0]!r} has order {r}"))

    for t, tail in enumerate(graph.tails):
        name = f"tail {t}"
        if not 0 <= tail.vertex < nv:
            diags.append(Diagnostic("structure", name, f"vertex index {tail.vertex} out of range"))
            continue
        if tail.kind not in (ABSOLUTE, RELATIVE):
            diags.append(Diagnostic("structure", name, f"unknown tail kind {tail.kind!r}"))
            continue
        if tail.monodromy not in table:
            diags.append(Diagnostic("balance", name, f"unknown class label {tail.monodromy!r}"))
            continue
        if tail.kind == RELATIVE:
            if tail.contact is None:
                diags.append(Diagnostic("structure", name, "relative tail missing a contact order"))
            else:
                r = table.order_of(tail.monodromy)
                if tail.contact.r != r:
                    diags.append(Diagnostic("contact order", name,
                                            f"contact {tail.contact} has r={tail.contact.r}, "
                                            f"class {tail.monodromy!r} has order {r}"))
        elif tail.contact is not None:
            diags.append(Diagnostic("structure", name, "absolute tail carries a contact order"))

    if graph.vertices:
        total = total_class(graph)
        tail_sum = sum((t.contact.value for t in graph.tails
                        if t.kind == RELATIVE and t.contact is not None), Fraction(0))
        expected = homology.z_of(total)
        if tail_sum != expected:
            diags.append(Diagnostic("tail sum", "graph",
                                    f"relative tail contacts sum to {tail_sum}, "
                                    f"divisor pairing of the total class is {expected}"))
    return diags


def _union_find(graph: RelGraph) -> tuple[list[int], int]:
    """Union-find over the edges: the parent forest, each root its own parent,
    and how many unions joined two components."""
    parent = list(range(len(graph.vertices)))
    merges = 0
    for edge in graph.edges:
        a, b = edge.ends
        while parent[a] != a:  # path halving
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            merges += 1
    return parent, merges


def _components(graph: RelGraph) -> list[set[int]]:
    parent, _ = _union_find(graph)
    groups: dict[int, set[int]] = {}
    for v in range(len(parent)):
        root = v
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, set()).add(v)
    return list(groups.values())


def is_connected(graph: RelGraph) -> bool:
    """Whether the graph has at most one component: n - 1 unions joined its n vertices."""
    return _union_find(graph)[1] >= len(graph.vertices) - 1


def genus(graph: RelGraph) -> int:
    """dim H^1 of the graph plus the vertex genera; connected graphs only."""
    if len(_components(graph)) > 1:
        raise ValidationError("graph is disconnected; use bullet_genus")
    if not graph.vertices:
        raise ValidationError("graph has no vertices; use bullet_genus")
    return bullet_genus(graph)


def bullet_genus(graph: RelGraph) -> int:
    """Genus of a possibly disconnected graph: sum over components minus (#components - 1).

    This is the Euler-characteristic convention under which gluing two pieces
    at one node adds genera; the empty graph gets 1.  Each edge lies in one
    component, so the component count cancels.
    """
    return len(graph.edges) - len(graph.vertices) + 1 + sum(v.genus for v in graph.vertices)


def total_class(graph: RelGraph) -> tuple[int, ...]:
    if not graph.vertices:
        raise ValidationError("graph has no vertices")
    rank = len(graph.vertices[0].cls)
    out = (0,) * rank
    for vertex in graph.vertices:
        out = add_classes(out, vertex.cls)
    return out


def _merge_vertices(graph: RelGraph, groups: list[set[int]], extra_genus: dict[int, int],
                    level_shift: dict[int, int] | None = None) -> RelGraph:
    """Merge each vertex group into one vertex (genus and class added)."""
    group_of = {}
    for gi, group in enumerate(groups):
        for v in group:
            group_of[v] = gi
    new_vertices = []
    for gi, group in enumerate(groups):
        members = sorted(group)
        g = sum(graph.vertices[v].genus for v in members) + extra_genus.get(gi, 0)
        cls = graph.vertices[members[0]].cls
        for v in members[1:]:
            cls = add_classes(cls, graph.vertices[v].cls)
        level = graph.vertices[members[0]].level
        if level_shift:
            level = level_shift.get(gi, level)
        new_vertices.append(Vertex(genus=g, cls=cls, level=level))
    new_edges = tuple(Edge(e.kind, (group_of[e.ends[0]], group_of[e.ends[1]]), e.halves,
                           e.contact) for e in graph.edges)
    new_tails = tuple(Tail(group_of[t.vertex], t.kind, t.monodromy, t.contact)
                      for t in graph.tails)
    return RelGraph(tuple(new_vertices), new_edges, new_tails)


def contract_edge(graph: RelGraph, edge_index: int) -> RelGraph:
    """Contract one same-level (absolute) edge; a self-loop becomes genus + 1.

    The merged ends of a non-loop edge become vertex 0 and the other vertices
    keep their order; the other edges keep their order and orientation."""
    if not 0 <= edge_index < len(graph.edges):
        raise ValidationError(f"edge index {edge_index} out of range")
    edge = graph.edges[edge_index]
    if edge.kind != ABSOLUTE:
        raise ValidationError(
            f"edge {edge_index} is relative; only a level collapse removes relative edges"
        )
    a, b = edge.ends
    if graph.vertices[a].level != graph.vertices[b].level:
        raise ValidationError(f"edge {edge_index} joins different levels; not contractible")
    return _decode(_contract_edge_code(_as_code(graph), edge_index))


def _contract_edge_code(code: tuple, j: int) -> tuple:
    """Edge j of a graph in encoding shape contracted, in the same shape: see
    contract_edge.  Edge j must join one level."""
    vs, es, ts = code
    a, b = es[j][1], es[j][3]
    rest = es[:j] + es[j + 1:]
    if a == b:
        level, g, cls = vs[a]
        return (vs[:a] + ((level, g + 1, cls),) + vs[a + 1:], rest, ts)
    (level, ga, ca), (_, gb, cb) = vs[a], vs[b]
    merged = [(level, ga + gb, add_classes(ca, cb))]
    remap = [0] * len(vs)
    for v, deco in enumerate(vs):
        if v != a and v != b:
            remap[v] = len(merged)
            merged.append(deco)
    return (tuple(merged),
            tuple([(kind, remap[x], hx, remap[y], hy, c) for kind, x, hx, y, hy, c in rest]),
            tuple([(remap[v], kind, m, c) for v, kind, m, c in ts]))


def contract_level(graph: RelGraph, level: int) -> RelGraph:
    """Collapse levels `level` and `level+1`: contract every relative edge between
    them, then lower all levels above `level` by one."""
    levels = {v.level for v in graph.vertices}
    if level not in levels or level + 1 not in levels:
        raise ValidationError(f"levels {level} and {level + 1} are not both occupied")
    between = [e.kind == RELATIVE
               and {graph.vertices[e.ends[0]].level, graph.vertices[e.ends[1]].level}
               == {level, level + 1}
               for e in graph.edges]
    # connected components of the between-edge subgraph get merged, in order
    # of their least vertex
    merged = RelGraph(graph.vertices,
                      tuple(e for e, b in zip(graph.edges, between) if b), ())
    groups = _components(merged)
    # each merged component absorbs its internal cycles into genus
    extra = {gi: sum(1 for e in merged.edges if e.ends[0] in group) - len(group) + 1
             for gi, group in enumerate(groups)}
    # merged components span {level, level+1} and land on `level`; everything
    # strictly above `level` drops by one
    shift: dict[int, int] = {}
    for gi, group in enumerate(groups):
        old = min(graph.vertices[v].level for v in group)
        shift[gi] = old if old <= level else old - 1
    remaining = tuple(e for e, b in zip(graph.edges, between) if not b)
    stripped = RelGraph(graph.vertices, remaining, graph.tails)
    return _merge_vertices(stripped, groups, extra_genus=extra, level_shift=shift)


def _contact_key(contact: ContactOrder | None) -> tuple[int, int]:
    return (contact.k, contact.r) if contact is not None else (0, 0)


@functools.cache  # ContactOrder is frozen; the keys are the input's contact orders
def _contact_of(key: tuple[int, int]) -> ContactOrder | None:
    return ContactOrder(*key) if key != (0, 0) else None


def _edge_code(graph: RelGraph, edge: Edge, perm: Sequence[int]) -> tuple:
    """The edge with vertex v relabeled perm[v], oriented so that end 0 comes
    first in (level, vertex, half) order."""
    (a, b), (ha, hb) = edge.ends, edge.halves
    la, lb = graph.vertices[a].level, graph.vertices[b].level
    a, b = perm[a], perm[b]
    if (la, a, ha) > (lb, b, hb):
        a, b, ha, hb = b, a, hb, ha
    return (edge.kind, a, ha, b, hb, _contact_key(edge.contact))


def _encode(graph: RelGraph, perm: Sequence[int]) -> tuple:
    """The encoding of `graph` with vertex v relabeled perm[v]."""
    vs: list = [None] * len(graph.vertices)
    for v, vertex in enumerate(graph.vertices):
        vs[perm[v]] = (vertex.level, vertex.genus, vertex.cls)
    es = tuple(sorted([_edge_code(graph, e, perm) for e in graph.edges]))
    ts = tuple([(perm[t.vertex], t.kind, t.monodromy, _contact_key(t.contact))
                for t in graph.tails])
    return (tuple(vs), es, ts)


def _as_code(graph: RelGraph) -> tuple:
    """The graph in encoding shape, its edges in their own order and orientation."""
    return (tuple([(v.level, v.genus, v.cls) for v in graph.vertices]),
            tuple([(e.kind, e.ends[0], e.halves[0], e.ends[1], e.halves[1],
                    _contact_key(e.contact)) for e in graph.edges]),
            tuple([(t.vertex, t.kind, t.monodromy, _contact_key(t.contact))
                   for t in graph.tails]))


def encode(graph: RelGraph) -> tuple:
    """Index-sensitive total encoding; equal encodings mean equal decorated graphs."""
    return _encode(graph, range(len(graph.vertices)))


def _decode(code: tuple) -> RelGraph:
    """The graph an encoding describes, its edges in encoding order and orientation."""
    vs, es, ts = code
    return RelGraph(
        tuple([Vertex(genus, cls, level) for level, genus, cls in vs]),
        tuple([Edge(kind, (a, b), (ha, hb), _contact_of(contact))
               for kind, a, ha, b, hb, contact in es]),
        tuple([Tail(v, kind, monodromy, _contact_of(contact))
               for v, kind, monodromy, contact in ts]))


def _vertex_base_keys(graph: RelGraph) -> list[tuple]:
    """Per vertex: its decoration, its sorted incident half-edges (each with the
    far end's decoration) and its tails in index order; one pass over each list."""
    decos = [(v.level, v.genus, v.cls) for v in graph.vertices]
    incident: list[list[tuple]] = [[] for _ in decos]
    for e in graph.edges:
        (a, b), (ha, hb), c = e.ends, e.halves, e.contact
        contact, loop = (c.k, c.r) if c is not None else (0, 0), a == b
        incident[a].append((e.kind, ha, hb, contact, loop, decos[b]))
        incident[b].append((e.kind, hb, ha, contact, loop, decos[a]))
    tails: list[list[tuple]] = [[] for _ in decos]
    for t_index, t in enumerate(graph.tails):
        tails[t.vertex].append((t_index, t.kind, t.monodromy, _contact_key(t.contact)))
    return [(deco, tuple(sorted(inc)), tuple(ts))
            for deco, inc, ts in zip(decos, incident, tails)]


def _key_blocks(graph: RelGraph) -> list[list[int]]:
    """Vertices sorted by base key, grouped into equal-key blocks."""
    keys = _vertex_base_keys(graph)
    blocks: list[list[int]] = []
    for v in sorted(range(len(keys)), key=keys.__getitem__):
        if blocks and keys[blocks[-1][-1]] == keys[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return blocks


def _canonical_search(graph: RelGraph) -> tuple[tuple, int]:
    """The least encoding over the base-key-respecting vertex relabelings, and
    how many relabelings reach it: two tie exactly when they differ by a
    decoration-preserving symmetry, and every symmetry respects the base keys
    (which hold the tail index, so a symmetry fixes every tail).  Only blocks
    of two or more vertices are permuted, so all-singleton blocks cost one
    encoding."""
    nv = len(graph.vertices)
    if nv > MAX_AUT_VERTICES:
        raise ResourceLimitError(f"graph has {nv} vertices, cap is {MAX_AUT_VERTICES}")
    perm = [0] * nv
    shuffled = []  # (first position, block) of every multi-vertex block
    budget, pos = 1, 0
    for block in _key_blocks(graph):
        for offset, v in enumerate(block):
            perm[v] = pos + offset
        if len(block) > 1:
            shuffled.append((pos, block))
            budget *= math.factorial(len(block))
            if budget > _PERM_BUDGET:
                raise ResourceLimitError(
                    f"canonicalization budget exceeded ({budget} > {_PERM_BUDGET} permutations)"
                )
        pos += len(block)
    best: tuple | None = None
    ties = 0
    for arrangement in itertools.product(*(itertools.permutations(b) for _, b in shuffled)):
        for (start, _), block_vertices in zip(shuffled, arrangement):
            for offset, v in enumerate(block_vertices):
                perm[v] = start + offset
        code = _encode(graph, perm)
        if best is None or code < best:
            best, ties = code, 1
        elif code == best:
            ties += 1
    return best, ties


def canonical_form(graph: RelGraph) -> RelGraph:
    """Deterministic representative of the vertex-relabeling class (tails stay
    labeled): the least encoding, decoded."""
    if not graph.vertices:
        return graph
    return _decode(_canonical_search(graph)[0])


def automorphism_order(graph: RelGraph) -> int:
    """Order of the decoration-preserving vertex symmetry group.

    Marked points are labeled, so a symmetry fixes every tail; two identically
    decorated tails are never exchanged.  The multiset symmetry of equal
    insertions enters each term's coefficient through contact.aut_order, so
    counting it here as well would count it twice.
    """
    if not graph.vertices:
        return 1
    return _canonical_search(graph)[1]


@dataclass(frozen=True)
class PosetBounds:
    """Enumeration caps, each at least 1; relative internal edges additionally need
    a numerator cap and a decoration menu because nothing else makes the search
    space finite."""

    max_vertices: int
    max_levels: int = 1
    edge_monodromies: tuple[str, ...] = ("e",)
    max_edge_contact_numerator: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_vertices", "max_levels", "max_edge_contact_numerator"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValidationError(f"PosetBounds.{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class StratPoset:
    nodes: tuple[RelGraph, ...]
    covers: tuple[tuple[int, int], ...]
    complete: bool

    def maximal_index(self) -> int:
        for i, node in enumerate(self.nodes):
            if len(node.vertices) == 1 and not node.edges:
                return i
        raise ValidationError("poset has no one-vertex node")


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """Non-negative integer tuples of fixed length with a fixed sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _class_assignments(total_cls: tuple[int, ...], count: int,
                       effective: tuple[tuple[int, ...], ...]) -> Iterable[tuple]:
    if count == 0:
        if all(x == 0 for x in total_cls):
            yield ()
        return
    for first in effective:
        remainder = tuple(t - f for t, f in zip(total_cls, first))
        for rest in _class_assignments(remainder, count - 1, effective):
            yield (first,) + rest


def _single_contractions(code: tuple) -> Iterable[tuple]:
    """Each distinct absolute edge of an encoding contracted once (equal edges
    are adjacent in an encoding and give the same graph), then each adjacent
    level pair collapsed; every result is a labeled graph in encoding shape."""
    vs, es, _ = code
    for j, edge in enumerate(es):
        if edge[0] == ABSOLUTE and (j == 0 or edge != es[j - 1]):
            yield _contract_edge_code(code, j)
    levels = sorted({v[0] for v in vs})
    collapsible = [level for level in levels if level + 1 in levels]
    if collapsible:
        graph = _decode(code)
        for level in collapsible:
            yield encode(contract_level(graph, level))


def _covers(codes: list[tuple]) -> set[tuple[int, int]]:
    """The single-contraction covers between sorted canonical codes, resolved
    on the encodings: index_of also learns every labeled contraction it is
    asked about, so each distinct one is searched once."""
    index_of = {code: i for i, code in enumerate(codes)}
    covers: set[tuple[int, int]] = set()
    for i, code in enumerate(codes):
        for contracted in _single_contractions(code):
            j = index_of.get(contracted)
            if j is None:
                j = index_of.get(_canonical_search(_decode(contracted))[0])
                if j is None:
                    raise ValidationError(
                        "a contraction left the enumerated node set; effective list is "
                        "probably not closed under the class sums that occur"
                    )
                index_of[contracted] = j
            covers.add((i, j))
    return covers


def stratification_poset(
    genus_total: int,
    total_cls: tuple[int, ...],
    tails: Sequence[Tail],
    homology: HomologyModel,
    classes: MonodromyTable | None = None,
    bounds: PosetBounds = PosetBounds(max_vertices=2),
) -> StratPoset:
    """All valid graphs (canonical, deterministic order) contracting to the
    one-vertex graph with the given decorations, with single-contraction covers.

    Tail vertex assignments in `tails` are ignored; tails keep their list
    positions (marked points are labeled).  The result is flagged incomplete
    when any node touches the vertex or level cap.  Invalid inputs raise
    ValidationError naming the one-vertex graph's first diagnostic; a walk of
    more than _PERM_BUDGET edge multisets raises ResourceLimitError before it
    starts.  Covers are resolved on the nodes' encodings: each distinct labeled
    contraction is canonicalized once.
    """
    table = classes if classes is not None else MonodromyTable.trivial()
    if bounds.max_vertices > MAX_AUT_VERTICES:
        raise ResourceLimitError(
            f"vertex cap {bounds.max_vertices} exceeds the supported "
            f"maximum {MAX_AUT_VERTICES}"
        )
    if bounds.max_levels > 1 and bounds.max_edge_contact_numerator is None:
        raise ValidationError(
            "max_edge_contact_numerator is required when max_levels > 1 "
            "(relative edge contacts are otherwise unbounded)"
        )

    # every candidate below is valid by construction except for the inputs:
    # classes come from `effective`, genera from _compositions, edges from the
    # balanced level-respecting menus (MonodromyTable keeps inverses involutive
    # with equal orders), so the one-vertex graph is the only one to check
    top = RelGraph((Vertex(genus_total, total_cls, 0),), (),
                   tuple(Tail(0, t.kind, t.monodromy, t.contact) for t in tails))
    diags = validate(top, homology, table)
    if diags:
        raise ValidationError(f"the one-vertex graph is invalid: {diags[0]}")

    # balanced decoration menus for internal edges; an absolute edge between
    # two vertices may carry its pair of inverse halves either way round
    abs_decos = sorted({tuple(sorted((h, table.inverse_of(h)))) for h in bounds.edge_monodromies})
    rel_decos: list[tuple[str, str, ContactOrder]] = []
    if bounds.max_levels > 1:
        for h in sorted(bounds.edge_monodromies):
            r = table.order_of(h)
            for k in range(1, bounds.max_edge_contact_numerator + 1):
                rel_decos.append((h, table.inverse_of(h), ContactOrder(k, r)))

    # Every graph has a vertex order non-decreasing in (level, class, genus),
    # so only those decorated vertex tuples are walked; for each, every edge
    # multiset and tail placement still is.  The edge multisets of a shape
    # are counted before any is built, so an oversized walk is refused first.
    shapes: list[tuple] = []
    vectors = 0
    for nv in range(1, bounds.max_vertices + 1):
        placements = [tuple(Tail(home, t.kind, t.monodromy, t.contact)
                            for home, t in zip(homes, tails))
                      for homes in itertools.product(range(nv), repeat=len(tails))]
        for levels in itertools.combinations_with_replacement(range(bounds.max_levels), nv):
            occupied = set(levels)
            if occupied != set(range(max(occupied) + 1)):
                continue
            slots: list[Edge] = []
            for i in range(nv):
                for j in range(i, nv):
                    if levels[i] == levels[j]:
                        for h0, h1 in abs_decos:
                            slots.append(Edge(ABSOLUTE, (i, j), (h0, h1)))
                            if i != j and h0 != h1:
                                slots.append(Edge(ABSOLUTE, (i, j), (h1, h0)))
                    elif levels[j] == levels[i] + 1:
                        for h0, h1, contact in rel_decos:
                            slots.append(Edge(RELATIVE, (i, j), (h0, h1), contact))
            per_shape = sum(_composition_count(total, len(slots))
                            for total in range(nv - 1, nv + genus_total))
            for cls_assign in _class_assignments(total_cls, nv, homology.effective):
                if not _sorted_in_runs(cls_assign, levels):
                    continue
                vectors += per_shape
                if vectors > _PERM_BUDGET:
                    raise ResourceLimitError(
                        f"poset enumeration exceeded the candidate budget "
                        f"({_PERM_BUDGET}) at {nv} vertices; tighten the bounds"
                    )
                shapes.append((levels, slots, cls_assign, placements))

    seen: set[tuple] = set()
    touched_cap = False
    for levels, slots, cls_assign, placements in shapes:
        nv = len(levels)
        at_cap = nv == bounds.max_vertices or (
            bounds.max_levels > 1 and levels[-1] == bounds.max_levels - 1)
        keys = list(zip(levels, cls_assign))
        genera_by_cycles = [
            [g for g in _compositions(genus_total - cycles, nv) if _sorted_in_runs(g, keys)]
            for cycles in range(genus_total + 1)]
        for counts in _edge_multiplicities(slots, nv, nv - 1 + genus_total):
            edges = tuple(e for e, mult in zip(slots, counts) for _ in range(mult))
            base = RelGraph(
                tuple(Vertex(0, cls_assign[v], levels[v]) for v in range(nv)), edges, ())
            if not is_connected(base):
                continue
            for genera in genera_by_cycles[len(edges) - nv + 1]:
                vertices = tuple(Vertex(genera[v], cls_assign[v], levels[v])
                                 for v in range(nv))
                touched_cap = touched_cap or at_cap
                for placed in placements:
                    seen.add(_canonical_search(RelGraph(vertices, edges, placed))[0])

    codes = sorted(seen)
    covers = _covers(codes)
    nodes = tuple(_decode(code) for code in codes)
    poset = StratPoset(nodes, tuple(sorted(covers)), complete=not touched_cap)
    poset.maximal_index()  # unique one-vertex maximal element must exist
    return poset


def _edge_multiplicities(slots: list, nv: int, max_edges: int) -> Iterable[tuple[int, ...]]:
    """Multiplicity vectors over edge slots with total in [nv-1 ... max_edges]."""
    for total in range(max(0, nv - 1), max_edges + 1):
        yield from _compositions(total, len(slots))


def _composition_count(total: int, parts: int) -> int:
    """How many tuples _compositions(total, parts) yields."""
    if parts == 0:
        return int(total == 0)
    return math.comb(total + parts - 1, parts - 1)


def _sorted_in_runs(values: Sequence, keys: Sequence) -> bool:
    """Whether `values` is non-decreasing inside every run of equal `keys`."""
    return all(values[i] <= values[i + 1]
               for i in range(len(keys) - 1) if keys[i] == keys[i + 1])


def _vec_str(vec: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in vec) + ")"


def to_dot(graph: RelGraph, name: str = "G") -> str:
    """DOT rendering; output is byte-stable for a fixed input graph."""
    lines = [f"graph {name} {{"]
    for i, v in enumerate(graph.vertices):
        lines.append(f'  v{i} [label="g={v.genus},A={_vec_str(v.cls)},lvl={v.level}"];')
    for e in graph.edges:
        a, b = e.ends
        if e.kind == RELATIVE:
            contact = e.contact if e.contact is not None else ContactOrder(1, 1)
            label = f"ℓ={contact.k}/{contact.r},({e.halves[0]})"
            lines.append(f'  v{a} -- v{b} [style=dashed, label="{label}"];')
        else:
            if e.halves != ("e", "e"):
                lines.append(f'  v{a} -- v{b} [label="({e.halves[0]})"];')
            else:
                lines.append(f"  v{a} -- v{b};")
    for t, tail in enumerate(graph.tails):
        if tail.kind == RELATIVE and tail.contact is not None:
            label = f"ℓ={tail.contact.k}/{tail.contact.r},({tail.monodromy})"
            style = "style=dashed, "
        else:
            label = f"({tail.monodromy})"
            style = ""
        lines.append(f"  t{t} [shape=point];")
        lines.append(f'  v{tail.vertex} -- t{t} [{style}label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_dot(poset: StratPoset, name: str = "poset") -> str:
    """Hasse-style DOT of the contraction relation (arrows point at contractions)."""
    lines = [f"digraph {name} {{"]
    for i, node in enumerate(poset.nodes):
        summary = (f"V={len(node.vertices)} E={len(node.edges)} "
                   f"g={bullet_genus(node)}")
        lines.append(f'  n{i} [label="{i}: {summary}"];')
    for lower, upper in poset.covers:
        lines.append(f"  n{lower} -> n{upper};")
    lines.append("}")
    return "\n".join(lines) + "\n"
