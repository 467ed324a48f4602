"""Decorated relative dual graphs: validation, contraction moves, posets, DOT.

A graph records the combinatorial type of a relative stable map: vertices
carry (genus, homology class, level); absolute edges join equal levels,
relative edges join adjacent levels and carry a contact order; tails are the
marked points.  Half-edge decorations are conjugacy-class labels resolved
against a MonodromyTable.

Identity convention: tails are labeled by their list position (marked points
are distinguishable), so two graphs that differ only in which vertex carries
tail 0 are distinct.  automorphism_order, by contrast, treats the tail set as
a multiset, per the decoration-preserving reading of graph symmetry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
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


def _components(graph: RelGraph) -> list[set[int]]:
    nv = len(graph.vertices)
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in graph.edges:
        a, b = find(edge.ends[0]), find(edge.ends[1])
        if a != b:
            parent[a] = b
    groups: dict[int, set[int]] = {}
    for v in range(nv):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def is_connected(graph: RelGraph) -> bool:
    return len(_components(graph)) <= 1


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
    new_edges = tuple(replace(e, ends=(group_of[e.ends[0]], group_of[e.ends[1]]))
                      for e in graph.edges)
    new_tails = tuple(replace(t, vertex=group_of[t.vertex]) for t in graph.tails)
    return RelGraph(tuple(new_vertices), new_edges, new_tails)


def contract_edge(graph: RelGraph, edge_index: int) -> RelGraph:
    """Contract one same-level (absolute) edge; a self-loop becomes genus + 1."""
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
    remaining = tuple(e for j, e in enumerate(graph.edges) if j != edge_index)
    stripped = RelGraph(graph.vertices, remaining, graph.tails)
    if edge.is_loop():
        new_vertices = tuple(
            replace(v, genus=v.genus + 1) if i == a else v
            for i, v in enumerate(stripped.vertices)
        )
        return RelGraph(new_vertices, stripped.edges, stripped.tails)
    groups = [{a, b}] + [{v} for v in range(len(graph.vertices)) if v not in (a, b)]
    return _merge_vertices(stripped, groups, extra_genus={})


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


def _flipped(graph: RelGraph, edge: Edge) -> bool:
    """Whether end 0 comes after end 1 in (level, vertex, half) order."""
    a, b = edge.ends
    return ((graph.vertices[a].level, a, edge.halves[0])
            > (graph.vertices[b].level, b, edge.halves[1]))


def _edge_code(graph: RelGraph, edge: Edge) -> tuple:
    (a, b), (ha, hb) = edge.ends, edge.halves
    if _flipped(graph, edge):
        a, b, ha, hb = b, a, hb, ha
    return (edge.kind, a, ha, b, hb, _contact_key(edge.contact))


def encode(graph: RelGraph) -> tuple:
    """Index-sensitive total encoding; equal encodings mean equal decorated graphs."""
    vs = tuple((v.level, v.genus, v.cls) for v in graph.vertices)
    es = tuple(sorted(_edge_code(graph, e) for e in graph.edges))
    ts = tuple((t.vertex, t.kind, t.monodromy, _contact_key(t.contact)) for t in graph.tails)
    return (vs, es, ts)


def _permute(graph: RelGraph, perm: Sequence[int]) -> RelGraph:
    """Relabel vertices so that old vertex v becomes perm[v]."""
    order = sorted(range(len(perm)), key=lambda v: perm[v])
    new_vertices = tuple(graph.vertices[v] for v in order)
    new_edges = tuple(replace(e, ends=(perm[e.ends[0]], perm[e.ends[1]])) for e in graph.edges)
    new_tails = tuple(replace(t, vertex=perm[t.vertex]) for t in graph.tails)
    return RelGraph(new_vertices, new_edges, new_tails)


def _vertex_base_keys(graph: RelGraph) -> list[tuple]:
    keys = []
    for v in range(len(graph.vertices)):
        vertex = graph.vertices[v]
        incident = []
        for e in graph.edges:
            for side in (0, 1):
                if e.ends[side] == v:
                    other = graph.vertices[e.ends[1 - side]]
                    incident.append((e.kind, e.halves[side], e.halves[1 - side],
                                     _contact_key(e.contact), e.is_loop(),
                                     other.level, other.genus, other.cls))
        tails = [(t_index, t.kind, t.monodromy, _contact_key(t.contact))
                 for t_index, t in enumerate(graph.tails) if t.vertex == v]
        keys.append((vertex.level, vertex.genus, vertex.cls,
                     tuple(sorted(incident)), tuple(sorted(tails))))
    return keys


def _key_blocks(graph: RelGraph) -> list[list[int]]:
    """Vertices sorted by base key, grouped into equal-key blocks."""
    keys = _vertex_base_keys(graph)
    blocks: list[list[int]] = []
    for v in sorted(range(len(keys)), key=lambda v: keys[v]):
        if blocks and keys[blocks[-1][-1]] == keys[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return blocks


def _block_permutations(blocks: list[list[int]], nv: int) -> Iterable[list[int]]:
    """All vertex -> new-position maps that respect the base-key order."""
    budget = 1
    for block in blocks:
        for i in range(2, len(block) + 1):
            budget *= i
        if budget > _PERM_BUDGET:
            raise ResourceLimitError(
                f"canonicalization budget exceeded ({budget} > {_PERM_BUDGET} permutations)"
            )
    starts = []
    pos = 0
    for block in blocks:
        starts.append(pos)
        pos += len(block)
    for arrangement in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = [0] * nv
        for block_index, block_vertices in enumerate(arrangement):
            for offset, v in enumerate(block_vertices):
                perm[v] = starts[block_index] + offset
        yield perm


def _canonical_search(graph: RelGraph) -> tuple[RelGraph, int]:
    """The least-encoding relabeling over the base-key-respecting vertex maps,
    and how many maps reach it: two maps tie exactly when they differ by a
    decoration-preserving symmetry, and every symmetry respects the base keys
    (which hold the tail index, so a symmetry fixes every tail)."""
    if len(graph.vertices) > MAX_AUT_VERTICES:
        raise ResourceLimitError(
            f"graph has {len(graph.vertices)} vertices, cap is {MAX_AUT_VERTICES}"
        )
    best: RelGraph | None = None
    best_code: tuple | None = None
    ties = 0
    for perm in _block_permutations(_key_blocks(graph), len(graph.vertices)):
        candidate = _permute(graph, perm)
        code = encode(candidate)
        if best_code is None or code < best_code:
            best, best_code, ties = candidate, code, 1
        elif code == best_code:
            ties += 1
    assert best is not None
    return best, ties


def canonical_form(graph: RelGraph) -> RelGraph:
    """Deterministic representative of the vertex-relabeling class (tails stay labeled)."""
    if not graph.vertices:
        return graph
    return _normalize_edges(_canonical_search(graph)[0])


def automorphism_order(graph: RelGraph) -> int:
    """Order of the decoration-preserving vertex symmetry group.

    Tails enter as a multiset of (vertex, kind, monodromy, contact), so two
    identically decorated tails may be exchanged by a symmetry.
    """
    if not graph.vertices:
        return 1
    return _canonical_search(graph)[1]


def _normalize_edges(graph: RelGraph) -> RelGraph:
    """Sort the edge list and orient each edge the way _edge_code does."""
    oriented = [replace(e, ends=e.ends[::-1], halves=e.halves[::-1])
                if _flipped(graph, e) else e
                for e in graph.edges]
    oriented.sort(key=lambda e: _edge_code(graph, e))
    return RelGraph(graph.vertices, tuple(oriented), graph.tails)


@dataclass(frozen=True)
class PosetBounds:
    """Enumeration caps; relative internal edges additionally need a numerator cap
    and a decoration menu because nothing else makes the search space finite."""

    max_vertices: int
    max_levels: int = 1
    edge_monodromies: tuple[str, ...] = ("e",)
    max_edge_contact_numerator: int | None = None


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


def _single_contractions(graph: RelGraph) -> Iterable[RelGraph]:
    for j, edge in enumerate(graph.edges):
        if edge.kind == ABSOLUTE:
            yield contract_edge(graph, j)
    levels = sorted({v.level for v in graph.vertices})
    for level in levels:
        if level + 1 in levels:
            yield contract_level(graph, level)


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
    when any node touches the vertex or level cap.
    """
    table = classes if classes is not None else MonodromyTable.trivial()
    if bounds.max_vertices > MAX_AUT_VERTICES:
        raise ResourceLimitError(
            f"vertex cap {bounds.max_vertices} exceeds the supported "
            f"maximum {MAX_AUT_VERTICES}"
        )
    if total_cls not in homology.effective:
        raise ValidationError(f"total class {total_cls} is not in the effective list")
    if bounds.max_levels > 1 and bounds.max_edge_contact_numerator is None:
        raise ValidationError(
            "max_edge_contact_numerator is required when max_levels > 1 "
            "(relative edge contacts are otherwise unbounded)"
        )

    # balanced decoration menus for internal edges
    abs_decos = sorted({tuple(sorted((h, table.inverse_of(h)))) for h in bounds.edge_monodromies})
    rel_decos: list[tuple[str, str, ContactOrder]] = []
    if bounds.max_levels > 1:
        for h in sorted(bounds.edge_monodromies):
            r = table.order_of(h)
            for k in range(1, bounds.max_edge_contact_numerator + 1):
                rel_decos.append((h, table.inverse_of(h), ContactOrder(k, r)))

    seen: dict[tuple, int] = {}
    nodes: list[RelGraph] = []
    touched_cap = False
    budget = _PERM_BUDGET

    def consider(graph: RelGraph) -> None:
        nonlocal touched_cap
        if validate(graph, homology, table):
            return
        canon = canonical_form(graph)
        code = encode(canon)
        if code in seen:
            return
        seen[code] = len(nodes)
        nodes.append(canon)
        if len(graph.vertices) == bounds.max_vertices:
            touched_cap = True
        if any(v.level == bounds.max_levels - 1 for v in graph.vertices) and bounds.max_levels > 1:
            touched_cap = True

    for nv in range(1, bounds.max_vertices + 1):
        for levels in itertools.product(range(bounds.max_levels), repeat=nv):
            occupied = set(levels)
            if occupied != set(range(max(occupied) + 1)):
                continue
            for cls_assign in _class_assignments(total_cls, nv, homology.effective):
                # candidate endpoints for edges, with their allowed decorations
                slots: list[tuple[int, int, str, tuple]] = []
                for i in range(nv):
                    for j in range(i, nv):
                        if levels[i] == levels[j]:
                            for deco in abs_decos:
                                slots.append((i, j, ABSOLUTE, deco))
                        elif abs(levels[i] - levels[j]) == 1 and i != j:
                            lo, hi = (i, j) if levels[i] < levels[j] else (j, i)
                            for deco in rel_decos:
                                slots.append((lo, hi, RELATIVE, deco))
                max_edges = nv - 1 + genus_total
                for counts in _edge_multiplicities(slots, nv, max_edges):
                    budget -= 1
                    if budget < 0:
                        raise ResourceLimitError(
                            f"poset enumeration exceeded the candidate budget "
                            f"({_PERM_BUDGET}); tighten the bounds"
                        )
                    edges = []
                    for (i, j, kind, deco), mult in zip(slots, counts):
                        for _ in range(mult):
                            if kind == ABSOLUTE:
                                edges.append(Edge(ABSOLUTE, (i, j), (deco[0], deco[1])))
                            else:
                                edges.append(Edge(RELATIVE, (i, j), (deco[0], deco[1]), deco[2]))
                    n_edges = len(edges)
                    cycles = n_edges - nv + 1
                    if cycles < 0 or cycles > genus_total:
                        continue
                    base = RelGraph(
                        tuple(Vertex(0, cls_assign[v], levels[v]) for v in range(nv)),
                        tuple(edges), ())
                    if not is_connected(base):
                        continue
                    for genera in _compositions(genus_total - cycles, nv):
                        for tail_homes in itertools.product(range(nv), repeat=len(tails)):
                            placed = tuple(
                                Tail(vertex=tail_homes[t], kind=tail.kind,
                                     monodromy=tail.monodromy, contact=tail.contact)
                                for t, tail in enumerate(tails))
                            candidate = RelGraph(
                                tuple(Vertex(genera[v], cls_assign[v], levels[v])
                                      for v in range(nv)),
                                tuple(edges), placed)
                            consider(candidate)

    order = sorted(range(len(nodes)), key=lambda i: encode(nodes[i]))
    nodes = [nodes[i] for i in order]
    index_of = {encode(node): i for i, node in enumerate(nodes)}

    covers: set[tuple[int, int]] = set()
    for i, node in enumerate(nodes):
        for contracted in _single_contractions(node):
            canon = canonical_form(contracted)
            j = index_of.get(encode(canon))
            if j is None:
                raise ValidationError(
                    "a contraction left the enumerated node set; effective list is "
                    "probably not closed under the class sums that occur"
                )
            covers.add((i, j))
    poset = StratPoset(tuple(nodes), tuple(sorted(covers)), complete=not touched_cap)
    poset.maximal_index()  # unique one-vertex maximal element must exist
    return poset


def _edge_multiplicities(slots: list, nv: int, max_edges: int) -> Iterable[tuple[int, ...]]:
    """Multiplicity vectors over edge slots with total in [nv-1 ... max_edges]."""
    for total in range(max(0, nv - 1), max_edges + 1):
        yield from _compositions(total, len(slots))


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
