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

Working form: the RelGraph/Vertex/Edge/Tail named tuples are the API (they
construct, hash and compare in C, and, being tuples, a Tail with a contact
order equals its own encoding, so records and encodings never share a dict);
inside this module a graph is its encoding (vs, es, ts), with vs[v] =
(level, genus, class), es[j] = (kind, end a, half a, end b, half b, contact)
and ts[t] = (vertex, kind, monodromy, contact), a contact being (k, r) or
(0, 0) for none.  _as_code converts a graph on the way in and _decode on the
way out; the canonical search, both contraction moves and the poset walk run
on encodings only.  A graph whose vertex decorations are all distinct costs
the canonical search one sort and one relabeling.  A symmetry fixes every
tail and so every vertex that carries one (the individualization step of
McKay and Piperno, "Practical graph isomorphism, II", 2014): when the
tail-less vertices have distinct decorations, automorphism_order is 1
without a base key built.  This only skips work; no least code changes.
_decode interns: equal vertex, edge and tail encodings decode to one shared
frozen object, so a walk that decodes thousands of graphs builds only as
many objects as there are distinct parts.  _as_code reads a vertex's
encoding with one itemgetter and encodes each Edge and Tail through a cache
keyed by the part itself: expand builds its parts once per shape and decoded
parts are shared, so nearly every lookup hits.  A part that cannot be hashed
(a hand-built list for ends or halves) is encoded uncached.  _decode says
why the encode and decode caches stay apart.

The rigid rule: a tail-free code is rigid when its vertices have pairwise
distinct base keys (distinct decorations are a special case).  _key_order
alone builds base keys, orders a code's vertices by them and decides
whether it is rigid: the search starts from that order, and _placed and
canonical_form read rigidity from it.  Tails only extend each base key
after its decoration and incident edges, so placing tails on a rigid code
leaves every block one vertex, in the same order (individualization again):
the least code of the tailed graph is the tail-free least code with the
tails relabeled by the same permutation, and no search runs.  _placed
applies it to the poset's canonical tail-free codes, and canonical_form to
the tail-free code of each graph it is given (remembering the last one, for
expand's walk, which places many tail tuples on each tail-free graph in
turn).

Every poset node refines to a graph with max_vertices vertices of genus 0 (a
loop for each unit of vertex genus, genus-0, class-0 leaves for the missing
vertices), so the poset walk covers only that bottom layer and single
contractions find every other node and its covers.  The walk takes vertex
tuples non-decreasing in (level, class), with no more levels than vertices;
every candidate is valid by construction, so only the one-vertex graph is
validated.  Connectivity depends only on a shape's edge slots, so each
shape's connected edge multisets are built once, by a depth-first walk that
drops a prefix once the edges left cannot join its components, and each is
searched once per vertex tuple without tails.  Tails are labeled, so placing
them on one tail-free graph per class reaches every tailed class (if s maps
B onto B', (B, P) is isomorphic to (B', sP)).  By the rigid rule a
placement on a rigid canonical tail-free code is canonical as placed.  So no
tails, or a rigid code, means no search: without tails each canonical
tail-free code is its own seed, and only placements on codes with a tie are
searched.
The closure indexes its seeds in walk order and contracts them in that
order, so its work does not depend on hashing.

Both walks take vertex classes from one table: _class_sums counts the
ordered tuples of effective classes per sum, and _class_draws draws through
it, sorted within each level run (poset) or in every order per side
(expand).  The poset draws only the tuples it counts and expand counts its
class tuples without drawing any, so both budgets refuse before wasted work.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from operator import add, attrgetter, itemgetter
from typing import Iterable, Sequence

from .contact import ContactOrder, MonodromyTable
from .errors import ResourceLimitError, ValidationError, checked_record

ABSOLUTE = "absolute"
RELATIVE = "relative"

MAX_AUT_VERTICES = 12
_PERM_BUDGET = 2_000_000  # vertex relabelings one canonical search may try
_CANDIDATE_BUDGET = 2_000_000  # candidates one poset or splitting walk may build
_PLACEMENT_BUDGET = 2_000_000  # tail-free graphs x tail placements one poset walk may build
_ENDS = attrgetter("ends")  # of an Edge
_SLOT_ENDS = itemgetter(1, 3)  # of an edge in encoding shape
_VERTEX_CODE = itemgetter(2, 0, 1)  # (level, genus, class) of a Vertex
_LEVEL_GAP = {ABSOLUTE: 0, RELATIVE: 1}  # levels an edge of each kind spans


class HomologyModel(checked_record("HomologyModel", "rank c1 z_pairing effective")):
    """Finite effective-class model of H_2 with c1 and divisor-pairing functionals."""

    __slots__ = ()

    def __new__(klass, rank: int, c1: tuple[Fraction, ...], z_pairing: tuple[Fraction, ...],
                effective: tuple[tuple[int, ...], ...]) -> HomologyModel:
        self = super().__new__(klass, rank, c1, z_pairing, effective)
        if len(self.c1) != self.rank or len(self.z_pairing) != self.rank:
            raise ValidationError("c1 and z_pairing must have length equal to rank")
        zero = (0,) * self.rank
        if zero not in self.effective:
            raise ValidationError("the zero class must be in the effective list")
        seen: set[tuple[int, ...]] = set()
        for i, vec in enumerate(self.effective):
            if len(vec) != self.rank:
                raise ValidationError(f"effective[{i}] class {vec} has wrong rank")
            if vec in seen:  # a repeat would draw every class tuple through it twice
                raise ValidationError(f"effective[{i}] repeats class {vec}")
            seen.add(vec)
        return self

    def z_of(self, vec: Sequence[int]) -> Fraction:
        return sum((z * v for z, v in zip(self.z_pairing, vec)), Fraction(0))


def add_classes(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


class Vertex(namedtuple("Vertex", "genus cls level", defaults=(0,))):
    __slots__ = ()


class Edge(namedtuple("Edge", "kind ends halves contact", defaults=(("e", "e"), None))):
    __slots__ = ()


class Tail(namedtuple("Tail", "vertex kind monodromy contact", defaults=("e", None))):
    __slots__ = ()


class RelGraph(namedtuple("RelGraph", "vertices edges tails")):
    __slots__ = ()


class Diagnostic(namedtuple("Diagnostic", "rule element message")):
    __slots__ = ()

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
    if not nv:
        diags.append(Diagnostic("structure", "graph", "graph has no vertices"))

    for i, vertex in enumerate(graph.vertices):
        if vertex.genus < 0:
            diags.append(Diagnostic("genus", f"vertex {i}", f"negative genus {vertex.genus}"))
        if len(vertex.cls) != homology.rank:
            diags.append(Diagnostic("structure", f"vertex {i}",
                                    f"class {vertex.cls} has {len(vertex.cls)} entries, "
                                    f"homology rank is {homology.rank}"))
        elif vertex.cls not in homology.effective:
            diags.append(Diagnostic("effective", f"vertex {i}",
                                    f"class {vertex.cls} not in the effective list"))

    for j, edge in enumerate(graph.edges):
        name = f"edge {j}"
        if any(not 0 <= v < nv for v in edge.ends):
            diags.append(Diagnostic("structure", name, f"endpoint out of range {edge.ends}"))
            continue
        if edge.kind not in _LEVEL_GAP:
            diags.append(Diagnostic("structure", name, f"unknown edge kind {edge.kind!r}"))
            continue
        lv0, lv1 = (graph.vertices[v].level for v in edge.ends)
        if abs(lv0 - lv1) != _LEVEL_GAP[edge.kind]:
            diags.append(Diagnostic("level rule", name,
                                    f"{edge.kind} edge joins levels {lv0} and {lv1}"))
        diags += _contact_presence(name, edge.kind, edge.contact)
        for half in edge.halves:
            if half not in table:
                diags.append(Diagnostic("balance", name, f"unknown class label {half!r}"))
        if all(h in table for h in edge.halves):
            if table.inverse_of(edge.halves[0]) != edge.halves[1]:
                diags.append(Diagnostic("balance", name,
                                        f"half decorations {edge.halves} are not mutually inverse"))
            diags += _contact_r(name, edge.kind, edge.contact, edge.halves[0], table)

    for t, tail in enumerate(graph.tails):
        name = f"tail {t}"
        if not 0 <= tail.vertex < nv:
            diags.append(Diagnostic("structure", name, f"vertex index {tail.vertex} out of range"))
            continue
        if tail.kind not in _LEVEL_GAP:
            diags.append(Diagnostic("structure", name, f"unknown tail kind {tail.kind!r}"))
            continue
        if tail.monodromy not in table:
            diags.append(Diagnostic("balance", name, f"unknown class label {tail.monodromy!r}"))
            continue
        diags += _contact_presence(name, tail.kind, tail.contact)
        diags += _contact_r(name, tail.kind, tail.contact, tail.monodromy, table)

    if graph.vertices and all(len(v.cls) == homology.rank for v in graph.vertices):
        total = total_class(graph)
        tail_sum = sum((t.contact.value for t in graph.tails
                        if t.kind == RELATIVE and t.contact is not None), Fraction(0))
        expected = homology.z_of(total)
        if tail_sum != expected:
            diags.append(Diagnostic("tail sum", "graph",
                                    f"relative tail contacts sum to {tail_sum}, "
                                    f"divisor pairing of the total class is {expected}"))
    return diags


def _contact_presence(name: str, kind: str, contact: ContactOrder | None) -> list[Diagnostic]:
    """A relative half (edge end or tail) carries a contact order, an absolute one none."""
    if (kind == RELATIVE) == (contact is not None):
        return []
    what = "missing" if contact is None else "carries"
    return [Diagnostic("structure", name, f"{kind} {name.split()[0]} {what} a contact order")]


def _contact_r(name: str, kind: str, contact: ContactOrder | None, label: str,
               table: MonodromyTable) -> list[Diagnostic]:
    """The contact order k/r of a relative half has r = the order of its class."""
    r = table.order_of(label)
    if kind != RELATIVE or contact is None or contact.r == r:
        return []
    return [Diagnostic("contact order", name,
                       f"contact {contact} has r={contact.r}, class {label!r} has order {r}")]


def _union_find(nv: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Union-find over vertices 0..nv-1 joined by the end pairs: the parent
    forest and how many unions joined two components.  A union hangs the larger
    root under the smaller, so parent[v] <= v and each root is the least vertex
    of its component: one ascending pass of parent[v] = parent[parent[v]] then
    maps every vertex to that least vertex."""
    parent = list(range(nv))
    merges = 0
    for a, b in pairs:
        while parent[a] != a:  # path halving
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a < b:
                a, b = b, a
            parent[a] = b
            merges += 1
    return parent, merges


def _frozen(*parts) -> bool:
    """Whether every part hashes: a hashable tuple cannot change, so a memory
    keyed by its identity stays true while the memory holds it (and so keeps
    its id from being reused)."""
    try:
        hash(parts)
    except TypeError:
        return False
    return True


_last_connected: tuple = (-1, None, False)  # (vertex count, edges, answer)


def is_connected(graph: RelGraph) -> bool:
    """Whether the graph has at most one component: n - 1 unions joined its n vertices.

    The answer depends only on the vertex count and the edges, so the last
    answer is remembered for its vertex count and its edges object: a call
    with that same object (`is`) and count returns it.  Only edges that hash
    are remembered, and the entry is replaced in one assignment, so no
    thread reads a mixed one."""
    global _last_connected
    nv, edges = len(graph.vertices), graph.edges
    last = _last_connected
    if last[1] is edges and last[0] == nv:
        return last[2]
    answer = _union_find(nv, map(_ENDS, edges))[1] >= nv - 1
    if _frozen(edges):
        _last_connected = (nv, edges, answer)
    return answer


def genus(graph: RelGraph) -> int:
    """dim H^1 of the graph plus the vertex genera; connected graphs only."""
    if not is_connected(graph):
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
    them, then lower all levels above `level` by one.

    The components of those edges become vertices in order of their least
    vertex; the other edges keep their order and orientation."""
    levels = {v.level for v in graph.vertices}
    if level not in levels or level + 1 not in levels:
        raise ValidationError(f"levels {level} and {level + 1} are not both occupied")
    return _decode(_contract_level_code(_as_code(graph), level))


def _contract_level_code(code: tuple, level: int) -> tuple:
    """Levels `level` and `level+1` of a graph in encoding shape collapsed, in
    the same shape: see contract_level."""
    vs, es, ts = code
    pair = {level, level + 1}
    between = [kind == RELATIVE and {vs[a][0], vs[b][0]} == pair
               for kind, a, _, b, _, _ in es]
    parent, _ = _union_find(len(vs), [_SLOT_ENDS(e) for e, inside in zip(es, between) if inside])
    group_of: list[int] = []
    merged: list[list] = []  # [level, genus, class] per component
    for v, (lv, g, cls) in enumerate(vs):
        root = parent[v] = parent[parent[v]]
        if root == v:
            # a component spans {level, level+1} and lands on `level`; every
            # level above `level` drops by one
            group_of.append(len(merged))
            merged.append([lv if lv <= level else lv - 1, g, cls])
        else:
            # a component gains its cycles, between edges - members + 1, as
            # genus: each further member counts -1 here, each edge +1 below
            group = merged[group_of[root]]
            group_of.append(group_of[root])
            group[1] += g - 1
            group[2] = add_classes(group[2], cls)
    for inside, edge in zip(between, es):
        if inside:
            merged[group_of[edge[1]]][1] += 1
    return (tuple([tuple(m) for m in merged]),
            tuple([(kind, group_of[a], ha, group_of[b], hb, c)
                   for (kind, a, ha, b, hb, c), inside in zip(es, between) if not inside]),
            tuple([(group_of[v], kind, m, c) for v, kind, m, c in ts]))


def _contact_key(contact: ContactOrder | None) -> tuple[int, int]:
    return (contact.k, contact.r) if contact is not None else (0, 0)


def _contact_of(key: tuple[int, int]) -> ContactOrder | None:
    return ContactOrder(*key) if key != (0, 0) else None


def _relabel(code: tuple, perm: Sequence[int]) -> tuple:
    """The encoding of a graph in encoding shape with vertex v relabeled
    perm[v]: each edge oriented so that end 0 comes first in (level, vertex,
    half) order, the edges sorted."""
    vs, es, ts = code
    out: list = [None] * len(vs)
    for v, deco in enumerate(vs):
        out[perm[v]] = deco
    edges = []
    for kind, a, ha, b, hb, c in es:
        la, lb = vs[a][0], vs[b][0]
        a, b = perm[a], perm[b]
        if la < lb or la == lb and (a < b or a == b and ha <= hb):
            edges.append((kind, a, ha, b, hb, c))
        else:
            edges.append((kind, b, hb, a, ha, c))
    edges.sort()
    return (tuple(out), tuple(edges), tuple([(perm[v], kind, m, c) for v, kind, m, c in ts]))


@functools.cache
def _edge_code(edge: Edge) -> tuple:
    return (edge.kind, edge.ends[0], edge.halves[0], edge.ends[1], edge.halves[1],
            _contact_key(edge.contact))


@functools.cache
def _tail_code(tail: Tail) -> tuple:
    return (tail.vertex, tail.kind, tail.monodromy, _contact_key(tail.contact))


def _parts_code(encoder, parts: Sequence) -> tuple:
    """Each part encoded through the cached `encoder`; a part that cannot key
    a cache (a hand-built list-valued field) sends all of them uncached."""
    try:
        return tuple(map(encoder, parts))
    except TypeError:
        return tuple(map(encoder.__wrapped__, parts))


def _as_code(graph: RelGraph) -> tuple:
    """The graph in encoding shape, its edges in their own order and orientation."""
    return (tuple(map(_VERTEX_CODE, graph.vertices)), _parts_code(_edge_code, graph.edges),
            _parts_code(_tail_code, graph.tails))


def encode(graph: RelGraph) -> tuple:
    """Index-sensitive total encoding; equal encodings mean equal decorated graphs."""
    return _relabel(_as_code(graph), range(len(graph.vertices)))


@functools.cache
def _vertex_of(deco: tuple) -> Vertex:
    level, genus, cls = deco
    return Vertex(genus, cls, level)


@functools.cache
def _edge_of(edge: tuple) -> Edge:
    kind, a, ha, b, hb, contact = edge
    return Edge(kind, (a, b), (ha, hb), _contact_of(contact))


@functools.cache
def _tail_of(tail: tuple) -> Tail:
    v, kind, monodromy, contact = tail
    return Tail(v, kind, monodromy, _contact_of(contact))


def _decode(code: tuple) -> RelGraph:
    """The graph an encoding describes, its edges in encoding order and orientation.

    Equal vertex, edge and tail encodings decode to one shared object: the
    objects are frozen, so sharing is invisible to ==, hash and repr.  The
    caches behind _vertex_of, _edge_of and _tail_of, and the encode caches
    behind _edge_code and _tail_code, have no size cap: their keys are built
    from the inputs' decorations (levels, genera, classes, half labels,
    contact orders) and from vertex indices, which stay below
    MAX_AUT_VERTICES on every graph a canonical search or the poset returns,
    so the inputs' distinct parts bound them.  Each direction keeps its own
    caches: a Tail with a contact order equals its encoding, so one shared
    cache would answer a record with a code."""
    vs, es, ts = code
    return RelGraph(tuple(map(_vertex_of, vs)), tuple(map(_edge_of, es)),
                    tuple(map(_tail_of, ts)))


def _distinct_decorations(vs: Sequence, ts: Sequence = ()) -> bool:
    """Whether no two vertices that carry none of the tails `ts` share a
    decoration, for the vertices and tails of an encoding or of a RelGraph
    (a Vertex is equal exactly when its encoding is, and a tail's vertex
    comes first in both forms); more than MAX_AUT_VERTICES vertices raise
    ResourceLimitError first."""
    if len(vs) > MAX_AUT_VERTICES:
        raise ResourceLimitError(f"graph has {len(vs)} vertices, cap is {MAX_AUT_VERTICES}")
    if ts:
        tailed = {t[0] for t in ts}
        vs = [deco for v, deco in enumerate(vs) if v not in tailed]
    return len(set(vs)) == len(vs)


def _key_order(code: tuple) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """(perm, shuffled) for a graph in encoding shape.  A vertex's base key is
    its decoration, its sorted incident half-edges (each with the far end's
    decoration) and its tails in index order; distinct decorations alone
    give the order, and then no base key is built.  perm[v] is vertex v's
    position in base-key order, tied vertices in index order, and shuffled
    lists (first position, block) of each run of two or more vertices with
    equal base keys; an empty list means the code is rigid."""
    vs, es, ts = code
    keys = vs
    if not _distinct_decorations(vs):
        incident: list[list[tuple]] = [[] for _ in vs]
        for kind, a, ha, b, hb, contact in es:
            loop = a == b
            incident[a].append((kind, ha, hb, contact, loop, vs[b]))
            incident[b].append((kind, hb, ha, contact, loop, vs[a]))
        tails: list[list[tuple]] = [[] for _ in vs]
        for t_index, (v, kind, monodromy, contact) in enumerate(ts):
            tails[v].append((t_index, kind, monodromy, contact))
        keys = [(deco, tuple(sorted(inc)), tuple(tl))
                for deco, inc, tl in zip(vs, incident, tails)]
    order = sorted(range(len(vs)), key=keys.__getitem__)
    perm = [0] * len(vs)
    shuffled: list[tuple[int, list[int]]] = []
    start = 0
    for pos, v in enumerate(order):
        perm[v] = pos
        if keys[v] != keys[order[start]]:
            if pos - start > 1:
                shuffled.append((start, order[start:pos]))
            start = pos
    if len(order) - start > 1:
        shuffled.append((start, order[start:]))
    return perm, shuffled


def _canonical_search(code: tuple) -> tuple[tuple, int]:
    """The least encoding of a graph in encoding shape over the
    base-key-respecting vertex relabelings, and how many relabelings reach it:
    two tie exactly when they differ by a decoration-preserving symmetry, and
    every symmetry respects the base keys (which hold the tail index, so a
    symmetry fixes every tail), so the tie count is the order of the symmetry
    group.  _key_order gives the start; only its blocks of two or more
    vertices are permuted, and a rigid code is relabeled once."""
    perm, shuffled = _key_order(code)
    if not shuffled:
        return _relabel(code, perm), 1
    budget = 1
    for _, block in shuffled:
        budget *= math.factorial(len(block))
        if budget > _PERM_BUDGET:
            raise ResourceLimitError(
                f"canonicalization budget exceeded ({budget} > {_PERM_BUDGET} permutations)"
            )
    best: tuple | None = None
    ties = 0
    for arrangement in itertools.product(*(itertools.permutations(b) for _, b in shuffled)):
        for (start, _), block_vertices in zip(shuffled, arrangement):
            for offset, v in enumerate(block_vertices):
                perm[v] = start + offset
        candidate = _relabel(code, perm)
        if best is None or candidate < best:
            best, ties = candidate, 1
        elif candidate == best:
            ties += 1
    return best, ties


_last_labeling: tuple = (None, None, None)  # (vertices, edges, (perm, least vs, es) or None)


def canonical_form(graph: RelGraph) -> RelGraph:
    """Deterministic representative of the vertex-relabeling class (tails stay
    labeled): the least encoding, decoded.  Its vertices come in ascending
    level order, each edge lists its lower-level end first, and its tails
    stay in list order.

    _key_order of the graph's tail-free code decides: when that code is
    rigid, its least code with the tails relabeled by the same permutation
    is the least code (the rigid rule of the module docstring), and no
    search runs; otherwise the search does.  The last tail-free labeling is
    remembered for its vertices and edges objects, under is_connected's
    rules: a call with both same objects (`is`) reuses it, only parts that
    hash are remembered, and the entry is replaced in one assignment."""
    global _last_labeling
    if not graph.vertices:
        return graph
    vertices, edges, tails = graph
    last = _last_labeling
    if last[0] is not vertices or last[1] is not edges:
        code = (tuple(map(_VERTEX_CODE, vertices)), _parts_code(_edge_code, edges), ())
        perm, shuffled = _key_order(code)
        labeling = None
        if not shuffled:
            least_vs, least_es, _ = _relabel(code, perm)
            labeling = perm, tuple(map(_vertex_of, least_vs)), tuple(map(_edge_of, least_es))
        last = (vertices, edges, labeling)
        if _frozen(vertices, edges):
            _last_labeling = last
    if last[2] is None:
        return _decode(_canonical_search(_as_code(graph))[0])
    perm, least_vertices, least_edges = last[2]
    return RelGraph(least_vertices, least_edges,
                    tuple([_tail_of((perm[v], kind, m, c))
                           for v, kind, m, c in _parts_code(_tail_code, tails)]))


def automorphism_order(graph: RelGraph) -> int:
    """Order of the decoration-preserving vertex symmetry group.

    Marked points are labeled, so a symmetry fixes every tail, and with it
    every vertex that carries one: two identically decorated tails are never
    exchanged, and only tail-less vertices can move.  The multiset symmetry of
    equal insertions enters each term's coefficient in expand, so counting it
    here as well would count it twice.  The order is the tie count of the
    least-encoding search that canonical_form runs.  When the tail-less
    vertices have distinct decorations the group is trivial and no encoding
    is built.
    """
    if not graph.vertices or _distinct_decorations(graph.vertices, graph.tails):
        return 1
    return _canonical_search(_as_code(graph))[1]


class PosetBounds(checked_record("PosetBounds", "max_vertices max_levels edge_monodromies "
                                 "max_edge_contact_numerator")):
    """Enumeration caps, each at least 1; a vertex cap above MAX_AUT_VERTICES
    raises ResourceLimitError (exit 3 from the command line).  Relative
    internal edges (max_levels > 1) additionally need a numerator cap because
    nothing else makes the search space finite; the edge menu names each label
    once.  An edge menu of None means the class table's order-1 labels; () is
    the empty menu."""

    __slots__ = ()

    def __new__(klass, max_vertices: int = 2, max_levels: int = 1,
                edge_monodromies: tuple[str, ...] | None = None,
                max_edge_contact_numerator: int | None = None) -> PosetBounds:
        self = super().__new__(klass, max_vertices, max_levels, edge_monodromies,
                               max_edge_contact_numerator)
        for name in ("max_vertices", "max_levels", "max_edge_contact_numerator"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValidationError(f"PosetBounds.{name} must be at least 1, got {value}")
        for i, label in enumerate(self.edge_monodromies or ()):
            if label in self.edge_monodromies[:i]:
                raise ValidationError(
                    f"PosetBounds.edge_monodromies[{i}] repeats label {label!r}")
        if self.max_vertices > MAX_AUT_VERTICES:
            raise ResourceLimitError(
                f"vertex cap {self.max_vertices} exceeds the supported maximum {MAX_AUT_VERTICES}")
        if self.max_levels > 1 and self.max_edge_contact_numerator is None:
            raise ValidationError(
                "max_edge_contact_numerator is required when max_levels > 1 "
                "(relative edge contacts are otherwise unbounded)")
        return self


class StratPoset(namedtuple("StratPoset", "nodes covers complete")):
    __slots__ = ()

    def maximal_index(self) -> int:
        for i, node in enumerate(self.nodes):
            if len(node.vertices) == 1 and not node.edges:
                return i
        raise ValidationError("poset has no one-vertex node")


@functools.cache
def _class_sums(effective: tuple[tuple[int, ...], ...], n: int) -> dict[tuple[int, ...], int]:
    """Each class that n effective classes reach, mapped to how many ordered
    n-tuples of them sum to it; layer n is built from layer n - 1."""
    if n == 0:
        return {(0,) * len(effective[0]): 1}
    out: dict[tuple[int, ...], int] = {}
    for total, count in _class_sums(effective, n - 1).items():
        for cls in effective:
            key = add_classes(total, cls)
            out[key] = out.get(key, 0) + count
    return out


def _class_draws(total_cls: tuple[int, ...], runs: Sequence, effective: tuple) -> Iterable[tuple]:
    """Tuples of effective classes summing to total_cls, one class per entry of
    runs, non-decreasing along each stretch of equal entries, in the order of
    the effective list; a prefix grows only while its remainder stays
    reachable by the classes left."""
    n = len(runs)
    reachable = [_class_sums(effective, left) for left in range(n + 1)]

    def draw(prefix: tuple, remainder: tuple[int, ...]) -> Iterable[tuple]:
        i = len(prefix)
        if i == n:
            yield prefix
            return
        floor = prefix[-1] if i and runs[i] == runs[i - 1] else None
        for cls in effective:
            rest = tuple(t - c for t, c in zip(remainder, cls))
            if rest in reachable[n - 1 - i] and (floor is None or cls >= floor):
                yield from draw(prefix + (cls,), rest)

    if total_cls in reachable[n]:
        yield from draw((), total_cls)


def _single_contractions(code: tuple) -> Iterable[tuple]:
    """Each distinct absolute edge of an encoding contracted once (equal edges
    are adjacent in an encoding and give the same graph), then each adjacent
    level pair collapsed; every result is a labeled graph in encoding shape."""
    vs, es, _ = code
    for j, edge in enumerate(es):
        if edge[0] == ABSOLUTE and (j == 0 or edge != es[j - 1]):
            yield _contract_edge_code(code, j)
    levels = {v[0] for v in vs}
    for level in sorted(levels):
        if level + 1 in levels:
            yield _contract_level_code(code, level)


def _closure(codes: Iterable[tuple], effective: Sequence) -> tuple[list, list[tuple[int, int]]]:
    """The canonical codes that single contractions reach from the canonical
    `codes`, sorted, and the covers between them as index pairs.  All seeds
    are indexed before the first contraction, in the order `codes` yields
    them (a repeat keeps its first index), and contracted in that order, so
    the work does not depend on hashing.  Contractions are resolved on the
    encodings: index_of also learns every labeled contraction it is asked
    about, so each distinct one is searched once."""
    index_of: dict[tuple, int] = {}
    for code in codes:
        index_of.setdefault(code, len(index_of))
    nodes = list(index_of)
    found: set[tuple[int, int]] = set()
    for i, code in enumerate(nodes):  # a node found on the way is appended and walked too
        for contracted in _single_contractions(code):
            j = index_of.get(contracted)
            if j is None:
                canonical = _canonical_search(contracted)[0]
                j = index_of.get(canonical)
                if j is None:
                    if not all(cls in effective for _, _, cls in canonical[0]):
                        raise ValidationError(
                            "a contraction left the enumerated node set; effective list is "
                            "probably not closed under the class sums that occur"
                        )
                    j = index_of[canonical] = len(nodes)
                    nodes.append(canonical)
                index_of[contracted] = j
            found.add((i, j))
    order = sorted(range(len(nodes)), key=nodes.__getitem__)
    position = sorted(range(len(nodes)), key=order.__getitem__)  # order's inverse
    return [nodes[i] for i in order], sorted({(position[i], position[j]) for i, j in found})


def stratification_poset(
    genus_total: int,
    total_cls: tuple[int, ...],
    tails: Sequence[Tail],
    homology: HomologyModel,
    classes: MonodromyTable | None = None,
    bounds: PosetBounds = PosetBounds(),
) -> StratPoset:
    """All valid graphs (canonical, deterministic order) contracting to the
    one-vertex graph with the given decorations, with single-contraction covers;
    the module docstring says how the walk finds them.

    Tail vertex assignments in `tails` are ignored; tails keep their list
    positions (marked points are labeled).  PosetBounds checks its own caps.
    With an edge on the menu a chain of leaves reaches the vertex cap, so the
    poset is complete only with an empty menu (one node) and a vertex cap
    above 1.  Invalid inputs raise ValidationError naming the one-vertex
    graph's first diagnostic, as does a contraction to a class outside
    `effective`, and an edge menu label missing from the class table names
    its PosetBounds.edge_monodromies position.  A walk over more than
    _CANDIDATE_BUDGET edge multisets, connected or not, raises
    ResourceLimitError before it starts; one whose distinct tail-free graphs
    times the max_vertices ** len(tails) tail placements exceed
    _PLACEMENT_BUDGET raises it after the tail-free searches and before the
    first placement; the budget counts every placement, searched or not.
    More edges per graph than the edge walk can nest raise it as well.
    """
    table = classes if classes is not None else MonodromyTable.trivial()

    # every candidate below is valid by construction except for the inputs:
    # classes come from `effective`, edges from the balanced level-respecting
    # menus (MonodromyTable keeps inverses involutive with equal orders), so
    # the one-vertex graph is the only one to check
    top = RelGraph((Vertex(genus_total, total_cls, 0),), (),
                   tuple(Tail(0, t.kind, t.monodromy, t.contact) for t in tails))
    diags = validate(top, homology, table)
    if diags:
        raise ValidationError(f"the one-vertex graph is invalid: {diags[0]}")

    menu = bounds.edge_monodromies
    if menu is None:
        menu = tuple(sorted(label for label, order in table.orders.items() if order == 1))
    for i, label in enumerate(menu):
        if label not in table:
            raise ValidationError(
                f"PosetBounds.edge_monodromies[{i}]: unknown monodromy class {label!r}")
    # balanced decoration menus for internal edges; an absolute edge between
    # two vertices may carry its pair of inverse halves either way round
    abs_decos = sorted({tuple(sorted((h, table.inverse_of(h)))) for h in menu})
    rel_menu = [(h, table.inverse_of(h), table.order_of(h)) for h in sorted(menu)]
    contact_cap = bounds.max_edge_contact_numerator or 0
    nv = bounds.max_vertices
    n_edges = nv - 1 + genus_total

    # The walk builds encodings.  Every bottom graph has a vertex order
    # non-decreasing in (level, class), and no more levels than vertices; only
    # those vertex tuples are walked, each with every connected edge multiset.
    # All of a shape's multisets, connected or not, are counted from the menu
    # sizes before its relative slots are built, so an oversized walk is
    # refused first.
    shapes: list[tuple] = []
    multisets = 0
    for levels in itertools.combinations_with_replacement(range(min(bounds.max_levels, nv)), nv):
        if len(set(levels)) != levels[-1] + 1:
            continue
        slots: list[tuple] = []
        rel_pairs: list[tuple[int, int]] = []
        for i in range(nv):
            for j in range(i, nv):
                if levels[i] == levels[j]:
                    for h0, h1 in abs_decos:
                        slots.append((ABSOLUTE, i, h0, j, h1, (0, 0)))
                        if i != j and h0 != h1:
                            slots.append((ABSOLUTE, i, h1, j, h0, (0, 0)))
                elif levels[j] == levels[i] + 1:
                    rel_pairs.append((i, j))
        vertex_tuples = [tuple(zip(levels, itertools.repeat(0), cls_assign))
                         for cls_assign in _class_draws(total_cls, levels, homology.effective)]
        multisets += len(vertex_tuples) * _composition_count(
            n_edges, len(slots) + len(rel_pairs) * len(rel_menu) * contact_cap)
        if multisets > _CANDIDATE_BUDGET:
            raise ResourceLimitError(
                f"poset enumeration exceeded the candidate budget "
                f"({_CANDIDATE_BUDGET}) at {nv} vertices; tighten the bounds"
            )
        slots += [(RELATIVE, i, h0, j, h1, (k, r)) for i, j in rel_pairs
                  for h0, h1, r in rel_menu for k in range(1, contact_cap + 1)]
        shapes.append((slots, vertex_tuples))

    # connectivity depends only on the slots, so each shape's connected
    # multisets are built once; each is searched once per vertex tuple without
    # tails (the dict keeps walk order), then each tail placement is built
    # once per distinct tail-free code
    bare = dict.fromkeys(_canonical_search((vertices, edges, ()))[0]
                         for slots, vertex_tuples in shapes
                         for connected in [_connected_multisets(slots, nv, n_edges)]
                         for vertices in vertex_tuples for edges in connected)
    if len(bare) * nv ** len(tails) > _PLACEMENT_BUDGET:
        raise ResourceLimitError(
            f"poset enumeration exceeded the placement budget ({_PLACEMENT_BUDGET}): "
            f"{len(bare)} tail-free graphs x {nv}^{len(tails)} tail placements "
            f"at {nv} vertices; tighten the bounds")
    tail_decos = [(t.kind, t.monodromy, _contact_key(t.contact)) for t in tails]
    placements = [tuple([(home,) + deco for home, deco in zip(homes, tail_decos)])
                  for homes in itertools.product(range(nv), repeat=len(tails))]
    seeds = _placed(bare, placements)
    del bare  # the closure drains its seeds first, and the drained iterator frees them
    # a one-vertex encoding is canonical
    codes, covers = _closure(itertools.chain([_as_code(top)], seeds), homology.effective)
    return StratPoset(tuple(_decode(code) for code in codes), tuple(covers),
                      complete=not menu and nv > 1)


def _placed(bare: Iterable[tuple], placements: Sequence[tuple]) -> Iterable[tuple]:
    """The canonical code of each tail placement on each canonical tail-free
    code, in that order; the walk paragraph of the module docstring says
    which are searched."""
    for code in bare:
        rigid = not placements[0] or not _key_order(code)[1]
        for tails_at in placements:
            seed = (code[0], code[1], tails_at)
            yield seed if rigid else _canonical_search(seed)[0]


def _connected_multisets(slots: Sequence[tuple], nv: int, size: int) -> list[tuple]:
    """The `size`-multisets of `slots` (edges in encoding shape on vertices
    0..nv-1) that join all nv vertices, in combinations_with_replacement
    order.  A depth-first walk in that order drops a prefix once the edges
    left are too few to join its components, an edge joining at most two."""
    ends = [_SLOT_ENDS(slot) for slot in slots]
    found: list[tuple] = []

    def grow(start: int, prefix: tuple, root: tuple, parts: int) -> None:
        left = size - len(prefix)
        if not left:
            found.append(prefix)
            return
        for i in range(start, len(slots)):
            a, b = ends[i]
            ra, rb = root[a], root[b]
            if ra == rb:
                if parts <= left:
                    grow(i, prefix + (slots[i],), root, parts)
            else:  # parts - 1 <= left holds on entry, so a merge always may
                low, high = (ra, rb) if ra < rb else (rb, ra)
                grow(i, prefix + (slots[i],),
                     tuple([low if r == high else r for r in root]), parts - 1)

    if nv - 1 <= size:
        try:
            grow(0, (), tuple(range(nv)), nv)
        except RecursionError:  # grow recurses once per edge
            raise ResourceLimitError(
                f"poset enumeration at {nv} vertices: {size} edges per graph, "
                "more than the edge walk can nest") from None
    return found


def _composition_count(total: int, parts: int) -> int:
    """How many tuples of `parts` non-negative integers sum to `total`."""
    if total < 0:
        return 0
    if parts == 0:
        return int(total == 0)
    return math.comb(total + parts - 1, parts - 1)


def _vec_str(vec: tuple[int, ...]) -> str:
    return f"({','.join(map(str, vec))})"


def _dot_string(text: str) -> str:
    """`text` as a quoted DOT string, its backslashes and quotes escaped (for
    labels that carry class labels from the input; numeric labels need none)."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_id(name: str) -> str:
    """`name` bare when it is a DOT ID ([A-Za-z_][A-Za-z0-9_]*), else quoted."""
    return name if name.isascii() and name.isidentifier() else _dot_string(name)


def to_dot(graph: RelGraph, name: str = "G") -> str:
    """DOT rendering; output is byte-stable for a fixed input graph."""
    lines = [f"graph {_dot_id(name)} {{"]
    for i, v in enumerate(graph.vertices):
        lines.append(f'  v{i} [label="g={v.genus},A={_vec_str(v.cls)},lvl={v.level}"];')
    for e in graph.edges:
        a, b = e.ends
        if e.kind == RELATIVE:
            contact = e.contact if e.contact is not None else ContactOrder(1, 1)
            label = _dot_string(f"ℓ={contact},({e.halves[0]})")
            lines.append(f"  v{a} -- v{b} [style=dashed, label={label}];")
        elif e.halves != ("e", "e"):
            lines.append(f"  v{a} -- v{b} [label={_dot_string(f'({e.halves[0]})')}];")
        else:
            lines.append(f"  v{a} -- v{b};")
    for t, tail in enumerate(graph.tails):
        if tail.kind == RELATIVE and tail.contact is not None:
            label = f"ℓ={tail.contact},({tail.monodromy})"
            style = "style=dashed, "
        else:
            label = f"({tail.monodromy})"
            style = ""
        lines.append(f"  t{t} [shape=point];")
        lines.append(f"  v{tail.vertex} -- t{t} [{style}label={_dot_string(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_dot(poset: StratPoset, name: str = "poset") -> str:
    """Hasse-style DOT of the contraction relation (arrows point at contractions)."""
    lines = [f"digraph {_dot_id(name)} {{"]
    for i, node in enumerate(poset.nodes):
        summary = (f"V={len(node.vertices)} E={len(node.edges)} "
                   f"g={bullet_genus(node)}")
        lines.append(f'  n{i} [label="{i}: {summary}"];')
    for lower, upper in poset.covers:
        lines.append(f"  n{lower} -> n{upper};")
    lines.append("}")
    return "\n".join(lines) + "\n"
