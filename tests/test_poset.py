"""Stratification poset vs an independent brute-force generator.

The oracle below uses its own graph encoding (plain tuples), its own validity
predicate, full-permutation isomorphism testing, and its own contraction
moves.  Only the counts are compared against the library.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from orbidegen import graph
from orbidegen.contact import ContactOrder, MonodromyTable
from orbidegen.errors import ResourceLimitError, ValidationError
from orbidegen.graph import (
    ABSOLUTE,
    RELATIVE,
    Edge,
    HomologyModel,
    PosetBounds,
    RelGraph,
    Tail,
    Vertex,
    automorphism_order,
    canonical_form,
    contract_edge,
    contract_level,
    encode,
    stratification_poset,
    validate,
)
from orbidegen.inertia import FiniteGroupTable, monodromy_table
from orbidegen.io import load_document
from test_graph import brute_automorphism_count

# oracle graph: (vertices, edges, tails)
#   vertices: tuple of (genus, class_scalar, level)
#   edges: sorted tuple of (lo, hi, kind, contact_k) with kind "a" or "r"
#   tails: tuple of vertex indices (tail decorations live in the scenario)


def oracle_canonical(graph):
    vertices, edges, tails = graph
    n = len(vertices)
    best = None
    for perm in itertools.permutations(range(n)):
        new_vertices = tuple(sorted_vertices(vertices, perm))
        new_edges = tuple(sorted(
            (min(perm[a], perm[b]), max(perm[a], perm[b]), kind, contact)
            if kind == "a" else order_rel(perm[a], perm[b], vertices[a][2],
                                          vertices[b][2], kind, contact)
            for a, b, kind, contact in edges))
        new_tails = tuple(perm[v] for v in tails)
        candidate = (new_vertices, new_edges, new_tails)
        if not vertices_sorted(candidate[0]):
            continue
        if best is None or candidate < best:
            best = candidate
    return best


def sorted_vertices(vertices, perm):
    out = [None] * len(vertices)
    for old, new in enumerate(perm):
        out[new] = vertices[old]
    return out


def vertices_sorted(vs):
    return all(vs[i] <= vs[i + 1] for i in range(len(vs) - 1))


def order_rel(pa, pb, la, lb, kind, contact):
    return (pa, pb, kind, contact) if la < lb else (pb, pa, kind, contact)


def oracle_connected(graph):
    vertices, edges, _ = graph
    if not vertices:
        return False
    reach = {0}
    frontier = [0]
    adj = {i: set() for i in range(len(vertices))}
    for a, b, _, _ in edges:
        adj[a].add(b)
        adj[b].add(a)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    return len(reach) == len(vertices)


def oracle_valid(graph, scenario):
    vertices, edges, tails = graph
    if sum(v[1] for v in vertices) != scenario["total"]:
        return False
    if any(v[1] not in scenario["effective"] for v in vertices):
        return False
    if any(v[0] < 0 for v in vertices):
        return False
    cycles = len(edges) - len(vertices) + 1
    if sum(v[0] for v in vertices) + cycles != scenario["genus"]:
        return False
    for a, b, kind, _ in edges:
        la, lb = vertices[a][2], vertices[b][2]
        if kind == "a" and la != lb:
            return False
        if kind == "r" and abs(la - lb) != 1:
            return False
    levels = sorted({v[2] for v in vertices})
    if levels != list(range(len(levels))):
        return False
    return oracle_connected(graph)


def oracle_generate(scenario):
    """Every canonical valid graph within the scenario bounds."""
    found = set()
    max_v = scenario["max_vertices"]
    max_l = scenario["max_levels"]
    n_tails = len(scenario["tails"])
    for nv in range(1, max_v + 1):
        genus_options = [g for g in range(scenario["genus"] + 1)]
        for levels in itertools.product(range(max_l), repeat=nv):
            for classes in itertools.product(scenario["effective"], repeat=nv):
                slots = []
                for i in range(nv):
                    for j in range(i, nv):
                        if levels[i] == levels[j]:
                            slots.append((i, j, "a", 0))
                        elif abs(levels[i] - levels[j]) == 1:
                            for k in range(1, scenario.get("contact_cap", 0) + 1):
                                slots.append((min(i, j), max(i, j), "r", k))
                max_edges = nv - 1 + scenario["genus"]
                for counts in itertools.product(range(max_edges + 1), repeat=len(slots)):
                    if not (nv - 1) <= sum(counts) <= max_edges:
                        continue
                    edges = []
                    for slot, count in zip(slots, counts):
                        edges.extend([slot] * count)
                    cycles = len(edges) - nv + 1
                    if cycles < 0 or cycles > scenario["genus"]:
                        continue
                    for genera in itertools.product(genus_options, repeat=nv):
                        if sum(genera) + cycles != scenario["genus"]:
                            continue
                        for tail_homes in itertools.product(range(nv), repeat=n_tails):
                            vertices = tuple((genera[i], classes[i], levels[i])
                                             for i in range(nv))
                            graph = (vertices, tuple(sorted(edges)), tail_homes)
                            if oracle_valid(graph, scenario):
                                found.add(oracle_canonical(graph))
    return found


def oracle_contract_edge(graph, index):
    vertices, edges, tails = graph
    a, b, kind, _ = edges[index]
    rest = edges[:index] + edges[index + 1:]
    if a == b:
        new_vertices = tuple(
            (v[0] + 1, v[1], v[2]) if i == a else v for i, v in enumerate(vertices))
        return (new_vertices, rest, tails)
    keep = [i for i in range(len(vertices)) if i != b]
    remap = {old: new for new, old in enumerate(keep)}
    remap[b] = remap[a]
    merged = (vertices[a][0] + vertices[b][0], vertices[a][1] + vertices[b][1],
              vertices[a][2])
    new_vertices = tuple(merged if old == a else vertices[old] for old in keep)
    new_edges = tuple(sorted(
        (min(remap[x], remap[y]), max(remap[x], remap[y]), k, c)
        if k == "a" else
        order_rel(remap[x], remap[y], new_vertices[remap[x]][2],
                  new_vertices[remap[y]][2], k, c)
        for x, y, k, c in rest))
    new_tails = tuple(remap[v] for v in tails)
    return (new_vertices, new_edges, new_tails)


def oracle_contract_level(graph, level):
    vertices, edges, tails = graph
    between = [i for i, (a, b, kind, _) in enumerate(edges)
               if kind == "r" and {vertices[a][2], vertices[b][2]} == {level, level + 1}]
    parent = list(range(len(vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in between:
        a, b = edges[i][0], edges[i][1]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in range(len(vertices)):
        groups.setdefault(find(v), []).append(v)
    ordered = sorted(groups.values(), key=min)
    remap = {}
    merged_vertices = []
    for gi, group in enumerate(ordered):
        for v in group:
            remap[v] = gi
        internal = sum(1 for i in between if find(edges[i][0]) == find(group[0]))
        genus = sum(vertices[v][0] for v in group) + internal - len(group) + 1
        cls = sum(vertices[v][1] for v in group)
        old_level = min(vertices[v][2] for v in group)
        new_level = old_level if old_level <= level else old_level - 1
        merged_vertices.append((genus, cls, new_level))
    rest = [e for i, e in enumerate(edges) if i not in set(between)]
    new_vertices = tuple(merged_vertices)
    new_edges = tuple(sorted(
        (min(remap[x], remap[y]), max(remap[x], remap[y]), k, c)
        if k == "a" else
        order_rel(remap[x], remap[y], new_vertices[remap[x]][2],
                  new_vertices[remap[y]][2], k, c)
        for x, y, k, c in rest))
    new_tails = tuple(remap[v] for v in tails)
    return (new_vertices, new_edges, new_tails)


def oracle_covers(nodes):
    index = {g: i for i, g in enumerate(sorted(nodes))}
    covers = set()
    for g in nodes:
        vertices, edges, _ = g
        for i, (a, b, kind, _) in enumerate(edges):
            if kind == "a":
                result = oracle_canonical(oracle_contract_edge(g, i))
                covers.add((index[g], index[result]))
        levels = sorted({v[2] for v in vertices})
        for lv in levels:
            if lv + 1 in levels:
                result = oracle_canonical(oracle_contract_level(g, lv))
                covers.add((index[g], index[result]))
    return covers


SCENARIOS = [
    {
        "name": "one_tail_two_vertices",
        "genus": 0, "total": 1, "effective": (0, 1),
        "tails": [("relative", 1)],
        "max_vertices": 2, "max_levels": 1,
    },
    {
        "name": "genus_one_splitting",
        "genus": 1, "total": 0, "effective": (0,),
        "tails": [],
        "max_vertices": 2, "max_levels": 1,
    },
    {
        "name": "two_labeled_tails",
        "genus": 0, "total": 2, "effective": (0, 1, 2),
        "tails": [("relative", 1), ("relative", 1)],
        "max_vertices": 2, "max_levels": 1,
    },
    {
        "name": "two_levels",
        "genus": 0, "total": 1, "effective": (0, 1),
        "tails": [("relative", 1)],
        "max_vertices": 2, "max_levels": 2, "contact_cap": 2,
    },
    {
        "name": "genus_two_three_vertices",
        "genus": 2, "total": 0, "effective": (0,),
        "tails": [],
        "max_vertices": 3, "max_levels": 1,
    },
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s["name"])
def test_poset_matches_oracle(scenario):
    homology = HomologyModel(
        rank=1, c1=(F(1),), z_pairing=(F(1),),
        effective=tuple((a,) for a in scenario["effective"]))
    tails = [Tail(0, kind, "e", ContactOrder(k, 1)) for kind, k in scenario["tails"]]
    bounds = PosetBounds(
        max_vertices=scenario["max_vertices"],
        max_levels=scenario["max_levels"],
        max_edge_contact_numerator=scenario.get("contact_cap"),
    )
    poset = stratification_poset(scenario["genus"], (scenario["total"],), tails,
                                 homology, MonodromyTable.trivial(), bounds)
    oracle_nodes = oracle_generate(scenario)
    assert len(poset.nodes) == len(oracle_nodes)
    assert len(poset.covers) == len(oracle_covers(oracle_nodes))


def test_single_node_scenario():
    homology = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(0),), effective=((0,),))
    poset = stratification_poset(0, (0,), [], homology,
                                 bounds=PosetBounds(max_vertices=1))
    assert len(poset.nodes) == 1 and not poset.covers
    assert poset.maximal_index() == 0


def test_poset_without_a_one_vertex_node():
    with pytest.raises(ValidationError, match="^poset has no one-vertex node$"):
        graph.StratPoset((), (), True).maximal_index()


def test_maximal_element_is_one_vertex():
    homology = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(1),),
                             effective=((0,), (1,)))
    tails = [Tail(0, "relative", "e", ContactOrder(1, 1))]
    poset = stratification_poset(0, (1,), tails, homology,
                                 bounds=PosetBounds(max_vertices=2))
    top = poset.nodes[poset.maximal_index()]
    assert len(top.vertices) == 1 and not top.edges
    # every other node has an outgoing cover (acyclicity + unique max)
    lowers = {lo for lo, _ in poset.covers}
    for i in range(len(poset.nodes)):
        if i != poset.maximal_index():
            assert i in lowers


# ------------------------------------------------------- sorted-decoration walk
#
# The generator walks only the most refined layer (max_vertices vertices, all
# of genus 0) and only vertex tuples that are non-decreasing in
# (level, class), first without tails.  For a tail-free graph B of that layer
# the labelings with that vertex tuple are the orbit of the block
# permutations (one symmetric group per block of equal decorations), and the
# stabiliser is Aut(B), so the walk must search exactly  sum over distinct B
# of  prod(block size!) / |Aut(B)|  labeled graphs, then each of the
# max_vertices ** len(tails) tail placements once on each distinct B with a
# tie between two of its vertices' keys (a placement on any other B is
# canonical as placed).  An emission missed or doubled moves that count.

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
Z2 = MonodromyTable(orders={"e": 1, "h": 2}, inverses={"e": "e", "h": "h"})
Z3 = monodromy_table(FiniteGroupTable.cyclic(3))
T11 = [("relative", "e", (1, 1)), ("relative", "e", (1, 1))]
TZ2 = [("relative", "h", (1, 2)), ("relative", "h", (3, 2))]

# (name, table, genus, class, tails, max_vertices, max_levels, edge menu, contact cap)
WALK_CASES = [
    ("g1_v3", None, 1, 2, T11 + [("absolute", "e", None)], 3, 1, ("e",), None),
    ("g2_v3", None, 2, 2, T11 + [("absolute", "e", None)], 3, 1, ("e",), None),
    ("g0_v4", None, 0, 2, T11, 4, 1, ("e",), None),
    ("z2_g0_v3", Z2, 0, 2, TZ2, 3, 1, ("e", "h"), None),
    ("z2_g1_v2", Z2, 1, 2, TZ2 + [("absolute", "h", None)], 2, 1, ("e", "h"), None),
    ("z2grp_g0_v3", monodromy_table(FiniteGroupTable.cyclic(2)), 0, 2,
     [("relative", "c1", (1, 2)), ("relative", "c1", (3, 2))], 3, 1, ("c0", "c1"), None),
    ("lvl2_g0_v3_k2", None, 0, 2, T11, 3, 2, ("e",), 2),
    ("lvl2_g1_v2_k2", None, 1, 2, T11 + [("absolute", "e", None)], 2, 2, ("e",), 2),
    ("lvl2_z2_g0_v2_k2", Z2, 0, 2, TZ2, 2, 2, ("e", "h"), 2),
    # c1 and c2 are mutually inverse, so an absolute edge between two
    # vertices has two orientations
    ("z3_g1_v3", Z3, 1, 1, [("relative", "c1", (1, 3)), ("relative", "c2", (2, 3))],
     3, 1, ("c0", "c1"), None),
    ("z3_lvl2_g1_v2", Z3, 1, 1, [("relative", "c1", (1, 3)), ("relative", "c2", (2, 3))],
     2, 2, ("c1",), 1),
]


def walk_inputs(case):
    _, table, genus_total, cls, tails, mv, levels, menu, cap = case
    homology = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),),
                             effective=tuple((c,) for c in range(max(2, cls) + 1)))
    tails = [Tail(0, kind, mono, ContactOrder(*contact) if contact else None)
             for kind, mono, contact in tails]
    table = table or MonodromyTable.trivial()
    return (genus_total, (cls,), tails, homology, table,
            PosetBounds(mv, levels, menu, cap))


def vertex_keys(g):
    """Each vertex of a graph with its sorted incident half-edges, each as
    (kind, own half, far half, contact, loop, far-end decoration), computed
    from the graph alone."""
    incident = [[] for _ in g.vertices]
    for e in g.edges:
        (a, b), (ha, hb) = e.ends, e.halves
        contact = (e.contact.k, e.contact.r) if e.contact else (0, 0)
        incident[a].append((e.kind, ha, hb, contact, a == b, g.vertices[b]))
        incident[b].append((e.kind, hb, ha, contact, a == b, g.vertices[a]))
    return [(v, tuple(sorted(inc))) for v, inc in zip(g.vertices, incident)]


def has_tie(g):
    """Whether two vertices of a tail-free graph share a key."""
    keys = vertex_keys(g)
    return len(set(keys)) < len(keys)


def bottom_tail_free(poset, max_vertices):
    """The distinct tail-free graphs under the bottom nodes, canonical."""
    return {canonical_form(RelGraph(node.vertices, node.edges, ())) for node in poset.nodes
            if len(node.vertices) == max_vertices and not any(v.genus for v in node.vertices)}


def walk_searches(poset, max_vertices, n_tails):
    """The sorted mass of the distinct tail-free graphs under the bottom
    nodes, plus the tail placements on each of them with a tie when there
    are tails."""
    bare = bottom_tail_free(poset, max_vertices)
    total = 0
    for g in bare:
        blocks = Counter((v.level, v.cls) for v in g.vertices)
        labelings = math.prod(math.factorial(size) for size in blocks.values())
        orbit, rest = divmod(labelings, automorphism_order(g))
        assert rest == 0
        total += orbit
    tied = sum(map(has_tie, bare))
    return total + (tied * max_vertices ** n_tails if n_tails else 0)


@pytest.mark.parametrize("case", WALK_CASES, ids=lambda c: c[0])
def test_sorted_walk(monkeypatch, case):
    """Canonical searches before the first contraction equal the sorted mass
    of the tail-free bottom layer plus the tail placements on its graphs with
    a tie, validate runs once per poset, and every node it returns is valid."""
    counts = Counter()
    search, contractions, check = (graph._canonical_search, graph._single_contractions,
                                   graph.validate)

    def counted_search(g):
        if not counts["covers"]:
            counts["searches"] += 1
        return search(g)

    def first_contractions(g):
        counts["covers"] += 1
        return contractions(g)

    def counted_validate(*args):
        counts["validate"] += 1
        return check(*args)

    monkeypatch.setattr(graph, "_canonical_search", counted_search)
    monkeypatch.setattr(graph, "_single_contractions", first_contractions)
    monkeypatch.setattr(graph, "validate", counted_validate)
    genus_total, cls, tails, homology, table, bounds = walk_inputs(case)
    poset = stratification_poset(genus_total, cls, tails, homology, table, bounds)
    monkeypatch.undo()
    assert counts["validate"] == 1
    assert counts["searches"] == walk_searches(poset, bounds.max_vertices, len(tails))
    if case[0] == "g2_v3":
        # a walk over every vertex count gave 5,341 searches, and one that
        # searched every tail placement 1,614
        assert (len(poset.nodes), counts["searches"]) == (3351, 372)
    for node in poset.nodes:
        assert validate(node, homology, table) == []
        assert graph.genus(node) == genus_total and graph.total_class(node) == cls


COUNT_SEARCHES = """
from orbidegen import graph
from test_poset import WALK_CASES, walk_inputs
calls = 0
search = graph._canonical_search
def counted(code):
    global calls
    calls += 1
    return search(code)
graph._canonical_search = counted
graph.stratification_poset(*walk_inputs(next(c for c in WALK_CASES if c[0] == "g2_v3")))
print(calls)
"""


def test_searches_independent_of_the_hash_seed():
    """The closure contracts its seeds in walk order, so a poset's total
    canonical searches do not depend on the string-hash seed."""
    root = Path(__file__).resolve().parents[1]
    counts = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        done = subprocess.run([sys.executable, "-c", COUNT_SEARCHES], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        counts.append(int(done.stdout))
    assert counts[0] == counts[1]


# an empty edge menu leaves no edge slots: only the one-vertex graph remains
NO_EDGES = ("no_edges_g1_v2", None, 1, 2, T11, 2, 1, (), None)


def joins_all(nv, edges):
    """Whether the (a, b, ...) edges join vertices 0..nv-1, by a union-find of
    the test's own."""
    root = list(range(nv))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    parts = nv
    for a, b, *_ in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            parts -= 1
    return parts == 1


def brute_bottom_multisets(case):
    """The bottom walk's edge multisets counted by brute force: for each level
    tuple, its vertex tuples (class tuples summing to the total, non-decreasing
    within each level) times every multiset of its edge slots, and times the
    multisets that join every vertex.  Returns (all, connected)."""
    _, table, genus_total, cls, _, nv, max_levels, menu, cap = case
    table = table or MonodromyTable.trivial()
    effective = range(max(2, cls) + 1)
    n_edges = nv - 1 + genus_total
    pairs = {(h, table.inverse_of(h)) for h in menu}
    pairs |= {(b, a) for a, b in pairs}
    every = connected = 0
    for levels in itertools.product(range(min(max_levels, nv)), repeat=nv):
        if list(levels) != sorted(levels) or len(set(levels)) != levels[-1] + 1:
            continue
        vertex_tuples = sum(
            1 for classes in itertools.product(effective, repeat=nv)
            if sum(classes) == cls and all(classes[i] <= classes[i + 1] for i in range(nv - 1)
                                            if levels[i] == levels[i + 1]))
        slots = []
        for i in range(nv):
            for j in range(i, nv):
                if levels[i] == levels[j]:  # a loop's two orientations are one edge
                    slots += [(i, j, pair) for pair in pairs if i != j or pair <= pair[::-1]]
                elif levels[j] == levels[i] + 1:
                    slots += [(i, j, h, k) for h in menu for k in range(1, (cap or 0) + 1)]
        multisets = list(itertools.combinations_with_replacement(slots, n_edges))
        every += vertex_tuples * len(multisets)
        connected += vertex_tuples * sum(joins_all(nv, edges) for edges in multisets)
    return every, connected


@pytest.mark.parametrize("case", WALK_CASES + [NO_EDGES], ids=lambda c: c[0])
def test_walk_size_counted_before_the_walk(monkeypatch, case):
    """The candidate budget charges every edge multiset of every vertex tuple,
    counted in closed form before the walk: a budget one below the brute-force
    count is refused before any multiset is built or searched, and the count
    itself runs.  The walk then searches, before the first contraction, one
    tail-free code per vertex tuple and connected multiset."""
    made = Counter()
    walk, search, contractions = (graph._connected_multisets, graph._canonical_search,
                                  graph._single_contractions)

    def counted_walk(*args):
        made["walks"] += 1
        return walk(*args)

    def counted_search(code):
        if not made["contractions"]:
            made["placed" if code[2] else "bare"] += 1
        return search(code)

    def first_contractions(code):
        made["contractions"] += 1
        return contractions(code)

    monkeypatch.setattr(graph, "_connected_multisets", counted_walk)
    monkeypatch.setattr(graph, "_canonical_search", counted_search)
    monkeypatch.setattr(graph, "_single_contractions", first_contractions)
    args = walk_inputs(case)
    multisets, connected = brute_bottom_multisets(case)
    monkeypatch.setattr(graph, "_CANDIDATE_BUDGET", multisets - 1)
    with pytest.raises(ResourceLimitError, match="candidate budget"):
        stratification_poset(*args)
    assert made == Counter()
    monkeypatch.setattr(graph, "_CANDIDATE_BUDGET", multisets)
    stratification_poset(*args)
    assert made["bare"] == connected


@pytest.mark.parametrize("case", WALK_CASES, ids=lambda c: c[0])
def test_placements_counted_before_the_search(monkeypatch, case):
    """The placement budget charges distinct tail-free codes times tail
    placements: a budget one below that is refused before any tailed code is
    searched, and the charge itself runs.  Only the placements on codes with
    a tie between two vertices' keys are searched."""
    made = Counter()
    bare = set()
    search, contractions = graph._canonical_search, graph._single_contractions

    def counted_search(code):
        found = search(code)
        if not made["contractions"]:
            if code[2]:
                made["placed"] += 1
            else:
                bare.add(found[0])
        return found

    def first_contractions(code):
        made["contractions"] += 1
        return contractions(code)

    monkeypatch.setattr(graph, "_canonical_search", counted_search)
    monkeypatch.setattr(graph, "_single_contractions", first_contractions)
    args = walk_inputs(case)
    stratification_poset(*args)
    per_code = args[5].max_vertices ** len(args[2])
    charge = len(bare) * per_code
    searched = sum(has_tie(graph._decode(code)) for code in bare) * per_code
    assert made["placed"] == searched
    made.clear()
    monkeypatch.setattr(graph, "_PLACEMENT_BUDGET", charge - 1)
    with pytest.raises(ResourceLimitError, match="placement budget"):
        stratification_poset(*args)
    assert made["placed"] == 0
    monkeypatch.setattr(graph, "_PLACEMENT_BUDGET", charge)
    stratification_poset(*args)
    assert made["placed"] == searched


def placements(g, tails):
    """g with `tails` placed on its vertices in every way, tails in list order."""
    for homes in itertools.product(range(len(g.vertices)), repeat=len(tails)):
        yield RelGraph(g.vertices, g.edges, tuple(Tail(home, t.kind, t.monodromy, t.contact)
                                                  for home, t in zip(homes, tails)))


@pytest.mark.parametrize("case", WALK_CASES, ids=lambda c: c[0])
def test_rigid_placements_are_canonical(case):
    """On a bottom tail-free graph with no tie between two vertices' keys,
    every tail placement is its own canonical form; on every bottom graph the
    walk's placement step returns each placement's search result."""
    args = walk_inputs(case)
    rigid = 0
    for g in bottom_tail_free(stratification_poset(*args), args[5].max_vertices):
        placed = [graph._as_code(p) for p in placements(g, args[2])]
        searched = [graph._canonical_search(code)[0] for code in placed]
        if not has_tie(g):
            rigid += 1
            assert searched == placed
        assert list(graph._placed([graph._as_code(g)], [code[2] for code in placed])) == searched
    assert rigid


def test_a_placement_on_a_tied_graph_is_searched():
    """Twin vertices joined by an edge tie, and a tail placed on the first
    is not canonical as placed: a vertex without tails sorts first, so the
    search moves the tail to the second, and the shortcut needs the keys
    pairwise distinct."""
    twins = RelGraph((Vertex(0, (1,)), Vertex(0, (1,))), (Edge(ABSOLUTE, (0, 1)),), ())
    assert has_tie(twins) and canonical_form(twins) == twins
    placed = RelGraph(twins.vertices, twins.edges, (Tail(0, "absolute", "e"),))
    canonical = RelGraph(twins.vertices, twins.edges, (Tail(1, "absolute", "e"),))
    assert canonical_form(placed) == canonical != placed
    assert list(graph._placed([graph._as_code(twins)], [graph._as_code(placed)[2]])) == [
        graph._as_code(canonical)]


def public_covers(poset):
    """The covers recomputed through the public moves: canonical_form of every
    absolute-edge contraction and every level collapse of every node."""
    index = {encode(node): i for i, node in enumerate(poset.nodes)}
    covers = set()
    for i, node in enumerate(poset.nodes):
        moves = [contract_edge(node, j) for j, e in enumerate(node.edges) if e.kind == ABSOLUTE]
        levels = {v.level for v in node.vertices}
        moves += [contract_level(node, lv) for lv in levels if lv + 1 in levels]
        covers.update((i, index[encode(canonical_form(m))]) for m in moves)
    return tuple(sorted(covers))


def gmax_inputs(max_vertices):
    doc = load_document((DATA / "graphs.json").read_text())
    g = doc.graphs["gmax"]
    hname, cname = doc.graph_context["gmax"]
    return (graph.genus(g), graph.total_class(g), list(g.tails), doc.homology[hname],
            doc.classes[cname], PosetBounds(max_vertices=max_vertices))


@pytest.mark.parametrize("inputs", [walk_inputs(case) for case in WALK_CASES]
                         + [gmax_inputs(4), gmax_inputs(5)],
                         ids=[case[0] for case in WALK_CASES] + ["gmax_v4", "gmax_v5"])
def test_covers_match_the_public_moves(inputs):
    poset = stratification_poset(*inputs)
    assert poset.covers == public_covers(poset)


@pytest.mark.parametrize("case", [c for c in WALK_CASES if c[6] > 1], ids=lambda c: c[0])
def test_graph_objects_only_at_the_boundary(monkeypatch, case):
    """The walk and the covers run on encodings: the one-vertex graph that is
    validated and the returned nodes are the only graph objects built, and
    decoding builds each distinct vertex, edge and tail once."""
    for intern in (graph._vertex_of, graph._edge_of, graph._tail_of):
        intern.cache_clear()
    built = Counter()
    for name in ("RelGraph", "Vertex", "Edge", "Tail"):
        def counted(*args, _cls=getattr(graph, name), _name=name, **kwargs):
            built[_name] += 1
            return _cls(*args, **kwargs)
        monkeypatch.setattr(graph, name, counted)
    args = walk_inputs(case)
    poset = stratification_poset(*args)
    monkeypatch.undo()
    assert built == Counter(
        RelGraph=1 + len(poset.nodes),
        Vertex=1 + len({v for node in poset.nodes for v in node.vertices}),
        Edge=len({e for node in poset.nodes for e in node.edges}),
        Tail=len(args[2]) + len({t for node in poset.nodes for t in node.tails}))


def all_orderings_graphs(genus_total, total_cls, tails, homology, table, bounds,
                        bottom=False):
    """Every labeled graph the library validates, walking every vertex order,
    both orientations of every absolute edge between two vertices, and every
    relative edge whichever of its ends has the lower index.  With `bottom`
    only graphs with max_vertices vertices, all of genus 0, are walked."""
    halves = {(h, table.inverse_of(h)) for h in bounds.edge_monodromies}
    halves |= {(b, a) for a, b in halves}
    lowest = bounds.max_vertices if bottom else 1
    for nv in range(lowest, bounds.max_vertices + 1):
        for levels in itertools.product(range(bounds.max_levels), repeat=nv):
            if sorted(set(levels)) != list(range(max(levels) + 1)):
                continue
            for classes in itertools.product(homology.effective, repeat=nv):
                slots = []
                for i in range(nv):
                    for j in range(i, nv):
                        if levels[i] == levels[j]:
                            slots += [Edge(ABSOLUTE, (i, j), pair) for pair in sorted(halves)]
                        elif abs(levels[j] - levels[i]) == 1:
                            ends = (i, j) if levels[i] < levels[j] else (j, i)
                            slots += [Edge(RELATIVE, ends, (h, table.inverse_of(h)),
                                           ContactOrder(k, table.order_of(h)))
                                      for h in bounds.edge_monodromies
                                      for k in range(1, (bounds.max_edge_contact_numerator
                                                         or 0) + 1)]
                edge_sets = itertools.chain.from_iterable(
                    itertools.combinations_with_replacement(slots, k)
                    for k in range(nv - 1 + genus_total if bottom else nv - 1, nv + genus_total))
                for edges in edge_sets:
                    for genera in itertools.product(range(1 if bottom else genus_total + 1),
                                                    repeat=nv):
                        vertices = tuple(Vertex(g, c, lv)
                                         for g, c, lv in zip(genera, classes, levels))
                        for homes in itertools.product(range(nv), repeat=len(tails)):
                            g = RelGraph(vertices, edges, tuple(
                                Tail(v, t.kind, t.monodromy, t.contact)
                                for v, t in zip(homes, tails)))
                            if (not validate(g, homology, table) and graph.is_connected(g)
                                    and graph.genus(g) == genus_total
                                    and graph.total_class(g) == total_cls):
                                yield g


def all_orderings_poset_codes(*args):
    """Every canonical code of a graph all_orderings_graphs walks."""
    return {graph._canonical_search(graph._as_code(g))[0] for g in all_orderings_graphs(*args)}


@pytest.mark.parametrize("genus_total,cls,mv,levels,menu,cap", [
    (0, 1, 3, 1, ("c0", "c1"), None),
    (1, 0, 2, 1, ("c0", "c1"), None),
    (1, 1, 2, 1, ("c1",), None),
    (2, 0, 2, 1, ("c1",), None),
    (0, 1, 2, 2, ("c1",), 1),
], ids=["g0_v3", "g1_v2", "g1_v2_c1", "g2_v2", "lvl2_g0_v2"])
def test_inverse_pair_menu_matches_all_orderings(genus_total, cls, mv, levels, menu, cap):
    """With a class that is not its own inverse, an edge's two orientations
    are different graphs; the sorted walk reaches all of them."""
    homology = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(0),), effective=((0,), (1,)))
    args = (genus_total, (cls,), [], homology, Z3, PosetBounds(mv, levels, menu, cap))
    poset = stratification_poset(*args)
    assert {encode(n) for n in poset.nodes} == all_orderings_poset_codes(*args)


@pytest.mark.parametrize("case", [c for c in WALK_CASES if c[0] in (
    "z2_g0_v3", "z2_g1_v2", "lvl2_g0_v3_k2", "lvl2_g1_v2_k2", "lvl2_z2_g0_v2_k2",
    "z3_lvl2_g1_v2")], ids=lambda c: c[0])
def test_tailed_walk_matches_all_orderings(case):
    """Tails placed only on the distinct tail-free graphs reach every tailed
    graph that an oracle walking every vertex order and every tail placement
    finds, tails on both levels included."""
    args = walk_inputs(case)
    poset = stratification_poset(*args)
    assert {encode(n) for n in poset.nodes} == all_orderings_poset_codes(*args)


@pytest.mark.parametrize("case", [c for c in WALK_CASES if c[0] in (
    "z2_g0_v3", "z2_g1_v2", "lvl2_g1_v2_k2", "lvl2_z2_g0_v2_k2", "z3_lvl2_g1_v2")],
    ids=lambda c: c[0])
def test_bottom_layer_mass(case):
    """The vertex relabelings of a bottom node give max_vertices! / |Aut|
    distinct labeled graphs, so the bottom layer's mass counts the labeled
    bottom graphs that an oracle walking every vertex order finds."""
    args = walk_inputs(case)
    poset = stratification_poset(*args)
    nv = args[5].max_vertices
    mass = sum(math.factorial(nv) // automorphism_order(node) for node in poset.nodes
               if len(node.vertices) == nv and not any(v.genus for v in node.vertices))
    assert mass == len({encode(g) for g in all_orderings_graphs(*args, bottom=True)})


@pytest.mark.parametrize("case", WALK_CASES, ids=lambda c: c[0])
def test_automorphism_order_is_the_search_tie_count(case):
    """automorphism_order skips the search when the tail-less vertices have
    distinct decorations or every base-key block is one vertex; on every node
    (at most 4 vertices) it is the search's count of tying relabelings and
    the brute-force count over all vertex permutations."""
    for node in stratification_poset(*walk_inputs(case)).nodes:
        order = automorphism_order(node)
        assert order == graph._canonical_search(graph._as_code(node))[1]
        assert order == brute_automorphism_count(node)


def test_automorphism_orders_pinned():
    """Every g2_v3 node with its automorphism order, recorded before the
    tail rule let automorphism_order skip the base keys."""
    poset = stratification_poset(*walk_inputs(next(c for c in WALK_CASES if c[0] == "g2_v3")))
    lines = [f"{encode(node)!r} aut={automorphism_order(node)}" for node in poset.nodes]
    assert len(lines) == 3351
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "8e897a22ba04850397ed966dc20abe5d34e4cda457f16c277af87c5d59951849")


@pytest.mark.parametrize("max_vertices,nodes,covers,digest", [
    (4, 150, 328, "550a27fd81ab741fe0dc8a3738ddf42d4e0592defc9c26008c12b74e2d084999"),
    (5, 594, 1661, "580affe5fd024f81fb27c69452f60372c6823c6043e8acea82ba346ffe4babea"),
], ids=["v4", "v5"])
def test_gmax_poset_pinned(max_vertices, nodes, covers, digest):
    """Recorded before the walk was restricted to sorted decorations."""
    doc = load_document((DATA / "graphs.json").read_text())
    g = doc.graphs["gmax"]
    hname, cname = doc.graph_context["gmax"]
    table = doc.classes[cname] if cname else MonodromyTable.trivial()
    poset = stratification_poset(
        graph.genus(g), graph.total_class(g),
        [Tail(0, t.kind, t.monodromy, t.contact) for t in g.tails],
        doc.homology[hname], table, PosetBounds(max_vertices=max_vertices))
    assert (len(poset.nodes), len(poset.covers)) == (nodes, covers)
    payload = repr(([encode(n) for n in poset.nodes], poset.covers, poset.complete))
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_default_menu_is_the_order_one_labels():
    """A class table derived from a group names its identity class c0, not e;
    the default bounds walk the same poset as the explicit menu ("c0",)."""
    table = monodromy_table(FiniteGroupTable.cyclic(2))
    homology = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),),
                             effective=((0,), (1,), (2,)))
    tails = [Tail(0, RELATIVE, "c1", ContactOrder(1, 2)),
             Tail(0, RELATIVE, "c1", ContactOrder(3, 2))]
    poset = stratification_poset(0, (2,), tails, homology, table)
    assert poset == stratification_poset(0, (2,), tails, homology, table,
                                         PosetBounds(2, 1, ("c0",)))
    assert len(poset.nodes) == 7 and not poset.complete


def test_bad_tail_sum_is_named():
    homology = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(1),), effective=((0,), (1,)))
    tails = [Tail(0, "relative", "e", ContactOrder(2, 1))]
    with pytest.raises(ValidationError, match=r"\[tail sum\]"):
        stratification_poset(0, (1,), tails, homology, bounds=PosetBounds(max_vertices=3))


def test_contraction_outside_effective_is_named():
    """Three vertices of class 1 are effective, but contracting two of them
    gives class 2, which is not."""
    homology = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(0),),
                             effective=((0,), (1,), (3,)))
    with pytest.raises(ValidationError, match="a contraction left the enumerated node set"):
        stratification_poset(0, (3,), [], homology, bounds=PosetBounds(max_vertices=3))


def test_repeated_edge_label_is_named():
    """A repeated label would list every edge slot twice."""
    with pytest.raises(ValidationError,
                       match=r"PosetBounds.edge_monodromies\[2\] repeats label 'h'"):
        PosetBounds(3, 2, ("h", "e", "h"), 2)


def test_unknown_edge_label_is_named():
    """A menu label missing from the class table names its menu position."""
    homology = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(0),), effective=((0,), (1,)))
    table = monodromy_table(FiniteGroupTable.cyclic(2))
    with pytest.raises(ValidationError,
                       match=r"^PosetBounds.edge_monodromies\[1\]: unknown monodromy class 'e'$"):
        stratification_poset(0, (1,), [], homology, table,
                             PosetBounds(2, edge_monodromies=("c0", "e")))


@pytest.mark.parametrize("kwargs,field", [
    ({"max_vertices": 0}, "max_vertices"),
    ({"max_vertices": -3}, "max_vertices"),
    ({"max_vertices": 2, "max_levels": 0}, "max_levels"),
    ({"max_vertices": 2, "max_levels": 2, "max_edge_contact_numerator": 0},
     "max_edge_contact_numerator"),
])
def test_bound_below_one_is_named(kwargs, field):
    """A cap below 1 walks nothing; it is refused before any walk starts."""
    with pytest.raises(ValidationError, match=f"PosetBounds.{field} must be at least 1"):
        PosetBounds(**kwargs)


@pytest.mark.parametrize("menu", [(), ("e",)], ids=["no-edge", "e"])
@pytest.mark.parametrize("max_levels", [1, 2])
@pytest.mark.parametrize("max_vertices", [1, 2, 3])
def test_complete_only_without_edges(max_vertices, max_levels, menu):
    """With an edge on the menu a chain of genus-0, class-0 vertices reaches the
    vertex cap, so the poset is incomplete; without one it is the one-vertex
    graph, complete unless that graph already fills the vertex cap."""
    homology = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(0),), effective=((0,), (1,)))
    bounds = PosetBounds(max_vertices, max_levels, menu, 1 if max_levels > 1 else None)
    poset = stratification_poset(1, (1,), [Tail(0, "absolute")], homology, bounds=bounds)
    assert poset.complete == (not menu and max_vertices > 1)
    assert len(poset.nodes) == 1 or menu
