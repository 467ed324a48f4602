import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from orbidegen.contact import ContactOrder, MonodromyTable
from orbidegen.errors import ValidationError
from orbidegen.graph import (
    Edge,
    HomologyModel,
    PosetBounds,
    RelGraph,
    Tail,
    Vertex,
    automorphism_order,
    bullet_genus,
    canonical_form,
    contract_edge,
    contract_level,
    encode,
    genus,
    is_connected,
    stratification_poset,
    to_dot,
    total_class,
    validate,
)

LINE = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),),
                     effective=((0,), (1,), (2,), (3,), (4,)))
ZFREE = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(0),),
                      effective=((0,), (1,), (2,), (3,), (4,)))
Z2DIV = MonodromyTable(orders={"e": 1, "h": 2}, inverses={"e": "e", "h": "h"})


def vertex(g=0, a=0, level=0):
    return Vertex(genus=g, cls=(a,), level=level)


class TestValidate:
    def test_single_vertex_with_tail(self):
        graph = RelGraph((vertex(a=2),), (),
                         (Tail(0, "relative", "e", ContactOrder(2, 1)),))
        assert validate(graph, LINE) == []

    def test_level_rule_violation(self):
        graph = RelGraph((vertex(), vertex()),
                         (Edge("relative", (0, 1), ("e", "e"), ContactOrder(1, 1)),), ())
        rules = [d.rule for d in validate(graph, ZFREE)]
        assert "level rule" in rules

    def test_balance_violation(self):
        table = MonodromyTable.cyclic(3)
        graph = RelGraph((vertex(), vertex(level=1)),
                         (Edge("relative", (0, 1), ("c1", "c1"), ContactOrder(1, 3)),), ())
        diags = validate(graph, ZFREE, table)
        assert any(d.rule == "balance" and "edge 0" in d.element for d in diags)

    def test_tail_sum_violation(self):
        graph = RelGraph((vertex(a=2),), (),
                         (Tail(0, "relative", "e", ContactOrder(1, 1)),))
        diags = validate(graph, LINE)
        assert any(d.rule == "tail sum" for d in diags)

    def test_effective_violation(self):
        small = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(0),), effective=((0,),))
        graph = RelGraph((vertex(a=1),), (), ())
        diags = validate(graph, small)
        assert any(d.rule == "effective" and "vertex 0" in d.element for d in diags)

    def test_contact_order_mismatch(self):
        graph = RelGraph((vertex(), vertex(level=1)),
                         (Edge("relative", (0, 1), ("h", "h"), ContactOrder(1, 1)),), ())
        diags = validate(graph, ZFREE, Z2DIV)
        assert any(d.rule == "contact order" for d in diags)


class TestGenus:
    def test_single_vertex(self):
        assert genus(RelGraph((vertex(g=2),), (), ())) == 2

    def test_tree_of_two(self):
        graph = RelGraph((vertex(g=1), vertex(g=1)), (Edge("absolute", (0, 1)),), ())
        assert genus(graph) == 2

    def test_parallel_edges_cycle(self):
        graph = RelGraph((vertex(), vertex()),
                         (Edge("absolute", (0, 1)), Edge("absolute", (0, 1))), ())
        assert genus(graph) == 1

    def test_disconnected_rejected(self):
        graph = RelGraph((vertex(), vertex()), (), ())
        with pytest.raises(ValidationError, match="bullet_genus"):
            genus(graph)


class TestBulletGenus:
    def test_single_component(self):
        assert bullet_genus(RelGraph((vertex(g=3),), (), ())) == 3

    def test_two_rational_components(self):
        assert bullet_genus(RelGraph((vertex(), vertex()), (), ())) == -1

    def test_mixed_components(self):
        graph = RelGraph((vertex(g=1), vertex(g=2)), (), ())
        assert bullet_genus(graph) == 2

    def test_empty_graph_convention(self):
        # the convention that makes one-sided gluings genus-additive
        assert bullet_genus(RelGraph((), (), ())) == 1


class TestTotalClass:
    def test_sum(self):
        graph = RelGraph((vertex(a=1), vertex(a=2)), (Edge("absolute", (0, 1)),), ())
        assert total_class(graph) == (3,)

    def test_zero(self):
        assert total_class(RelGraph((vertex(), vertex()), (), ())) == (0,)


class TestContractEdge:
    def test_merge_rule(self):
        graph = RelGraph((vertex(g=1, a=1), vertex(g=1, a=2)),
                         (Edge("absolute", (0, 1)),), ())
        merged = contract_edge(graph, 0)
        assert merged.vertices == (Vertex(2, (3,), 0),)

    def test_self_loop_increments_genus(self):
        graph = RelGraph((vertex(),), (Edge("absolute", (0, 0)),), ())
        assert contract_edge(graph, 0).vertices[0].genus == 1

    def test_parallel_edge_leaves_loop(self):
        graph = RelGraph((vertex(), vertex()),
                         (Edge("absolute", (0, 1)), Edge("absolute", (0, 1))), ())
        result = contract_edge(graph, 0)
        assert len(result.vertices) == 1 and result.edges[0].is_loop()

    def test_relative_edge_refused(self):
        graph = RelGraph((vertex(), vertex(level=1)),
                         (Edge("relative", (0, 1), ("e", "e"), ContactOrder(1, 1)),), ())
        with pytest.raises(ValidationError, match="level collapse"):
            contract_edge(graph, 0)

    def test_tails_preserved(self):
        graph = RelGraph((vertex(a=1), vertex(a=1)),
                         (Edge("absolute", (0, 1)),),
                         (Tail(1, "relative", "e", ContactOrder(2, 1)),))
        result = contract_edge(graph, 0)
        assert result.tails[0].contact == ContactOrder(2, 1)


class TestContractLevel:
    def test_one_relative_edge(self):
        graph = RelGraph((vertex(g=0, a=1), vertex(g=1, a=1, level=1)),
                         (Edge("relative", (0, 1), ("e", "e"), ContactOrder(1, 1)),),
                         (Tail(0, "relative", "e", ContactOrder(2, 1)),))
        merged = contract_level(graph, 0)
        assert merged.vertices == (Vertex(1, (2,), 0),)
        assert merged.tails[0].contact == ContactOrder(2, 1)

    def test_two_relative_edges_absorb_cycle(self):
        graph = RelGraph((vertex(), vertex(level=1)),
                         (Edge("relative", (0, 1), ("e", "e"), ContactOrder(1, 1)),
                          Edge("relative", (0, 1), ("e", "e"), ContactOrder(1, 1))), ())
        merged = contract_level(graph, 0)
        assert merged.vertices[0].genus == 1

    def test_three_level_chain_relabels(self):
        graph = RelGraph(
            (vertex(), vertex(level=1), vertex(level=2)),
            (Edge("relative", (0, 1), ("e", "e"), ContactOrder(1, 1)),
             Edge("relative", (1, 2), ("e", "e"), ContactOrder(1, 1))), ())
        merged = contract_level(graph, 0)
        assert sorted(v.level for v in merged.vertices) == [0, 1]
        assert len(merged.edges) == 1 and merged.edges[0].kind == "relative"

    def test_empty_level_rejected(self):
        graph = RelGraph((vertex(),), (), ())
        with pytest.raises(ValidationError, match="occupied"):
            contract_level(graph, 0)


class TestAutomorphisms:
    def test_single_vertex(self):
        assert automorphism_order(RelGraph((vertex(a=1),), (), ())) == 1

    def test_swap_symmetry(self):
        graph = RelGraph((vertex(), vertex()), (Edge("absolute", (0, 1)),), ())
        assert automorphism_order(graph) == 2

    def test_path_of_distinct(self):
        graph = RelGraph((vertex(a=1), vertex(a=2), vertex(a=3)),
                         (Edge("absolute", (0, 1)), Edge("absolute", (1, 2))), ())
        assert automorphism_order(graph) == 1

    def test_triangle(self):
        graph = RelGraph((vertex(), vertex(), vertex()),
                         (Edge("absolute", (0, 1)), Edge("absolute", (1, 2)),
                          Edge("absolute", (0, 2))), ())
        assert automorphism_order(graph) == 6

    def test_canonical_preserves_aut(self):
        graph = RelGraph((vertex(a=1), vertex()), (Edge("absolute", (0, 1)),), ())
        assert automorphism_order(graph) == automorphism_order(canonical_form(graph))


class TestCanonicalForm:
    def test_idempotent(self):
        graph = RelGraph((vertex(a=2), vertex(a=1)), (Edge("absolute", (0, 1)),),
                         (Tail(0, "absolute", "e"),))
        once = canonical_form(graph)
        assert canonical_form(once) == once

    def test_relabeling_invariant(self):
        g1 = RelGraph((vertex(a=2), vertex(a=1)), (Edge("absolute", (0, 1)),), ())
        g2 = RelGraph((vertex(a=1), vertex(a=2)), (Edge("absolute", (1, 0)),), ())
        assert canonical_form(g1) == canonical_form(g2)

    def test_labeled_tails_distinguish(self):
        # M_{0,4}-style distinction: {1,2|3,4} differs from {1,3|2,4}
        def split(a, b):
            tails = [None] * 4
            for i in range(4):
                tails[i] = Tail(0 if i in (a, b) else 1, "absolute", "e")
            return RelGraph((vertex(), vertex()), (Edge("absolute", (0, 1)),),
                            tuple(tails))
        assert canonical_form(split(0, 1)) != canonical_form(split(0, 2))


def random_valid_graph(rng: random.Random) -> RelGraph:
    """Random connected valid graph over LINE with levels and mixed edges."""
    n_levels = rng.randint(1, 3)
    nv = rng.randint(1, 4)
    levels = [0] + [rng.randrange(n_levels) for _ in range(nv - 1)]
    # force contiguous occupied levels starting at 0
    occupied = sorted(set(levels))
    remap = {lv: i for i, lv in enumerate(occupied)}
    levels = [remap[lv] for lv in levels]
    vertices = [Vertex(rng.randint(0, 2), (rng.randint(0, 1),), levels[i])
                for i in range(nv)]
    edges = []
    # spanning structure: attach vertex i to some earlier vertex when possible
    for i in range(1, nv):
        partners = [j for j in range(i) if abs(levels[j] - levels[i]) <= 1]
        if not partners:
            vertices[i] = Vertex(vertices[i].genus, vertices[i].cls, levels[0])
            levels[i] = levels[0]
            partners = [j for j in range(i)]
        j = rng.choice(partners)
        if levels[i] == levels[j]:
            edges.append(Edge("absolute", (j, i), ("e", "e")))
        else:
            lo, hi = (j, i) if levels[j] < levels[i] else (i, j)
            mono = rng.choice(["e", "h"])
            r = 1 if mono == "e" else 2
            edges.append(Edge("relative", (lo, hi), (mono, mono),
                              ContactOrder(rng.randint(1, 3), r)))
    # a few extra same-level edges and loops
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(nv)
        same = [j for j in range(nv) if levels[j] == levels[i]]
        j = rng.choice(same)
        edges.append(Edge("absolute", (min(i, j), max(i, j)), ("e", "e")))
    total = sum(v.cls[0] for v in vertices)
    tails = []
    z_total = total  # z_pairing is (1,)
    if z_total > 0:
        split = rng.randint(1, z_total)
        tails.append(Tail(rng.randrange(nv), "relative", "e", ContactOrder(split, 1)))
        if z_total - split > 0:
            tails.append(Tail(rng.randrange(nv), "relative", "e",
                              ContactOrder(z_total - split, 1)))
    if rng.random() < 0.5:
        tails.append(Tail(rng.randrange(nv), "absolute", "e"))
    graph = RelGraph(tuple(vertices), tuple(edges), tuple(tails))
    assert validate(graph, LINE, Z2DIV) == []
    return graph


class TestContractionInvariance:
    def test_randomized_contractions(self):
        rng = random.Random(20240811)
        done = 0
        while done < 1000:
            graph = random_valid_graph(rng)
            moves = []
            for j, e in enumerate(graph.edges):
                if e.kind == "absolute":
                    moves.append(("edge", j))
            levels = {v.level for v in graph.vertices}
            for lv in sorted(levels):
                if lv + 1 in levels:
                    moves.append(("level", lv))
            if not moves:
                continue
            kind, arg = rng.choice(moves)
            before = (genus(graph), total_class(graph))
            rel_tails_before = sorted(
                (t.monodromy, t.contact.k, t.contact.r)
                for t in graph.tails if t.kind == "relative")
            result = contract_edge(graph, arg) if kind == "edge" else contract_level(graph, arg)
            assert (genus(result), total_class(result)) == before
            assert validate(result, LINE, Z2DIV) == []
            rel_tails_after = sorted(
                (t.monodromy, t.contact.k, t.contact.r)
                for t in result.tails if t.kind == "relative")
            assert rel_tails_after == rel_tails_before
            assert len(result.edges) < len(graph.edges)
            done += 1


class TestDotExport:
    def test_byte_stable(self):
        graph = RelGraph((vertex(a=1), vertex(g=1, a=1, level=1)),
                         (Edge("relative", (0, 1), ("h", "h"), ContactOrder(1, 2)),),
                         (Tail(0, "relative", "e", ContactOrder(1, 1)),))
        first = to_dot(graph)
        assert first == to_dot(graph)
        assert 'label="g=0,A=(1),lvl=0"' in first
        assert "style=dashed" in first and "ℓ=1/2,(h)" in first


class TestResourceCaps:
    def test_automorphism_vertex_cap(self):
        big = RelGraph(tuple(vertex() for _ in range(13)),
                       tuple(Edge("absolute", (i, i + 1)) for i in range(12)), ())
        from orbidegen.errors import ResourceLimitError
        with pytest.raises(ResourceLimitError):
            automorphism_order(big)

    def test_poset_vertex_cap(self):
        from orbidegen.errors import ResourceLimitError
        with pytest.raises(ResourceLimitError):
            stratification_poset(0, (0,), [], ZFREE,
                                 bounds=PosetBounds(max_vertices=13))


def random_symmetric_graph(rng: random.Random) -> RelGraph:
    """Random graph on up to 6 vertices over few decorations, so that symmetries
    are common: loops, multi-edges, relative edges in either orientation, tails."""
    nv = rng.randint(1, 6)
    levels = [rng.randint(0, 1) for _ in range(nv)]
    vertices = tuple(Vertex(rng.choice((0, 0, 0, 1)), (0,), lv) for lv in levels)
    edges = []
    for _ in range(rng.randint(0, nv + 1)):
        a, b = rng.randrange(nv), rng.randrange(nv)
        mono = rng.choice(("e", "h"))
        if levels[a] == levels[b]:
            edges.append(Edge("absolute", (a, b), (mono, mono)))
        else:
            r = 1 if mono == "e" else 2
            edges.append(Edge("relative", (a, b), (mono, mono),
                              ContactOrder(rng.randint(1, 2), r)))
    tails = tuple(Tail(rng.randrange(nv), "absolute", rng.choice(("e", "h")))
                  for _ in range(rng.choice((0, 0, 1, 2, 3))))
    return RelGraph(vertices, tuple(edges), tails)


def symmetric_cases() -> list[RelGraph]:
    six = tuple(vertex() for _ in range(6))
    cycle = tuple(Edge("absolute", (i, (i + 1) % 6)) for i in range(6))
    bipartite = tuple(Edge("relative", (i, j), ("e", "e"), ContactOrder(1, 1))
                      for i in range(3) for j in range(3, 6))
    two_levels = tuple(vertex(level=0 if i < 3 else 1) for i in range(6))
    return [
        RelGraph(six, (), ()),
        RelGraph(six, cycle, ()),
        RelGraph(six, cycle, (Tail(0, "absolute", "e"),)),
        RelGraph(six, cycle, (Tail(0, "absolute", "e"), Tail(3, "absolute", "e"))),
        RelGraph(two_levels, bipartite, ()),
        RelGraph(two_levels, bipartite, (Tail(4, "absolute", "h"),)),
        # two equal vertices on an edge, each with one absolute tail
        RelGraph((vertex(), vertex()), (Edge("absolute", (0, 1)),),
                 (Tail(0, "absolute", "e"), Tail(1, "absolute", "e"))),
        RelGraph((vertex(), vertex()), (Edge("absolute", (0, 0)), Edge("absolute", (1, 1)),
                                        Edge("absolute", (0, 1)), Edge("absolute", (1, 0))),
                 ()),
    ]


def brute_automorphism_count(graph: RelGraph) -> int:
    """Vertex permutations that keep every vertex decoration, the multiset of
    edges (each an unordered pair of decorated half-edges) and every labeled
    tail's vertex."""
    def edges_under(sigma):
        return Counter(
            (e.kind, e.contact,
             tuple(sorted(((sigma[e.ends[0]], e.halves[0]), (sigma[e.ends[1]], e.halves[1])))))
            for e in graph.edges)

    nv = len(graph.vertices)
    edges = edges_under(range(nv))
    return sum(
        1 for sigma in itertools.permutations(range(nv))
        if all(graph.vertices[sigma[v]] == graph.vertices[v] for v in range(nv))
        and all(sigma[t.vertex] == t.vertex for t in graph.tails)
        and edges_under(sigma) == edges)


def relabel(graph: RelGraph, rng: random.Random) -> RelGraph:
    """The same graph under a random vertex relabeling, with the edges shuffled
    and each edge written in a random orientation."""
    nv = len(graph.vertices)
    perm = list(range(nv))
    rng.shuffle(perm)
    vertices = [None] * nv
    for v, image in enumerate(perm):
        vertices[image] = graph.vertices[v]
    edges = []
    for e in graph.edges:
        ends, halves = (perm[e.ends[0]], perm[e.ends[1]]), e.halves
        if rng.random() < 0.5:
            ends, halves = ends[::-1], halves[::-1]
        edges.append(Edge(e.kind, ends, halves, e.contact))
    rng.shuffle(edges)
    tails = tuple(Tail(perm[t.vertex], t.kind, t.monodromy, t.contact) for t in graph.tails)
    return RelGraph(tuple(vertices), tuple(edges), tails)


def oracle_graphs() -> list[RelGraph]:
    rng = random.Random(20261018)
    graphs = symmetric_cases()
    graphs += [random_symmetric_graph(rng) for _ in range(400)]
    graphs += [random_valid_graph(rng) for _ in range(200)]
    return graphs


class TestCanonicalSearchOracle:
    def test_automorphism_order_matches_brute_force(self):
        graphs = oracle_graphs()
        orders = [automorphism_order(g) for g in graphs]
        assert orders == [brute_automorphism_count(g) for g in graphs]
        # labeled tails: the two-tail edge counts 1, although the docstring's
        # multiset reading of tails would give 2 (an open defect)
        assert orders[:8] == [720, 12, 2, 2, 36, 12, 1, 2]
        assert sum(order > 1 for order in orders) > 60

    def test_canonical_form_idempotent_and_relabeling_invariant(self):
        rng = random.Random(7)
        for graph in oracle_graphs():
            canon = canonical_form(graph)
            assert canonical_form(canon) == canon
            assert canonical_form(relabel(graph, rng)) == canon
            assert automorphism_order(canon) == automorphism_order(graph)

    def test_same_level_relative_edge(self):
        # validate rejects it ("level rule"); both orientations still
        # canonicalize to one graph, and canonicalizing again changes nothing
        forward = RelGraph((vertex(a=1), vertex()),
                           (Edge("relative", (0, 1), ("e", "h"), ContactOrder(1, 1)),), ())
        backward = RelGraph(forward.vertices,
                            (Edge("relative", (1, 0), ("h", "e"), ContactOrder(1, 1)),), ())
        canon = canonical_form(forward)
        assert canonical_form(canon) == canon
        assert canonical_form(backward) == canon
