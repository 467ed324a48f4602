import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from orbidegen.contact import ContactOrder, MonodromyTable
from orbidegen.errors import ValidationError
from orbidegen.graph import (
    Diagnostic,
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
from orbidegen.graph import _as_code, _canonical_search, _decode, _key_blocks, _union_find

LINE = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),),
                     effective=((0,), (1,), (2,), (3,), (4,)))
ZFREE = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(0),),
                      effective=((0,), (1,), (2,), (3,), (4,)))
Z2DIV = MonodromyTable(orders={"e": 1, "h": 2}, inverses={"e": "e", "h": "h"})


def vertex(g=0, a=0, level=0):
    return Vertex(genus=g, cls=(a,), level=level)


def test_repeated_effective_class_named():
    # a repeat would draw every class tuple through it twice
    with pytest.raises(ValidationError, match=r"^effective\[2\] repeats class \(1,\)$"):
        HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),), effective=((0,), (1,), (1,)))


def test_effective_class_of_wrong_rank_named():
    with pytest.raises(ValidationError, match=r"^effective\[1\] class \(1, 2\) has wrong rank$"):
        HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),), effective=((0,), (1, 2)))


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

    def test_relative_tail_contact_order_mismatch(self):
        # z pairs class 1 to 1/2, so the tail sum holds and only r is off
        half = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(1, 2),), effective=((0,), (1,)))
        graph = RelGraph((vertex(a=1),), (), (Tail(0, "relative", "c1", ContactOrder(1, 2)),))
        diags = validate(graph, half, MonodromyTable.cyclic(3))
        assert list(map(str, diags)) == [
            "[contact order] tail 0: contact 1/2 has r=2, class 'c1' has order 3"]

    @pytest.mark.parametrize("graph,expected", [
        (RelGraph((vertex(g=-1),), (), ()),
         ("genus", "vertex 0", "negative genus -1")),
        (RelGraph((vertex(), vertex(level=1)), (Edge("absolute", (0, 1)),), ()),
         ("level rule", "edge 0", "absolute edge joins levels 0 and 1")),
        (RelGraph((vertex(), vertex()),
                  (Edge("absolute", (0, 1), ("e", "e"), ContactOrder(1, 1)),), ()),
         ("structure", "edge 0", "absolute edge carries a contact order")),
        (RelGraph((vertex(), vertex(level=1)), (Edge("relative", (0, 1)),), ()),
         ("structure", "edge 0", "relative edge missing a contact order")),
        (RelGraph((vertex(), vertex()), (Edge("weird", (0, 1)),), ()),
         ("structure", "edge 0", "unknown edge kind 'weird'")),
        (RelGraph((vertex(), vertex()), (Edge("absolute", (0, 1), ("q", "e")),), ()),
         ("balance", "edge 0", "unknown class label 'q'")),
        (RelGraph((vertex(),), (), (Tail(3, "absolute"),)),
         ("structure", "tail 0", "vertex index 3 out of range")),
        (RelGraph((vertex(),), (), (Tail(0, "weird"),)),
         ("structure", "tail 0", "unknown tail kind 'weird'")),
        (RelGraph((vertex(),), (), (Tail(0, "absolute", "q"),)),
         ("balance", "tail 0", "unknown class label 'q'")),
        (RelGraph((vertex(),), (), (Tail(0, "relative"),)),
         ("structure", "tail 0", "relative tail missing a contact order")),
        (RelGraph((vertex(),), (), (Tail(0, "absolute", "e", ContactOrder(1, 1)),)),
         ("structure", "tail 0", "absolute tail carries a contact order")),
        (RelGraph((vertex(), Vertex(0, (1, 5))), (Edge("absolute", (0, 1)),), ()),
         ("structure", "vertex 1", "class (1, 5) has 2 entries, homology rank is 1")),
    ], ids=["negative-genus", "absolute-edge-across-levels", "absolute-edge-contact",
            "relative-edge-no-contact", "unknown-edge-kind", "unknown-half-label",
            "tail-out-of-range", "unknown-tail-kind", "unknown-tail-label",
            "relative-tail-no-contact", "absolute-tail-contact", "class-of-wrong-rank"])
    def test_one_diagnostic_per_rule(self, graph, expected):
        assert validate(graph, ZFREE) == [Diagnostic(*expected)]

    def test_class_of_wrong_rank_is_not_summed(self):
        # neither "effective" nor a "tail sum" against a truncated class
        graph = RelGraph((Vertex(0, (2, 0)),), (),
                         (Tail(0, "relative", "e", ContactOrder(1, 1)),))
        assert validate(graph, LINE) == [Diagnostic(
            "structure", "vertex 0", "class (2, 0) has 2 entries, homology rank is 1")]


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

    def test_empty_graph_rejected(self):
        with pytest.raises(ValidationError, match="^graph has no vertices; use bullet_genus$"):
            genus(RelGraph((), (), ()))


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

    def test_empty_graph_rejected(self):
        with pytest.raises(ValidationError, match="^graph has no vertices$"):
            total_class(RelGraph((), (), ()))


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

    @pytest.mark.parametrize("index,message", [
        (99, "edge index 99 out of range"),
        (0, "edge 0 joins different levels; not contractible"),
    ], ids=["index-99", "absolute-across-levels"])
    def test_refused_edge_named(self, index, message):
        graph = RelGraph((vertex(), vertex(level=1)), (Edge("absolute", (0, 1)),), ())
        with pytest.raises(ValidationError, match=f"^{message}$"):
            contract_edge(graph, index)

    def test_tails_preserved(self):
        graph = RelGraph((vertex(a=1), vertex(a=1)),
                         (Edge("absolute", (0, 1)),),
                         (Tail(1, "relative", "e", ContactOrder(2, 1)),))
        result = contract_edge(graph, 0)
        assert result.tails[0].contact == ContactOrder(2, 1)

    def test_edge_stored_high_end_first(self):
        # edge 2 runs from vertex 2 to vertex 0: the merged pair becomes vertex
        # 0, vertices 1 and 3 follow in order, and the other edges keep their
        # order and the orientation of their ends and halves
        graph = RelGraph(
            (vertex(a=1), vertex(g=1, level=1), vertex(g=2, a=2), vertex()),
            (Edge("absolute", (3, 0)),
             Edge("relative", (1, 2), ("h", "h"), ContactOrder(1, 2)),
             Edge("absolute", (2, 0), ("c1", "c2")),
             Edge("absolute", (0, 3), ("c2", "c1"))),
            (Tail(2, "relative", "e", ContactOrder(1, 1)), Tail(3, "absolute", "e")))
        assert contract_edge(graph, 2) == RelGraph(
            (vertex(g=2, a=3), vertex(g=1, level=1), vertex()),
            (Edge("absolute", (2, 0)),
             Edge("relative", (1, 0), ("h", "h"), ContactOrder(1, 2)),
             Edge("absolute", (0, 2), ("c2", "c1"))),
            (Tail(0, "relative", "e", ContactOrder(1, 1)), Tail(2, "absolute", "e")))


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

    def test_exact_layout(self):
        # the between-edge components {0, 1}, {2}, {3, 4}, {5} become vertices
        # 0..3 in order of their least vertex; {0, 1} absorbs its cycle; the
        # other edges keep their order and the orientation of their ends and
        # halves; everything above level 0 drops by one
        graph = RelGraph(
            (vertex(g=1, a=1, level=1), vertex(a=2), vertex(level=2), vertex(g=2, a=1),
             vertex(level=1), vertex(a=3)),
            (Edge("absolute", (3, 1), ("c1", "c2")),
             Edge("relative", (4, 3), ("h", "h"), ContactOrder(1, 2)),
             Edge("relative", (2, 0), ("e", "e"), ContactOrder(2, 1)),
             Edge("relative", (1, 0), ("e", "e"), ContactOrder(1, 1)),
             Edge("relative", (0, 1), ("e", "e"), ContactOrder(1, 1)),
             Edge("absolute", (4, 4))),
            (Tail(2, "absolute", "e"), Tail(4, "relative", "e", ContactOrder(1, 1)),
             Tail(5, "absolute", "e")))
        assert contract_level(graph, 0) == RelGraph(
            (vertex(g=2, a=3), vertex(level=1), vertex(g=2, a=1), vertex(a=3)),
            (Edge("absolute", (2, 0), ("c1", "c2")),
             Edge("relative", (1, 0), ("e", "e"), ContactOrder(2, 1)),
             Edge("absolute", (2, 2))),
            (Tail(1, "absolute", "e"), Tail(2, "relative", "e", ContactOrder(1, 1)),
             Tail(3, "absolute", "e")))


def random_leveled_graph(rng: random.Random) -> RelGraph:
    """Random graph on 2 to 6 vertices over three levels, neither valid nor
    connected in general: edges between adjacent or distant levels written
    either way round, same-level edges, loops, multi-edges and tails."""
    nv = rng.randint(2, 6)
    levels = [rng.randint(0, 2) for _ in range(nv)]
    vertices = tuple(Vertex(rng.randint(0, 1), (rng.randint(0, 2),), lv) for lv in levels)
    edges = []
    for _ in range(rng.randint(1, 2 * nv)):
        a, b = rng.randrange(nv), rng.randrange(nv)
        half = rng.choice(("e", "h"))
        if levels[a] == levels[b]:
            edges.append(Edge("absolute", (a, b), (half, half)))
        else:
            edges.append(Edge("relative", (a, b), (half, half),
                              ContactOrder(rng.randint(1, 3), 1 if half == "e" else 2)))
    tails = tuple(Tail(rng.randrange(nv), rng.choice(("absolute", "relative")), "e")
                  for _ in range(rng.randint(0, 3)))
    return RelGraph(vertices, tuple(edges), tails)


def level_collapses() -> list[tuple[RelGraph, int]]:
    """Every collapsible level of 2,000 seeded random graphs that have one."""
    rng = random.Random(6060)
    cases: list[tuple[RelGraph, int]] = []
    graphs = 0
    while graphs < 2000:
        graph = random_leveled_graph(rng)
        levels = {v.level for v in graph.vertices}
        collapsible = [lv for lv in sorted(levels) if lv + 1 in levels]
        if collapsible:
            graphs += 1
            cases += [(graph, lv) for lv in collapsible]
    return cases


# sha256 over repr(contract_level(g, lv)) for every case of level_collapses(),
# recorded before contract_level moved onto encodings
LEVEL_COLLAPSE_DIGEST = "3ab2413df0e973687ea05ccb5a09e869af327facf730925b4866b19a00cbca89"


def test_contract_level_pinned():
    digest = hashlib.sha256()
    cases = level_collapses()
    for graph, lv in cases:
        digest.update(repr(contract_level(graph, lv)).encode())
    assert len(cases) == 3120
    assert digest.hexdigest() == LEVEL_COLLAPSE_DIGEST


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

    def test_empty_graph(self):
        empty = RelGraph((), (), ())
        assert automorphism_order(empty) == 1 and canonical_form(empty) == empty

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

    def test_absolute_edges(self):
        graph = RelGraph((vertex(), vertex()),
                         (Edge("absolute", (0, 1)), Edge("absolute", (0, 1), ("h", "h"))), ())
        lines = to_dot(graph).splitlines()
        assert "  v0 -- v1;" in lines
        assert '  v0 -- v1 [label="(h)"];' in lines


class TestResourceCaps:
    def test_automorphism_vertex_cap(self):
        big = RelGraph(tuple(vertex() for _ in range(13)),
                       tuple(Edge("absolute", (i, i + 1)) for i in range(12)), ())
        from orbidegen.errors import ResourceLimitError
        with pytest.raises(ResourceLimitError):
            automorphism_order(big)

    def test_canonical_search_permutation_budget(self):
        # ten identical vertices on a cycle form one block of 10! relabelings
        cycle = RelGraph(tuple(vertex() for _ in range(10)),
                         tuple(Edge("absolute", (i, (i + 1) % 10)) for i in range(10)), ())
        from orbidegen.errors import ResourceLimitError
        with pytest.raises(ResourceLimitError, match=(
                r"^canonicalization budget exceeded \(3628800 > 2000000 permutations\)$")):
            automorphism_order(cycle)

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
        # labeled tails: a symmetry fixes every tail, so the edge whose two
        # equal ends each carry one equally decorated tail counts 1, not 2
        assert orders[:8] == [720, 12, 2, 2, 36, 12, 1, 2]
        assert sum(order > 1 for order in orders) > 60

    def test_tails_on_tied_vertices(self):
        """A symmetry fixes every tailed vertex, so only equally decorated
        tail-less vertices can move: tails on every one of a tie, on one of
        them, and on a third vertex of the same decoration beside two
        tail-less twins."""
        def graph(nv, ends, homes):
            return RelGraph(tuple(vertex() for _ in range(nv)),
                            tuple(Edge("absolute", pair) for pair in ends),
                            tuple(Tail(v, "absolute", "e") for v in homes))

        path, triangle, star = [(0, 2), (2, 1)], [(0, 1), (1, 2), (2, 0)], [(0, 1), (0, 2), (0, 3)]
        cases = [
            graph(3, triangle, [0, 1, 2]),  # every one tailed
            graph(3, path, [0, 1]),
            graph(2, [(0, 1), (0, 0), (1, 1)], [1]),  # one tailed
            graph(3, triangle, [2, 2]),  # twins beside a tailed third
            graph(3, path, [2]),
            graph(4, star, [0]),
            graph(4, star + [(1, 2)], [3]),
        ]
        orders = [automorphism_order(g) for g in cases]
        assert orders == [brute_automorphism_count(g) for g in cases]
        assert orders == [1, 1, 1, 2, 2, 6, 2]

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


def pinned_graphs() -> list[RelGraph]:
    rng = random.Random(5000)
    return oracle_graphs() + [
        (random_symmetric_graph if i % 2 else random_valid_graph)(rng) for i in range(5000)]


# sha256 over repr((canonical_form(g), encode(canonical_form(g)), automorphism_order(g)))
# for every pinned graph, recorded before canonical_form became the decoded
# least encoding
PINNED_DIGEST = "898f7f353c3e4022e1e6616b0b48f47445bb0810bebb809e473f563b8ae6ad2f"


class TestCanonicalLayout:
    def test_lower_level_first(self):
        # expand reads the two sides of a splitting off this layout
        rng = random.Random(4242)
        relative = 0
        for i in range(2000):
            graph = (random_symmetric_graph if i % 2 else random_valid_graph)(rng)
            canon = canonical_form(graph)
            levels = [v.level for v in canon.vertices]
            assert levels == sorted(levels)
            # relabeling moves a tail's vertex, never its place in the list
            assert ([(t.kind, t.monodromy, t.contact) for t in canon.tails]
                    == [(t.kind, t.monodromy, t.contact) for t in graph.tails])
            for e in canon.edges:
                if e.kind == "relative":
                    relative += 1
                    assert levels[e.ends[0]] + 1 == levels[e.ends[1]]
        assert relative > 1000


class TestCanonicalFormPinned:
    def test_digest(self):
        digest = hashlib.sha256()
        for graph in pinned_graphs():
            canon = canonical_form(graph)
            digest.update(repr((canon, encode(canon), automorphism_order(graph))).encode())
        assert digest.hexdigest() == PINNED_DIGEST

    def test_decode_inverts_encode(self):
        # a canonical graph's encode is its code, so expand's encode sort orders codes
        for graph in pinned_graphs():
            code = _canonical_search(_as_code(graph))[0]
            assert encode(_decode(code)) == code
            assert _as_code(_decode(code)) == code

    def test_encode_writes_the_lower_level_end_first(self):
        # vertex 0 sits above vertex 1, so level, not index, orients the edge
        graph = RelGraph((Vertex(0, (1,), 1), Vertex(0, (1,), 0)),
                         (Edge("relative", (0, 1), ("h", "h"), ContactOrder(1, 2)),
                          Edge("absolute", (1, 1), ("h", "e"))), ())
        assert encode(graph)[1] == (("absolute", 1, "e", 1, "h", (0, 0)),
                                    ("relative", 1, "h", 0, "h", (1, 2)))


def field_code(graph: RelGraph) -> tuple:
    """_as_code written out field by field, with no cache."""
    def contact(c):
        return (c.k, c.r) if c is not None else (0, 0)
    return (tuple((v.level, v.genus, v.cls) for v in graph.vertices),
            tuple((e.kind, e.ends[0], e.halves[0], e.ends[1], e.halves[1], contact(e.contact))
                  for e in graph.edges),
            tuple((t.vertex, t.kind, t.monodromy, contact(t.contact)) for t in graph.tails))


# two level-0 twins joined twice, each tied to a genus-1 vertex on level 1;
# edges 0, 2 and 3 carry list-valued ends or halves
LIST_PARTS = RelGraph(
    (Vertex(0, (1,), 0), Vertex(0, (1,), 0), Vertex(1, (0,), 1)),
    (Edge("absolute", [0, 1], ["e", "e"]), Edge("absolute", (1, 0), ("e", "e")),
     Edge("relative", [0, 2], ["h", "h"], ContactOrder(1, 2)),
     Edge("relative", (1, 2), ["h", "h"], ContactOrder(1, 2))),
    (Tail(2, "relative", "h", ContactOrder(1, 2)),))


class TestEncodeCaches:
    def test_matches_field_by_field_encoding(self):
        """_as_code equals the field-by-field encoding on a first call and a
        repeat, with parts shared within a graph and equal parts rebuilt."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        labels = st.sampled_from("ehk")
        contacts = st.one_of(st.none(), st.builds(ContactOrder, st.integers(1, 4),
                                                  st.integers(1, 3)))

        @st.composite
        def graphs(draw):
            nv = draw(st.integers(1, 4))
            ends = st.integers(0, nv - 1)
            vertices = tuple(Vertex(draw(st.integers(0, 2)), (draw(st.integers(0, 3)),),
                                    draw(st.integers(0, 1))) for _ in range(nv))
            edge_pool = draw(st.lists(st.builds(
                lambda kind, a, b, ha, hb, c: Edge(kind, (a, b), (ha, hb), c),
                st.sampled_from(("absolute", "relative")), ends, ends, labels, labels,
                contacts), min_size=1, max_size=4))
            tail_pool = draw(st.lists(st.builds(
                Tail, ends, st.sampled_from(("absolute", "relative")), labels, contacts),
                min_size=1, max_size=3))
            # sampling from a pool repeats one part object within a graph
            return RelGraph(vertices, tuple(draw(st.lists(st.sampled_from(edge_pool), max_size=6))),
                            tuple(draw(st.lists(st.sampled_from(tail_pool), max_size=4))))

        @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @hypothesis.given(graphs())
        def check(graph):
            expected = field_code(graph)
            assert _as_code(graph) == expected
            assert _as_code(graph) == expected
            rebuilt = RelGraph(graph.vertices, tuple(Edge(*e) for e in graph.edges),
                               tuple(Tail(*t) for t in graph.tails))
            assert _as_code(rebuilt) == expected

        check()

    def test_list_valued_parts(self):
        # values recorded before the encoders were cached; a list cannot key a
        # cache, so these parts are encoded uncached
        twins = (Vertex(0, (1,), 0), Vertex(0, (1,), 0))
        relative = (Edge("relative", (0, 2), ("h", "h"), ContactOrder(1, 2)),
                    Edge("relative", (1, 2), ("h", "h"), ContactOrder(1, 2)))
        tail = Tail(2, "relative", "h", ContactOrder(1, 2))
        code = (((0, 0, (1,)), (0, 0, (1,)), (1, 1, (0,))),
                (("absolute", 0, "e", 1, "e", (0, 0)), ("absolute", 0, "e", 1, "e", (0, 0)),
                 ("relative", 0, "h", 2, "h", (1, 2)), ("relative", 1, "h", 2, "h", (1, 2))),
                ((2, "relative", "h", (1, 2)),))
        assert _as_code(LIST_PARTS) == field_code(LIST_PARTS)
        assert encode(LIST_PARTS) == code
        assert canonical_form(LIST_PARTS) == RelGraph(
            twins + (Vertex(1, (0,), 1),), (Edge("absolute", (0, 1)),) * 2 + relative, (tail,))
        assert automorphism_order(LIST_PARTS) == 2
        assert is_connected(LIST_PARTS)
        assert contract_edge(LIST_PARTS, 0) == RelGraph(
            (Vertex(0, (2,), 0), Vertex(1, (0,), 1)),
            (Edge("absolute", (0, 0)),
             Edge("relative", (0, 1), ("h", "h"), ContactOrder(1, 2)),
             Edge("relative", (0, 1), ("h", "h"), ContactOrder(1, 2))),
            (Tail(1, "relative", "h", ContactOrder(1, 2)),))
        assert contract_level(LIST_PARTS, 0) == RelGraph(
            (Vertex(1, (2,), 0),), (Edge("absolute", (0, 0)),) * 2, (Tail(0, "relative", "h",
                                                                         ContactOrder(1, 2)),))


def random_multigraph(rng: random.Random, nv: int) -> RelGraph:
    """nv equal vertices joined by random edges, loops and multi-edges included."""
    edges = tuple(Edge("absolute", (rng.randrange(nv), rng.randrange(nv)))
                  for _ in range(rng.randint(0, 9))) if nv else ()
    return RelGraph(tuple(vertex() for _ in range(nv)), edges, ())


def union_find_components(graph: RelGraph) -> list[set[int]]:
    """The components _union_find groups, each keyed by its least vertex,
    in order of that vertex."""
    nv = len(graph.vertices)
    parent, merges = _union_find(nv, [e.ends for e in graph.edges])
    groups: dict[int, set[int]] = {}
    for v in range(nv):
        assert parent[v] <= v
        root = parent[v] = parent[parent[v]]
        groups.setdefault(root, set()).add(v)
    assert len(groups) == nv - merges and all(min(c) == r for r, c in groups.items())
    return list(groups.values())


class TestIsConnectedDifferential:
    def test_against_components_and_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31337)
        connected = 0
        for _ in range(3000):
            graph = random_multigraph(rng, rng.randint(0, 7))
            answer = is_connected(graph)
            components = union_find_components(graph)
            assert answer == (len(components) <= 1)
            connected += answer
            if graph.vertices:  # networkx has no verdict on the null graph
                multi = nx.MultiGraph()
                multi.add_nodes_from(range(len(graph.vertices)))
                multi.add_edges_from(e.ends for e in graph.edges)
                assert answer == nx.is_connected(multi)
                # components come in order of their least vertex
                expected = sorted(nx.connected_components(multi), key=min)
                assert components == expected
        assert 500 < connected < 2500


def large_graph(rng: random.Random) -> RelGraph:
    """7 to 9 vertices drawn from two decorations, joined by a spanning tree
    whose edges hang off the first two vertices (so that equal-key blocks are
    common) and up to three more edges (loops and multi-edges included), each
    edge's halves in either orientation, and up to two labeled tails."""
    palette = [Vertex(0, (0,), 0),
               Vertex(rng.randint(0, 1), (rng.randint(0, 1),), rng.randint(0, 1))]
    nv = rng.randint(7, 9)
    vertices = tuple(rng.choice(palette) for _ in range(nv))
    pairs = [(rng.randrange(min(v, 2)), v) for v in range(1, nv)]
    pairs += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 3))]
    edges = []
    for a, b in pairs:
        halves = rng.choice((("e", "e"), ("e", "e"), ("h", "k"), ("k", "h")))
        if vertices[a].level == vertices[b].level:
            edges.append(Edge("absolute", (a, b), halves))
        else:
            edges.append(Edge("relative", (a, b), halves, ContactOrder(rng.randint(1, 2), 2)))
    tails = tuple(Tail(rng.randrange(nv), "absolute", rng.choice("ehk"))
                  for _ in range(rng.randint(0, 2)))
    return RelGraph(vertices, tuple(edges), tails)


def perturbed(graph: RelGraph, rng: random.Random) -> RelGraph:
    """The graph with one tail moved, one edge's halves exchanged or one
    vertex's genus raised: sometimes isomorphic to it, mostly not."""
    vertices, edges, tails = list(graph.vertices), list(graph.edges), list(graph.tails)
    move = rng.randrange(3) if tails else rng.randrange(1, 3)
    if move == 0:
        t = rng.randrange(len(tails))
        tails[t] = Tail(rng.randrange(len(vertices)), tails[t].kind, tails[t].monodromy)
    elif move == 1:
        j = rng.randrange(len(edges))
        edges[j] = Edge(edges[j].kind, edges[j].ends, edges[j].halves[::-1], edges[j].contact)
    else:
        v = rng.randrange(len(vertices))
        vertices[v] = Vertex(vertices[v].genus + 1, vertices[v].cls, vertices[v].level)
    return RelGraph(tuple(vertices), tuple(edges), tuple(tails))


def as_multigraph(nx, graph: RelGraph):
    """A MultiGraph with a node per vertex and per edge: a vertex node is
    labeled by its decoration and its tails with their indices, an edge node
    by its kind and contact, and the two links of an edge node to its ends
    (two parallel links for a loop) by the half each end carries."""
    tails: list[list[tuple]] = [[] for _ in graph.vertices]
    for t, tail in enumerate(graph.tails):
        tails[tail.vertex].append((t, tail.kind, tail.monodromy, tail.contact))
    multi = nx.MultiGraph()
    for v, vert in enumerate(graph.vertices):
        multi.add_node(("v", v), label=(vert.level, vert.genus, vert.cls, tuple(tails[v])))
    for j, e in enumerate(graph.edges):
        multi.add_node(("e", j), label=(e.kind, e.contact))
        for end, half in zip(e.ends, e.halves):
            multi.add_edge(("e", j), ("v", end), half=half)
    return multi


class TestCanonicalFormNetworkx:
    def test_equal_forms_exactly_when_isomorphic(self):
        """Past the 6-vertex brute-force oracle: two graphs of 7 to 9
        vertices have equal canonical forms exactly when networkx finds an
        isomorphism that keeps decorations, halves and labeled tails."""
        nx = pytest.importorskip("networkx")
        iso = nx.algorithms.isomorphism
        node_match = iso.categorical_node_match("label", None)
        edge_match = iso.categorical_multiedge_match("half", None)
        rng = random.Random(20261019)
        verdicts: Counter = Counter()
        symmetric = 0
        for i in range(120):
            graph = large_graph(rng)
            symmetric += automorphism_order(graph) > 1
            other = relabel(graph if i % 3 == 0 else perturbed(graph, rng), rng)
            same = canonical_form(graph) == canonical_form(other)
            assert same == nx.is_isomorphic(as_multigraph(nx, graph), as_multigraph(nx, other),
                                            node_match=node_match, edge_match=edge_match)
            verdicts[same, i % 3 == 0] += 1
        # relabelings agree; perturbations give both verdicts
        assert verdicts[True, True] == 40 and verdicts[False, True] == 0
        assert verdicts[True, False] > 10 and verdicts[False, False] > 40
        assert symmetric > 40


def blocked_graph(rng: random.Random) -> RelGraph:
    """A graph whose equal-key vertex blocks include a 2- or 3-vertex block:
    twins hang off hubs, with loops and parallel edges drawn at random."""
    hubs = rng.randint(1, 2)
    vertices = [vertex(g=1, a=h) for h in range(hubs)]
    edges = [Edge("absolute", (0, 1))] if hubs == 2 else []
    for _ in range(rng.randint(1, 2)):
        hub, size, loop = rng.randrange(hubs), rng.randint(2, 3), rng.random() < 0.3
        for _ in range(size):
            v = len(vertices)
            vertices.append(vertex())
            edges.append(Edge("absolute", (hub, v)))
            if loop:
                edges.append(Edge("absolute", (v, v)))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randrange(len(vertices)), rng.randrange(len(vertices))
        edges.append(Edge("absolute", (a, b), ("h", "h")))
    tails = tuple(Tail(rng.randrange(len(vertices)), "absolute", "e")
                  for _ in range(rng.choice((0, 0, 1))))
    return RelGraph(tuple(vertices), tuple(edges), tails)


class TestMultiVertexBlocks:
    def test_ties_equal_brute_force_automorphisms(self):
        rng = random.Random(99)
        sizes: Counter = Counter()
        symmetric = 0
        for _ in range(150):
            graph = blocked_graph(rng)
            if len(graph.vertices) > 7:
                continue
            sizes.update(len(b) for b in _key_blocks(_as_code(graph)) if len(b) > 1)
            ties = _canonical_search(_as_code(graph))[1]
            assert ties == brute_automorphism_count(graph)
            symmetric += ties > 1
        assert sizes[2] > 20 and sizes[3] > 20 and symmetric > 50
