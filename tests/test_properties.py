"""Property tests of the canonical form, edge contraction and level collapse
on graphs of up to 7 vertices, of the two shortcuts of the working form
(ordering distinct decorations without base keys, interned decoding), of the
partition count against a generating function, and of the class-draw kernel
against brute force.

Hypothesis runs derandomized with a bounded example count, so every run
draws the same graphs and the suite stays deterministic.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import itertools  # noqa: E402
import math  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402

from orbidegen.contact import ContactOrder, _partition_count  # noqa: E402
from orbidegen.graph import (  # noqa: E402
    Edge,
    RelGraph,
    Tail,
    Vertex,
    _as_code,
    _canonical_search,
    _class_draws,
    _class_sums,
    _decode,
    _key_blocks,
    _vertex_base_keys,
    automorphism_order,
    canonical_form,
    contract_edge,
    contract_level,
)

SETTINGS = hypothesis.settings(derandomize=True, max_examples=100, deadline=None,
                               database=None)


@st.composite
def graphs(draw, both_levels: bool = False) -> RelGraph:
    """Graphs whose vertices share one or two decorations, so that equal-key
    blocks are common: two levels, loops, multi-edges, relative edges and
    labeled tails.  With `both_levels`, the first vertex sits on level 0 and
    the last on level 1."""
    nv = draw(st.integers(2 if both_levels else 1, 7))
    palette = draw(st.lists(st.builds(Vertex, st.integers(0, 1), st.just((0,)),
                                      st.integers(0, 1)), min_size=1, max_size=2))
    vertices = tuple(draw(st.sampled_from(palette)) for _ in range(nv))
    if both_levels:
        vertices = ((Vertex(vertices[0].genus, (0,), 0),) + vertices[1:-1]
                    + (Vertex(vertices[-1].genus, (0,), 1),))
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1))
        half = draw(st.sampled_from(("e", "e", "h")))
        if vertices[a].level == vertices[b].level:
            edges.append(Edge("absolute", (a, b), (half, half)))
        else:
            r = 1 if half == "e" else 2
            edges.append(Edge("relative", (a, b), (half, half),
                              ContactOrder(draw(st.integers(1, 2)), r)))
    tails = tuple(Tail(draw(st.integers(0, nv - 1)), "absolute", draw(st.sampled_from("eh")))
                  for _ in range(draw(st.integers(0, 2))))
    return RelGraph(vertices, tuple(edges), tails)


@st.composite
def relabelings(draw, both_levels: bool = False):
    """A graph and the same graph with its vertices relabeled, its edges
    shuffled and some edges written end to start."""
    graph = draw(graphs(both_levels))
    perm = draw(st.permutations(range(len(graph.vertices))))
    order = draw(st.permutations(range(len(graph.edges))))
    vertices = [None] * len(perm)
    for v, image in enumerate(perm):
        vertices[image] = graph.vertices[v]
    edges = []
    for j in order:
        e = graph.edges[j]
        ends, halves = (perm[e.ends[0]], perm[e.ends[1]]), e.halves
        if draw(st.booleans()):
            ends, halves = ends[::-1], halves[::-1]
        edges.append(Edge(e.kind, ends, halves, e.contact))
    tails = tuple(Tail(perm[t.vertex], t.kind, t.monodromy, t.contact) for t in graph.tails)
    return graph, RelGraph(tuple(vertices), tuple(edges), tails)


@SETTINGS
@hypothesis.given(graphs())
def test_canonical_form_idempotent(graph):
    canon = canonical_form(graph)
    assert canonical_form(canon) == canon
    assert automorphism_order(canon) == automorphism_order(graph)


@SETTINGS
@hypothesis.given(relabelings())
def test_canonical_form_invariant_under_relabeling(pair):
    graph, relabeled = pair
    assert canonical_form(relabeled) == canonical_form(graph)


@st.composite
def edge_contractions(draw):
    """A graph, the index of one of its absolute edges, and the graph with its
    vertices relabeled and some edges written end to start (edge order kept)."""
    graph = draw(graphs())
    absolute = [j for j, e in enumerate(graph.edges) if e.kind == "absolute"]
    hypothesis.assume(absolute)
    perm = draw(st.permutations(range(len(graph.vertices))))
    vertices = [None] * len(perm)
    for v, image in enumerate(perm):
        vertices[image] = graph.vertices[v]
    edges = []
    for e in graph.edges:
        ends, halves = (perm[e.ends[0]], perm[e.ends[1]]), e.halves
        if draw(st.booleans()):
            ends, halves = ends[::-1], halves[::-1]
        edges.append(Edge(e.kind, ends, halves, e.contact))
    tails = tuple(Tail(perm[t.vertex], t.kind, t.monodromy, t.contact) for t in graph.tails)
    return graph, draw(st.sampled_from(absolute)), RelGraph(tuple(vertices), tuple(edges), tails)


@SETTINGS
@hypothesis.given(edge_contractions())
def test_contract_edge_commutes_with_relabeling(case):
    graph, j, relabeled = case
    assert canonical_form(contract_edge(relabeled, j)) == canonical_form(contract_edge(graph, j))


@SETTINGS
@hypothesis.given(relabelings(both_levels=True))
def test_contract_level_commutes_with_relabeling(pair):
    graph, relabeled = pair
    assert canonical_form(contract_level(relabeled, 0)) == canonical_form(contract_level(graph, 0))


@st.composite
def distinct_decoration_codes(draw) -> tuple:
    """Encodings of up to 7 vertices with pairwise distinct decorations, with
    random edges (loops and multi-edges included) and labeled tails."""
    decorations = st.tuples(st.integers(0, 1), st.integers(0, 2), st.tuples(st.integers(0, 2)))
    vs = tuple(draw(st.lists(decorations, min_size=1, max_size=7, unique=True)))
    vertex = st.integers(0, len(vs) - 1)
    half = st.sampled_from("ehk")
    contact = st.sampled_from(((0, 0), (1, 1), (1, 2), (3, 2)))
    es = tuple(draw(st.lists(st.tuples(st.sampled_from(("absolute", "relative")), vertex, half,
                                       vertex, half, contact), max_size=8)))
    ts = tuple(draw(st.lists(st.tuples(vertex, st.sampled_from(("absolute", "relative")),
                                       half, contact), max_size=3)))
    return vs, es, ts


def base_key_blocks(code: tuple) -> list[list[int]]:
    """The vertices sorted by full base key and grouped into equal-key blocks."""
    keys = _vertex_base_keys(code)
    blocks: list[list[int]] = []
    for v in sorted(range(len(keys)), key=keys.__getitem__):
        if blocks and keys[blocks[-1][-1]] == keys[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return blocks


@SETTINGS
@hypothesis.given(distinct_decoration_codes())
def test_distinct_decorations_order_like_base_keys(code):
    blocks = _key_blocks(code)
    assert blocks == base_key_blocks(code)
    assert all(len(block) == 1 for block in blocks)


def decoded_field_by_field(code: tuple) -> RelGraph:
    """A fresh graph object for every vertex, edge and tail of an encoding."""
    def contact(key):
        return ContactOrder(*key) if key != (0, 0) else None

    vs, es, ts = code
    return RelGraph(tuple(Vertex(genus, cls, level) for level, genus, cls in vs),
                    tuple(Edge(kind, (a, b), (ha, hb), contact(c))
                          for kind, a, ha, b, hb, c in es),
                    tuple(Tail(v, kind, m, contact(c)) for v, kind, m, c in ts))


@SETTINGS
@hypothesis.given(st.one_of(distinct_decoration_codes(), graphs().map(_as_code)))
def test_decode_equals_the_graph_built_field_by_field(code):
    for form in (code, _canonical_search(code)[0]):
        decoded = _decode(form)
        expected = decoded_field_by_field(form)
        assert decoded == expected and hash(decoded) == hash(expected)
        assert repr(decoded) == repr(expected)
        # equal parts are one shared object
        again = _decode(form)
        assert all(a is b for a, b in zip(decoded.vertices + decoded.edges + decoded.tails,
                                          again.vertices + again.edges + again.tails))


def series_coefficient(units: int, weights: list[int]) -> int:
    """The x^units coefficient of prod_j x^w_j / (1 - x^w_j), by multiplying
    out the truncated series one factor at a time."""
    coeffs = [1] + [0] * units
    for w in weights:
        product = [0] * (units + 1)
        for degree, c in enumerate(coeffs):
            if c:
                for shifted in range(degree + w, units + 1, w):
                    product[shifted] += c
        coeffs = product
    return coeffs[units]


PARTITION_CAP = 200


@SETTINGS
@hypothesis.given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
                  st.integers(0, 40), st.integers(1, 6))
def test_partition_count_is_a_series_coefficient(orders, numerator, denominator):
    """Slot j of order r_j takes k_j >= 1 steps of w_j = lcm/r_j units, so the
    tuples summing to total are the ways to write U = total * lcm as
    sum k_j w_j: the x^U coefficient of prod_j x^w_j / (1 - x^w_j)."""
    total = Fraction(numerator, denominator)
    lcm = math.lcm(*orders)
    units = total * lcm
    expected = (series_coefficient(units.numerator, [lcm // r for r in orders])
                if units.denominator == 1 else 0)
    found = _partition_count(total, orders, PARTITION_CAP)
    if expected <= PARTITION_CAP:
        assert found == expected
    else:
        assert found > PARTITION_CAP


@st.composite
def class_draw_inputs(draw) -> tuple:
    """(total, runs, effective): a rank-1 or rank-2 effective list in drawn
    order holding the zero class and entries from -2 to 3, up to five runs
    entries (equal neighbours form a stretch), and a total that is either the
    sum of some drawn tuple or any class near the reachable range."""
    rank = draw(st.integers(1, 2))
    zero = (0,) * rank
    others = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * rank), max_size=4, unique=True))
    effective = tuple(draw(st.permutations([zero] + [c for c in others if c != zero])))
    runs = tuple(draw(st.lists(st.integers(0, 2), max_size=5)))
    picks = draw(st.lists(st.sampled_from(effective), min_size=len(runs), max_size=len(runs)))
    total = draw(st.one_of(st.just(class_sum(picks, rank)),
                           st.tuples(*[st.integers(-6, 9)] * rank)))
    return total, runs, effective


def class_sum(classes, rank: int) -> tuple[int, ...]:
    return tuple(sum(c[k] for c in classes) for k in range(rank))


def brute_force_draws(total, runs, effective) -> list[tuple]:
    """Every tuple of effective classes, one per runs entry, that sums to total
    and is non-decreasing along each stretch of equal runs entries."""
    rank = len(effective[0])
    return [t for t in itertools.product(effective, repeat=len(runs))
            if class_sum(t, rank) == total
            and all(t[i - 1] <= t[i] for i in range(1, len(runs)) if runs[i] == runs[i - 1])]


@SETTINGS
@hypothesis.given(class_draw_inputs())
def test_class_draws_are_the_brute_force_tuples_in_order(inputs):
    total, runs, effective = inputs
    assert list(_class_draws(total, runs, effective)) == brute_force_draws(total, runs, effective)


@SETTINGS
@hypothesis.given(class_draw_inputs(), st.integers(0, 4))
def test_class_sums_count_the_ordered_tuples(inputs, n):
    _, _, effective = inputs
    rank = len(effective[0])
    expected = Counter(class_sum(t, rank) for t in itertools.product(effective, repeat=n))
    assert _class_sums(effective, n) == expected
