"""Property tests of the canonical form, edge contraction and level collapse
on graphs of up to 7 vertices, of the two shortcuts of the working form
(ordering distinct decorations without base keys, interned decoding), of the
partition count against a generating function, of the partition walk against
the count, of associativity on a generating set against the full triple
scan, of the class-draw kernel against brute force, of the basis and menu
facts that expand relies on without checking them, of side_swap on
generated scenarios, and of the smooth ledger defect.

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

from orbidegen import contact as contact_module  # noqa: E402
from orbidegen.contact import ContactOrder, _partitions, enumerate_partitions  # noqa: E402
from orbidegen.dimension import ModuliSpec, RelTerm, splitting_ledger  # noqa: E402
from orbidegen.errors import ValidationError  # noqa: E402
from orbidegen.expand import (  # noqa: E402
    AbsInsertion,
    BasisEntry,
    CRBasisZ,
    MenuEntry,
    SplittingScenario,
    expand,
    side_swap,
    term_record,
)
from orbidegen.graph import (  # noqa: E402
    Edge,
    HomologyModel,
    RelGraph,
    Tail,
    Vertex,
    _as_code,
    _canonical_search,
    _class_draws,
    _class_sums,
    _decode,
    _key_blocks,
    _placed,
    _relabel,
    automorphism_order,
    canonical_form,
    contract_edge,
    contract_level,
)
from orbidegen.inertia import FiniteGroupTable  # noqa: E402
from test_expand import (  # noqa: E402
    SMOOTH_BASIS,
    SMOOTH_MENU,
    Z2_BASIS,
    Z2_MENU,
    Z3_BASIS,
    Z3_MENU,
)
from test_inertia import s3_table, scan_verdict  # noqa: E402
from test_poset import has_tie  # noqa: E402

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
@hypothesis.given(st.one_of(graphs(), graphs(both_levels=True)))
def test_automorphism_order_is_the_search_tie_count(graph):
    assert automorphism_order(graph) == _canonical_search(_as_code(graph))[1]


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


@SETTINGS
@hypothesis.given(distinct_decoration_codes())
def test_distinct_decorations_order_like_base_keys(code):
    blocks = _key_blocks(code)
    assert all(len(block) == 1 for block in blocks)
    perm = [0] * len(blocks)
    for pos, (v,) in enumerate(blocks):
        perm[v] = pos
    assert _canonical_search(code) == (_relabel(code, perm), 1)


@st.composite
def relabeled_distinct_codes(draw) -> tuple[tuple, tuple]:
    """An encoding with pairwise distinct decorations and the same graph with
    its vertices relabeled, its edges shuffled and some edges written end to
    start, built without _relabel."""
    code = draw(distinct_decoration_codes())
    vs, es, ts = code
    perm = draw(st.permutations(range(len(vs))))
    vertices = [None] * len(vs)
    for v, image in enumerate(perm):
        vertices[image] = vs[v]
    edges = []
    for kind, a, ha, b, hb, c in draw(st.permutations(es)):
        if draw(st.booleans()):
            a, ha, b, hb = b, hb, a, ha
        edges.append((kind, perm[a], ha, perm[b], hb, c))
    tails = tuple([(perm[v], kind, m, c) for v, kind, m, c in ts])
    return code, (tuple(vertices), tuple(edges), tails)


@SETTINGS
@hypothesis.given(relabeled_distinct_codes())
def test_distinct_decorations_search_is_relabeling_invariant(pair):
    code, relabeled = pair
    best, ties = _canonical_search(code)
    assert ties == 1
    assert _canonical_search(relabeled) == (best, 1)


@SETTINGS
@hypothesis.given(st.one_of(graphs(), graphs(both_levels=True),
                            distinct_decoration_codes().map(_decode)))
def test_placement_on_a_rigid_graph_is_canonical(g):
    """A graph's tails placed on its canonical tail-free form: canonical as
    placed when no two vertices' keys tie, and the walk's placement step
    returns the search result either way."""
    bare = canonical_form(RelGraph(g.vertices, g.edges, ()))
    placed = RelGraph(bare.vertices, bare.edges, g.tails)
    code = _as_code(placed)
    if not has_tie(bare):
        assert canonical_form(placed) == placed
    assert list(_placed([_as_code(bare)], [code[2]])) == [_canonical_search(code)[0]]


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
    found = _partitions(total, orders, PARTITION_CAP)[0]
    if expected <= PARTITION_CAP:
        assert found == expected
    else:
        assert found > PARTITION_CAP


@SETTINGS
@hypothesis.given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
                  st.integers(1, 8), st.integers(1, 6), st.integers(0, 5))
def test_memoized_count_is_exact_up_to_the_cap(orders, numerator, denominator, cap):
    """With count(i, rest) memoized, and loops cut short above small caps,
    the count is still exact up to `cap` and above it past `cap`."""
    total = Fraction(numerator, denominator)
    expected = len(enumerate_partitions(total, orders))
    found = _partitions(total, orders, cap)[0]
    if expected <= cap:
        assert found == expected
    else:
        assert found > cap



WALK_CAP = 3000


@SETTINGS
@hypothesis.given(st.lists(st.integers(1, 16), min_size=1, max_size=6),
                  st.integers(1, 12), st.integers(1, 6))
def test_walk_builds_only_prefixes_that_complete(orders, numerator, denominator):
    """The walk extends a prefix only when the later slots can fill what is
    left, so it builds one contact order per distinct prefix of an output
    tuple, and as many tuples as the uncapped count says, in value order."""
    total = Fraction(numerator, denominator)
    count = _partitions(total, orders, WALK_CAP)[0]
    hypothesis.assume(count <= WALK_CAP)
    built = []

    class Counted(ContactOrder):
        __slots__ = ()

        def __new__(klass, *args):
            built.append(args)
            return super().__new__(klass, *args)

    original, contact_module.ContactOrder = contact_module.ContactOrder, Counted
    try:
        found = enumerate_partitions(total, orders)
    finally:
        contact_module.ContactOrder = original
    assert len(found) == count
    assert all(sum(o.value for o in tup) == total for tup in found)
    values = [tuple(o.value for o in tup) for tup in found]
    assert values == sorted(set(values))
    assert len(built) == len({tup[:j] for tup in found for j in range(1, len(orders) + 1)})


# (rows, identity) of the groups of order 1..6 that the tables below perturb:
# the cyclic groups, the Klein four-group and S3
GROUP_TABLES = ([(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)), 0)
                 for n in range(1, 7)]
                + [(tuple(tuple(a ^ b for b in range(4)) for a in range(4)), 0),
                   (s3_table().mul, s3_table().identity)])


@st.composite
def perturbed_tables(draw) -> tuple:
    """(rows, identity): a group table relabeled at random with up to three
    entries off the identity row and column replaced, so the unit law holds
    while inverses and associativity may fail."""
    base, identity = draw(st.sampled_from(GROUP_TABLES))
    n = len(base)
    label = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[label[a]][label[b]] = label[base[a][b]]
    e = label[identity]
    others = [x for x in range(n) if x != e]
    for _ in range(draw(st.integers(0, 3)) if others else 0):
        a, b = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        rows[a][b] = draw(st.integers(0, n - 1))
    return rows, e


@hypothesis.settings(SETTINGS, max_examples=500)
@hypothesis.given(perturbed_tables())
def test_lights_test_gives_the_triple_scan_verdict(case):
    """Associativity checked on a generating set accepts exactly the tables
    the full triple scan accepts, and names the same first failing triple."""
    rows, e = case
    try:
        FiniteGroupTable.from_rows(rows, identity=e)
        verdict = None
    except ValidationError as exc:
        verdict = str(exc)
    assert verdict == scan_verdict(rows, e)


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


def matchings(n: int):
    """Perfect matchings of range(n) as index pairs; a fixed point is paired
    with itself."""
    def pairs(order, fixed):
        rest = order[fixed:]
        return tuple((i, i) for i in order[:fixed]) + tuple(zip(rest[::2], rest[1::2]))
    return st.builds(pairs, st.permutations(range(n)), st.sampled_from(range(n % 2, n + 1, 2)))


@st.composite
def menus_and_bases(draw) -> tuple:
    """(menu, entries, duality).  The menu pairs up to four labels as inverses
    with a drawn order per pair, lists the second label of a pair or leaves it
    to the table, and half the time redraws one entry's order and inverse, so
    some menu tables are not involutive.  Up to four basis entries sit on
    labels the menu names; the duality is a perfect matching or any list of
    index pairs.  Each pair's degrees sum to 2, and the second entry of a pair
    sits on the first one's inverse in the menu or on any named label, so the
    sectors decide the sector check either way."""
    labels = draw(st.permutations("abcd"))[:draw(st.integers(1, 4))]
    menu = []
    for i, j in draw(matchings(len(labels))):
        order = draw(st.integers(1, 2))
        menu.append(MenuEntry(labels[i], order, labels[j]))
        if i != j and draw(st.booleans()):
            menu.append(MenuEntry(labels[j], order, labels[i]))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(menu) - 1))
        menu[k] = MenuEntry(menu[k].label, draw(st.integers(1, 2)), draw(st.sampled_from(labels)))
    inverses = {**{e.inverse: e.label for e in menu}, **{e.label: e.inverse for e in menu}}
    named = sorted(inverses)
    n = draw(st.integers(1, 4))
    duality = draw(st.one_of(matchings(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=n)))
    sectors = [draw(st.sampled_from(named)) for _ in range(n)]
    degrees = [Fraction(1)] * n
    for a, b in duality:
        if a != b:
            degrees[a] = Fraction(draw(st.integers(0, 2)))
            degrees[b] = 2 - degrees[a]
            sectors[b] = draw(st.one_of(st.just(inverses[sectors[a]]), st.sampled_from(named)))
    entries = tuple(BasisEntry(f"b{i}", sector, degree)
                    for i, (sector, degree) in enumerate(zip(sectors, degrees)))
    return tuple(menu), entries, tuple(duality)


@SETTINGS
@hypothesis.given(menus_and_bases())
def test_dual_label_answers_every_label_of_an_accepted_basis(case):
    _, entries, duality = case
    try:
        basis = CRBasisZ(1, entries, duality)
    except ValidationError:
        hypothesis.reject()
    for entry in entries:
        assert basis.dual_label(basis.dual_label(entry.label)) == entry.label


@SETTINGS
@hypothesis.given(menus_and_bases())
def test_supported_menu_label_has_a_supported_inverse(case):
    """The checks expand makes before it walks: an involutive menu table, every
    basis sector on it, each dual pair on mutually inverse sectors.  After
    them, a menu label with basis entries has entries on its inverse too."""
    menu, entries, duality = case
    try:
        basis = CRBasisZ(1, entries, duality)
        table = SplittingScenario(0, (), (), 0, menu, Fraction(0)).table()
        hypothesis.assume(all(entry.sector in table for entry in entries))
        basis.check_against(table)
    except ValidationError:
        hypothesis.reject()
    assert all(basis.supported_on(entry.inverse) for entry in menu
               if basis.supported_on(entry.label))


# (menu, basis, z pairing of the first class coordinate) for three divisor groups
SWAP_MENUS = [(SMOOTH_MENU, SMOOTH_BASIS, Fraction(1)), (Z2_MENU, Z2_BASIS, Fraction(1, 2)),
              (Z3_MENU, Z3_BASIS, Fraction(1, 3))]


@st.composite
def swap_cases(draw) -> tuple:
    """(scenario, basis, homology): a rank-2 target whose second class
    coordinate pairs to 0 with the divisor, so the two sides of a splitting
    can differ; genus up to 1, up to two labeled insertions, up to two nodes."""
    menu, basis, z = draw(st.sampled_from(SWAP_MENUS))
    homology = HomologyModel(rank=2, c1=(Fraction(1), Fraction(1)), z_pairing=(z, Fraction(0)),
                             effective=tuple(itertools.product(range(3), range(2))))
    a = draw(st.integers(0, 2))
    sides = st.tuples(st.just(a), st.integers(0, 1))
    scenario = SplittingScenario(
        genus=draw(st.integers(0, 1)),
        absolute=tuple(AbsInsertion(label, draw(st.integers(0, 1)))
                       for label in draw(st.lists(st.sampled_from("xy"), max_size=2))),
        class_splittings=tuple(draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=2))),
        max_nodes=draw(st.integers(0, 2)), monodromy_menu=menu, z_total=z * a)
    return scenario, basis, homology


@SETTINGS
@hypothesis.given(swap_cases())
def test_side_swap_is_an_involution(case):
    scenario, basis, homology = case
    terms = expand(scenario, basis, homology)
    twice = side_swap(side_swap(terms, basis), basis)
    assert list(map(term_record, twice)) == list(map(term_record, terms))


def smooth_spec(flavor, n, genus, c1, marks, contacts=()) -> ModuliSpec:
    rel = tuple(RelTerm(ContactOrder(c), Fraction(0)) for c in contacts)
    return ModuliSpec(flavor, n=n, genus=genus, c1A=Fraction(c1), shifts=(Fraction(0),) * marks,
                      rel=rel, zA=Fraction(sum(contacts)))


@SETTINGS
@hypothesis.given(st.integers(1, 4), st.lists(st.integers(1, 4), min_size=1, max_size=4),
                  st.tuples(st.integers(0, 3), st.integers(0, 3)),
                  st.tuples(st.integers(0, 2), st.integers(0, 2)),
                  st.tuples(st.integers(-5, 10), st.integers(-5, 10)), st.integers(-3, 3))
def test_smooth_ledger_defect_is_the_c1_offset(n, contacts, genera, marks, c1s, offset):
    """In the smooth specialization the defect is 0 exactly when the total's
    c1A is c1A(+) + c1A(-) - 2 zA; an offset in it comes back negated."""
    plus, minus = (smooth_spec("relative-smooth", n, g, c1, m, contacts)
                   for g, c1, m in zip(genera, c1s, marks))
    total = smooth_spec("absolute-smooth", n, sum(genera) + len(contacts) - 1,
                        sum(c1s) - 2 * sum(contacts) + offset, sum(marks))
    ledger = splitting_ledger(plus, minus, (n - 1,) * len(contacts), total)
    assert ledger.defect == -offset
