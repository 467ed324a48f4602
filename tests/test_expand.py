import functools
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from orbidegen.contact import ContactOrder
from orbidegen import expand as expand_module
from orbidegen.errors import ResourceLimitError, ValidationError
from orbidegen.expand import (
    AbsInsertion,
    BasisEntry,
    CRBasisZ,
    MenuEntry,
    SplittingScenario,
    Term,
    enumerate_splittings,
    expand,
    gluing_bundle_report,
    gluing_degrees,
    side_swap,
    term_record,
)
from orbidegen.expand import _candidate_count, _splitting_shapes
from orbidegen.graph import (
    ABSOLUTE,
    RELATIVE,
    Edge,
    HomologyModel,
    PosetBounds,
    RelGraph,
    Tail,
    Vertex,
    add_classes,
    automorphism_order,
    bullet_genus,
    canonical_form,
    encode,
    is_connected,
    stratification_poset,
    validate,
)
from orbidegen.io import load_document

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

LINE = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),),
                     effective=((0,), (1,), (2,)))
HALFLINE = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(1, 2),),
                         effective=((0,), (1,), (2,)))

SMOOTH_BASIS = CRBasisZ(dim_z=1, entries=(
    BasisEntry("one", "e", F(0)),
    BasisEntry("mid", "e", F(1)),
    BasisEntry("pt", "e", F(2)),
), duality=((0, 2), (1, 1)))

Z2_BASIS = CRBasisZ(dim_z=1, entries=(
    BasisEntry("one", "e", F(0)),
    BasisEntry("pt", "e", F(2)),
    BasisEntry("tw", "h", F(1)),
), duality=((0, 1), (2, 2)))

SMOOTH_MENU = (MenuEntry("e", 1, "e"),)
Z2_MENU = (MenuEntry("e", 1, "e"), MenuEntry("h", 2, "h"))

THIRDLINE = HomologyModel(rank=1, c1=(F(1),), z_pairing=(F(1, 3),),
                          effective=((0,), (1,), (2,)))
Z3_BASIS = CRBasisZ(dim_z=1, entries=(
    BasisEntry("one", "e", F(0)),
    BasisEntry("pt", "e", F(2)),
    BasisEntry("tw", "w", F(2, 3)),
    BasisEntry("tw2", "w2", F(4, 3)),
), duality=((0, 1), (2, 3)))
Z3_MENU = (MenuEntry("e", 1, "e"), MenuEntry("w", 3, "w2"), MenuEntry("w2", 3, "w"))


def scenario(genus=0, absolute=(), splittings=(((2,), (2,)),), max_nodes=1,
             menu=SMOOTH_MENU, z_total=F(2)):
    return SplittingScenario(genus=genus, absolute=tuple(absolute),
                             class_splittings=tuple(splittings),
                             max_nodes=max_nodes, monodromy_menu=menu,
                             z_total=F(z_total))


class TestGluingDegrees:
    def test_paper_product(self):
        kappa, ell = gluing_degrees([ContactOrder(2), ContactOrder(3)])
        assert kappa == 6 and ell == 6

    def test_single_orbifold_node(self):
        kappa, ell = gluing_degrees([ContactOrder(1, 2)])
        assert kappa == 1 and ell == F(1, 2)

    def test_rational_product(self):
        kappa, ell = gluing_degrees([ContactOrder(1, 2), ContactOrder(3, 2)])
        assert kappa == 3 and ell == F(3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            gluing_degrees([])


class TestGluingBundleReport:
    def test_exponents(self):
        report = gluing_bundle_report([ContactOrder(2), ContactOrder(3)])
        assert report.exponents == (3, 2) and report.kappa == 6

    def test_single_node(self):
        assert gluing_bundle_report([ContactOrder(4)]).exponents == (1,)

    def test_quotient_and_ell(self):
        report = gluing_bundle_report([ContactOrder(2, 2), ContactOrder(2, 1)])
        assert report.quotient_order == 2 and report.ell == 2

    def test_ell_consistent_with_degrees(self):
        orders = [ContactOrder(3, 2), ContactOrder(2, 3), ContactOrder(5, 1)]
        report = gluing_bundle_report(orders)
        assert report.ell == gluing_degrees(orders)[1]
        assert all(isinstance(e, int) and e > 0 for e in report.exponents)


class TestEnumerateSplittings:
    def test_zero_node_degeneration(self):
        sc = scenario(genus=1, splittings=(((0,), (0,)),), max_nodes=0, z_total=0)
        ms = enumerate_splittings(sc, LINE)
        # the class can only sit entirely on one side; genus-1 single vertex
        assert len(ms) == 2
        for m in ms:
            assert m.contacts == ()
            assert not (m.gamma_plus.vertices and m.gamma_minus.vertices)

    def test_one_node_forced(self):
        ms = enumerate_splittings(scenario(), LINE)
        assert len(ms) == 1
        matching = ms[0]
        assert matching.contacts == (ContactOrder(2, 1),)
        assert len(matching.gamma_plus.vertices) == 1
        assert len(matching.gamma_minus.vertices) == 1

    def test_sides_are_valid_relative_graphs(self):
        sc = scenario(max_nodes=2)
        for m in enumerate_splittings(sc, LINE):
            assert validate(m.gamma_plus, LINE, sc.table()) == []
            assert validate(m.gamma_minus, LINE, sc.table()) == []

    def test_z3_sides_read_off_the_glued_graph(self):
        # w and w2 are not self-inverse, so the two sides' node halves differ
        sc, _, homology = pinned_term_cases()[-1]
        inverse = sc.table().inverse_of
        ms = enumerate_splittings(sc, homology)
        assert ms
        for m in ms:
            minus_halves = tuple(map(inverse, m.monodromies))
            for side, halves in ((m.gamma_plus, m.monodromies), (m.gamma_minus, minus_halves)):
                assert all(v.level == 0 for v in side.vertices)
                assert all(0 <= t.vertex < len(side.vertices) for t in side.tails)
                relative = [t for t in side.tails if t.kind == RELATIVE]
                assert tuple(t.monodromy for t in relative) == halves
                assert tuple(t.contact for t in relative) == m.contacts
            absolute = [t.monodromy for side in (m.gamma_plus, m.gamma_minus)
                        for t in side.tails if t.kind == ABSOLUTE]
            assert sorted(absolute) == sorted(i.label for i in sc.absolute)

    def test_bullet_genus_gluing(self):
        sc = scenario(genus=1, max_nodes=2)
        ms = enumerate_splittings(sc, LINE)
        assert ms
        for m in ms:
            n = len(m.contacts)
            assert (bullet_genus(m.gamma_plus) + bullet_genus(m.gamma_minus)
                    + n - 1 == sc.genus)

    def test_smooth_two_node_count_vs_oracle(self):
        # zA=2 smooth: partitions {(2)} with 1 node and {(1,1)} with 2 nodes.
        sc = scenario(genus=0, max_nodes=2)
        ms = enumerate_splittings(sc, LINE)
        # oracle over shapes: 1 node -> one V(1,1) shape;
        # 2 nodes, genus 0 -> trees on 3 vertices: V(2,1) and V(1,2), each with
        # + side classes {(0),(2)} or {(1),(1)} summing to 2: 2 + 2 = 4
        assert len(ms) == 1 + 4

    def test_z2_partitions_drive_node_counts(self):
        # orders (2): total 1 over halves: partitions {(1)} via e and
        # {(1/2,1/2)} via h-h
        sc = SplittingScenario(
            genus=0, absolute=(),
            class_splittings=(((2,), (2,)),),
            max_nodes=2, monodromy_menu=Z2_MENU, z_total=F(1))
        ms = enumerate_splittings(sc, HALFLINE)
        by_nodes = {}
        for m in ms:
            by_nodes.setdefault(len(m.contacts), []).append(m)
        # one node of total contact 1 (either e with 1/1 or h with 2/2);
        # two nodes forced to (1/2, 1/2) on h
        assert set(by_nodes) == {1, 2}
        for m in by_nodes[1]:
            assert m.contacts[0].value == 1
            assert (m.monodromies, m.contacts[0].r) in ((("e",), 1), (("h",), 2))
        for m in by_nodes[2]:
            assert m.monodromies == ("h", "h")
            assert {c.value for c in m.contacts} == {F(1, 2)}

    def test_deterministic_order(self):
        sc = scenario(max_nodes=2)
        first = enumerate_splittings(sc, LINE)
        second = enumerate_splittings(sc, LINE)
        assert [term_side_key(m) for m in first] == [term_side_key(m) for m in second]
        # the scenario has no absolute insertions, so glued() rebuilds the
        # graph each matching was read off
        canonical = [canonical_form(glued(m)) for m in first]
        assert canonical == sorted(canonical, key=encode)

    def test_inconsistent_splitting_rejected(self):
        sc = scenario(splittings=(((1,), (2,)),))
        with pytest.raises(ValidationError, match="pairs to"):
            enumerate_splittings(sc, LINE)


def term_side_key(matching):
    return (matching.gamma_plus, matching.gamma_minus)


class TestExpand:
    def test_zero_node_unit_coefficient(self):
        sc = scenario(genus=0, splittings=(((0,), (0,)),), max_nodes=0, z_total=0)
        terms = expand(sc, SMOOTH_BASIS, LINE)
        assert len(terms) == 2
        assert all(t.coefficient == 1 and t.labels == () for t in terms)

    def test_one_node_three_terms_coefficient_two(self):
        terms = expand(scenario(), SMOOTH_BASIS, LINE)
        assert len(terms) == 3
        assert all(t.coefficient == 2 for t in terms)
        assert sorted(t.labels[0] for t in terms) == ["mid", "one", "pt"]

    def test_duplicated_insertion_coefficient(self):
        sc = scenario(max_nodes=2)
        terms = expand(sc, SMOOTH_BASIS, LINE)
        dup = [t for t in terms
               if len(t.labels) == 2 and t.labels[0] == t.labels[1]]
        assert dup and all(t.coefficient == 2 for t in dup)
        mixed = [t for t in terms
                 if len(t.labels) == 2 and t.labels[0] != t.labels[1]]
        assert mixed and all(t.coefficient == 1 for t in mixed)

    def test_term_count_formula(self):
        # term count = sum over matchings of (support size)^(#nodes)
        for sc, homology, basis in [
            (scenario(max_nodes=2), LINE, SMOOTH_BASIS),
            (SplittingScenario(genus=0, absolute=(AbsInsertion("a", 0),),
                               class_splittings=(((2,), (2,)),), max_nodes=2,
                               monodromy_menu=SMOOTH_MENU, z_total=F(2)),
             LINE, SMOOTH_BASIS),
            (SplittingScenario(genus=0, absolute=(),
                               class_splittings=(((2,), (2,)),), max_nodes=2,
                               monodromy_menu=Z2_MENU, z_total=F(1)),
             HALFLINE, Z2_BASIS),
        ]:
            matchings = enumerate_splittings(sc, homology)
            expected = 0
            for m in matchings:
                count = 1
                for h in m.monodromies:
                    count *= len(basis.supported_on(h))
                expected += count
            assert len(expand(sc, basis, homology)) == expected

    def test_coefficients_positive_and_integral_when_smooth(self):
        sc = scenario(max_nodes=2)
        for t in expand(sc, SMOOTH_BASIS, LINE):
            assert t.coefficient > 0
            assert t.coefficient.denominator == 1

    def test_coefficient_recomputable_from_parts(self):
        from orbidegen.contact import RelInsertion, aut_order

        auts = Counter()
        for sc, basis, homology in pinned_term_cases() + [
                (roadmap_scenario(), SMOOTH_BASIS, ROADMAP_LINE)]:
            for t in expand(sc, basis, homology):
                rel_tails = [tl for tl in t.gamma_plus.tails if tl.kind == "relative"]
                ell = F(1)
                for tl in rel_tails:
                    ell *= tl.contact.value
                aut = aut_order([RelInsertion(tl.contact, tl.monodromy, lb)
                                 for tl, lb in zip(rel_tails, t.labels)])
                assert t.coefficient == ell * aut
                # and by brute force: the node permutations fixing every triple
                triples = [(tl.contact, tl.monodromy, lb) for tl, lb in zip(rel_tails, t.labels)]
                assert aut == sum(all(triples[j] == triples[p] for j, p in enumerate(perm))
                                  for perm in itertools.permutations(range(len(triples))))
                auts[aut] += 1
        # three tied nodes reach 3! on the roadmap scenario
        assert {1, 2, 6} <= set(auts)

    def test_degree_filter(self):
        sc = scenario()
        filtered = expand(sc, SMOOTH_BASIS, LINE, total_degree=F(2))
        assert [t.labels for t in filtered] == [("pt",)]

    def test_missing_support_rejected(self):
        thin = CRBasisZ(dim_z=1, entries=(
            BasisEntry("one", "e", F(0)), BasisEntry("pt", "e", F(2))),
            duality=((0, 1),))
        sc = SplittingScenario(
            genus=0, absolute=(), class_splittings=(((2,), (2,)),),
            max_nodes=1, monodromy_menu=Z2_MENU, z_total=F(1))
        with pytest.raises(ValidationError, match="no basis entries"):
            expand(sc, thin, HALFLINE)

    def test_byte_stable_serialization(self):
        sc = scenario(max_nodes=2)
        first = [term_record(t) for t in expand(sc, SMOOTH_BASIS, LINE)]
        second = [term_record(t) for t in expand(sc, SMOOTH_BASIS, LINE)]
        assert first == second == sorted(first)


class TestSideSwap:
    def test_zero_node_fixed(self):
        sc = scenario(genus=0, splittings=(((0,), (0,)),), max_nodes=0, z_total=0)
        terms = expand(sc, SMOOTH_BASIS, LINE)
        swapped = side_swap(terms, SMOOTH_BASIS)
        # the two one-sided terms exchange; the multiset is fixed
        assert sorted(term_record(t) for t in swapped) == \
            sorted(term_record(t) for t in terms)

    def test_duality_on_labels(self):
        terms = expand(scenario(), SMOOTH_BASIS, LINE)
        swapped = side_swap(terms, SMOOTH_BASIS)
        assert sorted(t.labels[0] for t in swapped) == ["mid", "one", "pt"]
        by_label = {t.labels[0] for t in terms if t.labels[0] == "one"}
        assert by_label  # 'one' appears; its swap carries 'pt'

    def test_involution(self):
        for sc, homology, basis in [
            (scenario(max_nodes=2), LINE, SMOOTH_BASIS),
            (SplittingScenario(genus=0, absolute=(),
                               class_splittings=(((2,), (2,)),), max_nodes=2,
                               monodromy_menu=Z2_MENU, z_total=F(1)),
             HALFLINE, Z2_BASIS),
        ]:
            terms = expand(sc, basis, homology)
            twice = side_swap(side_swap(terms, basis), basis)
            assert [term_record(t) for t in twice] == [term_record(t) for t in terms]

    def test_swap_matches_swapped_scenario(self):
        # asymmetric splitting: (A+, A-) = ((2),(2)) is symmetric, use insertions
        sc = SplittingScenario(
            genus=0, absolute=(AbsInsertion("a", 0),),
            class_splittings=(((2,), (2,)),), max_nodes=1,
            monodromy_menu=SMOOTH_MENU, z_total=F(2))
        terms = expand(sc, SMOOTH_BASIS, LINE)
        swapped = side_swap(terms, SMOOTH_BASIS)
        # the scenario is side-symmetric as data, so swapping must reproduce
        # the same multiset of records with coefficients intact
        assert sorted(term_record(t) for t in swapped) == \
            sorted(term_record(t) for t in terms)
        assert sorted(t.coefficient for t in swapped) == \
            sorted(t.coefficient for t in terms)

    def test_invariant_under_splitting_permutation(self):
        base = SplittingScenario(
            genus=0, absolute=(), max_nodes=1, monodromy_menu=SMOOTH_MENU,
            class_splittings=(((0,), (2,)), ((2,), (0,))), z_total=F(0))
        flipped = SplittingScenario(
            genus=0, absolute=(), max_nodes=1, monodromy_menu=SMOOTH_MENU,
            class_splittings=(((2,), (0,)), ((0,), (2,))), z_total=F(0))
        # zA must pair to 0 for these splittings: use a z=0 model
        model = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(0),),
                              effective=((0,), (1,), (2,)))
        first = [term_record(t) for t in expand(base, SMOOTH_BASIS, model)]
        second = [term_record(t) for t in expand(flipped, SMOOTH_BASIS, model)]
        assert first == second


class TestCrossModuleConsistency:
    def test_ell_matches_gluing_degrees(self):
        # the product of a term's node contact values is the l(Gamma) of
        # gluing_degrees on those contacts
        sc = SplittingScenario(
            genus=0, absolute=(), class_splittings=(((2,), (2,)),),
            max_nodes=2, monodromy_menu=Z2_MENU, z_total=F(1))
        for m in enumerate_splittings(sc, HALFLINE):
            if not m.contacts:
                continue
            _, ell = gluing_degrees(m.contacts)
            product = F(1)
            for c in m.contacts:
                product *= c.value
            assert ell == product


ZFREE = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(0),),
                      effective=((0,), (1,), (2,)))


def pinned_scenarios():
    """(scenario, homology) for every scenario above, one with insertions on
    both sides of a Z2 menu, and the scenarios of demos/data/smooth1.json."""
    z2 = dict(splittings=(((2,), (2,)),), menu=Z2_MENU, z_total=F(1))
    cases = [
        (scenario(genus=1, splittings=(((0,), (0,)),), max_nodes=0, z_total=0), LINE),
        (scenario(), LINE),
        (scenario(max_nodes=2), LINE),
        (scenario(genus=1, max_nodes=2), LINE),
        (scenario(max_nodes=2, **z2), HALFLINE),
        (scenario(absolute=(AbsInsertion("a", 0),), max_nodes=2), LINE),
        (scenario(splittings=(((0,), (2,)), ((2,), (0,))), z_total=0), ZFREE),
        (scenario(genus=1, absolute=(AbsInsertion("a", 0), AbsInsertion("b", 1)),
                  max_nodes=2, **z2), HALFLINE),
    ]
    doc = load_document((DATA / "smooth1.json").read_text())
    for name in sorted(doc.scenarios):
        cases.append((doc.scenarios[name], doc.homology[doc.scenario_context[name][0]]))
    return cases


PINNED_SPLITTINGS = "476c24937c763c9e84ccf3e882eb81c7b5b5d4eda8d1ea442bb6cf4f9be9a73e"


class TestSplittingsPinned:
    def test_digest(self):
        digest = hashlib.sha256()
        for sc, homology in pinned_scenarios():
            for m in enumerate_splittings(sc, homology):
                digest.update(repr((m.gamma_plus, m.gamma_minus,
                                    m.contacts, m.monodromies)).encode())
        assert digest.hexdigest() == PINNED_SPLITTINGS


def pinned_term_cases():
    """(scenario, basis, homology) for every pinned splitting scenario, plus
    one with insertions on both sides of a Z3 menu."""
    cases = [(sc, Z2_BASIS if sc.monodromy_menu == Z2_MENU else SMOOTH_BASIS, homology)
             for sc, homology in pinned_scenarios()]
    z3 = scenario(genus=1, absolute=(AbsInsertion("a", 0), AbsInsertion("b", 1)),
                  max_nodes=2, menu=Z3_MENU, z_total=F(2, 3))
    cases.append((z3, Z3_BASIS, THIRDLINE))
    return cases


SPLITTINGS_DIGEST = """
import hashlib
from orbidegen.expand import enumerate_splittings
from test_expand import pinned_term_cases
sc, _, homology = pinned_term_cases()[-1]
print(hashlib.sha256(repr(enumerate_splittings(sc, homology)).encode()).hexdigest())
"""


def test_splittings_independent_of_the_hash_seed():
    """The canonical glued graphs are kept in a set and read off in encode
    order, so the splittings of the Z3 case do not depend on the string-hash
    seed."""
    root = Path(__file__).resolve().parents[1]
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        done = subprocess.run([sys.executable, "-c", SPLITTINGS_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(done.stdout)
    assert digests[0] == digests[1]


# sha256 over every term_record in emitted order, recorded before term
# emission read its records off one formatter per matching
PINNED_TERMS = "b4e0ed7ffe89316573f6850cdc5471d5ffbe558cde11db873ec89993797ff393"


class TestTermsPinned:
    def test_digest(self):
        digest = hashlib.sha256()
        count = 0
        for sc, basis, homology in pinned_term_cases():
            for t in expand(sc, basis, homology):
                digest.update(term_record(t).encode() + b"\n")
                count += 1
        assert count == 760
        assert digest.hexdigest() == PINNED_TERMS


# the expand-ladder benchmark's first rung: one smooth node class, up to
# three nodes, z = 3 on both sides, effective classes 0..3
ROADMAP_LINE = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),),
                             effective=tuple((c,) for c in range(4)))


def roadmap_scenario(genus=0, insertions=2):
    return scenario(genus=genus, absolute=[AbsInsertion(label) for label in "abcd"[:insertions]],
                    splittings=(((3,), (3,)),), max_nodes=3, z_total=3)


def predicted_candidates(sc, homology):
    return _candidate_count(_splitting_shapes(sc, homology), len(sc.absolute))


class TestCandidateCount:
    def test_prediction_equals_connectivity_tests(self, monkeypatch):
        """The walk tests connectivity once per candidate it builds."""
        calls = []

        def counted(graph):
            calls.append(None)
            return is_connected(graph)

        monkeypatch.setattr(expand_module, "is_connected", counted)
        for sc, homology in pinned_scenarios() + [(roadmap_scenario(), ROADMAP_LINE)]:
            calls.clear()
            enumerate_splittings(sc, homology)
            assert len(calls) == predicted_candidates(sc, homology)
        assert len(calls) == 25316

    def test_budget_boundary(self, monkeypatch):
        sc = scenario(genus=1, absolute=(AbsInsertion("a", 0),), max_nodes=2)
        count = predicted_candidates(sc, LINE)
        monkeypatch.setattr(expand_module, "_CANDIDATE_BUDGET", count - 1)
        with pytest.raises(ResourceLimitError, match="candidate budget"):
            enumerate_splittings(sc, LINE)
        monkeypatch.setattr(expand_module, "_CANDIDATE_BUDGET", count)
        assert enumerate_splittings(sc, LINE)

    def test_oversized_scenario_refused_before_the_first_candidate(self, monkeypatch):
        sc = roadmap_scenario(genus=2, insertions=4)
        assert predicted_candidates(sc, ROADMAP_LINE) == 4_035_040

        def no_candidate(graph):
            raise AssertionError("a candidate was built")

        monkeypatch.setattr(expand_module, "is_connected", no_candidate)
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=(
                r"^splitting enumeration exceeded the candidate budget \(2000000\); a partial "
                "term sum would be wrong, tighten the scenario bounds$")):
            expand(sc, SMOOTH_BASIS, ROADMAP_LINE)
        assert time.perf_counter() - started < 1


def glued(m):
    """A matching's two sides joined at its nodes, the minus side on level 1."""
    n_plus = len(m.gamma_plus.vertices)
    vertices = m.gamma_plus.vertices + tuple(Vertex(v.genus, v.cls, 1)
                                             for v in m.gamma_minus.vertices)
    plus_ends = [t.vertex for t in m.gamma_plus.tails if t.kind == RELATIVE]
    minus_tails = [t for t in m.gamma_minus.tails if t.kind == RELATIVE]
    edges = tuple(Edge(RELATIVE, (p, n_plus + t.vertex), (h, t.monodromy), c)
                  for p, t, h, c in zip(plus_ends, minus_tails, m.monodromies, m.contacts))
    tails = tuple(Tail(shift + t.vertex, ABSOLUTE, t.monodromy)
                  for shift, side in ((0, m.gamma_plus), (n_plus, m.gamma_minus))
                  for t in side.tails if t.kind == ABSOLUTE)
    return RelGraph(vertices, edges, tails)


def splitting_mass(m):
    """v+! v-! prod_d mu_d! / (prod_e mult_e! |Aut|): mu_d counts the nodes of
    decoration d, mult_e the copies of glued edge e."""
    g = glued(m)
    labelings = (math.factorial(len(m.gamma_plus.vertices))
                 * math.factorial(len(m.gamma_minus.vertices))
                 * math.prod(map(math.factorial,
                                 Counter(zip(m.monodromies, m.contacts)).values())))
    stabiliser = (math.prod(map(math.factorial, Counter(g.edges).values()))
                  * automorphism_order(g))
    orbit, rest = divmod(labelings, stabiliser)
    assert rest == 0
    return orbit


def test_splitting_mass_counts_the_connected_candidates(monkeypatch):
    """The connected candidates that canonicalize to one matching are an orbit
    of the side relabelings and the permutations of equally decorated nodes;
    its stabiliser is a symmetry of the glued graph with any permutation of
    equal edges, so the orbits' sizes sum to the connected candidates."""
    connected = Counter()

    def counted(graph):
        joined = is_connected(graph)
        connected["candidates"] += joined
        return joined

    monkeypatch.setattr(expand_module, "is_connected", counted)
    for sc, homology in pinned_scenarios() + [(roadmap_scenario(), ROADMAP_LINE)]:
        connected.clear()
        matchings = enumerate_splittings(sc, homology)
        assert sum(map(splitting_mass, matchings)) == connected["candidates"]
    assert connected["candidates"] == 8212


def brute_force_glued(sc, homology):
    """The splitting walk's candidates built one by one: for each class
    splitting, multiset of node decorations summing to z_total, and side
    sizes (at most nodes + 1 vertices, both sides occupied when there is a
    node), every ordered class tuple realizing the splitting, genus tuple
    reaching the scenario genus, tail home and node end pair.  Plus vertices
    sit on level 0, minus vertices on level 1, and tail i is insertion i."""
    decorations = [(e.label, e.inverse, ContactOrder(k, e.order)) for e in sc.monodromy_menu
                   for k in range(1, math.floor(sc.z_total * e.order) + 1)]

    def total(classes):
        return tuple(sum(c[i] for c in classes) for i in range(homology.rank))

    for a_plus, a_minus in set(sc.class_splittings):
        for n in range(sc.max_nodes + 1):
            for nodes in itertools.combinations_with_replacement(decorations, n):
                if sum(c.value for _, _, c in nodes) != sc.z_total:
                    continue
                for v_plus, v_minus in itertools.product(range(n + 2), repeat=2):
                    if v_plus + v_minus > n + 1 or not (
                            v_plus and v_minus if n else v_plus + v_minus):
                        continue
                    n_v = v_plus + v_minus
                    pairs = list(itertools.product(range(v_plus), range(v_plus, n_v)))
                    for classes in itertools.product(homology.effective, repeat=n_v):
                        if (total(classes[:v_plus]), total(classes[v_plus:])) != (a_plus, a_minus):
                            continue
                        for genera in itertools.product(range(sc.genus + 1), repeat=n_v):
                            if sum(genera) + n - n_v + 1 != sc.genus:
                                continue
                            vertices = tuple(Vertex(g, c, int(v >= v_plus))
                                             for v, (g, c) in enumerate(zip(genera, classes)))
                            for homes in itertools.product(range(n_v), repeat=len(sc.absolute)):
                                tails = tuple(Tail(home, ABSOLUTE, insertion.label)
                                              for home, insertion in zip(homes, sc.absolute))
                                for ends in itertools.product(pairs, repeat=n):
                                    edges = tuple(Edge(RELATIVE, pair, (h, inverse), c)
                                                  for pair, (h, inverse, c) in zip(ends, nodes))
                                    yield RelGraph(vertices, edges, tails)


def brute_force_candidates(sc, homology):
    """How many candidates brute_force_glued builds."""
    return sum(1 for _ in brute_force_glued(sc, homology))


BRUTE_CASES = [
    (scenario(genus=1, absolute=(AbsInsertion("a", 0), AbsInsertion("b", 1)), max_nodes=2,
              menu=Z2_MENU, z_total=F(1)), HALFLINE),
    (scenario(genus=2, absolute=(AbsInsertion("a", 0),), max_nodes=3, menu=Z2_MENU,
              z_total=F(1)), HALFLINE),
    (scenario(genus=1, absolute=(AbsInsertion("a", 0), AbsInsertion("b", 1)), max_nodes=2,
              menu=Z3_MENU, z_total=F(2, 3)), THIRDLINE),
    (scenario(genus=0, absolute=(AbsInsertion("a", 0), AbsInsertion("b", 0),
                                 AbsInsertion("c", 0)), max_nodes=3, menu=Z3_MENU,
              z_total=F(2, 3)), THIRDLINE),
]
BRUTE_IDS = ["z2-g1-m2", "z2-g2-m1", "z3-g1-m2", "z3-g0-m3"]


@pytest.mark.parametrize("sc,homology", BRUTE_CASES, ids=BRUTE_IDS)
def test_candidate_count_matches_a_brute_force_walk(sc, homology):
    assert predicted_candidates(sc, homology) == brute_force_candidates(sc, homology) > 0


def brute_force_connected(g):
    """Whether g's vertices are joined by its edges, by a union-find of its own."""
    parent = list(range(len(g.vertices)))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in (e.ends for e in g.edges):
        parent[root(a)] = root(b)
    return len({root(v) for v in range(len(parent))}) == 1


def test_splitting_mass_counts_the_connected_brute_force_candidates():
    """The check of test_splitting_mass_counts_the_connected_candidates
    without a hook on the walk: the connected candidates are those of
    brute_force_glued that brute_force_connected joins; the roadmap rung,
    last, has 25,316 candidates and 8,212 connected."""
    for sc, homology in pinned_scenarios() + [(roadmap_scenario(), ROADMAP_LINE)]:
        joined = Counter(map(brute_force_connected, brute_force_glued(sc, homology)))
        assert sum(map(splitting_mass, enumerate_splittings(sc, homology))) == joined[True]
    assert (joined[False] + joined[True], joined[True]) == (25316, 8212)


def decorated_multigraph(nx, g, labels):
    """g as a networkx MultiGraph: a node per vertex decorated (level, genus,
    class), an edge per node edge decorated (half, half, k, r), its level-0
    half first, and each tail a pendant node decorated (index, label), the
    index of its label in `labels`."""
    multi = nx.MultiGraph()
    for v, vert in enumerate(g.vertices):
        multi.add_node(("v", v), deco=(vert.level, vert.genus, vert.cls))
    for e in g.edges:
        multi.add_edge(("v", e.ends[0]), ("v", e.ends[1]),
                       deco=(*e.halves, e.contact.k, e.contact.r))
    for tail in g.tails:
        index = labels.index(tail.monodromy)
        multi.add_node(("t", index), deco=(index, tail.monodromy))
        multi.add_edge(("t", index), ("v", tail.vertex), deco="tail")
    return multi


def splitting_classes(nx, sc, homology):
    """The connected brute-force candidates grouped by networkx isomorphism:
    {invariant: [[representative, size], ...]} and the connected count."""
    labels = [insertion.label for insertion in sc.absolute]
    classes, connected = {}, 0
    for g in brute_force_glued(sc, homology):
        multi = decorated_multigraph(nx, g, labels)
        if not nx.is_connected(multi):
            continue
        connected += 1
        bucket = classes.setdefault(invariant(multi), [])
        for entry in bucket:
            if isomorphic(entry[0], multi):
                entry[1] += 1
                break
        else:
            bucket.append([multi, 1])
    return classes, connected


def invariant(multi):
    """Each node's decoration with the sorted decorations of its links, sorted:
    equal on isomorphic graphs, so only graphs that share it are matched."""
    return repr(sorted(
        (repr(deco), sorted(repr(d["deco"]) for _, _, d in multi.edges(node, data=True)))
        for node, deco in multi.nodes(data="deco")))


def isomorphic(multi_1, multi_2):
    """Whether a MultiGraphMatcher maps one graph onto the other, keeping
    node decorations and the multiset of decorations on each node pair
    (networkx's categorical_multiedge_match compares sets)."""
    from networkx.algorithms import isomorphism

    def edge_match(parallel_1, parallel_2):
        return (sorted(repr(d["deco"]) for d in parallel_1.values())
                == sorted(repr(d["deco"]) for d in parallel_2.values()))

    return isomorphism.MultiGraphMatcher(
        multi_1, multi_2, isomorphism.categorical_node_match("deco", None),
        edge_match).is_isomorphic()


@pytest.mark.parametrize("sc,homology", BRUTE_CASES + pinned_scenarios(),
                         ids=BRUTE_IDS + [f"pinned-{i}" for i in range(len(pinned_scenarios()))])
def test_splittings_match_an_independent_oracle(sc, homology):
    """The matchings are the isomorphism classes of the connected labeled
    candidates, found by networkx without the library: one matching per
    class, its glued graph in that class and no other, and the class as
    large as its splitting mass.  Graphs with different invariants are not
    isomorphic, so a glued graph is matched only within its invariant."""
    nx = pytest.importorskip("networkx")
    labels = [insertion.label for insertion in sc.absolute]
    assert len(set(labels)) == len(labels)  # a tail's label names its index
    classes, connected = splitting_classes(nx, sc, homology)
    matchings = enumerate_splittings(sc, homology)
    assert sum(map(len, classes.values())) == len(matchings)
    owners = []
    for m in matchings:
        multi = decorated_multigraph(nx, glued(m), labels)
        key = invariant(multi)
        hits = [i for i, (representative, _) in enumerate(classes.get(key, []))
                if isomorphic(representative, multi)]
        assert len(hits) == 1
        owners.append((key, hits[0]))
        assert classes[key][hits[0]][1] == splitting_mass(m)
    assert len(set(owners)) == len(matchings)
    assert sum(size for bucket in classes.values() for _, size in bucket) == connected


def crosswalk_case(pairing, genus=0, insertions=0, max_nodes=2, menu=SMOOTH_MENU,
                   z_total=F(2), split=(2, 2)):
    """A one-splitting scenario and its homology, whose effective classes
    reach the glued class A+ + A-."""
    sc = scenario(genus=genus, absolute=[AbsInsertion(label) for label in "ab"[:insertions]],
                  splittings=(((split[0],), (split[1],)),), max_nodes=max_nodes, menu=menu,
                  z_total=z_total)
    return sc, HomologyModel(rank=1, c1=(F(3),), z_pairing=(pairing,),
                             effective=tuple((c,) for c in range(sum(split) + 1)))


ONE_SIDED_Z3_MENU = (MenuEntry("e", 1, "e"), MenuEntry("w", 3, "w2"))
# every case whose poset side takes under 1 s: smooth z = 2, z = 3, Z2 and Z3
CROSSWALK_CASES = {
    **{f"smooth-z2-g{g}-m{m}": crosswalk_case(F(1), g, m) for g in (0, 1) for m in (0, 1, 2)},
    **{f"smooth-z2-g0-m{m}-cap3": crosswalk_case(F(1), 0, m, max_nodes=3) for m in (0, 1, 2)},
    "smooth-z2-g1-m0-cap3": crosswalk_case(F(1), 1, 0, max_nodes=3),
    **{f"smooth-z3-m{m}": crosswalk_case(F(1), 0, m, max_nodes=3, z_total=F(3), split=(3, 3))
       for m in (0, 1)},
    **{f"z2-m{m}": crosswalk_case(F(1, 2), 0, m, menu=Z2_MENU, z_total=F(1)) for m in (0, 1, 2)},
    **{f"z3-m{m}": crosswalk_case(F(1, 3), 0, m, menu=Z3_MENU, z_total=F(2, 3))
       for m in (0, 1, 2)},
    **{f"z3-one-sided-m{m}": crosswalk_case(F(1, 3), 0, m, menu=ONE_SIDED_Z3_MENU,
                                            z_total=F(2, 3)) for m in (0, 1, 2)},
}


@pytest.mark.parametrize("sc,homology", CROSSWALK_CASES.values(), ids=CROSSWALK_CASES)
def test_glued_graphs_are_the_two_level_poset_nodes(sc, homology):
    """The canonical glued graphs of the splittings are the nodes of the
    glued class's poset on levels 0 and 1 whose edges are all relative, with
    contacts summing to z_total, level classes A+ and A-, and at most
    max_nodes edges.  The poset side pairs no class with the divisor (its
    one-vertex graph has no relative tail to balance one) and carries each
    insertion as an absolute tail of monodromy e, in scenario order."""
    (a_plus, a_minus), = sc.class_splittings
    position = {insertion.label: i for i, insertion in enumerate(sc.absolute)}
    glued_codes = []
    for m in enumerate_splittings(sc, homology):
        g = glued(m)
        tails = sorted(g.tails, key=lambda t: position[t.monodromy])
        g = RelGraph(g.vertices, g.edges, tuple(Tail(t.vertex, ABSOLUTE) for t in tails))
        glued_codes.append(encode(canonical_form(g)))
    assert len(set(glued_codes)) == len(glued_codes)

    top_order = max(entry.order for entry in sc.monodromy_menu)
    bounds = PosetBounds(max_vertices=sc.max_nodes + 1, max_levels=2,
                         edge_monodromies=tuple(entry.label for entry in sc.monodromy_menu),
                         max_edge_contact_numerator=math.floor(sc.z_total * top_order))
    flat = HomologyModel(homology.rank, homology.c1, (F(0),) * homology.rank, homology.effective)
    poset = stratification_poset(sc.genus, add_classes(a_plus, a_minus),
                                 [Tail(0, ABSOLUTE)] * len(sc.absolute), flat, sc.table(),
                                 bounds)

    def level_class(g, level):
        return functools.reduce(add_classes, (v.cls for v in g.vertices if v.level == level))

    two_level = {encode(g) for g in poset.nodes
                 if {v.level for v in g.vertices} == {0, 1}
                 and all(e.kind == RELATIVE for e in g.edges)
                 and sum(e.contact.value for e in g.edges) == sc.z_total
                 and (level_class(g, 0), level_class(g, 1)) == (a_plus, a_minus)
                 and len(g.edges) <= sc.max_nodes}
    assert set(glued_codes) == two_level


class TestScenarioChecks:
    @pytest.mark.parametrize("sc,basis,homology", [
        (scenario(max_nodes=2), SMOOTH_BASIS, LINE),
        (scenario(genus=1, absolute=(AbsInsertion("a", 0),), max_nodes=2, menu=Z3_MENU,
                  z_total=F(2, 3)), Z3_BASIS, THIRDLINE),
    ], ids=["smooth-z2", "z3-z2/3"])
    def test_node_count_bounded_by_z_total(self, sc, basis, homology):
        """Each node's contact is at least 1/r, so no max_nodes above
        z_total * (largest menu order) adds a term; 10**6 costs no more."""
        started = time.perf_counter()
        huge = expand(sc._replace(max_nodes=10**6), basis, homology)
        assert time.perf_counter() - started < 1
        assert huge == expand(sc, basis, homology)

    def test_wide_node_cap_refused_at_once(self):
        # z_total 1000 with a cap of 1000 nodes: the node multisets are refused
        # at three nodes, and the class tuples of the sides are only counted
        wide = HomologyModel(rank=1, c1=(F(3),), z_pairing=(F(1),),
                             effective=tuple((c,) for c in range(17)))
        sc = scenario(splittings=(((1000,), (1000,)),), max_nodes=1000, z_total=1000)
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="^partitions of 1000 into 3 slots"):
            enumerate_splittings(sc, wide)
        assert time.perf_counter() - started < 1

    def test_no_node_beyond_the_bound(self):
        # z_total 2/3 with orders up to 3 leaves room for two nodes of 1/3
        sc = scenario(max_nodes=10**6, menu=Z3_MENU, z_total=F(2, 3))
        counts = {len(m.contacts) for m in enumerate_splittings(sc, THIRDLINE)}
        assert max(counts) == 2

    @pytest.mark.parametrize("splittings,side,cls", [
        ((((2,), (2, 0)),), "-", "(2, 0)"),
        ((((2,), (2,)), ((2, 0), (2,))), "+", "(2, 0)"),
    ], ids=["minus-side", "second-splitting-plus-side"])
    def test_wrong_length_splitting_side_named(self, splittings, side, cls):
        message = (f"splitting {len(splittings) - 1} side {side} class {cls} has 2 entries, "
                   "homology rank is 1")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            enumerate_splittings(scenario(splittings=splittings), LINE)

    @pytest.mark.parametrize("field", ["genus", "max_nodes"])
    def test_negative_field_rejected(self, field):
        with pytest.raises(ValidationError, match=rf"^{field} must be non-negative, got -1$"):
            scenario(**{field: -1})

    def test_repeated_menu_label_rejected(self):
        menu = (MenuEntry("e", 1, "e"), MenuEntry("e", 2, "e"))
        with pytest.raises(ValidationError, match=r"^monodromy_menu\[1\] repeats label 'e'$"):
            scenario(menu=menu)


@pytest.mark.parametrize("build,message", [
    (lambda: CRBasisZ(1, (BasisEntry("a", "e", F(0)), BasisEntry("a", "e", F(2))), ((0, 1),)),
     "duplicate basis labels"),
    (lambda: CRBasisZ(1, SMOOTH_BASIS.entries, ((0, 2), (2, 1))),
     "duality pairs an entry twice"),
    (lambda: CRBasisZ(1, SMOOTH_BASIS.entries, ((0, 2),)),
     "duality does not cover every entry exactly once"),
    (lambda: CRBasisZ(1, (BasisEntry("one", "e", F(0)), BasisEntry("pt", "h", F(2))),
                      ((0, 1),)).check_against(scenario(menu=Z2_MENU).table()),
     "dual entries 'one', 'pt' sit on sectors 'e', 'h' which are not mutually inverse"),
    (lambda: CRBasisZ(1, (BasisEntry("one", "e", F(0)), BasisEntry("pt", "e", F(3))),
                      ((0, 1),)).check_against(scenario().table()),
     "dual entries 'one', 'pt' have degrees summing to 3, expected 2"),
    (lambda: SMOOTH_BASIS.index_of("q"), "unknown basis label 'q'"),
], ids=["duplicate-labels", "pairs-twice", "uncovered-entry", "sectors-not-inverse",
        "degrees-off", "unknown-label"])
def test_basis_message(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message
