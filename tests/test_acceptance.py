"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from orbidegen import glue
from orbidegen.contact import ContactOrder, MonodromyTable, enumerate_partitions
from orbidegen.dimension import ModuliSpec, RelTerm, splitting_ledger, virdim
from orbidegen.expand import expand, gluing_degrees, side_swap, term_record
from orbidegen.graph import (
    HomologyModel,
    PosetBounds,
    Tail,
    contract_edge,
    contract_level,
    genus,
    stratification_poset,
    total_class,
    validate,
)
from orbidegen.inertia import (
    CRProfile,
    FiniteGroupTable,
    SectorDatum,
    conjugacy_classes,
    inverse_class,
    pairing_check,
)
from orbidegen.io import load_document

from test_inertia import all_test_profiles
from test_poset import SCENARIOS as POSET_SCENARIOS
from test_poset import oracle_covers, oracle_generate

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_01_degree_shift_integrality():
    checked = 0
    ok = True
    for name, profile in all_test_profiles():
        for sector in profile.sectors:
            partner = profile.sector_of(inverse_class(profile.group, sector.cls))
            nonzero = sum(1 for t in sector.rotations if t != 0)
            ok = ok and (sector.shift + partner.shift == nonzero)
            checked += 1
    report(1, "degree-shift integrality", ok, f"{checked} classes, zero tolerance")


def test_02_pairing_shape():
    shipped = [profile for _, profile in all_test_profiles()]
    for doc_name in ("ex_z3.json", "ex_s3.json"):
        doc = load_document((DATA / doc_name).read_text())
        shipped.extend(doc.profiles.values())
    valid_ok = all(pairing_check(p).ok for p in shipped)

    corrupted = []
    z2 = FiniteGroupTable.cyclic(2)
    z2_classes = conjugacy_classes(z2)
    # asymmetric Betti table on a self-inverse sector
    corrupted.append(CRProfile(group=z2, ambient_dim=2, sectors=(
        SectorDatum(z2_classes[0], (F(0), F(0)), {0: 1, 2: 2, 4: 1}),
        SectorDatum(z2_classes[1], (F(1, 2), F(1, 2)), {0: 1, 2: 1}))))
    # asymmetric untwisted table
    corrupted.append(CRProfile(group=z2, ambient_dim=2, sectors=(
        SectorDatum(z2_classes[0], (F(0), F(0)), {0: 1, 2: 2}),
        SectorDatum(z2_classes[1], (F(1, 2), F(1, 2)), {0: 1}))))
    # inverse-pair mismatch in Z3
    z3 = FiniteGroupTable.cyclic(3)
    z3_classes = conjugacy_classes(z3)
    corrupted.append(CRProfile(group=z3, ambient_dim=2, sectors=(
        SectorDatum(z3_classes[0], (F(0), F(0)), {0: 1, 2: 2, 4: 1}),
        SectorDatum(z3_classes[1], (F(1, 3), F(2, 3)), {0: 2}),
        SectorDatum(z3_classes[2], (F(2, 3), F(1, 3)), {0: 1}))))
    located = True
    for profile in corrupted:
        rep = pairing_check(profile)
        located = located and (not rep.ok)
        located = located and all(v.sector for v in rep.violations)
    report(2, "CR pairing shape", valid_ok and located,
           f"{len(shipped)} valid profiles, 3 corrupted located")


def test_03_smooth_specialization():
    rng = random.Random(1003)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 4)
        g = rng.randint(0, 3)
        m = rng.randint(0, 3)
        k = rng.randint(1, 4)
        contacts = [rng.randint(1, 4) for _ in range(k)]
        c1 = F(rng.randint(-5, 10))
        za = F(sum(contacts))
        smooth = ModuliSpec("relative-smooth", n=n, genus=g, c1A=c1,
                            shifts=(F(0),) * m,
                            rel=tuple(RelTerm(ContactOrder(c)) for c in contacts),
                            zA=za)
        orb = ModuliSpec("relative-orbifold", n=n, genus=g, c1A=c1,
                         shifts=(F(0),) * m,
                         rel=tuple(RelTerm(ContactOrder(c)) for c in contacts),
                         zA=za)
        ok = ok and virdim(orb) == virdim(smooth)
    report(3, "smooth specialization of the relative dimension formula", ok,
           "500 random specs, exact equality")


def test_04_dimension_conservation():
    rng = random.Random(1004)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        contacts = [rng.randint(1, 3) for _ in range(k)]
        za = F(sum(contacts))
        gp, gm = rng.randint(0, 3), rng.randint(0, 3)
        mp, mm = rng.randint(0, 2), rng.randint(0, 2)
        c1p, c1m = F(rng.randint(-4, 8)), F(rng.randint(-4, 8))
        rel = tuple(RelTerm(ContactOrder(c)) for c in contacts)
        plus = ModuliSpec("relative-smooth", n=n, genus=gp, c1A=c1p,
                          shifts=(F(0),) * mp, rel=rel, zA=za)
        minus = ModuliSpec("relative-smooth", n=n, genus=gm, c1A=c1m,
                           shifts=(F(0),) * mm, rel=rel, zA=za)
        total = ModuliSpec("absolute-smooth", n=n, genus=gp + gm + k - 1,
                           c1A=c1p + c1m - 2 * za, shifts=(F(0),) * (mp + mm))
        ledger = splitting_ledger(plus, minus, tuple(F(n - 1) for _ in range(k)), total)
        ok = ok and ledger.defect == 0
    report(4, "dimension conservation across smooth splittings", ok,
           "200 random splittings, defect exactly 0")


def test_05_contraction_invariance():
    from test_graph import LINE, Z2DIV, random_valid_graph

    rng = random.Random(1005)
    done = 0
    ok = True
    while done < 1000:
        graph = random_valid_graph(rng)
        moves = [("edge", j) for j, e in enumerate(graph.edges) if e.kind == "absolute"]
        levels = {v.level for v in graph.vertices}
        moves += [("level", lv) for lv in sorted(levels) if lv + 1 in levels]
        if not moves:
            continue
        kind, arg = rng.choice(moves)
        before = (genus(graph), total_class(graph))
        result = contract_edge(graph, arg) if kind == "edge" \
            else contract_level(graph, arg)
        ok = ok and (genus(result), total_class(result)) == before
        ok = ok and validate(result, LINE, Z2DIV) == []
        done += 1
    report(5, "contraction invariance of genus and class", ok,
           "1000 random contractions of both types")


def test_06_poset_matches_brute_force():
    ok = True
    details = []
    for scenario in POSET_SCENARIOS:
        homology = HomologyModel(
            rank=1, c1=(F(1),), z_pairing=(F(1),),
            effective=tuple((a,) for a in scenario["effective"]))
        tails = [Tail(0, kind, "e", ContactOrder(k, 1))
                 for kind, k in scenario["tails"]]
        bounds = PosetBounds(
            max_vertices=scenario["max_vertices"],
            max_levels=scenario["max_levels"],
            max_edge_contact_numerator=scenario.get("contact_cap"))
        poset = stratification_poset(scenario["genus"], (scenario["total"],), tails,
                                     homology, MonodromyTable.trivial(), bounds)
        nodes = oracle_generate(scenario)
        covers = oracle_covers(nodes)
        ok = ok and len(poset.nodes) == len(nodes) and len(poset.covers) == len(covers)
        details.append(f"{scenario['name']}={len(poset.nodes)}n/{len(poset.covers)}c")
    report(6, "stratification poset vs brute force", ok, ", ".join(details))


def test_07_degeneration_coefficients():
    kappa, _ = gluing_degrees([ContactOrder(2, 1), ContactOrder(3, 1)])
    ok = kappa == 6

    doc = load_document((DATA / "smooth1.json").read_text())
    homology = doc.homology["line"]
    basis = doc.basis["bz3"]

    one_node = expand(doc.scenarios["smooth_one_node"], basis, homology)
    ok = ok and len(one_node) == 3 and all(t.coefficient == 2 for t in one_node)

    dup = expand(doc.scenarios["dup_insertion"], basis, homology)
    dup_terms = [t for t in dup if len(t.labels) == 2 and t.labels[0] == t.labels[1]]
    ok = ok and dup_terms and all(t.coefficient == 2 for t in dup_terms)

    swap_ok = True
    for name in doc.scenarios:
        hname, bname = doc.scenario_context[name]
        terms = expand(doc.scenarios[name], doc.basis[bname], doc.homology[hname])
        twice = side_swap(side_swap(terms, doc.basis[bname]), doc.basis[bname])
        swap_ok = swap_ok and [term_record(t) for t in twice] == \
            [term_record(t) for t in terms]
    ok = ok and swap_ok
    report(7, "degeneration coefficients", ok,
           "kappa=6; 3 terms of coeff 2; dup coeff 2 = l(Gamma)*2!; side_swap involution")


def test_08_partition_counts():
    ok = True
    for n in range(1, 9):
        for k in range(1, 5):
            got = len(enumerate_partitions(n, [1] * k))
            ok = ok and got == math.comb(n - 1, k - 1)
    report(8, "composition counts against the closed form", ok,
           "N <= 8, k <= 4, C(N-1, k-1)")


def test_09_gluing_sandbox():
    system, chart = glue.sphere_model(1.05)
    const = glue.estimate_constants(system, chart, 200)
    result = glue.correct(system, chart, np.array([1.0, 0.5]), tol=1e-10, max_iter=50)
    xi_norm = float(np.linalg.norm(result.xi))
    ok = result.residual <= 1e-10 and result.iterations <= 50
    ok = ok and abs(xi_norm - 0.105) <= 1e-9
    ok = ok and 0.105 <= 2 * const.eps1

    node_system, node_chart = glue.node_model(0.25)
    rng = np.random.default_rng(1009)
    for _ in range(100):
        s = node_chart.sample(rng)
        eta = rng.uniform(-0.05, 0.05, size=1)
        probe = glue.chart_map(node_system, node_chart, s, eta)
        ok = ok and probe.derivative_norm <= 2.0

    for sys_, chart_ in (glue.sphere_model(), glue.node_model(), glue.linear_model()):
        for _ in range(20):
            s = chart_.sample(rng)
            x = chart_.x(s) + rng.normal(size=sys_.dim_b) * 0.1
            analytic = sys_.jacobian(x)
            numeric = glue.fd_jacobian(sys_.t, x, sys_.dim_f)
            ok = ok and bool(np.all(np.abs(numeric - analytic)
                                    <= 1e-5 * (1.0 + np.abs(analytic))))
    report(9, "gluing sandbox", ok,
           f"residual {result.residual:.1e} in {result.iterations} its, "
           f"|xi|={xi_norm:.6f}, DPhi<=2 at 100 pts, FD vs analytic 1e-5")


def test_10_cli_determinism():
    from test_cli import GOLDEN_COMMANDS, GOLDEN, capture

    ok = True
    for name, argv in sorted(GOLDEN_COMMANDS.items()):
        rc1, out1, _ = capture(argv)
        rc2, out2, _ = capture(argv)
        ok = ok and rc1 == rc2 == 0
        ok = ok and out1.encode() == out2.encode() == (GOLDEN / name).read_bytes()
    report(10, "CLI determinism", ok,
           f"{len(GOLDEN_COMMANDS)} golden commands byte-identical across runs")
