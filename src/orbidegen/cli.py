"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 usage error, 3 resource/bound
error.  Every report is deterministic for a fixed input; --json switches a
report to machine form.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import inertia
from .contact import ContactOrder, MonodromyTable, enumerate_partitions
from .dimension import ModuliSpec, RelTerm, splitting_ledger, virdim
from .errors import NonConvergenceError, ResourceLimitError, ValidationError
from .expand import expand as expand_terms
from .expand import term_record
from .graph import (
    PosetBounds,
    Tail,
    bullet_genus,
    contract_edge,
    contract_level,
    genus,
    is_connected,
    poset_to_dot,
    stratification_poset,
    to_dot,
    total_class,
    validate,
)
from .io import (
    SCHEMA,
    InputDocument,
    dump_json,
    load_document,
    load_ledger,
    parse_rational,
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _read_document(path: str) -> InputDocument:
    return load_document(_read_text(path))


def _graph_context(doc: InputDocument, name: str):
    graph = doc.graphs[name]
    hname, cname = doc.graph_context[name]
    homology = doc.homology[hname]
    table = doc.classes[cname] if cname else MonodromyTable.trivial()
    return graph, homology, table


# ---------------------------------------------------------------- sectors

def _cmd_sectors(args) -> int:
    doc = _read_document(args.input)
    names = [args.profile] if args.profile else sorted(doc.profiles)
    if not names:
        raise ValidationError("document has no profiles")
    payload = {"schema": SCHEMA, "profiles": []}
    lines = []
    for name in names:
        if name not in doc.profiles:
            raise ValidationError(f"no profile named {name!r}")
        profile = doc.profiles[name]
        rows = []
        for label, sector in profile.labeled_sectors():
            rows.append({
                "class": label,
                "shift": str(sector.shift),
                "sector_dim": sector.sector_dim(profile.ambient_dim),
                "rotations": [str(r) for r in sector.rotations],
            })
        poly = [
            {"degree": str(d), "multiplicity": m}
            for d, m in inertia.cr_poincare_polynomial(profile)
        ]
        report = inertia.pairing_check(profile)
        payload["profiles"].append({
            "name": name,
            "ambient_dim": profile.ambient_dim,
            "sectors": rows,
            "cr_poincare": poly,
            "pairing_ok": report.ok,
            "pairing_violations": [
                {"sector": v.sector, "degree": v.degree, "detail": v.detail}
                for v in report.violations
            ],
        })
        lines.append(f"profile {name} (ambient dim {profile.ambient_dim})")
        lines.append("  class  shift  dim  rotations")
        for row in rows:
            rot = ",".join(row["rotations"])
            lines.append(f"  {row['class']:<6} {row['shift']:<6} {row['sector_dim']:<4} ({rot})")
        poly_text = " + ".join(f"{p['multiplicity']}*q^{p['degree']}" for p in poly)
        lines.append(f"  CR Poincare polynomial: {poly_text}")
        if report.ok:
            lines.append("  pairing check: ok")
        else:
            lines.append("  pairing check: FAILED")
            for v in report.violations:
                lines.append(f"    sector {v.sector}: {v.detail}")
    if args.json:
        sys.stdout.write(dump_json(payload))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------- graphs

def _cmd_graphs_validate(args) -> int:
    doc = _read_document(args.input)
    name, _ = doc.one("graphs", args.graph)
    graph, homology, table = _graph_context(doc, name)
    diags = validate(graph, homology, table)
    if args.json:
        payload = {
            "schema": SCHEMA, "graph": name, "valid": not diags,
            "diagnostics": [
                {"rule": d.rule, "element": d.element, "message": d.message} for d in diags
            ],
        }
        sys.stdout.write(dump_json(payload))
    else:
        if not diags:
            sys.stdout.write(f"graph {name}: valid\n")
        else:
            sys.stdout.write(f"graph {name}: {len(diags)} violation(s)\n")
            for d in diags:
                sys.stdout.write(f"  {d}\n")
    return 0 if not diags else 1


def _cmd_graphs_genus(args) -> int:
    doc = _read_document(args.input)
    name, _ = doc.one("graphs", args.graph)
    graph, homology, table = _graph_context(doc, name)
    # genus and total_class index vertices by edge and tail endpoints
    broken = [d for d in validate(graph, homology, table) if d.rule == "structure"]
    if broken:
        raise ValidationError(f"graph {name} is malformed: {broken[0]}")
    value = genus(graph) if is_connected(graph) and graph.vertices else bullet_genus(graph)
    cls = total_class(graph)
    if args.json:
        sys.stdout.write(dump_json({
            "schema": SCHEMA, "graph": name, "genus": value,
            "total_class": list(cls), "connected": is_connected(graph),
        }))
    else:
        sys.stdout.write(f"graph {name}: genus {value}, total class "
                         f"({','.join(str(x) for x in cls)})\n")
    return 0


def _cmd_graphs_contract(args) -> int:
    doc = _read_document(args.input)
    name, _ = doc.one("graphs", args.graph)
    graph, homology, table = _graph_context(doc, name)
    if (args.edge is None) == (args.level is None):
        raise ValidationError("pass exactly one of --edge or --level")
    if args.edge is not None:
        result = contract_edge(graph, args.edge)
    else:
        result = contract_level(graph, args.level)
    diags = validate(result, homology, table)
    if args.dot:
        sys.stdout.write(to_dot(result, name=f"{name}_contracted"))
        return 0
    if args.json:
        payload = {
            "schema": SCHEMA, "graph": name, "valid": not diags,
            "vertices": [
                {"genus": v.genus, "class": list(v.cls), "level": v.level}
                for v in result.vertices
            ],
            "edges": [
                {"kind": e.kind, "ends": list(e.ends), "halves": list(e.halves),
                 "contact": str(e.contact) if e.contact else None}
                for e in result.edges
            ],
            "tails": [
                {"vertex": t.vertex, "kind": t.kind, "monodromy": t.monodromy,
                 "contact": str(t.contact) if t.contact else None}
                for t in result.tails
            ],
        }
        sys.stdout.write(dump_json(payload))
    else:
        sys.stdout.write(f"contracted graph: {len(result.vertices)} vertices, "
                         f"{len(result.edges)} edges, genus "
                         f"{bullet_genus(result)}\n")
    return 0


def _cmd_graphs_poset(args) -> int:
    doc = _read_document(args.input)
    name, _ = doc.one("graphs", args.graph)
    graph, homology, table = _graph_context(doc, name)
    diags = validate(graph, homology, table)
    if diags:
        raise ValidationError(f"graph {name} is invalid: {diags[0]}")
    tails = [Tail(0, t.kind, t.monodromy, t.contact) for t in graph.tails]
    bounds = PosetBounds(
        max_vertices=args.max_vertices,
        max_levels=args.max_levels,
        edge_monodromies=tuple(args.edge_monodromies.split(","))
        if args.edge_monodromies else ("e",),
        max_edge_contact_numerator=args.max_edge_contact,
    )
    poset = stratification_poset(genus(graph), total_class(graph), tails, homology,
                                 table, bounds)
    if args.dot:
        sys.stdout.write(poset_to_dot(poset, name=f"{name}_poset"))
        return 0
    if args.json:
        payload = {
            "schema": SCHEMA, "graph": name,
            "nodes": len(poset.nodes), "covers": list(list(c) for c in poset.covers),
            "complete": poset.complete,
            "maximal": poset.maximal_index(),
        }
        sys.stdout.write(dump_json(payload))
    else:
        sys.stdout.write(
            f"poset of {name}: {len(poset.nodes)} nodes, {len(poset.covers)} covers, "
            f"maximal node {poset.maximal_index()}, "
            f"{'complete' if poset.complete else 'INCOMPLETE (bounds reached)'}\n")
    return 0


# ---------------------------------------------------------------- dim

def _parse_rel(text: str) -> tuple[RelTerm, ...]:
    if not text:
        return ()
    terms = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        order = ContactOrder.parse(parts[0])
        shift = parse_rational(parts[1]) if len(parts) > 1 and parts[1] else Fraction(0)
        monodromy = parts[2] if len(parts) > 2 else "e"
        terms.append(RelTerm(order=order, shift=shift, monodromy=monodromy))
    return tuple(terms)


def _cmd_dim_virdim(args) -> int:
    shifts = tuple(parse_rational(x) for x in args.shifts.split(",")) if args.shifts else ()
    rel = _parse_rel(args.rel)
    za = parse_rational(args.za) if args.za else sum((t.order.value for t in rel), Fraction(0))
    spec = ModuliSpec(flavor=args.flavor, n=args.n, genus=args.genus,
                      c1A=parse_rational(args.c1a), shifts=shifts, rel=rel, zA=za)
    value = virdim(spec)
    if args.json:
        sys.stdout.write(dump_json({
            "schema": SCHEMA, "flavor": args.flavor, "virdim": str(value),
        }))
    else:
        sys.stdout.write(f"virdim = {value}\n")
    return 0


def _cmd_dim_ledger(args) -> int:
    doc = load_ledger(_read_text(args.input))
    ledger = splitting_ledger(doc.plus, doc.minus, doc.sector_dims, doc.total)
    if args.json:
        sys.stdout.write(dump_json({
            "schema": SCHEMA,
            "d_total": str(ledger.d_total),
            "d_plus": str(ledger.d_plus),
            "d_minus": str(ledger.d_minus),
            "constraint_dims": [str(d) for d in ledger.constraint_dims],
            "defect": str(ledger.defect),
        }))
    else:
        sys.stdout.write(
            f"d_total={ledger.d_total} d_plus={ledger.d_plus} d_minus={ledger.d_minus} "
            f"constraints={[str(d) for d in ledger.constraint_dims]} "
            f"defect={ledger.defect}\n")
    return 0


# ---------------------------------------------------------------- partitions

def _cmd_partitions(args) -> int:
    total = parse_rational(args.total)
    orders = [int(x) for x in args.orders.split(",")] if args.orders else [1]
    tuples = enumerate_partitions(total, orders)
    if args.json:
        sys.stdout.write(dump_json({
            "schema": SCHEMA,
            "total": str(total),
            "orders": orders,
            "count": len(tuples),
            "partitions": [[str(o) for o in tup] for tup in tuples],
        }))
    else:
        sys.stdout.write(f"{len(tuples)} tuple(s) of contact orders summing to {total}\n")
        for tup in tuples:
            sys.stdout.write("  (" + ", ".join(str(o) for o in tup) + ")\n")
    return 0


# ---------------------------------------------------------------- expand

def _cmd_expand(args) -> int:
    doc = _read_document(args.input)
    name, scenario = doc.one("scenarios", args.scenario)
    hname, bname = doc.scenario_context[name]
    homology = doc.homology[hname]
    if not bname:
        raise ValidationError(f"scenario {name!r} has no basis reference")
    basis = doc.basis[bname]
    degree = parse_rational(args.degree) if args.degree else None
    terms = expand_terms(scenario, basis, homology, total_degree=degree)
    if args.json:
        payload = {
            "schema": SCHEMA, "scenario": name, "count": len(terms),
            "terms": [
                {
                    "coefficient": str(t.coefficient),
                    "labels": list(t.labels),
                    "record": term_record(t),
                }
                for t in terms
            ],
        }
        sys.stdout.write(dump_json(payload))
    else:
        sys.stdout.write(f"scenario {name}: {len(terms)} term(s)\n")
        width = max((len(str(t.coefficient)) for t in terms), default=1)
        for t in terms:
            sys.stdout.write(f"  {t.coefficient!s:>{width}}  {term_record(t)}\n")
    return 0


# ---------------------------------------------------------------- glue

def _cmd_glue_demo(args) -> int:
    try:
        return _glue_demo(args)
    except (FloatingPointError, OverflowError) as exc:
        setting = {"sphere": f" --scale {args.scale:g}",
                   "node": f" --tau {args.tau:g}"}.get(args.model, "")
        raise ValidationError(
            f"glue demo {args.model}{setting} leaves the floating-point range: {exc}"
        ) from None


def _glue_demo(args) -> int:
    # the only numpy user: the exact-only commands start without it
    import numpy as np

    from . import glue

    if args.model == "sphere":
        system, chart = glue.sphere_model(scale=args.scale)
    elif args.model == "node":
        system, chart = glue.node_model(tau=args.tau)
    elif args.model == "linear":
        system, chart = glue.linear_model()
    else:
        raise ValidationError(f"unknown model {args.model!r}")
    const = glue.estimate_constants(system, chart, sample_count=args.samples, seed=args.seed)

    def e(x: float) -> str:
        return f"{x:.12e}"

    payload = {
        "schema": SCHEMA, "model": system.name, "chart": chart.name,
        "constants": {"C1": e(const.c1), "C2": e(const.c2), "eps1": e(const.eps1),
                      "delta1": e(const.delta1), "K1": e(const.k1)},
        "ordering_ok": const.ordering_ok,
        "conditions": [
            {"name": c.name, "estimate": e(c.estimate), "ok": c.ok, "note": c.note}
            for c in const.conditions
        ],
    }
    out = []
    out.append(f"model {system.name} / {chart.name}")
    out.append(f"  constants: C1={const.c1:.6e} C2={const.c2:.6e} eps1={const.eps1:.6e} "
               f"delta1={const.delta1:.6e} K1={const.k1:.6e}")
    out.append(f"  ordering eps1 << delta1 << C2 (factor 10): "
               f"{'ok' if const.ordering_ok else 'FLAGGED'}")
    for cond in const.conditions:
        status = "ok" if cond.ok else "FAIL"
        out.append(f"    {cond.name:<28} {cond.estimate:.6e}  [{status}]"
                   + (f"  {cond.note}" if cond.note else ""))
    rng = np.random.default_rng(args.seed)
    s0 = chart.sample(rng)
    try:
        result = glue.correct(system, chart, s0, tol=1e-10, max_iter=50)
        out.append(f"  correction at s={np.array2string(s0, precision=4)}: "
                   f"residual {result.residual:.3e} in {result.iterations} iteration(s)")
        out.append("    n    |xi_n|        residual")
        for i, (xn, rn) in enumerate(zip(result.xi_history, result.residual_history)):
            out.append(f"    {i:<4} {xn:.6e}  {rn:.6e}")
        xi_norm = float(np.linalg.norm(result.xi))
        verdict = "ok" if xi_norm <= 2 * const.eps1 + 1e-12 else "FLAGGED"
        out.append(f"  |xi| <= 2 eps1 contract: |xi|={xi_norm:.6e} vs "
                   f"2 eps1={2 * const.eps1:.6e}  [{verdict}]")
        payload["correction"] = {
            "converged": True, "iterations": result.iterations,
            "residual": e(result.residual), "xi_norm": e(xi_norm),
            "xi_contract_ok": xi_norm <= 2 * const.eps1 + 1e-12,
            "residual_history": [e(r) for r in result.residual_history],
        }
    except NonConvergenceError as exc:
        out.append(f"  correction FAILED: {exc}")
        payload["correction"] = {
            "converged": False,
            "residual_history": [e(r) for r in exc.residuals],
        }
    probes = []
    for _ in range(args.probes):
        s = chart.sample(rng)
        eta = rng.uniform(-const.delta1, const.delta1, size=system.dim_f)
        probes.append(glue.chart_map(system, chart, s, eta).derivative_norm)
    worst = max(probes) if probes else 0.0
    verdict = "ok" if worst <= 2.0 else "FLAGGED"
    out.append(f"  |DPhi| probe over {len(probes)} points: max {worst:.6e}  [{verdict}]")
    payload["derivative_probe"] = {"points": len(probes), "max_norm": e(worst),
                                   "within_bound": worst <= 2.0}
    if args.json:
        sys.stdout.write(dump_json(payload))
    else:
        sys.stdout.write("\n".join(out) + "\n")
    return 0


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbidegen",
        description="exact bookkeeping for orbifold degeneration formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sectors", help="degree shifts, CR polynomial, pairing check")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--profile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sectors)

    graphs = sub.add_parser("graphs", help="graph validation and contraction")
    gsub = graphs.add_subparsers(dest="graph_command", required=True)

    p = gsub.add_parser("validate")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graphs_validate)

    p = gsub.add_parser("genus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graphs_genus)

    p = gsub.add_parser("contract")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--graph")
    p.add_argument("--edge", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graphs_contract)

    p = gsub.add_parser("poset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--graph")
    p.add_argument("--max-vertices", type=int, default=2)
    p.add_argument("--max-levels", type=int, default=1)
    p.add_argument("--edge-monodromies", default="")
    p.add_argument("--max-edge-contact", type=int, default=None)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graphs_poset)

    dim = sub.add_parser("dim", help="virtual dimensions and the splitting ledger")
    dsub = dim.add_subparsers(dest="dim_command", required=True)

    p = dsub.add_parser("virdim")
    p.add_argument("--flavor", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--c1a", required=True)
    p.add_argument("--shifts", default="")
    p.add_argument("--rel", default="", help="k/r[:shift[:monodromy]],...")
    p.add_argument("--za", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dim_virdim)

    p = dsub.add_parser("ledger")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dim_ledger)

    p = sub.add_parser("partitions", help="ordered contact-order partitions")
    p.add_argument("--total", required=True)
    p.add_argument("--orders", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("expand", help="degeneration-formula term expansion")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--scenario")
    p.add_argument("--degree", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expand)

    gl = sub.add_parser("glue", help="finite-dimensional gluing sandbox")
    glsub = gl.add_subparsers(dest="glue_command", required=True)
    p = glsub.add_parser("demo")
    p.add_argument("model", choices=["sphere", "node", "linear"])
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_glue_demo)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValidationError, ValueError, NonConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
