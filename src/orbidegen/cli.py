"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 usage error, 3 resource/bound
error.  Every report is deterministic for a fixed input; --json switches a
report to machine form.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import inertia
from .contact import MonodromyTable, enumerate_partitions
from .dimension import ModuliSpec, splitting_ledger, virdim
from .errors import NonConvergenceError, ResourceLimitError, ValidationError
from .expand import expand as expand_terms
from .expand import term_record
from .graph import (
    PosetBounds,
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
    _integer,
    _rational,
    _string,
    dump_json,
    load_document,
    load_ledger,
    parse_list,
    parse_rel,
    read_text,
)


def _emit(args, payload: dict, lines: list[str]) -> None:
    """Write a report: `payload` with the schema under --json, else the text lines."""
    if args.json:
        sys.stdout.write(dump_json({"schema": SCHEMA, **payload}))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))


def _load_graph(args):
    """(name, graph, homology, class table) of the --graph entry of the --in document."""
    doc = load_document(read_text(args.input))
    name, graph = doc.one("graphs", args.graph)
    hname, cname = doc.graph_context[name]
    table = doc.classes[cname] if cname else MonodromyTable.trivial()
    return name, graph, doc.homology[hname], table


def _well_formed(graph, name: str, homology, table) -> None:
    """Stop at the first "structure" diagnostic: genus, total_class and the
    contraction moves index vertices by edge and tail endpoints."""
    broken = [d for d in validate(graph, homology, table) if d.rule == "structure"]
    if broken:
        raise ValidationError(f"graph {name} is malformed: {broken[0]}")


# ---------------------------------------------------------------- sectors

def _cmd_sectors(args) -> int:
    doc = load_document(read_text(args.input))
    names = [args.profile] if args.profile else sorted(doc.profiles)
    if not names:
        raise ValidationError("document has no profiles")
    profiles, lines = [], []
    for name in names:
        if name not in doc.profiles:
            raise ValidationError(f"no profile named {name!r}")
        profile = doc.profiles[name]
        rows = [{"class": label, "shift": str(sector.shift),
                 "sector_dim": sector.sector_dim(profile.ambient_dim),
                 "rotations": [str(r) for r in sector.rotations]}
                for label, sector in profile.labeled_sectors()]
        poly = [{"degree": str(d), "multiplicity": m}
                for d, m in inertia.cr_poincare_polynomial(profile)]
        report = inertia.pairing_check(profile)
        profiles.append({
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
        lines.append(f"  pairing check: {'ok' if report.ok else 'FAILED'}")
        lines.extend(f"    sector {v.sector}: {v.detail}" for v in report.violations)
    _emit(args, {"profiles": profiles}, lines)
    return 0


# ---------------------------------------------------------------- graphs

def _cmd_graphs_validate(args) -> int:
    name, graph, homology, table = _load_graph(args)
    diags = validate(graph, homology, table)
    payload = {
        "graph": name, "valid": not diags,
        "diagnostics": [{"rule": d.rule, "element": d.element, "message": d.message}
                        for d in diags],
    }
    if diags:
        lines = [f"graph {name}: {len(diags)} violation(s)", *(f"  {d}" for d in diags)]
    else:
        lines = [f"graph {name}: valid"]
    _emit(args, payload, lines)
    return 1 if diags else 0


def _cmd_graphs_genus(args) -> int:
    name, graph, homology, table = _load_graph(args)
    _well_formed(graph, name, homology, table)
    value, cls = bullet_genus(graph), total_class(graph)
    _emit(args, {"graph": name, "genus": value, "total_class": list(cls),
                 "connected": is_connected(graph)},
          [f"graph {name}: genus {value}, total class ({','.join(str(x) for x in cls)})"])
    return 0


def _cmd_graphs_contract(args) -> int:
    name, graph, homology, table = _load_graph(args)
    if (args.edge is None) == (args.level is None):
        raise ValidationError("pass exactly one of --edge or --level")
    _well_formed(graph, name, homology, table)
    if args.edge is not None:
        result = contract_edge(graph, args.edge)
    else:
        result = contract_level(graph, args.level)
    if args.dot:
        sys.stdout.write(to_dot(result, name=f"{name}_contracted"))
        return 0
    payload = {
        "graph": name, "valid": not validate(result, homology, table),
        "vertices": [{"genus": v.genus, "class": list(v.cls), "level": v.level}
                     for v in result.vertices],
        "edges": [{"kind": e.kind, "ends": list(e.ends), "halves": list(e.halves),
                   "contact": str(e.contact) if e.contact else None} for e in result.edges],
        "tails": [{"vertex": t.vertex, "kind": t.kind, "monodromy": t.monodromy,
                   "contact": str(t.contact) if t.contact else None} for t in result.tails],
    }
    _emit(args, payload, [f"contracted graph: {len(result.vertices)} vertices, "
                          f"{len(result.edges)} edges, genus {bullet_genus(result)}"])
    return 0


def _cmd_graphs_poset(args) -> int:
    name, graph, homology, table = _load_graph(args)
    diags = validate(graph, homology, table)
    if diags:
        raise ValidationError(f"graph {name} is invalid: {diags[0]}")
    menu = parse_list(args.edge_monodromies, "--edge-monodromies", _string)
    bounds = PosetBounds(max_vertices=args.max_vertices, max_levels=args.max_levels,
                         edge_monodromies=menu or ("e",),
                         max_edge_contact_numerator=args.max_edge_contact)
    poset = stratification_poset(genus(graph), total_class(graph), graph.tails, homology,
                                 table, bounds)
    if args.dot:
        sys.stdout.write(poset_to_dot(poset, name=f"{name}_poset"))
        return 0
    maximal = poset.maximal_index()
    _emit(args, {"graph": name, "nodes": len(poset.nodes),
                 "covers": [list(c) for c in poset.covers],
                 "complete": poset.complete, "maximal": maximal},
          [f"poset of {name}: {len(poset.nodes)} nodes, {len(poset.covers)} covers, "
           f"maximal node {maximal}, "
           f"{'complete' if poset.complete else 'INCOMPLETE (bounds reached)'}"])
    return 0


# ---------------------------------------------------------------- dim

def _cmd_dim_virdim(args) -> int:
    rel = parse_rel(args.rel)
    za = (_rational(args.za, "--za") if args.za
          else sum((t.order.value for t in rel), Fraction(0)))
    value = virdim(ModuliSpec(flavor=args.flavor, n=args.n, genus=args.genus,
                              c1A=_rational(args.c1a, "--c1a"),
                              shifts=parse_list(args.shifts, "--shifts", _rational),
                              rel=rel, zA=za))
    _emit(args, {"flavor": args.flavor, "virdim": str(value)}, [f"virdim = {value}"])
    return 0


def _cmd_dim_ledger(args) -> int:
    doc = load_ledger(read_text(args.input))
    ledger = splitting_ledger(doc.plus, doc.minus, doc.sector_dims, doc.total)
    constraints = [str(d) for d in ledger.constraint_dims]
    _emit(args, {"d_total": str(ledger.d_total), "d_plus": str(ledger.d_plus),
                 "d_minus": str(ledger.d_minus), "constraint_dims": constraints,
                 "defect": str(ledger.defect)},
          [f"d_total={ledger.d_total} d_plus={ledger.d_plus} d_minus={ledger.d_minus} "
           f"constraints={constraints} defect={ledger.defect}"])
    return 0


# ---------------------------------------------------------------- partitions

def _cmd_partitions(args) -> int:
    total = _rational(args.total, "--total")
    orders = parse_list(args.orders, "--orders", _integer) or (1,)
    tuples = [[str(o) for o in tup] for tup in enumerate_partitions(total, orders)]
    _emit(args, {"total": str(total), "orders": orders, "count": len(tuples),
                 "partitions": tuples},
          [f"{len(tuples)} tuple(s) of contact orders summing to {total}",
           *(f"  ({', '.join(tup)})" for tup in tuples)])
    return 0


# ---------------------------------------------------------------- expand

def _cmd_expand(args) -> int:
    doc = load_document(read_text(args.input))
    name, scenario = doc.one("scenarios", args.scenario)
    hname, bname = doc.scenario_context[name]
    if not bname:
        raise ValidationError(f"scenario {name!r} has no basis reference")
    degree = _rational(args.degree, "--degree") if args.degree else None
    terms = expand_terms(scenario, doc.basis[bname], doc.homology[hname], total_degree=degree)
    rows = [(str(t.coefficient), list(t.labels), term_record(t)) for t in terms]
    width = max((len(c) for c, _, _ in rows), default=1)
    _emit(args, {"scenario": name, "count": len(rows),
                 "terms": [{"coefficient": c, "labels": labels, "record": record}
                           for c, labels, record in rows]},
          [f"scenario {name}: {len(rows)} term(s)",
           *(f"  {c:>{width}}  {record}" for c, _, record in rows)])
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

    for option, value, low in (("--samples", args.samples, glue.MIN_SAMPLES),
                               ("--probes", args.probes, 0), ("--seed", args.seed, 0)):
        if value < low:
            raise ValidationError(f"{option} must be at least {low}, got {value}")
    for option, value in (("--samples", args.samples), ("--probes", args.probes)):
        if value > glue.MAX_SAMPLES:
            raise ResourceLimitError(f"{option} must be at most {glue.MAX_SAMPLES}, got {value}")
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
        "model": system.name, "chart": chart.name,
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
        xi_ok = xi_norm <= 2 * const.eps1 + 1e-12
        out.append(f"  |xi| <= 2 eps1 contract: |xi|={xi_norm:.6e} vs "
                   f"2 eps1={2 * const.eps1:.6e}  [{'ok' if xi_ok else 'FLAGGED'}]")
        payload["correction"] = {
            "converged": True, "iterations": result.iterations,
            "residual": e(result.residual), "xi_norm": e(xi_norm), "xi_contract_ok": xi_ok,
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
    _emit(args, payload, out)
    return 0


# ---------------------------------------------------------------- main

@contextmanager
def _command(sub, name: str, func, *, reads: bool = True, dot: bool = False, **kwargs):
    """Register a subcommand: --in when it `reads` a document, then the options
    added inside the with-block, then --dot when it renders DOT, then --json."""
    parser = sub.add_parser(name, **kwargs)
    if reads:
        parser.add_argument("--in", dest="input", required=True)
    yield parser
    if dot:
        parser.add_argument("--dot", action="store_true")
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbidegen",
        description="exact bookkeeping for orbifold degeneration formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    with _command(sub, "sectors", _cmd_sectors,
                  help="degree shifts, CR polynomial, pairing check") as p:
        p.add_argument("--profile")

    graphs = sub.add_parser("graphs", help="graph validation and contraction")
    gsub = graphs.add_subparsers(dest="graph_command", required=True)
    with _command(gsub, "validate", _cmd_graphs_validate) as p:
        p.add_argument("--graph")
    with _command(gsub, "genus", _cmd_graphs_genus) as p:
        p.add_argument("--graph")
    with _command(gsub, "contract", _cmd_graphs_contract, dot=True) as p:
        p.add_argument("--graph")
        p.add_argument("--edge", type=int)
        p.add_argument("--level", type=int)
    with _command(gsub, "poset", _cmd_graphs_poset, dot=True) as p:
        p.add_argument("--graph")
        p.add_argument("--max-vertices", type=int, default=2)
        p.add_argument("--max-levels", type=int, default=1)
        p.add_argument("--edge-monodromies", default="")
        p.add_argument("--max-edge-contact", type=int, default=None)

    dim = sub.add_parser("dim", help="virtual dimensions and the splitting ledger")
    dsub = dim.add_subparsers(dest="dim_command", required=True)
    with _command(dsub, "virdim", _cmd_dim_virdim, reads=False) as p:
        p.add_argument("--flavor", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--c1a", required=True)
        p.add_argument("--shifts", default="")
        p.add_argument("--rel", default="", help="k/r[:shift[:monodromy]],...")
        p.add_argument("--za", default="")
    with _command(dsub, "ledger", _cmd_dim_ledger):
        pass

    with _command(sub, "partitions", _cmd_partitions, reads=False,
                  help="ordered contact-order partitions") as p:
        p.add_argument("--total", required=True)
        p.add_argument("--orders", default="")

    with _command(sub, "expand", _cmd_expand,
                  help="degeneration-formula term expansion") as p:
        p.add_argument("--scenario")
        p.add_argument("--degree", default="")

    gl = sub.add_parser("glue", help="finite-dimensional gluing sandbox")
    glsub = gl.add_subparsers(dest="glue_command", required=True)
    with _command(glsub, "demo", _cmd_glue_demo, reads=False) as p:
        p.add_argument("model", choices=["sphere", "node", "linear"])
        p.add_argument("--tau", type=float, default=0.25)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--probes", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)

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
