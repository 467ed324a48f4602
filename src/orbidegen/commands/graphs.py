"""`graphs validate`, `genus`, `contract` and `poset`: one graph of an input document."""

from __future__ import annotations

import sys

from ..contact import MonodromyTable
from ..errors import ValidationError, named
from ..graph import (
    PosetBounds,
    _vec_str,
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
from ..io import _known, load_document, parse_list, read_text
from . import emit


def _load_graph(args):
    """(name, graph, homology, class table) of the --graph entry of the --in document."""
    doc = load_document(read_text(args.input))
    name, graph = doc.one("graphs", args.graph)
    hname, cname = doc.graph_context[name]
    table = doc.classes[cname] if cname else MonodromyTable.trivial()
    return name, graph, doc.homology[hname], table


def _well_formed(graph, name: str, homology, table) -> None:
    """Stop at the first "structure" diagnostic: genus and total_class need a
    vertex, and they and the contraction moves index vertices by edge and tail
    endpoints and add vertex classes entry by entry."""
    broken = [d for d in validate(graph, homology, table) if d.rule == "structure"]
    if broken:
        raise ValidationError(f"graph {name} is malformed: {broken[0]}")


def cmd_validate(args) -> int:
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
    emit(args, payload, lines)
    return 1 if diags else 0


def cmd_genus(args) -> int:
    name, graph, homology, table = _load_graph(args)
    _well_formed(graph, name, homology, table)
    value, cls = bullet_genus(graph), total_class(graph)
    emit(args, {"graph": name, "genus": value, "total_class": list(cls),
                "connected": is_connected(graph)},
         [f"graph {name}: genus {value}, total class {_vec_str(cls)}"])
    return 0


def cmd_contract(args) -> int:
    name, graph, homology, table = _load_graph(args)
    if (args.edge is None) == (args.level is None):
        raise ValidationError("pass exactly one of --edge or --level")
    _well_formed(graph, name, homology, table)
    move, index = ((contract_edge, args.edge) if args.edge is not None
                   else (contract_level, args.level))
    result = named(f"graph {name}", move, graph, index)
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
    emit(args, payload, [f"contracted graph: {len(result.vertices)} vertices, "
                         f"{len(result.edges)} edges, genus {bullet_genus(result)}"])
    return 0


def cmd_poset(args) -> int:
    name, graph, homology, table = _load_graph(args)
    diags = validate(graph, homology, table)
    if diags:
        raise ValidationError(f"graph {name} is invalid: {diags[0]}")

    def known_label(item: str, where: str) -> str:
        return _known(item, table.orders, "monodromy class", where)

    menu = (parse_list(args.edge_monodromies, "--edge-monodromies", known_label)
            if args.edge_monodromies is not None else None)
    # only the caps given: PosetBounds owns the defaults of the others
    caps = {"max_vertices": args.max_vertices, "max_levels": args.max_levels,
            "edge_monodromies": menu, "max_edge_contact_numerator": args.max_edge_contact}
    bounds = PosetBounds(**{cap: value for cap, value in caps.items() if value is not None})
    try:
        genus_total = genus(graph)
    except ValidationError:  # genus takes connected graphs only
        raise ValidationError(
            f"graph {name} is disconnected; a poset needs a connected graph") from None
    poset = stratification_poset(genus_total, total_class(graph), graph.tails, homology,
                                 table, bounds)
    if args.dot:
        sys.stdout.write(poset_to_dot(poset, name=f"{name}_poset"))
        return 0
    maximal = poset.maximal_index()
    emit(args, {"graph": name, "nodes": len(poset.nodes),
                "covers": [list(c) for c in poset.covers],
                "complete": poset.complete, "maximal": maximal},
         [f"poset of {name}: {len(poset.nodes)} nodes, {len(poset.covers)} covers, "
          f"maximal node {maximal}, "
          f"{'complete' if poset.complete else 'INCOMPLETE (bounds reached)'}"])
    return 0
