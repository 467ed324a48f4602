"""Per-layer metrics of a traced run, computed from its spans.

Every value describes the workload's set-up plus one pass of its op list:
spans recorded during set-up count once, spans of the traced passes count
1/passes each.  `.calls` is a call count, `.self_s` the inclusive time of the
calls minus the time covered by their child spans.  Which end-to-end metric
each of these should move, on which workload, is recorded in design.json.
"""

from __future__ import annotations

import statistics
from collections import Counter

SETUP_OP = -1

CALLS = (
    "io.load_document", "inertia.FiniteGroupTable.validate", "inertia.conjugacy_classes",
    "inertia.inverse_class", "contact.enumerate_partitions", "contact.aut_order",
    "graph.canonical_form", "graph.encode", "graph.is_connected", "graph.validate",
    "graph.automorphism_order", "graph.contract_edge", "graph.contract_level",
    "expand.term_record", "dimension.virdim", "glue.correct", "glue.FredholmSystem.t",
    "glue.FredholmSystem.jacobian", "glue.chart_map",
)
SELF = (
    "cli.run", "io.load_document", "io.dump_json", "inertia.FiniteGroupTable.validate",
    "inertia.conjugacy_classes", "inertia.inverse_class", "inertia.monodromy_table",
    "inertia.cr_poincare_polynomial", "inertia.pairing_check", "contact.enumerate_partitions",
    "contact.aut_order", "graph.canonical_form", "graph.encode", "graph.is_connected",
    "graph.validate", "graph.automorphism_order", "graph.stratification_poset",
    "expand.enumerate_splittings", "expand.expand", "expand.term_record", "dimension.virdim",
    "dimension.splitting_ledger", "glue.estimate_constants", "glue.correct", "glue.chart_map",
)
ENUMERATE = "expand.enumerate_splittings"
POSET = "graph.stratification_poset"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def span_values(table, group, passes: int = 1) -> dict[str, float]:
    """Counters and self times over the spans.

    group(i) is 1 for a span counted once, 2 for a span counted 1/passes times
    and 0 for a span left out; sums are taken per group first, so counts of
    identical passes come out exact.
    """
    t = table.tracer

    def total(spans, value):
        sums = [0, 0, 0]
        for i in spans:
            sums[group(i)] += value(i)
        return sums[1] + sums[2] / passes

    def count(name, keep=None):
        return total((i for i in table.spans(name) if keep is None or keep(i)), lambda i: 1)

    def seconds(name):
        return total(table.spans(name), lambda i: table.self_time[i])

    def noted(name, value=lambda note: note):
        return total((i for i in table.spans(name) if i in t.notes), lambda i: value(t.notes[i]))

    def under(parent):
        return lambda i: table.parent_name(i) == parent

    v = {f"{name}.calls": count(name) for name in CALLS}
    v.update({f"{name}.self_s": seconds(name) for name in SELF})

    candidates = count("graph.is_connected", under(ENUMERATE))
    matchings = noted(ENUMERATE)
    v["expand.candidates"] = candidates
    v["expand.disconnected"] = count(
        "graph.is_connected", lambda i: under(ENUMERATE)(i) and t.notes[i] == 0)
    v["expand.duplicates"] = count("graph.canonical_form", under(ENUMERATE)) - matchings
    v["expand.matchings"] = matchings
    v["expand.terms"] = noted("expand.expand")
    v["expand.candidates_per_matching"] = _ratio(candidates, matchings)
    per_call = Counter(t.parent[i] for i in table.spans("graph.is_connected")
                       if group(i) and under(ENUMERATE)(i))
    from orbidegen import expand

    budget = getattr(expand, "_CANDIDATE_BUDGET", None)
    v["expand.budget_used_ratio"] = _ratio(max(per_call.values(), default=0), budget or 0)

    offered = count("graph.validate", under(POSET))
    invalid = count("graph.validate", lambda i: under(POSET)(i) and t.notes[i] == 1)
    nodes = noted(POSET, lambda note: note[0])
    v["graph.poset.candidates"] = offered
    v["graph.poset.invalid"] = invalid
    v["graph.poset.duplicates"] = offered - invalid - nodes
    v["graph.poset.nodes"] = nodes
    v["graph.poset.candidates_per_node"] = _ratio(offered, nodes)
    v["graph.poset.incomplete"] = noted(POSET, lambda note: 1 - note[1])

    groups = count("inertia.FiniteGroupTable.cyclic") + count("inertia.FiniteGroupTable.from_rows")
    v["inertia.validate_per_group"] = _ratio(v["inertia.FiniteGroupTable.validate.calls"], groups)

    iterations = noted("glue.correct")
    v["glue.correct.iterations"] = iterations
    jacobians = count("glue.FredholmSystem.jacobian",
                      lambda i: table.has_ancestor(i, "glue.correct"))
    v["glue.jacobian_per_correct_iteration"] = _ratio(jacobians, iterations)
    return v


def per_layer(table, traced: list[dict], ref: list[dict], runner, spawn: list[float],
              crosscheck: dict, glue_ops) -> tuple[dict, list[str], list[str]]:
    """Per-layer values of the run, report lines, and cross-check mismatches."""
    t = table.tracer
    n = len(traced)
    values = span_values(table, lambda i: 1 if t.op[i] == SETUP_OP else 2, n)

    children = [(name, info) for op_id, name, info in runner.child_info if op_id >= 0]
    values["cli.spawn_ms"] = statistics.median(spawn) * 1000
    values["cli.import_ms"] = (statistics.median(info["import_s"] for _, info in children) * 1000
                               if children else 0.0)
    values["cli.numpy_loaded_exact_ops"] = sum(
        1 for name, info in children if info["numpy_loaded"] and name not in glue_ops) / n
    traced_norm = statistics.median(sum(p["norms"]) for p in traced)
    ref_norm = statistics.median(sum(p["norms"]) for p in ref)
    values["trace.overhead_ratio"] = traced_norm / ref_norm - 1

    report = [f"traced passes: {n}, median {traced_norm:.3f} normalized s; untraced "
              f"reference passes: {len(ref)}, median {ref_norm:.3f} normalized s; "
              f"{len(t.start)} spans"]
    mismatches = []
    for op_name, expected in crosscheck.items():
        ids = [op_id for op_id, name in runner.op_ids.items() if name == op_name and op_id >= 0]
        if not ids:
            continue
        first = min(ids)
        got = span_values(table, lambda i: 1 if t.op[i] == first else 0)
        for key, value in expected.items():
            status = "ok" if got[key] == value else "MISMATCH"
            report.append(f"crosscheck {op_name} {key} = {got[key]:g} "
                          f"(expected {value}) {status}")
            if got[key] != value:
                mismatches.append(f"{op_name}: {key}={got[key]:g}, expected {value}")
    return values, report, mismatches
