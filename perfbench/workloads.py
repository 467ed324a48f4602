"""The three benchmark workloads: seeded inputs, ops and output checks.

Every workload is a closed loop with one caller: a researcher's script (or
shell) that issues one operation, waits for the answer, then issues the
next.  A pass runs the workload's fixed op list once; the runner repeats
passes for the measuring time.

The seed draws the inputs.  The structure of every rung (menu, genus,
insertion count, node and vertex caps, class bounds) is fixed, so that runs
on different seeds do the same amount of work; the seed draws every label
name, the descendant indices, the betti tables and twist weights of the
generated profiles, and the op order of each pass.  Label names are drawn
order-preserving (sorted random names replace the sorted canonical ones), so
every comparison the enumerators make between labels comes out the same and
the output under any seed, with the names mapped back, equals the output
under the canonical names.  That lets one set of committed references check
every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench"
REFS = BENCH / "refs.json"
DEFAULT_SEED = 0
SCHEMA = "orbi-degen/1"
NAME_RE = re.compile(r"\b[a-z]{8}\b")
RESERVED = {"absolute", "relative"}  # eight-letter words the outputs contain


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def draw_names(labels: set[str], rng: random.Random, seed: int) -> dict[str, str]:
    """Order-preserving renaming of `labels`; the identity for the default seed."""
    ordered = sorted(labels)
    if seed == DEFAULT_SEED:
        return {label: label for label in ordered}
    names: set[str] = set()
    while len(names) < len(ordered):
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))
        if name not in RESERVED:
            names.add(name)
    return dict(zip(ordered, sorted(names)))


def map_back(text: str, names: dict[str, str]) -> str:
    inverse = {new: old for old, new in names.items() if new != old}
    if not inverse:
        return text
    return NAME_RE.sub(lambda m: inverse.get(m.group(), m.group()), text)


@dataclass
class Op:
    """One operation of a pass.

    call() returns (wall_s, cpu_s, output): the op's wall-clock latency, the
    CPU time it used, and its output.  verify(output) returns a digest of the
    output and a problem description, or None when the output is correct;
    results(output) counts the unique results the op produced.
    """

    name: str
    call: Callable[[], tuple[float, float, Any]]
    verify: Callable[[Any], tuple[str, str | None]]
    results: Callable[[Any], int]


def timed(fn: Callable[[], Any]) -> Callable[[], tuple[float, float, Any]]:
    def call():
        c0, t0 = time.process_time(), time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, time.process_time() - c0, out
    return call


def load_refs() -> dict:
    return json.loads(REFS.read_text(encoding="utf-8"))


def check_digest(expected: dict | None, digest: str, counts: dict) -> str | None:
    if expected is None:
        return "no committed reference"
    for key, value in counts.items():
        if expected.get(key) != value:
            return f"{key}={value}, reference {expected.get(key)}"
    if expected["sha256"] != digest:
        return f"digest {digest[:12]} differs from reference {expected['sha256'][:12]}"
    return None


# ====================================================================== expand

# (name, menu, genus, absolute insertions, max_nodes, z_total); effective
# classes are 0..3 throughout, both sides of the splitting carry class (z).
EXPAND_RUNGS = [
    ("roadmap_smooth_g0_m2_n3_z3", "smooth", 0, 2, 3, 3),
    ("smooth_g0_m0_n1_z2", "smooth", 0, 0, 1, 2),
    ("smooth_g0_m0_n2_z2", "smooth", 0, 0, 2, 2),
    ("smooth_g0_m1_n2_z2", "smooth", 0, 1, 2, 2),
    ("smooth_g0_m0_n3_z3", "smooth", 0, 0, 3, 3),
    ("smooth_g0_m1_n3_z3", "smooth", 0, 1, 3, 3),
    ("smooth_g0_m3_n2_z3", "smooth", 0, 3, 2, 3),
    ("smooth_g1_m0_n2_z3", "smooth", 1, 0, 2, 3),
    ("smooth_g1_m1_n2_z2", "smooth", 1, 1, 2, 2),
    ("smooth_g1_m1_n2_z3", "smooth", 1, 1, 2, 3),
    ("smooth_g1_m0_n3_z3", "smooth", 1, 0, 3, 3),
    ("smooth_g1_m3_n2_z2", "smooth", 1, 3, 2, 2),
    ("z2_g0_m0_n2_z3", "z2", 0, 0, 2, 3),
    ("z2_g0_m1_n2_z2", "z2", 0, 1, 2, 2),
    ("z2_g0_m2_n2_z1", "z2", 0, 2, 2, 1),
    ("z2_g0_m2_n2_z3", "z2", 0, 2, 2, 3),
    ("z2_g0_m0_n3_z3", "z2", 0, 0, 3, 3),
    ("z2_g0_m1_n3_z2", "z2", 0, 1, 3, 2),
    ("z2_g1_m0_n2_z2", "z2", 1, 0, 2, 2),
    ("z3_g0_m0_n3_z1", "z3", 0, 0, 3, 1),
    ("z3_g0_m1_n2_z2", "z3", 0, 1, 2, 2),
    ("z3_g0_m2_n2_z2", "z3", 0, 2, 2, 2),
    ("z3_g0_m0_n3_z2", "z3", 0, 0, 3, 2),
    ("z3_g0_m1_n3_z2", "z3", 0, 1, 3, 2),
    ("z3_g1_m0_n2_z2", "z3", 1, 0, 2, 2),
]

# monodromy menus and graded dual bases of the divisor sectors (dim_z = 1)
MENUS = {
    "smooth": [("e", 1, "e")],
    "z2": [("e", 1, "e"), ("h", 2, "h")],
    "z3": [("e", 1, "e"), ("hu", 3, "hv")],
}
BASES = {
    "smooth": ([("one", "e", "0"), ("mid", "e", "1"), ("pt", "e", "2")],
               [("one", "pt"), ("mid", "mid")]),
    "z2": ([("one", "e", "0"), ("mid", "e", "1"), ("pt", "e", "2"), ("tw", "h", "1")],
           [("one", "pt"), ("mid", "mid"), ("tw", "tw")]),
    "z3": ([("one", "e", "0"), ("mid", "e", "1"), ("pt", "e", "2"),
            ("up", "hu", "2/3"), ("vp", "hv", "4/3")],
           [("one", "pt"), ("mid", "mid"), ("up", "vp")]),
}
INSERTIONS = ("ia", "ib", "ic")


def expand_labels() -> set[str]:
    labels = set(INSERTIONS)
    for menu in MENUS.values():
        for label, _, inverse in menu:
            labels |= {label, inverse}
    for entries, _ in BASES.values():
        labels |= {label for label, _, _ in entries}
    return labels


def expand_inputs(seed: int) -> dict:
    """The generated document and the label renaming for one seed."""
    rng = rng_for("expand-ladder", seed, "inputs")
    names = draw_names(expand_labels(), rng, seed)
    n = names.__getitem__
    doc = {
        "schema": SCHEMA,
        "homology": [{"name": "line", "rank": 1, "c1": ["3"], "z_pairing": ["1"],
                      "effective": [[c] for c in range(4)]}],
        "basis": [
            {"name": f"basis_{kind}", "dim_z": 1,
             "entries": [{"label": n(lb), "sector": n(sec), "degree": deg}
                         for lb, sec, deg in entries],
             "duality": [[n(a), n(b)] for a, b in duality]}
            for kind, (entries, duality) in BASES.items()],
        "scenarios": [
            {"name": name, "homology": "line", "basis": f"basis_{menu}",
             "genus": genus, "z_total": str(z),
             "absolute": [{"label": n(INSERTIONS[i]), "descendant": rng.randrange(3)}
                          for i in range(m)],
             "splittings": [[[z], [z]]], "max_nodes": nodes,
             "monodromy_menu": [{"label": n(lb), "order": order, "inverse": n(inv)}
                                for lb, order, inv in MENUS[menu]]}
            for name, menu, genus, m, nodes, z in EXPAND_RUNGS],
    }
    return {"documents": {"expand.json": json.dumps(doc, indent=1)}, "names": names}


def expand_ops(seed: int) -> list[Op]:
    from orbidegen import expand, io

    inputs = expand_inputs(seed)
    names = inputs["names"]
    doc = io.load_document(inputs["documents"]["expand.json"])
    refs = load_refs()["expand-ladder"]
    ops = []
    for name, *_ in EXPAND_RUNGS:
        scenario = doc.scenarios[name]
        hname, bname = doc.scenario_context[name]
        homology, basis = doc.homology[hname], doc.basis[bname]

        def run(scenario=scenario, basis=basis, homology=homology):
            return expand.expand(scenario, basis, homology)

        def verify(terms, name=name):
            records = sorted(map_back(expand.term_record(t), names) for t in terms)
            digest = sha256("\n".join(records))
            return digest, check_digest(refs.get(name), digest, {"terms": len(terms)})

        ops.append(Op(name, timed(run), verify, len))
    return ops


# ====================================================================== poset

# (name, table, genus, class, tails, max_vertices, max_levels, edge menu,
#  contact cap); tails are (kind, monodromy, contact)
REL = "relative"
ABS = "absolute"
T11 = [(REL, "e", "1/1"), (REL, "e", "1/1")]
TZ2 = [(REL, "h", "1/2"), (REL, "h", "3/2")]
POSET_CASES = [
    ("roadmap_g1_v3", "triv", 1, 2, T11 + [(ABS, "e", None)], 3, 1, ["e"], None),
    ("roadmap_g2_v3", "triv", 2, 2, T11 + [(ABS, "e", None)], 3, 1, ["e"], None),
    ("triv_g0_v2", "triv", 0, 2, T11, 2, 1, ["e"], None),
    ("triv_g0_v3", "triv", 0, 2, T11, 3, 1, ["e"], None),
    ("triv_g0_v4", "triv", 0, 2, T11, 4, 1, ["e"], None),
    ("triv_g0_v3_c3", "triv", 0, 3, [(REL, "e", "1/1"), (REL, "e", "2/1")], 3, 1, ["e"], None),
    ("triv_g1_v2", "triv", 1, 2, T11 + [(ABS, "e", None)], 2, 1, ["e"], None),
    ("triv_g1_v2_rel", "triv", 1, 2, T11, 2, 1, ["e"], None),
    ("triv_g2_v2", "triv", 2, 2, T11 + [(ABS, "e", None)], 2, 1, ["e"], None),
    ("z2_g0_v2", "z2", 0, 2, TZ2, 2, 1, ["e", "h"], None),
    ("z2_g0_v3", "z2", 0, 2, TZ2, 3, 1, ["e", "h"], None),
    ("z2_g1_v2", "z2", 1, 2, TZ2 + [(ABS, "h", None)], 2, 1, ["e", "h"], None),
    ("z2grp_g0_v2", "z2grp", 0, 2, [(REL, "c1", "1/2"), (REL, "c1", "3/2")], 2, 1,
     ["c0", "c1"], None),
    ("z2grp_g0_v3", "z2grp", 0, 2, [(REL, "c1", "1/2"), (REL, "c1", "3/2")], 3, 1,
     ["c0", "c1"], None),
    ("lvl2_triv_g0_v2_k1", "triv", 0, 2, T11, 2, 2, ["e"], 1),
    ("lvl2_triv_g0_v2_k2", "triv", 0, 2, T11, 2, 2, ["e"], 2),
    ("lvl2_triv_g0_v3_k2", "triv", 0, 2, T11, 3, 2, ["e"], 2),
    ("lvl2_triv_g1_v2_k2", "triv", 1, 2, T11 + [(ABS, "e", None)], 2, 2, ["e"], 2),
    ("lvl2_z2_g0_v2_k1", "z2", 0, 2, TZ2, 2, 2, ["e", "h"], 1),
    ("lvl2_z2_g0_v2_k2", "z2", 0, 2, TZ2, 2, 2, ["e", "h"], 2),
]
POSET_LABELS = {"e", "h"}  # the group-derived table keeps its c0, c1 labels


def poset_inputs(seed: int) -> dict:
    rng = rng_for("poset-ladder", seed, "inputs")
    names = draw_names(POSET_LABELS, rng, seed)

    def n(label):
        return names.get(label, label)

    doc = {
        "schema": SCHEMA,
        "groups": [{"name": "cyclic2", "cyclic": 2}],
        "classes": [
            {"name": "triv", "labels": [{"label": n("e"), "order": 1, "inverse": n("e")}]},
            {"name": "z2", "labels": [{"label": n("e"), "order": 1, "inverse": n("e")},
                                      {"label": n("h"), "order": 2, "inverse": n("h")}]},
            {"name": "z2grp", "group": "cyclic2"},
        ],
        "homology": [{"name": f"line{top}", "rank": 1, "c1": ["3"], "z_pairing": ["1"],
                      "effective": [[c] for c in range(top + 1)]} for top in (2, 3)],
        "graphs": [
            {"name": name, "homology": f"line{max(2, cls)}", "classes": table,
             "vertices": [{"genus": genus, "class": [cls], "level": 0}], "edges": [],
             "tails": [{"vertex": 0, "kind": kind, "monodromy": n(mono),
                        **({"contact": contact} if contact else {})}
                       for kind, mono, contact in tails]}
            for name, table, genus, cls, tails, *_ in POSET_CASES],
    }
    bounds = {name: {"max_vertices": mv, "max_levels": levels,
                     "edge_monodromies": [n(x) for x in menu],
                     "max_edge_contact_numerator": cap}
              for name, _, _, _, _, mv, levels, menu, cap in POSET_CASES}
    return {"documents": {"poset.json": json.dumps(doc, indent=1)}, "names": names,
            "bounds": bounds}


def poset_ops(seed: int) -> list[Op]:
    from orbidegen import graph, io

    inputs = poset_inputs(seed)
    names = inputs["names"]
    doc = io.load_document(inputs["documents"]["poset.json"])
    refs = load_refs()["poset-ladder"]
    ops = []
    for name, *_ in POSET_CASES:
        g = doc.graphs[name]
        hname, cname = doc.graph_context[name]
        homology, table = doc.homology[hname], doc.classes[cname]
        b = inputs["bounds"][name]
        bounds = graph.PosetBounds(b["max_vertices"], b["max_levels"],
                                   tuple(b["edge_monodromies"]),
                                   b["max_edge_contact_numerator"])
        args = (graph.genus(g), graph.total_class(g), g.tails, homology, table, bounds)

        def run(args=args):
            poset = graph.stratification_poset(*args)
            return poset, [graph.automorphism_order(node) for node in poset.nodes]

        def verify(out, name=name):
            poset, auts = out
            lines = [f"{graph.encode(node)!r} aut={aut}" for node, aut in zip(poset.nodes, auts)]
            lines.append(f"covers={list(poset.covers)!r} complete={poset.complete}")
            digest = sha256(map_back("\n".join(lines), names))
            counts = {"nodes": len(poset.nodes), "covers": len(poset.covers)}
            return digest, check_digest(refs.get(name), digest, counts)

        ops.append(Op(name, timed(run), verify, lambda out: len(out[0].nodes)))
    return ops


# ====================================================================== cli-mix

DATA = "demos/data"
GOLDEN = ROOT / "tests" / "golden"

# (op name, argv, golden file or None); every subcommand on the shipped inputs
CLI_DEMOS = [
    ("sectors_z3", ["sectors", "--in", f"{DATA}/ex_z3.json"], "sectors_z3.txt"),
    ("sectors_z3_json", ["sectors", "--in", f"{DATA}/ex_z3.json", "--json"], "sectors_z3.json"),
    ("sectors_s3", ["sectors", "--in", f"{DATA}/ex_s3.json"], "sectors_s3.txt"),
    ("partitions", ["partitions", "--total", "2", "--orders", "2,2"], "partitions_2_22.txt"),
    ("partitions_json", ["partitions", "--total", "2", "--orders", "2,2", "--json"],
     "partitions_2_22.json"),
    ("graphs_validate", ["graphs", "validate", "--in", f"{DATA}/graphs.json",
                         "--graph", "two_level", "--json"], "graphs_validate.json"),
    ("graphs_genus", ["graphs", "genus", "--in", f"{DATA}/graphs.json",
                      "--graph", "two_level"], None),
    ("graphs_contract", ["graphs", "contract", "--in", f"{DATA}/graphs.json",
                         "--graph", "two_level", "--level", "0", "--dot"], "graphs_contract.dot"),
    ("graphs_poset", ["graphs", "poset", "--in", f"{DATA}/graphs.json", "--graph", "gmax",
                      "--max-vertices", "2", "--dot"], "graphs_poset.dot"),
    ("dim_virdim", ["dim", "virdim", "--flavor", "relative-orbifold", "--n", "2",
                    "--genus", "0", "--c1a", "3", "--rel", "3/2:1/2:h", "--za", "3/2"],
     "dim_virdim.txt"),
    ("dim_ledger", ["dim", "ledger", "--in", f"{DATA}/ledger_smooth.json", "--json"],
     "dim_ledger.json"),
    ("expand_smooth1", ["expand", "--in", f"{DATA}/smooth1.json",
                        "--scenario", "smooth_one_node", "--json"], "expand_smooth1.json"),
    ("expand_dup", ["expand", "--in", f"{DATA}/smooth1.json", "--scenario", "dup_insertion"],
     "expand_dup.txt"),
    ("glue_sphere", ["glue", "demo", "sphere", "--scale", "1.05"], None),
    ("glue_node", ["glue", "demo", "node", "--tau", "0.25"], None),
    ("glue_linear", ["glue", "demo", "linear"], None),
]
GLUE_OPS = {"glue_sphere", "glue_node", "glue_linear"}
# generated profile documents: cyclic groups up to the order-64 table cap and
# one non-abelian table, the dihedral group of order 2n = 32
CLI_PROFILES = [("cyclic", 8), ("cyclic", 16), ("cyclic", 24), ("cyclic", 32),
                ("cyclic", 40), ("cyclic", 64), ("dihedral", 16)]
FLOAT_RE = re.compile(rb"[-+]?\d+\.\d+(?:e[-+]?\d+)?")


def _betti(dim: int, mult: int, top: int = 1) -> dict[str, int]:
    if dim == 0:
        return {"0": mult}
    if dim == 1:
        return {"0": mult, "2": mult}
    return {"0": 1, "2": mult, "4": top}


def cyclic_profile(n: int, rng: random.Random, name: str) -> tuple[dict, list[tuple]]:
    """Z_n acting on C^2 with weights (1, a); sector j is the class c_j = {j}."""
    a = rng.randrange(1, n)
    mults = {}
    sectors = []
    for j in range(n):
        pair = min(j, (n - j) % n)
        mults.setdefault(pair, rng.randrange(1, 4))
        rotations = (Fraction(j, n), Fraction(a * j % n, n))
        dim = 2 - sum(1 for r in rotations if r)
        sectors.append((f"c{j}", rotations, _betti(dim, mults[pair])))
    doc = {"schema": SCHEMA, "groups": [{"name": f"{name}_g", "cyclic": n}],
           "profiles": [_profile_entry(name, f"{name}_g", sectors)]}
    return doc, sectors


def dihedral_profile(n: int, rng: random.Random, name: str) -> tuple[dict, list[tuple]]:
    """D_n of order 2n: index i < n is r^i, index n + i is s r^i.

    Classes in the package's order (identity first, then by least member):
    {r^i, r^-i} for 1 <= i <= n/2, then the reflections (one class for odd n,
    the even and odd ones for even n).  Rotations act by (i/n, 1 - i/n) and
    reflections by (0, 1/2).
    """
    rows = []
    for x in range(2 * n):
        row = []
        for y in range(2 * n):
            a, b = x % n, y % n
            if x < n and y < n:
                row.append((a + b) % n)
            elif x < n:
                row.append(n + (b - a) % n)
            elif y < n:
                row.append(n + (a + b) % n)
            else:
                row.append((b - a) % n)
        rows.append(row)
    sectors = [("c0", (Fraction(0), Fraction(0)), _betti(2, rng.randrange(0, 4)))]
    for i in range(1, n // 2 + 1):
        sectors.append((f"c{i}", (Fraction(i, n), Fraction(n - i, n)),
                        _betti(0, rng.randrange(1, 4))))
    for _ in range(1 if n % 2 else 2):
        sectors.append((f"c{len(sectors)}", (Fraction(0), Fraction(1, 2)),
                        _betti(1, rng.randrange(1, 4))))
    doc = {"schema": SCHEMA, "groups": [{"name": f"{name}_g", "table": rows, "identity": 0}],
           "profiles": [_profile_entry(name, f"{name}_g", sectors)]}
    return doc, sectors


def _profile_entry(name: str, group: str, sectors: list[tuple]) -> dict:
    return {"name": name, "group": group, "ambient_dim": 2,
            "sectors": [{"class": label, "rotations": [str(r) for r in rotations],
                         "betti": betti} for label, rotations, betti in sectors]}


def expected_sectors_json(name: str, sectors: list[tuple]) -> bytes:
    """Independent oracle for `sectors --json` on a generated profile."""
    rows, poly = [], {}
    for label, rotations, betti in sectors:
        shift = sum(rotations, Fraction(0))
        rows.append({"class": label, "shift": str(shift),
                     "sector_dim": 2 - sum(1 for r in rotations if r),
                     "rotations": [str(r) for r in rotations]})
        for degree, mult in betti.items():
            if mult:
                key = Fraction(int(degree)) + 2 * shift
                poly[key] = poly.get(key, 0) + mult
    payload = {"schema": SCHEMA, "profiles": [{
        "name": name, "ambient_dim": 2, "sectors": rows,
        "cr_poincare": [{"degree": str(d), "multiplicity": m} for d, m in sorted(poly.items())],
        "pairing_ok": True, "pairing_violations": []}]}
    text = json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    return text.encode("utf-8")


def cli_inputs(seed: int) -> dict:
    rng = rng_for("cli-mix", seed, "inputs")
    documents, oracles = {}, {}
    for kind, n in CLI_PROFILES:
        op = f"sectors_{'z' if kind == 'cyclic' else 'd'}{n}"
        name = draw_names({"profile"}, rng, seed)["profile"]
        make = cyclic_profile if kind == "cyclic" else dihedral_profile
        doc, sectors = make(n, rng, name)
        documents[f"{op}.json"] = json.dumps(doc)
        oracles[op] = expected_sectors_json(name, sectors)
    return {"documents": documents, "oracles": oracles}


def numbers_close(out: bytes, ref: bytes) -> bool:
    """Equal up to float tokens, which may differ by 1e-9 relative plus 1e-12."""
    if FLOAT_RE.sub(b"#", out) != FLOAT_RE.sub(b"#", ref):
        return False
    for a, b in zip(FLOAT_RE.findall(out), FLOAT_RE.findall(ref)):
        x, y = float(a), float(b)
        if abs(x - y) > 1e-9 * max(abs(x), abs(y)) + 1e-12:
            return False
    return True


@dataclass
class CliOutput:
    stdout: bytes
    returncode: int


class CliRunner:
    """Spawns one child per op through the benchmark's bootstrap.

    `python -m orbidegen.cli` exits 0 with no output (cli.py has no
    __main__ guard), so the bootstrap calls orbidegen.cli.main explicitly.
    """

    def __init__(self, trace_dir: Path | None = None) -> None:
        self.trace_dir = trace_dir
        self.trace_files: list[Path] = []
        self.peak_rss_kb = 0

    def spawn(self, argv: list[str]) -> tuple[float, float, CliOutput]:
        """Wall time from spawn to the last stdout byte, child CPU time, output."""
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE", None)
        if self.trace_dir is not None:
            path = self.trace_dir / f"child-{len(self.trace_files)}.json"
            self.trace_files.append(path)
            env["PERFBENCH_TRACE"] = str(path)
        err_path = SCRATCH / "child.stderr"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(BENCH / "cli_child.py"), *argv],
                                    cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
            chunks = []
            last = None
            while True:
                chunk = proc.stdout.read1(65536)
                if not chunk:
                    break
                last = time.perf_counter()
                chunks.append(chunk)
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            end = last if last is not None else time.perf_counter()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return (end - t0, usage.ru_utime + usage.ru_stime,
                CliOutput(b"".join(chunks), proc.returncode))


def cli_ops(seed: int, runner: CliRunner) -> list[Op]:
    from orbidegen import io

    inputs = cli_inputs(seed)
    in_dir = SCRATCH / "inputs" / f"cli-mix-{seed}"
    in_dir.mkdir(parents=True, exist_ok=True)
    for filename, text in inputs["documents"].items():
        (in_dir / filename).write_text(text, encoding="utf-8")
        io.load_document(text)
    refs = load_refs()["cli-mix"]
    ops = []

    def problem_of(out: CliOutput) -> str | None:
        if out.returncode != 0:
            return f"exit code {out.returncode}"
        if not out.stdout:
            return "empty stdout"
        return None

    def demo_problem(stdout: bytes, name: str, golden: str | None) -> str | None:
        ref = refs.get(name, {})
        if golden is not None:
            if stdout != (GOLDEN / golden).read_bytes():
                return f"stdout differs from tests/golden/{golden}"
        elif name in GLUE_OPS:
            if not numbers_close(stdout, ref.get("stdout", "").encode("utf-8")):
                return "stdout differs from the reference beyond float tolerance"
        elif sha256(stdout) != ref.get("sha256"):
            return "stdout digest differs from the reference"
        return None

    for name, argv, golden in CLI_DEMOS:
        def verify(out, name=name, golden=golden):
            return sha256(out.stdout), problem_of(out) or demo_problem(out.stdout, name, golden)

        ops.append(Op(name, lambda argv=argv: runner.spawn(argv), verify, lambda out: 1))

    for filename in inputs["documents"]:
        name = filename[: -len(".json")]
        argv = ["sectors", "--in", str((in_dir / filename).relative_to(ROOT)), "--json"]

        def verify(out, name=name):
            digest = sha256(out.stdout)
            problem = problem_of(out)
            if problem is None and out.stdout != inputs["oracles"][name]:
                problem = "stdout differs from the independently computed sectors report"
            if (problem is None and seed == DEFAULT_SEED
                    and digest != refs.get(name, {}).get("sha256")):
                problem = f"digest {digest[:12]} differs from reference"
            return digest, problem

        ops.append(Op(name, lambda argv=argv: runner.spawn(argv), verify, lambda out: 1))
    return ops


# ====================================================================== registry

@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], dict]
    warmup: str  # op run once, untimed, at the end of set-up
    in_process: bool


WORKLOADS = {
    "expand-ladder": Workload(expand_inputs, "smooth_g0_m0_n1_z2", True),
    "poset-ladder": Workload(poset_inputs, "triv_g0_v3", True),
    "cli-mix": Workload(cli_inputs, "partitions", False),
}


def build_ops(workload: str, seed: int, runner: CliRunner | None = None) -> list[Op]:
    if workload == "expand-ladder":
        return expand_ops(seed)
    if workload == "poset-ladder":
        return poset_ops(seed)
    return cli_ops(seed, runner or CliRunner())
