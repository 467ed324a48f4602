import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

from orbidegen.cli import build_parser, run
from orbidegen.io import load_document

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = ROOT / "tests" / "golden"


def python(*args, timeout=120):
    """Run a fresh interpreter with the source tree first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          cwd=ROOT, timeout=timeout)


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


GOLDEN_COMMANDS = {
    "sectors_z3.txt": ["sectors", "--in", str(DATA / "ex_z3.json")],
    "sectors_z3.json": ["sectors", "--in", str(DATA / "ex_z3.json"), "--json"],
    "sectors_s3.txt": ["sectors", "--in", str(DATA / "ex_s3.json")],
    "partitions_2_22.txt": ["partitions", "--total", "2", "--orders", "2,2"],
    "partitions_2_22.json": ["partitions", "--total", "2", "--orders", "2,2", "--json"],
    "expand_smooth1.json": ["expand", "--in", str(DATA / "smooth1.json"),
                            "--scenario", "smooth_one_node", "--json"],
    "expand_dup.txt": ["expand", "--in", str(DATA / "smooth1.json"),
                       "--scenario", "dup_insertion"],
    # a Z3 menu: three tied nodes of contact 1/3, so coefficients are
    # fractional and |Aut| reaches 6
    "expand_z3.json": ["expand", "--in", str(ROOT / "tests" / "data" / "expand_z3.json"),
                       "--json"],
    "graphs_validate.json": ["graphs", "validate", "--in", str(DATA / "graphs.json"),
                             "--graph", "two_level", "--json"],
    "graphs_poset.dot": ["graphs", "poset", "--in", str(DATA / "graphs.json"),
                         "--graph", "gmax", "--max-vertices", "2", "--dot"],
    "graphs_contract.dot": ["graphs", "contract", "--in", str(DATA / "graphs.json"),
                            "--graph", "two_level", "--level", "0", "--dot"],
    "dim_ledger.json": ["dim", "ledger", "--in", str(DATA / "ledger_smooth.json"),
                        "--json"],
    "dim_virdim.txt": ["dim", "virdim", "--flavor", "relative-orbifold", "--n", "2",
                       "--genus", "0", "--c1a", "3", "--rel", "3/2:1/2:h",
                       "--za", "3/2"],
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS), ids=str)
    def test_matches_golden_and_rerun(self, name):
        argv = GOLDEN_COMMANDS[name]
        rc1, out1, _ = capture(argv)
        rc2, out2, _ = capture(argv)
        assert rc1 == rc2 == 0
        assert out1.encode() == out2.encode()
        assert out1.encode() == (GOLDEN / name).read_bytes()

    def test_dot_escapes_labels_and_quotes_names(self):
        # class labels h"x and a\b, and a graph name that is not a DOT ID
        quotes = ["--in", str(ROOT / "tests" / "data" / "graphs_dot_quotes.json"), "--dot"]
        rc, out, _ = capture(["graphs", "contract", "--edge", "1", *quotes])
        assert rc == 0
        assert out.splitlines() == [
            'graph "two level_contracted" {',
            '  v0 [label="g=0,A=(0),lvl=0"];',
            '  v0 -- v0 [label="(h\\"x)"];',
            "  t0 [shape=point];",
            '  v0 -- t0 [label="(a\\\\b)"];',
            "  t1 [shape=point];",
            '  v0 -- t1 [label="(a\\\\b)"];',
            "}",
        ]
        rc, out, _ = capture(["graphs", "poset", "--max-vertices", "2", *quotes])
        assert rc == 0 and out.startswith('digraph "two level_poset" {\n')

    def test_ledger_without_za_reads_the_contact_sums(self):
        # ledger_smooth.json with both zA members removed
        argv = ["dim", "ledger", "--in", str(ROOT / "tests" / "data" / "ledger_smooth_no_za.json"),
                "--json"]
        rc, out, _ = capture(argv)
        assert rc == 0 and out.encode() == (GOLDEN / "dim_ledger.json").read_bytes()


class TestExitCodes:
    def test_usage_error_is_2(self):
        rc, _, _ = capture(["sectors"])  # missing --in
        assert rc == 2

    def test_unknown_command_is_2(self):
        rc, _, _ = capture(["frobnicate"])
        assert rc == 2

    @pytest.mark.parametrize("command", [["poset"], ["contract", "--level", "0"]],
                             ids=["poset", "contract"])
    def test_dot_and_json_exclude_each_other(self, command):
        rc, out, err = capture(["graphs", *command, "--in", str(DATA / "graphs.json"),
                                "--graph", "two_level", "--dot", "--json"])
        assert rc == 2 and out == ""
        assert "[--dot | --json]" in err
        assert err.endswith("error: argument --json: not allowed with argument --dot\n")

    def test_validation_error_is_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "orbi-degen/1", "groups": [{"name": "g", '
                       '"table": [[0, 1], [1, 1]]}]}')
        rc, _, err = capture(["sectors", "--in", str(bad)])
        assert rc == 1 and "error:" in err

    def test_two_entries_need_a_name(self):
        rc, out, err = capture(["graphs", "validate", "--in", str(DATA / "graphs.json")])
        assert rc == 1 and out == ""
        assert err == "error: document has 2 graphs entries; pass an explicit name\n"

    def test_unreadable_input_is_1(self):
        rc, _, err = capture(["sectors", "--in", "/nonexistent.json"])
        assert rc == 1 and "error:" in err

    def test_malformed_json_diagnoses_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "orbi-degen/1",\n  broken\n}')
        rc, _, err = capture(["sectors", "--in", str(bad)])
        assert rc == 1 and "line 2" in err

    def test_resource_error_is_3(self, tmp_path):
        doc = {
            "schema": "orbi-degen/1",
            "homology": [{"name": "h", "rank": 1, "c1": ["0"], "z_pairing": ["0"],
                          "effective": [[0]]}],
            "graphs": [{"name": "big", "homology": "h",
                        "vertices": [{"genus": 0, "class": [0], "level": 0}] * 13,
                        "edges": [{"kind": "absolute", "ends": [i, i + 1]}
                                  for i in range(12)],
                        "tails": []}],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        rc, _, err = capture(["graphs", "poset", "--in", str(path), "--graph", "big",
                              "--max-vertices", "13"])
        assert rc == 3

    @pytest.mark.parametrize("argv,code,message", [
        (["graphs", "poset", "--in", str(DATA / "graphs.json"), "--graph", "gmax",
          "--max-vertices", "x"], 2, "argument --max-vertices: invalid int value: 'x'"),
        (["partitions", "--total", "2", "--orders", "2,x"], 1,
         "error: --orders[1]: expected an integer, got 'x'"),
    ], ids=["argparse-int", "io-reader"])
    def test_malformed_option_value(self, argv, code, message):
        # argparse reads the int and float options, io's readers the others
        rc, out, err = capture(argv)
        assert (rc, out) == (code, "") and message in err

    def test_invalid_graph_reported(self, tmp_path):
        doc = {
            "schema": "orbi-degen/1",
            "homology": [{"name": "h", "rank": 1, "c1": ["0"], "z_pairing": ["1"],
                          "effective": [[0], [1]]}],
            "graphs": [{"name": "g", "homology": "h",
                        "vertices": [{"genus": 0, "class": [1], "level": 0}],
                        "edges": [], "tails": []}],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = capture(["graphs", "validate", "--in", str(path), "--graph", "g"])
        assert rc == 1 and "tail sum" in out

    def test_graph_without_vertices(self):
        rc, out, _ = capture(["graphs", "validate", "--in",
                              str(ROOT / "tests" / "data" / "graphs_void.json")])
        assert rc == 1
        assert out == "graph void: 1 violation(s)\n  [structure] graph: graph has no vertices\n"


class TestDefaults:
    def test_poset_edge_menu_is_the_order_one_labels(self, tmp_path):
        # a table derived from a group has labels c0, c1, ...; no "e"
        doc = json.loads((DATA / "graphs.json").read_text())
        doc["groups"] = [{"name": "z2", "cyclic": 2}]
        doc["classes"] = [{"name": "z2div", "group": "z2"}]
        for tail in doc["graphs"][0]["tails"]:
            tail["monodromy"] = "c0"
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        argv = ["graphs", "poset", "--in", str(path), "--graph", "gmax", "--max-vertices", "3"]
        rc, out, err = capture(argv)
        assert rc == 0 and err == ""
        assert capture(argv + ["--edge-monodromies", "c0"]) == (0, out, "")

    def test_poset_default_menu_matches_the_library(self, tmp_path):
        # the command leaves the default menu to PosetBounds
        from orbidegen.graph import PosetBounds, genus, stratification_poset, total_class

        doc = json.loads((DATA / "graphs.json").read_text())
        doc["groups"] = [{"name": "z2", "cyclic": 2}]
        doc["classes"] = [{"name": "z2div", "group": "z2"}]
        for tail in doc["graphs"][0]["tails"]:
            tail["monodromy"] = "c0"
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        rc, out, err = capture(["graphs", "poset", "--in", str(path), "--graph", "gmax",
                                "--max-vertices", "3", "--json"])
        assert rc == 0 and err == ""
        loaded = load_document(path.read_text())
        g = loaded.graphs["gmax"]
        poset = stratification_poset(genus(g), total_class(g), g.tails, loaded.homology["line"],
                                     loaded.classes["z2div"], PosetBounds(max_vertices=3))
        report = json.loads(out)
        assert report["nodes"] == len(poset.nodes)
        assert report["covers"] == [list(c) for c in poset.covers]

    @pytest.mark.parametrize("argv,spelled", [
        (["graphs", "poset", "--in", str(DATA / "graphs.json"), "--graph", "gmax"],
         ["--max-vertices", "2", "--max-levels", "1"]),
        (["glue", "demo", "node"], ["--tau", "0.25"]),
        (["glue", "demo", "sphere"], ["--scale", "1"]),
    ], ids=["poset", "glue-node", "glue-sphere"])
    def test_omitted_option_is_the_library_default(self, argv, spelled):
        # the command passes only the options given
        rc, out, err = capture(argv)
        assert rc == 0 and err == ""
        assert capture(argv + spelled) == (0, out, "")

    def test_expand_node_count_bounded_by_z_total(self):
        # a million-node cap adds nothing past z_total * (largest menu order)
        # nodes, here 2, and runs at once
        argv = ["expand", "--in", str(ROOT / "tests" / "data" / "expand_many_nodes.json")]
        started = time.perf_counter()
        rc, out, _ = capture(argv)
        assert rc == 0 and time.perf_counter() - started < 1
        doc = json.loads((DATA / "smooth1.json").read_text())
        assert doc["scenarios"][1]["max_nodes"] == 2
        _, two, _ = capture(["expand", "--in", str(DATA / "smooth1.json"),
                             "--scenario", "dup_insertion"])
        assert out.replace("smooth_many_nodes", "dup_insertion") == two


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["ex_z3.json", "ex_s3.json", "smooth1.json",
                                      "graphs.json"])
    def test_document_reparses(self, name):
        text = (DATA / name).read_text()
        doc = load_document(text)
        # emitted JSON reports re-parse to equal in-memory values
        reparsed = load_document(text)
        assert doc.groups.keys() == reparsed.groups.keys()
        assert doc.graphs == reparsed.graphs
        assert doc.scenarios == reparsed.scenarios

    def test_json_reports_are_valid_json(self):
        for name, argv in GOLDEN_COMMANDS.items():
            if name.endswith(".json"):
                _, out, _ = capture(argv)
                payload = json.loads(out)
                assert payload["schema"] == "orbi-degen/1"


class TestGlueDemoDeterminism:
    @pytest.mark.parametrize("model,extra", [
        ("sphere", ["--scale", "1.05"]),
        ("node", ["--tau", "0.25"]),
        ("linear", []),
    ])
    def test_two_runs_byte_identical(self, model, extra):
        argv = ["glue", "demo", model, "--samples", "50", "--probes", "20"] + extra
        rc1, out1, _ = capture(argv)
        rc2, out2, _ = capture(argv)
        assert rc1 == rc2 == 0
        assert out1.encode() == out2.encode()
        assert "constants:" in out1 and "correction" in out1

    def test_diverging_correction_is_reported(self):
        # the correction is a report, not an error: exit 0 with its history
        rc, out, err = capture(["glue", "demo", "sphere", "--scale", "0.3", "--json"])
        assert (rc, err) == (0, "")
        correction = json.loads(out)["correction"]
        assert correction["converged"] is False and len(correction["residual_history"]) == 6


class TestDocumentInvariants:
    def test_duplicate_identifiers_rejected(self, tmp_path):
        doc = {
            "schema": "orbi-degen/1",
            "homology": [
                {"name": "h", "rank": 1, "c1": ["0"], "z_pairing": ["0"],
                 "effective": [[0]]},
                {"name": "h", "rank": 1, "c1": ["0"], "z_pairing": ["0"],
                 "effective": [[0]]},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        rc, _, err = capture(["graphs", "genus", "--in", str(path), "--graph", "x"])
        assert rc == 1 and "duplicate" in err

    def test_unresolved_reference_rejected(self, tmp_path):
        doc = {
            "schema": "orbi-degen/1",
            "graphs": [{"name": "g", "homology": "missing",
                        "vertices": [], "edges": [], "tails": []}],
        }
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(doc))
        rc, _, err = capture(["graphs", "genus", "--in", str(path), "--graph", "g"])
        assert rc == 1 and "missing" in err

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"schema": "other/9"}')
        rc, _, err = capture(["sectors", "--in", str(path)])
        assert rc == 1 and "orbi-degen/1" in err


class TestEntryPoint:
    def test_module_runs_as_script(self):
        proc = python("-m", "orbidegen.cli", "sectors", "--in", "demos/data/ex_z3.json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "sectors_z3.txt").read_bytes()

    # a command in a fresh interpreter: its exit code, the orbidegen modules
    # it loads, and whether numpy and dataclasses were loaded
    LOADED = """
import contextlib, io, sys
from orbidegen.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(code, " ".join(sorted(m.split(".", 1)[1] for m in sys.modules
                            if m.startswith("orbidegen."))), "numpy" in sys.modules,
      "dataclasses" in sys.modules)
"""

    def test_exact_commands_leave_numpy_unloaded(self):
        graphs = ["--in", str(DATA / "graphs.json")]
        # besides its own module of orbidegen.commands (the group, the first word)
        commands = {
            "partitions": (["partitions", "--total", "2", "--orders", "2,2"],
                           "cli contact errors io"),
            "sectors": (["sectors", "--in", str(DATA / "ex_z3.json")],
                        "cli contact errors inertia io"),
            "dim virdim": (GOLDEN_COMMANDS["dim_virdim.txt"], "cli contact dimension errors io"),
            "dim ledger": (["dim", "ledger", "--in", str(DATA / "ledger_smooth.json")],
                           "cli contact dimension errors io"),
            "graphs validate": (["graphs", "validate", *graphs, "--graph", "two_level"],
                                "cli contact errors graph io"),
            "graphs genus": (["graphs", "genus", *graphs, "--graph", "two_level"],
                             "cli contact errors graph io"),
            "graphs contract": (["graphs", "contract", *graphs, "--graph", "two_level",
                                 "--level", "0"], "cli contact errors graph io"),
            "graphs poset": (["graphs", "poset", *graphs, "--graph", "gmax"],
                             "cli contact errors graph io"),
            "expand": (["expand", "--in", str(DATA / "smooth1.json"),
                        "--scenario", "smooth_one_node"], "cli contact errors expand graph io"),
        }
        loaded, expected = {}, {}
        for name, (argv, modules) in commands.items():
            proc = python("-c", self.LOADED, *argv)
            assert proc.returncode == 0, proc.stderr
            loaded[name] = proc.stdout.decode().strip()
            # no other group's handlers: a sectors child loads neither graphs nor glue
            assert [m for m in loaded[name].split() if m.startswith("commands.")] == \
                [f"commands.{argv[0]}"], (name, loaded[name])
            own = sorted([*modules.split(), "commands", f"commands.{argv[0]}"])
            expected[name] = f"0 {' '.join(own)} False False"
        assert loaded == expected

    def test_glue_demo_loads_numpy_but_not_dataclasses(self):
        # the glue records are named tuples like every other record; a text
        # report reads no document, so neither io nor contact is loaded
        proc = python("-c", self.LOADED, "glue", "demo", "linear", "--probes", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().strip() == \
            "0 cli commands commands.glue errors glue True False"
        # --json writes io's deterministic JSON
        proc = python("-c", self.LOADED, "glue", "demo", "linear", "--probes", "0", "--json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().strip() == \
            "0 cli commands commands.glue contact errors glue io True False"

    def test_module_entry_point_loads_cli_once(self):
        # `python -m orbidegen.cli` runs cli as __main__ (as run_module does
        # here) and registers no orbidegen.cli; a command module importing
        # orbidegen.cli would compile and run cli a second time
        script = """
import runpy, sys
sys.argv = ["orbidegen", "sectors", "--in", "demos/data/ex_z3.json"]
try:
    runpy.run_module("orbidegen.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print("orbidegen.cli" in sys.modules, code, file=sys.stderr)
"""
        proc = python("-c", script)
        assert proc.stdout == (GOLDEN / "sectors_z3.txt").read_bytes()
        assert proc.stderr == b"False 0\n"

    def test_package_root_loads_no_submodule(self):
        proc = python("-c", "import sys, orbidegen; "
                            "print([m for m in sys.modules if m.startswith('orbidegen.')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"

    def test_glue_error_type_is_shared(self):
        from orbidegen import errors, glue

        assert glue.NonConvergenceError is errors.NonConvergenceError


VIRDIM = ["dim", "virdim", "--flavor", "relative-orbifold", "--n", "2", "--genus", "0"]
POSET = ["graphs", "poset", "--in", str(DATA / "graphs.json"), "--graph", "gmax"]
DEEP_POSET = ["graphs", "poset", "--in",
              str(ROOT / "tests" / "data" / "graphs_gmax_genus1200.json")]


class TestMalformedInputExits1:
    def run_on(self, tmp_path, text, argv):
        path = tmp_path / "doc.json"
        path.write_text(text)
        rc, out, err = capture(argv + ["--in", str(path)])
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        return err

    def test_ledger_top_level_array(self, tmp_path):
        err = self.run_on(tmp_path, "[1, 2]", ["dim", "ledger"])
        assert "JSON object" in err

    def test_ledger_spec_without_flavor(self, tmp_path):
        raw = json.loads((DATA / "ledger_smooth.json").read_text())
        del raw["plus"]["flavor"]
        err = self.run_on(tmp_path, json.dumps(raw), ["dim", "ledger"])
        assert "plus" in err and "'flavor'" in err

    def test_genus_edge_endpoint_out_of_range(self, tmp_path):
        doc = {
            "schema": "orbi-degen/1",
            "homology": [{"name": "h", "rank": 1, "c1": ["0"], "z_pairing": ["0"],
                          "effective": [[0]]}],
            "graphs": [{"name": "g", "homology": "h",
                        "vertices": [{"genus": 0, "class": [0], "level": 0}],
                        "edges": [{"kind": "absolute", "ends": [0, 5]}],
                        "tails": []}],
        }
        err = self.run_on(tmp_path, json.dumps(doc), ["graphs", "genus", "--graph", "g"])
        assert "edge 0" in err and "out of range" in err

    @pytest.mark.parametrize("section,entries", [
        ("groups", [1]),
        ("classes", [1]),
        ("classes", [{"name": "c", "labels": [1]}]),
        ("profiles", [1]),
        ("homology", [1]),
        ("graphs", [1]),
        ("basis", [1]),
        ("scenarios", [1]),
        ("scenarios", 1),
    ], ids=["groups", "classes", "classes-labels", "profiles", "homology", "graphs",
            "basis", "scenarios", "scenarios-not-array"])
    def test_non_object_entry(self, tmp_path, section, entries):
        doc = {"schema": "orbi-degen/1", section: entries}
        err = self.run_on(tmp_path, json.dumps(doc), ["sectors"])
        assert section in err

    @pytest.mark.parametrize("section,message", [
        ("groups", "groups[g]: needs 'cyclic' or 'table'"),
        ("classes", "classes[c]: needs 'trivial', 'group', or 'labels'"),
    ], ids=["group", "class-table"])
    def test_entry_without_a_defining_field(self, tmp_path, section, message):
        doc = {"schema": "orbi-degen/1", section: [{"name": section[0]}]}
        err = self.run_on(tmp_path, json.dumps(doc), ["sectors"])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("vertices,message", [
        ([{"genus": 0, "class": [0]}] * 2, "is disconnected; a poset needs a connected graph"),
        ([], "is invalid: [structure] graph: graph has no vertices"),
    ], ids=["disconnected", "no-vertices"])
    def test_poset_needs_a_connected_graph(self, tmp_path, vertices, message):
        doc = {"schema": "orbi-degen/1",
               "homology": [{"name": "h", "rank": 1, "c1": ["0"], "z_pairing": ["0"],
                             "effective": [[0]]}],
               "graphs": [{"name": "g", "homology": "h", "vertices": vertices}]}
        err = self.run_on(tmp_path, json.dumps(doc), ["graphs", "poset", "--graph", "g"])
        assert err == f"error: graph g {message}\n"

    @pytest.mark.parametrize("argv,vertices,message", [
        (["genus"], [], " is malformed: [structure] graph: graph has no vertices"),
        (["contract", "--edge", "0"], [{"genus": 0, "class": [0]}],
         ": edge index 0 out of range"),
        (["contract", "--level", "0"], [{"genus": 0, "class": [0]}],
         ": levels 0 and 1 are not both occupied"),
    ], ids=["genus", "contract-edge", "contract-level"])
    def test_graph_errors_name_the_graph(self, tmp_path, argv, vertices, message):
        doc = {"schema": "orbi-degen/1",
               "homology": [{"name": "h", "rank": 1, "c1": ["0"], "z_pairing": ["0"],
                             "effective": [[0]]}],
               "graphs": [{"name": "g", "homology": "h", "vertices": vertices}]}
        err = self.run_on(tmp_path, json.dumps(doc), ["graphs", *argv, "--graph", "g"])
        assert err == f"error: graph g{message}\n"

    def test_null_cyclic_order(self, tmp_path):
        doc = json.loads((DATA / "ex_z3.json").read_text())
        doc["groups"][0]["cyclic"] = None
        err = self.run_on(tmp_path, json.dumps(doc), ["sectors"])
        assert "groups[z3].cyclic" in err and "integer" in err

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_sectors_pairing_violation(self, tmp_path, extra):
        doc = json.loads((DATA / "ex_z3.json").read_text())
        doc["profiles"][0]["sectors"][1]["betti"] = {"0": 2}
        err = self.run_on(tmp_path, json.dumps(doc), ["sectors", *extra])
        assert err == ("error: pairing shape violated at sector c1: "
                       "betti[0]=2 but inverse sector betti[0]=1\n")

    @pytest.mark.parametrize("rel,term", [
        ("3/2:1/2:h:q", "3/2:1/2:h:q"),
        ("x", "x"),
        ("3/2:1/2:h,x", "x"),
        ("1_0/1", "1_0/1"),
        ("\u0661/2", "\u0661/2"),
    ], ids=["extra-field", "not-a-contact", "second-term", "contact-underscore",
            "contact-arabic-indic"])
    def test_virdim_bad_rel_term(self, rel, term):
        rc, out, err = capture(["dim", "virdim", "--flavor", "relative-orbifold", "--n", "2",
                                "--genus", "0", "--c1a", "3", "--rel", rel])
        assert rc == 1 and out == ""
        assert err.startswith(f"error: --rel term {term!r}:") and "Traceback" not in err

    def test_non_pair_splitting(self, tmp_path):
        doc = json.loads((DATA / "smooth1.json").read_text())
        doc["scenarios"][0]["splittings"] = [1]
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["expand", "--scenario", "smooth_one_node"])
        assert "scenarios[smooth_one_node].splittings[0]" in err

    def test_menu_order_0_is_named(self):
        # the scenario's class table is built on load, where io names the entry
        rc, out, err = capture(["expand", "--in",
                                str(ROOT / "tests" / "data" / "expand_menu_order0.json")])
        assert (rc, out) == (1, "")
        assert err == "error: scenarios[menu_order0]: class 'e' has non-positive order 0\n"

    def test_menu_inverse_not_an_involution_is_named(self, tmp_path):
        doc = json.loads((DATA / "smooth1.json").read_text())
        doc["scenarios"][0]["monodromy_menu"] = [
            {"label": "e", "order": 1, "inverse": "e"},
            {"label": "h", "order": 2, "inverse": "k"},
            {"label": "k", "order": 2, "inverse": "j"}]
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["expand", "--scenario", "smooth_one_node"])
        assert err == ("error: scenarios[smooth_one_node]: "
                       "inverse map is not an involution at class 'h'\n")

    def test_rational_outside_the_documented_forms(self, tmp_path):
        doc = json.loads((DATA / "smooth1.json").read_text())
        doc["scenarios"][0]["z_total"] = "0.5"
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["expand", "--scenario", "smooth_one_node"])
        assert err.startswith("error: scenarios[smooth_one_node].z_total: "
                              "cannot parse rational '0.5'")

    @pytest.mark.parametrize("content,message", [
        (b"[" * 200_000, "error: invalid JSON: "),
        pytest.param(b'{"schema": "orbi-degen/1", "groups": [{"name": "g", "cyclic": '
                     + b"7" * 5000 + b"}]}", "error: invalid JSON: ",
                     marks=pytest.mark.skipif(
                         getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                         reason="this interpreter converts integers of any length")),
        (b"\xff{}", "error: cannot read "),
    ], ids=["nested-too-deep", "too-many-digits", "not-utf8"])
    def test_text_the_decoder_cannot_hold(self, tmp_path, content, message):
        # one stderr line, never a traceback or an unnamed interpreter message
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        rc, out, err = capture(["sectors", "--in", str(path)])
        assert rc == 1 and out == ""
        assert err.startswith(message) and err.count("\n") == 1
        if message == "error: cannot read ":
            assert str(path) in err

    def test_boolean_rational(self, tmp_path):
        doc = json.loads((DATA / "smooth1.json").read_text())
        doc["scenarios"][0]["z_total"] = True
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["expand", "--scenario", "smooth_one_node"])
        assert "scenarios[smooth_one_node].z_total" in err

    @pytest.mark.parametrize("ends", [[0, 1, 1], [1]], ids=["three-ends", "one-end"])
    def test_edge_ends_not_a_pair(self, tmp_path, ends):
        doc = json.loads((DATA / "graphs.json").read_text())
        doc["graphs"][1]["edges"][0]["ends"] = ends
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["graphs", "genus", "--graph", "two_level"])
        assert "graphs[two_level].edges[0].ends" in err and "pair" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,setting", [
        (["sphere", "--scale", "1e200"], "--scale 1e+200"),
        (["node", "--tau", "1e300"], "--tau 1e+300"),
        (["sphere", "--scale", "0"], "--scale 0"),
    ], ids=["sphere-scale", "node-tau", "sphere-scale-zero"])
    def test_glue_demo_out_of_float_range(self, argv, setting):
        rc, out, err = capture(["glue", "demo", *argv])
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"glue demo {argv[0]} {setting}" in err

    @pytest.mark.parametrize("argv", [
        ["sphere", "--scale", "0"],
        ["sphere", "--scale", "1e200"],
        ["node", "--tau", "1e300"],
        ["node", "--tau", "1e300", "--probes", "0"],
    ], ids=["sphere-scale-zero", "sphere-scale", "node-tau", "node-tau-no-probes"])
    def test_glue_demo_out_of_float_range_one_line(self, argv):
        # numpy warnings would reach a child's stderr ahead of the error line
        proc = python("-m", "orbidegen.cli", "glue", "demo", *argv)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 1 and proc.stdout == b""
        assert len(lines) == 1 and lines[0].startswith(f"error: glue demo {argv[0]}")

    @pytest.mark.parametrize("model,option", [
        ("sphere", "--tau"), ("node", "--scale"), ("linear", "--tau"), ("linear", "--scale"),
    ], ids=["sphere-tau", "node-scale", "linear-tau", "linear-scale"])
    def test_glue_demo_refuses_a_setting_its_model_does_not_take(self, model, option):
        rc, out, err = capture(["glue", "demo", model, option, "7", "--probes", "0"])
        assert (rc, out) == (1, "")
        assert err == f"error: glue demo {model} takes no {option}\n"

    @pytest.mark.parametrize("argv,option", [
        (["partitions", "--total", "2", "--orders", "2,x"], "--orders[1]"),
        (["partitions", "--total", "2", "--orders", "2,,2"], "--orders[1]"),
        (["partitions", "--total", "x"], "--total"),
        (["partitions", "--total", "2", "--orders", "1_0,2"], "--orders[0]"),
        (["partitions", "--total", "2", "--orders", "1,\u0662"], "--orders[1]"),
        (["partitions", "--total", "1_000"], "--total"),
        (["partitions", "--total", "\u0661/\u0662"], "--total"),
        (VIRDIM + ["--c1a", "q"], "--c1a"),
        (VIRDIM + ["--c1a", "0.5"], "--c1a"),
        (VIRDIM + ["--c1a", "3", "--za", "x"], "--za"),
        (VIRDIM + ["--c1a", "3", "--za", "1e10000000"], "--za"),
        (VIRDIM + ["--c1a", "3", "--shifts", "1,,2"], "--shifts[1]"),
        (["expand", "--in", str(DATA / "smooth1.json"), "--scenario", "smooth_one_node",
          "--degree", "1/0"], "--degree"),
        (POSET + ["--edge-monodromies", "e,,h"], "--edge-monodromies[1]"),
        (["glue", "demo", "linear", "--probes", "-5"], "--probes"),
        (["glue", "demo", "linear", "--samples", "5"], "--samples"),
        (["glue", "demo", "linear", "--seed", "-1"], "--seed"),
    ], ids=["orders-not-integer", "orders-empty", "total", "orders-underscore",
            "orders-arabic-indic", "total-underscore", "total-arabic-indic", "c1a",
            "c1a-decimal", "za", "za-exponent", "shifts-empty",
            "degree-zero-denominator", "edge-monodromies-empty", "negative-probes",
            "samples-below-floor", "negative-seed"])
    def test_bad_option_value_is_named(self, argv, option):
        rc, out, err = capture(argv)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {option}") and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["sectors", "--in", str(DATA / "ex_s3.json"), "--profile", ""],
         "no profiles entry named ''"),
        (["expand", "--in", str(DATA / "smooth1.json"), "--scenario", "smooth_one_node",
          "--degree", ""], "--degree: cannot parse rational ''"),
        (VIRDIM + ["--c1a", "3", "--rel", "2/1", "--za", ""], "--za: cannot parse rational ''"),
    ], ids=["profile", "degree", "za"])
    def test_empty_option_value_is_not_an_omitted_option(self, argv, message):
        rc, out, err = capture(argv)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("argv, where", [
        (["partitions", "--total", "1/0"], "--total"),
        (VIRDIM + ["--c1a", "3", "--rel", "3/2:1/2:h", "--za", "1/0"], "--za"),
        (VIRDIM + ["--c1a", "3", "--rel", "3/2:1/0:h", "--za", "3/2"], "--rel term '3/2:1/0:h'"),
        (["expand", "--in", str(DATA / "smooth1.json"), "--scenario", "smooth_one_node",
          "--degree", "1/0"], "--degree"),
    ], ids=["total", "za", "rel-shift", "degree"])
    def test_zero_denominator_says_so(self, argv, where):
        rc, out, err = capture(argv)
        assert rc == 1 and out == ""
        assert err == f"error: {where}: cannot parse rational '1/0': zero denominator\n"

    @pytest.mark.parametrize("argv, expected", [
        (["partitions", "--total", "2", "--orders", "", "--json"],
         {"orders": [], "count": 0, "partitions": []}),
        (POSET + ["--edge-monodromies", "", "--json"],
         {"nodes": 1, "covers": [], "complete": True}),
    ], ids=["orders", "edge-monodromies"])
    def test_empty_list_value_is_the_empty_tuple(self, argv, expected):
        # an empty comma list is the empty tuple, not the omitted option's default
        rc, out, err = capture(argv)
        assert rc == 0 and err == ""
        payload = json.loads(out)
        assert {key: payload[key] for key in expected} == expected

    @pytest.mark.parametrize("option", ["--samples", "--probes"])
    def test_glue_count_above_cap_exits_3(self, option):
        # refused before any sampling, so far inside the timeout
        proc = python("-m", "orbidegen.cli", "glue", "demo", "linear", option, "100000000",
                      timeout=30)
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr.decode().startswith(f"error: {option} must be at most 10000")

    @pytest.mark.parametrize("argv,message", [
        (POSET + ["--max-vertices", "7"], "poset enumeration exceeded the candidate budget"),
        (POSET + ["--max-vertices", "12"], "poset enumeration exceeded the candidate budget"),
        (["partitions", "--total", "300", "--orders", "1,1,1,1"],
         "partitions of 300 into 4 slots number more than 100000"),
        (["expand", "--in", str(ROOT / "tests" / "data" / "expand_oversized.json"),
          "--scenario", "g2_m4_n3_z3"],
         "splitting enumeration exceeded the candidate budget (2000000)"),
        (POSET + ["--max-vertices", "2", "--max-levels", "3", "--max-edge-contact", "99999999"],
         "poset enumeration exceeded the candidate budget"),
        (["graphs", "poset", "--in", str(ROOT / "tests" / "data" / "graphs_wide_classes.json"),
          "--graph", "wide", "--max-vertices", "9"],
         "poset enumeration exceeded the candidate budget"),
        (["expand", "--in", str(ROOT / "tests" / "data" / "expand_wide_classes.json")],
         "splitting enumeration exceeded the candidate budget (2000000)"),
        (["partitions", "--total", "1200", "--orders", ",".join(["1"] * 1200)],
         "partitions of 1200 into 1200 slots: more slots than the walk can nest"),
        (["partitions", "--total", "1300", "--orders", ",".join(["1"] * 1200)],
         "partitions of 1300 into 1200 slots: more slots than the walk can nest"),
        (["partitions", "--total", "6", "--orders", ",".join(map(str, range(1, 41)))],
         "partitions of 6 into 40 slots need more than 100000 states to count"),
        # the connected edge walk recurses once per edge
        (DEEP_POSET + ["--max-vertices", "1"],
         "poset enumeration at 1 vertices: 1200 edges per graph, "
         "more than the edge walk can nest\n"),
        (DEEP_POSET + ["--max-vertices", "2"],
         "poset enumeration at 2 vertices: 1201 edges per graph, "
         "more than the edge walk can nest\n"),
    ], ids=["poset-v7", "poset-v12", "partitions-300", "expand-g2-m4",
            "poset-relative-menu", "poset-wide-classes", "expand-wide-classes",
            "partitions-1200-slots", "partitions-1300-into-1200-slots", "partitions-1..40",
            "poset-genus-1200-v1", "poset-genus-1200-v2"])
    def test_oversized_enumeration_exits_3_before_the_work(self, argv, message):
        # counted up front: the walks themselves would take minutes
        started = time.perf_counter()
        rc, out, err = capture(argv)
        assert time.perf_counter() - started < 5
        assert rc == 3 and out == "" and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("tails", [10, 40])
    def test_tail_placements_counted_before_they_are_built(self, tails):
        # gmax at 3 vertices has 4 distinct tail-free graphs; 10 extra absolute
        # tails make 4 x 3^12 canonical searches, 40 make 3^42 placements.
        # The child's address space is capped at 1 GiB, so a walk that builds
        # the placements fails there instead of filling the machine's memory.
        capped = ("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                  "from orbidegen.cli import main; main()")
        path = ROOT / "tests" / "data" / f"graphs_gmax_tails{tails}.json"
        started = time.perf_counter()
        proc = python("-c", capped, "graphs", "poset", "--in", str(path), "--max-vertices", "3",
                      timeout=30)
        assert time.perf_counter() - started < 10
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr.decode() == (
            "error: poset enumeration exceeded the placement budget (2000000): 4 tail-free "
            f"graphs x 3^{tails + 2} tail placements at 3 vertices; tighten the bounds\n")

    @pytest.mark.parametrize("extra,field", [
        (["--max-vertices", "0"], "max_vertices"),
        (["--max-vertices", "-3"], "max_vertices"),
        (["--max-levels", "0"], "max_levels"),
        (["--max-levels", "2", "--max-edge-contact", "0"], "max_edge_contact_numerator"),
    ], ids=["vertices-0", "vertices-negative", "levels-0", "edge-contact-0"])
    def test_poset_bound_below_one(self, extra, field):
        rc, out, err = capture(POSET + extra)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: PosetBounds.{field} must be at least 1")

    def test_levels_need_a_contact_cap(self):
        rc, out, err = capture(POSET + ["--max-levels", "2"])
        assert rc == 1 and out == ""
        assert err.startswith("error: max_edge_contact_numerator is required when max_levels > 1")

    def test_repeated_edge_label_is_named(self):
        rc, out, err = capture(POSET + ["--edge-monodromies", "h,h"])
        assert rc == 1 and out == ""
        assert err == "error: PosetBounds.edge_monodromies[1] repeats label 'h'\n"

    def test_levels_beyond_the_vertices_are_empty(self):
        # contiguous levels never outnumber the vertices, so a huge level cap
        # walks what a cap equal to the vertex count walks
        argv = POSET + ["--max-vertices", "2", "--max-edge-contact", "1", "--max-levels"]
        rc, out, err = capture(argv + ["100000"])
        assert (rc, err) == (0, "")
        assert (rc, out, err) == capture(argv + ["2"])

    def test_negative_genus_is_named(self):
        rc, out, err = capture(VIRDIM[:-1] + ["-5", "--c1a", "3", "--rel", "1/2:1/2:h",
                                              "--za", "1/2"])
        assert rc == 1 and out == ""
        assert err == "error: genus must be non-negative, got -5\n"

    def test_negative_ledger_genus_is_named(self, tmp_path):
        doc = json.loads((DATA / "ledger_smooth.json").read_text())
        doc["minus"]["genus"] = -1
        err = self.run_on(tmp_path, json.dumps(doc), ["dim", "ledger"])
        assert err == "error: minus: genus must be non-negative, got -1\n"

    @pytest.mark.parametrize("spec, key, value, message", [
        ("plus", "n", 0, "ambient dimension must be positive, got 0"),
        ("total", "flavor", "bogus", "unknown flavor 'bogus'"),
    ])
    def test_ledger_spec_errors_name_the_spec(self, tmp_path, spec, key, value, message):
        doc = json.loads((DATA / "ledger_smooth.json").read_text())
        doc[spec][key] = value
        err = self.run_on(tmp_path, json.dumps(doc), ["dim", "ledger"])
        assert err == f"error: {spec}: {message}\n"

    @pytest.mark.parametrize("spec", ["plus", "minus"])
    def test_ledger_refuses_mixed_ambient_dimensions(self, tmp_path, spec):
        # both halves of a degeneration live over the ambient space of the total
        doc = json.loads((DATA / "ledger_smooth.json").read_text())
        doc[spec]["n"] = 3
        err = self.run_on(tmp_path, json.dumps(doc), ["dim", "ledger"])
        assert err == f"error: {spec}: ambient dimension 3 differs from the total's 2\n"

    @pytest.mark.parametrize("change,message", [
        ({"monodromy_menu": []},
         "scenarios[smooth_one_node]: unknown monodromy class 'e': the sector of basis entry "
         "'one' is not on the monodromy menu"),
        ({"z_total": "-2"},
         "scenarios[smooth_one_node]: splitting side + class (2,) pairs to 2, "
         "scenario total is -2"),
        ({"monodromy_menu": [{"label": "e", "order": 1, "inverse": "e"},
                             {"label": "h", "order": 2, "inverse": "h"}]},
         "scenarios[smooth_one_node]: menu class 'h' has no basis entries on its sector"),
    ], ids=["empty-menu", "negative-total", "unsupported-menu-class"])
    def test_expand_checks_before_the_walk_name_the_scenario(self, tmp_path, change, message):
        doc = json.loads((DATA / "smooth1.json").read_text())
        doc["scenarios"][0].update(change)
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["expand", "--scenario", "smooth_one_node"])
        assert err == f"error: {message}\n"

    def test_expand_needs_a_basis_reference(self, tmp_path):
        doc = json.loads((DATA / "smooth1.json").read_text())
        for scenario in doc["scenarios"]:
            del scenario["basis"]
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["expand", "--scenario", "smooth_one_node"])
        assert err == "error: scenario 'smooth_one_node' has no basis reference\n"

    def test_expand_basis_check_names_the_basis(self, tmp_path):
        doc = json.loads((DATA / "smooth1.json").read_text())
        doc["basis"][0]["entries"][2]["degree"] = "3"
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["expand", "--scenario", "smooth_one_node"])
        assert err == ("error: basis[bz3]: dual entries 'one', 'pt' have degrees summing "
                       "to 3, expected 2\n")

    @pytest.mark.parametrize("argv", [
        ["graphs", "genus", "--graph", "two_level_rank2"],
        ["graphs", "contract", "--graph", "two_level_rank2", "--level", "0", "--json"],
    ], ids=["genus", "contract"])
    def test_class_of_wrong_rank_stops_the_graph_commands(self, argv):
        rc, out, err = capture(argv + ["--in", str(ROOT / "tests" / "data" /
                                                 "graphs_wrong_rank.json")])
        assert rc == 1 and out == ""
        assert err == ("error: graph two_level_rank2 is malformed: [structure] vertex 0: "
                       "class (1, 5) has 2 entries, homology rank is 1\n")

    def test_total_class_of_wrong_rank_not_printed(self, tmp_path):
        doc = json.loads((DATA / "graphs.json").read_text())
        doc["graphs"][0]["vertices"][0]["class"] = [2, 0]
        err = self.run_on(tmp_path, json.dumps(doc), ["graphs", "genus", "--graph", "gmax"])
        assert "[structure] vertex 0: class (2, 0) has 2 entries, homology rank is 1" in err

    @pytest.mark.parametrize("change,message", [
        ({"splittings": [[[2], [2, 0]]]},
         "scenarios[smooth_one_node]: splitting 0 side - class (2, 0) has 2 entries, "
         "homology rank is 1"),
        ({"monodromy_menu": [{"label": "e", "order": 1, "inverse": "e"},
                             {"label": "e", "order": 2, "inverse": "e"}]},
         "scenarios[smooth_one_node]: monodromy_menu[1] repeats label 'e'"),
        ({"max_nodes": -1}, "scenarios[smooth_one_node]: max_nodes must be non-negative, got -1"),
        ({"genus": -1}, "scenarios[smooth_one_node]: genus must be non-negative, got -1"),
    ], ids=["splitting-of-wrong-rank", "repeated-menu-label", "negative-max-nodes",
            "negative-genus"])
    def test_bad_scenario_field_is_named(self, tmp_path, change, message):
        doc = json.loads((DATA / "smooth1.json").read_text())
        doc["scenarios"][0].update(change)
        err = self.run_on(tmp_path, json.dumps(doc),
                          ["expand", "--scenario", "smooth_one_node"])
        assert err == f"error: {message}\n"

    def test_unknown_edge_label_names_the_option(self):
        rc, out, err = capture(POSET + ["--edge-monodromies", "e,q"])
        assert rc == 1 and out == ""
        assert err == "error: --edge-monodromies[1]: unknown monodromy class 'q'\n"


SWEEP_COMMANDS = {
    "ex_z3.json": [["sectors"]],
    "ex_s3.json": [["sectors"]],
    "graphs.json": [["graphs", "validate", "--graph", "two_level"],
                    ["graphs", "genus", "--graph", "two_level"],
                    ["graphs", "contract", "--graph", "two_level", "--level", "0"],
                    ["graphs", "poset", "--graph", "gmax"]],
    "smooth1.json": [["expand", "--scenario", "dup_insertion"]],
    "ledger_smooth.json": [["dim", "ledger"]],
}
MISTYPED = (None, [1], {}, "x", 1.5, -1)


def json_paths(node, prefix=()):
    """The key path of every object member and array element, at every depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mistyped_documents(name):
    """Each shipped document with one value replaced by each mistyped value."""
    text = (DATA / name).read_text()
    for path in json_paths(json.loads(text)):
        for value in MISTYPED:
            doc = json.loads(text)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            yield path, value, json.dumps(doc)


class TestMistypedFieldSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_COMMANDS), ids=str)
    def test_no_exception_escapes(self, tmp_path, name):
        path = tmp_path / name
        escaped, runs = [], 0
        for where, value, text in mistyped_documents(name):
            path.write_text(text)
            for argv in SWEEP_COMMANDS[name]:
                runs += 1
                try:
                    rc, _, _ = capture(argv + ["--in", str(path)])
                except Exception as exc:  # noqa: BLE001 - the sweep records every escape
                    escaped.append((argv[0], where, value, type(exc).__name__))
                    continue
                if rc not in (0, 1, 3):
                    escaped.append((argv[0], where, value, f"exit {rc}"))
        assert runs > 100
        assert escaped == []


def demo_document(name, change=None):
    """A shipped document, with `change` applied to its parsed JSON."""
    doc = json.loads((DATA / name).read_text())
    if change is not None:
        change(doc)
    return doc


def sections(name, *keys):
    """Only the named sections of a shipped document, under the schema."""
    doc = demo_document(name)
    return {"schema": doc["schema"], **{key: doc[key] for key in keys}}


def entry(section, index=0, **values):
    """A change that sets `values` on one entry of a section."""
    return lambda doc: doc[section][index].update(values)


NOT_AN_INVOLUTION = [{"label": "e", "order": 1, "inverse": "e"},
                     {"label": "h", "order": 2, "inverse": "k"},
                     {"label": "k", "order": 2, "inverse": "k"}]

# id -> (command, document, part of the one stderr line); each exits 1
FUZZ_CASES = {
    # each section alone, or without the sections it refers to
    "groups-alone": (["sectors"], sections("ex_z3.json", "groups"),
                     "document has no profiles"),
    "class-table-without-groups": (
        ["sectors"], {"schema": "orbi-degen/1", "classes": [{"name": "c", "group": "z3"}]},
        "classes[c]: unknown group 'z3'"),
    "class-table-alone": (["graphs", "validate"], sections("graphs.json", "classes"),
                          "document has no graphs entries"),
    "profiles-without-groups": (["sectors"], sections("ex_z3.json", "profiles"),
                                "profiles[z3_plane]: unknown group 'z3'"),
    "homology-alone": (["graphs", "genus"], sections("graphs.json", "homology"),
                       "document has no graphs entries"),
    "graphs-without-homology": (["graphs", "validate"], sections("graphs.json", "graphs"),
                                "graphs[gmax]: unknown homology model 'line'"),
    "graphs-without-classes": (["graphs", "poset"],
                               sections("graphs.json", "homology", "graphs"),
                               "graphs[gmax]: unknown class table 'z2div'"),
    "basis-alone": (["expand"], sections("smooth1.json", "basis"),
                    "document has no scenarios entries"),
    "scenarios-without-homology": (["expand"], sections("smooth1.json", "scenarios"),
                                   "scenarios[smooth_one_node]: unknown homology model"),
    "scenarios-without-basis": (["expand"], sections("smooth1.json", "homology", "scenarios"),
                                "scenarios[smooth_one_node]: unknown basis 'bz3'"),
    "ledger-without-total": (["dim", "ledger"],
                             sections("ledger_smooth.json", "plus", "minus"),
                             "ledger document needs a 'total' spec"),
    # right type, wrong meaning
    "empty-effective": (["graphs", "poset", "--graph", "gmax"],
                        demo_document("graphs.json", entry("homology", effective=[])),
                        "homology[line]: the zero class must be in the effective list"),
    "repeated-effective": (["graphs", "poset", "--graph", "gmax"],
                           demo_document("graphs.json",
                                         entry("homology", effective=[[0], [1], [1], [2]])),
                           "homology[line]: effective[2] repeats class (1,)"),
    "rank-mismatch": (["graphs", "validate", "--graph", "gmax"],
                      demo_document("graphs.json", entry("homology", rank=2)),
                      "homology[line]: c1 and z_pairing must have length equal to rank"),
    "duplicate-names": (["graphs", "validate", "--graph", "gmax"],
                        demo_document("graphs.json", entry("graphs", 1, name="gmax")),
                        "duplicate identifier 'gmax'"),
    "duplicate-names-across-sections": (
        ["graphs", "validate", "--graph", "gmax"],
        demo_document("graphs.json", entry("homology", name="gmax")),
        "duplicate identifier 'gmax'"),
    "non-involutive-inverse": (
        ["graphs", "poset", "--graph", "gmax"],
        demo_document("graphs.json", entry("classes", labels=NOT_AN_INVOLUTION)),
        "classes[z2div]: inverse map is not an involution at class 'h'"),
    "cyclic-65": (["sectors"], demo_document("ex_z3.json", entry("groups", cyclic=65)),
                  "groups[z3]: group order 65 outside supported range 1..64"),
    "cyclic-10^6": (["sectors"], demo_document("ex_z3.json", entry("groups", cyclic=10**6)),
                    "groups[z3]: group order 1000000 outside supported range 1..64"),
    "empty-sectors": (["sectors"], demo_document("ex_z3.json", entry("profiles", sectors=[])),
                      "profiles[z3_plane]: no sector for the class of 0"),
    "empty-duality": (["expand", "--scenario", "smooth_one_node"],
                      demo_document("smooth1.json", entry("basis", duality=[])),
                      "basis[bz3]: duality does not cover every entry exactly once"),
    "empty-menu": (["expand", "--scenario", "smooth_one_node"],
                   demo_document("smooth1.json", entry("scenarios", monodromy_menu=[])),
                   "unknown monodromy class 'e'"),
    # an entry's form: `trivial` is a JSON true, and one form per entry
    "trivial-not-true": (["graphs", "validate", "--graph", "gmax"],
                         demo_document("graphs.json", lambda doc: doc["classes"].__setitem__(
                             0, {"name": "z2div", "trivial": "no"})),
                         "classes[z2div].trivial: expected true, got 'no'"),
    "trivial-and-labels": (["graphs", "validate", "--graph", "gmax"],
                           demo_document("graphs.json", entry("classes", trivial=[0])),
                           "classes[z2div]: names 'trivial' and 'labels'"),
    "cyclic-and-table": (["sectors"], demo_document("ex_z3.json", entry("groups", table=[[0]])),
                         "groups[z3]: names 'cyclic' and 'table'"),
    # a null member is a value to check, not an omitted one
    "classes-null": (["graphs", "validate", "--graph", "gmax"],
                     demo_document("graphs.json", entry("graphs", classes=None)),
                     "graphs[gmax].classes: expected a string, got None"),
    # a member that no reader takes, here misspelled, is refused
    "vertex-levle": (["graphs", "validate", "--graph", "gmax"],
                     demo_document("graphs.json", lambda doc: doc["graphs"][0]["vertices"][0]
                                   .update(levle=1)),
                     "graphs[gmax].vertices[0]: unknown member 'levle'"),
    "ledger-shift": (["dim", "ledger"],
                     demo_document("ledger_smooth.json",
                                   lambda doc: doc["total"].update(shift=["2/3"])),
                     "total: unknown member 'shift'"),
    "top-level-member": (["graphs", "validate", "--graph", "gmax"],
                         demo_document("graphs.json", lambda doc: doc.update(grahps=[])),
                         "top level: unknown member 'grahps'"),
    "ledger-top-level-member": (["dim", "ledger"],
                                demo_document("ledger_smooth.json",
                                              lambda doc: doc.update(sector_dim=[])),
                                "top level: unknown member 'sector_dim'"),
    "empty-ledger-rel": (["dim", "ledger"],
                         demo_document("ledger_smooth.json",
                                       lambda doc: doc["plus"].update(rel=[])),
                         "plus: relative-smooth spec needs relative insertions"),
}


class TestDocumentFuzz:
    """Each document in a fresh interpreter, so a reader runs with only the
    modules its own sections load: exit 1, one stderr line, no traceback."""

    @pytest.mark.parametrize("case", sorted(FUZZ_CASES))
    def test_one_line_and_a_documented_exit(self, tmp_path, case):
        argv, doc, message = FUZZ_CASES[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        proc = python("-m", "orbidegen.cli", *argv, "--in", str(path), timeout=30)
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert proc.stdout == b"" and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: ") and message in err


def _matrix():
    """(id, argv) for every subcommand on demos/data in each output mode it offers."""
    graphs, smooth = str(DATA / "graphs.json"), str(DATA / "smooth1.json")
    virdim = ["dim", "virdim", "--flavor", "relative-orbifold", "--n", "2", "--genus", "0",
              "--c1a", "3", "--rel", "3/2:1/2:h"]
    poset_wide = ["--max-vertices", "2", "--max-levels", "2", "--edge-monodromies", "e,h",
                  "--max-edge-contact", "2"]
    bases = [
        ("sectors-z3", ["sectors", "--in", str(DATA / "ex_z3.json")], "json"),
        ("sectors-s3", ["sectors", "--in", str(DATA / "ex_s3.json")], "json"),
        ("sectors-s3-profile", ["sectors", "--in", str(DATA / "ex_s3.json"),
                                "--profile", "s3_plane"], "json"),
        ("sectors-missing-profile", ["sectors", "--in", str(DATA / "ex_s3.json"),
                                     "--profile", "nope"], ""),
        *((f"graphs-{cmd}-{g}", ["graphs", cmd, "--in", graphs, "--graph", g], "json")
          for cmd in ("validate", "genus") for g in ("gmax", "two_level")),
        ("graphs-contract-level", ["graphs", "contract", "--in", graphs, "--graph",
                                   "two_level", "--level", "0"], "json dot"),
        ("graphs-contract-edge", ["graphs", "contract", "--in", graphs, "--graph",
                                  "two_level", "--edge", "0"], "json dot"),
        ("graphs-contract-neither", ["graphs", "contract", "--in", graphs, "--graph",
                                     "two_level"], ""),
        ("graphs-poset-gmax", ["graphs", "poset", "--in", graphs, "--graph", "gmax",
                               "--max-vertices", "2"], "json dot"),
        ("graphs-poset-gmax-v3", ["graphs", "poset", "--in", graphs, "--graph", "gmax",
                                  "--max-vertices", "3"], "json"),
        ("graphs-poset-gmax-wide", ["graphs", "poset", "--in", graphs, "--graph", "gmax",
                                    *poset_wide], "json dot"),
        ("graphs-poset-two_level", ["graphs", "poset", "--in", graphs, "--graph",
                                    "two_level"], "json dot"),
        ("dim-virdim", [*virdim, "--za", "3/2"], "json"),
        ("dim-virdim-default-za", virdim, "json"),
        ("dim-virdim-shifts", [*virdim, "--shifts", "1/3,2/3"], "json"),
        ("dim-virdim-smooth", ["dim", "virdim", "--flavor", "absolute-smooth", "--n", "1",
                               "--genus", "1", "--c1a", "2"], "json"),
        ("dim-ledger", ["dim", "ledger", "--in", str(DATA / "ledger_smooth.json")], "json"),
        ("partitions-2-22", ["partitions", "--total", "2", "--orders", "2,2"], "json"),
        ("partitions-3_2-21", ["partitions", "--total", "3/2", "--orders", "2,1"], "json"),
        ("partitions-default-orders", ["partitions", "--total", "2"], "json"),
        *((f"expand-{s}", ["expand", "--in", smooth, "--scenario", s], "json")
          for s in ("smooth_one_node", "dup_insertion")),
        ("expand-degree-1", ["expand", "--in", smooth, "--scenario", "smooth_one_node",
                             "--degree", "1"], "json"),
        ("expand-degree-3", ["expand", "--in", smooth, "--scenario", "smooth_one_node",
                             "--degree", "3"], "json"),
        ("expand-z3", ["expand", "--in", str(ROOT / "tests" / "data" / "expand_z3.json")],
         "json"),
    ]
    for name, argv, modes in bases:
        yield f"{name}-text", argv
        for mode in modes.split():
            yield f"{name}-{mode}", argv + [f"--{mode}"]


OUTPUT_MATRIX = dict(_matrix())


def output_digest(argv) -> str:
    rc, out, _ = capture(argv)
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


# sha256 of "<rc>\n<stdout>" for each OUTPUT_MATRIX entry, recorded before the
# command line was restructured; `glue` is left out (perfbench checks its floats)
OUTPUT_DIGESTS = {
    "dim-ledger-json":
        "617d3f79fdd154af70ffb462abcd245ed2dd09d59075fa3ddde13aff436344e7",
    "dim-ledger-text":
        "8288c87aa8b88d7a736fcd5884e8e91453a5590b3a29e04723b674517f6fe96a",
    "dim-virdim-default-za-json":
        "ae35f626a5739483b092117af8b6c988c51fec79d9b45fd6f73332fc57fc64f8",
    "dim-virdim-default-za-text":
        "4fae659ed47c9047f66dba2dddd58bd55e49346df1727120c2fdaed18da535ea",
    "dim-virdim-json":
        "ae35f626a5739483b092117af8b6c988c51fec79d9b45fd6f73332fc57fc64f8",
    "dim-virdim-shifts-json":
        "2115342d0e045a1195e186a697ce1f902fc881a09d2c892a960865eb941ef34a",
    "dim-virdim-shifts-text":
        "809a843496c9b26ba2e2b79415746ad54851b41f3b1fac6f242a05c3c95484df",
    "dim-virdim-smooth-json":
        "d376368f2a32c7a6d271b64e6a468cfd400982fb28e7fffa262adeba6bceea18",
    "dim-virdim-smooth-text":
        "e07cdb6afd6deaf8a4a5caeee8c2163fa5d57660c689f1dc509b6f94a9a67981",
    "dim-virdim-text":
        "4fae659ed47c9047f66dba2dddd58bd55e49346df1727120c2fdaed18da535ea",
    "expand-degree-1-json":
        "cef433dec0316be53ef0e47cac9226997ebe931508df7789c39e0c3225faadd6",
    "expand-degree-1-text":
        "04de8bdfbb25bec965c63a401a6008e1792098e1207e86b296c3f88a1c9895e2",
    "expand-degree-3-json":
        "7b6f2347abeb057cee35b263d1077524d3e4d37db9e51e66b62db80a5e2e1e30",
    "expand-degree-3-text":
        "9c178cb0821ee6470ae02276ede72f1dbc3b54a8773fb47e11219cca1e0914a6",
    "expand-dup_insertion-json":
        "6ff98eb909738122562806eeb6ada3c01ddce347ff66562084334f9f28107f59",
    "expand-dup_insertion-text":
        "4ace013e3397e32114858b84471cdf269c7b7845e3b39be0ad5ab9d1ed483d6b",
    "expand-smooth_one_node-json":
        "0265c35dedaf1dacffee637779ca745a419dffd819c99d724f02a9ac1f4c7af8",
    "expand-smooth_one_node-text":
        "dc297a9bcf39affc4c55aa7db4ef406cb2cb01a6eef43e6d1268aa6d6ecd4db8",
    "expand-z3-json":
        "a667bf40d3938892b68980cc95561b6a78836b27c2b1711c92a1006370416723",
    "expand-z3-text":
        "b1b2eff4580babcfc8ceb5cd070690e44aa787651f0a83edfd7bcaf279d39af5",
    "graphs-contract-edge-dot":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "graphs-contract-edge-json":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "graphs-contract-edge-text":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "graphs-contract-level-dot":
        "30f1c881e2cc68a51a3208e63a1c4fe3786d2a6c39a6521a97fe1157e54449d8",
    "graphs-contract-level-json":
        "e405ef385686b496d6a0a74bcd3861c03e007601ce3b4f196aa79fb9cc538ecb",
    "graphs-contract-level-text":
        "0a4582daf39b09f44ebf266d761d4bc5cad10bd4d94055648963e0612d5f8796",
    "graphs-contract-neither-text":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "graphs-genus-gmax-json":
        "8bb479419002f6a3ba36914862b9dcb58692605e5b25a3296e3f29153598b2de",
    "graphs-genus-gmax-text":
        "e4efbe9eae73aa11938a4359205089c38412f9677ac7bb72573a39bbe3cae343",
    "graphs-genus-two_level-json":
        "b1969fbcf3e11ed2988ef7a98c636f11eb6786f34dfcd795eb90b13c15386953",
    "graphs-genus-two_level-text":
        "eff2c6933965022dce5b6ae9bbd1c4ca80ff3b12d549bc8da55cfeafac7c0db2",
    "graphs-poset-gmax-dot":
        "11186e62c0b69243c51753f0e7b881154ed987139f2f425f6bbcb96a31344aff",
    "graphs-poset-gmax-json":
        "b8d1937672831ba62707fc859823b698308ebe966c9fc3e5bb2eca0290b71dfb",
    "graphs-poset-gmax-text":
        "9b5fc23e14e3ab45c322a4a5d11d3083381fe09e251dda180b12e9ab3b2e4894",
    "graphs-poset-gmax-v3-json":
        "a7a47571c5fefba2a6d64eb0c9ada07d30a2004b2b3ac851065433c9acb615e6",
    "graphs-poset-gmax-v3-text":
        "ef5e7464b79d6d3b2dc6b4a68beddf0a99bede5706eca7b6e8e15d2ca779067d",
    "graphs-poset-gmax-wide-dot":
        "f51ef8ef2bda9221c72f7452340182a39493c8ad0e03fb1f27033dbe16a2326c",
    "graphs-poset-gmax-wide-json":
        "2079569826922521f9f3486715784d123d8aabfba029a22668b45d75a5487ddf",
    "graphs-poset-gmax-wide-text":
        "8bc0d93e1844801e9870e2ca8ffb315bd7e703cc40e911cb83eb4001ec3e99bd",
    "graphs-poset-two_level-dot":
        "336dac38bbdeb4601ff5ff984fab33fc5fe4c28c60dde798e68c4bfb7fc81452",
    "graphs-poset-two_level-json":
        "4406f3c32098b823b06be93b049dde3e6a32d8cb254277bfa70a77aae4fff646",
    "graphs-poset-two_level-text":
        "643dd9b8cf969ee3aef6e6e49191ac38d632489282c3884ced802faefa121d72",
    "graphs-validate-gmax-json":
        "82f556d54bbe2b628ad1e67cf979d7b38c6a5825a8643e78045c862028bf30fa",
    "graphs-validate-gmax-text":
        "cd1beef9b75f0a5b059daa08a42201b17680600995512c079583896c6913795b",
    "graphs-validate-two_level-json":
        "38b2851835ca8a3ba0d4f4e0694f9355989d91c7b76fa07c541aba43701b013b",
    "graphs-validate-two_level-text":
        "206308a6b644bf9befcb3cf01a6fa5e04cbd9cb4c22ba17b4e73e3d5455c3786",
    "partitions-2-22-json":
        "28f9e92e19212bcb15cf73e5b5ba558a72d392230fb8e9433e0d748005ec02ae",
    "partitions-2-22-text":
        "ea7787fd53b83fb79c6c4bf72b9b39e49698289df24f89cc4cafb8a4dd7665ab",
    "partitions-3_2-21-json":
        "07e7f020e1ee02a1c18820d2a791bbb1911997f73ded640d36fa2f07ae095734",
    "partitions-3_2-21-text":
        "ec2b1e96aab709ebedd6fed81b5be61dee815a880b48971ac2207c7da130d40b",
    "partitions-default-orders-json":
        "6a2808e7b75d024b0ec8e2999e86dbf8aeb23c15f96bcdfdbeebf12536055890",
    "partitions-default-orders-text":
        "20321ad1d11c2a7c1d4956e6317741c74e1230e9d1391dcc03efdbc3593ad89c",
    "sectors-missing-profile-text":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "sectors-s3-json":
        "4f5a581b93a674f148a22daa7cae14d5a0ac30ecf4a9ddaf42b3554e161d0995",
    "sectors-s3-profile-json":
        "4f5a581b93a674f148a22daa7cae14d5a0ac30ecf4a9ddaf42b3554e161d0995",
    "sectors-s3-profile-text":
        "73de6ac01993701200bc7f3525a30b6b8f73e508469992df6e9eab8fbd32c48f",
    "sectors-s3-text":
        "73de6ac01993701200bc7f3525a30b6b8f73e508469992df6e9eab8fbd32c48f",
    "sectors-z3-json":
        "b41578295a2897f32ca844aaf479609c79893e9f2f307a6c4f9fe7e190872d8a",
    "sectors-z3-text":
        "a8db7fd1951712b0fd257151dc963cc4c5277a909601b62115f8e90d71cfec43",
}


class TestOutputMatrix:
    def test_covers_the_matrix(self):
        assert sorted(OUTPUT_DIGESTS) == sorted(OUTPUT_MATRIX)

    @pytest.mark.parametrize("case", sorted(OUTPUT_MATRIX), ids=str)
    def test_output_unchanged(self, case):
        assert output_digest(OUTPUT_MATRIX[case]) == OUTPUT_DIGESTS[case]


# help and usage errors, all answered by argparse before any handler runs
USAGE_MATRIX = {
    "no-arguments": [],
    "help": ["--help"],
    "help-sectors": ["-h", "sectors"],
    "unknown-command": ["frobnicate"],
    "graphs": ["graphs"],
    "graphs-help": ["graphs", "--help"],
    "graphs-bogus": ["graphs", "bogus"],
    "sectors-help": ["sectors", "--help"],
    "dim-virdim-help": ["dim", "virdim", "--help"],
    "glue-demo-help": ["glue", "demo", "--help"],
    "partitions-no-total": ["partitions"],
    "graphs-validate-bogus": ["graphs", "validate", "--in", "demos/data/graphs.json", "--bogus"],
    "sectors-bogus": ["sectors", "--in", "demos/data/ex_z3.json", "--bogus"],
    "expand-bogus": ["expand", "--in", "demos/data/smooth1.json", "--scenario",
                     "smooth_one_node", "--bogus", "1"],
}

# sha256 of "<rc>\n<stdout>\n<stderr>" for each USAGE_MATRIX entry at 80 columns,
# recorded on Python 3.11 while every command's parsers were built for each run
USAGE_DIGESTS = {
    "no-arguments":
        "1798076adcbfc33a2cf8a1864e6d72051adde036b4654f18b129e2ca73f79662",
    "help":
        "88a0b174132562820b1359f63cf11665969d2db71b324069297d48d08d8adf42",
    "help-sectors":
        "88a0b174132562820b1359f63cf11665969d2db71b324069297d48d08d8adf42",
    "unknown-command":
        "90366b2609a323f15c7d7d1ae75fac88189fc444d6424e8698726f54d6ecc401",
    "graphs":
        "ef0186b5d1580742d910b013570372cd136a02e9f071acc3e3ef30e90f43a662",
    "graphs-help":
        "7d70eaed8c99bc871e42d6198305f7c7e6dde92cc4192ca115afc335d3716311",
    "graphs-bogus":
        "68c8bc431f33627bf516ae9a4fc6f9773646776da06ec67cff6b47ea39fa0208",
    "sectors-help":
        "0f4f00e38877f361f9d78bd2284bdb3fe9ef39eb8f4023f2be49d08ab40e5a5a",
    "dim-virdim-help":
        "b598924d8cc631a64a62e212d256ae634f7a1493871e8ad25de828d7645edc6f",
    "glue-demo-help":
        "c25248378e3c2fbf91b5ce004cdb2aa60a147bcfda937045f86483e9a1930b0c",
    "partitions-no-total":
        "c05a4cc167e1bf523431ba7e08bac18fd47ef89c791607afc5823e47f93b6497",
    "graphs-validate-bogus":
        "dc6d83e72d4fda280f966e86960d522a48285bc19fac2b2de153f7e527445beb",
    "sectors-bogus":
        "dc6d83e72d4fda280f966e86960d522a48285bc19fac2b2de153f7e527445beb",
    "expand-bogus":
        "03c8356dae0d521fdbfd48fd7f5777c4ef19b0a18c886d70c0ad525f59001be8",
}


class TestUsageMatrix:
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width

    def test_covers_the_matrix(self):
        assert sorted(USAGE_DIGESTS) == sorted(USAGE_MATRIX)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse wording differs between Python versions; "
                               "the digests were recorded on 3.11")
    @pytest.mark.parametrize("case", sorted(USAGE_MATRIX), ids=str)
    def test_usage_unchanged(self, case):
        rc, out, err = capture(USAGE_MATRIX[case])
        assert hashlib.sha256(f"{rc}\n{out}\n{err}".encode()).hexdigest() == USAGE_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(USAGE_MATRIX), ids=str)
    def test_same_as_the_full_parser(self, case):
        # on any Python: run's parser for one group answers as the parser of
        # every command does
        argv = USAGE_MATRIX[case]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert capture(argv) == (exc.value.code or 0, out.getvalue(), err.getvalue())
