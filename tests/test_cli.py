import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

from orbidegen.cli import run
from orbidegen.io import load_document

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = ROOT / "tests" / "golden"


def python(*args):
    """Run a fresh interpreter with the source tree first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          cwd=ROOT, timeout=120)


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


class TestExitCodes:
    def test_usage_error_is_2(self):
        rc, _, _ = capture(["sectors"])  # missing --in
        assert rc == 2

    def test_unknown_command_is_2(self):
        rc, _, _ = capture(["frobnicate"])
        assert rc == 2

    def test_validation_error_is_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "orbi-degen/1", "groups": [{"name": "g", '
                       '"table": [[0, 1], [1, 1]]}]}')
        rc, _, err = capture(["sectors", "--in", str(bad)])
        assert rc == 1 and "error:" in err

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

    def test_exact_commands_leave_numpy_unloaded(self):
        script = f"""
import contextlib, io, sys
from orbidegen.cli import run
commands = [
    ["sectors", "--in", {str(DATA / "ex_z3.json")!r}],
    ["partitions", "--total", "2", "--orders", "2,2"],
    ["dim", "virdim", "--flavor", "relative-orbifold", "--n", "2", "--genus", "0",
     "--c1a", "3", "--rel", "3/2:1/2:h", "--za", "3/2"],
    ["expand", "--in", {str(DATA / "smooth1.json")!r}, "--scenario", "smooth_one_node"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv) for argv in commands]
print(codes, "numpy" in sys.modules)
"""
        proc = python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().split() == ["[0,", "0,", "0,", "0]", "False"]

    def test_glue_error_type_is_shared(self):
        from orbidegen import errors, glue

        assert glue.NonConvergenceError is errors.NonConvergenceError


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,setting", [
        (["sphere", "--scale", "1e200"], "--scale 1e+200"),
        (["node", "--tau", "1e300"], "--tau 1e+300"),
    ], ids=["sphere-scale", "node-tau"])
    def test_glue_demo_out_of_float_range(self, argv, setting):
        rc, out, err = capture(["glue", "demo", *argv])
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"glue demo {argv[0]} {setting}" in err
