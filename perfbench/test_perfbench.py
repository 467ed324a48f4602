"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench

Tiny runs shorten the op lists; each still goes through run.main, the
reference checks and, for --trace 1, the tracer.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every op list to a few cheap ops (plus the ROADMAP expand op)."""
    keep = {"roadmap_smooth_g0_m2_n3_z3", "smooth_g0_m0_n1_z2", "z2_g0_m2_n2_z1",
            "z3_g0_m0_n3_z1"}
    monkeypatch.setattr(workloads, "EXPAND_RUNGS",
                        [r for r in workloads.EXPAND_RUNGS if r[0] in keep])
    monkeypatch.setattr(workloads, "POSET_CASES",
                        [c for c in workloads.POSET_CASES
                         if c[0] in {"triv_g0_v2", "triv_g0_v3", "z2grp_g0_v2", "z2_g0_v2"}])
    monkeypatch.setattr(workloads, "CLI_DEMOS",
                        [d for d in workloads.CLI_DEMOS
                         if d[0] in {"partitions", "graphs_genus", "dim_ledger", "glue_linear"}])
    monkeypatch.setattr(workloads, "CLI_PROFILES", [("cyclic", 8), ("dihedral", 8)])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SPAWN_PROBES", 1)


def run_main(capsys, workload, seed=5, trace=0):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["expand-ladder", "poset-ladder", "cli-mix"])
def test_tiny_run_prints_every_metric_with_unit(tiny, capsys, workload, trace):
    lines, result = run_main(capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_reference_fails(tiny, capsys, monkeypatch, tmp_path):
    refs = json.loads(workloads.REFS.read_text())
    entry = refs["expand-ladder"]["z2_g0_m2_n2_z1"]
    entry["sha256"] = entry["sha256"][::-1]
    corrupted = tmp_path / "refs.json"
    corrupted.write_text(json.dumps(refs))
    monkeypatch.setattr(workloads, "REFS", corrupted)
    lines, result = run_main(capsys, "expand-ladder")
    assert not result["correct"] and result["failed"] > 0
    fail_ratio = float(lines[0].split("fail_ratio=")[1])
    assert fail_ratio > 0
    assert any(line.startswith("FAILED z2_g0_m2_n2_z1: digest") for line in lines)


def test_empty_stdout_counts_as_failed(tiny, capsys, monkeypatch):
    real = workloads.CliRunner.spawn

    def silent(self, argv):
        latency, out = real(self, argv)
        out.stdout = b""
        return latency, out

    monkeypatch.setattr(workloads.CliRunner, "spawn", silent)
    _, result = run_main(capsys, "cli-mix")
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_deterministic_per_seed_and_vary_across_seeds(workload):
    make = workloads.WORKLOADS[workload].inputs

    def text(seed):
        return json.dumps(make(seed), sort_keys=True, default=repr)

    assert text(3) == text(3)
    assert text(3) != text(4)
    assert text(workloads.DEFAULT_SEED) != text(3)


def test_traced_counts_repeat_and_match_crosscheck(tiny, capsys):
    counts = []
    for seed in (5, 6):
        lines, result = run_main(capsys, "expand-ladder", seed=seed, trace=1)
        assert result["correct"]
        assert sum(line.startswith("crosscheck roadmap_smooth_g0_m2_n3_z3") and
                   line.endswith(" ok") for line in lines) == 4
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["expand.candidates"] > 0


def test_run_refuses_a_tree_without_the_program(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "expand-ladder", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_design_layers_list_exactly_the_per_layer_metrics():
    design = json.loads((BENCH / "design.json").read_text())
    listed = [name for layer in design["layers"] for name in layer["metrics"]]
    assert listed == [m["name"] for m in DECLARED["per_layer"]]
