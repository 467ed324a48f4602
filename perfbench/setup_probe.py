"""One set-up of a workload in a fresh interpreter, for the setup_s metric.

Imports orbidegen, generates the seeded inputs, loads them with
io.load_document and runs the workload's warm-up op once, then exits.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import orbidegen  # noqa: E402,F401
import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
ops = workloads.build_ops(name, seed)
warmup = next(op for op in ops if op.name == workloads.WORKLOADS[name].warmup)
*_, out = warmup.call()
_, problem = warmup.verify(out)
if problem is not None:
    sys.exit(f"warm-up op {warmup.name}: {problem}")
