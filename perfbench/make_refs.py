"""Regenerate perfbench/refs.json from the current program, at the default seed.

Only for a commit whose outputs are known to be right: the references are
what every later run is checked against.  The "crosscheck" section holds
counts measured independently of this benchmark and is kept as it is.

Usage: python3 perfbench/make_refs.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFS = workloads.REFS


def main() -> None:
    old = json.loads(REFS.read_text()) if REFS.exists() else {}
    refs = {"crosscheck": old.get("crosscheck", {})}
    REFS.write_text(json.dumps({**refs, **{w: {} for w in workloads.WORKLOADS}}))
    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        section = refs[name] = {}
        for op in workloads.build_ops(name, seed):
            *_, out = op.call()
            digest, _ = op.verify(out)
            entry = {"sha256": digest}
            if name == "expand-ladder":
                entry["terms"] = len(out)
            elif name == "poset-ladder":
                entry["nodes"] = len(out[0].nodes)
                entry["covers"] = len(out[0].covers)
            else:
                if out.returncode != 0 or not out.stdout:
                    raise SystemExit(f"{op.name}: exit {out.returncode}, "
                                     f"{len(out.stdout)} stdout bytes")
                if op.name in workloads.GLUE_OPS:
                    entry["stdout"] = out.stdout.decode("utf-8")
            section[op.name] = entry
            print(name, op.name, digest[:12], flush=True)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
