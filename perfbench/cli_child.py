"""Launch `orbidegen <args>` for one cli-mix op.

orbidegen is not installed and `python -m orbidegen.cli` does nothing (the
module has no __main__ guard), so this bootstrap puts the source tree on the
path and calls orbidegen.cli.main.  With PERFBENCH_TRACE set to a file path
it also times `import orbidegen.cli`, traces the package's public functions
and writes the spans there on exit.

Usage: python3 perfbench/cli_child.py <orbidegen arguments>
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

trace_path = os.environ.get("PERFBENCH_TRACE")
if not trace_path:
    from orbidegen.cli import main

    main()
else:
    t0 = time.perf_counter()
    from orbidegen.cli import main

    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        main()
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(Path(trace_path), {"import_s": import_s,
                                        "numpy_loaded": "numpy" in sys.modules})
