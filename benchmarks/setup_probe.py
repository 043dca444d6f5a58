"""Set-up cost in a fresh interpreter: ``import billiardlab`` plus the bodies.

Usage: python3 benchmarks/setup_probe.py SPEC.json

Reads a workload spec written by ``run.py`` (input generation is not
timed), imports billiardlab, builds every body of the spec including the
polar duals, and prints ``{"import_s": ..., "bodies_s": ...}``.  The
caller times the whole interpreter for ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import billiardlab  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    import workloads

    t2 = time.perf_counter()
    workloads.build_bodies(spec)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "bodies_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1])
