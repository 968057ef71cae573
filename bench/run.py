"""Benchmark entry point: ``python3 bench/run.py --workload NAME``.

Run from the repository root. Options: ``--workload`` (room_mixed,
field_nlos, room_nlos, or all), ``--seed``, ``--seconds`` (length of the
measured solve loop), ``--trace 0|1`` (1 gives the per-layer metrics of a
traced run). The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/README.md`` for the workloads and metrics.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    missing = [p for p in ("src/snapslam/__init__.py", "demos/room.scene")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} missing under {ROOT}; "
              "run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from harness import main
    sys.exit(main())
