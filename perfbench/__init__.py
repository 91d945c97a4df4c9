"""End-to-end benchmark of the repro library, with a traced per-layer split.

Three workloads drive the public API from one process: ``fig6_grid``
(the figure-6 sweep, one benchmark slice per op), ``service_mix`` (one
tenant on the sweep service, LRU hits and warm-tier misses) and
``secure_os`` (4 KiB kernel reads and writes on an oversubscribed
``aise+bmt`` machine). ``python3 perfbench/run.py --workload <name>``
runs one; ``perfbench/README.md`` defines every op and metric.

The library is imported from the ``src/`` directory of the checkout
this package sits in, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "benchmarks" / "golden" / "figure6-events30000.json"
OUT_DIR = ROOT / ".perfbench-out"


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises FileNotFoundError when the checkout holds no library sources
    (the benchmark then has nothing to measure).
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
