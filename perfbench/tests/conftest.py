"""Make the benchmark's modules and the program importable for its tests.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
os.environ.setdefault(
    "REPRO_NATIVE_CACHE", str(ROOT / ".bench_build" / "perfbench" / "native")
)
