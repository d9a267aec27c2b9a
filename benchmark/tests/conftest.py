"""Make the benchmark's modules and regsent's source importable in its tests."""

import sys
from pathlib import Path

BENCHMARK_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCHMARK_DIR.parent

for path in (BENCHMARK_DIR, REPO_ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
