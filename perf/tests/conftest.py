"""Path set-up for the ledger's own tests (not collected by tier-1).

Run with ``python -m pytest perf/tests``.
"""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

PERF = Path(__file__).resolve().parent.parent
for path in (PERF.parent / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
