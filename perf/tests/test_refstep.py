"""The yardstick must not depend on the system it measures."""

import subprocess
import sys
from pathlib import Path

from refstep import RefStep

PERF = Path(__file__).resolve().parent.parent


def test_refstep_imports_nothing_from_repro():
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import refstep; "
        "bad = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]; "
        "assert not bad, bad"
    ) % (str(PERF), str(PERF.parent / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_refstep_does_fixed_work():
    assert RefStep().step() == RefStep().step()
    assert RefStep().probe() > 0.0
