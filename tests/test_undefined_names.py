"""Every global name the code reads is defined, imported or built in.

A stdlib-only stand-in for a linter's undefined-name rule (pyflakes F821):
``symtable`` resolves each scope of every ``src/``, ``tests/`` and
``examples/`` file, and a name that some scope reads as a global must be
bound at module level (assigned, imported, a ``def`` or ``class``, or
declared ``global`` and assigned somewhere) or be a builtin.
"""

from __future__ import annotations

import builtins
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_MODULE_NAMES = {"__file__", "__builtins__", "__spec__", "__loader__", "__path__"}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def undefined_names(path: Path) -> list[str]:
    top = symtable.symtable(path.read_text(), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    for scope in _scopes(top):
        for sym in scope.get_symbols():
            if sym.is_declared_global() and sym.is_assigned():
                bound.add(sym.get_name())
    known = bound | set(dir(builtins)) | _MODULE_NAMES
    missing = set()
    for scope in _scopes(top):
        for sym in scope.get_symbols():
            name = sym.get_name()
            if not sym.is_referenced() or name in known:
                continue
            if scope is top or sym.is_global():
                missing.add(name)
    return sorted(missing)


def test_no_undefined_global_names():
    offenders = [
        f"{path.relative_to(ROOT)}: {', '.join(names)}"
        for top in ("src", "tests", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        if (names := undefined_names(path))
    ]
    assert not offenders, "names read but never defined:\n" + "\n".join(offenders)


def test_catches_an_undefined_name(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import os\n"
        "LIMIT = 3\n"
        "def f(x):\n"
        "    return os.sep, LIMIT, len(x), max_passes\n"
    )
    assert undefined_names(path) == ["max_passes"]
