"""The name census: every public ``src/`` function, method and class has a caller.

A public name (a ``def`` or ``class`` under ``src/`` whose name does not
start with ``_``; dunder methods are out of scope) is kept alive by a
reference outside ``tests/``: an attribute or bare name in ``src/``,
``perf/`` or ``examples/``, or an import of it outside a package
``__init__``.  ``__all__`` lists, docstrings, re-exports and references
from inside the definition itself do not count, and nor do strings, so a
name called only through ``getattr`` or wrapped by name in ``perf/`` must
be declared.  Names are matched by name alone: a method shares the
callers of every attribute of that name.

Tests check code; they do not keep it alive.  A name that only ``tests/``
reference (or nothing at all) goes, unless ``KEPT`` declares it with one of
``test_options.REASONS``.  ``python tests/test_options.py`` prints this
census after the option census.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

from test_options import REASONS, has_reason

ROOT = Path(__file__).resolve().parents[1]

_TRACER = "(a) perf/tracing.py wraps it by name"

# "module:qualname" -> "(letter) why" for each public name no src/, perf/ or
# examples/ code references.
KEPT = {
    "src/repro/baselines/tiger:TIGER.prefill_prompts": (
        "(a) the tiger_batch workload's prefill: decode_prefill calls it through "
        "getattr(model, 'prefill_prompts')"
    ),
    "src/repro/eval/significance:BootstrapResult.significant": "(c) ROADMAP item 17's verdict",
    "src/repro/eval/significance:paired_bootstrap": "(c) ROADMAP item 17's paired test",
    "src/repro/experiments/runner:run_experiment": "(d) the harness's Python entry point",
    "src/repro/llm/generation:backfill_ranked_item_ids": (
        "(b) the composed widen-and-backfill reference of the engine suites"
    ),
    "src/repro/llm/generation:beam_search_items_single": (
        "(b) the dense single-request oracle of every stepper parity suite"
    ),
    "src/repro/llm/prefix_cache:PrefixKVCache.sync_catalog": _TRACER,
    "src/repro/quantization/diagnostics:LevelUsage.dead_codes": (
        "(c) ROADMAP item 1a's index-health gate"
    ),
    "src/repro/quantization/diagnostics:LevelUsage.normalized_entropy": (
        "(c) ROADMAP item 1a's index-health gate"
    ),
    "src/repro/quantization/diagnostics:codebook_usage": "(c) ROADMAP item 1a's index-health gate",
    "src/repro/quantization/trie:IndexTrie.all_sequences": (
        "(b) the trie oracle of the decode invariants"
    ),
    "src/repro/quantization/trie:IndexTrie.allowed_token_mask": _TRACER,
    "src/repro/quantization/trie:IndexTrie.contains_prefix": (
        "(b) the trie oracle of the decode invariants"
    ),
    "src/repro/quantization/trie:IndexTrie.level_union": _TRACER,
    "src/repro/quantization/trie:IndexTrie.subtrie": _TRACER,
    "src/repro/quantization/trie:IndexTrie.union_for_levels": _TRACER,
    "src/repro/retrieval/knn:brute_force_topk": "(b) the exactness oracle of ClusteredKNNIndex",
    "src/repro/serving/cluster:ServingCluster.degraded_requests": (
        "(f) the fleet-wide degraded count the cluster suite asserts on"
    ),
    "src/repro/serving/cluster:ServingCluster.shed_requests": (
        "(f) the fleet-wide shed count the cluster suite asserts on"
    ),
    "src/repro/serving/continuous:ContinuousScheduler.admit": _TRACER,
    "src/repro/serving/engine:TrieDecoderEngine.finish": _TRACER,
    "src/repro/serving/engine:decode_join": _TRACER,
    "src/repro/serving/engine:decode_retire": _TRACER,
    "src/repro/serving/service:ServingStats.mean_padding_fraction": (
        "(f) the batch planner's padding gauge the serving suite asserts on"
    ),
    "src/repro/tensor/functional:masked_fill": (
        "(b) the composed reference of the fused attention node"
    ),
    "src/repro/tensor/functional:softmax": "(b) the composed reference of the fused attention node",
    "src/repro/tensor/tensor:Tensor.silu": "(b) the composed reference of the fused SwiGLU node",
    "src/repro/tensor/workspace:StepWorkspace.num_buffers": (
        "(f) the scratch-buffer count the memory tests assert on"
    ),
}


def _files(top: str):
    return sorted(p for p in (ROOT / top).rglob("*.py") if "__pycache__" not in p.parts)


def _public_names() -> dict[str, list[str]]:
    """Name -> the ``module:qualname`` labels of its public ``src/`` definitions."""
    names: dict[str, list[str]] = {}
    for path in _files("src"):
        module = path.relative_to(ROOT).with_suffix("").as_posix()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not child.name.startswith("_"):
                        label = f"{module}:{'.'.join(scope + [child.name])}"
                        names.setdefault(child.name, []).append(label)
                    if isinstance(child, ast.ClassDef):
                        visit(child, scope + [child.name])

        visit(ast.parse(path.read_text(), filename=str(path)), [])
    return names


def _ignored(tree: ast.Module) -> set[int]:
    """Node ids of ``__all__`` assignments and docstrings."""
    ignored = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            ignored.update(id(n) for n in ast.walk(node))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ignored.add(id(first.value))
    return ignored


def _referencing_dirs() -> dict[str, set[str]]:
    """Name -> the top-level directories whose code references it."""
    refs: dict[str, set[str]] = {}
    for top in ("src", "perf", "examples", "tests"):
        for path in _files(top):
            tree = ast.parse(path.read_text(), filename=str(path))
            reexport = top == "src" and path.name == "__init__.py"
            ignored = _ignored(tree)

            def visit(node, enclosing):
                for child in ast.iter_child_nodes(node):
                    inside = enclosing
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        inside = enclosing | {child.name}
                    found = []
                    if id(child) in ignored:
                        pass
                    elif isinstance(child, ast.Name):
                        found = [child.id]
                    elif isinstance(child, ast.Attribute):
                        found = [child.attr]
                    elif isinstance(child, ast.ImportFrom) and not reexport:
                        found = [alias.name for alias in child.names]
                    for name in found:
                        if name not in inside:
                            refs.setdefault(name, set()).add(top)
                    visit(child, inside)

            visit(tree, frozenset())
    return refs


@functools.cache
def name_census() -> tuple[tuple[str, tuple[str, ...]], ...]:
    """``(label, referencing dirs)`` for every public name no non-test code references."""
    refs = _referencing_dirs()
    rows = []
    for name, labels in sorted(_public_names().items()):
        if name.startswith("__"):
            continue
        dirs = tuple(sorted(refs.get(name, ())))
        if set(dirs) <= {"tests"}:
            rows.extend((label, dirs) for label in labels)
    return tuple(sorted(rows))


def test_every_tests_only_name_is_declared():
    undeclared = [label for label, _ in name_census() if label not in KEPT]
    assert not undeclared, (
        "public names nothing outside tests/ references: delete each with its "
        "tests, or add a KEPT line with its reason:\n" + "\n".join(undeclared)
    )


def test_kept_table_is_current():
    reached_only_by_tests = {label for label, _ in name_census()}
    stale = sorted(label for label in KEPT if label not in reached_only_by_tests)
    assert not stale, "KEPT lines whose name is gone or referenced outside tests:\n" + "\n".join(
        stale
    )


def test_kept_reasons_name_a_letter():
    assert REASONS
    assert not [label for label, reason in KEPT.items() if not has_reason(reason)]


def print_name_census() -> None:
    rows = name_census()
    print(f"public names reached only by tests (or by nothing): {len(rows)}")
    for label, dirs in rows:
        kind = "  tests-only" if dirs else "  no caller "
        print(kind, label, KEPT.get(label, "(undeclared)")[:3])


if __name__ == "__main__":
    print_name_census()
