"""The option census: every defaulted parameter and config field has a setter.

A defaulted parameter of a ``src/`` function, or a field of a config
dataclass (a ``@dataclass`` named ``*Config``), is an option. It stays
only if something sets it: a call in ``src/``, ``perf/``, ``examples/`` or
``tests/`` that passes it by keyword or by position, a preset's ``dict(...)``
key, an attribute assignment or a ``replace(...)`` of a field. A keyword
whose literal value equals the default sets nothing, and a call that only
passes on a defaulted parameter of the function it sits in sets the option
only if that parameter is set itself.

Calls are matched to definitions by name (``Class(...)`` and ``cls(...)``
reach the class's ``__init__``, ``super().__init__(...)`` the base's,
``f(**options)`` of a dict built in the same function passes its keys, and
``f(**kwargs)`` of the calling function's own ``**kwargs`` passes on what its
callers give it), so an option reached only through a call the scan cannot
name is listed in ``ALLOWED`` with its reason.

Tests check code; they do not keep it alive.  An option that only
``tests/`` sets is retired (its default becomes the behaviour) unless
``TESTS_ONLY`` declares it with one of the reasons in ``REASONS``.

The experiment harness's JSON schema is counted the same way: each
registered top-level key, scenario kind and scenario parameter, backend and
backend parameter, and expectation op is an option, and its setters are
the committed ``examples/experiments/*.json`` configs that set it to a
value other than its default (a required key, a kind, a backend or an op
by appearing at all) and the CLI's ``experiment run --scale``.  An entry
nothing sets goes unless ``SCHEMA_DECLARED`` names it with its reason.

Run this file as a script (``PYTHONPATH=src``) to print the option census,
the schema census and, beside them, the name census of ``test_names.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETTER_DIRS = ("src", "perf", "examples", "tests")

# "module:qualname.param" -> why it stays although the scan finds no setter.
# An allowed option counts as set for the calls that pass it on.
ALLOWED = {
    "src/repro/baselines/tiger:TIGER.prefill_prompts.workspace": (
        "dynamic call site: decode_prefill calls an encoder-decoder scorer's "
        "prefill_prompts through getattr(model, 'prefill_prompts')"
    ),
}

# Why a parameter, field or public name that only tests/ reaches may stay.
REASONS = {
    "a": "perf/ passes the keyword at its default or calls / wraps the name (perf/ is frozen)",
    "b": "a reference oracle or composed reference that tests compare against",
    "c": "the engine of a named ROADMAP item",
    "d": "an entry point's injection seam",
    "e": "a knob a test sets so a model builds at fixture size",
    "f": "a counter or gauge tests assert on",
}

# "module:qualname.param" -> "(letter) why" for each option only tests set.
TESTS_ONLY = {
    "src/repro/__main__:main.argv": "(d) the CLI's argument list (tests/test_cli.py)",
    "src/repro/baselines/dssm:DSSMConfig.dim": "(e) narrow DSSM towers",
    "src/repro/baselines/p5cid:P5CIDConfig.cluster_levels": (
        "(e) a collaborative index that fits the tiny catalog"
    ),
    "src/repro/baselines/p5cid:P5CIDConfig.branch": (
        "(e) a collaborative index that fits the tiny catalog"
    ),
    "src/repro/baselines/s3rec:S3Rec.__init__.dropout": (
        "(e) a dropout-free backbone, so two seeds' pretraining losses differ only "
        "by their masks and batch order"
    ),
    "src/repro/baselines/tiger:TIGERConfig.dropout": "(e) dropout on the training tape",
    "src/repro/baselines/tiger:TIGERConfig.max_history": "(e) short TIGER sources",
    "src/repro/baselines/trainer:BaselineTrainerConfig.batch_size": (
        "(e) ID-baseline minibatches that fit the tiny split"
    ),
    "src/repro/eval/significance:paired_bootstrap.metric": "(c) ROADMAP item 17's paired test",
    "src/repro/eval/significance:paired_bootstrap.k": "(c) ROADMAP item 17's paired test",
    "src/repro/eval/significance:paired_bootstrap.num_resamples": (
        "(c) ROADMAP item 17's paired test"
    ),
    "src/repro/eval/significance:paired_bootstrap.rng": "(c) ROADMAP item 17's paired test",
    "src/repro/experiments/runner:run_experiment.dataset": (
        "(d) the harness's Python entry point takes a prebuilt dataset"
    ),
    "src/repro/experiments/runner:run_experiment.models": (
        "(d) the harness's Python entry point takes prebuilt models"
    ),
    "src/repro/experiments/runner:run_experiment.write": (
        "(d) the harness's Python entry point can skip its record file"
    ),
    "src/repro/llm/config:LMConfig.dropout": "(e) dropout on the training tape",
    "src/repro/llm/generation:beam_search_items_single.beam_size": (
        "(b) the dense single-request oracle at the width under test"
    ),
    "src/repro/llm/pretrain:PretrainConfig.seq_len": "(a) perf/fixture.py sets it at its default",
    "src/repro/quantization/rqvae:RQVAEConfig.num_levels": (
        "(a) perf/fixture.py sets it at its default"
    ),
    "src/repro/retrieval/hybrid:HybridRecommender.__init__.num_candidates": (
        "(a) perf/workloads.py passes it at its default"
    ),
    "src/repro/retrieval/knn:ClusteredKNNConfig.n_clusters": (
        "(e) a few clusters over a 40-item fixture"
    ),
    "src/repro/retrieval/knn:ClusteredKNNConfig.n_probe": (
        "(e) a few clusters over a 40-item fixture, or all of them for exact search"
    ),
    "src/repro/retrieval/recommender:RetrievalRecommender.from_lcrec.config": (
        "(e) the retrieval tier's KNN sized for a 40-item fixture"
    ),
    "src/repro/serving/cluster:ServingCluster.__init__.mode": (
        "(a) perf/workloads.py passes it at its default"
    ),
    "src/repro/serving/service:RecommendationService.__init__.deadline_ms": (
        "(c) ROADMAP item 12's light-load arm, where the flush deadline costs pure latency"
    ),
    "src/repro/serving/service:RecommendationService.__init__.queue_depth": (
        "(c) ROADMAP item 12's overload policies"
    ),
}


@dataclass
class Option:
    module: str
    qualname: str
    name: str
    key: tuple[str, str]  # (callee name the calls use, parameter name)
    position: int | None  # positional index a call reaches it at, or None
    default: object  # the literal default, or a sentinel when not a literal
    is_field: bool

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}.{self.name}"


_NOT_LITERAL = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _files(top: str):
    base = ROOT / top
    return sorted(p for p in base.rglob("*.py") if "__pycache__" not in p.parts)


def _module_name(path: Path) -> str:
    return path.relative_to(ROOT).with_suffix("").as_posix()


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _callee(target) == "dataclass":
            return True
    return False


def _is_method(fn, parent) -> bool:
    if not isinstance(parent, ast.ClassDef):
        return False
    return not any(_callee(d) == "staticmethod" for d in fn.decorator_list)


class _Classes:
    """Class name -> bases and whether it defines ``__init__`` (all scanned dirs)."""

    def __init__(self, trees):
        self.bases: dict[str, list[str]] = {}
        self.has_init: dict[str, bool] = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases[node.name] = [b for b in map(_callee, node.bases) if b]
                    self.has_init[node.name] = _is_dataclass(node) or any(
                        isinstance(s, ast.FunctionDef) and s.name == "__init__"
                        for s in node.body
                    )

    def init_owner(self, name: str, seen=()) -> str | None:
        """The class whose ``__init__`` a call of ``name(...)`` runs."""
        if name not in self.bases or name in seen:
            return None
        if self.has_init[name]:
            return name
        for base in self.bases[name]:
            owner = self.init_owner(base, seen + (name,))
            if owner:
                return owner
        return None

    def lineage(self, name: str, seen=()) -> list[str]:
        if name not in self.bases or name in seen:
            return []
        out = [name]
        for base in self.bases[name]:
            out += self.lineage(base, seen + (name,))
        return out


def _collect_options(path: Path, tree: ast.Module) -> list[Option]:
    module = _module_name(path)
    options: list[Option] = []

    def visit(node, scope: list[str], parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child) and child.name.endswith("Config"):
                    index = 0
                    for stmt in child.body:
                        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                            stmt.target, ast.Name
                        ):
                            continue
                        if "ClassVar" in ast.unparse(stmt.annotation):
                            continue
                        if stmt.value is not None:
                            options.append(
                                Option(
                                    module, child.name, stmt.target.id,
                                    (child.name, stmt.target.id), index,
                                    _literal(stmt.value), True,
                                )
                            )
                        index += 1
                visit(child, scope + [child.name], child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + [child.name])
                owner = child.name
                if child.name == "__init__" and isinstance(parent, ast.ClassDef):
                    owner = parent.name
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 1 if _is_method(child, parent) else 0
                offset = len(positional) - len(args.defaults)
                for i, (arg, default) in enumerate(
                    zip(positional[offset:], args.defaults), start=offset
                ):
                    options.append(
                        Option(module, qualname, arg.arg, (owner, arg.arg),
                               i - skip, _literal(default), False)
                    )
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        options.append(
                            Option(module, qualname, arg.arg, (owner, arg.arg),
                                   None, _literal(default), False)
                        )
                visit(child, scope + [child.name, "<locals>"], child)
            else:
                visit(child, scope, parent)

    visit(tree, [], None)
    return options


@dataclass
class _Setter:
    key: tuple[str, str]
    value: object  # literal value, or _NOT_LITERAL
    source: str  # top-level directory of the setting file
    passes_on: tuple[str, str] | None  # the calling function's own defaulted parameter


def _collect_setters(
    path: Path,
    tree: ast.Module,
    classes: _Classes,
    positions: dict[str, dict[str, int]],
    forwards: dict[str, set[str]],
) -> list[_Setter]:
    """The setters in one file; ``forwards`` gains ``f -> callees`` for every
    ``callee(**kwargs)`` of ``f``'s own ``**kwargs``."""
    source = path.relative_to(ROOT).parts[0]
    setters: list[_Setter] = []

    def defaulted(fn, owner_name):
        args = fn.args
        positional = args.posonlyargs + args.args
        names = {a.arg for a in positional[len(positional) - len(args.defaults):]}
        names |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
        return {name: (owner_name, name) for name in names}

    def add(key, value_node, fn_defaults):
        passes_on = None
        if isinstance(value_node, ast.Name):
            passes_on = fn_defaults.get(value_node.id)
        value = _literal(value_node) if value_node is not None else _NOT_LITERAL
        setters.append(_Setter(key, value, source, passes_on))

    def owners_of(call: ast.Call, cls_name) -> list[str]:
        name = _callee(call.func)
        if name is None:
            return []
        if (
            name == "__init__"
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Call)
            and _callee(call.func.value.func) == "super"
        ):
            bases = classes.bases.get(cls_name, [])
            owner = next(filter(None, map(classes.init_owner, bases)), None)
            return [owner] if owner else []
        if name == "cls" and cls_name is not None:
            name = cls_name
        if name in classes.bases:
            owner = classes.init_owner(name)
            return classes.lineage(name) + ([owner] if owner else [])
        return [name]

    def dict_keywords(fn) -> dict[str, list[ast.keyword]]:
        """Names a function binds to ``dict(...)`` or a str-keyed literal, with their keys."""
        found: dict[str, list[ast.keyword]] = {}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target, value = node.targets[0], node.value
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call) and _callee(value.func) == "dict":
                found[target.id] = [kw for kw in value.keywords if kw.arg is not None]
            elif isinstance(value, ast.Dict):
                found[target.id] = [
                    ast.keyword(arg=k.value, value=v)
                    for k, v in zip(value.keys, value.values)
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                ]
        return found

    def keywords_of(call: ast.Call, unpacked) -> list[ast.keyword]:
        out = []
        for kw in call.keywords:
            if kw.arg is not None:
                out.append(kw)
            elif isinstance(kw.value, ast.Name):  # f(**options) of a dict built here
                out += unpacked.get(kw.value.id, [])
        return out

    def visit(node, cls_name, fn_defaults, unpacked, caller=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, {}, {})
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner_name = child.name
                if child.name == "__init__" and cls_name is not None:
                    owner_name = cls_name
                kwarg = child.args.kwarg.arg if child.args.kwarg else None
                visit(child, cls_name, defaulted(child, owner_name), dict_keywords(child),
                      (owner_name, kwarg))
                continue
            if isinstance(child, ast.Call):
                keywords = keywords_of(child, unpacked)
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                forwarded = caller is not None and caller[1] is not None and any(
                    kw.arg is None and isinstance(kw.value, ast.Name) and kw.value.id == caller[1]
                    for kw in child.keywords
                )
                for owner in set(owners_of(child, cls_name)):
                    if forwarded:
                        forwards.setdefault(caller[0], set()).add(owner)
                    for kw in keywords:
                        add((owner, kw.arg), kw.value, fn_defaults)
                    for pos in positions.get(owner, {}).items():
                        param, index = pos
                        if starred or index < len(child.args):
                            value = None if starred else child.args[index]
                            add((owner, param), value, fn_defaults)
                if _callee(child.func) in ("dict", "replace"):
                    for kw in keywords:
                        add(("*field", kw.arg), kw.value, fn_defaults)
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and not (
                        isinstance(target.value, ast.Name) and target.value.id == "self"
                    ):
                        add(("*field", target.attr), child.value, fn_defaults)
            visit(child, cls_name, fn_defaults, unpacked, caller)

    visit(tree, None, {}, {})
    return setters


@functools.cache
def census() -> tuple:
    """Every ``src/`` option with the sorted top-level directories that set it."""
    parsed = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in SETTER_DIRS
        for path in _files(top)
    }
    classes = _Classes(parsed.values())
    # Defaulted parameters everywhere feed the pass-through chains; only
    # src/'s are counted.
    every = [opt for path, tree in parsed.items() for opt in _collect_options(path, tree)]
    options = [opt for opt in every if opt.module.startswith("src/")]
    # owner -> {parameter: the positional index calls reach it at}
    positions: dict[str, dict[str, int]] = {}
    for opt in options:
        if opt.position is not None:
            positions.setdefault(opt.key[0], {})[opt.name] = opt.position
    forwards: dict[str, set[str]] = {}
    setters = [
        s
        for path, tree in parsed.items()
        for s in _collect_setters(path, tree, classes, positions, forwards)
    ]
    # A keyword given to f reaches each callee of f(**kwargs), down the chain.
    work = [(s, ()) for s in setters]
    while work:
        setter, seen = work.pop()
        for target in forwards.get(setter.key[0], ()):
            if target in seen:
                continue
            passed = _Setter((target, setter.key[1]), setter.value, setter.source, setter.passes_on)
            setters.append(passed)
            work.append((passed, seen + (setter.key[0],)))
    by_key: dict[tuple[str, str], list[_Setter]] = {}
    for s in setters:
        by_key.setdefault(s.key, []).append(s)

    def effective(opt):
        found = by_key.get(opt.key, [])
        if opt.is_field:
            found = found + by_key.get(("*field", opt.name), [])
        return [
            s
            for s in found
            if opt.default is _NOT_LITERAL
            or s.value is _NOT_LITERAL
            or not _same(s.value, opt.default)
        ]

    # A pass-through sets its target only once its own source is set.
    set_keys = {opt.key for opt in options if opt.label in ALLOWED}
    changed = True
    while changed:
        changed = False
        for opt in every:
            if opt.key in set_keys:
                continue
            if any(s.passes_on is None or s.passes_on in set_keys for s in effective(opt)):
                set_keys.add(opt.key)
                changed = True
    return tuple(
        (opt, sorted({
            s.source for s in effective(opt) if s.passes_on is None or s.passes_on in set_keys
        }))
        for opt in options
    )


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


def unset_options():
    return sorted(opt.label for opt, dirs in census() if not dirs)


def options_set_only_by_tests():
    return sorted(opt.label for opt, dirs in census() if dirs == ["tests"])


def has_reason(reason: str) -> bool:
    """A reason names one letter of ``REASONS`` in parentheses, then says why."""
    return len(reason) > 4 and reason[0] == "(" and reason[2] == ")" and reason[1] in REASONS


def test_every_option_has_a_setter_or_a_reason():
    missing = [label for label in unset_options() if label not in ALLOWED]
    assert not missing, (
        "options that nothing sets: make each a constant with its default "
        "value, or give it a setter or an ALLOWED line with its reason:\n"
        + "\n".join(missing)
    )


def test_allowlist_is_current():
    unset = set(unset_options())
    stale = sorted(label for label in ALLOWED if label not in unset)
    assert not stale, "ALLOWED lines whose option is gone or now set:\n" + "\n".join(stale)


def test_allowlist_gives_reasons():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_tests_only_option_is_declared():
    undeclared = [label for label in options_set_only_by_tests() if label not in TESTS_ONLY]
    assert not undeclared, (
        "options that only tests set: make each a constant with its default value "
        "(and drop the tests of its other values), or add a TESTS_ONLY line with "
        "its reason:\n" + "\n".join(undeclared)
    )


def test_tests_only_table_is_current():
    tests_only = set(options_set_only_by_tests())
    stale = sorted(label for label in TESTS_ONLY if label not in tests_only)
    assert not stale, "TESTS_ONLY lines whose option is gone or set outside tests:\n" + "\n".join(
        stale
    )


def test_tests_only_reasons_name_a_letter():
    assert not [label for label, reason in TESTS_ONLY.items() if not has_reason(reason)]


# ----------------------------------------------------------------------
# The harness schema
# ----------------------------------------------------------------------
# "<kind>:<entry>" -> "(letter) why" for each schema entry no committed
# config or CLI flag sets.
SCHEMA_DECLARED = {
    "key:seed": "(c) ROADMAP item 8's seeds 0-2 (the committed configs run seed 0)",
}


def _plain(value):
    """JSON lists and the registries' tuples compare as one type."""
    return tuple(value) if isinstance(value, list) else value


@functools.cache
def schema_census() -> tuple:
    """Every harness schema entry with the sorted sources that set it."""
    from repro.experiments import ExperimentConfig, known_scenarios
    from repro.experiments.config import _EXPECT_OPS
    from repro.experiments.runner import _BACKEND_PARAMS

    keys = {
        f.name: f.default if f.default is not dataclasses.MISSING else _NOT_LITERAL
        for f in dataclasses.fields(ExperimentConfig)
    }
    # A backend parameter's default is its first allowed value (a list of
    # it for the task list); an int parameter's is scale-derived.
    backend_params = {
        name: {
            key: None if allowed is int else ([allowed[0]] if key == "tasks" else allowed[0])
            for key, allowed in params.items()
        }
        for name, params in _BACKEND_PARAMS.items()
    }
    entries = (
        [(f"key:{key}", default) for key, default in keys.items()]
        + [(f"scenario:{kind}", _NOT_LITERAL) for kind in known_scenarios()]
        + [
            (f"scenario:{kind}.{param}", default)
            for kind, params in known_scenarios().items()
            for param, default in params.items()
        ]
        + [(f"backend:{name}", _NOT_LITERAL) for name in backend_params]
        + [
            (f"backend:{name}.{param}", default)
            for name, params in backend_params.items()
            for param, default in params.items()
        ]
        + [(f"op:{op}", _NOT_LITERAL) for op in _EXPECT_OPS]
    )

    sets: dict[str, list] = {}  # entry -> the values the committed configs give it
    for path in sorted((ROOT / "examples" / "experiments").glob("*.json")):
        raw = json.loads(path.read_text())
        for key, value in raw.items():
            sets.setdefault(f"key:{key}", []).append(value)
        for scenario in raw.get("scenarios", []):
            scenario = {"kind": scenario} if isinstance(scenario, str) else scenario
            kind = scenario["kind"]
            sets.setdefault(f"scenario:{kind}", []).append(kind)
            for param, value in scenario.items():
                if param == "expect":
                    for expectation in value:
                        sets.setdefault(f"op:{expectation['op']}", []).append(expectation["op"])
                elif param not in ("kind", "label"):
                    sets.setdefault(f"scenario:{kind}.{param}", []).append(value)
        for backend in raw.get("backends", []):
            backend = {"name": backend} if isinstance(backend, str) else backend
            name = backend["name"].lower()
            sets.setdefault(f"backend:{name}", []).append(name)
            for param, value in backend.items():
                if param not in ("name", "label"):
                    sets.setdefault(f"backend:{name}.{param}", []).append(value)

    main = ast.parse((ROOT / "src" / "repro" / "__main__.py").read_text())
    cli_scale = any(
        isinstance(node, ast.Constant) and node.value == "--scale" for node in ast.walk(main)
    )
    rows = []
    for label, default in entries:
        sources = []
        if any(
            default is _NOT_LITERAL or not _same(_plain(value), _plain(default))
            for value in sets.get(label, [])
        ):
            sources.append("examples")
        if label == "key:scale" and cli_scale:
            sources.append("cli")
        rows.append((label, sources))
    return tuple(rows)


def unset_schema_entries():
    return sorted(label for label, sources in schema_census() if not sources)


def test_every_schema_entry_has_a_setter_or_a_reason():
    missing = [label for label in unset_schema_entries() if label not in SCHEMA_DECLARED]
    assert not missing, (
        "harness schema entries no committed config sets: delete each (its default "
        "becomes the behaviour), set it in a config, or add a SCHEMA_DECLARED line "
        "with its reason:\n" + "\n".join(missing)
    )


def test_schema_declarations_are_current():
    unset = set(unset_schema_entries())
    stale = sorted(label for label in SCHEMA_DECLARED if label not in unset)
    assert not stale, "SCHEMA_DECLARED lines whose entry is gone or now set:\n" + "\n".join(
        stale
    )


def test_schema_reasons_name_a_letter():
    assert not [label for label, reason in SCHEMA_DECLARED.items() if not has_reason(reason)]


if __name__ == "__main__":
    from test_names import print_name_census

    rows = census()
    params = [(o, d) for o, d in rows if not o.is_field]
    fields = [(o, d) for o, d in rows if o.is_field]
    for title, group in (("defaulted parameters", params), ("config fields", fields)):
        unset = [o for o, d in group if not d]
        tests_only = [o for o, d in group if d == ["tests"]]
        print(f"{title}: {len(group)}, no setter {len(unset)}, "
              f"set only by tests {len(tests_only)}")
        for o in unset:
            print("  unset     ", o.label, "(allowed)" if o.label in ALLOWED else "")
        for o in tests_only:
            print("  tests-only", o.label, TESTS_ONLY.get(o.label, "(undeclared)")[:3])
    schema = schema_census()
    unset = [label for label, sources in schema if not sources]
    print(f"harness schema entries: {len(schema)}, no setter {len(unset)}")
    for label in unset:
        print("  unset     ", label, SCHEMA_DECLARED.get(label, "(undeclared)")[:3])
    print_name_census()
