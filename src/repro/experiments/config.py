"""Declarative experiment configuration: one dict/JSON → one reproducible run.

An :class:`ExperimentConfig` is the single declaration the harness needs:
*what* to measure (backends × scenarios, and the cutoffs HR and NDCG are
read at), *at which size* (dataset preset and :class:`repro.bench.BenchScale`
name — settable here programmatically, with the ``REPRO_SCALE`` environment
variable only as the fallback), and *under which seed*.  Everything
downstream — workload generation, serving wiring, metric computation and
the JSON record — is a pure function of this object, which is what makes
two runs of the same config at the same seed emit identical records.

Configs load from plain dicts or from JSON files.  Validation is strict
and early: unknown keys, unknown scenario kinds, unknown backends, malformed
expectations and out-of-range values all raise
:class:`ExperimentConfigError` before any model is built.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

__all__ = [
    "BackendSpec",
    "Expectation",
    "ExperimentConfig",
    "ExperimentConfigError",
    "ScenarioSpec",
]

_EXPECT_OPS = {
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
}


class ExperimentConfigError(ValueError):
    """A config failed validation; the message says which field and why."""


def _require_type(value, types, what: str):
    if not isinstance(value, types):
        names = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        raise ExperimentConfigError(
            f"{what} must be {names}, got {type(value).__name__}: {value!r}"
        )
    return value


def _require_int(value, what: str, minimum: int) -> int:
    """``value`` if it is an int (a bool is not one) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ExperimentConfigError(f"{what} must be an int >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class Expectation:
    """One per-cell assertion: ``metric`` (dotted path into the record)
    compared against ``value`` with ``op`` (gt/ge/eq).

    This is how a scenario keeps its assertions: the harness evaluates
    every expectation against the finished cell record, writes the
    outcomes into the record, and the run fails loudly if any expectation
    does not hold.
    """

    metric: str
    op: str
    value: float

    @classmethod
    def from_dict(cls, raw: Mapping, where: str) -> "Expectation":
        _require_type(raw, dict, f"{where} expectation")
        unknown = set(raw) - {"metric", "op", "value"}
        if unknown:
            raise ExperimentConfigError(
                f"{where} expectation has unknown keys {sorted(unknown)}; "
                "allowed: metric, op, value"
            )
        for key in ("metric", "op", "value"):
            if key not in raw:
                raise ExperimentConfigError(f"{where} expectation is missing {key!r}")
        op = raw["op"]
        if op not in _EXPECT_OPS:
            raise ExperimentConfigError(
                f"{where} expectation op {op!r} unknown; one of {sorted(_EXPECT_OPS)}"
            )
        metric = _require_type(raw["metric"], str, f"{where} expectation metric")
        value = raw["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExperimentConfigError(
                f"{where} expectation value must be a number, got {value!r}"
            )
        return cls(metric=metric, op=op, value=float(value))

    def check(self, record: Mapping) -> tuple[bool, object]:
        """(holds, observed) against one cell record; missing paths fail."""
        node: object = record
        for part in self.metric.split("."):
            if not isinstance(node, Mapping) or part not in node:
                return False, None
            node = node[part]
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            return False, node
        return _EXPECT_OPS[self.op](node, self.value), node

    def to_dict(self) -> dict:
        return {"metric": self.metric, "op": self.op, "value": self.value}


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario cell row: a registered kind plus its parameters.

    ``label`` names the row in records and must be unique within a config
    (it defaults to ``kind``, so listing the same kind twice — say, a
    burst with and without a fallback — needs explicit labels).
    """

    kind: str
    label: str
    params: dict = field(default_factory=dict)
    expect: tuple[Expectation, ...] = ()

    @classmethod
    def from_raw(cls, raw, index: int) -> "ScenarioSpec":
        where = f"scenarios[{index}]"
        if isinstance(raw, str):
            raw = {"kind": raw}
        _require_type(raw, dict, where)
        if "kind" not in raw:
            raise ExperimentConfigError(f"{where} is missing 'kind'")
        kind = _require_type(raw["kind"], str, f"{where}.kind")
        label = _require_type(raw.get("label", kind), str, f"{where}.label")
        expect = tuple(
            Expectation.from_dict(entry, f"{where} ({label})")
            for entry in _require_type(raw.get("expect", []), list, f"{where}.expect")
        )
        params = {
            key: value
            for key, value in raw.items()
            if key not in ("kind", "label", "expect")
        }
        from .scenarios import validate_scenario  # late: avoids an import cycle

        validate_scenario(kind, params, where)
        return cls(kind=kind, label=label, params=params, expect=expect)

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "label": self.label, **self.params}
        if self.expect:
            payload["expect"] = [expectation.to_dict() for expectation in self.expect]
        return payload


@dataclass(frozen=True)
class BackendSpec:
    """One backend column: a registered name, the ``label`` that names it
    in records (defaults to ``name``; build variants of one backend share
    a config under distinct labels) and its build parameters."""

    name: str
    label: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_raw(cls, raw, index: int) -> "BackendSpec":
        where = f"backends[{index}]"
        if isinstance(raw, str):
            raw = {"name": raw}
        _require_type(raw, dict, where)
        if "name" not in raw:
            raise ExperimentConfigError(f"{where} is missing 'name'")
        name = _require_type(raw["name"], str, f"{where}.name").lower()
        label = _require_type(raw.get("label", name), str, f"{where}.label")
        if not label:
            raise ExperimentConfigError(f"{where}.label must be non-empty")
        params = {key: value for key, value in raw.items() if key not in ("name", "label")}
        from .runner import validate_backend  # late: avoids an import cycle

        validate_backend(name, params, where)
        return cls(name=name, label=label, params=params)

    def to_dict(self) -> dict:
        label = {"label": self.label} if self.label != self.name else {}
        return {"name": self.name, **label, **self.params}


@dataclass(frozen=True)
class ExperimentConfig:
    """The full declaration of one experiment run.

    ``scale`` selects the :class:`repro.bench.BenchScale` by name
    (``tiny``/``small``/``full``); ``None`` falls back to the
    ``REPRO_SCALE`` environment variable — but a config that pins
    ``scale`` is self-contained and needs no environment setup (and no
    monkeypatching in tests).
    """

    name: str
    backends: tuple[BackendSpec, ...]
    scenarios: tuple[ScenarioSpec, ...]
    seed: int = 0
    preset: str = "instruments"
    scale: str | None = None
    cutoffs: tuple[int, ...] = (5, 10)
    num_workers: int = 2

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        _require_type(raw, dict, "experiment config")
        allowed = {config_field.name for config_field in fields(cls)}
        unknown = set(raw) - allowed
        if unknown:
            raise ExperimentConfigError(
                f"unknown config keys {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        for key in ("name", "backends", "scenarios"):
            if key not in raw:
                raise ExperimentConfigError(f"config is missing required key {key!r}")
        name = _require_type(raw["name"], str, "name")
        if not name or any(c in name for c in "/\\ "):
            raise ExperimentConfigError(
                f"name must be a non-empty path-safe token, got {name!r}"
            )
        backends = tuple(
            BackendSpec.from_raw(entry, index)
            for index, entry in enumerate(_require_type(raw["backends"], list, "backends"))
        )
        if not backends:
            raise ExperimentConfigError("backends must name at least one backend")
        if len({spec.label for spec in backends}) != len(backends):
            raise ExperimentConfigError(
                "backend labels must be unique; give repeated names an explicit 'label'"
            )
        scenarios = tuple(
            ScenarioSpec.from_raw(entry, index)
            for index, entry in enumerate(
                _require_type(raw["scenarios"], list, "scenarios")
            )
        )
        if not scenarios:
            raise ExperimentConfigError("scenarios must name at least one scenario")
        labels = [spec.label for spec in scenarios]
        if len(set(labels)) != len(labels):
            raise ExperimentConfigError(
                f"scenario labels must be unique, got {labels}; "
                "give repeated kinds an explicit 'label'"
            )
        cutoffs = _require_type(raw.get("cutoffs", list(cls.cutoffs)), list, "cutoffs")
        if not cutoffs or any(
            isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in cutoffs
        ):
            raise ExperimentConfigError(f"cutoffs must be positive ints, got {cutoffs}")
        scale = raw.get("scale")
        if scale is not None:
            from ..bench import bench_scale

            scale = _require_type(scale, str, "scale").lower()
            try:
                bench_scale(scale)
            except KeyError as exc:
                raise ExperimentConfigError(exc.args[0]) from None
        preset = _require_type(raw.get("preset", cls.preset), str, "preset")
        from ..data import PRESETS

        if preset not in PRESETS:
            raise ExperimentConfigError(f"unknown preset {preset!r}; one of {sorted(PRESETS)}")
        return cls(
            name=name,
            backends=backends,
            scenarios=scenarios,
            seed=_require_int(raw.get("seed", cls.seed), "seed", 0),
            preset=preset,
            scale=scale,
            cutoffs=tuple(cutoffs),
            num_workers=_require_int(raw.get("num_workers", cls.num_workers), "num_workers", 1),
        )

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> "ExperimentConfig":
        """Load a config from a ``.json`` file."""
        path = pathlib.Path(path)
        if not path.exists():
            raise ExperimentConfigError(f"config file not found: {path}")
        if path.suffix != ".json":
            raise ExperimentConfigError(f"config file must be .json, got {path.suffix!r} ({path})")
        return cls.from_dict(json.loads(path.read_text()))

    # ------------------------------------------------------------------
    # Serialisation (the record's config block)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "preset": self.preset,
            "scale": self.scale,
            "backends": [spec.to_dict() for spec in self.backends],
            "scenarios": [spec.to_dict() for spec in self.scenarios],
            "cutoffs": list(self.cutoffs),
            "num_workers": self.num_workers,
        }

    def metric_keys(self) -> list[str]:
        """The quality-metric labels, HR at every cutoff then NDCG, e.g.
        ``["HR@5", "HR@10", "NDCG@5", "NDCG@10"]``; NDCG@1 degenerates to
        HR@1 and is left out."""
        return [f"HR@{k}" for k in self.cutoffs] + [f"NDCG@{k}" for k in self.cutoffs if k > 1]


def cell_name(scenario: ScenarioSpec | str, backend: BackendSpec | str) -> str:
    """The canonical ``<scenario label>x<backend label>`` cell id used in records."""
    scenario_label = scenario if isinstance(scenario, str) else scenario.label
    backend_label = backend if isinstance(backend, str) else backend.label
    return f"{scenario_label}x{backend_label}"


def ordered_cells(
    config: ExperimentConfig,
) -> Sequence[tuple[ScenarioSpec, BackendSpec]]:
    """The (scenario × backend) matrix in deterministic row-major order."""
    return [
        (scenario, backend)
        for scenario in config.scenarios
        for backend in config.backends
    ]
