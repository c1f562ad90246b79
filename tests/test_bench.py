"""Tests for benchmark scales, the paths docs name, and the Table V
choosers of ``examples/games_analyses.py``."""

import importlib.util
import pathlib
import re

import numpy as np
import pytest

from repro.bench import bench_scale, scaled_dataset
from repro.bench.config import BenchScale

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _games_analyses():
    spec = importlib.util.spec_from_file_location(
        "games_analyses", ROOT / "examples" / "games_analyses.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


analyses = _games_analyses()


class TestScales:
    def test_default_scale_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert bench_scale().name == "small"

    def test_env_selects_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert bench_scale().name == "tiny"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(KeyError):
            bench_scale()

    def test_epochs_scaling_and_floor(self):
        scale = BenchScale("x", dataset_scale=1.0, epoch_scale=0.1,
                           max_eval_users=10)
        assert scale.epochs(30) == 3
        assert scale.epochs(2, minimum=5) == 5

    def test_scaled_dataset_small_vs_tiny(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        tiny = scaled_dataset("instruments")
        monkeypatch.setenv("REPRO_SCALE", "small")
        small = scaled_dataset("instruments")
        assert tiny.num_users < small.num_users


def test_doc_paths_exist():
    """Every example script, experiment config and ledger module that docs,
    CI, the verify skill or a ``src/`` docstring names is in the tree, and
    none of them names a ``bench_*.py`` script (``benchmarks/`` is gone)."""
    root = ROOT
    sources = [root / "README.md", root / ".github/workflows/ci.yml"]
    sources += [root / ".claude/skills/verify/SKILL.md", *root.glob("docs/*.md")]
    sources += root.glob("src/**/*.py")
    named = re.compile(
        r"(?:benchmarks/)?(bench_\w+\.py)|(examples/[\w/]+\.\w+)|(perf/[\w/]+\.py)"
    )
    missing = set()
    for source in filter(pathlib.Path.exists, sources):
        for bench, config, ledger in named.findall(source.read_text()):
            path = f"benchmarks/{bench}" if bench else config or ledger
            if not (root / path).exists():
                missing.add(f"{source.relative_to(root)}: {path}")
    assert not missing, sorted(missing)


class FakeScoreModel:
    """Prefers higher item ids."""

    def score_all(self, histories):
        return np.tile(np.arange(10, dtype=np.float32), (len(histories), 1))


class TestChoosers:
    def test_score_model_chooser(self):
        choose = analyses.score_model_chooser(FakeScoreModel())
        assert choose([0], 3, 7) == 7
        assert choose([0], 8, 2) == 8

    def test_lcrec_index_chooser_consistent(self, tiny_lcrec, tiny_dataset):
        choose = analyses.lcrec_index_chooser(tiny_lcrec)
        history = tiny_dataset.split.test_histories[0]
        first = choose(history, 1, 2)
        second = choose(history, 2, 1)  # order-invariant up to ties
        assert first in (1, 2)
        assert second in (1, 2)

    def test_lcrec_title_chooser_returns_candidate(self, tiny_lcrec,
                                                   tiny_dataset):
        choose = analyses.lcrec_title_chooser(tiny_lcrec)
        history = tiny_dataset.split.test_histories[0]
        assert choose(history, 3, 5) in (3, 5)

    def test_pretrained_lm_chooser(self, tiny_lcrec, tiny_dataset):
        lm = tiny_lcrec.pretrained_lm()
        choose = analyses.pretrained_lm_chooser(lm, tiny_lcrec.tokenizer,
                                       tiny_dataset.catalog)
        history = tiny_dataset.split.test_histories[0]
        assert choose(history, 0, 4) in (0, 4)

    def test_pretrained_lm_snapshot_excludes_index_tokens(self, tiny_lcrec):
        lm = tiny_lcrec.pretrained_lm()
        assert lm.vocab_size == tiny_lcrec.tokenizer.vocab.base_size
        assert tiny_lcrec.lm.vocab_size > lm.vocab_size
