"""The ledger's trace seams still line up with ``src/``.

``perf/tracing.py`` times the layers by monkey-patching public callables
from outside the package, so moving or renaming one breaks the ledger
silently — and so does *inheriting* one: ``Recorder.wrap`` resolves with
``getattr``, so if a patched class picked a method up from another patched
class, every call would record two nested spans and the per-request step
and forward counts would double.  Until the seams move into ``src/``
(ROADMAP item 4) this is what catches either in tier-1 instead of in a
traced run.  ``perf/`` is only read here, never edited.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set
from repro.llm import TinyLlama
from repro.quantization import IndexTrie
from repro.serving import RecommendRequest, TIGEREngine, TrieDecoderEngine
from repro.serving import engine as engine_module

TRACING = Path(__file__).resolve().parents[1] / "perf" / "tracing.py"


@pytest.fixture()
def installed():
    """(recorder, {(owner, attr): what the owner itself defined, or None}) while installed."""
    spec = importlib.util.spec_from_file_location("perf_tracing_under_test", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.Recorder()
    try:
        tracing.install_layer_spans(recorder)  # an unresolved seam raises AttributeError here
        yield recorder, {(owner, attr): own for owner, attr, own in recorder._patched}
    finally:
        recorder.uninstall()


def test_every_seam_the_ledger_names_resolves(installed):
    _, patched = installed
    expected = {(TIGER, name) for name in ("encode", "decode_hidden", "head_gather")}
    expected |= {(TinyLlama, name) for name in ("hidden_states", "lm_head_gather")}
    for engine_class in (TrieDecoderEngine, TIGEREngine):
        expected |= {(engine_class, name) for name in ("prefill", "step", "retire", "finalize")}
    expected |= {(engine_module, f"decode_{name}")
                 for name in ("prefill", "step", "join", "retire", "finish")}
    expected |= {(IndexTrie, name) for name in (
        "allowed_token_ids", "allowed_token_mask", "level_union", "union_for_levels", "subtrie",
        "with_item")}
    assert expected <= set(patched)


def test_no_patched_class_inherits_a_patched_method(installed):
    _, patched = installed
    for (owner, attr), own in patched.items():
        if not inspect.isclass(owner) or own is not None:
            continue  # its own definition: one wrapper, one span
        twice = [base for base in owner.__mro__[1:] if (base, attr) in patched]
        assert not twice, (
            f"{owner.__name__}.{attr} would be timed twice: also patched on "
            f"{[base.__name__ for base in twice]}"
        )


def test_one_call_records_one_span_per_seam(installed):
    # The end the rule above protects: a TIGER step is one engine span
    # around one stepper span, not two of each.
    recorder, _ = installed
    model = TIGER(build_random_index_set(30, 3, 6, np.random.default_rng(0)), TIGERConfig(dim=16))
    model.eval()
    engine = TIGEREngine(model)
    request = RecommendRequest(prompt_ids=engine.encode_history([1, 2]), top_k=3, beam_size=4)
    engine.finalize([request], engine.decode([request]))
    names = [span.name for span in recorder.spans]
    steps = names.count("serving.engine.step")
    assert steps >= 1 and names.count("llm.generation.step") == steps
    for name in ("serving.engine.prefill", "llm.generation.prefill", "baselines.tiger.encode",
                 "serving.engine.retire", "serving.engine.finalize"):
        assert names.count(name) == 1, name
