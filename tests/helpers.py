"""Shared test utilities (configs, one-shot decoding, offline evaluation,
numerical gradient checking).

Imported absolutely (``from helpers import ...``): the tests directory is
not a package, so relative imports do not resolve here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import LCRecConfig
from repro.core.indexer import SemanticIndexerConfig
from repro.core.tasks import AlignmentTaskConfig
from repro.eval import MetricReport, evaluate_generative_model_batched
from repro.llm import PretrainConfig, TuningConfig, decode_finish, decode_prefill, decode_step
from repro.quantization import RQVAEConfig, RQVAETrainerConfig
from repro.tensor import Tensor


def small_lcrec_config(**overrides) -> LCRecConfig:
    """A fast LC-Rec configuration for tests."""
    config = LCRecConfig(
        pretrain=PretrainConfig(steps=80, batch_size=8, seq_len=48),
        indexer=SemanticIndexerConfig(
            rqvae=RQVAEConfig(codebook_size=8, latent_dim=16,
                              hidden_dims=(32,)),
            trainer=RQVAETrainerConfig(epochs=60, batch_size=64),
        ),
        tasks=AlignmentTaskConfig(seq_per_user=1, max_history=6),
        tuning=TuningConfig(epochs=1, batch_size=8, max_len=160),
        beam_size=10,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def decode_prompts(model, prompts, trie, beam_size=20, prefix_cache=None, sessions=None):
    """Decode ``prompts`` to the trie's last level in one go: one hypothesis list each.

    Prefill, step until every row is done, finish — what the serving
    engines drive, with no admissions or retirements in between.
    ``sessions`` names each row's session key (``None``: keyless): a keyed
    row's prompt K/V is stored whole, in place of its session's previous one.
    """
    state = decode_prefill(model, prompts, trie, beam_size=beam_size,
                           prefix_cache=prefix_cache, sessions=sessions)
    while not state.done:
        decode_step(state)
    return decode_finish(state)


def evaluate_recommender(model, dataset, scale, template_id=0, batch_size=16) -> MetricReport:
    """Offline leave-one-out HR/NDCG of an LC-Rec over the scale's
    evaluation slice, decoded ``batch_size`` users at a time: the
    reference a harness ``steady_state`` cell is checked against."""
    limit = scale.max_eval_users
    return evaluate_generative_model_batched(
        lambda batch: model.recommend_many(batch, top_k=10, template_id=template_id),
        dataset.split.test_histories[:limit],
        dataset.split.test_targets[:limit],
        batch_size=batch_size,
    )


def evaluate_recommender_multi_template(
    model, dataset, scale, template_ids=(0, 1, 2)
) -> MetricReport:
    """The paper's Table III protocol ("average results from multiple
    instruction templates"): each template evaluated on its own, the
    metric values averaged (no ensembling of rankings)."""
    if not template_ids:
        raise ValueError("need at least one template id")
    reports = [evaluate_recommender(model, dataset, scale, template_id=t) for t in template_ids]
    return MetricReport(
        {key: float(np.mean([r[key] for r in reports])) for key in reports[0].values}
    )


def numeric_grad(fn: Callable[[np.ndarray], float], x: np.ndarray,
                 eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build: Callable[[Tensor], Tensor], x_data: np.ndarray,
                   atol: float = 2e-2, rtol: float = 2e-2,
                   eps: float = 1e-3) -> None:
    """Assert analytic and numeric gradients of ``sum(build(x))`` agree."""
    x_data = np.asarray(x_data, dtype=np.float32)

    def scalar_fn(arr: np.ndarray) -> float:
        out = build(Tensor(arr.astype(np.float32)))
        return float(out.data.sum())

    x = Tensor(x_data.copy(), requires_grad=True)
    out = build(x)
    out.sum().backward()
    assert x.grad is not None, "no gradient propagated to input"
    numeric = numeric_grad(scalar_fn, x_data.copy().astype(np.float64), eps=eps)
    np.testing.assert_allclose(x.grad, numeric, atol=atol, rtol=rtol)
