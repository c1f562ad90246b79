"""Shared test utilities (configs, one-shot decoding, numerical gradient checking).

Imported absolutely (``from helpers import ...``): the tests directory is
not a package, so relative imports do not resolve here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import LCRecConfig
from repro.core.indexer import SemanticIndexerConfig
from repro.core.tasks import AlignmentTaskConfig
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


def decode_prompts(model, prompts, trie, beam_size=20, pad_id=0, prefix_cache=None):
    """Decode ``prompts`` to the trie's last level in one go: one hypothesis list each.

    Prefill, step until every row is done, finish — what the serving
    engines drive, with no admissions or retirements in between.
    """
    state = decode_prefill(model, prompts, trie, beam_size=beam_size, pad_id=pad_id,
                           prefix_cache=prefix_cache)
    while not state.done:
        decode_step(state)
    return decode_finish(state)


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
