"""Fused neural-network operations for the autodiff engine.

These functions create single tape nodes with hand-derived backward rules,
which is substantially faster than composing them from primitive ops.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "layer_norm",
    "rms_norm",
    "dropout",
    "dropout_mask",
    "embedding",
    "masked_fill",
    "logsumexp",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    probs = np.exp(out_data)

    def backward(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable ``log(sum(exp(x)))`` reduction."""
    x = as_tensor(x)
    maxes = x.data.max(axis=axis, keepdims=True)
    exp = np.exp(x.data - maxes)
    total = exp.sum(axis=axis, keepdims=True)
    out_data = np.log(total) + maxes
    softmax_vals = exp / total
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(g):
        g_arr = g if keepdims else np.expand_dims(g, axis)
        return (g_arr * softmax_vals,)

    return Tensor._make(out_data, (x,), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> Tensor:
    """Mean token-level cross entropy.

    Parameters
    ----------
    logits:
        ``(..., num_classes)`` unnormalised scores.
    targets:
        Integer array broadcastable to ``logits.shape[:-1]``.
    ignore_index:
        Target value whose positions contribute no loss (label masking, used
        to train on response tokens only during instruction tuning).
    """
    logits = as_tensor(logits)
    num_classes = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, num_classes)
    flat_targets = np.asarray(targets).reshape(-1)

    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
    n_valid = max(int(valid.sum()), 1)

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z

    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[np.arange(flat_targets.size), safe_targets]
    loss = -(picked * valid).sum() / n_valid

    probs = np.exp(log_probs)
    logits_shape = logits.shape

    def backward(g):
        grad = probs.copy()
        grad[np.arange(flat_targets.size), safe_targets] -= 1.0
        grad *= valid[:, None]
        grad *= float(g) / n_valid
        return (grad.reshape(logits_shape),)

    return Tensor._make(np.float32(loss), (logits,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias = as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mu) * inv_std
    out_data = weight.data * x_hat + bias.data
    feature_axes = tuple(range(x.ndim - 1))

    def backward(g):
        g_hat = g * weight.data
        gx = inv_std * (
            g_hat
            - g_hat.mean(axis=-1, keepdims=True)
            - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True)
        )
        g_weight = (g * x_hat).sum(axis=feature_axes)
        g_bias = g.sum(axis=feature_axes)
        return (gx, g_weight, g_bias)

    return Tensor._make(out_data, (x, weight, bias), backward)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalisation (the LLaMA normalisation layer)."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    mean_sq = (x.data * x.data).mean(axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(mean_sq + eps)
    normed = x.data * inv_rms
    out_data = weight.data * normed
    dim = x.shape[-1]
    feature_axes = tuple(range(x.ndim - 1))

    def backward(g):
        g_normed = g * weight.data
        # d/dx [x * inv_rms]: inv_rms * g - x * <g, x> * inv_rms^3 / dim
        inner = (g_normed * x.data).sum(axis=-1, keepdims=True)
        gx = g_normed * inv_rms - x.data * inner * (inv_rms**3) / dim
        g_weight = (g * normed).sum(axis=feature_axes)
        return (gx, g_weight)

    return Tensor._make(out_data, (x, weight), backward)


def dropout_mask(
    shape: tuple[int, ...], p: float, rng: np.random.Generator, training: bool
) -> np.ndarray | None:
    """Inverted-dropout multipliers (0 or ``1 / (1 - p)``); None when dropout is off."""
    if not training or p <= 0.0:
        return None
    keep = 1.0 - p
    return (rng.random(shape) < keep).astype(np.float32) / keep


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    x = as_tensor(x)
    mask = dropout_mask(x.shape, p, rng, training)
    if mask is None:
        return x

    def backward(g):
        return (g * mask,)

    return Tensor._make(x.data * mask, (x,), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add backward."""
    weight = as_tensor(weight)
    idx = np.asarray(indices)
    out_data = weight.data[idx]
    vocab_shape = weight.shape

    def backward(g):
        grad = np.zeros(vocab_shape, dtype=np.float32)
        np.add.at(grad, idx, g)
        return (grad,)

    return Tensor._make(out_data, (weight,), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is True by ``value`` (constant)."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, np.float32(value), x.data)

    def backward(g):
        return (np.where(mask, 0.0, g),)

    return Tensor._make(out_data, (x,), backward)
