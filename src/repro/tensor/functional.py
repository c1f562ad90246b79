"""Fused neural-network operations for the autodiff engine.

These functions create single tape nodes with hand-derived backward rules,
which is substantially faster than composing them from primitive ops.  Like
every closure on the tape, each backward captures only the arrays and
shapes it reads.
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
    "dropout_keep",
    "dropout_mask",
    "embedding",
    "masked_fill",
    "logsumexp",
    "swiglu",
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
    weight_data = weight.data

    def backward(g):
        g_hat = g * weight_data
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
    x_data, weight_data = x.data, weight.data

    def backward(g):
        g_normed = g * weight_data
        # d/dx [x * inv_rms]: inv_rms * g - x * <g, x> * inv_rms^3 / dim
        inner = (g_normed * x_data).sum(axis=-1, keepdims=True)
        gx = g_normed * inv_rms - x_data * inner * (inv_rms**3) / dim
        g_weight = (g * normed).sum(axis=feature_axes)
        return (gx, g_weight)

    return Tensor._make(out_data, (x, weight), backward)


def dropout_keep(
    shape: tuple[int, ...], p: float, rng: np.random.Generator, training: bool
) -> np.ndarray | None:
    """Boolean keep-mask for inverted dropout; None when dropout is off.

    A tape node stores this (one byte an element) and rebuilds the float
    multipliers with :func:`dropout_mask` when its backward runs.
    """
    if not training or p <= 0.0:
        return None
    return rng.random(shape) < 1.0 - p


def dropout_mask(keep: np.ndarray, p: float) -> np.ndarray:
    """Inverted-dropout multipliers (0 or ``1 / (1 - p)``) of a keep-mask."""
    return keep.astype(np.float32) / (1.0 - p)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    x = as_tensor(x)
    keep = dropout_keep(x.shape, p, rng, training)
    if keep is None:
        return x

    def backward(g):
        return (g * dropout_mask(keep, p),)

    return Tensor._make(x.data * dropout_mask(keep, p), (x,), backward)


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


def swiglu(gate: Tensor, up: Tensor) -> Tensor:
    """``gate.silu() * up`` as one tape node (the LLaMA feed-forward's gating).

    The closure keeps ``gate`` and ``up`` only: the sigmoid and the SiLU
    output die in the forward, and the backward recomputes them with the
    same numpy expressions, then runs what the ``silu`` and ``*`` nodes'
    backwards ran, so gradients are bit-identical to the composition's.
    The parents are ``(gate, up)``, so the depth-first sort visits ``up``
    and then ``gate``, as it did through the ``*`` node.
    """
    gate = as_tensor(gate)
    up = as_tensor(up)
    x, u = gate.data, up.data
    # One buffer: the sigmoid, then times gate, then times up (IEEE products
    # commute, so these are the composition's bits).
    out_data = np.negative(x)
    np.exp(out_data, out=out_data)
    out_data += 1.0
    np.divide(1.0, out_data, out=out_data)
    out_data *= x
    out_data *= u

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-x))
        g_gate = g * u
        return (g_gate * (sig + x * sig * (1.0 - sig)), g * (x * sig))

    return Tensor._make(out_data, (gate, up), backward)
