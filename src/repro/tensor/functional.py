"""Fused neural-network operations for the autodiff engine.

These functions create single tape nodes with hand-derived backward rules,
which is substantially faster than composing them from primitive ops.  Like
every closure on the tape, each backward captures only the arrays and
shapes it reads.  The norms and SwiGLU compute their output with a closure
over those same arrays (SwiGLU: over its operands' rebuilds) and hand it to
``Tensor._make`` as the output's rebuild, so the GEMM that reads the output
recomputes it in its backward instead of keeping it (a norm once per
backward for all its consumers); dropout passes its operand's rebuild on,
times the multipliers of its ``bool`` mask.
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


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - inner),)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor) -> Tensor:
    """Numerically stable log-softmax along the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - log_z
    probs = np.exp(out_data)

    def backward(g):
        return (g - probs * g.sum(axis=-1, keepdims=True),)

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
    flat_targets = np.asarray(targets).reshape(-1)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
    out_of_range = valid & ((flat_targets < 0) | (flat_targets >= num_classes))
    if out_of_range.any():
        raise ValueError(
            f"target {flat_targets[out_of_range][0]} is outside [0, {num_classes})"
            + ("" if ignore_index is None else f" and is not ignore_index {ignore_index}")
        )
    n_valid = max(int(valid.sum()), 1)

    # One logits-sized buffer beside the logits: shifted, then log-probs,
    # then probs, which the backward turns into the gradient in place.
    flat_logits = logits.data.reshape(-1, num_classes)
    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    shifted -= log_z

    safe_targets = np.where(valid, flat_targets, 0)
    picked = shifted[np.arange(flat_targets.size), safe_targets]
    loss = -(picked * valid).sum() / n_valid

    probs = np.exp(shifted, out=shifted)
    logits_shape = logits.shape

    def backward(g):
        # The node's backward runs once (``Tensor.backward`` drops it after
        # dispatch), so ``probs`` can become the gradient.
        grad = probs
        grad[np.arange(flat_targets.size), safe_targets] -= 1.0
        grad *= valid[:, None]
        grad *= float(g) / n_valid
        return (grad.reshape(logits_shape),)

    return Tensor._make(np.float32(loss), (logits,), backward)


def _shared(output):
    """A norm output's rebuild: computed once per backward, shared by its consumers.

    Returns the rebuild and the function that drops its array.  The norm's
    backward calls that first, and it runs after every consumer's (they are
    downstream), so the array lives from the first consumer's backward to
    the norm's own.  It is read-only: no consumer writes into what another
    reads.
    """
    rebuilt = []

    def rebuild():
        if not rebuilt:
            out = output()
            out.flags.writeable = False
            rebuilt.append(out)
        return rebuilt[0]

    return rebuild, rebuilt.clear


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias = as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mu) * inv_std
    feature_axes = tuple(range(x.ndim - 1))
    weight_data, bias_data = weight.data, bias.data

    def output():
        return weight_data * x_hat + bias_data

    rebuild, drop = _shared(output)

    def backward(g):
        drop()
        g_hat = g * weight_data
        gx = inv_std * (
            g_hat
            - g_hat.mean(axis=-1, keepdims=True)
            - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True)
        )
        g_weight = (g * x_hat).sum(axis=feature_axes)
        g_bias = g.sum(axis=feature_axes)
        return (gx, g_weight, g_bias)

    return Tensor._make(output(), (x, weight, bias), backward, rebuild)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalisation (the LLaMA normalisation layer)."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    mean_sq = (x.data * x.data).mean(axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(mean_sq + eps)
    dim = x.shape[-1]
    feature_axes = tuple(range(x.ndim - 1))
    x_data, weight_data = x.data, weight.data

    def output():
        return weight_data * (x_data * inv_rms)

    rebuild, drop = _shared(output)

    def backward(g):
        drop()
        g_normed = g * weight_data
        # d/dx [x * inv_rms]: inv_rms * g - x * <g, x> * inv_rms^3 / dim
        inner = (g_normed * x_data).sum(axis=-1, keepdims=True)
        gx = g_normed * inv_rms - x_data * inner * (inv_rms**3) / dim
        g_weight = (g * (x_data * inv_rms)).sum(axis=feature_axes)
        return (gx, g_weight)

    return Tensor._make(output(), (x, weight), backward, rebuild)


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
    """Inverted dropout; identity when not training or ``p == 0``.

    The output is rebuildable when ``x`` is, from the kept ``bool`` mask.
    """
    x = as_tensor(x)
    keep = dropout_keep(x.shape, p, rng, training)
    if keep is None:
        return x

    def backward(g):
        return (g * dropout_mask(keep, p),)

    def output(a):
        return a * dropout_mask(keep, p)

    return Tensor._make(output(x.data), (x,), backward, x._then(output))


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


def _kept(tensor: Tensor):
    """What a backward keeps of ``tensor``: a closure returning its data, the
    rebuild or, failing one, a read-only view of the array.  The backward
    may write into what it returns when that is writeable (a fresh rebuild,
    not a norm's shared one)."""
    if tensor._rebuild is not None:
        return tensor._rebuild
    data = tensor.data.view()
    data.flags.writeable = False
    return lambda: data


def swiglu(gate: Tensor, up: Tensor) -> Tensor:
    """``gate.silu() * up`` as one tape node (the LLaMA feed-forward's gating).

    The closure keeps ``gate``'s and ``up``'s rebuilds (their GEMMs over a
    rebuildable norm output, in the LLaMA block) or, failing one, the
    array: the sigmoid and the SiLU output die in the forward, and the
    backward recomputes them with the same numpy expressions, then runs
    what the ``silu`` and ``*`` nodes' backwards ran, so gradients are
    bit-identical to the composition's.  The parents are ``(gate, up)``, so
    the depth-first sort visits ``up`` and then ``gate``, as it did through
    the ``*`` node.  The output is rebuildable too, so ``down_proj`` does
    not keep it; its rebuild, which ``down_proj``'s backward calls first,
    leaves the rebuilt gate and up for this node's backward, so each of
    their GEMMs runs once per backward.
    """
    gate = as_tensor(gate)
    up = as_tensor(up)
    gate_data, up_data = _kept(gate), _kept(up)
    rebuilt = []

    def operands():
        if not rebuilt:
            rebuilt.append((gate_data(), up_data()))
        return rebuilt[0]

    def output():
        return _silu_times(*operands())

    def backward(g):
        x, u = operands()
        rebuilt.clear()
        # g·u·(sig + x·sig·(1 - sig)) and g·(x·sig): the plain expressions'
        # IEEE operations in their order, in two new buffers beside rebuilt
        # gate and up (four beside kept ones).
        sig = _sigmoid(x)
        x_sig = np.multiply(x, sig, out=x if x.flags.writeable else None)
        d_silu = 1.0 - sig
        d_silu *= x_sig
        np.add(sig, d_silu, out=d_silu)
        del sig
        g_gate = np.multiply(g, u, out=u if u.flags.writeable else None)
        g_gate *= d_silu
        del d_silu
        np.multiply(g, x_sig, out=x_sig)
        return (g_gate, x_sig)

    return Tensor._make(_silu_times(gate.data, up.data), (gate, up), backward, output)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` in one buffer, with the plain expression's bits."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def _silu_times(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``silu(x) * u`` in one buffer: the sigmoid, then times ``x``, then
    times ``u`` (IEEE products commute, so these are the composition's bits)."""
    out = _sigmoid(x)
    out *= x
    out *= u
    return out
