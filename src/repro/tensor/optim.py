"""Optimisers and gradient utilities.

The paper trains the RQ-VAE and the LLM with AdamW (Sec. IV-A4); the
baselines use Adam.  Both are implemented here, together with global-norm
gradient clipping and :func:`train_epochs`, the one minibatch loop every
model in the repository trains with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

import numpy as np

from ..utils.logging import get_logger
from .tensor import Parameter, Tensor

if TYPE_CHECKING:
    from .nn import Module
    from .sched import Schedule

__all__ = ["SGD", "Adam", "AdamW", "clip_grad_norm", "train_epochs"]

logger = get_logger(__name__)

Batch = TypeVar("Batch")


class Optimizer:
    """Base optimiser holding a parameter list and a learning rate."""

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.params = list(params)
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params, lr: float, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            if self.momentum > 0:
                velocity *= self.momentum
                velocity += param.grad
                param.data -= self.lr * velocity
            else:
                param.data -= self.lr * param.grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba)."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        super().__init__(params, lr, betas, eps)
        self.weight_decay = weight_decay

    def step(self) -> None:
        if self.weight_decay > 0:
            for param in self.params:
                if param.grad is not None:
                    param.data -= self.lr * self.weight_decay * param.data
        super().step()


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float((param.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm


def train_epochs(
    model: Module,
    optimizer: Optimizer,
    epochs: Iterable[Iterable[Batch]],
    loss_fn: Callable[[Batch], Tensor],
    *,
    name: str,
    clip_norm: float | None = None,
    schedule: Schedule | None = None,
    log_every: int = 10,
) -> list[float]:
    """Minimise ``loss_fn`` over ``epochs`` of batches; return each epoch's mean loss.

    Every batch is one optimiser step: ``schedule.apply`` (counting steps
    across epochs), ``loss_fn(batch)``, ``zero_grad``, ``backward``,
    ``clip_grad_norm`` (when ``clip_norm`` is set), ``step``.  Batches are
    drawn lazily, so a caller's RNG draws — in its batch generator or its
    loss function — happen in loop order.  A loop that reports per-step
    losses passes one batch per "epoch".  Every ``log_every`` epochs the
    mean is logged as ``"{name} {epoch}: loss=..."``.

    Training ends the same way for every model: spent gradients are
    dropped (a ``WeightMemo`` refuses to cache while any parameter holds
    one) and the model is left in eval mode.
    """
    means: list[float] = []
    step = 0
    model.train()
    for epoch, batches in enumerate(epochs, start=1):
        total, count = 0.0, 0
        for batch in batches:
            if schedule is not None:
                schedule.apply(optimizer, step)
            loss = loss_fn(batch)
            # Drop the last step's gradients only now: alive through the
            # forward, they keep glibc from trimming the heap the freed graph
            # left behind, which the forward would otherwise fault back in.
            # On the ledger fixture's build, with the backward freeing as it
            # goes, TIGER.fit faults 21 k pages this way and 45 k dropping
            # them first; the LM pretraining ≈ 250 k either way, and neither
            # stage's wall time moves beyond run-to-run noise (2-vCPU Xeon).
            optimizer.zero_grad()
            loss.backward()
            if clip_norm is not None:
                clip_grad_norm(optimizer.params, clip_norm)
            optimizer.step()
            total += loss.item()
            count += 1
            step += 1
        means.append(total / max(count, 1))
        if epoch % log_every == 0:
            logger.info("%s %d: loss=%.4f", name, epoch, means[-1])
    model.zero_grad()
    model.eval()
    return means
