"""The learning-rate schedule.

The paper fine-tunes with "a cosine scheduler with warmup" (Sec. IV-A4);
:class:`CosineWarmup` reproduces that schedule, and it is the one schedule
:func:`repro.tensor.train_epochs` takes.
"""

from __future__ import annotations

import math

__all__ = ["CosineWarmup"]


class CosineWarmup:
    """Linear warmup followed by cosine decay to ``min_lr``."""

    def __init__(self, base_lr: float, warmup_steps: int, total_steps: int, min_lr: float = 0.0):
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.base_lr = float(base_lr)
        self.warmup_steps = max(int(warmup_steps), 0)
        self.total_steps = int(total_steps)
        self.min_lr = float(min_lr)

    def lr_at(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        span = max(self.total_steps - self.warmup_steps, 1)
        progress = min(max(step - self.warmup_steps, 0) / span, 1.0)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine

    def apply(self, optimizer, step: int) -> float:
        """Set ``optimizer.lr`` to the rate at ``step`` and return it."""
        lr = self.lr_at(step)
        optimizer.lr = lr
        return lr
