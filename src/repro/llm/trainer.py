"""Instruction-tuning trainer (paper Sec. IV-A4).

Reproduces the fine-tuning recipe: AdamW with weight decay, a cosine
schedule with warmup, gradient clipping, and the paper's template-sampling
strategy — during each epoch every datum appears exactly once with one
randomly sampled instruction template ("repeating data may lead to
overfitting").  Template sampling happens in :mod:`repro.core.tasks`; this
trainer consumes already-rendered examples per epoch via a callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..tensor import AdamW, CosineWarmup, train_epochs
from ..tensor import functional as F
from ..text import WordTokenizer
from ..utils.logging import get_logger
from .instruction import InstructionExample, collate_batch, encode_example
from .model import TinyLlama

__all__ = ["TuningConfig", "InstructionTuner"]

logger = get_logger(__name__)

ExampleSampler = Callable[[int], Sequence[InstructionExample]]


@dataclass
class TuningConfig:
    epochs: int = 4
    batch_size: int = 16
    lr: float = 3e-3
    weight_decay: float = 0.01
    warmup_frac: float = 0.05
    clip_norm: float = 1.0
    max_len: int = 200
    seed: int = 0
    log_every: int = 200
    # Optional early stopping: keep the weights of the epoch with the best
    # held-out loss (requires ``validation_examples`` passed to ``tune``).
    early_stopping_patience: int | None = None


class InstructionTuner:
    """Fine-tunes a :class:`TinyLlama` on instruction/response pairs."""

    def __init__(self, model: TinyLlama, tokenizer: WordTokenizer, config: TuningConfig):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config

    def tune(
        self,
        sampler: ExampleSampler,
        validation_examples: Sequence[InstructionExample] | None = None,
    ) -> list[float]:
        """Run tuning; ``sampler(epoch)`` yields that epoch's examples.

        When ``validation_examples`` is given and
        ``config.early_stopping_patience`` is set, the held-out loss is
        evaluated after every epoch; training stops once it fails to
        improve for ``patience`` consecutive epochs and the best epoch's
        weights are restored.

        Returns the per-step loss history.
        """
        config = self.config
        early_stopping = (
            config.early_stopping_patience is not None and validation_examples is not None
        )
        best_state = None
        rng = np.random.default_rng(config.seed)
        first_epoch = list(sampler(0))
        if not first_epoch:
            raise ValueError("sampler produced no examples")
        total_steps = int(np.ceil(len(first_epoch) / config.batch_size)) * config.epochs

        def steps():
            """One batch per "epoch" (the history is per step); early stopping between epochs."""
            nonlocal best_state
            best_val, bad_epochs = float("inf"), 0
            for epoch in range(config.epochs):
                examples = first_epoch if epoch == 0 else list(sampler(epoch))
                encoded = [encode_example(self.tokenizer, ex, config.max_len) for ex in examples]
                # Length-bucketed shuffling: randomise, then sort within chunks
                # so batches have similar lengths (less padding waste).
                order = rng.permutation(len(encoded))
                chunk = config.batch_size * 8
                bucketed: list[int] = []
                for start in range(0, len(order), chunk):
                    block = sorted(order[start : start + chunk], key=lambda i: len(encoded[i]))
                    bucketed.extend(block)
                for start in range(0, len(bucketed), config.batch_size):
                    batch = [encoded[i] for i in bucketed[start : start + config.batch_size]]
                    yield [collate_batch(batch, pad_id=self.tokenizer.vocab.pad_id)]
                if early_stopping:
                    val_loss = self.evaluate_loss(validation_examples)
                    self.model.train()
                    if val_loss < best_val - 1e-6:
                        best_val, best_state, bad_epochs = val_loss, self.model.state_dict(), 0
                    else:
                        bad_epochs += 1
                        if bad_epochs >= config.early_stopping_patience:
                            logger.info(
                                "early stop after epoch %d (best val=%.4f)", epoch + 1, best_val
                            )
                            return

        def loss(batch):
            input_ids, labels = batch
            logits = self.model(input_ids[:, :-1])
            return F.cross_entropy(logits, labels[:, 1:], ignore_index=-100)

        losses = train_epochs(
            self.model,
            AdamW(self.model.parameters(), lr=config.lr, weight_decay=config.weight_decay),
            steps(),
            loss,
            name="tune step",
            clip_norm=config.clip_norm,
            schedule=CosineWarmup(
                config.lr,
                warmup_steps=int(total_steps * config.warmup_frac),
                total_steps=total_steps,
            ),
            log_every=config.log_every,
        )
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return losses

    def evaluate_loss(self, examples: Sequence[InstructionExample]) -> float:
        """Mean response-token cross-entropy on held-out examples."""
        from ..tensor import no_grad

        encoded = [encode_example(self.tokenizer, ex, self.config.max_len) for ex in examples]
        total, count = 0.0, 0
        self.model.eval()
        with no_grad():
            for start in range(0, len(encoded), self.config.batch_size):
                batch = encoded[start : start + self.config.batch_size]
                input_ids, labels = collate_batch(batch, pad_id=self.tokenizer.vocab.pad_id)
                logits = self.model(input_ids[:, :-1])
                loss = F.cross_entropy(logits, labels[:, 1:], ignore_index=-100)
                total += loss.item() * len(batch)
                count += len(batch)
        return total / max(count, 1)
