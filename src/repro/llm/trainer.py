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
from .instruction import InstructionExample, collate_batch, encode_example
from .model import TinyLlama

__all__ = ["TuningConfig", "InstructionTuner"]

ExampleSampler = Callable[[int], Sequence[InstructionExample]]


@dataclass
class TuningConfig:
    epochs: int = 4
    batch_size: int = 16
    lr: float = 3e-3
    max_len: int = 200
    seed: int = 0


class InstructionTuner:
    """Fine-tunes a :class:`TinyLlama` on instruction/response pairs."""

    def __init__(self, model: TinyLlama, tokenizer: WordTokenizer, config: TuningConfig):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config

    def tune(self, sampler: ExampleSampler) -> list[float]:
        """Run ``config.epochs`` epochs; ``sampler(epoch)`` yields that epoch's examples.

        Every epoch trains on all of its examples once, and the weights of
        the last step are the tuned model.  Returns the per-step loss history.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        first_epoch = list(sampler(0))
        if not first_epoch:
            raise ValueError("sampler produced no examples")
        total_steps = int(np.ceil(len(first_epoch) / config.batch_size)) * config.epochs

        def steps():
            """One batch per "epoch", so the history is per step."""
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

        def loss(batch):
            input_ids, labels = batch
            logits = self.model(input_ids[:, :-1])
            return F.cross_entropy(logits, labels[:, 1:], ignore_index=-100)

        return train_epochs(
            self.model,
            AdamW(self.model.parameters(), lr=config.lr),
            steps(),
            loss,
            name="tune step",
            clip_norm=1.0,
            schedule=CosineWarmup(
                config.lr, warmup_steps=int(total_steps * 0.05), total_steps=total_steps
            ),
            log_every=200,
        )
