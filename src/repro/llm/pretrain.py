"""Causal language-model pretraining on the item-text corpus.

The real LC-Rec starts from a pretrained LLaMA-7B whose embeddings already
carry language semantics.  Our tiny substitute acquires its "language
semantics" by next-token pretraining over all item titles, descriptions
and instruction-template prose, so that (a) mean-pooled hidden states form
meaningful item text embeddings for the RQ-VAE, and (b) the Fig. 4 contrast
between text-token and index-token embeddings is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor import AdamW, CosineWarmup, train_epochs
from ..tensor import functional as F
from ..text import WordTokenizer
from .model import TinyLlama

__all__ = ["PretrainConfig", "pretrain_lm", "build_corpus_stream"]


@dataclass
class PretrainConfig:
    steps: int = 300
    batch_size: int = 16
    seq_len: int = 64
    lr: float = 3e-3
    seed: int = 0


def build_corpus_stream(tokenizer: WordTokenizer, texts: list[str]) -> np.ndarray:
    """Concatenate tokenised texts separated by EOS into one id stream."""
    stream: list[int] = []
    eos = tokenizer.vocab.eos_id
    for text in texts:
        stream.extend(tokenizer.encode(text))
        stream.append(eos)
    if not stream:
        raise ValueError("empty corpus")
    return np.array(stream, dtype=np.int64)


def pretrain_lm(
    model: TinyLlama, tokenizer: WordTokenizer, texts: list[str], config: PretrainConfig
) -> list[float]:
    """Train ``model`` as a causal LM over random corpus windows."""
    stream = build_corpus_stream(tokenizer, texts)
    seq_len = min(config.seq_len, model.config.max_seq_len)
    if len(stream) <= seq_len + 1:
        # Tile tiny corpora so windows can always be sampled.
        reps = (seq_len + 2) // len(stream) + 1
        stream = np.tile(stream, reps)
    rng = np.random.default_rng(config.seed)
    max_start = len(stream) - seq_len - 1

    def window() -> np.ndarray:
        starts = rng.integers(0, max_start + 1, size=config.batch_size)
        return np.stack([stream[s : s + seq_len + 1] for s in starts])

    def loss(batch: np.ndarray):
        return F.cross_entropy(model(batch[:, :-1]), batch[:, 1:])

    # Windows are independent draws, so every step is its own "epoch":
    # the per-epoch means are the per-step losses.
    return train_epochs(
        model,
        AdamW(model.parameters(), lr=config.lr),
        ([window()] for _ in range(config.steps)),
        loss,
        name="pretrain step",
        clip_norm=1.0,
        schedule=CosineWarmup(
            config.lr, warmup_steps=int(config.steps * 0.1), total_steps=config.steps
        ),
        log_every=100,
    )
