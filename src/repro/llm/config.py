"""Configuration for the tiny LLaMA-style language model."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LMConfig"]


@dataclass
class LMConfig:
    """Architecture hyperparameters.

    The defaults give a few-hundred-thousand-parameter decoder-only model:
    the smallest LM that still exhibits the paper's mechanism (language
    semantics in token embeddings + OOV index tokens to integrate).
    """

    vocab_size: int = 1024
    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_hidden: int = 176
    max_seq_len: int = 256
    dropout: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.dim % self.num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if (self.dim // self.num_heads) % 2 != 0:
            raise ValueError("head dim must be even for RoPE")
        if self.vocab_size < 5:
            raise ValueError("vocab too small")
