"""Item text embeddings from the language model.

Paper Sec. IV-A4: "we utilize LLaMA to encode the title and description of
the item as its embedding and use mean pooling to aggregate multiple token
representations."  These embeddings are the RQ-VAE input.
"""

from __future__ import annotations

import numpy as np

from ..tensor import no_grad
from ..text import WordTokenizer
from .model import TinyLlama

__all__ = ["encode_texts"]

# Tokens an item text is cut to, BOS included.
_MAX_LEN = 64
_BATCH_SIZE = 32


def encode_texts(
    model: TinyLlama,
    tokenizer: WordTokenizer,
    texts: list[str],
) -> np.ndarray:
    """Mean-pooled final hidden states for each text ``(N, dim)``.

    A text is BOS plus its first ``_MAX_LEN - 1`` tokens.
    """
    if not texts:
        raise ValueError("no texts to encode")
    pad_id = tokenizer.vocab.pad_id
    encoded = [[tokenizer.vocab.bos_id] + tokenizer.encode(text)[: _MAX_LEN - 1] for text in texts]
    outputs = np.zeros((len(texts), model.config.dim), dtype=np.float32)
    model.eval()
    with no_grad():
        for start in range(0, len(encoded), _BATCH_SIZE):
            chunk = encoded[start : start + _BATCH_SIZE]
            width = max(len(ids) for ids in chunk)
            batch = np.full((len(chunk), width), pad_id, dtype=np.int64)
            mask = np.zeros((len(chunk), width), dtype=np.float32)
            for row, ids in enumerate(chunk):
                batch[row, : len(ids)] = ids
                mask[row, : len(ids)] = 1.0
            hidden = model.hidden_states(batch).data
            pooled = (hidden * mask[:, :, None]).sum(axis=1)
            pooled /= mask.sum(axis=1, keepdims=True)
            outputs[start : start + len(chunk)] = pooled
    return outputs

