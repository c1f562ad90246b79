"""Word-level tokenizer that treats item-index tokens as atomic units.

The real LC-Rec uses the LLaMA sentencepiece tokenizer and *appends* the
item-index tokens (``<a_12>``) as additional atomic tokens.  Our tiny LM
uses a word-level tokenizer, but the contract is identical: index tokens
never get split, and they map to ids in the vocabulary extension region.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Sequence

from .vocab import Vocabulary

__all__ = ["WordTokenizer", "INDEX_TOKEN_PATTERN"]

# Matches index tokens such as <a_12> or <d_205>.
INDEX_TOKEN_PATTERN = re.compile(r"<[a-z]_\d+>")
# Words, numbers, or single punctuation marks.
_WORD_PATTERN = re.compile(r"[a-z0-9]+(?:'[a-z]+)?|[^\sa-z0-9]")


class WordTokenizer:
    """Lower-cases text, splits words/punctuation, keeps index tokens whole."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    # ------------------------------------------------------------------
    @staticmethod
    def text_to_tokens(text: str) -> list[str]:
        """Split ``text`` into word/punct tokens, preserving index tokens."""
        tokens: list[str] = []
        cursor = 0
        lowered = text.lower()
        for match in INDEX_TOKEN_PATTERN.finditer(lowered):
            before = lowered[cursor:match.start()]
            tokens.extend(_WORD_PATTERN.findall(before))
            tokens.append(match.group())
            cursor = match.end()
        tokens.extend(_WORD_PATTERN.findall(lowered[cursor:]))
        return tokens

    @classmethod
    def build_vocab(cls, texts: Iterable[str]) -> Vocabulary:
        """Count word tokens over ``texts`` and build a frozen base vocab of them all."""
        counts: Counter = Counter()
        for text in texts:
            counts.update(cls.text_to_tokens(text))
        return Vocabulary.from_counter(counts)

    # ------------------------------------------------------------------
    def encode(self, text: str) -> list[int]:
        return [self.vocab.token_to_id(t) for t in self.text_to_tokens(text)]

    def decode(self, ids: Sequence[int], skip_special: bool = True) -> str:
        specials = {self.vocab.pad_id, self.vocab.bos_id, self.vocab.eos_id}
        tokens = []
        for token_id in ids:
            if skip_special and token_id in specials:
                continue
            tokens.append(self.vocab.id_to_token(int(token_id)))
        return " ".join(tokens)

    # ------------------------------------------------------------------
    def register_index_tokens(self, tokens: Sequence[str]) -> list[int]:
        """Append index tokens to the vocabulary extension region.

        Mirrors ``tokenizer.add_tokens`` + ``model.resize_token_embeddings``
        in the official implementation.  Returns the new token ids.
        """
        for token in tokens:
            if not INDEX_TOKEN_PATTERN.fullmatch(token):
                raise ValueError(f"not a valid index token: {token!r}")
        return self.vocab.add_tokens(tokens)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)
