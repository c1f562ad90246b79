"""Vocabulary with special tokens and out-of-vocabulary extension.

LC-Rec appends all item-index tokens (``<a_12>`` etc.) to the LLaMA
tokenizer as OOV tokens (paper Sec. IV-A4).  :class:`Vocabulary` supports
exactly that: a frozen *base* vocabulary learned from text, plus an
extension region for index tokens whose ids start at ``base_size``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

__all__ = ["Vocabulary", "PAD", "BOS", "EOS", "UNK", "SPECIAL_TOKENS"]

PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"
UNK = "<unk>"
SPECIAL_TOKENS = (PAD, BOS, EOS, UNK)


class Vocabulary:
    """Bidirectional token/id mapping.

    The first four ids are the special tokens.  ``freeze_base`` marks the
    end of the language vocabulary; tokens added afterwards (item-index
    tokens) live in the *extension* region ``[base_size, size)``.
    """

    def __init__(self):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        self._base_size: int | None = None
        for token in SPECIAL_TOKENS:
            self.add_token(token)

    # ------------------------------------------------------------------
    def add_token(self, token: str) -> int:
        """Add ``token`` if absent; return its id."""
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        token_id = len(self._id_to_token)
        self._token_to_id[token] = token_id
        self._id_to_token.append(token)
        return token_id

    def add_tokens(self, tokens: Iterable[str]) -> list[int]:
        return [self.add_token(token) for token in tokens]

    @classmethod
    def from_counter(cls, counts: Counter) -> "Vocabulary":
        """Build a base vocabulary from token counts (most frequent first)."""
        vocab = cls()
        for token, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            vocab.add_token(token)
        vocab.freeze_base()
        return vocab

    # ------------------------------------------------------------------
    def freeze_base(self) -> None:
        """Mark the current size as the end of the language vocabulary."""
        self._base_size = len(self._id_to_token)

    @property
    def base_size(self) -> int:
        """Size of the language vocabulary (before index-token extension)."""
        if self._base_size is None:
            return len(self._id_to_token)
        return self._base_size

    # ------------------------------------------------------------------
    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, self._token_to_id[UNK])

    def id_to_token(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[EOS]

    def tokens(self) -> list[str]:
        """All tokens in id order (a copy)."""
        return list(self._id_to_token)
