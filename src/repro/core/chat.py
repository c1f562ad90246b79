"""Multi-turn recommendation sessions (the paper's stated future work).

The LC-Rec conclusion proposes extending the model "in a multi-turn chat
setting, so that it can support more flexible interaction with users".
:class:`ChatSession` implements the session layer on top of the tuned
model: it keeps the running interaction history, lets the user accept or
reject recommendations, supports intention queries mid-session, and never
re-recommends rejected or already-consumed items.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lcrec import LCRec

__all__ = ["ChatTurn", "ChatSession"]


@dataclass
class ChatTurn:
    """One interaction round: what was asked and what was recommended."""

    query: str | None
    recommendations: list[int]
    accepted: int | None = None


@dataclass
class ChatSession:
    """Stateful multi-turn wrapper around a built :class:`LCRec` model.

    >>> session = ChatSession(model, history=[3, 17, 42])
    >>> items = session.recommend()
    >>> session.reject(items[0])
    >>> items = session.recommend()          # excludes the rejected item
    >>> session.accept(items[0])             # joins the history
    """

    model: LCRec
    history: list[int] = field(default_factory=list)
    rejected: set[int] = field(default_factory=set)
    turns: list[ChatTurn] = field(default_factory=list)
    over_generate: int = 3

    # ------------------------------------------------------------------
    def _filter(self, ranked: list[int], top_k: int) -> list[int]:
        excluded = self.rejected | set(self.history)
        kept = [item for item in ranked if item not in excluded]
        return kept[:top_k]

    def recommend(self, top_k: int = 5) -> list[int]:
        """Next-item recommendations excluding rejected/consumed items."""
        if not self.history:
            raise ValueError("session needs at least one historical item")
        raw = self.model.recommend(
            self.history, top_k=top_k * self.over_generate)
        ranked = self._filter(raw, top_k)
        self.turns.append(ChatTurn(query=None, recommendations=ranked))
        return ranked

    def ask(self, intention: str, top_k: int = 5) -> list[int]:
        """Intention-query recommendations (search-engine style turn)."""
        raw = self.model.recommend_for_intention(
            intention, top_k=top_k * self.over_generate)
        ranked = self._filter(raw, top_k)
        self.turns.append(ChatTurn(query=intention, recommendations=ranked))
        return ranked

    # ------------------------------------------------------------------
    def accept(self, item_id: int) -> None:
        """User takes a recommendation: it becomes part of the history."""
        self._validate_item(item_id)
        self.history.append(item_id)
        if self.turns:
            self.turns[-1].accepted = item_id

    def reject(self, item_id: int) -> None:
        """User dismisses an item: it is never recommended again."""
        self._validate_item(item_id)
        self.rejected.add(item_id)

    def describe(self, item_id: int) -> str:
        """Explain a recommendation with the item's catalog entry."""
        self._validate_item(item_id)
        item = self.model.dataset.catalog[item_id]
        return f"{item.title} — {item.description}"

    def _validate_item(self, item_id: int) -> None:
        if not 0 <= item_id < len(self.model.dataset.catalog):
            raise ValueError(f"unknown item id {item_id}")

    @property
    def num_turns(self) -> int:
        return len(self.turns)
