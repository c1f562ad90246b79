"""Hybrid recommendation: retrieval narrows, constrained decode re-ranks.

The two lanes of the serving stack meet here.  For each history the
retrieval tier proposes ``num_candidates`` items in microseconds; the
generative engine then decodes each history narrowed to exactly those
candidates (the request's ``narrow_items``, one node mask of the decode
trie per row), so the sparse output head gathers only candidate-path
token unions — a smaller GEMM per step — while the constrained
log-softmax keeps renormalising over the full trie.  The decode therefore
ranks the candidate set exactly as a full decode would (the parity the
test battery asserts); what changes is only the work.

Cold-start histories — empty, or containing no item the retrieval index
knows — skip the LLM entirely and return the retrieval tier's
deterministic popularity ranking, because the trie-constrained decoder
has no signal for them either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..serving.queue import RecommendRequest, check_history, check_top_k
from .recommender import RetrievalRecommender

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.engine import GenerativeEngine

__all__ = ["HybridRecommender"]


class HybridRecommender:
    """Retrieval-narrowed constrained decoding over a generative engine."""

    def __init__(
        self,
        engine: "GenerativeEngine",
        retriever: RetrievalRecommender,
        num_candidates: int = 32,
    ):
        if not engine.supports_narrowing:
            raise ValueError(
                f"{type(engine).__name__} does not support candidate narrowing"
            )
        if num_candidates < 1:
            raise ValueError("num_candidates must be positive")
        self.engine = engine
        self.retriever = retriever
        self.num_candidates = num_candidates
        # Only items the trie can decode may narrow it.  The decodable set
        # is snapshotted per trie *identity*: an online catalog swap gives
        # the engine a new trie object, and the next candidates() call
        # rebuilds the set against it — the hybrid tracks the live catalog
        # without being rebuilt.  (``retriever`` may likewise be a
        # ``LiveCatalog``, which proxies the current version's retrieval
        # recommender, keeping both lanes on the same catalog version.)
        self._decodable = frozenset(engine_items(engine))
        self._decodable_trie = engine.trie

    def _decodable_items(self) -> frozenset:
        trie = self.engine.trie
        if trie is not self._decodable_trie:
            # Racing rebuilds are idempotent; set the payload before the
            # marker so a concurrent reader never pairs a new marker with
            # the old set.
            self._decodable = frozenset(engine_items(self.engine))
            self._decodable_trie = trie
        return self._decodable

    def candidates(self, history: Sequence[int], top_k: int) -> list[int]:
        """The decodable retrieval candidates for one history."""
        decodable = self._decodable_items()
        pool = self.retriever.recommend(history, max(self.num_candidates, top_k))
        return [item for item in pool if item in decodable]

    def recommend(self, history: Sequence[int], top_k: int = 10) -> list[int]:
        return self.recommend_many([history], top_k=top_k)[0]

    def recommend_many(
        self, histories: Sequence[Sequence[int]], top_k: int = 10
    ) -> list[list[int]]:
        """Ranked item ids per history: decode-ranked candidates, backfilled.

        Each history with candidates becomes a request stamped with them
        (``narrow_items``), exactly as the serving lane stamps a submit,
        and all of them share one decode; candidates beyond what the
        decode surfaces (and, after them, the retrieval ranking) backfill
        to ``top_k``.  A history holding anything but an item id of the
        engine's live catalog raises ``ValueError``, as a submit does.
        """
        check_top_k(top_k)
        engine = self.engine
        for history in histories:  # before any lane answers
            check_history(history, engine.num_items)
        results: list[list[int]] = [[] for _ in histories]
        rows, requests = [], []
        for row, history in enumerate(histories):
            # Cold start (no profile): the decoder has no history signal either.
            warm = self.retriever.profile(history) is not None
            candidates = self.candidates(history, top_k) if warm else []
            if not candidates:
                results[row] = self.retriever.recommend(history, top_k)
                continue
            rows.append(row)
            requests.append(
                RecommendRequest(
                    prompt_ids=engine.encode_history(list(history)),
                    top_k=top_k,
                    beam_size=engine.request_beam_size(top_k),
                    narrow_items=tuple(int(item) for item in candidates),
                )
            )
        if requests:
            rankings = engine.finalize(requests, engine.decode(requests))
            for row, request, ranked in zip(rows, requests, rankings):
                results[row] = self.backfill(ranked, list(request.narrow_items), top_k)
        return results

    def backfill(self, ranked: list[int], candidates: list[int], top_k: int) -> list[int]:
        """Extend a short decode ranking from the retrieval order.

        Public because the serving lane (``RecommendationService`` with a
        ``hybrid=``) finalizes narrowed decodes through the same rule, so
        a client-submitted request and a library :meth:`recommend` call
        return identical lists.
        """
        target = min(top_k, self.retriever.num_items)
        if len(ranked) >= target:
            return ranked[:top_k]
        seen = set(ranked)
        for item in candidates:
            if len(ranked) >= target:
                break
            if item not in seen:
                ranked.append(item)
                seen.add(item)
        for item in self.retriever.popularity_order:
            if len(ranked) >= target:
                break
            if int(item) not in seen:
                ranked.append(int(item))
                seen.add(int(item))
        return ranked


def engine_items(engine: "GenerativeEngine") -> list[int]:
    """The item ids an engine's trie can decode."""
    return engine.trie.items.tolist()
