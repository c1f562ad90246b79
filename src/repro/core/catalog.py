"""Live catalog: online item ingestion with versioned copy-on-write swaps.

Everywhere else in the repository the item catalog is a build-time
constant: the RQ-VAE assigns indices once, :meth:`ItemIndexSet.build_trie`
freezes them into an :class:`~repro.quantization.IndexTrie`, and every
serving component (engines, caches, retrieval) closes over that one trie
forever.  Real catalogs churn — new items arrive while requests are being
decoded — so this module turns the catalog into a first-class *versioned
runtime object*:

* :class:`CatalogVersion` is one immutable snapshot: a trie, the index
  set behind it and (optionally) the retrieval tier, all consistent with
  each other.  A snapshot's trie is built whole by ``IndexTrie.with_item``
  inside :meth:`LiveCatalog.ingest`, on the ingesting thread, so no decode
  ever builds one; the retrieval tier shares everything but the touched
  KNN cluster with its predecessor, and unchanged level unions keep their
  *identity*, which keeps the engines' gathered-head weight memo warm
  across a swap.
* :class:`LiveCatalog` owns the current version and publishes new ones
  atomically.  ``ingest`` encodes a new item's semantic indices through
  the trained RQ-VAE on the fly (greedy codes, then the USM-style
  nearest-alternative walk of :func:`repro.core.indexer.encode_new_item`
  when the greedy tuple collides), inserts it into a trie snapshot, and
  swaps ``catalog.version`` in one reference assignment.

Version pinning is what makes ingestion safe under load: a decode state
holds the trie *object* it was prefilled against, so an in-flight decode
finishes bit-identically against its pinned version no matter how many
swaps happen mid-decode, while the next prefill picks up the new version.
The serving engines read ``catalog.version`` exactly once per prefill (a
decode is a closed cohort, so no later request enters a pinned decode).

The catalog only grows.  LC-Rec registers every per-level index token
before tuning (:meth:`ItemIndexSet.register`), so an ingested item adds
a trie leaf over tokens the LM already has: no existing token changes
meaning and no cached prompt K/V goes stale, so nothing is invalidated.
The catalog is also its own retrieval tier: as a fallback
(``RecommendationService(engine, fallback=catalog)``) or a hybrid
retriever (``HybridRecommender(engine, catalog)``) it proxies the current
version's tier, so every lane follows ingestion without a refresh step.
A future delete or re-encode would bring its own invalidation.

Thread safety: ``ingest`` serialises writers behind a lock; readers are
lock-free (``catalog.version`` is one attribute load, atomic in CPython).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..quantization import RQVAE, IndexTrie, ItemIndexSet
from ..quantization.indexing import code_token_strings
from ..text import WordTokenizer
from .indexer import encode_new_item

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..retrieval import RetrievalRecommender
    from .lcrec import LCRec

__all__ = ["CatalogVersion", "IngestedItem", "LiveCatalog"]


@dataclass(frozen=True)
class CatalogVersion:
    """One immutable catalog snapshot; everything in it is consistent.

    Attributes
    ----------
    version:
        Monotonic counter, starting at 0 for the build-time catalog.
    trie:
        The decoding trie over this version's items.  Decode states pin
        this *object*; identity comparison is version comparison.
    index_set:
        The per-item codes behind the trie (row ``i`` = item ``i``).
    retrieval:
        The retrieval tier over the same items, or ``None`` when the
        catalog was built without one.
    """

    version: int
    trie: IndexTrie
    index_set: ItemIndexSet
    retrieval: "RetrievalRecommender | None" = None

    @property
    def num_items(self) -> int:
        return self.index_set.num_items


@dataclass(frozen=True)
class IngestedItem:
    """What one :meth:`LiveCatalog.ingest` call produced."""

    item_id: int
    codes: tuple[int, ...]
    token_ids: tuple[int, ...]
    version: CatalogVersion


class LiveCatalog:
    """The mutable head of a chain of immutable catalog versions.

    Typical use::

        catalog = model.live_catalog()          # version 0 = built catalog
        engine = model.engine()
        engine.attach_catalog(catalog)          # engine now reads the head
        service = RecommendationService(engine, fallback=catalog, ...)
        ...
        catalog.ingest(text="wireless noise cancelling headphones ...")

    After ``ingest`` returns, the next prefill decodes over the new item's
    trie while every in-flight decode finishes against its pinned
    version.  The catalog itself implements the fallback-recommender and
    hybrid-retriever protocols (``recommend`` / ``profile`` /
    ``popularity_order`` ...) by proxying the *current* version's
    retrieval tier, so the degraded-serving lane and the hybrid
    candidate lane track ingestion without being rebuilt.

    Parameters
    ----------
    trie, index_set:
        The build-time catalog (version 0).
    tokenizer:
        Maps index-token strings to ids.  Ingestion never grows the
        vocabulary: :meth:`ItemIndexSet.register` registered the *full*
        per-level token space up front, so any code the RQ-VAE can emit
        already has a token id (and the LM head already scores it).
    rqvae:
        The trained quantiser; required for ``ingest``.
    retrieval:
        Optional version-0 retrieval tier to carry along.
    embed:
        ``text -> (input_dim,) embedding`` callable; required for
        ``ingest(text=...)``.  :meth:`from_lcrec` wires the model's own
        text encoder.
    recluster_every:
        Incremental KNN inserts keep the original cluster centers; after
        this many pending inserts the retrieval tier is re-clustered from
        scratch so probe quality under churn tracks a fresh build.
    """

    def __init__(
        self,
        trie: IndexTrie,
        index_set: ItemIndexSet,
        tokenizer: WordTokenizer,
        rqvae: RQVAE | None = None,
        retrieval: "RetrievalRecommender | None" = None,
        *,
        embed: Callable[[str], np.ndarray] | None = None,
        recluster_every: int = 64,
    ):
        if recluster_every < 1:
            raise ValueError("recluster_every must be positive")
        if retrieval is not None and retrieval.num_items != index_set.num_items:
            raise ValueError(
                f"retrieval covers {retrieval.num_items} items but the index "
                f"set has {index_set.num_items}"
            )
        self.tokenizer = tokenizer
        self.rqvae = rqvae
        self.embed = embed
        self.recluster_every = recluster_every
        self._version = CatalogVersion(0, trie, index_set, retrieval)
        self._taken = {tuple(int(c) for c in row) for row in index_set.codes}
        self._ingest_lock = threading.Lock()
        self.ingested = 0  # successful ingest() calls

    # ------------------------------------------------------------------
    # Lock-free read side
    # ------------------------------------------------------------------
    @property
    def version(self) -> CatalogVersion:
        """The current snapshot (one atomic attribute load)."""
        return self._version

    @property
    def trie(self) -> IndexTrie:
        return self._version.trie

    @property
    def index_set(self) -> ItemIndexSet:
        return self._version.index_set

    @property
    def num_items(self) -> int:
        return self._version.index_set.num_items

    # ------------------------------------------------------------------
    # Construction from a built model
    # ------------------------------------------------------------------
    @classmethod
    def from_lcrec(
        cls,
        model: "LCRec",
        retrieval: bool = True,
        recluster_every: int = 64,
    ) -> "LiveCatalog":
        """A live catalog whose version 0 is ``model``'s built catalog.

        ``retrieval=True`` builds the retrieval tier from the model
        (RQ-VAE-reconstructed vectors, training-split popularity) so the
        catalog can serve as the hybrid retriever and shed-time fallback.
        New-item embeddings come from the model's own text encoder, the
        same one that produced the build-time item embeddings.
        """
        model._require_built()
        if model.rqvae is None:
            raise ValueError(
                "LCRec was built without an RQ-VAE (index_source="
                f"{model.config.index_source!r}); online ingestion needs one "
                "to encode new items"
            )
        tier = None
        if retrieval:
            from ..retrieval import RetrievalRecommender

            tier = RetrievalRecommender.from_lcrec(model)
        from ..llm import encode_texts

        lm, tokenizer = model.lm, model.tokenizer

        def embed(text: str) -> np.ndarray:
            return encode_texts(lm, tokenizer, [text])[0]

        return cls(
            model.trie,
            model.index_set,
            tokenizer,
            rqvae=model.rqvae,
            retrieval=tier,
            embed=embed,
            recluster_every=recluster_every,
        )

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def ingest(
        self,
        *,
        text: str | None = None,
        embedding: np.ndarray | None = None,
    ) -> IngestedItem:
        """Add one item and atomically publish the next catalog version.

        Exactly one of ``text`` (encoded through the catalog's ``embed``
        callable, outside the ingest lock) and ``embedding`` (a raw
        ``(input_dim,)`` vector, finite) must be given; a bad embedding
        raises ``ValueError`` and publishes nothing.  The new item's id is the
        next dense id (``num_items`` of the version it lands in), its
        semantic indices come from the RQ-VAE with conflict avoidance
        against every taken code tuple, and the returned
        :class:`IngestedItem` carries the published version so callers
        can wait for / assert on the exact swap their item rode in.
        """
        if (text is None) == (embedding is None):
            raise ValueError("pass exactly one of text= or embedding=")
        if self.rqvae is None:
            raise ValueError("catalog has no RQ-VAE; cannot encode new items")
        if text is not None:
            if self.embed is None:
                raise ValueError(
                    "catalog has no embed callable; pass embedding= instead"
                )
            embedding = self.embed(text)
        embedding = np.asarray(embedding, dtype=np.float64)
        dim = self.rqvae.config.input_dim
        if embedding.shape != (dim,) or not np.isfinite(embedding).all():
            raise ValueError(
                f"an item embedding must be a finite ({dim},) vector, got shape {embedding.shape}"
            )

        with self._ingest_lock:
            current = self._version
            codes = encode_new_item(self.rqvae, embedding, self._taken)
            if len(codes) != current.trie.num_levels:
                raise ValueError(
                    f"RQ-VAE emits {len(codes)}-level codes but the trie has "
                    f"{current.trie.num_levels} levels (extra_level indexing "
                    "cannot ingest online; build with the usm strategy)"
                )
            token_ids = tuple(
                self.tokenizer.vocab.token_to_id(token)
                for token in code_token_strings(codes)
            )
            item_id = current.index_set.num_items
            new_trie = current.trie.with_item(item_id, token_ids)
            new_index_set = ItemIndexSet(
                np.concatenate([current.index_set.codes, codes[None, :]]),
                list(current.index_set.level_sizes),
            )
            new_retrieval = current.retrieval
            if new_retrieval is not None:
                # The tier's geometry (RetrievalRecommender.from_lcrec): RQ-VAE reconstructions.
                vector = self.rqvae.reconstruct(embedding[None, :])[0]
                new_retrieval = new_retrieval.with_item(vector)
                if new_retrieval.index.pending_inserts >= self.recluster_every:
                    new_retrieval = new_retrieval.reclustered()
            self._taken.add(tuple(int(c) for c in codes))
            published = CatalogVersion(
                current.version + 1, new_trie, new_index_set, new_retrieval
            )
            # The swap: one reference assignment.  Readers that loaded the
            # old version keep decoding against it; the next load sees this.
            self._version = published
            self.ingested += 1
        return IngestedItem(
            item_id=item_id,
            codes=tuple(int(c) for c in codes),
            token_ids=token_ids,
            version=published,
        )

    # ------------------------------------------------------------------
    # Retrieval proxy: the catalog *is* a fallback / hybrid retriever
    # ------------------------------------------------------------------
    def _require_retrieval(self) -> "RetrievalRecommender":
        tier = self._version.retrieval
        if tier is None:
            raise RuntimeError(
                "catalog has no retrieval tier (built with retrieval=False)"
            )
        return tier

    @property
    def popularity_order(self) -> np.ndarray:
        return self._require_retrieval().popularity_order

    def profile(self, history: Sequence[int]) -> np.ndarray | None:
        return self._require_retrieval().profile(history)

    def recommend(self, history: Sequence[int], top_k: int = 10) -> list[int]:
        return self._require_retrieval().recommend(history, top_k)
