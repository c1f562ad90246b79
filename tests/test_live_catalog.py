"""Live catalog: COW trie snapshots, version pinning, online ingestion.

The load-bearing invariants of the versioned catalog, pinned down at
three layers:

* **Trie layer** (hypothesis properties): ``with_item`` builds a snapshot
  whose content equals a from-scratch build of the extended catalog and
  leaves the original bit-for-bit untouched (level-union identity, which
  the gathered-head memos rely on, is pinned in ``test_trie_nodes.py``).
  ``LiveCatalog.ingest`` builds the next trie, on the ingesting thread,
  and the decodes after it build none.
* **Engine layer**: a decode state is pinned to the trie object it
  prefilled against — no matter when a version swap lands mid-decode, the
  in-flight rankings are bit-identical to a from-scratch decode against
  the pinned version, post-swap requests never join a pinned decode, and
  the prompt K/V cache keeps every entry across an ingest (the catalog
  only grows, so no token changes meaning).
* **Catalog/serving layer**: ``LiveCatalog.ingest`` publishes atomic
  versions (old snapshots intact, uniqueness preserved, retrieval tier
  extended and periodically reclustered), new items are recommendable
  within one swap, and ``ingest_item`` on the service/cluster client
  surface reaches every worker through the shared catalog reference.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LiveCatalog, encode_new_item
from repro.llm import LMConfig, PrefixKVCache, TinyLlama
from repro.quantization import IndexTrie
from repro.retrieval import HybridRecommender
from repro.serving import (
    RecommendationService,
    RecommendRequest,
    ServingCluster,
    TrieDecoderEngine,
)
from repro.serving.queue import check_history

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
TOKENS = list(range(10, 18))
DEPTH = 3
VOCAB = 32

sequence_strategy = st.tuples(*[st.sampled_from(TOKENS)] * DEPTH)
catalog_strategy = st.lists(sequence_strategy, min_size=1, max_size=10, unique=True)


def build_trie(sequences):
    return IndexTrie({item: seq for item, seq in enumerate(sequences)})


def draw_new_sequence(data, sequences):
    return data.draw(
        sequence_strategy.filter(lambda seq: seq not in set(sequences)),
        label="new_sequence",
    )


def warm_derived_caches(trie):
    """Query the trie every way a decode or oracle does before snapshotting it."""
    trie.allowed_token_mask([()], VOCAB)
    for level in range(trie.num_levels):
        trie.level_union(level)
    prefixes = set()
    for seq in trie.all_sequences().values():
        for depth in range(trie.num_levels):
            prefixes.add(seq[:depth])
            trie.allowed_tokens(seq[:depth])
    by_depth = {}
    for prefix in prefixes:
        by_depth.setdefault(len(prefix), []).append(prefix)
    for depth_prefixes in by_depth.values():
        trie.allowed_token_ids(sorted(depth_prefixes))


def assert_same_content(trie, oracle):
    """``trie`` serves exactly the same derived arrays as ``oracle``."""
    assert trie.all_sequences() == oracle.all_sequences()
    assert np.array_equal(
        trie.allowed_token_mask([()], VOCAB), oracle.allowed_token_mask([()], VOCAB)
    )
    root, oracle_root = trie.allowed_token_ids([()]), oracle.allowed_token_ids([()])
    assert np.array_equal(root.union, oracle_root.union)
    assert np.array_equal(trie.column, oracle.column)
    for level in range(oracle.num_levels):
        assert np.array_equal(trie.level_union(level), oracle.level_union(level))
    for seq in oracle.all_sequences().values():
        for depth in range(oracle.num_levels):
            prefix = seq[:depth]
            assert np.array_equal(
                trie.allowed_tokens(prefix), oracle.allowed_tokens(prefix)
            ), prefix


def make_model(vocab=VOCAB):
    model = TinyLlama(LMConfig(vocab_size=vocab, dim=16, num_layers=2,
                               num_heads=2, ffn_hidden=24, max_seq_len=64,
                               seed=7))
    model.eval()
    return model


MODEL = make_model()


class _StubVersion:
    def __init__(self, version, trie):
        self.version = version
        self.trie = trie


class _StubCatalog:
    """The minimal version-holder the engine contract reads."""

    def __init__(self, trie):
        self.version = _StubVersion(0, trie)

    def swap(self, trie):
        self.version = _StubVersion(self.version.version + 1, trie)


def assert_rankings_close(got, want):
    """Same items in the same order; scores equal up to K/V-reuse float
    accumulation order (a prefix-cache hit prefills fewer tokens than a
    cold prefill, which reorders the adds)."""
    assert [(i, t) for i, t, _ in got] == [(i, t) for i, t, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert a == pytest.approx(b, abs=1e-5)


def decode_rankings(engine, prompt, beam_size, top_k=10):
    request = RecommendRequest(prompt_ids=list(prompt), top_k=top_k, beam_size=beam_size)
    state = engine.prefill([request])
    while not state.done:
        engine.step(state)
    return [(h.item_id, h.token_ids, h.score) for h in engine.retire(state)[0]]


# ----------------------------------------------------------------------
# Trie layer: copy-on-write snapshots
# ----------------------------------------------------------------------
class TestTrieCopyOnWrite:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_matches_from_scratch_build(self, data):
        sequences = data.draw(catalog_strategy)
        new_sequence = draw_new_sequence(data, sequences)
        trie = build_trie(sequences)
        warm_derived_caches(trie)
        snapshot = trie.with_item(len(sequences), new_sequence)
        assert_same_content(snapshot, build_trie(sequences + [new_sequence]))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_leaves_original_untouched(self, data):
        sequences = data.draw(catalog_strategy)
        new_sequence = draw_new_sequence(data, sequences)
        trie = build_trie(sequences)
        warm_derived_caches(trie)
        trie.with_item(len(sequences), new_sequence)
        assert_same_content(trie, build_trie(sequences))

    def test_duplicate_sequence_rejected(self):
        trie = build_trie([(10, 11, 12)])
        with pytest.raises(ValueError, match="duplicate"):
            trie.with_item(1, (10, 11, 12))
        with pytest.raises(ValueError, match="depth"):
            trie.with_item(1, (10, 11))


# ----------------------------------------------------------------------
# Online index encoding
# ----------------------------------------------------------------------
class TestEncodeNewItem:
    def test_greedy_codes_when_free(self, tiny_lcrec):
        embedding = tiny_lcrec.item_embeddings[0]
        greedy = tiny_lcrec.rqvae.quantize(embedding[None, :]).codes[0]
        codes = encode_new_item(tiny_lcrec.rqvae, embedding, set())
        assert codes.tolist() == greedy.tolist()

    def test_avoids_every_taken_tuple(self, tiny_lcrec):
        taken = {tuple(int(c) for c in row) for row in tiny_lcrec.index_set.codes}
        for item in range(0, tiny_lcrec.index_set.num_items, 7):
            embedding = tiny_lcrec.item_embeddings[item]
            codes = encode_new_item(tiny_lcrec.rqvae, embedding, taken)
            assert tuple(codes.tolist()) not in taken

    def test_deterministic(self, tiny_lcrec):
        taken = {tuple(int(c) for c in row) for row in tiny_lcrec.index_set.codes}
        embedding = tiny_lcrec.item_embeddings[5]
        first = encode_new_item(tiny_lcrec.rqvae, embedding, taken)
        second = encode_new_item(tiny_lcrec.rqvae, embedding, taken)
        assert first.tolist() == second.tolist()


# ----------------------------------------------------------------------
# Engine layer: version pinning and cache scoping
# ----------------------------------------------------------------------
class TestEnginePinning:
    def make_engine(self, trie, prefix_cache=None):
        catalog = _StubCatalog(trie)
        engine = TrieDecoderEngine(MODEL, trie, prefix_cache=prefix_cache)
        engine.attach_catalog(catalog)
        return engine, catalog

    def test_trie_property_follows_swaps(self):
        trie = build_trie([(10, 12, 14), (11, 13, 15)])
        engine, catalog = self.make_engine(trie)
        assert engine.trie is trie
        swapped = trie.with_item(2, (10, 13, 14))
        catalog.swap(swapped)
        assert engine.trie is swapped

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_ingest_mid_decode_never_changes_inflight_rankings(self, data):
        """The tentpole correctness property: whatever level a swap lands
        at, the pinned decode finishes bit-identical to a from-scratch
        decode against its pinned version."""
        sequences = data.draw(catalog_strategy)
        new_sequence = draw_new_sequence(data, sequences)
        prompt = data.draw(
            st.lists(st.integers(1, 8), min_size=1, max_size=5), label="prompt"
        )
        beam_size = data.draw(st.integers(2, 6), label="beam")
        swap_after = data.draw(st.integers(0, DEPTH - 1), label="swap_after")

        pinned = build_trie(sequences)
        engine, catalog = self.make_engine(pinned)
        request = RecommendRequest(prompt_ids=list(prompt), top_k=10, beam_size=beam_size)
        state = engine.prefill([request])
        steps = 0
        while not state.done:
            if steps == swap_after:
                catalog.swap(pinned.with_item(len(sequences), new_sequence))
            engine.step(state)
            steps += 1
        got = [(h.item_id, h.token_ids, h.score)
               for h in engine.retire(state)[0]]

        oracle_engine = TrieDecoderEngine(make_model(), pinned)
        assert got == decode_rankings(oracle_engine, prompt, beam_size)

    def test_post_swap_requests_cannot_join_pinned_decode(self):
        trie = build_trie([(10, 12, 14), (10, 12, 15), (11, 13, 14), (11, 13, 15)])
        engine, catalog = self.make_engine(trie)
        request = RecommendRequest(prompt_ids=[1, 2, 3], top_k=4, beam_size=4)
        state = engine.prefill([request])
        follower = RecommendRequest(prompt_ids=[4, 5], top_k=4, beam_size=4)
        catalog.swap(trie.with_item(4, (11, 12, 14)))
        # A decode is a closed cohort, so the follower cannot enter the
        # pinned decode at all: it waits for the drain.
        assert state.trie is trie and engine.trie is not trie
        # After the pinned decode drains, new prefills use the new trie.
        while not state.done:
            engine.step(state)
        engine.retire(state)
        fresh = engine.prefill([follower])
        assert fresh.trie is catalog.version.trie

    def test_pure_ingest_keeps_prompt_cache_entries(self):
        trie = build_trie([(10, 12, 14), (10, 12, 15), (11, 13, 14)])
        engine, catalog = self.make_engine(trie, prefix_cache=PrefixKVCache())
        prompt = [1, 2, 3, 4, 5, 6]
        decode_rankings(engine, prompt, beam_size=3)
        assert len(engine.prefix_cache) == 1
        # Pure ingestion never remaps a token: the next prefill keeps
        # (and hits) the entry.
        catalog.swap(trie.with_item(3, (11, 12, 15)))
        got = decode_rankings(engine, prompt, beam_size=3)
        assert len(engine.prefix_cache) == 1
        cacheless = TrieDecoderEngine(make_model(), catalog.version.trie)
        assert_rankings_close(got, decode_rankings(cacheless, prompt, beam_size=3))


# ----------------------------------------------------------------------
# Catalog layer: ingestion end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_catalog(tiny_lcrec):
    return tiny_lcrec.live_catalog(recluster_every=3)


class TestLiveCatalogIngest:
    def test_ingest_publishes_new_version(self, tiny_lcrec):
        catalog = tiny_lcrec.live_catalog(retrieval=False)
        v0 = catalog.version
        result = catalog.ingest(text="wireless noise cancelling headphones")
        assert catalog.version.version == 1
        assert result.version is catalog.version
        assert result.item_id == v0.num_items
        assert catalog.num_items == v0.num_items + 1
        assert catalog.trie.all_sequences()[result.item_id] == result.token_ids
        # The old snapshot is bit-for-bit intact (pinned readers).
        assert result.item_id not in v0.trie.all_sequences()
        assert v0.index_set.num_items == v0.num_items
        # Codes stay unique across the whole catalog.
        assert catalog.index_set.is_unique()

    def test_ingest_embedding_lane_and_validation(self, tiny_lcrec):
        catalog = tiny_lcrec.live_catalog(retrieval=False)
        rng = np.random.default_rng(3)
        embedding = rng.normal(size=tiny_lcrec.item_embeddings.shape[1])
        result = catalog.ingest(embedding=embedding)
        assert result.item_id == catalog.num_items - 1
        with pytest.raises(ValueError, match="exactly one"):
            catalog.ingest()
        with pytest.raises(ValueError, match="exactly one"):
            catalog.ingest(text="x", embedding=embedding)

    @pytest.mark.parametrize("bad", ["nan", "inf", "short", "matrix"])
    def test_ingest_rejects_a_hostile_embedding(self, tiny_lcrec, bad):
        catalog = tiny_lcrec.live_catalog(retrieval=False)
        dim = tiny_lcrec.item_embeddings.shape[1]
        embedding = {
            "nan": np.full(dim, np.nan),
            "inf": np.r_[np.ones(dim - 1), np.inf],
            "short": np.ones(dim - 1),
            "matrix": np.ones((1, dim)),
        }[bad]
        before = catalog.version
        with pytest.raises(ValueError, match="finite"):
            catalog.ingest(embedding=embedding)
        assert catalog.version is before and catalog.ingested == 0  # nothing published
        assert catalog.ingest(embedding=np.ones(dim)).item_id == before.num_items

    def test_ingest_without_rqvae_rejected(self, tiny_lcrec):
        catalog = LiveCatalog(
            tiny_lcrec.trie, tiny_lcrec.index_set, tiny_lcrec.tokenizer
        )
        with pytest.raises(ValueError, match="RQ-VAE"):
            catalog.ingest(text="anything")

    def test_retrieval_tier_extends_and_reclusters(self, tiny_lcrec):
        catalog = tiny_lcrec.live_catalog(recluster_every=3)
        baseline = catalog.num_items
        for round_ in range(3):
            catalog.ingest(text=f"brand new item number {round_}")
        tier = catalog.version.retrieval
        assert tier.num_items == baseline + 3
        # recluster_every=3 tripped: pending inserts were folded into a
        # fresh k-means build.
        assert tier.index.pending_inserts == 0
        # The retrieval proxy can recommend the new items.
        full = catalog.recommend([0, 1, 2], top_k=catalog.num_items)
        assert set(range(baseline, baseline + 3)) <= set(full)

    def test_new_item_recommendable_within_one_swap(self, tiny_lcrec):
        catalog = tiny_lcrec.live_catalog(retrieval=False)
        engine = tiny_lcrec.engine(prefix_cache=None)
        engine.attach_catalog(catalog)
        result = catalog.ingest(text="limited edition collector figurine")
        prompt = engine.encode_history([1, 2, 3])
        ranked = engine.rank_prompts([prompt], top_k=catalog.num_items)[0]
        assert result.item_id in ranked

    def test_ingest_builds_the_trie_and_decodes_build_none(self, tiny_lcrec, monkeypatch):
        catalog = tiny_lcrec.live_catalog(retrieval=False)
        engine = tiny_lcrec.engine(prefix_cache=None)
        engine.attach_catalog(catalog)
        builds = []
        build = IndexTrie._build

        def counting(trie, *args):
            builds.append(threading.get_ident())
            return build(trie, *args)

        monkeypatch.setattr(IndexTrie, "_build", counting)
        catalog.ingest(text="solar powered camping lantern")
        assert builds == [threading.get_ident()]  # one build, on the ingesting thread
        prompt = engine.encode_history([1, 2, 3])
        decode_rankings(engine, prompt, beam_size=10)
        assert len(builds) == 1  # the prefill and steps after the swap build nothing


# ----------------------------------------------------------------------
# Serving layer: the client surface under churn
# ----------------------------------------------------------------------
class TestServingIngest:
    def test_service_ingest_item_swaps_for_next_request(self, tiny_lcrec):
        catalog = tiny_lcrec.live_catalog(retrieval=False)
        engine = tiny_lcrec.engine(prefix_cache=True)
        engine.attach_catalog(catalog)
        service = RecommendationService(engine)
        initial = catalog.num_items
        for generation in range(3):  # ingests interleaved with served requests
            result = service.ingest_item(text=f"smart home hub with voice control v{generation}")
            handle = service.submit([1, 2, 3], top_k=catalog.num_items)
            service.flush()
            assert result.item_id in handle.result()
        assert catalog.index_set.is_unique()
        assert catalog.num_items == initial + 3

    def test_ingested_ids_are_valid_history_ids(self, tiny_lcrec):
        catalog = tiny_lcrec.live_catalog(retrieval=False)
        engine = tiny_lcrec.engine(prefix_cache=None)
        engine.attach_catalog(catalog)
        service = RecommendationService(engine)
        new_id = catalog.num_items
        with pytest.raises(ValueError, match=f"history item {new_id} is not"):
            service.submit([1, new_id], top_k=3)
        assert service.ingest_item(text="solar powered garden lamp").item_id == new_id
        check_history([1, new_id], engine.num_items)  # the live count: no ValueError now
        # ... and it renders through the live index set, so it is served.
        handle = service.submit([1, new_id], top_k=3)
        service.flush()
        assert len(handle.result()) == 3

    def test_service_without_catalog_rejects_ingest(self, tiny_lcrec):
        service = RecommendationService(tiny_lcrec.engine(prefix_cache=None))
        with pytest.raises(RuntimeError, match="no live catalog"):
            service.ingest_item(text="x")

    def test_cluster_ingest_reaches_every_worker(self, tiny_lcrec):
        catalog = tiny_lcrec.live_catalog(retrieval=False)
        engine = tiny_lcrec.engine(prefix_cache=True)
        engine.attach_catalog(catalog)
        cluster = ServingCluster(engine, num_workers=2)
        result = cluster.ingest_item(text="ergonomic split mechanical keyboard")
        for worker in cluster.workers:
            assert worker.engine.catalog is catalog
            assert worker.engine.trie is catalog.trie
        handles = [
            cluster.submit([1, 2, 3], top_k=catalog.num_items, session_key=str(i))
            for i in range(2)
        ]
        cluster.flush()
        for handle in handles:
            assert result.item_id in handle.result()

    def test_cluster_without_catalog_rejects_ingest(self, tiny_lcrec):
        cluster = ServingCluster(tiny_lcrec.engine(prefix_cache=None), num_workers=1)
        with pytest.raises(RuntimeError, match="live catalog"):
            cluster.ingest_item(text="x")


class TestHybridServingLane:
    HISTORIES = [[1, 2, 3], [4, 5], [0, 7, 9], [], [3, 3, 3]]

    @pytest.fixture()
    def hybrid(self, tiny_lcrec, live_catalog):
        engine = tiny_lcrec.engine(prefix_cache=None)
        engine.attach_catalog(live_catalog)
        return HybridRecommender(engine, live_catalog, num_candidates=8)

    def test_submit_matches_library_hybrid(self, tiny_lcrec, live_catalog, hybrid):
        engine = tiny_lcrec.engine(prefix_cache=None)
        engine.attach_catalog(live_catalog)
        service = RecommendationService(engine, hybrid=hybrid)
        expected = hybrid.recommend_many(self.HISTORIES, top_k=6)
        handles = [service.submit(h, top_k=6) for h in self.HISTORIES]
        service.flush()
        assert [handle.result() for handle in handles] == expected
        assert service.stats.hybrid_narrowed == 4
        assert service.stats.hybrid_retrieval == 1
        # The cold-start submit is typed degraded, not silently retrieval.
        assert handles[3].degraded

    def test_submit_matches_library_hybrid_continuous(
        self, tiny_lcrec, live_catalog, hybrid
    ):
        engine = tiny_lcrec.engine(prefix_cache=True)
        engine.attach_catalog(live_catalog)
        expected = hybrid.recommend_many(self.HISTORIES, top_k=6)
        with RecommendationService(engine, hybrid=hybrid, mode="continuous") as service:
            handles = [service.submit(h, top_k=6) for h in self.HISTORIES]
            got = [handle.result(timeout=120) for handle in handles]
        assert got == expected

    def test_distinct_candidate_sets_share_one_admission(
        self, tiny_lcrec, tiny_dataset, live_catalog, hybrid
    ):
        # Narrowing is per row: six requests narrowed to six different
        # candidate tuples are one prefill, not six.
        engine = tiny_lcrec.engine(prefix_cache=None)
        engine.attach_catalog(live_catalog)
        service = RecommendationService(engine, hybrid=hybrid)
        distinct = {}
        for history in tiny_dataset.split.test_histories:
            distinct.setdefault(tuple(hybrid.candidates(list(history)[:3], 6)), list(history)[:3])
        histories = list(distinct.values())[:6]
        assert len(histories) == 6
        handles = [service.submit(h, top_k=6) for h in histories]
        assert service.flush() == 6
        assert (service.stats.admissions, service.stats.hybrid_narrowed) == (1, 6)
        assert [handle.result() for handle in handles] == [
            hybrid.recommend(h, top_k=6) for h in histories
        ]

    def test_hybrid_lane_tracks_ingestion(self, tiny_lcrec, live_catalog, hybrid):
        engine = tiny_lcrec.engine(prefix_cache=None)
        engine.attach_catalog(live_catalog)
        service = RecommendationService(engine, hybrid=hybrid)
        service.ingest_item(text="hybrid lane ingestion probe item")
        # Both lanes answer over the new catalog version — parity holds
        # after the swap without rebuilding the hybrid.
        expected = hybrid.recommend_many(self.HISTORIES, top_k=6)
        handles = [service.submit(h, top_k=6) for h in self.HISTORIES]
        service.flush()
        assert [handle.result() for handle in handles] == expected

    def test_hybrid_requires_narrowing_engine(self, tiny_lcrec, hybrid):
        class NoNarrow(TrieDecoderEngine):
            supports_narrowing = False

        engine = NoNarrow(MODEL, build_trie([(10, 12, 14)]))
        with pytest.raises(ValueError, match="narrowing"):
            RecommendationService(engine, hybrid=hybrid)
