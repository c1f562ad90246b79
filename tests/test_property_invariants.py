"""Cross-module property tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import pad_sequences
from repro.llm import LMConfig, TinyLlama, sequence_logprob
from repro.quantization import IndexTrie

from helpers import decode_prompts


def make_model(vocab=24):
    return TinyLlama(LMConfig(vocab_size=vocab, dim=16, num_layers=1,
                              num_heads=2, ffn_hidden=24, max_seq_len=64,
                              seed=13))


class TestBeamSearchExactness:
    """A wide-enough beam must match exhaustive enumeration exactly."""

    def constrained_sequence_logprob(self, model, prompt, sequence, trie):
        """Summed per-level log-probs renormalised over the trie's allowed
        sets — the constrained-decoding semantics of the beam stepper."""
        full = np.asarray(list(prompt) + list(sequence), dtype=np.int64)[None, :]
        logits = model.forward(full).data[0]
        total = 0.0
        for level, token in enumerate(sequence):
            allowed = trie.allowed_tokens(tuple(sequence[:level]))
            raw = logits[len(prompt) - 1 + level, allowed]
            logp = raw - (raw.max() + np.log(np.exp(raw - raw.max()).sum()))
            total += float(logp[list(allowed).index(token)])
        return total

    def exhaustive_ranking(self, model, prompt, trie):
        scored = []
        for item, sequence in trie.all_sequences().items():
            logprob = self.constrained_sequence_logprob(model, prompt,
                                                        list(sequence), trie)
            scored.append((logprob, item))
        scored.sort(key=lambda pair: -pair[0])
        return [item for _, item in scored], [s for s, _ in scored]

    def test_wide_beam_equals_exhaustive(self):
        model = make_model()
        trie = IndexTrie({
            0: (10, 14), 1: (10, 15), 2: (11, 14), 3: (11, 16),
            4: (12, 14), 5: (12, 15),
        })
        prompt = [1, 2, 3]
        hypotheses = decode_prompts(model, [prompt], trie, beam_size=100)[0]
        beam_items = [h.item_id for h in hypotheses]
        beam_scores = [h.score for h in hypotheses]
        exact_items, exact_scores = self.exhaustive_ranking(model, prompt,
                                                            trie)
        assert beam_items == exact_items
        np.testing.assert_allclose(beam_scores, exact_scores, atol=1e-3)

    def test_narrow_beam_is_prefix_monotone(self):
        """A narrower beam returns a subset of a wider beam's top items."""
        model = make_model()
        trie = IndexTrie({
            i: (10 + i // 4, 15 + i % 4) for i in range(12)
        })
        wide = [h.item_id for h in
                decode_prompts(model, [[1]], trie, beam_size=50)[0]]
        narrow = [h.item_id for h in
                  decode_prompts(model, [[1]], trie, beam_size=3)[0]]
        assert narrow[0] == wide[0]  # greedy top-1 always agrees


class TestPaddingProperties:
    @given(st.lists(st.lists(st.integers(0, 9), max_size=12), min_size=1,
                    max_size=8), st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_left_padding_preserves_suffixes(self, sequences, max_len):
        batch = pad_sequences(sequences, pad_value=-1, max_len=max_len)
        for row, seq in zip(batch, sequences):
            kept = [x for x in row if x != -1 or x in seq]
            trimmed = seq[-max_len:]
            # The non-pad tail of the row equals the recent suffix.
            non_pad = row[row != -1] if -1 not in trimmed else row
            assert list(non_pad[-len(trimmed):])[-len(trimmed):] == trimmed \
                or len(trimmed) == 0

    @given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_right_padding_preserves_prefixes(self, sequences):
        batch = pad_sequences(sequences, pad_value=-1, align="right")
        for row, seq in zip(batch, sequences):
            assert list(row[:len(seq)]) == seq


class TestVocabularyInvariants:
    def test_index_token_ids_stable_across_reregistration(self):
        from repro.text import WordTokenizer

        tokenizer = WordTokenizer(WordTokenizer.build_vocab(["hello"]))
        first = tokenizer.register_index_tokens(["<a_0>", "<a_1>"])
        second = tokenizer.register_index_tokens(["<a_0>", "<a_1>"])
        assert first == second

    def test_encoding_deterministic(self):
        from repro.text import WordTokenizer

        tokenizer = WordTokenizer(WordTokenizer.build_vocab(
            ["alpha beta gamma delta"]))
        text = "alpha <a_1> beta , gamma !"
        tokenizer.register_index_tokens(["<a_1>"])
        assert tokenizer.encode(text) == tokenizer.encode(text)


class TestDatasetDeterminism:
    def test_same_seed_same_dataset(self):
        from repro.data import build_dataset, preset_config

        a = build_dataset(preset_config("tiny"))
        b = build_dataset(preset_config("tiny"))
        assert a.sequences == b.sequences
        assert [i.title for i in a.catalog] == [i.title for i in b.catalog]

    def test_different_seed_different_interactions(self):
        from repro.data import build_dataset, preset_config

        a = build_dataset(preset_config("tiny", seed=1))
        b = build_dataset(preset_config("tiny", seed=2))
        assert a.sequences != b.sequences


class TestLogprobConsistency:
    def test_chain_rule_decomposition(self):
        """logp(ab) = logp(a) + logp(b | prompt+a)."""
        model = make_model()
        prompt = [1, 2]
        joint = sequence_logprob(model, prompt, [5, 6],
                                 length_normalize=False)
        first = sequence_logprob(model, prompt, [5], length_normalize=False)
        second = sequence_logprob(model, prompt + [5], [6],
                                  length_normalize=False)
        assert joint == pytest.approx(first + second, abs=1e-4)


# ----------------------------------------------------------------------
# Retrieval tier: the serving result contract, property-tested
# ----------------------------------------------------------------------
from repro.retrieval import (  # noqa: E402
    ClusteredKNNConfig,
    ClusteredKNNIndex,
    RetrievalRecommender,
    brute_force_topk,
)

_RETRIEVAL_VECTORS = np.random.default_rng(2024).standard_normal((48, 10)).astype(np.float32)
_RETRIEVAL_COUNTS = np.random.default_rng(7).integers(0, 12, 48)
RETRIEVER = RetrievalRecommender(
    ClusteredKNNIndex(_RETRIEVAL_VECTORS, ClusteredKNNConfig(n_clusters=6, n_probe=2)),
    popularity=_RETRIEVAL_COUNTS,
)


class TestRetrievalInvariants:
    """The contract that lets retrieval serve as the degradation lane:
    whatever the history (garbage ids included), every call returns
    exactly ``min(top_k, num_items)`` distinct in-catalog ids,
    deterministically."""

    @settings(max_examples=60, deadline=None)
    @given(history=st.lists(st.integers(min_value=-3, max_value=60), max_size=16),
           top_k=st.integers(min_value=1, max_value=60))
    def test_result_contract(self, history, top_k):
        ranked = RETRIEVER.recommend(history, top_k)
        assert len(ranked) == min(top_k, RETRIEVER.num_items)
        assert len(set(ranked)) == len(ranked)  # no duplicate item ids
        assert all(0 <= item < RETRIEVER.num_items for item in ranked)
        assert ranked == RETRIEVER.recommend(history, top_k)  # deterministic

    @settings(max_examples=40, deadline=None)
    @given(top_k=st.integers(min_value=1, max_value=48))
    def test_cold_start_is_the_popularity_ranking(self, top_k):
        """Empty histories rank by descending training count, ties by
        smaller item id — fixed at construction, never data-dependent."""
        ranked = RETRIEVER.recommend([], top_k)
        assert ranked == [int(item) for item in RETRIEVER.popularity_order[:top_k]]
        counts = _RETRIEVAL_COUNTS
        for a, b in zip(ranked, ranked[1:]):
            assert counts[a] > counts[b] or (counts[a] == counts[b] and a < b)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           top_k=st.integers(min_value=1, max_value=48))
    def test_full_probe_always_matches_brute_force(self, seed, top_k):
        query = np.random.default_rng(seed).standard_normal(10).astype(np.float32)
        exact = brute_force_topk(RETRIEVER.index.vectors, query, top_k)
        got = RETRIEVER.index.search(query, top_k, n_probe=RETRIEVER.index.num_clusters)
        assert got.tolist() == exact.tolist()
