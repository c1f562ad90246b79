"""Tests for constrained beam search, greedy decoding and scoring."""

import numpy as np
import pytest

from repro.llm import (
    LMConfig,
    TinyLlama,
    greedy_generate,
    sequence_logprob,
)
from repro.quantization import IndexTrie
from repro.tensor import no_grad

from helpers import decode_prompts


def make_model(vocab=30):
    return TinyLlama(LMConfig(vocab_size=vocab, dim=16, num_layers=1,
                              num_heads=2, ffn_hidden=24, max_seq_len=64,
                              seed=7))


def make_trie():
    # Items in token space 10..15, 3 levels.
    return IndexTrie({
        0: (10, 12, 14),
        1: (10, 12, 15),
        2: (10, 13, 14),
        3: (11, 12, 14),
        4: (11, 13, 15),
    })


class TestBeamSearch:
    def test_returns_only_legal_items(self):
        model = make_model()
        trie = make_trie()
        hypotheses = decode_prompts(model, [[1, 2, 3]], trie, beam_size=10)[0]
        legal = set(trie.all_sequences().keys())
        for hypothesis in hypotheses:
            assert hypothesis.item_id in legal
            assert trie.item_at(hypothesis.token_ids) == hypothesis.item_id

    def test_scores_sorted_descending(self):
        model = make_model()
        hypotheses = decode_prompts(model, [[1]], make_trie(), beam_size=5)[0]
        scores = [h.score for h in hypotheses]
        assert scores == sorted(scores, reverse=True)

    def test_beam_covers_all_items_when_wide(self):
        model = make_model()
        hypotheses = decode_prompts(model, [[1]], make_trie(), beam_size=50)[0]
        assert {h.item_id for h in hypotheses} == {0, 1, 2, 3, 4}

    def test_beam_size_one_is_greedy_path(self):
        model = make_model()
        hypotheses = decode_prompts(model, [[1]], make_trie(), beam_size=1)[0]
        assert len(hypotheses) == 1

    def test_beam_size_validated(self):
        with pytest.raises(ValueError):
            decode_prompts(make_model(), [[1]], make_trie(), beam_size=0)

    def test_scores_are_constrained_log_probabilities(self):
        """Beam score must equal the summed *constrained* token log-probs.

        Constrained decoding masks illegal tokens to -inf before the
        log-softmax (what a prefix_allowed_tokens_fn logits processor
        does), so each level's distribution renormalises over the tokens
        the trie allows for that prefix.
        """
        model = make_model()
        trie = make_trie()
        prompt = [1, 2]
        hypotheses = decode_prompts(model, [prompt], trie, beam_size=50)[0]
        best = hypotheses[0]
        full = np.asarray(prompt + list(best.token_ids), dtype=np.int64)[None, :]
        logits = model.forward(full).data[0]
        expected = 0.0
        for level, token in enumerate(best.token_ids):
            allowed = trie.allowed_tokens(best.token_ids[:level])
            raw = logits[len(prompt) - 1 + level, allowed]
            level_logp = raw - (raw.max() + np.log(np.exp(raw - raw.max()).sum()))
            expected += float(level_logp[list(allowed).index(token)])
        assert best.score == pytest.approx(expected, abs=1e-3)


class TestGreedyGenerate:
    def test_stops_at_eos(self):
        model = make_model()
        # Find what the model wants to generate, then ban everything else so
        # the second token is forced to be "eos".
        out = greedy_generate(model, [1, 2], max_new_tokens=5, eos_id=-1)
        assert len(out) == 5

    def test_eos_terminates(self):
        model = make_model()
        first = greedy_generate(model, [1, 2], max_new_tokens=5, eos_id=-1)[0]
        out = greedy_generate(model, [1, 2], max_new_tokens=5, eos_id=first)
        assert out == []

    def test_banned_ids_never_generated(self):
        model = make_model()
        free = greedy_generate(model, [1], max_new_tokens=6, eos_id=-1)
        banned = {free[0]}
        constrained = greedy_generate(model, [1], max_new_tokens=6, eos_id=-1,
                                      banned_ids=banned)
        assert banned.isdisjoint(constrained)

    def test_cached_tokens_match_full_recompute(self):
        """The KV-cached loop emits what an argmax over a full re-forward
        of the growing sequence emits, token for token."""
        model = TinyLlama(LMConfig(vocab_size=50, dim=32, num_layers=2,
                                   num_heads=4, ffn_hidden=48,
                                   max_seq_len=64, seed=3))
        prompt = [1, 5, 9, 2, 7, 7, 3]
        cached = greedy_generate(model, prompt, max_new_tokens=16, eos_id=-1)
        tokens, recomputed = list(prompt), []
        with no_grad():
            for _ in range(16):
                logits = model.forward(np.asarray(tokens, dtype=np.int64)[None, :])
                recomputed.append(int(logits.data[0, -1].argmax()))
                tokens.append(recomputed[-1])
        assert cached == recomputed


class TestSequenceLogprob:
    def test_is_negative(self):
        model = make_model()
        assert sequence_logprob(model, [1, 2], [3, 4]) < 0

    def test_length_normalization(self):
        model = make_model()
        raw = sequence_logprob(model, [1], [3, 3, 3], length_normalize=False)
        normalized = sequence_logprob(model, [1], [3, 3, 3])
        assert normalized == pytest.approx(raw / 3)

    def test_empty_continuation_rejected(self):
        with pytest.raises(ValueError):
            sequence_logprob(make_model(), [1], [])

    def test_higher_probability_for_trained_continuation(self):
        """After overfitting one pattern, its logprob should win."""
        from repro.tensor import Adam
        from repro.tensor import functional as F

        model = make_model()
        optimizer = Adam(model.parameters(), lr=0.01)
        sequence = np.array([[1, 5, 6, 7]])
        for _ in range(60):
            optimizer.zero_grad()
            loss = F.cross_entropy(model(sequence[:, :-1]), sequence[:, 1:])
            loss.backward()
            optimizer.step()
        model.eval()
        good = sequence_logprob(model, [1], [5, 6, 7])
        bad = sequence_logprob(model, [1], [9, 9, 9])
        assert good > bad
