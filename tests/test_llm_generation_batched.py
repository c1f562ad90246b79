"""Batched constrained decoding: parity with the single-request path."""

import numpy as np
import pytest

from repro.llm import (
    LMConfig,
    TinyLlama,
    backfill_ranked_item_ids,
    beam_search_items_single,
    decode_prefill,
    left_pad_prompts,
    ranked_item_ids,
)
from repro.quantization import IndexTrie
from repro.tensor import no_grad

from helpers import decode_prompts


def make_model(vocab=30):
    model = TinyLlama(LMConfig(vocab_size=vocab, dim=16, num_layers=1,
                               num_heads=2, ffn_hidden=24, max_seq_len=64,
                               seed=7))
    model.eval()
    return model


def make_trie():
    return IndexTrie({
        0: (10, 12, 14),
        1: (10, 12, 15),
        2: (10, 13, 14),
        3: (11, 12, 14),
        4: (11, 13, 15),
    })


MIXED_PROMPTS = [[1, 2, 3], [4, 5], [1], [2, 2, 6, 7], [3, 3, 3]]


class TestLeftPadPrompts:
    def test_rectangle_and_pad_counts(self):
        tokens, pads = left_pad_prompts(MIXED_PROMPTS)
        assert tokens.shape == (5, 4)
        assert pads.tolist() == [1, 2, 3, 0, 1]
        # Real tokens occupy the tail of each row.
        for row, prompt in zip(tokens, MIXED_PROMPTS):
            assert row[len(row) - len(prompt):].tolist() == prompt

    def test_last_column_is_last_token(self):
        tokens, _ = left_pad_prompts(MIXED_PROMPTS)
        assert tokens[:, -1].tolist() == [p[-1] for p in MIXED_PROMPTS]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            left_pad_prompts([])
        with pytest.raises(ValueError):
            left_pad_prompts([[1], []])


class TestBatchedParity:
    """Rankings must match the reference single-request loop exactly."""

    @pytest.mark.parametrize("beam_size", [1, 3, 5, 50])
    def test_mixed_length_batch_matches_reference(self, beam_size):
        model, trie = make_model(), make_trie()
        batched = decode_prompts(model, MIXED_PROMPTS, trie,
                                            beam_size=beam_size)
        assert len(batched) == len(MIXED_PROMPTS)
        for prompt, hypotheses in zip(MIXED_PROMPTS, batched):
            reference = beam_search_items_single(model, prompt, trie,
                                                 beam_size=beam_size)
            assert ([h.item_id for h in hypotheses]
                    == [h.item_id for h in reference])
            assert ([h.token_ids for h in hypotheses]
                    == [h.token_ids for h in reference])
            np.testing.assert_allclose([h.score for h in hypotheses],
                                       [h.score for h in reference],
                                       rtol=1e-5, atol=1e-6)

    def test_wrapper_matches_reference(self):
        model, trie = make_model(), make_trie()
        wrapped = decode_prompts(model, [[1, 2, 3]], trie, beam_size=10)[0]
        reference = beam_search_items_single(model, [1, 2, 3], trie,
                                             beam_size=10)
        assert [h.item_id for h in wrapped] == [h.item_id for h in reference]
        np.testing.assert_allclose([h.score for h in wrapped],
                                   [h.score for h in reference], rtol=1e-6)

    def test_batch_of_one_equals_batch_of_many(self):
        model, trie = make_model(), make_trie()
        together = decode_prompts(model, MIXED_PROMPTS, trie,
                                             beam_size=5)
        for prompt, hypotheses in zip(MIXED_PROMPTS, together):
            alone = decode_prompts(model, [prompt], trie,
                                              beam_size=5)[0]
            assert ([h.item_id for h in hypotheses]
                    == [h.item_id for h in alone])

    def test_wide_beam_covers_all_items_per_request(self):
        model, trie = make_model(), make_trie()
        batched = decode_prompts(model, [[1], [2, 3]], trie,
                                            beam_size=50)
        for hypotheses in batched:
            assert {h.item_id for h in hypotheses} == {0, 1, 2, 3, 4}

    def test_scores_sorted_descending_per_request(self):
        model, trie = make_model(), make_trie()
        for hypotheses in decode_prompts(model, MIXED_PROMPTS,
                                                    trie, beam_size=10):
            scores = [h.score for h in hypotheses]
            assert scores == sorted(scores, reverse=True)
            assert all(np.isfinite(s) for s in scores)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="at least one prompt"):
            decode_prefill(make_model(), [], make_trie())

    def test_beam_size_validated(self):
        with pytest.raises(ValueError):
            decode_prompts(make_model(), [[1]], make_trie(),
                                      beam_size=0)

    def test_empty_prompt_in_batch_rejected_with_row(self):
        """A degenerate row must raise a clear per-row error, not crash
        somewhere inside left-padding or prefill."""
        with pytest.raises(ValueError, match="prompt 1 is empty"):
            decode_prompts(make_model(), [[1, 2], [], [3]],
                                      make_trie(), beam_size=5)

    def test_single_item_trie(self):
        model = make_model()
        trie = IndexTrie({0: (10, 12, 14)})
        batched = decode_prompts(model, [[1], [2, 3]], trie,
                                            beam_size=20)
        for hypotheses in batched:
            assert [h.item_id for h in hypotheses] == [0]
            assert hypotheses[0].token_ids == (10, 12, 14)

    def test_beam_exceeding_legal_hypotheses_mid_batch(self):
        """Rows starving mid-search carry -inf fillers that never leak out."""
        model = make_model()
        # Item 5 lives alone under root token 20: any row whose beam leads
        # with that branch has a single legal continuation at every level.
        trie = IndexTrie({
            0: (10, 12, 14),
            1: (10, 12, 15),
            5: (20, 21, 22),
        })
        batched = decode_prompts(model, [[1, 2], [4]], trie,
                                            beam_size=50)
        for prompt, hypotheses in zip([[1, 2], [4]], batched):
            assert {h.item_id for h in hypotheses} == {0, 1, 5}
            assert all(np.isfinite(h.score) for h in hypotheses)
            reference = beam_search_items_single(model, prompt, trie,
                                                 beam_size=50)
            assert ([h.token_ids for h in hypotheses]
                    == [h.token_ids for h in reference])


class TestRankedItemIds:
    def test_dedup_and_truncation(self):
        model, trie = make_model(), make_trie()
        hypotheses = decode_prompts(model, [[1]], trie, beam_size=50)[0]
        ranked = ranked_item_ids(hypotheses, top_k=3)
        assert len(ranked) == 3
        assert len(set(ranked)) == 3
        assert ranked == [h.item_id for h in hypotheses[:3]]

    def test_backfill_pads_short_rankings(self):
        model, trie = make_model(), make_trie()
        hypotheses = decode_prompts(model, [[1]], trie, beam_size=50)[0]
        # Full beams are untouched.
        assert backfill_ranked_item_ids(hypotheses, 3, 5) == ranked_item_ids(
            hypotheses, 3)
        # A starved beam is padded with the smallest unused item ids,
        # keeping the beam's own ranking at the front.
        padded = backfill_ranked_item_ids(hypotheses[:2], top_k=4, num_items=5)
        assert padded[:2] == [h.item_id for h in hypotheses[:2]]
        assert len(padded) == 4
        assert len(set(padded)) == 4
        # top_k beyond the catalog: every item once, nothing invented.
        everything = backfill_ranked_item_ids(hypotheses[:2], top_k=10,
                                              num_items=5)
        assert sorted(everything) == [0, 1, 2, 3, 4]


class TestTrieMask:
    def test_mask_matches_allowed_tokens(self):
        trie = make_trie()
        prefixes = [(), (10,), (11,), (10, 12), (11, 13)]
        mask = trie.allowed_token_mask(prefixes, vocab_size=30)
        assert mask.shape == (5, 30)
        for row, prefix in zip(mask, prefixes):
            assert set(np.flatnonzero(row)) == set(trie.allowed_tokens(prefix))

    def test_unknown_prefix_has_empty_row(self):
        mask = make_trie().allowed_token_mask([(9,), (10, 11)], vocab_size=30)
        assert not mask.any()

    def test_vocab_size_validated(self):
        with pytest.raises(ValueError):
            make_trie().allowed_token_mask([()], vocab_size=15)

    def test_vocab_growth_rebuilds_rows(self):
        trie = make_trie()
        small = trie.allowed_token_mask([()], vocab_size=20)
        grown = trie.allowed_token_mask([()], vocab_size=40)
        assert small.shape == (1, 20)
        assert grown.shape == (1, 40)
        np.testing.assert_array_equal(np.flatnonzero(small),
                                      np.flatnonzero(grown))


class TestPaddedForwardEquivalence:
    def test_padded_hidden_states_match_unpadded(self):
        """Left-padding + masking must reproduce per-row forward passes."""
        model = make_model()
        tokens, pads = left_pad_prompts(MIXED_PROMPTS)
        pad_columns = np.arange(tokens.shape[1]) < pads[:, None]
        with no_grad():
            batched = model.forward(tokens, pad_columns=pad_columns).data
        for row, prompt in enumerate(MIXED_PROMPTS):
            solo = model.forward(np.asarray([prompt], dtype=np.int64)).data[0]
            real = batched[row, pads[row]:, :]
            np.testing.assert_allclose(real, solo, rtol=2e-5, atol=2e-6)
