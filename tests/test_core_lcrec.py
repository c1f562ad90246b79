"""Integration tests for the full LC-Rec pipeline (tiny scale)."""

import hashlib

import numpy as np
import pytest

from repro.core import LCRec, LCRecConfig
from repro.text import INDEX_TOKEN_PATTERN

from helpers import small_lcrec_config


class TestBuildArtifacts:
    def test_indices_unique_and_registered(self, tiny_lcrec):
        assert tiny_lcrec.index_set.is_unique()
        vocab = tiny_lcrec.tokenizer.vocab
        for token in tiny_lcrec.index_set.all_token_strings():
            assert token in vocab
            assert vocab.is_extension_id(vocab.token_to_id(token))

    def test_vocabulary_pinned(self, tiny_lcrec):
        """The LM's vocabulary is the catalog text plus every template's prose
        (``templates.all_template_texts``) plus the index tokens, in id order.
        Its size sets the embedding and head shapes, so editing or deleting a
        template's text changes every LC-Rec weight; this pin makes that loud.
        Tokenising is pure Python, so the pin holds on every host."""
        tokens = tiny_lcrec.tokenizer.vocab.tokens()
        digest = hashlib.blake2b("\n".join(tokens).encode(), digest_size=8).hexdigest()
        assert (len(tokens), digest) == (344, "d96e1ee4accd8174")

    def test_lm_vocab_extended_to_match_tokenizer(self, tiny_lcrec):
        assert tiny_lcrec.lm.vocab_size == len(tiny_lcrec.tokenizer.vocab)

    def test_trie_covers_all_items(self, tiny_lcrec, tiny_dataset):
        assert tiny_lcrec.trie.num_items == tiny_dataset.num_items

    def test_pretrain_reduced_loss(self, tiny_lcrec):
        losses = tiny_lcrec.pretrain_losses
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_tuning_ran(self, tiny_lcrec):
        assert len(tiny_lcrec.tuning_losses) > 0

    def test_item_embeddings_cached(self, tiny_lcrec, tiny_dataset):
        assert tiny_lcrec.item_embeddings.shape[0] == tiny_dataset.num_items


class TestInference:
    def test_recommend_returns_legal_unique_items(self, tiny_lcrec,
                                                  tiny_dataset):
        history = tiny_dataset.split.test_histories[0]
        ranked = tiny_lcrec.recommend(history, top_k=10)
        assert len(ranked) == 10
        assert len(set(ranked)) == 10
        assert all(0 <= i < tiny_dataset.num_items for i in ranked)

    def test_recommend_respects_top_k(self, tiny_lcrec, tiny_dataset):
        history = tiny_dataset.split.test_histories[1]
        assert len(tiny_lcrec.recommend(history, top_k=3)) == 3

    def test_seq_instruction_contains_history_indices(self, tiny_lcrec,
                                                      tiny_dataset):
        history = tiny_dataset.split.test_histories[0][-4:]
        instruction = tiny_lcrec.seq_instruction(history)
        tokens = INDEX_TOKEN_PATTERN.findall(instruction)
        assert len(tokens) == 4 * len(history)

    @pytest.mark.parametrize("template_id", [-1, 4, True, 1.5])
    def test_seq_instruction_checks_template_id(self, tiny_lcrec, tiny_dataset, template_id):
        with pytest.raises(ValueError, match="template_id"):
            tiny_lcrec.seq_instruction(tiny_dataset.split.test_histories[0], template_id)

    def test_intention_recommendation(self, tiny_lcrec):
        ranked = tiny_lcrec.recommend_for_intention(
            "looking for something nice", top_k=5)
        assert len(ranked) == 5

    def test_generate_text_produces_string(self, tiny_lcrec):
        index = tiny_lcrec.index_set.index_text(0)
        text = tiny_lcrec.generate_text(
            f"please tell me what item {index} is called , along with a "
            "brief description of it .")
        assert isinstance(text, str)

    def test_response_logprob_finite_and_negative(self, tiny_lcrec,
                                                  tiny_dataset):
        history = tiny_dataset.split.test_histories[0]
        instruction = tiny_lcrec.seq_instruction(history)
        target = tiny_dataset.split.test_targets[0]
        logprob = tiny_lcrec.response_logprob(
            instruction, tiny_lcrec.index_set.index_text(target))
        assert np.isfinite(logprob)
        assert logprob < 0

    def test_inference_before_build_rejected(self, tiny_dataset):
        model = LCRec(tiny_dataset, LCRecConfig())
        with pytest.raises(RuntimeError):
            model.recommend([0, 1])


class TestEmbeddingGroups:
    def test_groups_shapes(self, tiny_lcrec):
        groups = tiny_lcrec.token_embedding_groups()
        dim = tiny_lcrec.lm.config.dim
        assert groups["item_indices"].shape[1] == dim
        assert groups["item_texts"].shape[1] == dim
        assert len(groups["item_indices"]) == sum(
            tiny_lcrec.index_set.level_sizes)


class TestAblationVariants:
    def test_vanilla_index_source(self, tiny_dataset):
        config = small_lcrec_config(index_source="vanilla")
        config.tuning.epochs = 1
        config.tasks.tasks = ("seq",)
        model = LCRec(tiny_dataset, config).build()
        assert model.index_set.num_levels == 1
        ranked = model.recommend(tiny_dataset.split.test_histories[0],
                                 top_k=5)
        assert len(ranked) == 5

    def test_random_index_source(self, tiny_dataset):
        config = small_lcrec_config(index_source="random")
        config.tuning.epochs = 1
        config.tasks.tasks = ("seq",)
        model = LCRec(tiny_dataset, config).build()
        assert model.index_set.num_levels == 4
        assert model.index_set.is_unique()

    def test_invalid_index_source_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            LCRec(tiny_dataset, small_lcrec_config(index_source="bogus"))
