"""Focused tests for generative-baseline internals."""

import numpy as np
import pytest

from repro.baselines.generative import BOS_ID, PAD_ID, SEP_ID
from repro.baselines.p5cid import _MAX_HISTORY, IGNORE, P5CID, P5CIDConfig
from repro.baselines.tiger import TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set


class TestP5CIDEncoding:
    @pytest.fixture()
    def model(self, tiny_dataset):
        return P5CID(tiny_dataset, P5CIDConfig(epochs=1, dim=16,
                                               cluster_levels=2, branch=4))

    def test_example_structure(self, model):
        input_ids, labels = model._example([0, 1], target=2)
        assert input_ids[0] == BOS_ID
        assert SEP_ID in input_ids
        sep_position = input_ids.index(SEP_ID)
        # Everything before (and including) the separator is masked out.
        assert all(label == IGNORE for label in labels[:sep_position + 1])
        target_tokens = list(model.space.item_tokens(2))
        assert input_ids[sep_position + 1:] == target_tokens
        assert labels[sep_position + 1:] == target_tokens

    def test_prompt_without_target(self, model):
        prompt, labels = model._example([3, 4], target=None)
        assert labels == []
        assert prompt[-1] == SEP_ID

    def test_history_truncated(self, model):
        long_history = list(range(20)) * 2
        prompt, _ = model._example(long_history, target=None)
        max_tokens = (_MAX_HISTORY * model.num_levels) + 2
        assert len(prompt) <= max_tokens


class TestTIGERPadding:
    @pytest.fixture()
    def model(self, tiny_dataset, rng):
        index_set = build_random_index_set(tiny_dataset.num_items, 3, 8, rng)
        return TIGER(index_set, TIGERConfig(epochs=1, dim=16))

    def test_histories_padded_to_common_width(self, model):
        batch = model._pad_histories([[0], [1, 2, 3]])
        assert batch.shape[0] == 2
        assert (batch[0] == PAD_ID).sum() > 0

    def test_history_window_respected(self, model):
        long = list(range(30))
        batch = model._pad_histories([long])
        assert batch.shape[1] <= model.config.max_history * model.num_levels

    def test_encode_shapes(self, model):
        source = model._pad_histories([[0, 1], [2]])
        memory, mask = model.encode(source)
        assert memory.shape[0] == 2
        assert mask.shape == (2, 1, 1, source.shape[1])


class TestTIGERvsP5IndexContrast:
    def test_tiger_uses_semantic_p5_uses_cooccurrence(self, tiny_dataset,
                                                      rng):
        """The two generative baselines must index items differently."""
        from repro.baselines import collaborative_index_set

        cid = collaborative_index_set(tiny_dataset, num_levels=2, branch=4)
        random_ids = build_random_index_set(tiny_dataset.num_items, 3, 8, rng)
        assert cid.codes.shape[1] != random_ids.codes.shape[1] or not (
            np.array_equal(cid.codes[:, :2], random_ids.codes[:, :2])
        )
