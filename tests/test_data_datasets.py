"""Tests for dataset assembly, presets, stats, intentions and batching."""

import numpy as np
import pytest

from repro.data import (
    IntentionGenerator,
    build_dataset,
    dataset_statistics,
    format_table2_row,
    iterate_minibatches,
    pad_sequences,
    preset_config,
)
from repro.bench import bench_scale, scaled_dataset
from repro.data.intentions import intention_template_texts


class TestPresets:
    def test_all_presets_buildable(self):
        for name in ("tiny",):
            dataset = build_dataset(preset_config(name))
            assert dataset.num_users > 0
            assert dataset.num_items > 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            preset_config("nope")

    def test_scale_parameter(self):
        base = preset_config("instruments")
        scaled = preset_config("instruments", scale=0.5)
        assert scaled.behavior.num_users < base.behavior.num_users
        assert scaled.catalog.num_items < base.catalog.num_items

    def test_reseed(self):
        config = preset_config("tiny", seed=999)
        assert config.seed == 999

    def test_preset_copies_are_independent(self):
        config = preset_config("tiny")
        config.behavior.num_users = 1
        assert preset_config("tiny").behavior.num_users != 1


class TestBuildDataset:
    def test_sequences_meet_min_interactions(self, tiny_dataset):
        minimum = tiny_dataset.config.min_interactions
        assert all(len(s) >= minimum for s in tiny_dataset.sequences)

    def test_item_ids_dense(self, tiny_dataset):
        used = {i for seq in tiny_dataset.sequences for i in seq}
        assert used == set(range(tiny_dataset.num_items))

    def test_catalog_reindexed_consistently(self, tiny_dataset):
        # item_id_map maps dense -> raw generated ids; dense catalog items
        # must match the raw items' content.
        config = preset_config("tiny")
        from repro.data import generate_catalog
        from repro.utils.rng import SeedSequenceFactory

        raw = generate_catalog(config.catalog,
                               SeedSequenceFactory(config.seed).rng("catalog"))
        for dense_id, raw_id in enumerate(tiny_dataset.item_id_map):
            assert tiny_dataset.catalog[dense_id].title == raw[raw_id].title

    def test_split_shapes(self, tiny_dataset):
        split = tiny_dataset.split
        n = tiny_dataset.num_users
        assert len(split.test_targets) == n
        assert len(split.valid_targets) == n
        assert len(split.train_sequences) == n


class TestStatistics:
    def test_table2_columns(self, tiny_dataset):
        stats = dataset_statistics(tiny_dataset)
        assert stats.num_users == tiny_dataset.num_users
        assert stats.num_items == tiny_dataset.num_items
        assert 0.0 < stats.sparsity < 1.0
        assert stats.avg_length == pytest.approx(
            stats.num_interactions / stats.num_users)

    def test_row_formatting(self, tiny_dataset):
        row = format_table2_row(dataset_statistics(tiny_dataset))
        assert "tiny" in row
        assert "%" in row

    def test_table2_shape_at_small_scale(self):
        """Table II's shape: sparse (> 90 %), 5-15 interactions per user,
        Games at least as many users as Instruments."""
        stats = {
            preset: dataset_statistics(scaled_dataset(preset, bench_scale("small")))
            for preset in ("instruments", "arts", "games")
        }
        for stat in stats.values():
            assert stat.sparsity > 0.90
            assert 5.0 <= stat.avg_length <= 15.0
        assert stats["games"].num_users >= stats["instruments"].num_users


class TestIntentions:
    def test_intention_mentions_category(self, tiny_dataset, rng):
        generator = IntentionGenerator(tiny_dataset.catalog, rng)
        item = tiny_dataset.catalog[0]
        example = generator.intention_for_item(item)
        category_name = tiny_dataset.catalog.lexicon.category_names[item.category]
        assert category_name in example.text

    def test_intention_not_verbatim_copy(self, tiny_dataset, rng):
        generator = IntentionGenerator(tiny_dataset.catalog, rng)
        item = tiny_dataset.catalog[0]
        example = generator.intention_for_item(item)
        assert example.text != item.description

    def test_test_intentions_target_held_out_item(self, tiny_dataset, rng):
        generator = IntentionGenerator(tiny_dataset.catalog, rng)
        examples = generator.test_intentions(tiny_dataset)
        assert [e.item_id for e in examples] == tiny_dataset.split.test_targets

    def test_training_intentions_avoid_test_items(self, tiny_dataset, rng):
        generator = IntentionGenerator(tiny_dataset.catalog, rng)
        examples = generator.training_intentions(tiny_dataset, per_user=2)
        for example in examples:
            train_items = set(
                tiny_dataset.split.train_sequences[example.user_id])
            assert example.item_id in train_items

    def test_preference_reflects_dominant_category(self, tiny_dataset, rng):
        generator = IntentionGenerator(tiny_dataset.catalog, rng)
        history = tiny_dataset.split.train_sequences[0]
        example = generator.preference_for_history(0, history)
        categories = [tiny_dataset.catalog[i].category for i in history]
        dominant = max(set(categories), key=categories.count)
        name = tiny_dataset.catalog.lexicon.category_names[dominant]
        assert name in example.text

    def test_preference_requires_history(self, tiny_dataset, rng):
        generator = IntentionGenerator(tiny_dataset.catalog, rng)
        with pytest.raises(ValueError):
            generator.preference_for_history(0, [])

    def test_template_texts_available(self):
        texts = intention_template_texts()
        assert len(texts) >= 5
        assert all("{" not in t for t in texts)


class TestBatching:
    def test_pad_right_alignment(self):
        batch = pad_sequences([[1, 2], [3]], pad_value=9, max_len=3)
        np.testing.assert_array_equal(batch, [[1, 2, 9], [3, 9, 9]])

    def test_pad_truncates_keeping_the_head(self):
        batch = pad_sequences([[1, 2, 3, 4], []], pad_value=0, max_len=2)
        np.testing.assert_array_equal(batch, [[1, 2], [0, 0]])

    def test_minibatches_cover_everything(self, rng):
        seen = []
        for batch in iterate_minibatches(10, 3, rng=rng):
            seen.extend(batch.tolist())
        assert sorted(seen) == list(range(10))

    def test_minibatches_require_rng_when_shuffling(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(5, 2))

    def test_minibatches_no_shuffle_ordered(self):
        batches = list(iterate_minibatches(5, 2, shuffle=False))
        assert batches[0].tolist() == [0, 1]

    def test_minibatch_size_validated(self, rng):
        with pytest.raises(ValueError):
            list(iterate_minibatches(5, 0, rng=rng))
