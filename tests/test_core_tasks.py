"""Tests for templates and the alignment-task builders."""

from collections import Counter

import numpy as np
import pytest

from repro.core import AlignmentTaskBuilder, AlignmentTaskConfig, LCRecConfig
from repro.core import templates as T
from repro.core.indexer import build_random_index_set
from repro.core.tasks import _MIN_HISTORY
from repro.data import IntentionGenerator
from repro.text import INDEX_TOKEN_PATTERN


@pytest.fixture()
def builder(tiny_dataset, rng):
    index_set = build_random_index_set(tiny_dataset.num_items, 4, 8, rng)
    generator = IntentionGenerator(tiny_dataset.catalog,
                                   np.random.default_rng(5))
    return AlignmentTaskBuilder(
        dataset=tiny_dataset,
        index_set=index_set,
        intention_generator=generator,
        config=AlignmentTaskConfig(seq_per_user=2, max_history=6),
    )


class TestTemplates:
    def test_multiple_templates_per_task(self):
        assert len(T.SEQ_TEMPLATES) >= 2
        assert len(T.MUT_TEXT_TO_INDEX_TEMPLATES) >= 2
        assert len(T.MUT_INDEX_TO_TEXT_TEMPLATES) >= 2
        assert len(T.ITE_SEARCH_TEMPLATES) >= 2
        assert len(T.PER_TEMPLATES) >= 2

    def test_placeholders_present(self):
        assert all("{history}" in t for t in T.SEQ_TEMPLATES)
        assert all("{intention}" in t for t in T.ITE_SEARCH_TEMPLATES)
        assert all("{index}" in t for t in T.MUT_INDEX_TO_TEXT_TEMPLATES)

    def test_template_texts_for_vocab_have_no_placeholders(self):
        for text in T.all_template_texts():
            assert "{" not in text and "}" not in text


class TestTaskBuilder:
    def test_all_families_present(self, builder):
        counts = Counter(example.task for example in builder.epoch_examples(0))
        assert set(counts) == {"seq", "mut", "asy", "ite", "per"}
        assert all(count > 0 for count in counts.values())

    def test_task_subset_respected(self, tiny_dataset, rng):
        index_set = build_random_index_set(tiny_dataset.num_items, 4, 8, rng)
        builder = AlignmentTaskBuilder(
            dataset=tiny_dataset, index_set=index_set,
            config=AlignmentTaskConfig(tasks=("seq",)),
        )
        counts = Counter(example.task for example in builder.epoch_examples(0))
        assert set(counts) == {"seq"}

    def test_ite_requires_intention_generator(self, tiny_dataset, rng):
        index_set = build_random_index_set(tiny_dataset.num_items, 4, 8, rng)
        with pytest.raises(ValueError):
            AlignmentTaskBuilder(
                dataset=tiny_dataset, index_set=index_set,
                config=AlignmentTaskConfig(tasks=("seq", "ite")),
            )

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            AlignmentTaskConfig(tasks=("seq", "bogus")).validate()

    @pytest.mark.parametrize("max_history", [0, -1])
    def test_history_length_below_one_rejected(self, max_history):
        # history[-0:] would serve the whole history and seq[t - 0:t] tune
        # on none of it; a negative length would drop the oldest items.
        with pytest.raises(ValueError, match="max_history"):
            AlignmentTaskConfig(max_history=max_history).validate()
        with pytest.raises(ValueError, match="max_history"):
            LCRecConfig(tasks=AlignmentTaskConfig(max_history=max_history)).validate()

    def test_seq_responses_are_index_strings(self, builder):
        examples = [e for e in builder.epoch_examples(0) if e.task == "seq"]
        for example in examples[:20]:
            tokens = INDEX_TOKEN_PATTERN.findall(example.response)
            assert len(tokens) == 4

    def test_seq_targets_never_from_test_set(self, builder, tiny_dataset):
        """Alignment data must come from the train prefix only."""
        for _, history, target in builder._seq_pairs:
            pass  # structure check below uses the last pair
        for user, seq in enumerate(tiny_dataset.split.train_sequences):
            allowed = set(seq)
            for pair_user, history, target in builder._seq_pairs:
                if pair_user == user:
                    assert target in allowed
                    assert set(history) <= allowed

    def test_histories_bounded(self, builder):
        config = builder.config
        for _, history, _ in builder._seq_pairs:
            assert _MIN_HISTORY <= len(history) <= config.max_history

    def test_mut_covers_every_item_both_directions(self, builder,
                                                   tiny_dataset):
        examples = [e for e in builder.epoch_examples(0) if e.task == "mut"]
        assert len(examples) == 2 * tiny_dataset.num_items

    def test_template_sampling_varies_across_epochs(self, builder):
        first = [e.instruction for e in builder.epoch_examples(0)
                 if e.task == "seq"]
        second = [e.instruction for e in builder.epoch_examples(1)
                  if e.task == "seq"]
        assert first != second

    def test_epoch_examples_deterministic_per_epoch(self, builder):
        a = builder.epoch_examples(3)
        b = builder.epoch_examples(3)
        assert [(x.instruction, x.response) for x in a] == \
               [(x.instruction, x.response) for x in b]

    def test_per_examples_describe_users(self, builder, tiny_dataset):
        examples = [e for e in builder.epoch_examples(0) if e.task == "per"]
        assert len(examples) == tiny_dataset.num_users

    def test_asy_title_variant_uses_titles(self, builder, tiny_dataset):
        examples = [e for e in builder.epoch_examples(0) if e.task == "asy"]
        title_variant = [e for e in examples
                         if INDEX_TOKEN_PATTERN.findall(e.response)]
        # Title-history variant responds with indices; its instruction
        # contains item titles rather than index tokens.
        for example in title_variant:
            assert not INDEX_TOKEN_PATTERN.findall(example.instruction)
