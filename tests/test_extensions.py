"""Tests for the extension features: chat sessions, bundle/explanation
tasks and tuning without a validation set."""

import numpy as np
import pytest

from repro.core import ChatSession
from repro.core.indexer import build_random_index_set
from repro.core.tasks import AlignmentTaskBuilder, AlignmentTaskConfig
from repro.data import IntentionGenerator
from repro.text import INDEX_TOKEN_PATTERN


class TestChatSession:
    def test_recommend_excludes_rejected_and_history(self, tiny_lcrec,
                                                     tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        session = ChatSession(tiny_lcrec, history=list(history))
        first = session.recommend(top_k=5)
        assert len(first) <= 5
        assert not set(first) & set(history)
        session.reject(first[0])
        second = session.recommend(top_k=5)
        assert first[0] not in second

    def test_accept_extends_history(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[1])
        session = ChatSession(tiny_lcrec, history=list(history))
        items = session.recommend(top_k=3)
        session.accept(items[0])
        assert session.history[-1] == items[0]
        assert session.turns[-1].accepted == items[0]
        # Accepted items are never recommended again.
        assert items[0] not in session.recommend(top_k=3)

    def test_intention_turn(self, tiny_lcrec):
        session = ChatSession(tiny_lcrec, history=[0])
        items = session.ask("looking for something great", top_k=4)
        assert len(items) <= 4
        assert session.turns[-1].query is not None

    def test_describe(self, tiny_lcrec, tiny_dataset):
        session = ChatSession(tiny_lcrec, history=[0])
        text = session.describe(1)
        assert tiny_dataset.catalog[1].title in text

    def test_empty_history_rejected(self, tiny_lcrec):
        session = ChatSession(tiny_lcrec)
        with pytest.raises(ValueError):
            session.recommend()

    def test_unknown_item_rejected(self, tiny_lcrec):
        session = ChatSession(tiny_lcrec, history=[0])
        with pytest.raises(ValueError):
            session.reject(10_000)


class TestExtensionTasks:
    @pytest.fixture()
    def builder(self, tiny_dataset, rng):
        index_set = build_random_index_set(tiny_dataset.num_items, 4, 8, rng)
        return AlignmentTaskBuilder(
            dataset=tiny_dataset,
            index_set=index_set,
            intention_generator=IntentionGenerator(
                tiny_dataset.catalog, np.random.default_rng(0)),
            config=AlignmentTaskConfig(
                tasks=("seq", "bun", "exp"), seq_per_user=1),
        )

    def test_bundle_responses_have_two_items(self, builder):
        examples = [e for e in builder.epoch_examples(0) if e.task == "bun"]
        assert examples
        for example in examples[:10]:
            tokens = INDEX_TOKEN_PATTERN.findall(example.response)
            assert len(tokens) == 8  # two items x four levels

    def test_bundle_items_consecutive_in_training_data(self, builder,
                                                       tiny_dataset):
        examples = [e for e in builder.epoch_examples(0) if e.task == "bun"]
        index_texts = {builder._index_text(i): i
                       for i in range(tiny_dataset.num_items)}
        for example in examples[:10]:
            first, second = [index_texts[t.strip()]
                             for t in example.response.split(",")]
            found = any(
                first in seq and second in seq
                and seq.index(second) == seq.index(first) + 1
                for seq in tiny_dataset.split.train_sequences
                if first in seq and second in seq
                and seq.index(first) + 1 < len(seq)
            )
            assert found or first != second

    def test_explanations_mention_title_and_category(self, builder,
                                                     tiny_dataset):
        examples = [e for e in builder.epoch_examples(0) if e.task == "exp"]
        assert examples
        lexicon = tiny_dataset.catalog.lexicon
        for example in examples[:10]:
            assert any(name in example.response
                       for name in lexicon.category_names)

    def test_extension_tasks_validate(self):
        AlignmentTaskConfig(tasks=("seq", "bun", "exp")).validate()
        with pytest.raises(ValueError):
            AlignmentTaskConfig(tasks=("seq", "nope")).validate()


class TestEarlyStopping:
    def test_no_early_stop_without_patience(self):
        from repro.llm import (InstructionExample, InstructionTuner,
                               LMConfig, TinyLlama, TuningConfig)
        from repro.text import WordTokenizer

        tokenizer = WordTokenizer(WordTokenizer.build_vocab(
            ["alpha beta answer :"]))
        model = TinyLlama(LMConfig(vocab_size=len(tokenizer.vocab), dim=16,
                                   num_layers=1, num_heads=2, ffn_hidden=24))
        train = [InstructionExample("alpha", "beta", "t")]
        tuner = InstructionTuner(model, tokenizer, TuningConfig(
            epochs=3, batch_size=2, max_len=32))
        losses = tuner.tune(lambda epoch: train)
        assert len(losses) == 3
