"""Tests for instruction encoding, collation, pretraining and tuning."""

import numpy as np
import pytest

from repro.llm import (
    IGNORE_INDEX,
    InstructionExample,
    InstructionTuner,
    LMConfig,
    PretrainConfig,
    TinyLlama,
    TuningConfig,
    build_corpus_stream,
    collate_batch,
    encode_example,
    encode_texts,
    pretrain_lm,
)
from repro.llm.instruction import prompt_ids
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.text import WordTokenizer


@pytest.fixture()
def tokenizer():
    corpus = ["the quick brown fox jumps over the lazy dog",
              "answer : recommendation item title description user history"]
    return WordTokenizer(WordTokenizer.build_vocab(corpus))


def small_model(tokenizer):
    return TinyLlama(LMConfig(vocab_size=len(tokenizer.vocab), dim=16,
                              num_layers=1, num_heads=2, ffn_hidden=24,
                              max_seq_len=64, seed=3))


def response_loss(model, tokenizer, examples):
    """Mean response-token cross-entropy of ``model`` on ``examples``."""
    encoded = [encode_example(tokenizer, ex, 32) for ex in examples]
    input_ids, labels = collate_batch(encoded, pad_id=tokenizer.vocab.pad_id)
    with no_grad():
        logits = model(input_ids[:, :-1])
        return F.cross_entropy(logits, labels[:, 1:], ignore_index=IGNORE_INDEX).item()


class TestEncodeExample:
    def test_labels_ignore_prompt(self, tokenizer):
        example = InstructionExample("the quick fox", "lazy dog", task="t")
        encoded = encode_example(tokenizer, example)
        boundary = np.argmax(encoded.labels != IGNORE_INDEX)
        assert (encoded.labels[:boundary] == IGNORE_INDEX).all()
        assert (encoded.labels[boundary:] != IGNORE_INDEX).all()

    def test_response_ends_with_eos(self, tokenizer):
        example = InstructionExample("the quick", "dog", task="t")
        encoded = encode_example(tokenizer, example)
        assert encoded.input_ids[-1] == tokenizer.vocab.eos_id
        assert encoded.labels[-1] == tokenizer.vocab.eos_id

    def test_starts_with_bos(self, tokenizer):
        example = InstructionExample("quick", "dog", task="t")
        encoded = encode_example(tokenizer, example)
        assert encoded.input_ids[0] == tokenizer.vocab.bos_id

    def test_prompt_truncation(self, tokenizer):
        example = InstructionExample("the quick brown fox " * 50, "dog", "t")
        encoded = encode_example(tokenizer, example, max_len=32)
        assert len(encoded) <= 32

    def test_too_long_response_rejected(self, tokenizer):
        example = InstructionExample("x", "dog " * 100, task="t")
        with pytest.raises(ValueError):
            encode_example(tokenizer, example, max_len=16)

    def test_prompt_ids_match_encode_prefix(self, tokenizer):
        example = InstructionExample("the quick fox", "dog", task="t")
        encoded = encode_example(tokenizer, example)
        prompt = prompt_ids(tokenizer, example.instruction)
        np.testing.assert_array_equal(encoded.input_ids[:len(prompt)], prompt)


class TestCollate:
    def test_padding_and_labels(self, tokenizer):
        examples = [
            encode_example(tokenizer, InstructionExample("quick", "dog", "t")),
            encode_example(tokenizer, InstructionExample(
                "the quick brown fox", "lazy dog", "t")),
        ]
        input_ids, labels = collate_batch(examples, tokenizer.vocab.pad_id)
        assert input_ids.shape == labels.shape
        short_len = len(examples[0])
        assert (input_ids[0, short_len:] == tokenizer.vocab.pad_id).all()
        assert (labels[0, short_len:] == IGNORE_INDEX).all()

    def test_empty_batch_rejected(self, tokenizer):
        with pytest.raises(ValueError):
            collate_batch([], 0)


class TestPretrain:
    def test_corpus_stream_separated_by_eos(self, tokenizer):
        stream = build_corpus_stream(tokenizer, ["the quick", "brown fox"])
        assert (stream == tokenizer.vocab.eos_id).sum() == 2

    def test_empty_corpus_rejected(self, tokenizer):
        with pytest.raises(ValueError):
            build_corpus_stream(tokenizer, [])

    def test_loss_decreases(self, tokenizer):
        model = small_model(tokenizer)
        losses = pretrain_lm(model, tokenizer,
                             ["the quick brown fox jumps over the lazy dog"],
                             PretrainConfig(steps=80, batch_size=4,
                                            seq_len=12, lr=5e-3))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


class TestEncodeTexts:
    def test_shapes_and_determinism(self, tokenizer):
        model = small_model(tokenizer)
        texts = ["the quick fox", "lazy dog", "brown fox jumps"]
        first = encode_texts(model, tokenizer, texts)
        second = encode_texts(model, tokenizer, texts)
        assert first.shape == (3, 16)
        np.testing.assert_allclose(first, second)

    def test_batching_invariance(self, tokenizer):
        model = small_model(tokenizer)
        texts = [f"the quick fox {i}" for i in range(33)]  # two batches of 32 and 1
        together = encode_texts(model, tokenizer, texts)
        alone = np.concatenate([encode_texts(model, tokenizer, [t]) for t in texts])
        np.testing.assert_allclose(together, alone, atol=1e-4)

    def test_empty_rejected(self, tokenizer):
        with pytest.raises(ValueError):
            encode_texts(small_model(tokenizer), tokenizer, [])


class TestInstructionTuner:
    def test_tuning_reduces_heldout_loss(self, tokenizer):
        model = small_model(tokenizer)
        examples = [
            InstructionExample("the quick brown", "fox", "t"),
            InstructionExample("the lazy", "dog", "t"),
            InstructionExample("quick brown", "fox", "t"),
            InstructionExample("over the lazy", "dog", "t"),
        ]
        tuner = InstructionTuner(model, tokenizer,
                                 TuningConfig(epochs=8, batch_size=2,
                                              lr=5e-3, max_len=32))
        before = response_loss(model, tokenizer, examples)
        tuner.tune(lambda epoch: examples)
        after = response_loss(model, tokenizer, examples)
        assert after < before

    def test_sampler_called_per_epoch(self, tokenizer):
        model = small_model(tokenizer)
        calls = []

        def sampler(epoch):
            calls.append(epoch)
            return [InstructionExample("quick", "dog", "t")]

        tuner = InstructionTuner(model, tokenizer,
                                 TuningConfig(epochs=3, batch_size=2,
                                              max_len=32))
        tuner.tune(sampler)
        assert calls == [0, 1, 2]

    def test_empty_sampler_rejected(self, tokenizer):
        model = small_model(tokenizer)
        tuner = InstructionTuner(model, tokenizer, TuningConfig(max_len=32))
        with pytest.raises(ValueError):
            tuner.tune(lambda epoch: [])

    def test_model_left_in_eval_mode(self, tokenizer):
        model = small_model(tokenizer)
        tuner = InstructionTuner(model, tokenizer,
                                 TuningConfig(epochs=1, batch_size=2,
                                              max_len=32))
        tuner.tune(lambda epoch: [InstructionExample("quick", "dog", "t")])
        assert not model.training
