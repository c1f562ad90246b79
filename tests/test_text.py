"""Tests for the tokenizer and vocabulary."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import INDEX_TOKEN_PATTERN, UNK, Vocabulary, WordTokenizer


class TestVocabulary:
    def test_special_tokens_first(self):
        vocab = Vocabulary()
        assert vocab.pad_id == 0
        assert vocab.bos_id == 1
        assert vocab.eos_id == 2
        assert vocab.token_to_id(UNK) == 3

    def test_add_token_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add_token("guitar")
        second = vocab.add_token("guitar")
        assert first == second
        assert len(vocab) == 5

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary()
        assert vocab.token_to_id("never-seen") == vocab.token_to_id(UNK)

    def test_base_freeze_and_extension_region(self):
        vocab = Vocabulary()
        vocab.add_token("word")
        vocab.freeze_base()
        base = vocab.base_size
        index_id = vocab.add_token("<a_1>")
        assert index_id == base
        assert vocab.base_size == base

    def test_from_counter_orders_by_frequency(self):
        from collections import Counter

        vocab = Vocabulary.from_counter(Counter({"rare": 1, "common": 10}))
        assert vocab.token_to_id("common") < vocab.token_to_id("rare")

    def test_roundtrip_id_token(self):
        vocab = Vocabulary()
        token_id = vocab.add_token("hello")
        assert vocab.id_to_token(token_id) == "hello"


class TestWordTokenizer:
    def test_split_words_and_punct(self):
        tokens = WordTokenizer.text_to_tokens("Hello, World! It's fine.")
        assert tokens == ["hello", ",", "world", "!", "it's", "fine", "."]

    def test_index_tokens_atomic(self):
        tokens = WordTokenizer.text_to_tokens("history: <a_12><b_7>, next")
        assert "<a_12>" in tokens
        assert "<b_7>" in tokens
        assert tokens.index("<a_12>") < tokens.index("<b_7>")

    def test_numbers_kept(self):
        assert "774" in WordTokenizer.text_to_tokens("model 774 deluxe")

    def test_encode_decode_roundtrip(self):
        vocab = WordTokenizer.build_vocab(["alpha beta gamma"])
        tokenizer = WordTokenizer(vocab)
        ids = tokenizer.encode("alpha gamma beta")
        assert tokenizer.decode(ids) == "alpha gamma beta"

    def test_unknown_word_becomes_unk(self):
        vocab = WordTokenizer.build_vocab(["known"])
        tokenizer = WordTokenizer(vocab)
        assert tokenizer.encode("unknownword") == [vocab.token_to_id(UNK)]

    def test_register_index_tokens(self):
        vocab = WordTokenizer.build_vocab(["text"])
        tokenizer = WordTokenizer(vocab)
        ids = tokenizer.register_index_tokens(["<a_0>", "<a_1>"])
        assert min(ids) >= vocab.base_size
        assert tokenizer.encode("<a_0>") == [ids[0]]

    def test_register_rejects_non_index_tokens(self):
        vocab = WordTokenizer.build_vocab(["text"])
        tokenizer = WordTokenizer(vocab)
        with pytest.raises(ValueError):
            tokenizer.register_index_tokens(["not-an-index"])

    def test_decode_skips_specials(self):
        vocab = WordTokenizer.build_vocab(["word"])
        tokenizer = WordTokenizer(vocab)
        ids = [vocab.bos_id, vocab.token_to_id("word"), vocab.eos_id]
        assert tokenizer.decode(ids) == "word"

    @given(st.lists(
        st.from_regex(r"<[a-z]_\d{1,3}>", fullmatch=True), min_size=1,
        max_size=8,
    ))
    @settings(max_examples=25, deadline=None)
    def test_index_tokens_survive_tokenization(self, index_tokens):
        text = " some words " + "".join(index_tokens) + " more"
        tokens = WordTokenizer.text_to_tokens(text)
        recovered = [t for t in tokens if INDEX_TOKEN_PATTERN.fullmatch(t)]
        assert recovered == index_tokens

    @given(st.text(alphabet="abcdefgh <>_0123456789,.", max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_tokenization_never_crashes(self, text):
        tokens = WordTokenizer.text_to_tokens(text)
        assert isinstance(tokens, list)
