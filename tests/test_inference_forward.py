"""The ndarray inference kernel against the autograd graph it replaced.

``TinyLlama.hidden_states`` runs :mod:`repro.llm.inference` whenever KV
caches are given and grad is off; with ``caches=None`` and grad on it
walks the autograd modules.  Both must compute the same function of the
same weights, so every cached decode shape the serving stack produces —
left-padded prefill, prefix-seeded prefill, fanned beam steps, forced-token
flushes — is checked here against an *uncached, unpadded, per-sequence*
autograd forward.  Also pinned: ``last_only`` is
exact (same last position, bit-identical K/V), the fused gate|up memo
never serves stale weights, and the step workspace neither grows at a
fixed row count nor outlives its rows.  ``TIGER.encode`` /
``TIGER.decode_hidden`` take the same kernel (encoder-decoder stack) under
the same rule and are held to the same tolerances against their autograd
layers, with the extra contract that cross-attention K/V are projected
once per request and never copied afterwards.
"""

import numpy as np
import pytest

from repro.baselines import TIGER, TIGERConfig
from repro.baselines.generative import BOS_ID, PAD_ID
from repro.core.indexer import build_random_index_set
from repro.data.batching import pad_sequences
from repro.llm import (
    LMConfig,
    TinyLlama,
    decode_finish,
    decode_prefill,
    decode_step,
    left_pad_prompts,
)
from repro.llm.inference import _additive_bias, _attend
from repro.quantization import IndexTrie
from repro.tensor import Adam, BeamKVCache, KVCache, StepWorkspace, Tensor, no_grad
from repro.tensor import functional as F

from helpers import decode_prompts

RTOL, ATOL = 1e-5, 2e-6


def make_model(seed=5, **overrides):
    config = dict(vocab_size=50, dim=32, num_layers=3, num_heads=4, ffn_hidden=40,
                  max_seq_len=64, seed=seed)
    config.update(overrides)
    model = TinyLlama(LMConfig(**config))
    model.eval()
    return model


def reference(model, sequence):
    """Autograd-path hidden states of one unpadded sequence: ``(len, dim)``."""
    hidden = model.hidden_states(np.asarray([sequence], dtype=np.int64))
    assert isinstance(hidden, Tensor) and hidden.requires_grad  # the Tensor graph, grad on
    return hidden.data[0]


def kernel(model, tokens, caches, **kwargs):
    with no_grad():
        return model.hidden_states(np.asarray(tokens, dtype=np.int64), caches=caches, **kwargs).data


def pad_map(tokens, pads):
    """The pad-column map of a left-padded batch (``left_pad_prompts``' counts)."""
    return np.arange(tokens.shape[1]) < pads[:, None]


def assert_close(got, expected):
    np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL)


def layer_kv(caches):
    regions = []
    for cache in caches:
        for region in (cache.prompt, cache.suffix) if isinstance(cache, BeamKVCache) else (cache,):
            if region.keys is not None:
                regions.append((region.keys.copy(), region.values.copy()))
    return regions


PROMPTS = [[3, 9, 4, 7, 1], [8, 2, 6], [5, 5, 11, 2, 9, 13]]


class TestAgainstAutograd:
    @pytest.mark.parametrize("workspace", [None, "shared"])
    def test_left_padded_prefill(self, workspace):
        model = make_model()
        tokens, pads = left_pad_prompts(PROMPTS)
        got = kernel(model, tokens, model.new_beam_caches(), pad_columns=pad_map(tokens, pads),
                     workspace=StepWorkspace() if workspace else None)
        for row, prompt in enumerate(PROMPTS):
            assert_close(got[row, pads[row]:], reference(model, prompt))

    def test_plain_caches_incremental(self):
        # beam_search_items_single / greedy_generate shape: plain KVCache,
        # prompt first, then one token at a time.
        model = make_model()
        sequence = PROMPTS[2]
        caches = model.new_caches()
        parts = [kernel(model, [sequence[:3]], caches)]
        parts += [kernel(model, [[token]], caches) for token in sequence[3:]]
        assert_close(np.concatenate(parts, axis=1)[0], reference(model, sequence))

    def test_prefix_seeded_prefill_with_mid_sequence_pads(self):
        # Rows resume from cached prefixes of different lengths: pads sit
        # between the right-aligned prefix region and the left-padded
        # suffix, which only pad_columns can express.
        model = make_model()
        cached_lens = [3, 0, 4]
        width = max(cached_lens)
        prefix_kv = {}
        for row, (prompt, cached) in enumerate(zip(PROMPTS, cached_lens)):
            if cached:
                prefix_kv[row] = model.new_caches()
                kernel(model, [prompt[:cached]], prefix_kv[row])
        caches = model.new_beam_caches()
        for layer, cache in enumerate(caches):
            heads, head_dim = model.config.num_heads, model.config.dim // model.config.num_heads
            keys = np.zeros((len(PROMPTS), heads, width, head_dim), dtype=np.float32)
            values = np.zeros_like(keys)
            for row, kv in prefix_kv.items():
                keys[row, :, width - cached_lens[row]:] = kv[layer].keys[0]
                values[row, :, width - cached_lens[row]:] = kv[layer].values[0]
            cache.seed_prompt(keys, values, length=width)
        remainders = [prompt[cached:] for prompt, cached in zip(PROMPTS, cached_lens)]
        tokens, remainder_pads = left_pad_prompts(remainders)
        prefix_pad = np.arange(width)[None, :] < (width - np.asarray(cached_lens))[:, None]
        suffix_pad = np.arange(tokens.shape[1])[None, :] < remainder_pads[:, None]
        pad_columns = np.concatenate([prefix_pad, suffix_pad], axis=1)
        assert pad_columns[0, width - cached_lens[0]:].any()  # a pad *after* real columns
        got = kernel(model, tokens, caches, pad_columns=pad_columns)
        for row, prompt in enumerate(PROMPTS):
            assert_close(got[row, remainder_pads[row]:],
                         reference(model, prompt)[cached_lens[row]:])

    @pytest.mark.parametrize("workspace", [None, "shared"])
    def test_fanned_beam_steps_after_reorder(self, workspace):
        # Two requests x three beams: a T=1 step, a within-request beam
        # shuffle, then a T=2 forced-token flush.  Every flat row is checked
        # against the full sequence its lineage spells.
        model = make_model()
        workspace = StepWorkspace() if workspace else None
        prompts, beams = PROMPTS[:2], 3
        tokens, pads = left_pad_prompts(prompts)
        caches = model.new_beam_caches()
        prompt_pads = pad_map(tokens, pads)
        kernel(model, tokens, caches, pad_columns=prompt_pads, workspace=workspace,
               last_only=True)
        for cache in caches:
            cache.fan_out(beams, 3)
        flat_pads = np.repeat(prompt_pads, beams, axis=0)
        lineage = [list(prompts[row // beams]) for row in range(len(prompts) * beams)]

        step1 = np.array([[20], [21], [22], [23], [24], [25]])
        got = kernel(model, step1, caches, pad_columns=flat_pads, workspace=workspace)
        for row in range(len(lineage)):
            lineage[row] = lineage[row] + [int(step1[row, 0])]
            assert_close(got[row, 0], reference(model, lineage[row])[-1])

        origin = np.array([1, 0, 0, 5, 5, 3])
        for cache in caches:
            cache.reorder(origin)
        lineage = [lineage[src] for src in origin]

        step2 = np.array([[30, 31], [32, 33], [34, 35], [36, 37], [38, 39], [40, 41]])
        got = kernel(model, step2, caches, pad_columns=flat_pads, workspace=workspace)
        for row in range(len(lineage)):
            lineage[row] = lineage[row] + [int(t) for t in step2[row]]
            assert_close(got[row], reference(model, lineage[row])[-2:])

    def test_workspace_changes_nothing(self):
        model = make_model()
        tokens, pads = left_pad_prompts(PROMPTS)
        plain = kernel(model, tokens, model.new_beam_caches(), pad_columns=pad_map(tokens, pads))
        pooled = kernel(model, tokens, model.new_beam_caches(), pad_columns=pad_map(tokens, pads),
                        workspace=StepWorkspace())
        np.testing.assert_array_equal(plain, pooled)

    def test_grad_on_stays_on_the_tensor_graph(self):
        # Without caches or pads the Tensor modules run: the training graph.
        model = make_model(num_layers=1)
        model.hidden_states(np.array([PROMPTS[0]])).sum().backward()
        assert all(param.grad is not None for name, param in model.named_parameters()
                   if not name.startswith("lm_head"))

    def test_caches_or_pads_under_grad_raise(self):
        # The kernel is the only cached or padded forward, and it has no graph.
        model = make_model(num_layers=1)
        tokens = np.array([PROMPTS[0]])
        pads = np.zeros(tokens.shape, dtype=bool)
        for kwargs in ({"caches": model.new_caches()}, {"caches": model.new_beam_caches()},
                       {"pad_columns": pads}):
            for call in (model.hidden_states, model.forward):
                with pytest.raises(RuntimeError, match="inference-only"):
                    call(tokens, **kwargs)
        with no_grad():  # the same call with grad off runs the kernel
            padded = model.hidden_states(tokens, pad_columns=pads).data[0]
        assert_close(padded, reference(model, PROMPTS[0]))


class TestAttend:
    """``_attend`` against a softmax taken separately per request, head and beam."""

    @pytest.mark.parametrize("seed", range(8))
    def test_shared_and_suffix_columns_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        batch, heads, head_dim = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 8
        beams, q_len = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        shared_len, own_len = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        rows, key_len = batch * beams, shared_len + own_len

        def normal(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        queries = normal(rows, q_len, heads, head_dim)
        keys, values = (normal(batch, heads, shared_len, head_dim) for _ in range(2))
        suffix = KVCache(max_length=3)  # spare capacity: the scores scratch outgrows the keys
        suffix.append(*(normal(rows, heads, own_len, head_dim) for _ in range(2)))
        mask = rng.random((rows, 1, q_len, key_len)) < (0.3 if seed % 2 else 0.0)
        bias = _additive_bias(mask, rows, q_len, beams)
        assert (bias is None) == (seed % 2 == 0)

        got = _attend(queries, keys, values, suffix, bias, StepWorkspace().take)
        assert got.shape == (rows, q_len, heads * head_dim)
        for row in range(rows):
            request = row // beams
            for head in range(heads):
                k = np.concatenate([keys[request, head], suffix.keys[row, head]]).astype(float)
                v = np.concatenate([values[request, head], suffix.values[row, head]]).astype(float)
                scores = queries[row, :, head].astype(float) @ k.T
                scores[mask[row, 0]] = -1e9
                probs = np.exp(scores - scores.max(axis=1, keepdims=True))
                probs /= probs.sum(axis=1, keepdims=True)
                np.testing.assert_allclose(got[row, :, head * head_dim:(head + 1) * head_dim],
                                           probs @ v, rtol=1e-6, atol=1e-6)


def make_tiger(seed=4, **overrides):
    """Untrained but not degenerate: norms and biases are perturbed off 1 / 0."""
    index_set = build_random_index_set(40, 4, 6, np.random.default_rng(seed))
    config = dict(dim=32, num_heads=4, max_history=4, seed=seed)
    config.update(overrides)
    model = TIGER(index_set, TIGERConfig(**config))
    rng = np.random.default_rng(seed + 1)
    for name, param in model.named_parameters():
        if param.data.ndim == 1:
            param.data += (rng.standard_normal(param.shape) * 0.1).astype(np.float32)
    model.eval()
    return model


SOURCES = [[5, 9, 14, 20, 6, 11, 13, 22], [7, 10, 16, 25],
           [4, 12, 17, 23, 8, 9, 15, 21, 3, 10, 18, 26]]


def pad_sources(sources):
    return pad_sequences(sources, pad_value=PAD_ID, align="right")


class TestEncoderDecoder:
    """TIGER on the kernel: same weights, same function as its autograd layers."""

    def prefill(self, model, sources=SOURCES, **kwargs):
        """Kernel encode + BOS step; returns (memory, mask, caches, BOS hidden)."""
        with no_grad():
            memory, mask = model.encode(pad_sources(sources))
            caches = model.new_beam_caches()
            bos = np.full((len(sources), 1), BOS_ID, dtype=np.int64)
            hidden = model.decode_hidden(memory, mask, bos, caches=caches, **kwargs).data
        return memory, mask, caches, hidden

    def reference(self, model, memory, mask, row, tokens):
        """Uncached autograd decoder over ``BOS + tokens`` of one source row."""
        hidden = model.decode_hidden(Tensor(memory.data[row:row + 1]), mask[row:row + 1],
                                     np.array([[BOS_ID] + list(tokens)], dtype=np.int64))
        assert hidden.requires_grad  # the Tensor graph, grad on
        return hidden.data[0]

    @staticmethod
    def fan_out(caches, beams):
        for cache in caches:
            cache.fan_out(beams, suffix_length=3)

    def step(self, model, caches, tokens, **kwargs):
        with no_grad():
            return model.hidden_states(np.asarray(tokens, dtype=np.int64), caches=caches,
                                       **kwargs).data

    def test_encode_matches_autograd_on_real_positions(self):
        model = make_tiger()
        source = pad_sources(SOURCES)
        expected, expected_mask = model.encode(source)
        assert expected.requires_grad
        with no_grad():
            got, mask = model.encode(source)
        assert not got.requires_grad
        np.testing.assert_array_equal(mask, expected_mask)
        real = source != PAD_ID
        assert not real.all()  # ragged: the pad bias is exercised
        assert_close(got.data[real], expected.data[real])

    def test_encode_builds_no_cache(self, monkeypatch):
        # The encoder attends over its own QKV buffer: nothing outlives a layer.
        def forbidden(self, *args, **kwargs):
            raise AssertionError("TIGER.encode built a KVCache")

        model = make_tiger()
        monkeypatch.setattr(KVCache, "__init__", forbidden)
        with no_grad():
            memory, _ = model.encode(pad_sources(SOURCES))
        assert memory.shape == (len(SOURCES), max(map(len, SOURCES)), model.config.dim)

    def test_cross_kv_are_two_views_of_one_projection(self):
        model = make_tiger()
        *_, caches, _ = self.prefill(model)
        for cache in caches:
            keys, values = cache.memory_keys, cache.memory_values
            projection = keys.base  # the one k|v GEMM output: no copy behind either view
            assert values.base is projection and projection.size == keys.size + values.size
            assert np.shares_memory(keys, projection) and np.shares_memory(values, projection)

    @pytest.mark.parametrize("sources", [SOURCES, SOURCES[:1]], ids=["ragged", "single"])
    def test_bos_step_over_a_padded_source_batch(self, sources):
        model = make_tiger()
        memory, mask, caches, hidden = self.prefill(model, sources)
        assert all((cache.memory_bias is None) == (len(sources) == 1) for cache in caches)
        for row in range(len(sources)):
            assert_close(hidden[row], self.reference(model, memory, mask, row, []))

    @pytest.mark.parametrize("workspace", [None, "shared"])
    def test_fanned_steps_reorder_and_forced_flush(self, workspace):
        # Three requests x two beams: a T=1 step, a within-request shuffle,
        # then a T=2 forced-token flush; every flat row against the whole
        # sequence its lineage spells.  The cross K/V never move.
        model = make_tiger()
        workspace = StepWorkspace() if workspace else None
        memory, mask, caches, _ = self.prefill(model, workspace=workspace)
        beams = 2
        self.fan_out(caches, beams)
        cross_kv = [(cache.memory_keys, cache.memory_values) for cache in caches]
        lineage = [[] for _ in range(len(SOURCES) * beams)]

        def check_cross_untouched():
            assert all(cache.beams == beams for cache in caches)
            for cache, (keys, values) in zip(caches, cross_kv):
                assert cache.memory_keys is keys and cache.memory_values is values
                assert keys.shape[0] == values.shape[0] == len(SOURCES)  # per request

        step1 = np.array([[5], [6], [7], [8], [5], [7]])
        got = self.step(model, caches, step1, workspace=workspace, last_only=True)
        for row in range(len(lineage)):
            lineage[row] = lineage[row] + [int(step1[row, 0])]
            assert_close(got[row, 0], self.reference(model, memory, mask, row // beams,
                                                     lineage[row])[-1])
        check_cross_untouched()

        origin = np.array([1, 1, 2, 3, 5, 4])
        for cache in caches:
            cache.reorder(origin)
        lineage = [lineage[src] for src in origin]
        check_cross_untouched()

        step2 = np.array([[9, 15], [10, 16], [11, 17], [12, 18], [13, 19], [14, 20]])
        got = self.step(model, caches, step2, workspace=workspace)
        for row in range(len(lineage)):
            lineage[row] = lineage[row] + [int(t) for t in step2[row]]
            assert_close(got[row], self.reference(model, memory, mask, row // beams,
                                                  lineage[row])[-2:])
        check_cross_untouched()

    def test_workspace_changes_nothing(self):
        model = make_tiger()
        outputs = []
        for workspace in (None, StepWorkspace()):
            *_, caches, hidden = self.prefill(model, workspace=workspace)
            self.fan_out(caches, 2)
            step = self.step(model, caches, [[5], [6], [7], [8], [5], [7]], workspace=workspace)
            outputs.append((hidden, step))
        np.testing.assert_array_equal(outputs[0][0], outputs[1][0])
        np.testing.assert_array_equal(outputs[0][1], outputs[1][1])

    def test_retiring_rows_releases_both_sides(self):
        # A finished cohort's harvest reads no K/V: it releases both sides,
        # the self-attention K/V and the encoder memory's, whole.
        model = make_tiger()
        state = decode_prefill(model, SOURCES, model.trie, beam_size=2)
        while not state.done:
            decode_step(state)
        held = [(cache.prompt.keys, cache.memory_keys) for cache in state.caches]
        assert all(keys.shape[0] == len(SOURCES) for pair in held for keys in pair)
        assert len(decode_finish(state)) == len(SOURCES)
        assert state.caches == []

    def test_empty_suffix_beam_ops_are_no_ops(self):
        # A fanned cache whose suffix never grew: a reorder moves nothing.
        cache = BeamKVCache()
        block = np.ones((2, 4, 5, 8), dtype=np.float32)
        cache.seed_prompt(block, block.copy(), length=5)
        cache.fan_out(3)
        keys = cache.prompt.keys
        cache.reorder(np.array([2, 0, 0, 4, 3, 3]))
        assert cache.prompt.keys is keys and cache.suffix.length == 0

    def test_grad_on_or_no_caches_stays_on_the_tensor_graph(self, monkeypatch):
        model = make_tiger()
        memory, mask, caches, _ = self.prefill(model)
        with pytest.raises(RuntimeError, match="inference-only"):
            model.decode_hidden(memory, mask, np.array([[BOS_ID]] * 3), caches=caches)
        with no_grad():  # the oracle's decoder: no caches, so no kernel
            uncached = model.decode_hidden(memory, mask, np.array([[BOS_ID, 5]] * 3))
        assert_close(uncached.data[0], self.reference(model, memory, mask, 0, [5]))

        # Training never reaches the kernel.
        def forbidden(*args, **kwargs):
            raise AssertionError("the inference kernel ran with grad on")

        monkeypatch.setattr("repro.baselines.tiger.layer_stack_hidden_states", forbidden)
        model.train()
        logits = model(pad_sources(SOURCES), np.array([[BOS_ID, 5, 9]] * 3))
        logits.sum().backward()
        assert all(param.grad is not None for param in model.parameters())


class TestLastOnly:
    def run_prefill(self, model, last_only):
        tokens, pads = left_pad_prompts(PROMPTS)
        caches = model.new_beam_caches()
        return (kernel(model, tokens, caches, pad_columns=pad_map(tokens, pads),
                       last_only=last_only), caches)

    def test_prefill_last_position_and_kv_are_exact(self):
        model = make_model()
        full, full_caches = self.run_prefill(model, last_only=False)
        last, last_caches = self.run_prefill(model, last_only=True)
        assert last.shape == (len(PROMPTS), 1, model.config.dim)
        assert_close(last, full[:, -1:])
        # What PrefixKVCache stores: every layer, every position, to the bit.
        for (k_full, v_full), (k_last, v_last) in zip(layer_kv(full_caches), layer_kv(last_caches)):
            np.testing.assert_array_equal(k_full, k_last)
            np.testing.assert_array_equal(v_full, v_last)

    def test_fanned_flush_last_position_and_kv_are_exact(self):
        model = make_model()
        outputs, kvs = [], []
        for last_only in (False, True):
            _, caches = self.run_prefill(model, last_only=True)
            for cache in caches:
                cache.fan_out(2, 3)
            flush = np.arange(20, 20 + 6 * 2).reshape(6, 2)
            tokens, pads = left_pad_prompts(PROMPTS)
            flat_pads = np.repeat(pad_map(tokens, pads), 2, axis=0)
            outputs.append(kernel(model, flush, caches, pad_columns=flat_pads,
                                  last_only=last_only))
            kvs.append(layer_kv(caches))
        assert_close(outputs[1], outputs[0][:, -1:])
        for (k_full, v_full), (k_last, v_last) in zip(*kvs):
            np.testing.assert_array_equal(k_full, k_last)
            np.testing.assert_array_equal(v_full, v_last)

    def test_autograd_path_honours_last_only(self):
        model = make_model()
        tokens = np.array([PROMPTS[0]])
        full = model.hidden_states(tokens).data
        np.testing.assert_array_equal(model.hidden_states(tokens, last_only=True).data,
                                      full[:, -1:])

    def test_forward_last_only_logits(self):
        model = make_model()
        tokens = np.array([PROMPTS[0]])
        with no_grad():
            full = model.forward(tokens, caches=model.new_caches()).data
            last = model.forward(tokens, caches=model.new_caches(), last_only=True).data
        assert last.shape == (1, 1, model.vocab_size)
        assert_close(last, full[:, -1:])


def make_trie():
    """Four levels, every prefix with a real choice: no forced fast path."""
    items = {}
    for a in (10, 11):
        for b in (20, 21):
            for c in (30, 31):
                for d in (40, 41):
                    items[len(items)] = (a, b, c, d)
    return IndexTrie(items)


class TestFusedGateUpMemo:
    def test_memoized_and_equal_to_the_concatenation(self):
        ffn = make_model().blocks[0].feed_forward
        fused = ffn.fused_gate_up_weight()
        assert ffn.fused_gate_up_weight() is fused
        np.testing.assert_array_equal(
            fused, np.concatenate([ffn.gate_proj.weight.data, ffn.up_proj.weight.data], axis=1)
        )

    @pytest.mark.parametrize("leave_grads", [True, False])
    def test_sees_weight_updates_across_training(self, leave_grads):
        model, trie = make_model(seed=21), make_trie()
        before = decode_prompts(model, [[1, 2]], trie, beam_size=5)
        stale = model.blocks[0].feed_forward.fused_gate_up_weight()
        optimizer = Adam(model.parameters(), lr=0.05)
        sequence = np.array([[1, 10, 20, 30, 41]])
        model.train()
        for _ in range(30):
            optimizer.zero_grad()
            loss = F.cross_entropy(model(sequence[:, :-1]), sequence[:, 1:])
            loss.backward()
            optimizer.step()
        if not leave_grads:
            # The repo's training loops end like this: only the
            # train()/eval() transition protects the memo then.
            model.zero_grad()
        model.eval()
        assert model.blocks[0].feed_forward.fused_gate_up_weight() is not stale
        after = decode_prompts(model, [[1, 2]], trie, beam_size=5)
        fresh = TinyLlama(model.config)
        fresh.load_state_dict(model.state_dict())
        fresh.eval()
        expected = decode_prompts(fresh, [[1, 2]], trie, beam_size=5)
        assert [h.token_ids for h in after[0]] == [h.token_ids for h in expected[0]]
        np.testing.assert_allclose([h.score for h in after[0]],
                                   [h.score for h in expected[0]], rtol=1e-5, atol=1e-6)
        assert [h.score for h in after[0]] != [h.score for h in before[0]]

    def test_training_loops_leave_the_memos_live(self):
        # pretrain_lm ends with zeroed gradients, so a served model keeps
        # its fused weights instead of re-concatenating them every forward.
        from repro.llm import PretrainConfig, pretrain_lm
        from repro.text import WordTokenizer

        corpus = ["the quick brown fox jumps over the lazy dog"]
        tokenizer = WordTokenizer(WordTokenizer.build_vocab(corpus))
        model = make_model(vocab_size=len(tokenizer.vocab))
        pretrain_lm(model, tokenizer, corpus, PretrainConfig(steps=2, batch_size=2, seq_len=6))
        model.eval()
        attention, ffn = model.blocks[0].attention, model.blocks[0].feed_forward
        assert attention.fused_qkv_weight() is attention.fused_qkv_weight()
        assert ffn.fused_gate_up_weight() is ffn.fused_gate_up_weight()

    def test_tiger_fit_leaves_the_memos_live(self, tiny_dataset):
        # Same for TIGER.fit: the gathered head rows, the decoder's fused
        # QKV and the cross-attention's fused k|v are built on the first
        # forward after training and served from the memo on the second.
        index_set = build_random_index_set(tiny_dataset.num_items, 3, 8,
                                           np.random.default_rng(0))
        model = TIGER(index_set, TIGERConfig(epochs=1, dim=16, seed=2))
        model.fit(tiny_dataset)
        assert all(param.grad is None for param in model.parameters())
        histories = [list(h) for h in tiny_dataset.split.test_histories[:3]]
        model.recommend_many(histories, top_k=3)
        layer = model.decoder_layers[0]
        fused = [layer.self_attn.fused_qkv_weight(), layer.cross_attn.fused_qkv_weight()]
        gathered = dict(model._head_gather_cache._entries)
        assert gathered  # a WeightMemo never stores while a grad is attached
        model.recommend_many(histories, top_k=3)
        assert layer.self_attn.fused_qkv_weight() is fused[0]
        assert layer.cross_attn.fused_qkv_weight() is fused[1]
        assert model._head_gather_cache._entries == gathered


class RecordingWorkspace(StepWorkspace):
    """Remembers the keys taken since ``taken`` was last cleared."""

    def __init__(self):
        super().__init__()
        self.taken = set()

    def take(self, name, shape, dtype=np.float32):
        self.taken.add((name, shape, dtype))
        return super().take(name, shape, dtype)


class TestWorkspaceHygiene:
    def test_steps_at_a_fixed_row_count_allocate_nothing_new(self):
        # Every level offers as many continuations as there are beams, so
        # the live width is the beam size from the prefill on.
        model, trie = make_model(), make_trie()
        state = decode_prefill(model, PROMPTS, trie, beam_size=2)
        assert state.workspace.num_buffers == 0  # prefill scratch left with the B-row shape
        decode_step(state)
        buffers, nbytes = state.workspace.num_buffers, state.workspace.nbytes
        assert buffers > 0
        while not state.done:
            decode_step(state)
            assert (state.workspace.num_buffers, state.workspace.nbytes) == (buffers, nbytes)

    def test_a_width_change_releases_the_old_shapes_scratch(self, monkeypatch):
        # 1 -> 7 -> 2 -> 2 codes: the decode steps at width 1, widens to 7,
        # then to 14.
        trie = IndexTrie({4 * c + 2 * d + e: (10, 20 + c, 30 + d, 40 + e)
                          for c in range(7) for d in range(2) for e in range(2)})
        model = make_model()
        state = decode_prefill(model, PROMPTS[:1], trie, beam_size=20)
        workspace = state.workspace = RecordingWorkspace()
        head, forwarded = model.lm_head_gather, []

        def checking_head(hidden, token_ids, workspace=None):
            if workspace is state.workspace:  # a step's head, not the late prefill's
                # The forward just ran: what the workspace holds is this
                # step's scratch, not that plus an earlier width's.
                assert set(workspace._buffers) <= workspace.taken
                forwarded.append((state.width, workspace.nbytes))
            return head(hidden, token_ids, workspace=workspace)

        monkeypatch.setattr(model, "lm_head_gather", checking_head)
        while not state.done:
            workspace.taken.clear()
            decode_step(state)
        assert [width for width, _ in forwarded] == [1, 7, 14]
        assert forwarded[0][1] < forwarded[1][1] < forwarded[2][1]
        decode_finish(state)
        assert workspace.nbytes == 0  # the retirement released the last width's scratch

    def test_nbytes_returns_to_zero_after_the_last_row_retires(self):
        model, trie = make_model(), make_trie()
        state = decode_prefill(model, PROMPTS, trie, beam_size=4)
        workspace = state.workspace
        while not state.done:
            decode_step(state)
        assert workspace.nbytes > 0
        decode_finish(state)
        assert state.workspace is workspace and workspace.nbytes == 0

    def test_suffix_buffers_are_exactly_as_deep_as_the_trie_needs(self):
        # Beam reordering gathers whole suffix buffers, so they hold the
        # num_levels - 1 columns a decode can append and nothing more.
        model, trie = make_model(), make_trie()
        state = decode_prefill(model, PROMPTS, trie, beam_size=4)
        depth = trie.num_levels - 1
        for step in range(depth):
            decode_step(state)
            for cache in state.caches:
                assert (cache.suffix.length, cache.suffix.capacity) == (step + 1, depth)

    def test_append_after_reorder_is_a_single_column_write(self):
        rng = np.random.default_rng(0)
        cache = BeamKVCache()
        prompt = rng.standard_normal((2, 4, 5, 8)).astype(np.float32)
        cache.append(prompt, prompt)
        cache.fan_out(3, suffix_length=3)
        held = None
        for _ in range(3):
            column = rng.standard_normal((6, 4, 1, 8)).astype(np.float32)
            cache.append(column, column)
            assert cache.suffix.capacity == 3
            if held is not None:
                assert np.shares_memory(cache.suffix.keys, held)  # no realloc
            cache.reorder(np.array([2, 0, 0, 4, 3, 3]))
            np.testing.assert_array_equal(cache.suffix.keys[[0, 3], :, -1:], column[[2, 4]])
            held = cache.suffix.keys
        # Depth exhausted: back to default headroom.
        cache.append(column, column)
        assert cache.suffix.length == 4 and cache.suffix.capacity >= 4 + 16
        assert not np.shares_memory(cache.suffix.keys, held)
