"""Extension ablation: KV-cache speedup of autoregressive decoding.

Paper Sec. III-D2 analyses inference cost: naive autoregressive decoding
is O(H * N^2 * d * L); caching attention keys/values reduces it to
O(N^2 d L + H N d L).  This benchmark measures the wall-clock effect on
our TinyLlama by greedy-decoding with the cache versus recomputing the
full prefix each step.
"""

import time

import numpy as np

from repro.bench import report
from repro.llm import greedy_generate
from repro.tensor import no_grad


def _generate_without_cache(model, prompt_ids, max_new_tokens):
    """Reference decoder that re-encodes the whole prefix every step."""
    tokens = list(prompt_ids)
    generated = []
    with no_grad():
        for _ in range(max_new_tokens):
            logits = model.forward(
                np.asarray(tokens, dtype=np.int64)[None, :]).data[0, -1]
            next_id = int(logits.argmax())
            generated.append(next_id)
            tokens.append(next_id)
    return generated


def run_comparison(games_lcrec):
    model = games_lcrec.lm
    tokenizer = games_lcrec.tokenizer
    history = games_lcrec.dataset.split.test_histories[0]
    instruction = games_lcrec.seq_instruction(history)
    from repro.llm.instruction import prompt_ids as encode_prompt

    prompt = encode_prompt(tokenizer, instruction)
    new_tokens = 24

    start = time.perf_counter()
    cached = greedy_generate(model, prompt, new_tokens,
                             eos_id=tokenizer.vocab.eos_id)
    cached_seconds = time.perf_counter() - start

    start = time.perf_counter()
    uncached = _generate_without_cache(model, prompt, new_tokens)
    uncached_seconds = time.perf_counter() - start

    speedup = uncached_seconds / max(cached_seconds, 1e-9)
    rows = [
        f"prompt length: {len(prompt)} tokens, generating {new_tokens}",
        f"with KV cache   : {cached_seconds * 1000:8.1f} ms",
        f"without KV cache: {uncached_seconds * 1000:8.1f} ms",
        f"speedup: {speedup:.2f}x",
    ]
    report("ablation_kv_cache", "\n".join(rows))
    return cached, uncached[:len(cached)], speedup


def test_kv_cache(games_lcrec):
    cached, uncached, speedup = run_comparison(games_lcrec)
    # Correctness: both decoders produce the same greedy continuation.
    assert cached == uncached[:len(cached)]
    # Efficiency: caching must not be slower.
    assert speedup > 1.0
