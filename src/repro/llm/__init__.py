"""Tiny LLaMA-style language model, generation and instruction tuning."""

from .config import LMConfig
from .embedding import encode_items, encode_texts
from .generation import (
    BeamHypothesis,
    DecodeState,
    backfill_items,
    backfill_ranked_item_ids,
    beam_search_items_single,
    decode_finish,
    decode_prefill,
    decode_step,
    greedy_generate,
    left_pad_prompts,
    pair_log_softmax,
    ranked_item_ids,
    sequence_logprob,
)
from .instruction import (
    IGNORE_INDEX,
    EncodedExample,
    InstructionExample,
    collate_batch,
    encode_example,
    prompt_ids,
)
from .model import SwiGLU, TinyLlama, TransformerBlock
from .prefix_cache import PrefixCacheStats, PrefixKVCache, PrefixMatch
from .pretrain import PretrainConfig, build_corpus_stream, pretrain_lm
from .sampling import sample_generate
from .trainer import InstructionTuner, TuningConfig

__all__ = [
    "LMConfig",
    "TinyLlama",
    "TransformerBlock",
    "SwiGLU",
    "PretrainConfig",
    "pretrain_lm",
    "build_corpus_stream",
    "encode_texts",
    "encode_items",
    "InstructionExample",
    "EncodedExample",
    "encode_example",
    "collate_batch",
    "prompt_ids",
    "IGNORE_INDEX",
    "InstructionTuner",
    "TuningConfig",
    "BeamHypothesis",
    "DecodeState",
    "backfill_items",
    "backfill_ranked_item_ids",
    "beam_search_items_single",
    "decode_prefill",
    "decode_step",
    "decode_finish",
    "PrefixKVCache",
    "PrefixMatch",
    "PrefixCacheStats",
    "left_pad_prompts",
    "pair_log_softmax",
    "ranked_item_ids",
    "greedy_generate",
    "sequence_logprob",
    "sample_generate",
]
