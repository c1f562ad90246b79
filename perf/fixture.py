"""The models every workload serves, built from source in ``setup_s``.

The build seed is fixed: ``--seed`` drives traffic only, so two runs
serve bit-identical weights and every count in the ledger repeats.
Weights are barely trained and never alignment-tuned on purpose:
throughput does not depend on them being good, and the correctness gate
compares serving paths on the *same* weights.  Only the RQ-VAE is fit
properly, because its codes shape the trie the decode walks.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import TIGER, TIGERConfig
from repro.bench import bench_scale, scaled_dataset
from repro.core import LCRec, LCRecConfig
from repro.core.indexer import SemanticIndexerConfig, build_random_index_set
from repro.llm import LMConfig, PretrainConfig
from repro.quantization import RQVAEConfig, RQVAETrainerConfig

__all__ = ["BUILD_SEED", "SERVING_VOCAB", "TOP_K", "build_dataset", "build_lcrec", "build_tiger"]

BUILD_SEED = 0
TOP_K = 10
# The output head is padded to a serving-realistic vocabulary, as
# benchmarks/bench_sparse_decode.py does: padded rows are in no allowed
# set, so rankings are unchanged and only the head's cost is honest.
SERVING_VOCAB = 8192
TIGER_CODEBOOK = 256


def build_dataset():
    return scaled_dataset("instruments", bench_scale("full"), seed=BUILD_SEED)


def build_lcrec(dataset) -> LCRec:
    """LC-Rec without alignment tuning: vocabulary, LM, RQ-VAE indices."""
    config = LCRecConfig(
        lm=LMConfig(dim=128, num_layers=4, num_heads=8, ffn_hidden=352, max_seq_len=256),
        pretrain=PretrainConfig(steps=20, batch_size=16, seq_len=64, seed=BUILD_SEED),
        indexer=SemanticIndexerConfig(
            rqvae=RQVAEConfig(
                latent_dim=32, hidden_dims=(96, 48), num_levels=4, codebook_size=64,
                seed=BUILD_SEED,
            ),
            trainer=RQVAETrainerConfig(epochs=60, batch_size=512, seed=BUILD_SEED),
        ),
        beam_size=20,
        seed=BUILD_SEED,
    )
    model = LCRec(dataset, config)
    model.build_vocabulary()
    model.build_language_model()
    model.build_indices()
    model.lm.extend_vocab(SERVING_VOCAB - model.lm.vocab_size)
    model.lm.eval()
    return model


def build_tiger(dataset) -> TIGER:
    index_set = build_random_index_set(
        dataset.num_items, 3, TIGER_CODEBOOK, np.random.default_rng(BUILD_SEED)
    )
    tiger = TIGER(index_set, TIGERConfig(dim=128, num_heads=4, epochs=1, seed=BUILD_SEED))
    tiger.fit(dataset)
    return tiger
