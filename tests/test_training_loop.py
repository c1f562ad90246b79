"""The one training loop, ``repro.tensor.train_epochs``, and how training ends.

Every fit entry point must leave its model with no spent gradients (a
``WeightMemo`` refuses to cache while any parameter holds one) and in eval
mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    DSSM,
    P5CID,
    TIGER,
    BaselineTrainer,
    BaselineTrainerConfig,
    DSSMConfig,
    P5CIDConfig,
    S3Rec,
    SASRec,
    TIGERConfig,
)
from repro.core.indexer import build_random_index_set
from repro.data import IntentionGenerator
from repro.llm import (
    InstructionExample,
    InstructionTuner,
    LMConfig,
    PretrainConfig,
    TinyLlama,
    TuningConfig,
    pretrain_lm,
)
from repro.quantization import RQVAE, RQVAEConfig, RQVAETrainer, RQVAETrainerConfig
from repro.tensor import SGD, Linear, Tensor, train_epochs
from repro.text import WordTokenizer


def _tiny_lm(texts):
    tokenizer = WordTokenizer(WordTokenizer.build_vocab(texts))
    model = TinyLlama(LMConfig(vocab_size=len(tokenizer.vocab), dim=16, num_layers=1,
                               num_heads=2, ffn_hidden=24, max_seq_len=64, seed=3))
    return model, tokenizer


def _pretrain(dataset):
    model, tokenizer = _tiny_lm(dataset.catalog.texts())
    pretrain_lm(model, tokenizer, dataset.catalog.texts(),
                PretrainConfig(steps=3, batch_size=2, seq_len=8))
    return model


def _tune(dataset):
    model, tokenizer = _tiny_lm(["alpha beta gamma answer :"])
    train = [InstructionExample("alpha beta", "gamma", "t")] * 3
    InstructionTuner(model, tokenizer, TuningConfig(epochs=1, batch_size=2, max_len=32)).tune(
        lambda epoch: train
    )
    return model


def _baseline(dataset):
    model = SASRec(dataset.num_items, dim=16)
    BaselineTrainer(BaselineTrainerConfig(epochs=1, batch_size=64)).fit(model, dataset)
    return model


def _p5cid(dataset):
    model = P5CID(dataset, P5CIDConfig(epochs=1, dim=16, cluster_levels=2, branch=4))
    model.fit(dataset)
    return model.lm


def _tiger(dataset):
    index_set = build_random_index_set(dataset.num_items, 3, 8, np.random.default_rng(0))
    model = TIGER(index_set, TIGERConfig(epochs=1, dim=16))
    model.fit(dataset)
    return model


def _s3rec(dataset):
    catalog = dataset.catalog
    model = S3Rec(dataset.num_items, catalog.subcategories(), catalog.num_subcategories, dim=16)
    model.pretrain(dataset)
    return model


def _dssm(dataset):
    examples = IntentionGenerator(dataset.catalog, np.random.default_rng(3)).training_intentions(
        dataset, per_user=1
    )
    model = DSSM([item.title for item in dataset.catalog], DSSMConfig(epochs=1, dim=16))
    model.fit(examples)
    return model


def _rqvae(dataset):
    data = np.random.default_rng(0).standard_normal((40, 8)).astype(np.float32)
    model = RQVAE(RQVAEConfig(input_dim=8, latent_dim=4, hidden_dims=(16,), num_levels=2,
                              codebook_size=4))
    RQVAETrainer(model, RQVAETrainerConfig(epochs=2, batch_size=16)).fit(data)
    return model


FIT_SITES = {
    "pretrain_lm": _pretrain,
    "InstructionTuner.tune": _tune,
    "BaselineTrainer.fit": _baseline,
    "P5CID.fit": _p5cid,
    "TIGER.fit": _tiger,
    "S3Rec.pretrain": _s3rec,
    "DSSM.fit": _dssm,
    "RQVAETrainer.fit": _rqvae,
}


@pytest.mark.parametrize("site", list(FIT_SITES))
def test_fit_ends_without_gradients_in_eval_mode(tiny_dataset, site):
    model = FIT_SITES[site](tiny_dataset)
    assert [name for name, p in model.named_parameters() if p.grad is not None] == []
    assert not any(module.training for module in model.modules())


class TestTrainEpochs:
    def test_means_per_epoch_and_schedule_counts_steps_across_epochs(self):
        model = Linear(2, 1, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1)
        seen = []

        class Recorder:
            def apply(self, opt, step):
                seen.append(step)

        def loss(batch):
            return (model(Tensor(batch)) * 0.0).sum() + float(batch.sum())

        batches = [[np.ones((1, 2))], [np.ones((1, 2)), np.zeros((1, 2))], []]
        means = train_epochs(model, optimizer, batches, loss, name="t", schedule=Recorder())
        assert means == [2.0, 1.0, 0.0]  # an empty epoch reports 0
        assert seen == [0, 1, 2]
        assert not model.training

    def test_log_every_below_one_is_rejected_before_any_step(self):
        model = Linear(2, 1, rng=np.random.default_rng(0))
        calls = []

        def loss(batch):
            calls.append(batch)
            return model(Tensor(batch)).sum()

        with pytest.raises(ValueError, match="log_every must be >= 1, got 0"):
            train_epochs(
                model, SGD(model.parameters(), lr=0.1), [[np.ones((1, 2))]], loss,
                name="t", log_every=0,
            )
        assert calls == []

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_a_non_finite_loss_raises_before_the_step_moves_the_weights(self, clip_norm):
        model = Linear(2, 1, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1)
        batches = [np.ones((1, 2)), np.ones((1, 2)), np.array([[np.nan, 1.0]]), np.ones((1, 2))]
        seen = []

        def loss(batch):
            seen.append(batch)
            if len(seen) == 3:
                good.update(model.state_dict())
            return (model(Tensor(batch)) ** 2).sum()

        good = {}
        with pytest.raises(FloatingPointError, match=r"^probe: loss is nan at step 2$"):
            train_epochs(model, optimizer, [batches], loss, name="probe", clip_norm=clip_norm)
        assert len(seen) == 3
        assert {k: v.tobytes() for k, v in model.state_dict().items()} == {
            k: v.tobytes() for k, v in good.items()
        }
        assert all(np.isfinite(p.data).all() for p in model.parameters())
        assert all(p.grad is None for p in model.parameters())
        assert not model.training

    def test_a_non_finite_gradient_norm_raises_before_the_step(self):
        model = Linear(2, 1, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1)
        before = {k: v.tobytes() for k, v in model.state_dict().items()}

        def loss(batch):
            # A finite loss whose backward hands the model an infinite gradient.
            out = model(Tensor(batch)).sum()
            return Tensor._make(np.float32(0.0), (out,), lambda g: (np.float32(np.inf),))

        with pytest.raises(FloatingPointError, match=r"^probe: gradient norm is inf at step 0$"):
            train_epochs(model, optimizer, [[np.ones((1, 2))]], loss, name="probe", clip_norm=1.0)
        assert {k: v.tobytes() for k, v in model.state_dict().items()} == before
