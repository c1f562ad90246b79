"""RQ-VAE training loop (paper Sec. IV-A4: AdamW, lr 1e-3, batch 1024)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.batching import iterate_minibatches
from ..tensor import AdamW, Tensor, train_epochs
from .rqvae import RQVAE

__all__ = ["RQVAETrainerConfig", "RQVAETrainer"]


@dataclass
class RQVAETrainerConfig:
    epochs: int = 200
    batch_size: int = 1024
    lr: float = 1e-3
    weight_decay: float = 0.01
    kmeans_init: bool = True
    seed: int = 0
    log_every: int = 50


@dataclass
class RQVAETrainer:
    """Fits an RQ-VAE on a fixed matrix of item text embeddings."""

    model: RQVAE
    config: RQVAETrainerConfig = field(default_factory=RQVAETrainerConfig)

    def fit(self, embeddings: np.ndarray) -> list[dict[str, float]]:
        """Train and return per-epoch loss history."""
        embeddings = np.asarray(embeddings, dtype=np.float32)
        if embeddings.ndim != 2:
            raise ValueError("embeddings must be (num_items, dim)")
        if embeddings.shape[1] != self.model.config.input_dim:
            raise ValueError(
                f"embedding dim {embeddings.shape[1]} != RQ-VAE input_dim "
                f"{self.model.config.input_dim}"
            )
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        if cfg.kmeans_init:
            self.model.init_codebooks_kmeans(embeddings, rng=rng)
        parts: list[dict[str, list[float]]] = []  # per epoch, per-batch loss terms

        def epochs():
            for _ in range(cfg.epochs):
                parts.append({"recon": [], "rq": []})
                yield iterate_minibatches(len(embeddings), cfg.batch_size, rng=rng)

        def loss(batch_idx):
            total, terms, _ = self.model(Tensor(embeddings[batch_idx]))
            for key, values in parts[-1].items():
                values.append(terms[key].item())
            return total

        totals = train_epochs(
            self.model,
            AdamW(self.model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay),
            epochs(),
            loss,
            name="rqvae epoch",
            log_every=cfg.log_every,
        )
        return [
            {**{key: sum(v) / max(len(v), 1) for key, v in epoch.items()}, "total": total}
            for epoch, total in zip(parts, totals)
        ]
