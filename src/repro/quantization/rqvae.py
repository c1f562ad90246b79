"""Residual-Quantized Variational AutoEncoder (paper Sec. III-B, Eq. 1-5).

The RQ-VAE maps LLM text embeddings to ``H`` discrete codewords by
recursively quantising residuals from coarse to fine.  Training follows
Algorithm 1: levels ``1..H-1`` use nearest-neighbour assignment (Eq. 1);
the last level uses the Sinkhorn-based uniform semantic mapping (Eq. 6) so
that item semantics spread uniformly over the final codebook.

Losses (Eq. 3-5): reconstruction plus the per-level RQ loss with
stop-gradients on alternating sides and commitment coefficient ``beta = 0.25``.
The decoder input uses the straight-through estimator, so encoder gradients
flow through the quantisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor import MLP, Module, ModuleList, Parameter, Tensor, no_grad
from ..tensor import functional as F
from .codebook import kmeans, nearest_code, pairwise_sq_distances
from .sinkhorn import sinkhorn_knopp

__all__ = ["RQVAEConfig", "RQVAE", "Codebook", "QuantizationResult"]

_BETA = 0.25  # commitment coefficient of Eq. 4
# Sinkhorn scaling iterations per training batch on the last level.
_USM_ITERS = 50


@dataclass
class RQVAEConfig:
    """Hyperparameters (paper defaults: 4 levels x 256 codes x dim 32)."""

    input_dim: int = 64
    latent_dim: int = 32
    hidden_dims: tuple[int, ...] = (128, 64)
    num_levels: int = 4
    codebook_size: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        if self.codebook_size < 2:
            raise ValueError("codebook_size must be >= 2")


@dataclass
class QuantizationResult:
    """Output of a quantisation pass over a batch of embeddings."""

    codes: np.ndarray            # (N, H) integer codewords
    level_residuals: np.ndarray  # (N, H, latent) residual entering each level
    quantized: np.ndarray        # (N, latent_dim) sum of codebook vectors


class Codebook(Module):
    """One level of learnable cluster centers ``{v_k}``."""

    def __init__(self, size: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.vectors = Parameter(
            (rng.standard_normal((size, dim)) * 0.1).astype(np.float32)
        )

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


class RQVAE(Module):
    """MLP encoder/decoder around a multi-level residual quantiser."""

    def __init__(self, config: RQVAEConfig):
        super().__init__()
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        enc_dims = [config.input_dim, *config.hidden_dims, config.latent_dim]
        dec_dims = [config.latent_dim, *reversed(config.hidden_dims),
                    config.input_dim]
        self.encoder = MLP(enc_dims, rng=rng)
        self.decoder = MLP(dec_dims, rng=rng)
        self.codebooks = ModuleList([
            Codebook(config.codebook_size, config.latent_dim, rng)
            for _ in range(config.num_levels)
        ])

    # ------------------------------------------------------------------
    def init_codebooks_kmeans(
        self,
        embeddings: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> None:
        """K-means-initialise every level from the data's residuals (20 Lloyd iterations)."""
        rng = rng or np.random.default_rng(self.config.seed + 7)
        with no_grad():
            residual = self.encoder(Tensor(embeddings)).data.copy()
        for book in self.codebooks:
            centers = kmeans(residual, book.size, rng, num_iters=20)
            book.vectors.data = centers
            codes = nearest_code(residual, centers)
            residual = residual - centers[codes]

    # ------------------------------------------------------------------
    def _assign_level(self, residual_data: np.ndarray, level: int) -> np.ndarray:
        """Training codeword selection for one level (Eq. 1, or Eq. 6 on the last)."""
        book = self.codebooks[level].vectors.data
        dist = pairwise_sq_distances(residual_data, book)
        is_last = level == self.config.num_levels - 1
        if is_last and residual_data.shape[0] > 1:
            return sinkhorn_knopp(dist, num_iters=_USM_ITERS).argmax(axis=1)
        return dist.argmin(axis=1)

    def forward(self, embeddings: Tensor) -> tuple[Tensor, dict[str, Tensor], np.ndarray]:
        """Training pass: returns (total loss, loss parts, codes)."""
        z = self.encoder(embeddings)
        residual = z
        quantized_data = np.zeros_like(z.data)
        rq_loss: Tensor | None = None
        codes = []
        for level in range(self.config.num_levels):
            code = self._assign_level(residual.data, level)
            codes.append(code)
            vectors = F.embedding(self.codebooks[level].vectors, code)
            # ||sg[r] - v||^2: moves codebook vectors toward residuals.
            codebook_term = ((Tensor(residual.data) - vectors) ** 2).sum(axis=1).mean()
            # beta * ||r - sg[v]||^2: commitment, moves encoder toward codes.
            commit_term = ((residual - Tensor(vectors.data)) ** 2).sum(axis=1).mean()
            level_loss = codebook_term + commit_term * _BETA
            rq_loss = level_loss if rq_loss is None else rq_loss + level_loss
            quantized_data += vectors.data
            residual = residual - Tensor(vectors.data)
        # Straight-through: decoder sees quantised values, encoder gets grads.
        z_q = z + Tensor(quantized_data - z.data)
        recon = self.decoder(z_q)
        recon_loss = ((embeddings - recon) ** 2).sum(axis=1).mean()
        total = recon_loss + rq_loss
        parts = {"recon": recon_loss, "rq": rq_loss, "total": total}
        return total, parts, np.stack(codes, axis=1)

    # ------------------------------------------------------------------
    def quantize(self, embeddings: np.ndarray) -> QuantizationResult:
        """Inference-time greedy quantisation (stage one of Sec. III-B2)."""
        with no_grad():
            residual = self.encoder(Tensor(np.asarray(embeddings, dtype=np.float32))).data
        residual = residual.copy()
        quantized = np.zeros_like(residual)
        codes = []
        level_residuals = []
        for level in range(self.config.num_levels):
            level_residuals.append(residual.copy())
            book = self.codebooks[level].vectors.data
            code = nearest_code(residual, book)
            codes.append(code)
            vectors = book[code]
            quantized += vectors
            residual = residual - vectors
        return QuantizationResult(
            codes=np.stack(codes, axis=1),
            level_residuals=np.stack(level_residuals, axis=1),
            quantized=quantized,
        )

    def reconstruct(self, embeddings: np.ndarray) -> np.ndarray:
        """Decode the quantised representation back to embedding space."""
        result = self.quantize(embeddings)
        with no_grad():
            return self.decoder(Tensor(result.quantized)).data
