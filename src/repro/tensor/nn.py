"""Minimal neural-network module system on top of the autodiff engine.

Mirrors the familiar ``torch.nn`` layout: a :class:`Module` owns
:class:`~repro.tensor.tensor.Parameter` leaves and child modules, exposes
``parameters()`` / ``state_dict()`` and a train/eval switch that controls
dropout.  All models in this repository (the tiny LLaMA, the RQ-VAE and the
eleven baselines) are built from these blocks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import functional as F
from .init import kaiming_uniform, normal_
from .tensor import Parameter, Tensor
from .workspace import WeightMemo

__all__ = [
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "RMSNorm",
    "Dropout",
    "MLP",
]


class Module:
    """Base class providing parameter registration and (de)serialisation."""

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # -- attribute-based registration ----------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module tree."""
        return sum(param.size for param in self.parameters())

    # -- train / eval ----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
            # Mode transitions bracket every training loop in this repo,
            # so they are the invalidation point for caches derived from
            # weights: the optimizers update parameter arrays in place,
            # which identity checks alone cannot see (see WeightMemo).
            for value in vars(module).values():
                if isinstance(value, WeightMemo):
                    value.clear()
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # -- serialisation ----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.shape}")
            param.data = value.copy()

    # -- call protocol -----------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """An indexable container of sub-modules."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = ModuleList(list(modules))

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Linear(Module):
    """Affine map ``y = x @ W + b`` with Kaiming-uniform initialisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform(rng, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(normal_(rng, (num_embeddings, embedding_dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, np.asarray(indices))

    def extend(self, extra_rows: int, rng: np.random.Generator) -> None:
        """Grow the table by ``extra_rows`` freshly initialised rows.

        This mirrors how LC-Rec appends item-index tokens to the LLaMA
        tokenizer as out-of-vocabulary tokens (paper Sec. IV-A4).
        """
        new_rows = normal_(rng, (extra_rows, self.embedding_dim))
        self.weight.data = np.concatenate([self.weight.data, new_rows], axis=0)
        self.weight.grad = None
        self.num_embeddings += extra_rows


class LayerNorm(Module):
    """Layer normalisation with learnable scale and shift."""

    eps = 1e-5

    def __init__(self, dim: int):
        super().__init__()
        self.weight = Parameter(np.ones(dim, dtype=np.float32))
        self.bias = Parameter(np.zeros(dim, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class RMSNorm(Module):
    """Root-mean-square norm (LLaMA-style, no bias/centering)."""

    eps = 1e-6

    def __init__(self, dim: int):
        super().__init__()
        self.weight = Parameter(np.ones(dim, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.rms_norm(x, self.weight, eps=self.eps)


class Dropout(Module):
    """Inverted dropout driven by the module-level training flag."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, self.training)


class MLP(Module):
    """Multi-layer perceptron with ReLU activations.

    Used as the encoder/decoder of the RQ-VAE (paper Sec. IV-A4: "both the
    encoder and decoder of RQ-VAE are implemented as MLPs with ReLU").
    """

    def __init__(self, dims: list[int], rng: np.random.Generator | None = None):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = rng or np.random.default_rng(0)
        self.dims = list(dims)
        self.linears = ModuleList(
            [Linear(dims[i], dims[i + 1], rng=rng) for i in range(len(dims) - 1)]
        )

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.linears) - 1
        for i, linear in enumerate(self.linears):
            x = linear(x)
            if i < last:  # the output layer is linear
                x = x.relu()
        return x
