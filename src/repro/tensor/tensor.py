"""Reverse-mode automatic differentiation on numpy arrays.

This module is the computational substrate for every neural model in the
repository (the tiny LLaMA-style language model, the RQ-VAE and all the
sequential-recommendation baselines).  It implements a small but complete
autograd engine in the style of PyTorch: a :class:`Tensor` wraps a numpy
array, records the operations applied to it on a tape, and
:meth:`Tensor.backward` walks the tape in reverse topological order
accumulating gradients.

Design notes
------------
* Everything is vectorised.
* The tape links nodes, not tensors: an op output's :class:`_Node` holds
  its backward closure and its parents' nodes, and a leaf's node holds (a
  weak reference to) the tensor it accumulates into.  Closures capture
  the numpy arrays or shapes their backward reads and nothing else, so an
  activation lives only while a closure needs it or the caller holds its
  tensor.  Hot compositions are one node each (the fused ops in
  :mod:`repro.tensor.functional`, attention and RoPE in
  :mod:`repro.tensor.attention`), so their intermediates die in the
  forward; each such backward runs the expressions the primitive ops'
  backwards would, so gradients are bit-identical to the composition's.
* A GEMM does not keep an input that is cheap to rebuild: an op whose
  output is an elementwise function of arrays its own node keeps anyway
  (the norms, SwiGLU) passes the closure that computed the output to
  ``_make`` as the output's ``_rebuild``, and :meth:`Tensor.__matmul__`
  keeps that closure instead of the array and calls it in its backward.
  So a norm output feeding q/k/v or a SwiGLU output feeding ``down_proj``
  dies in the forward, and the backward reads the same bits.  A norm
  computes its rebuild once per backward, read-only, for all its
  consumers, and drops it when its own backward runs.  A GEMM
  output over a rebuildable left operand is rebuildable too (that
  operand's rebuild, then the same GEMM on the same weight), which is how
  SwiGLU keeps neither ``gate`` nor ``up``.  ``reshape``, ``transpose``,
  ``relu``, ``+`` of a parameter (a bias), RoPE and dropout pass their
  operand's rebuild on (their own expression over it, with only the
  parameter, the RoPE tables or the ``bool`` mask their node keeps), so
  the attention node keeps the rebuilds of q, k and v, not the arrays,
  and the FFN's ``fc2`` none of its input.  A rebuild captures only what
  its node keeps, parameter arrays and its parents' rebuilds, so no
  activation lives longer for it.  The attention node recomputes its
  probabilities the same way, from the rebuilt q and k and the softmax's
  row max and sum.
* :meth:`Tensor.backward` frees as it goes: once a node has dispatched,
  its closure, its parent links and its slot in the topological order are
  dropped, so a training step's activations are released while its
  backward runs, not after it.  Gradients still accumulate in the
  depth-first order, which fixes every floating-point sum.
* Gradients flow through broadcasting: ``_unbroadcast`` sums a gradient
  down to the shape of the original operand.
* A per-thread ``no_grad`` switch disables taping for inference paths
  (beam search, evaluation), which keeps generation fast.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled", "as_tensor"]

# Per-thread, so a background serving thread decoding under ``no_grad``
# cannot switch taping off (or back on) under a training thread's feet.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient taping (inference mode)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded on the tape."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size one.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """One entry of the tape.

    An op output's node holds the backward closure and its parents' nodes
    (``None`` for a parent that needs no gradient), in the op's operand
    order; a leaf's node has no closure and holds a weak reference to the
    tensor whose ``.grad`` it accumulates into.
    """

    __slots__ = ("backward", "parents", "leaf")

    def __init__(self, backward=None, parents=(), leaf=None):
        self.backward: Callable[[np.ndarray], tuple] | None = backward
        self.parents: tuple[_Node | None, ...] = parents
        self.leaf: weakref.ref | None = leaf


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Floating point data is stored as
        ``float32`` unless it already has a floating dtype.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_rebuild", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype == np.float64:
            array = array.astype(np.float32)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None
        # Recomputes ``data`` bit for bit from arrays this tensor's own node
        # keeps; set by ``_make`` for rebuildable op outputs on the tape.
        self._rebuild: Callable[[], np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __getstate__(self):
        # Copies and pickles start off the tape: a copied leaf node would
        # still accumulate into the original tensor.
        state = {"data": self.data, "grad": self.grad, "requires_grad": self.requires_grad}
        return None, {**state, "_node": None, "_rebuild": None}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], tuple],
        rebuild: Callable[[], np.ndarray] | None = None,
    ) -> "Tensor":
        """Create an op output, recording it on the tape when appropriate.

        ``backward`` maps the output's gradient to one contribution per
        parent, in ``parents`` order; it must not capture the parents
        themselves, only the arrays or shapes it reads.  ``rebuild``, when
        given, returns ``data`` afresh with the forward's exact expression;
        its caller may write into the array only when it is writeable (a
        norm computes its rebuild once per backward and shares it
        read-only).  It may capture only what ``backward`` already
        captures, parameter arrays and its parents' rebuilds, so no
        activation outlives its node.  A consumer that would keep ``data``
        for its backward may keep ``rebuild`` instead.
        """
        needs_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            out._node = _Node(backward, tuple(p._tape_node() for p in parents))
            out._rebuild = rebuild
        return out

    def _then(self, op: Callable[[np.ndarray], np.ndarray]):
        """A rebuild applying ``op`` to this tensor's rebuild; None without one.

        ``op`` is the forward's own expression over this tensor's data, so
        an op whose output is ``op(self.data)`` hands this to ``_make``.
        """
        rebuild = self._rebuild
        if rebuild is None:
            return None
        return lambda: op(rebuild())

    def _tape_node(self) -> _Node | None:
        """This tensor's node on the tape; a grad-requiring leaf gets one on first use."""
        if self._node is None and self.requires_grad:
            self._node = _Node(leaf=weakref.ref(self))
        return self._node

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient of shape {grad.shape} does not match the output's shape "
                f"{self.data.shape}"
            )

        root = self._tape_node()
        topo: list[_Node | None] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

        # Walk the order backwards, freeing as it goes: once a node has
        # dispatched, its closure (and with it every activation only that
        # closure captured) and its slot in the order are dropped, so the
        # activations die while the backward runs rather than after it.
        grads: dict[int, np.ndarray] = {id(root): grad}
        for i in range(len(topo) - 1, -1, -1):
            node = topo[i]
            topo[i] = None
            node_grad = grads.pop(id(node), None)
            if node_grad is not None:
                if node.backward is not None:
                    # Intermediate: route gradient to parents through the closure.
                    for parent, contribution in zip(node.parents, node.backward(node_grad)):
                        if contribution is None or parent is None:
                            continue
                        key = id(parent)
                        if key in grads:
                            grads[key] = grads[key] + contribution
                        else:
                            grads[key] = contribution
                elif node.leaf is not None and (leaf := node.leaf()) is not None:
                    leaf._accumulate(node_grad)
            node.backward = None
            node.parents = ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a_shape, b_shape = self.shape, other.shape

        def backward(g):
            return (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape))

        # A rebuildable operand plus a parameter (a ``Linear`` bias) is
        # rebuildable: the parameter's array is all the rebuild adds.
        b = other.data
        rebuild = self._then(lambda a: a + b) if isinstance(other, Parameter) else None
        return Tensor._make(self.data + b, (self, other), backward, rebuild)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        a_shape, b_shape = self.shape, other.shape

        def backward(g):
            return (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape))

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(g):
            return (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))

        return Tensor._make(a * b, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(g):
            return (
                _unbroadcast(g / b, a.shape),
                _unbroadcast(-g * a / (b * b), b.shape),
            )

        return Tensor._make(a / b, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data

        def backward(g):
            return (g * exponent * a ** (exponent - 1),)

        return Tensor._make(a**exponent, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        # A rebuildable left operand is not kept: the backward recomputes it
        # (the norm outputs feeding the projections and the head, the SwiGLU
        # output feeding ``down_proj``, the FFN activation feeding ``fc2``),
        # so it dies in the forward.  The output is then rebuildable too,
        # with one more GEMM.
        rebuild = self._rebuild
        if a.ndim >= 3 and b.ndim == 2:
            # Fold the batch dims into one GEMM: numpy dispatches
            # (B, T, k) @ (k, m) as B separate (T, k) products, which for
            # the decode hot path's (B*K, 1, k) activations degenerates
            # into thousands of thin GEMVs.  One (B*T, k) @ (k, m) call
            # is the same arithmetic in a single BLAS dispatch, and the
            # gradients likewise fold (the batched ``aᵀ @ g`` summed over
            # batch dims *is* the folded two-dimensional product).
            a_shape = a.shape

            def fold(a):
                return np.ascontiguousarray(a).reshape(-1, a_shape[-1])

            out_shape = (*a_shape[:-1], b.shape[-1])
            a2 = fold(a)
            out_data = (a2 @ b).reshape(out_shape)
            kept_a2 = a2 if rebuild is None else None

            def backward_folded(g):
                g2 = g.reshape(-1, g.shape[-1])
                ga = (g2 @ b.T).reshape(a_shape)
                a2 = kept_a2 if rebuild is None else fold(rebuild())
                gb = a2.T @ g2
                return (ga, gb)

            def output_folded():
                return (fold(rebuild()) @ b).reshape(out_shape)

            rebuild_out = None if rebuild is None else output_folded
            return Tensor._make(out_data, (self, other), backward_folded, rebuild_out)

        kept_a = a if rebuild is None else None
        a_shape = a.shape

        def backward(g):
            a = kept_a if rebuild is None else rebuild()
            if b.ndim == 1:
                # (…, n) @ (n,) -> (…)
                ga = g[..., None] * b
                gb = np.tensordot(g, a, axes=(range(g.ndim), range(g.ndim)))
                return (_unbroadcast(ga, a_shape), _unbroadcast(gb, b.shape))
            if a.ndim == 1:
                # (n,) @ (n, m) -> (m,)
                ga = g @ np.swapaxes(b, -1, -2)
                gb = np.outer(a, g)
                return (_unbroadcast(ga, a_shape), _unbroadcast(gb, b.shape))
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return (_unbroadcast(ga, a_shape), _unbroadcast(gb, b.shape))

        def output():
            return rebuild() @ b

        rebuild_out = None if rebuild is None else output
        return Tensor._make(a @ b, (self, other), backward, rebuild_out)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward(g):
            return (g.transpose(inverse),)

        def output(a):
            return a.transpose(axes)

        return Tensor._make(output(self.data), (self,), backward, self._then(output))

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        def backward(g):
            return (np.swapaxes(g, axis1, axis2),)

        return Tensor._make(np.swapaxes(self.data, axis1, axis2), (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(g):
            return (g.reshape(original),)

        def output(a):
            return a.reshape(shape)

        return Tensor._make(output(self.data), (self,), backward, self._then(output))

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "Tensor":
        shape = self.shape

        def backward(g):
            grad = np.zeros(shape, dtype=np.float32)
            np.add.at(grad, index, g)
            return (grad,)

        return Tensor._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, shape).astype(np.float32),)
            g_expanded = g
            if not keepdims:
                g_expanded = np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded, shape).astype(np.float32),)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        # Route gradient to the first maximal element only (ties broken).
        argmax = self.data.argmax(axis=axis)
        shape = self.shape

        def backward(g):
            grad = np.zeros(shape, dtype=np.float32)
            g_arr = g if keepdims else np.expand_dims(g, axis)
            indices = list(np.indices(argmax.shape))
            indices.insert(axis if axis >= 0 else len(shape) + axis, argmax)
            grad[tuple(indices)] = np.squeeze(g_arr, axis=axis)
            return (grad,)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g):
            return (g * out_data,)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        a = self.data

        def backward(g):
            return (g / a,)

        return Tensor._make(np.log(a), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g):
            return (g * 0.5 / out_data,)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - out_data * out_data),)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            return (g * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g):
            return (g * mask,)

        def output(a):
            return a * mask

        return Tensor._make(output(self.data), (self,), backward, self._then(output))

    def silu(self) -> "Tensor":
        """SiLU / swish activation: ``x * sigmoid(x)`` (used by SwiGLU)."""
        x = self.data
        sig = 1.0 / (1.0 + np.exp(-x))

        def backward(g):
            return (g * (sig + x * sig * (1.0 - sig)),)

        return Tensor._make(x * sig, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(g):
            return (g * sign,)

        return Tensor._make(np.abs(self.data), (self,), backward)


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for i in range(len(sizes)):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(count))

    return Tensor._make(out_data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``a`` where ``condition`` else ``b``.

    ``condition`` is a plain boolean numpy array (not differentiable).
    """
    a = as_tensor(a)
    b = as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return (
            _unbroadcast(np.where(cond, g, 0.0), a_shape),
            _unbroadcast(np.where(cond, 0.0, g), b_shape),
        )

    return Tensor._make(out_data, (a, b), backward)
