"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small tape: each op records its parents and a closure that
pushes the output gradient back into them.  Only the shapes and operations the
losses in this package need are provided — log-sigmoid (whose raw-array form,
with the sigmoid's, serves the whole package), selects, gathers, segment sums,
and reductions.  The network, from its first layer's output through its head
(the logit head or the flow head), and the subTB loss are not built from these
ops: they record themselves as one node through ``_make``, with their own
backward (see ``flipmatch.nn.mae`` and ``flipmatch.losses``).  The
correctness contract is agreement with central finite differences at 64-bit
precision, which the test suite checks op by op and end to end.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from flipmatch.errors import ConfigError, NonFiniteLoss, ShapeMismatch

__all__ = [
    "Tensor",
    "const",
    "param",
    "log_sigmoid",
    "sigmoid_np",
    "log_sigmoid_np",
    "where",
    "gather_1d",
    "segment_sum",
    "clamp_min",
    "stop_gradient",
    "backward",
]


class Tensor:
    """A node in the computation graph: value, gradient slot, backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64 if not isinstance(data, np.ndarray) else data.dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -_np(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def square(self):
        return mul(self, self)

    def sum(self):
        return _reduce(self, scale=1.0)

    def mean(self):
        return _reduce(self, scale=1.0 / max(self.data.size, 1))


def _np(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def const(data) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=False)


def param(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else const(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(data, parents: Sequence[Tensor], backward_fn) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=needs,
        parents=tuple(p for p in parents if p.requires_grad),
        backward_fn=backward_fn if needs else None,
    )


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def back(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def back(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), back)


def sigmoid_np(z) -> np.ndarray:
    """sigmoid(z) on a raw array, without overflow for either sign."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def log_sigmoid_np(z) -> np.ndarray:
    """log sigmoid(z) on a raw array, without overflow for either sign."""
    z = np.asarray(z, dtype=np.float64)
    return np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))


def log_sigmoid(x: Tensor) -> Tensor:
    out_data = log_sigmoid_np(x.data)

    def back(g):
        # d/dx log sigmoid(x) = sigmoid(-x)
        x.accumulate(g * sigmoid_np(-x.data))

    return _make(out_data, (x,), back)


def where(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select by a constant mask: a where it holds, else b."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.where(mask, a.data, b.data)

    def back(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(np.where(mask, g, 0.0), a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(np.where(mask, 0.0, g), b.data.shape))

    return _make(out_data, (a, b), back)


def gather_1d(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = x[idx[i]] for a 1-d tensor; repeated indices accumulate."""

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        x.accumulate(gx)

    return _make(x.data[idx], (x,), back)


def segment_sum(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """out[s] = sum of x[i] with seg[i] = s, for a 1-d tensor."""
    out_data = np.zeros(num_segments, dtype=x.data.dtype)
    np.add.at(out_data, seg, x.data)

    def back(g):
        x.accumulate(g[seg])

    return _make(out_data, (x,), back)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    mask = x.data > floor

    def back(g):
        x.accumulate(g * mask)

    return _make(np.maximum(x.data, floor), (x,), back)


def stop_gradient(x: Tensor) -> Tensor:
    return const(x.data.copy())


def _reduce(x: Tensor, scale: float) -> Tensor:
    def back(g):
        x.accumulate(np.full_like(x.data, float(g) * scale))

    return _make(np.asarray(x.data.sum() * scale), (x,), back)


def _spent(g: np.ndarray) -> None:
    """The closure left on a node once it has been back-propagated."""


def backward(root: Tensor) -> None:
    """Accumulate d root / d leaf into .grad of every reachable parameter.

    A graph is back-propagated once: its nodes keep their gradients, and a
    node may reuse its saved arrays for its gradient, so a second call that
    reaches any of them raises ConfigError before any gradient moves.
    """
    if root.data.size != 1:
        raise ShapeMismatch("backward needs a scalar root")
    if not np.isfinite(root.data):
        raise NonFiniteLoss(f"loss is {float(root.data)}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        if node._backward_fn is _spent:
            raise ConfigError("this graph has been back-propagated already: build it again")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        fn = node._backward_fn
        if fn is not None:
            node._backward_fn = _spent  # which also frees what the closure held
            if node.grad is not None:
                fn(node.grad)
