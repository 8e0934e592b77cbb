"""Factorized unnormalized densities over binary (+1/-1) variables.

A model is a list of factors, each owning a small variable scope and returning
a log-value; the unnormalized log-density ("log reward") of a full assignment
is the sum over factors, and the energy is its negation.  Three concrete
families: Ising models (pairwise bilinear + unary factors), factor graphs of
tiny MLPs, and tabular Bayesian networks (normalized by construction, used as
the learnable model in latent-variable training).

Flip ratios — the difference in log reward when one variable changes value —
touch only the factors containing that variable, which is what keeps local
losses local.  For small models ``enumerate_exact`` tabulates the whole
distribution and serves as the ground-truth oracle everywhere.

Values are +1/-1 with 0 reserved for "masked / not instantiated" throughout.
"""

from __future__ import annotations

import json
import operator
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from flipmatch.errors import (
    CorruptFile,
    EmptyBatch,
    FlipmatchError,
    PartialAssignment,
    ShapeMismatch,
    TooLarge,
    read_exact,
)
from flipmatch.graph import Imap, UndirectedGraph, _as_rng
from flipmatch.nn.tape import log_sigmoid_np, sigmoid_np

__all__ = [
    "Factor",
    "LinearFactor",
    "BilinearFactor",
    "MlpFactor",
    "ConditionalFactor",
    "EnergyModel",
    "IsingModel",
    "FactorGraphModel",
    "TabularBayesNetModel",
    "ExactTable",
    "enumerate_exact",
    "ebm_param_grad",
    "all_states",
    "random_ising",
    "random_factor_lattice",
    "write_model",
    "read_model",
]

_SIDECAR_MAGIC = b"DPGM"
_SIDECAR_VERSION = 1


def logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    return m + float(np.log(np.sum(np.exp(a - m))))


def all_states(num_vars: int) -> np.ndarray:
    """All 2**num_vars sign configurations; bit v of the row index gives x_v."""
    if num_vars > 20:
        raise TooLarge(f"refusing to enumerate 2^{num_vars} states")
    # the row index's little-endian bytes, unpacked bit by bit: no (rows, |V|) int64
    idx = np.arange(1 << num_vars, dtype="<u4").view(np.uint8).reshape(-1, 4)
    states = np.unpackbits(idx, axis=1, count=num_vars, bitorder="little").view(np.int8)
    states *= 2
    states -= 1
    return states


def _batch_values(batch) -> np.ndarray:
    if isinstance(batch, np.ndarray):
        arr = batch
    else:
        rows = [np.asarray(x, dtype=np.int8) for x in batch]
        if not rows:
            raise EmptyBatch("no assignments in batch")
        arr = np.stack(rows)
    if arr.ndim != 2:
        raise ShapeMismatch("batch must be 2-d (rows of assignments)")
    if arr.shape[0] == 0:
        raise EmptyBatch("no assignments in batch")
    return arr


# ---------------------------------------------------------------------------
# factors


class Factor:
    """One term of the factorization: a scope and a batched log-value."""

    scope: tuple[int, ...]

    def log_value(self, vals: np.ndarray) -> np.ndarray:
        """Log factor value for rows of scope-values, shape (N, |scope|) -> (N,)."""
        raise NotImplementedError

    def num_params(self) -> int:
        return 0

    def get_params(self) -> np.ndarray:
        return np.zeros(0)

    def set_params(self, flat: np.ndarray) -> None:
        if flat.size:
            raise ShapeMismatch("factor has no parameters")

    def log_value_grad(self, vals: np.ndarray) -> np.ndarray:
        """Per-row parameter gradient of log_value, shape (N, num_params)."""
        return np.zeros((vals.shape[0], 0))


@dataclass
class LinearFactor(Factor):
    """log phi = weight * x_v."""

    var: int
    weight: float

    @property
    def scope(self) -> tuple[int, ...]:
        return (self.var,)

    def log_value(self, vals: np.ndarray) -> np.ndarray:
        return self.weight * vals[:, 0].astype(np.float64)


@dataclass
class BilinearFactor(Factor):
    """log phi = weight * x_u * x_v."""

    u: int
    v: int
    weight: float

    @property
    def scope(self) -> tuple[int, ...]:
        return (self.u, self.v)

    def log_value(self, vals: np.ndarray) -> np.ndarray:
        return self.weight * (vals[:, 0] * vals[:, 1]).astype(np.float64)


class MlpFactor(Factor):
    """A one-hidden-layer perceptron producing a scalar log factor value.

    Hidden width 10, tanh activation; masked inputs evaluate literally at 0.
    """

    HIDDEN = 10

    def __init__(self, scope: Sequence[int], w1, b1, w2, b2) -> None:
        if len(scope) > 4:
            raise ValueError("factor scopes are limited to 4 variables")
        self.scope = tuple(scope)
        self.w1 = np.asarray(w1, dtype=np.float64)  # (HIDDEN, arity)
        self.b1 = np.asarray(b1, dtype=np.float64)  # (HIDDEN,)
        self.w2 = np.asarray(w2, dtype=np.float64)  # (HIDDEN,)
        self.b2 = float(b2)
        if self.w1.shape != (self.HIDDEN, len(self.scope)):
            raise ShapeMismatch("w1 shape does not match scope arity")

    @classmethod
    def random(cls, scope: Sequence[int], rng: np.random.Generator, std: float = 0.5) -> "MlpFactor":
        a = len(scope)
        return cls(
            scope,
            rng.normal(0.0, std, size=(cls.HIDDEN, a)),
            rng.normal(0.0, std, size=cls.HIDDEN),
            rng.normal(0.0, std, size=cls.HIDDEN),
            rng.normal(0.0, std),
        )

    def log_value(self, vals: np.ndarray) -> np.ndarray:
        h = np.tanh(vals.astype(np.float64) @ self.w1.T + self.b1)
        return h @ self.w2 + self.b2

    def num_params(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + 1

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, [self.b2]])

    def set_params(self, flat: np.ndarray) -> None:
        if flat.size != self.num_params():
            raise ShapeMismatch("parameter vector size mismatch")
        k = self.w1.size
        self.w1 = flat[:k].reshape(self.w1.shape).copy()
        self.b1 = flat[k : k + self.HIDDEN].copy()
        self.w2 = flat[k + self.HIDDEN : k + 2 * self.HIDDEN].copy()
        self.b2 = float(flat[-1])

    def log_value_grad(self, vals: np.ndarray) -> np.ndarray:
        z = vals.astype(np.float64)
        t = np.tanh(z @ self.w1.T + self.b1)  # (N, H)
        dt = (1.0 - t * t) * self.w2  # (N, H): d out / d preactivation
        dw1 = dt[:, :, None] * z[:, None, :]  # (N, H, arity)
        n = vals.shape[0]
        return np.concatenate(
            [dw1.reshape(n, -1), dt, t, np.ones((n, 1))], axis=1
        )


class ConditionalFactor(Factor):
    """log phi = log q(x_child | x_parents) via a logit table over parent configs.

    Scope order is (*parents, child).  On masked (zero) inputs the log-value is
    the multilinear extension of its +-1 table, i.e. the average over uniform
    completions of the masked scope variables.
    """

    def __init__(self, child: int, parents: Sequence[int], logits: np.ndarray) -> None:
        self.child = child
        self.parents = tuple(parents)
        self.scope = self.parents + (child,)
        self.logits = np.asarray(logits, dtype=np.float64)
        if self.logits.shape != (1 << len(self.parents),):
            raise ShapeMismatch("logit table must have one entry per parent config")

    def _config_index(self, parent_vals: np.ndarray) -> np.ndarray:
        if not self.parents:
            return np.zeros(parent_vals.shape[0], dtype=np.int64)
        bits = (parent_vals > 0).astype(np.int64)
        return bits @ (1 << np.arange(len(self.parents), dtype=np.int64))

    def log_value(self, vals: np.ndarray) -> np.ndarray:
        vals = np.asarray(vals)
        if np.all(vals != 0):
            z = self.logits[self._config_index(vals[:, :-1])]
            return log_sigmoid_np(vals[:, -1].astype(np.float64) * z)
        return self._multilinear(vals.astype(np.float64))

    def _multilinear(self, vals: np.ndarray) -> np.ndarray:
        # exact interpolation of the +-1 table, evaluated at rows with zeros
        a = len(self.scope)
        corners = all_states(a).astype(np.float64)  # (2^a, a)
        table = self.log_value(corners.astype(np.int8))  # recurse: corners are full
        out = np.zeros(vals.shape[0])
        for s, val in zip(corners, table):
            # indicator polynomial of corner s: prod (1 + s_i x_i) / 2
            out += val * np.prod((1.0 + s * vals) / 2.0, axis=1)
        return out

    def num_params(self) -> int:
        return self.logits.size

    def get_params(self) -> np.ndarray:
        return self.logits.copy()

    def set_params(self, flat: np.ndarray) -> None:
        if flat.size != self.logits.size:
            raise ShapeMismatch("parameter vector size mismatch")
        self.logits = flat.astype(np.float64).copy()

    def log_value_grad(self, vals: np.ndarray) -> np.ndarray:
        vals = np.asarray(vals)
        idx = self._config_index(vals[:, :-1])
        s = vals[:, -1].astype(np.float64)
        z = self.logits[idx]
        # d log sigma(s z) / d z = s * sigma(-s z)
        dz = s / (1.0 + np.exp(s * z))
        out = np.zeros((vals.shape[0], self.logits.size))
        out[np.arange(vals.shape[0]), idx] = dz
        return out


# ---------------------------------------------------------------------------
# models


class EnergyModel:
    """A factorized unnormalized density: log R(x) = sum_k log phi_k(x_{S_k})."""

    kind = "factor_graph"

    def __init__(self, num_vars: int, factors: Sequence[Factor]) -> None:
        self.num_vars = num_vars
        self.factors = list(factors)
        touching: list[list[int]] = [[] for _ in range(num_vars)]
        edges = set()
        for k, f in enumerate(self.factors):
            for v in f.scope:
                if not 0 <= v < num_vars:
                    raise ValueError(f"factor scope vertex {v} out of range")
                touching[v].append(k)
            for i, a in enumerate(f.scope):
                for b in f.scope[i + 1 :]:
                    if a != b:
                        edges.add((min(a, b), max(a, b)))
        self._touching = tuple(tuple(t) for t in touching)
        self.graph = UndirectedGraph(num_vars, frozenset(edges))

    # -- evaluation ---------------------------------------------------------

    def log_reward_batch(self, X) -> np.ndarray:
        """log R per row.  A 0 in a row gives the zero-masked reward: every
        factor evaluated with 0 plugged in for its uninstantiated inputs."""
        X = _batch_values(X)
        out = np.zeros(X.shape[0])
        for f in self.factors:
            out += f.log_value(X[:, f.scope])
        return out

    def delta_log_reward_batch(self, X, us, new_vals) -> np.ndarray:
        """log R(x) - log R(x') per row, x' being the row with x_u set to the new value.

        Touches only the factors containing each row's u, so the cost is local.
        """
        X = _batch_values(X)
        us = np.asarray(us)
        new_vals = np.asarray(new_vals, dtype=np.int8)
        out = np.zeros(X.shape[0])
        for u in np.unique(us):
            rows = np.flatnonzero(us == u)
            old_block = X[rows]
            new_block = old_block.copy()
            new_block[:, u] = new_vals[rows]
            for k in self._touching[u]:
                f = self.factors[k]
                out[rows] += f.log_value(old_block[:, f.scope]) - f.log_value(new_block[:, f.scope])
        return out

    def local_flip_logits(self, u, X: np.ndarray) -> np.ndarray:
        """log R(x with x_u=+1) - log R(x with x_u=-1) per row; the Gibbs logit.

        ``u`` is one variable, giving one logit per row of X, or an array of
        variables, giving a (len(u), rows) array whose row i is the logit of
        u[i] with every other variable at its value in X.  X may be a
        transposed view of a variable-major (|V|, rows) array, which gathers
        a variable's values contiguously.  Each variable sums its touching
        factors' log-value differences on the scope columns alone.
        """
        X = _batch_values(X)
        us = np.atleast_1d(np.asarray(u, dtype=np.int64))
        out = np.zeros((len(us), X.shape[0]))
        for i, v in enumerate(us.tolist()):
            for k in self._touching[v]:
                f = self.factors[k]
                vals = np.ascontiguousarray(X[:, f.scope])
                at = np.asarray(f.scope) == v
                vals[:, at] = 1
                plus = f.log_value(vals)
                vals[:, at] = -1
                out[i] += plus - f.log_value(vals)
        return out if np.ndim(u) else out[0]

    # -- parameter learning --------------------------------------------------

    def num_params(self) -> int:
        return sum(f.num_params() for f in self.factors)

    def get_params(self) -> np.ndarray:
        parts = [f.get_params() for f in self.factors]
        return np.concatenate(parts) if parts else np.zeros(0)

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.num_params():
            raise ShapeMismatch("parameter vector size mismatch")
        k = 0
        for f in self.factors:
            n = f.num_params()
            f.set_params(flat[k : k + n])
            k += n

    def log_reward_grad_mean(self, X, weights=None) -> np.ndarray:
        """Weighted mean over rows of the parameter gradient of log R."""
        X = _batch_values(X)
        if weights is None:
            weights = np.full(X.shape[0], 1.0 / X.shape[0])
        else:
            weights = np.asarray(weights, dtype=np.float64)
        parts = []
        for f in self.factors:
            if f.num_params() == 0:
                continue
            g = f.log_value_grad(X[:, f.scope])  # (N, P_k)
            parts.append(weights @ g)
        return np.concatenate(parts) if parts else np.zeros(0)


class IsingModel(EnergyModel):
    """E(x) = sigma * (-x^T J x - x^T b), J symmetric with zero diagonal.

    Factorized as one bilinear factor of weight 2*sigma*J_uv per edge plus one
    unary factor of weight sigma*b_v per variable, so log R = -E exactly.

    Only the nonzero couplings are kept: ``edges`` lists them, ascending
    (u, v) with u < v; ``_nbrs[u]`` holds u's neighbours ascending, padded
    with -1 to the largest degree, and ``_coup[u, j]`` the coupling to
    ``_nbrs[u, j]``, 0 in a padded slot.  Every method reads these tables, so
    a model takes O(|V| + |E|) memory, and ``from_edges`` builds one from an
    edge list.  ``J`` builds the dense matrix on each read; nothing in the
    package reads it.
    """

    kind = "ising"

    def __init__(self, J: np.ndarray, b: np.ndarray, sigma: float = 0.2) -> None:
        J = np.asarray(J, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        n = len(b)
        if J.shape != (n, n):
            raise ShapeMismatch("J must be square and match b")
        if not np.array_equal(J, J.T):
            raise ValueError("J must be symmetric")
        if np.any(np.diag(J) != 0):
            raise ValueError("J must have zero diagonal")
        rows, cols = np.nonzero(J)
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        self._build(np.stack([rows, cols]), J[rows, cols], b, sigma)

    @classmethod
    def from_edges(cls, num_vars: int, edges, weights, b, sigma: float = 0.2) -> "IsingModel":
        """The model of couplings ``weights[k]`` on ``edges[k] = (u, v)``.

        An edge may be listed either way round and more than once, the last
        weight winning; edges whose weight is 0 are dropped, and what is left
        must hold no self-loop and no NaN, as a symmetric, zero-diagonal J.
        """
        n = operator.index(num_vars)
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ShapeMismatch(f"b must hold num_vars = {n} values, got shape {b.shape}")
        ends = np.asarray(edges) if len(edges) else np.zeros((0, 2), dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) integer pairs, got {ends.dtype} {ends.shape}")
        if weights.shape != (len(ends),):
            raise ShapeMismatch(f"need one weight per edge: {len(ends)} edges, {weights.shape}")
        if len(ends) and not (ends.min() >= 0 and ends.max() < n):
            raise ValueError(f"edge ends must lie in 0..{n - 1}")
        ends = ends.astype(np.int64)
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        # the last listing of each edge, in ascending (u, v) order
        _, last = np.unique((lo * n + hi)[::-1], return_index=True)
        w = weights[::-1][last]
        lo, hi = lo[::-1][last], hi[::-1][last]
        keep = w != 0
        lo, hi, w = lo[keep], hi[keep], w[keep]
        if (lo == hi).any():
            raise ValueError(f"self-loop at variable {lo[lo == hi][0]}: J must have zero diagonal")
        if np.isnan(w).any():
            raise ValueError("couplings must not be NaN")
        m = cls.__new__(cls)
        m._build(np.stack([lo, hi]), w, b, sigma)
        return m

    def _build(self, ends: np.ndarray, weights: np.ndarray, b: np.ndarray, sigma: float) -> None:
        """The tables of the nonzero couplings ``weights`` on the ascending
        edges ``ends`` (2, E), u < v."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        n = len(b)
        self.b = b
        self.sigma = float(sigma)
        self.edges = tuple(zip(ends[0].tolist(), ends[1].tolist()))
        # both directions of every edge, by (variable, neighbour): each
        # variable's neighbours in increasing order, one slot each
        src, dst = np.concatenate([ends, ends[::-1]], axis=1)
        by_var = np.lexsort((dst, src))
        self._degree = np.bincount(src, minlength=n)
        starts = np.cumsum(self._degree) - self._degree
        slot = np.empty_like(by_var)
        slot[by_var] = np.arange(len(by_var)) - starts[src[by_var]]
        width = int(self._degree.max(initial=0))
        self._nbrs = np.full((n, width), -1, dtype=np.int64)
        self._nbrs[src, slot] = dst
        self._coup = np.zeros((n, width))
        # per edge, the positions in the flattened tables of (u, v) and of (v, u)
        self._slots = (src * width + slot).reshape(2, -1)
        self._ends = ends
        self._coup.reshape(-1)[self._slots] = weights
        factors: list[Factor] = [
            BilinearFactor(u, v, 2.0 * self.sigma * w)
            for (u, v), w in zip(self.edges, weights.tolist())
        ]
        factors += [LinearFactor(v, self.sigma * b[v]) for v in range(n)]
        super().__init__(n, factors)

    @property
    def J(self) -> np.ndarray:
        """The dense (|V|, |V|) coupling matrix, built on each read (read-only)."""
        J = np.zeros((self.num_vars, self.num_vars))
        u, v = self._ends
        J[u, v] = J[v, u] = self._weights()
        J.flags.writeable = False
        return J

    def _weights(self) -> np.ndarray:
        """The coupling of each edge, in the order of ``edges``."""
        return self._coup.reshape(-1)[self._slots[0]]

    def _rebuild_factor_weights(self) -> None:
        for k, w in enumerate(self._weights().tolist()):
            self.factors[k].weight = 2.0 * self.sigma * w
        k = len(self.edges)
        for v in range(self.num_vars):
            self.factors[k].weight = self.sigma * self.b[v]
            k += 1

    def log_reward_batch(self, X) -> np.ndarray:
        # x_u * x_v per edge, from rows of the variable-major values; int8
        # states multiply exactly in int16, at a quarter of float64's bytes
        X = _batch_values(X)
        Xv = np.ascontiguousarray(X.T)
        u, v = self._ends
        pair = np.multiply(Xv[u], Xv[v], dtype=np.int16 if X.dtype == np.int8 else np.float64)
        return self.sigma * (2.0 * (self._weights() @ pair) + X @ self.b)

    def local_flip_logits(self, u, X: np.ndarray) -> np.ndarray:
        # the field reads only u's neighbours, weights from the coupling table.
        # Variables of equal degree d share one stacked matmul over (rows, d)
        # blocks laid out column-major, as numpy lays out a gathered X[:, nb]:
        # per variable the gemv of X[:, nb] @ J[u, nb], so the bits depend
        # neither on which variables share the call nor on the layout of X
        Xv = _batch_values(X).T
        us = np.atleast_1d(np.asarray(u, dtype=np.int64))
        field = np.empty((len(us), Xv.shape[1]))
        deg = self._degree[us]
        for d in np.unique(deg).tolist():
            at = np.flatnonzero(deg == d)
            nb = self._nbrs[us[at], :d]
            blocks = np.ascontiguousarray(Xv[nb], dtype=np.float64).transpose(0, 2, 1)
            field[at] = np.matmul(blocks, self._coup[us[at], :d][:, :, None])[:, :, 0]
        out = self.sigma * (4.0 * field + 2.0 * self.b[us][:, None])
        return out if np.ndim(u) else out[0]

    def delta_log_reward_batch(self, X, us, new_vals) -> np.ndarray:
        # u's field from its neighbours' values alone: a padded slot reads
        # the last column and weighs it by 0
        X = _batch_values(X)
        us = np.asarray(us)
        rows = np.arange(X.shape[0])
        field = np.einsum("nj,nj->n", X[rows[:, None], self._nbrs[us]], self._coup[us])
        diff = (X[rows, us] - np.asarray(new_vals)).astype(np.float64)
        return self.sigma * diff * (2.0 * field + self.b[us])

    # learnable view: couplings on the edge support, then biases
    def num_params(self) -> int:
        return len(self.edges) + self.num_vars

    def get_params(self) -> np.ndarray:
        return np.concatenate([self._weights(), self.b])

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.num_params():
            raise ShapeMismatch("parameter vector size mismatch")
        self._coup.reshape(-1)[self._slots] = flat[: len(self.edges)]
        self.b = flat[len(self.edges) :].copy()
        self._rebuild_factor_weights()

    def log_reward_grad_mean(self, X, weights=None) -> np.ndarray:
        X = _batch_values(X).astype(np.float64)
        if weights is None:
            weights = np.full(X.shape[0], 1.0 / X.shape[0])
        else:
            weights = np.asarray(weights, dtype=np.float64)
        out = np.empty(self.num_params())
        for k, (u, v) in enumerate(self.edges):
            out[k] = 2.0 * self.sigma * (weights @ (X[:, u] * X[:, v]))
        out[len(self.edges) :] = self.sigma * (weights @ X)
        return out


class FactorGraphModel(EnergyModel):
    """Energy model whose factors are tiny MLPs over small scopes."""

    kind = "factor_graph"


class TabularBayesNetModel(EnergyModel):
    """A Bayesian network with one logit table per variable.

    Normalized by construction: log R(x) = log p(x), log Z = 0.  Serves as the
    learnable model for latent-variable training, where its per-variable
    conditional gradients are exact.  ``dag`` is an ``Imap`` covering every
    variable; ``tables[v][c]`` is the log-odds of x_v = +1 where bit k of c is
    set when the k-th of v's parents, in ascending order, is +1.
    """

    kind = "bayesnet"

    def __init__(self, dag: Imap, tables: dict[int, np.ndarray] | None = None) -> None:
        self.dag = dag
        n = dag.num_vars
        if len(dag.topo_order) != n or sorted(dag.topo_order) != list(range(n)):
            raise ValueError("the network must cover every variable")
        factors = []
        for v in dag.topo_order:
            parents = tuple(sorted(dag.parents[v]))
            logits = (
                np.asarray(tables[v], dtype=np.float64)
                if tables is not None
                else np.zeros(1 << len(parents))
            )
            factors.append(ConditionalFactor(v, parents, logits))
        factors.sort(key=lambda f: f.child)
        super().__init__(n, factors)

    def factor_for(self, v: int) -> ConditionalFactor:
        return self.factors[v]  # sorted by child at construction

    def sample(self, n: int, seed) -> np.ndarray:
        """Exact ancestral samples (the network is normalized)."""
        rng = _as_rng(seed)
        X = np.zeros((n, self.num_vars), dtype=np.int8)
        for v in self.dag.topo_order:
            f = self.factor_for(v)
            z = f.logits[f._config_index(X[:, f.parents])]
            p_plus = sigmoid_np(z)
            X[:, v] = np.where(rng.random(n) < p_plus, 1, -1).astype(np.int8)
        return X


def random_ising(
    g: UndirectedGraph, sigma: float = 0.2, seed: int | np.random.Generator = 0
) -> IsingModel:
    """Ising model on a graph with couplings and biases drawn from {-1, +1}."""
    rng = _as_rng(seed)
    edges = sorted(g.edges)
    weights = [rng.choice([-1.0, 1.0]) for _ in edges]
    b = rng.choice([-1.0, 1.0], size=g.num_vars)
    return IsingModel.from_edges(g.num_vars, edges, weights, b, sigma)


def random_factor_lattice(
    rows: int, cols: int, seed: int | np.random.Generator = 0, init_std: float = 0.5
) -> FactorGraphModel:
    """MLP factors over every 2x2 plaquette of a rows x cols grid."""
    rng = _as_rng(seed)
    factors = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            v = r * cols + c
            scope = (v, v + 1, v + cols, v + cols + 1)
            factors.append(MlpFactor.random(scope, rng, init_std))
    return FactorGraphModel(rows * cols, factors)


# ---------------------------------------------------------------------------
# exact oracle


@dataclass
class ExactTable:
    """Exhaustive enumeration of a small model: log Z, marginals, conditionals."""

    num_vars: int
    log_z: float
    full_probs: np.ndarray  # indexed like the rows of all_states
    marginals: np.ndarray  # P(x_v = +1)

    def states(self) -> np.ndarray:
        return all_states(self.num_vars)

    def entropy(self) -> float:
        p = self.full_probs[self.full_probs > 0]
        return float(-np.sum(p * np.log(p)))

    def sample_matrix(self, n: int, seed) -> np.ndarray:
        rng = _as_rng(seed)
        idx = rng.choice(len(self.full_probs), size=n, p=self.full_probs)
        states = self.states()
        return states[idx]


def enumerate_exact(m: EnergyModel) -> ExactTable:
    """Tabulate the distribution by summing over all 2^|V| states."""
    if m.num_vars > 20:
        raise TooLarge(f"enumeration capped at 20 variables, model has {m.num_vars}")
    states = all_states(m.num_vars)
    # in slices, so that a model's float copy of its input stays small
    logw = np.concatenate(
        [m.log_reward_batch(states[a : a + 4096]) for a in range(0, len(states), 4096)]
    )
    log_z = logsumexp(logw)
    probs = np.exp(logw - log_z)
    # bit v of the row index is x_v: P(x_v = +1) sums the rows with that bit set
    marginals = np.array([probs.reshape(-1, 2, 1 << v)[:, 1].sum() for v in range(m.num_vars)])
    return ExactTable(m.num_vars, log_z, probs, marginals)


def ebm_param_grad(m: EnergyModel, data, model_samples, model_weights=None) -> np.ndarray:
    """Positive phase minus negative phase: the log-likelihood gradient estimate.

    ``model_weights`` lets the negative phase be an exact expectation (pass all
    states with their probabilities) instead of a Monte-Carlo batch.
    """
    pos = _batch_values(data)
    neg = _batch_values(model_samples)
    if np.any(pos == 0) or np.any(neg == 0):
        raise PartialAssignment("EBM gradients need fully instantiated batches")
    return m.log_reward_grad_mean(pos) - m.log_reward_grad_mean(neg, model_weights)


# ---------------------------------------------------------------------------
# model files: JSON description + binary sidecar for MLP weights


def _write_sidecar(path: str, flat: np.ndarray) -> None:
    arr = np.asarray(flat, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", _SIDECAR_MAGIC, _SIDECAR_VERSION, arr.size))
        fh.write(arr.tobytes())


def _read_sidecar(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, version, count = struct.unpack("<4sIQ", read_exact(fh, 16, path, "header"))
        if magic != _SIDECAR_MAGIC:
            raise CorruptFile(f"{path}: bad magic {magic!r}")
        if version != _SIDECAR_VERSION:
            raise CorruptFile(f"{path}: unsupported version {version}")
        data = np.frombuffer(read_exact(fh, count * 4, path, "payload"), dtype="<f4")
    return data.astype(np.float64)


def write_model(m: EnergyModel, path: str) -> None:
    """Write the JSON description; MLP weights go to a '<path>.bin' sidecar."""
    if isinstance(m, IsingModel):
        doc = {
            "kind": "ising",
            "num_vars": m.num_vars,
            "sigma": m.sigma,
            "edges": [[u, v, w] for (u, v), w in zip(m.edges, m._weights().tolist())],
            "bias": [float(x) for x in m.b],
        }
    elif isinstance(m, TabularBayesNetModel):
        doc = {
            "kind": "bayesnet",
            "num_vars": m.num_vars,
            "topo_order": [int(v) for v in m.dag.topo_order],
            "arcs": sorted([p, v] for v, ps in m.dag.parents.items() for p in ps),
            "tables": {str(v): [float(z) for z in m.factor_for(v).logits] for v in range(m.num_vars)},
        }
    elif isinstance(m, FactorGraphModel):
        sidecar = os.path.basename(path) + ".bin"
        doc = {
            "kind": "factor_graph",
            "num_vars": m.num_vars,
            "scopes": [[int(v) for v in f.scope] for f in m.factors],
            "hidden": MlpFactor.HIDDEN,
            "weights_file": sidecar,
        }
        _write_sidecar(os.path.join(os.path.dirname(path) or ".", sidecar), m.get_params())
    else:
        raise ValueError(f"cannot serialize model kind {type(m).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_model(path: str) -> EnergyModel:
    """The model a file written by ``write_model`` describes.

    A document no model can be built from raises CorruptFile naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return _model_from_doc(json.load(fh), os.path.dirname(path) or ".")
        except (
            FlipmatchError, LookupError, TypeError, ValueError, AttributeError, OverflowError,
            OSError,
        ) as exc:
            what = f"{type(exc).__name__}: {exc}"
            raise CorruptFile(f"{path}: cannot build a model: {what}") from exc


def _model_from_doc(doc, folder: str) -> EnergyModel:
    kind = doc.get("kind")
    if kind == "ising":
        bias = np.asarray(doc["bias"], dtype=np.float64)
        n = doc["num_vars"]
        if bias.shape != (n,):
            raise ValueError(f"bias must hold num_vars = {n} values")
        ends, weights = [], []
        for u, v, w in doc["edges"]:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) must name integer vertex ids")
            ends.append((u, v))
            weights.append(float(w))
        return IsingModel.from_edges(n, ends, weights, bias, doc["sigma"])
    if kind == "bayesnet":
        order = doc["topo_order"]
        if not all(type(v) is int for v in order):
            raise ValueError("topo_order must list integer vertex ids")
        parents: dict[int, set[int]] = {v: set() for v in order}
        for a, b in doc["arcs"]:
            if b not in parents:
                raise ValueError(f"arc ({a}, {b}) ends outside topo_order")
            parents[b].add(a)
        dag = Imap.from_parents(doc["num_vars"], order, [sorted(parents[v]) for v in order])
        tables = {int(v): np.asarray(t, dtype=np.float64) for v, t in doc["tables"].items()}
        return TabularBayesNetModel(dag, tables)
    if kind == "factor_graph":
        h = doc["hidden"]
        if h != MlpFactor.HIDDEN:
            raise ValueError(f"unsupported hidden width {h}")
        weights = _read_sidecar(os.path.join(folder, doc["weights_file"]))
        factors = [
            MlpFactor(scope, np.zeros((h, len(scope))), np.zeros(h), np.zeros(h), 0.0)
            for scope in doc["scopes"]
        ]
        m = FactorGraphModel(doc["num_vars"], factors)
        m.set_params(weights)
        return m
    raise ValueError(f"unknown model kind {kind!r}")
