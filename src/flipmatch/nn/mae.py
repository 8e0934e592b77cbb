"""The masked autoencoder that parametrizes every conditional at once.

One network maps a masked +-1 encoding of the conditioning set (zeros for
everything not conditioned on) to the conditional log-odds of X_v = +1 given
the visible variables, for any variable v.  Because the input masking is what
defines "parents", the same weights serve any DAG orientation of the graph —
that is the whole point.

Architecture: {affine -> layer norm -> nonlinearity} blocks on a constant
width trunk with residual connections between the equal-width blocks, then an
affine head with one output column per variable.  A conditional reads only
its own column, so every call names the variable of each row and the head
computes that one logit per row.  Every conditional's input is compact: only
the nonzero input columns (a variable's parents) together with their
indices, so its first layer reads just those rows of the input weights and,
on the tape, sums its gradient back into just those rows; one batch may hold
many variables, each with its own columns and its own number of them, as the
sampler's wavefront walk and the losses need.  A separate learnable logit
vector handles the no-information case (all-zero input), and an optional
scalar head on the same trunk provides state-flow estimates for the
balance-based objectives; as the first layer is linear, ``prefix_trunk``
gives it every prefix of an order as one running sum along the order (MADE,
Germain et al. 2015, arXiv:1502.03509).  Observed values reach a
latent-variable posterior as parent columns too (see ``graph.Imap.given``),
so the input has one coordinate per variable and nothing else.  The layer
norms' epsilon is a constant, so a checkpoint's header rebuilds exactly the
network that was saved.

The forward exists once, written in place on raw arrays, and every call runs
its blocks on cache-sized row slices (``_BLOCK_ELEMENTS // width`` rows).
The gradient-free call (``masked_logits_np``) keeps nothing.
The taped calls (``masked_logits``, ``prefix_trunk``) record one tape node
from the first layer's output to the logits, or to the trunk rows for the
flow head, and keep only that output, the first layer's output and the last
slice's intermediates.  The node's backward walks the slices last to first:
it runs each earlier slice's blocks again from the first layer's output
(gradient checkpointing, Chen et al. 2016, arXiv:1604.06174), pushes the
gradient back through the head and the blocks, and at the end hands the
first layer's output gradient to the call's input-weight gradient, once on
the whole batch.  That gradient is written into the first layer's output's
own buffer, each slice's rows once the slice has run again, so the backward
holds one (rows, width) array for both; a graph is therefore back-propagated
once, and ``tape.backward`` refuses a second pass through it.  A call that
fits in one slice runs nothing twice.

A conditional depends only on its variable and its input, and a batch often
holds the same (variable, columns, values) row many times: with few parents,
many draws of one wavefront level agree on their parents' values, and u's own
x-side and flip-side rows of a flip term are equal.  ``masked_logits`` and
``masked_logits_np`` therefore group exactly equal rows first, run the first
layer, the blocks and the head on one row per group, and expand the logits
back by the group index (on the tape a gather, whose backward sums the
repeats).  The first layer reads only the blocks that hold a group's first
row, the tape keeps its output on those rows alone, and the input weights'
gradient lists only their entries.
A batch in which fewer than an eighth of the rows repeat runs every row,
paying only the grouping key and its sort.
So that each row's logit is the one it gets on its own, a one-row matrix
product goes through the same kernel as a larger batch.

Inputs keep the dtypes they come in.  The sampler and the losses hand over
states as int8 and columns in ``index_dtype``, the narrowest integer type of
the variable ids; the first layer and its gradient multiply them by the
float64 weights one piece at a time, and numpy converts -1, 0 and +1 to
float64 exactly, so logits and gradients are those of float64 inputs.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from flipmatch.errors import CorruptFile, ShapeMismatch, read_exact
from flipmatch.nn import tape
from flipmatch.nn.tape import Tensor

__all__ = ["MaeConfig", "MaeParams", "save_checkpoint", "load_checkpoint"]

_CKPT_MAGIC = b"DMAE"
_CKPT_VERSION = 1

_ACTIVATIONS = ("relu", "elu")

# rows x width of one in-place pass of the gradient-free trunk: three such
# float64 buffers (output, block pre-activation, squares) fit a 2 MB L2 cache
_BLOCK_ELEMENTS = 1 << 16

# elements of gathered inputs and input weights per piece of the compact first
# layer
_GATHER_ELEMENTS = 1 << 18

# used (row, slot) entries per piece of the input weights' gradient
_GRAD_ENTRIES = 1 << 17

# the blocks and the head see one row per distinct input once at least this
# share of a batch's rows repeats an earlier one; below it, finding the few
# repeats would cost about what it saves
_MIN_REPEAT_SHARE = 1 / 8

_KEY_SEED = 0x5EED

# added to each layer norm's variance
_LN_EPS = 1e-5


@functools.lru_cache(maxsize=64)
def index_dtype(num_vars: int) -> np.dtype:
    """The narrowest signed integer type that holds -1..num_vars - 1."""
    for t in (np.int8, np.int16, np.int32):
        if num_vars - 1 <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class MaeConfig:
    num_vars: int
    width: int = 512
    blocks: int = 3
    activation: str = "relu"
    flow_head: bool = False
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if self.num_vars < 1 or self.width < 1 or self.blocks < 1:
            raise ValueError("num_vars, width, and blocks must be positive")

    @property
    def input_width(self) -> int:
        """Input coordinates of the network: one per variable."""
        return self.num_vars

    @property
    def param_count(self) -> int:
        """Scalars in the network this config builds, computed without building it."""
        w, v, k = self.width, self.num_vars, self.blocks
        trunk = self.input_width * w + w + 2 * w * k + (k - 1) * (w * w + w)
        return trunk + w * v + 2 * v + (w + 1 if self.flow_head else 0)


class MaeParams:
    """All learnable tensors of the sampler network, in a fixed order.

    ``groups[i]`` tags parameter i as 'main' or 'aux'; the aux group (the
    marginal logit vector) trains with a higher learning rate.
    """

    def __init__(self, cfg: MaeConfig) -> None:
        self.cfg = cfg
        rng = np.random.default_rng(cfg.init_seed)
        w, v = cfg.width, cfg.num_vars
        self.params: list[Tensor] = []
        self.names: list[str] = []
        self.groups: list[str] = []

        def add(name: str, data: np.ndarray, group: str = "main") -> Tensor:
            t = tape.param(data)
            self.params.append(t)
            self.names.append(name)
            self.groups.append(group)
            return t

        fan_in = cfg.input_width
        self.w_in = add("w_in", rng.normal(0, np.sqrt(2.0 / fan_in), (fan_in, w)))
        self.b_in = add("b_in", np.zeros(w))
        self.block_weights = []
        for k in range(cfg.blocks):
            gamma = add(f"ln{k}.gamma", np.ones(w))
            beta = add(f"ln{k}.beta", np.zeros(w))
            if k == 0:
                self.block_weights.append((None, None, gamma, beta))
            else:
                wk = add(f"w{k}", rng.normal(0, np.sqrt(2.0 / w), (w, w)))
                bk = add(f"b{k}", np.zeros(w))
                self.block_weights.append((wk, bk, gamma, beta))
        self._trunk_params = tuple(self.params)
        # zero-initialized output head: the untrained sampler is exactly uniform
        self.w_out = add("w_out", np.zeros((w, v)))
        self.b_out = add("b_out", np.zeros(v))
        self.marginals = add("marginals", np.zeros(v), group="aux")
        if cfg.flow_head:
            self.w_flow = add("w_flow", np.zeros((w, 1)))
            self.b_flow = add("b_flow", np.zeros(1))
        else:
            self.w_flow = None
            self.b_flow = None

    @property
    def num_vars(self) -> int:
        return self.cfg.num_vars

    def prefix_trunk(self, X: np.ndarray, order) -> Tensor:
        """Trunk rows of every prefix of ``order`` on the tape, prefix-major.

        Returns ((|order| + 1) * n, width): block k holds the n rows of X
        masked to order[:k], block 0 the empty prefix.
        """
        return self._taped_blocks(*self._prefix_first_layer(X, order))

    def _prefix_first_layer(self, X: np.ndarray, order):
        """(z, w_in_grad): the first layer's output, without the bias, on every
        prefix of ``order``, and the function that maps its gradient to the
        input weights' gradient.

        The first layer is linear in its input, so prefix k's output is
        prefix k - 1's plus x_{order[k-1]} * w_in[order[k-1]]: one running sum
        along the order, in place of |order| + 1 masked rows of width |V|.
        Step k reaches every prefix from k on, so its weight row's gradient
        is X's column order[k-1] against the reversed running sum of gz.
        Both sums add one whole prefix block to the next in place.
        """
        X = np.asarray(X, dtype=np.float64)
        order = np.asarray(order, dtype=np.int64)
        w_in = self.w_in.data
        if X.ndim != 2 or X.shape[1] != len(w_in) or order.ndim != 1:
            raise ShapeMismatch(f"expected (batch, {len(w_in)}) inputs and an order, got {X.shape}")
        if len(np.unique(order[(order >= 0) & (order < len(w_in))])) != len(order):
            raise ShapeMismatch(f"order must list distinct columns in 0..{len(w_in) - 1}")
        xo = X.T[order]  # (|order|, n): the value each step adds, per row
        z = np.zeros((len(order) + 1, len(X), w_in.shape[1]))
        np.multiply(xo[:, :, None], w_in[order][:, None, :], out=z[1:])
        for k in range(1, len(z)):
            z[k] += z[k - 1]

        def w_in_grad(gz: np.ndarray) -> np.ndarray:
            after = gz.reshape(z.shape)[1:].copy()
            for k in range(len(after) - 2, -1, -1):
                after[k] += after[k + 1]
            grad = np.zeros_like(w_in)
            grad[order] = np.matmul(xo[:, None, :], after)[:, 0]
            return grad

        return z.reshape(-1, z.shape[2]), w_in_grad

    def _taped_blocks(self, z: np.ndarray, w_in_grad, head=None) -> Tensor:
        """The blocks on first-layer outputs z, then with ``head`` the logit of
        variable head[i] for row i, recorded as one tape node.

        The forward is ``_sliced_blocks_np``'s, slice by slice.  The node keeps z, its
        output and the last slice's intermediates; every other slice runs in
        a copy of its rows of z and keeps nothing, and ``_trunk_backward``
        runs it again and then overwrites z with its gradient.  ``w_in_grad``
        maps the gradient of z to the input weights' gradient.
        """
        slices = _row_slices(*z.shape)
        out = np.empty_like(z) if head is None else np.empty(len(z))
        last = None
        for s in slices:
            if s is slices[-1]:
                saved: list[tuple] = []
                h = self._blocks_np(z[s], saved)  # in z's own rows: never recomputed
                last = saved, h
            else:
                h = self._blocks_np(z[s].copy())
            out[s] = h if head is None else self._head_np(h, head[s])
        params = self._trunk_params + (() if head is None else (self.w_out, self.b_out))
        return tape._make(
            out, params, lambda g: self._trunk_backward(z, w_in_grad, head, last, g)
        )

    def _trunk_backward(self, z, w_in_grad, head, last, g: np.ndarray) -> None:
        """Push the node's output gradient g into the head's and the trunk's parameters.

        Slice by slice, last first: the last slice's intermediates are the
        ones the forward kept, every other slice's come from running its
        blocks again on its rows of z.  The gradient goes back through the
        head into that slice's trunk rows, then through the blocks into the
        slice's rows of gz, the first layer's output gradient, which takes
        z's own buffer: a slice's rows of z are last read when the slice runs
        again, or, for the last slice, whose kept intermediates may view
        them, when its gradient has gone through the blocks.  The input
        weights and bias take theirs from the whole buffer at the end.  The
        tape runs this once per graph.
        """
        slices = _row_slices(*z.shape)
        gz = z
        if head is not None:
            gw, gb = np.zeros_like(self.w_out.data), np.zeros_like(self.b_out.data)
        for s in reversed(slices):
            if s is slices[-1]:
                saved, h = last
            else:
                saved = []
                h = self._blocks_np(z[s].copy(), saved)
            gh = g[s]
            if head is not None:
                tape.pick_affine_grads(h, gh, head[s], gw, gb)
                gh = gh[:, None] * self.w_out.data.T[head[s]]
            gz[s] = self._blocks_backward(saved, gh)
        if head is not None:
            self.w_out.accumulate(gw)
            self.b_out.accumulate(gb)
        self.w_in.accumulate(w_in_grad(gz))
        self.b_in.accumulate(gz.sum(axis=0))

    def _blocks_backward(self, saved: list[tuple], g: np.ndarray) -> np.ndarray:
        """Push the gradient g of the blocks' output into the blocks' parameters;
        returns the gradient of their input, the first layer's output.

        Per block, last first: back through the activation slope and the
        layer norm, into the weight and bias of the block's affine map, then
        down the residual into the block's input.
        """
        for k in reversed(range(len(saved))):
            h_in, xhat, inv, slope = saved[k]
            wk, bk, gamma, beta = self.block_weights[k]
            gy = g * slope
            beta.accumulate(gy.sum(axis=0))
            gamma.accumulate((gy * xhat).sum(axis=0))
            dxhat = gy * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gz = inv * (dxhat - m1 - xhat * m2)
            if k > 0:
                wk.accumulate(h_in.T @ gz)
                bk.accumulate(gz.sum(axis=0))
                g = g + gz @ wk.data.T
        return gz

    def flow(self, trunk: Tensor) -> Tensor:
        """Scalar state-flow estimate per row: (B, width) -> (B,)."""
        if self.w_flow is None:
            raise ShapeMismatch("this network was built without a flow head")
        return tape.pick_affine(
            trunk, self.w_flow, self.b_flow, np.zeros(trunk.shape[0], dtype=np.int64)
        )

    def masked_logits(self, x: np.ndarray, vs, cols) -> Tensor:
        """Logit of variable vs[i] given input row i, on the gradient tape.

        Returns shape (B,).  ``x`` and ``cols`` are the compact input form
        described at ``_packed``.  Rows carrying no information at all (every
        input value zero) bypass the trunk and read the learnable
        marginal-logit vector instead, so the root conditionals of an
        unconditional model have their own direct parameters.  Rows that
        repeat another row's inputs and variable share its pass through the
        first layer, the blocks and the head; the gather that hands each row
        its logit sums the repeats' gradients on the way back.
        """
        vs = _row_vars(x, vs)
        packed = self._packed(x, cols)
        rows, inv = self._distinct_rows(packed, vs) or (None, None)
        z = self._first_layer(packed, rows)
        w_in_grad = functools.partial(self._first_layer_grad, packed, rows=rows)
        logits = self._taped_blocks(z, w_in_grad, vs if rows is None else vs[rows])
        if inv is not None:
            logits = tape.gather_1d(logits, inv)
        empty = ~(x != 0).any(axis=1)
        if not empty.any():
            return logits
        return tape.where(empty, tape.gather_1d(self.marginals, vs), logits)

    # -- the forward itself, on raw arrays -----------------------------------
    #
    # The taped and the gradient-free calls both run the code below; only the
    # taped ones keep intermediates.  The input is compact: only some input
    # columns, every coordinate not listed being zero.  An (E, K) ``cols``
    # splits x into E equal blocks of consecutive rows, x[i, k] in block e is
    # input coordinate cols[e, k], and a slot whose column is -1 is unused
    # and holds 0.
    # The first layer groups the blocks by their number of used slots and
    # gathers only the weight rows those slots name; its backward sorts the
    # used slots by column, one range of columns at a time, and sums each
    # column's segment into its row of the input weights.

    def _act_np(self, z: np.ndarray, slope: bool = False):
        """The nonlinearity, in place; with ``slope``, returns its derivative at z.

        ``fmax`` maps NaN to 0, and a NaN's relu slope is 0.  elu is
        max(z, 0) + (exp(min(z, 0)) - 1), which adds an exact 0 to one of the
        two branches; its slope (exp(min(z, 0)) - 1) + 1 is exactly 1 for z > 0.
        """
        if self.cfg.activation == "relu":
            d = z > 0 if slope else None
            np.fmax(z, 0.0, out=z)
            return d
        neg = np.minimum(z, 0.0)
        np.exp(neg, out=neg)
        neg -= 1.0
        np.maximum(z, 0.0, out=z)
        z += neg
        if slope:
            neg += 1.0
            return neg
        return None

    def _packed(self, x: np.ndarray, cols):
        """The checked compact form (x3, cols, counts).

        x3 is x as (E, n, K) blocks, each block's used slots moved to the
        front in their order, and counts[e] is the number of used slots of
        block e: block e reads x3[e, :, :counts[e]] and cols[e, :counts[e]].
        """
        width = self.w_in.data.shape[0]
        cols = np.asarray(cols)
        if cols.dtype.kind not in "iu":
            cols = cols.astype(np.int64)
        blocks, k = cols.shape if cols.ndim == 2 else (0, -1)
        if x.ndim != 2 or x.shape[1] != k or (len(x) and (blocks == 0 or len(x) % blocks)):
            raise ShapeMismatch(f"inputs {x.shape} do not split into blocks of columns {cols.shape}")
        if cols.size and not (-1 <= cols.min() and cols.max() < width):
            raise ShapeMismatch(f"input columns must lie in -1..{width - 1}")
        used = cols >= 0
        x3 = x.reshape(blocks, len(x) // max(blocks, 1), k)
        if (used[:, 1:] > used[:, :-1]).any():
            front = np.argsort(~used, axis=1, kind="stable")
            cols = np.take_along_axis(cols, front, axis=1)
            used = np.take_along_axis(used, front, axis=1)
            x3 = np.take_along_axis(x3, front[:, None, :], axis=2)
        return x3, cols, used.sum(axis=1)

    def _first_layer(self, packed, rows=None) -> np.ndarray:
        """Input rows times the input weights, without the bias: (B, width),
        or with ``rows`` one output row per input row named there.

        Blocks go by runs of equal count: in place when every block is read
        and they are in order of count, else each piece gathers its own
        blocks by index and writes their rows.  With ``rows`` only the blocks
        holding those rows are read, each by the product it gets in the whole
        batch; from blocks of several rows the named rows are then picked.
        """
        w_in = self.w_in.data
        x3, cols, counts = packed
        n, width = x3.shape[1], w_in.shape[1]
        blocks = None if rows is None else np.unique(rows // n)
        if blocks is not None and len(blocks) == len(counts):
            blocks = None  # every block holds one of the rows: all are read
        c = counts if blocks is None else counts[blocks]
        z = np.empty((len(c), n, width))
        if blocks is None and not (c[1:] < c[:-1]).any():
            if len(c) and c[0] == 0:
                z[: np.searchsorted(c, 1)] = 0.0
            for a, b, k in _count_runs(c, n, width):
                np.matmul(x3[a:b, :, :k], w_in[cols[a:b, :k]], out=z[a:b])
        else:
            z[c == 0] = 0.0
            order = np.argsort(c, kind="stable")
            at = order if blocks is None else blocks[order]
            for a, b, k in _count_runs(c[order], n, width):
                z[order[a:b]] = np.matmul(x3[at[a:b], :, :k], w_in[cols[at[a:b], :k]])
        z = z.reshape(len(c) * n, width)
        if rows is None or len(rows) == len(z):
            return z
        return z[rows if blocks is None else np.searchsorted(blocks, rows // n) * n + rows % n]

    def _first_layer_grad(self, packed, gz: np.ndarray, rows=None) -> np.ndarray:
        """Gradient of the input weights given the first layer's output gradient gz.

        With ``rows``, gz has one row per input row named there and the other
        rows contribute nothing: each group of equal rows counts once.
        """
        x3, cols, _ = packed
        n = x3.shape[1]
        x2 = x3.reshape(x3.shape[0] * n, x3.shape[2])
        cols = cols.astype(index_dtype(len(self.w_in.data)), copy=False)
        if rows is not None:
            cols, x2 = cols[rows // n], x2[rows]
        elif n != 1:
            cols = np.repeat(cols, n, axis=0)
        grad = np.zeros_like(self.w_in.data)
        # one range of columns at a time, about _GRAD_ENTRIES used (row of gz,
        # slot) entries: the entries in order of row and slot, then stably
        # sorted by column (a radix sort on small integers), give one segment
        # per used column, its values against its rows of gz
        pieces = -(-np.count_nonzero(cols >= 0) // _GRAD_ENTRIES)
        for p in range(pieces):
            lo, hi = len(grad) * p // pieces, len(grad) * (p + 1) // pieces
            take = (cols >= lo) & (cols < hi)
            at = np.repeat(np.arange(len(cols), dtype=index_dtype(len(cols))), take.sum(axis=1))
            col, val = cols[take], x2[take]
            del take  # arrays one entry long dominate the memory here: hold few at once
            order = np.argsort(col, kind="stable")
            at, val, col = at[order], val[order], col[order]
            del order
            if not len(col):
                continue
            starts = [0, *(np.flatnonzero(col[1:] != col[:-1]) + 1).tolist()]
            for c, a, b in zip(col[starts].tolist(), starts, [*starts[1:], len(col)]):
                grad[c] = val[a:b] @ gz[at[a:b]]
        return grad

    def _sliced_blocks_np(self, h: np.ndarray) -> np.ndarray:
        """The blocks in h's own buffer, slice by slice (see ``_row_slices``)."""
        for s in _row_slices(*h.shape):
            self._blocks_np(h[s])
        return h

    def _head_np(self, h: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Logit of variable vs[i] for trunk row i: (B, width) -> (B,)."""
        return np.einsum("ij,ij->i", h, self.w_out.data.T[vs]) + self.b_out.data[vs]

    def _blocks_np(self, h: np.ndarray, saved: list | None = None) -> np.ndarray:
        """The trunk's blocks on first-layer outputs h (no bias yet); returns their output.

        Without ``saved`` every block works in h's own buffer.  With a list,
        each block appends what its backward needs — its input (None for the
        first block, whose input is the network input), its normalized values,
        1/sigma and the activation slope — and the residual sums go to fresh
        arrays so that each block's input survives.
        """
        eps = _LN_EPS
        keep = saved is not None
        z = sq = None
        for k, (wk, bk, gamma, beta) in enumerate(self.block_weights):
            if k == 0:
                z = h
                z += self.b_in.data
                sq = np.empty_like(h)
            else:
                z = _matmul(h, wk.data, out=None if k == 1 else z)
                z += bk.data
            z -= z.mean(axis=-1, keepdims=True)
            var = np.multiply(z, z, out=sq).mean(axis=-1, keepdims=True)
            var += eps
            inv = 1.0 / np.sqrt(var, out=var)
            z *= inv
            xhat = z.copy() if keep else None
            z *= gamma.data
            z += beta.data
            slope = self._act_np(z, keep)
            if keep:
                saved.append((h if k > 0 else None, xhat, inv, slope))
            if k > 0:
                h = np.add(h, z, out=None if keep else h)
        return h

    def masked_logits_np(self, x: np.ndarray, vs, cols) -> np.ndarray:
        """Gradient-free ``masked_logits``."""
        vs = _row_vars(x, vs)
        packed = self._packed(x, cols)
        rows, inv = self._distinct_rows(packed, vs) or (None, None)
        h = self._first_layer(packed, rows)
        logits = self._head_np(self._sliced_blocks_np(h), vs if rows is None else vs[rows])
        if inv is not None:
            logits = logits[inv]
        empty = ~(x != 0).any(axis=1)
        if not empty.any():
            return logits
        return np.where(empty, self.marginals.data[vs], logits)

    def _row_keys(self, packed, vs: np.ndarray) -> np.ndarray:
        """One number per row: equal for rows with equal variable, columns and
        values, and otherwise different unless fixed random weights tie.

        Values and columns are weighted by slot, so a listed column holding 0,
        reordered columns and repeated columns whose values cancel all change
        the key as they change the input.  The columns enter as an exact
        integer, scaled down so that the values' term still shows beside it.
        ``einsum`` sums each row alike wherever it sits in the batch.
        """
        key = _key_weights(self.cfg.num_vars)[vs]
        x3, cols, _ = packed
        k = x3.shape[2]
        col_key = np.einsum("ek,k->e", cols, _key_weights(k, integer=True)) * 2.0**-32
        key += (np.einsum("enk,k->en", x3, _key_weights(k)) + col_key[:, None]).ravel()
        return key

    def _distinct_rows(self, packed, vs: np.ndarray):
        """(rows, inv) when enough rows repeat, else None.

        ``rows`` lists, ascending, the first row of each group of rows with
        the same variable, the same input columns and the same input values,
        and row i's group is inv[i].  Rows are sorted by ``_row_keys`` so that
        candidates sit side by side, and a neighbour joins a group only if its
        variable, values and columns compare equal, so a key collision never
        merges different rows and a row holding NaN never joins another.
        """
        n_rows = len(vs)
        # row numbers as narrow as they fit, with room for n_rows itself, so
        # that a row number divides by the block size without overflow
        at = index_dtype(n_rows + 1)
        key = self._row_keys(packed, vs)
        order = np.argsort(key).astype(at)
        key = key[order]
        least = max(1.0, _MIN_REPEAT_SHARE * n_rows)
        pair = np.flatnonzero(key[1:] == key[:-1]).astype(at)  # candidates: sorted rows j, j + 1
        if len(pair) < least:
            return None
        a, b = order[pair], order[pair + 1]
        x3, cols, _ = packed
        vals, n = x3.reshape(n_rows, -1), x3.shape[1]
        same, ba, bb = vs[a] == vs[b], a // n, b // n
        for k in range(vals.shape[1]):  # slot by slot: one bool per pair
            same &= (vals[a, k] == vals[b, k]) & (cols[ba, k] == cols[bb, k])
        if same.sum() < least:
            return None
        start = np.ones(n_rows, dtype=bool)
        start[pair[same] + 1] = False
        first = np.minimum.reduceat(order, np.flatnonzero(start))
        by_row = np.argsort(first).astype(at)
        renumber = np.empty_like(by_row)
        renumber[by_row] = np.arange(len(by_row), dtype=at)
        inv = np.empty(n_rows, dtype=at)
        inv[order] = renumber[np.cumsum(start, dtype=at) - 1]
        return first[by_row], inv

    # -- flat views for checkpoints and finite differences -------------------

    def pack(self) -> np.ndarray:
        return np.concatenate([p.data.ravel() for p in self.params])

    def unpack(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat)
        if flat.size != sum(p.data.size for p in self.params):
            raise ShapeMismatch("flat parameter vector has wrong length")
        k = 0
        for p in self.params:
            n = p.data.size
            p.data = flat[k : k + n].reshape(p.data.shape).astype(p.data.dtype)
            k += n

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def _row_slices(n: int, width: int) -> list[slice]:
    """The row slices, first to last, on which the blocks run for n rows of
    the given width: small enough that a slice's buffers stay in cache."""
    step = max(1, _BLOCK_ELEMENTS // width)
    return [slice(a, a + step) for a in range(0, n, step)]


def _count_runs(counts: np.ndarray, n: int, width: int):
    """(a, b, k): the runs of ascending ``counts`` equal to k > 0, for blocks
    of n rows, cut so that a piece's gathered inputs and weights stay near
    ``_GATHER_ELEMENTS`` elements."""
    if len(counts) == 0:
        return
    # one run when the first and last counts agree, the common case of a level
    cuts = [] if counts[0] == counts[-1] else (np.flatnonzero(np.diff(counts)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(counts)]):
        k = int(counts[a])
        if k == 0:
            continue
        step = max(1, _GATHER_ELEMENTS // (k * (n + width)))
        for lo in range(a, b, step):
            yield lo, min(lo + step, b), k


@functools.lru_cache(maxsize=64)
def _key_weights(n: int, integer: bool = False) -> np.ndarray:
    """n fixed random weights for ``MaeParams._row_keys``, normal or integer."""
    rng = np.random.default_rng(_KEY_SEED + n)
    w = rng.integers(1, 1 << 20, n) if integer else rng.standard_normal(n)
    w.flags.writeable = False
    return w


def _matmul(h: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """h @ w by the matrix-matrix kernel, for one row too.

    numpy hands a single row to the matrix-vector kernel, whose sums can
    differ from the matrix-matrix kernel's in the last bit; a row's outputs
    would then depend on the batch it came in.
    """
    if len(h) != 1:
        return np.matmul(h, w, out=out)
    return np.matmul(np.repeat(h, 2, axis=0), w)[:1]


def _row_vars(x: np.ndarray, vs) -> np.ndarray:
    vs = np.asarray(vs, dtype=np.int64)
    if vs.shape != (x.shape[0],):
        raise ShapeMismatch(f"need one variable per row: {x.shape[0]} rows, vs {vs.shape}")
    return vs


# ---------------------------------------------------------------------------
# checkpoints: header + flat little-endian parameters.  Parameters are written
# at 64 bits; files that store them at 32 bits still load.  The header's
# conditioning count is always 0: a network that had a conditioning block is
# refused.  Files that carry an optimizer blob (flag 2) still load; the
# blob's length is checked and the blob dropped.


def save_checkpoint(mae: MaeParams, path: str) -> None:
    cfg = mae.cfg
    flags = 0
    if cfg.flow_head:
        flags |= 1
    if cfg.activation == "elu":
        flags |= 4
    flat = mae.pack()
    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                "<4sIIIIIII",
                _CKPT_MAGIC,
                _CKPT_VERSION,
                cfg.num_vars,
                cfg.width,
                cfg.blocks,
                64,
                flags,
                0,
            )
        )
        fh.write(struct.pack("<Q", flat.size))
        fh.write(flat.astype("<f8").tobytes())


def load_checkpoint(path: str, init_seed: int = 0) -> MaeParams:
    """The network a checkpoint holds, its weights fully restored."""
    with open(path, "rb") as fh:
        magic, version, num_vars, width, blocks, float_bits, flags, n_cond = struct.unpack(
            "<4sIIIIIII", read_exact(fh, 32, path, "header")
        )
        if magic != _CKPT_MAGIC:
            raise CorruptFile(f"{path}: bad magic {magic!r}")
        if version != _CKPT_VERSION:
            raise CorruptFile(f"{path}: unsupported version {version}")
        if float_bits not in (32, 64):
            raise CorruptFile(f"{path}: unsupported float width {float_bits}")
        if min(num_vars, width, blocks) < 1:
            raise CorruptFile(
                f"{path}: num_vars, width and blocks must be positive, "
                f"got {num_vars}, {width}, {blocks}"
            )
        if n_cond:
            raise CorruptFile(
                f"{path}: the network has a conditioning block of {n_cond} values; "
                "conditioning-block checkpoints are no longer read"
            )
        (n_params,) = struct.unpack("<Q", read_exact(fh, 8, path, "parameter count"))
        cfg = MaeConfig(
            num_vars=num_vars,
            width=width,
            blocks=blocks,
            activation="elu" if flags & 4 else "relu",
            flow_head=bool(flags & 1),
            init_seed=init_seed,
        )
        # checked before anything of the header's size is read or allocated
        if n_params != cfg.param_count:
            raise CorruptFile(
                f"{path}: {n_params} parameters stored, the header implies {cfg.param_count}"
            )
        dt = "<f8" if float_bits == 64 else "<f4"
        flat = np.frombuffer(
            read_exact(fh, n_params * (float_bits // 8), path, "parameters"), dtype=dt
        ).astype(np.float64)
        mae = MaeParams(cfg)
        mae.unpack(flat)
        if flags & 2:
            # step count, base rate and both moments of an optimizer: read, not kept
            read_exact(fh, 16 + 2 * n_params * 8, path, "optimizer state")
    return mae
