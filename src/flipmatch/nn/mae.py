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
computes that one logit per row.  The gradient-free forward can also take
only the nonzero input columns (a variable's parents and the conditioning
block) together with their indices, so its first layer reads just those rows
of the input weights; one batch may hold many variables, each with its own
columns, as the sampler's wavefront walk needs.  A separate learnable logit
vector handles the no-information case (all-zero input), and an optional
scalar head on the same trunk provides state-flow estimates for the
balance-based objectives.
Optionally the input is extended with a conditioning block: extra always-on
coordinates carrying observed values for latent-variable posteriors.

The forward exists once, written in place on raw arrays.  The gradient-free
calls (``masked_logits_np``, ``trunk_np``) run it on cache-sized row slices
and keep nothing.  The taped calls (``masked_logits``, ``trunk``) run it on
the whole batch, keep each block's input, normalized values, 1/sigma and
activation slope, and record the trunk as one tape node whose backward walks
the blocks in reverse; the heads are ordinary tape ops on top of that node.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class MaeConfig:
    num_vars: int
    width: int = 512
    blocks: int = 3
    activation: str = "relu"
    ln_eps: float = 1e-5
    flow_head: bool = False
    cond_vars: tuple[int, ...] = ()
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if self.num_vars < 1 or self.width < 1 or self.blocks < 1:
            raise ValueError("num_vars, width, and blocks must be positive")

    @property
    def input_width(self) -> int:
        return self.num_vars + len(self.cond_vars)


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

    def trunk(self, x: np.ndarray) -> Tensor:
        """Shared trunk on the tape: rows of masked inputs (B, input_width) -> (B, width).

        The forward is the one ``trunk_np`` runs, on the whole batch at once,
        with each block keeping what its gradient needs; the trunk is then a
        single tape node whose backward walks the blocks in reverse.
        """
        saved: list[tuple] = []
        h = self._blocks_np(self._input_layer_np(x, None), saved)
        return tape._make(h, self._trunk_params, lambda g: self._trunk_backward(x, saved, g))

    def _trunk_backward(self, x: np.ndarray, saved: list[tuple], g: np.ndarray) -> None:
        """Push the trunk output's gradient g into the trunk's parameters.

        Per block, last first: back through the activation slope and the
        layer norm, into the weight and bias of the block's affine map, then
        down the residual into the block's input.
        """
        for k in reversed(range(len(saved))):
            h_in, xhat, inv, slope = saved[k]
            wk, bk, gamma, beta = self.block_weights[k]
            if k == 0:
                h_in, wk, bk = x, self.w_in, self.b_in
            gy = g * slope
            beta.accumulate(gy.sum(axis=0))
            gamma.accumulate((gy * xhat).sum(axis=0))
            dxhat = gy * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gz = inv * (dxhat - m1 - xhat * m2)
            wk.accumulate(h_in.T @ gz)
            bk.accumulate(gz.sum(axis=0))
            if k > 0:
                g = g + gz @ wk.data.T

    def logits(self, trunk: Tensor, vs: np.ndarray) -> Tensor:
        """Head logit of variable vs[i] for trunk row i: (B, width) -> (B,)."""
        return tape.pick_affine(trunk, self.w_out, self.b_out, vs)

    def flow(self, trunk: Tensor) -> Tensor:
        """Scalar state-flow estimate per row: (B, width) -> (B,)."""
        if self.w_flow is None:
            raise ShapeMismatch("this network was built without a flow head")
        return tape.pick_affine(
            trunk, self.w_flow, self.b_flow, np.zeros(trunk.shape[0], dtype=np.int64)
        )

    def masked_logits(self, x: np.ndarray, vs) -> Tensor:
        """Logit of variable vs[i] given masked input row i, on the gradient tape.

        Returns shape (B,).  Rows carrying no information at all (every
        coordinate zero) bypass the trunk and read the learnable marginal-logit
        vector instead, so the root conditionals of an unconditional model have
        their own direct parameters.
        """
        vs = _row_vars(x, vs)
        logits = self.logits(self.trunk(x), vs)
        empty = np.abs(x).sum(axis=1) == 0
        if not empty.any():
            return logits
        return tape.where(empty, tape.gather_1d(self.marginals, vs), logits)

    # -- the forward itself, on raw arrays -----------------------------------
    #
    # ``trunk`` and ``trunk_np`` both run the code below; only ``trunk`` keeps
    # intermediates.  ``cols`` lets a gradient-free caller pass only some input
    # columns, every coordinate not listed being zero: an (E, K) ``cols``
    # splits x into E equal blocks of consecutive rows, and x[i, k] in block e
    # is input coordinate cols[e, k].  The first layer gathers one weight
    # block per block of rows, not per row.

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

    def _input_layer_np(self, x: np.ndarray, cols) -> np.ndarray:
        w_in = self.w_in.data
        if cols is None:
            if x.ndim != 2 or x.shape[1] != w_in.shape[0]:
                raise ShapeMismatch(f"expected (batch, {w_in.shape[0]}) inputs, got {x.shape}")
            return x @ w_in
        cols = np.asarray(cols, dtype=np.int64)
        blocks, k = cols.shape if cols.ndim == 2 else (0, -1)
        if x.ndim != 2 or x.shape[1] != k or blocks == 0 or x.shape[0] % blocks:
            raise ShapeMismatch(f"inputs {x.shape} do not split into blocks of columns {cols.shape}")
        z = np.matmul(x.reshape(blocks, x.shape[0] // blocks, k), w_in[cols])
        return z.reshape(x.shape[0], w_in.shape[1])

    def trunk_np(self, x: np.ndarray, cols=None) -> np.ndarray:
        """Gradient-free trunk: (B, input_width) rows, or (B, K) with ``cols``."""
        h = self._input_layer_np(x, cols)
        # the blocks run on row slices small enough that their buffers stay in cache
        step = max(1, _BLOCK_ELEMENTS // h.shape[1])
        for a in range(0, h.shape[0], step):
            self._blocks_np(h[a : a + step])
        return h

    def _blocks_np(self, h: np.ndarray, saved: list | None = None) -> np.ndarray:
        """The trunk's blocks on first-layer outputs h (no bias yet); returns their output.

        Without ``saved`` every block works in h's own buffer.  With a list,
        each block appends what its backward needs — its input (None for the
        first block, whose input is the network input), its normalized values,
        1/sigma and the activation slope — and the residual sums go to fresh
        arrays so that each block's input survives.
        """
        eps = self.cfg.ln_eps
        keep = saved is not None
        z = sq = None
        for k, (wk, bk, gamma, beta) in enumerate(self.block_weights):
            if k == 0:
                z = h
                z += self.b_in.data
                sq = np.empty_like(h)
            else:
                z = np.matmul(h, wk.data, out=None if k == 1 else z)
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

    def masked_logits_np(self, x: np.ndarray, vs, cols=None) -> np.ndarray:
        """Gradient-free ``masked_logits``, with the optional ``cols`` input form."""
        vs = _row_vars(x, vs)
        h = self.trunk_np(x, cols)
        logits = np.einsum("ij,ij->i", h, self.w_out.data.T[vs]) + self.b_out.data[vs]
        empty = np.abs(x).sum(axis=1) == 0
        if not empty.any():
            return logits
        return np.where(empty, self.marginals.data[vs], logits)

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


def _row_vars(x: np.ndarray, vs) -> np.ndarray:
    vs = np.asarray(vs, dtype=np.int64)
    if vs.shape != (x.shape[0],):
        raise ShapeMismatch(f"need one variable per row: {x.shape[0]} rows, vs {vs.shape}")
    return vs


# ---------------------------------------------------------------------------
# checkpoints: header + flat little-endian parameters + optional Adam state.
# Parameters are written at 64 bits; files that store them at 32 bits still load.


def save_checkpoint(mae: MaeParams, path: str, adam=None) -> None:
    cfg = mae.cfg
    flags = 0
    if cfg.flow_head:
        flags |= 1
    if adam is not None:
        flags |= 2
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
                len(cfg.cond_vars),
            )
        )
        if cfg.cond_vars:
            fh.write(np.asarray(cfg.cond_vars, dtype="<u4").tobytes())
        fh.write(struct.pack("<Q", flat.size))
        fh.write(flat.astype("<f8").tobytes())
        if adam is not None:
            fh.write(struct.pack("<Qd", adam.step_count, adam.base_lr))
            fh.write(adam.pack_moments().astype("<f8").tobytes())


def load_checkpoint(path: str, init_seed: int = 0):
    """Returns (MaeParams, adam_state_blob | None).

    The optimizer blob is (step_count, base_lr, moments) for the trainer to
    restore; network weights are fully restored here.
    """
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
        cond_vars = ()
        if n_cond:
            raw = read_exact(fh, 4 * n_cond, path, "conditioning block")
            cond_vars = tuple(int(x) for x in np.frombuffer(raw, dtype="<u4"))
        (n_params,) = struct.unpack("<Q", read_exact(fh, 8, path, "parameter count"))
        dt = "<f8" if float_bits == 64 else "<f4"
        flat = np.frombuffer(
            read_exact(fh, n_params * (float_bits // 8), path, "parameters"), dtype=dt
        ).astype(np.float64)
        cfg = MaeConfig(
            num_vars=num_vars,
            width=width,
            blocks=blocks,
            activation="elu" if flags & 4 else "relu",
            flow_head=bool(flags & 1),
            cond_vars=cond_vars,
            init_seed=init_seed,
        )
        mae = MaeParams(cfg)
        mae.unpack(flat)
        adam_blob = None
        if flags & 2:
            opt_head = read_exact(fh, 16, path, "optimizer header")
            step_count, base_lr = struct.unpack("<Qd", opt_head)
            moments = np.frombuffer(
                read_exact(fh, 2 * n_params * 8, path, "optimizer moments"), dtype="<f8"
            ).copy()
            adam_blob = (step_count, base_lr, moments)
    return mae, adam_blob
