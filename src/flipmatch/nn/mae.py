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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
    dtype: str = "float64"
    ln_eps: float = 1e-5
    flow_head: bool = False
    cond_vars: tuple[int, ...] = ()
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be float64 or float32")
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
        dt = np.float64 if cfg.dtype == "float64" else np.float32
        w, v = cfg.width, cfg.num_vars
        self.params: list[Tensor] = []
        self.names: list[str] = []
        self.groups: list[str] = []

        def add(name: str, data: np.ndarray, group: str = "main") -> Tensor:
            t = tape.param(data.astype(dt))
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
        # zero-initialized output head: the untrained sampler is exactly uniform
        self.w_out = add("w_out", np.zeros((w, v)))
        self.b_out = add("b_out", np.zeros(v))
        self.marginals = add("marginals", np.zeros(v), group="aux")
        if cfg.flow_head:
            self.w_flow = add("w_flow", np.zeros(w))
            self.b_flow = add("b_flow", np.zeros(1))
        else:
            self.w_flow = None
            self.b_flow = None

    @property
    def num_vars(self) -> int:
        return self.cfg.num_vars

    def _act(self, x: Tensor) -> Tensor:
        return tape.relu(x) if self.cfg.activation == "relu" else tape.elu(x)

    def trunk(self, x: np.ndarray) -> Tensor:
        """Shared trunk: rows of masked inputs (B, input_width) -> (B, width)."""
        if x.ndim != 2 or x.shape[1] != self.cfg.input_width:
            raise ShapeMismatch(
                f"expected (batch, {self.cfg.input_width}) inputs, got {x.shape}"
            )
        xc = tape.const(x)
        h = None
        for k, (wk, bk, gamma, beta) in enumerate(self.block_weights):
            if k == 0:
                z = tape.matmul(xc, self.w_in) + self.b_in
                h = self._act(tape.layer_norm(z, gamma, beta, self.cfg.ln_eps))
            else:
                z = tape.matmul(h, wk) + bk
                h = h + self._act(tape.layer_norm(z, gamma, beta, self.cfg.ln_eps))
        return h

    def logits(self, trunk: Tensor, vs: np.ndarray) -> Tensor:
        """Head logit of variable vs[i] for trunk row i: (B, width) -> (B,)."""
        return tape.pick_affine(trunk, self.w_out, self.b_out, vs)

    def flow(self, trunk: Tensor) -> Tensor:
        """Scalar state-flow estimate per row: (B, width) -> (B,)."""
        if self.w_flow is None:
            raise ShapeMismatch("this network was built without a flow head")
        prod = tape.mul(trunk, self.w_flow)
        rows = tape.segment_sum(
            _flatten(prod),
            np.repeat(np.arange(trunk.shape[0]), trunk.shape[1]),
            trunk.shape[0],
        )
        return rows + gather_broadcast(self.b_flow, trunk.shape[0])

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

    # -- gradient-free twin, for the sampling inner loop ----------------------
    #
    # Same arithmetic as the tape path, in the same op order, written against
    # raw arrays and updating one buffer in place.  The test suite holds these
    # to exact agreement, so any change here must be mirrored above (and vice
    # versa).  ``cols`` additionally lets a caller pass only some input
    # columns, every coordinate not listed being zero: an (E, K) ``cols``
    # splits x into E equal blocks of consecutive rows, and x[i, k] in block e
    # is input coordinate cols[e, k].  The first layer gathers one weight
    # block per block of rows, not per row.

    def _act_np(self, z: np.ndarray) -> None:
        """The nonlinearity, in place, equal to the tape's where(z > 0, z, f(z)).

        ``fmax`` maps NaN to 0 as the tape's relu does.  For elu, max(z, 0)
        plus exp(min(z, 0)) - 1 adds an exact 0 to one of the two branches.
        """
        if self.cfg.activation == "relu":
            np.fmax(z, 0.0, out=z)
            return
        neg = np.minimum(z, 0.0)
        np.exp(neg, out=neg)
        neg -= 1.0
        np.maximum(z, 0.0, out=z)
        z += neg

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
        h = self._input_layer_np(x, cols)
        # the blocks run on row slices small enough that their buffers stay in cache
        step = max(1, _BLOCK_ELEMENTS // h.shape[1])
        for a in range(0, h.shape[0], step):
            self._blocks_np(h[a : a + step])
        return h

    def _blocks_np(self, h: np.ndarray) -> None:
        """The trunk's blocks on first-layer outputs h (no bias yet), in place."""
        eps = self.cfg.ln_eps
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
            z *= 1.0 / np.sqrt(var, out=var)
            z *= gamma.data
            z += beta.data
            self._act_np(z)
            if k > 0:
                h += z

    def masked_logits_np(self, x: np.ndarray, vs, cols=None) -> np.ndarray:
        vs = _row_vars(x, vs)
        h = self.trunk_np(x, cols)
        logits = np.einsum("ij,ij->i", h, self.w_out.data.T[vs]) + self.b_out.data[vs]
        empty = np.abs(x).sum(axis=1) == 0
        if not empty.any():
            return logits
        return np.where(empty, self.marginals.data[vs], logits)

    # -- flat views for checkpoints and finite differences -------------------

    def pack(self) -> np.ndarray:
        return np.concatenate([p.data.ravel().astype(np.float64) for p in self.params])

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


def _flatten(t: Tensor) -> Tensor:
    flat_data = t.data.reshape(-1)

    def back(g):
        t.accumulate(g.reshape(t.data.shape))

    return tape._make(flat_data, (t,), back)


def gather_broadcast(t: Tensor, n: int) -> Tensor:
    """Broadcast a length-1 tensor to length n (gradient sums back)."""
    return tape.gather_1d(t, np.zeros(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# checkpoints: header + flat little-endian parameters + optional Adam state


def save_checkpoint(mae: MaeParams, path: str, adam=None) -> None:
    cfg = mae.cfg
    flags = 0
    if cfg.flow_head:
        flags |= 1
    if adam is not None:
        flags |= 2
    if cfg.activation == "elu":
        flags |= 4
    float_bits = 64 if cfg.dtype == "float64" else 32
    flat = mae.pack()
    dt = "<f8" if float_bits == 64 else "<f4"
    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                "<4sIIIIIII",
                _CKPT_MAGIC,
                _CKPT_VERSION,
                cfg.num_vars,
                cfg.width,
                cfg.blocks,
                float_bits,
                flags,
                len(cfg.cond_vars),
            )
        )
        if cfg.cond_vars:
            fh.write(np.asarray(cfg.cond_vars, dtype="<u4").tobytes())
        fh.write(struct.pack("<Q", flat.size))
        fh.write(flat.astype(dt).tobytes())
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
            dtype="float64" if float_bits == 64 else "float32",
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
