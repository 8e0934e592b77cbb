"""Training objectives for the amortized sampler.

The centerpiece is the local flip-matching loss: when one variable u flips,
the change in the model's log-reward must equal the change in the sampler's
log-probability, and the latter only involves the conditionals of u and its
children.  Squared mismatch of those two quantities, zero for every flip
exactly when the sampler is the target distribution.  Everything the loss
reads lives in u's neighborhood, which is what lets training drop the
full-sample sweep entirely.

Also here: the trajectory-balance family (full-trajectory, detailed per-step,
and the λ-weighted sub-range decomposition) with learnable state flows, and
the forward-looking flow that learns only a correction on top of the
partially accumulated reward.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from flipmatch.energy import (
    ZERO_MASKED,
    Assignment,
    EnergyModel,
    _values_of,
)
from flipmatch.errors import (
    ConfigError,
    EmptyBatch,
    MissingBlanket,
    OrderViolation,
    PartialAssignment,
    SameValue,
    TooFewChildren,
)
from flipmatch.graph import Imap
from flipmatch.nn import tape
from flipmatch.nn.mae import MaeParams
from flipmatch.nn.tape import Tensor
from flipmatch.sampler import masked_parent_rows

__all__ = [
    "LOGQ_FLOOR",
    "LogZEstimate",
    "FlowHead",
    "fl_flow",
    "delta_loss",
    "delta_loss_batch",
    "delta_loss_stochastic_grad",
    "tb_loss",
    "tb_loss_batch",
    "db_loss",
    "db_trajectory_loss",
    "subtb_loss",
    "subtb_loss_batch",
]

# conditionals are floored here (log-space) so early-training near-determinism
# cannot produce infinite residuals
LOGQ_FLOOR = -30.0


class LogZEstimate:
    """A single learnable scalar for the log-normalizer."""

    def __init__(self, initial: float = 0.0) -> None:
        if not np.isfinite(initial):
            raise ConfigError("log Z estimate must start finite")
        self.value = tape.param(np.asarray(float(initial)))

    def item(self) -> float:
        return float(self.value.data)


class FlowHead:
    """Learnable state flows on partial assignments.

    Wraps a network with a scalar head.  In plain mode the head's output is
    log F directly; in forward-looking mode it is a log-space correction added
    to the partially accumulated reward, so the network only learns what the
    already-visible factors miss.  Terminal states never consult the network:
    their flow is the reward, substituted structurally.
    """

    def __init__(
        self,
        params: MaeParams,
        forward_looking: bool = False,
        reward_mode: str = ZERO_MASKED,
    ) -> None:
        if params.w_flow is None:
            raise ConfigError("flow head requires a network built with one")
        self.params = params
        self.forward_looking = forward_looking
        self.reward_mode = reward_mode

    def correction_rows(self, rows: np.ndarray) -> Tensor:
        return self.params.flow(self.params.trunk(rows))

    def log_flow_rows(self, m: EnergyModel, rows: np.ndarray) -> Tensor:
        """log F for a batch of masked rows, terminal rows pinned to log R."""
        rows = np.asarray(rows, dtype=np.float64)
        full = np.all(rows != 0, axis=1)
        out = self.correction_rows(rows)
        if self.forward_looking:
            out = out + m.partial_reward_batch(rows, self.reward_mode)
        if not full.any():
            return out
        pinned = np.zeros(rows.shape[0])
        pinned[full] = m.log_reward_batch(rows[full].astype(np.int8))
        return tape.where(full, tape.const(pinned), out)


def fl_flow(flow: FlowHead, m: EnergyModel, x, mode: str = ZERO_MASKED) -> Tensor:
    """Forward-looking log-flow of one partial assignment: correction + reward.

    No terminal substitution happens here — the balance losses pin terminals
    themselves — so a full assignment evaluates to log R plus the correction.
    """
    vals = _values_of(x)
    corr = flow.correction_rows(vals[None, :].astype(np.float64))
    partial = m.partial_reward(Assignment(vals), mode)
    return corr.sum() + float(partial)


# ---------------------------------------------------------------------------
# flip matching


def _clamped_logq(s, inputs: np.ndarray, vs, signs, cond=None) -> Tensor:
    return tape.clamp_min(s.logq_rows(inputs, vs, signs, cond), LOGQ_FLOOR)


def _check_flip_args(imap: Imap, vals: np.ndarray, u: int, new) -> None:
    if new == vals[u]:
        raise SameValue(f"flip at {u} must change the value, got {new} twice")
    needed = {u, *imap.parents[u], *imap.children[u]}
    for c in imap.children[u]:
        needed.update(imap.parents[c])
    missing = sorted(w for w in needed if vals[w] == 0)
    if missing:
        raise MissingBlanket(
            f"flip at {u} needs {sorted(needed)} instantiated; missing {missing}"
        )


def _flip_term_rows(
    imap: Imap, X: np.ndarray, u: int, new_vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Conditional-ratio rows for a block of flips at the same variable.

    Returns (inputs, vs, signs, coeffs, row_ids): two terms for u itself
    (same parent row, the two values) and two per child (the two parent rows,
    the child's value), coefficient +1 on the x side and -1 on the flip side.
    """
    n = len(X)
    X_new = X.copy()
    X_new[:, u] = new_vals
    children = imap.children[u]
    # one masked block for u (the same parent row on both sides), then the
    # x side and the flip side of each child, all masked in one call
    sides = [X] + [side for _ in children for side in (X, X_new)]
    row_vars = np.repeat([u, *(c for c in children for _ in (0, 1))], n)
    masked = masked_parent_rows(imap, np.concatenate(sides), row_vars)
    signs = [X[:, u], new_vals] + [X[:, c] for c in children for _ in (0, 1)]
    return (
        np.concatenate([masked[:n], masked]),
        np.concatenate([row_vars[:n], row_vars]),
        np.concatenate(signs),
        np.repeat(np.tile([1.0, -1.0], 1 + len(children)), n),
        np.tile(np.arange(n), 2 + 2 * len(children)),
    )


def delta_loss_batch(
    s,
    imap: Imap | Mapping[int, Imap],
    m: EnergyModel,
    X,
    us,
    new_vals,
    cond=None,
) -> Tensor:
    """Mean squared flip-matching residual over a batch of flips.

    ``imap`` may be a single map used for every row or a mapping from flip
    variable to the local map to use for flips at that variable (the partial
    sampling regime, where each variable trains under its own small map).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    us = np.asarray(us, dtype=np.int64)
    new_vals = np.asarray(new_vals, dtype=np.float64)
    if len(X) == 0:
        raise EmptyBatch("no flips to score")
    if not (len(us) == len(new_vals) == len(X)):
        raise ConfigError("X, us, and new_vals must align")

    imap_of = (lambda u: imap[u]) if isinstance(imap, Mapping) else (lambda u: imap)
    for k in range(len(X)):
        _check_flip_args(imap_of(int(us[k])), X[k], int(us[k]), new_vals[k])

    inputs, vs, signs, coeffs, seg = [], [], [], [], []
    for g_u in np.unique(us):
        rows = np.flatnonzero(us == g_u)
        block = _flip_term_rows(imap_of(int(g_u)), X[rows], int(g_u), new_vals[rows])
        inputs.append(block[0])
        vs.append(block[1])
        signs.append(block[2])
        coeffs.append(block[3])
        seg.append(rows[block[4]])
    inputs = np.concatenate(inputs, axis=0)
    vs = np.concatenate(vs)
    signs = np.concatenate(signs)
    coeffs = np.concatenate(coeffs)
    seg = np.concatenate(seg)

    if cond is not None:
        cond = np.asarray(cond, dtype=np.float64)
        if cond.ndim == 2:
            cond = cond[seg]

    logq = _clamped_logq(s, inputs, vs, signs, cond)
    ratio_sum = tape.segment_sum(tape.mul(logq, coeffs), seg, len(X))
    delta = m.delta_log_reward_batch(X.astype(np.int8), us, new_vals.astype(np.int8))
    residual = tape.const(delta) - ratio_sum
    return residual.square().mean()


def delta_loss(s, imap: Imap, m: EnergyModel, x, u: int, xu_new, cond=None) -> Tensor:
    """Squared flip-matching residual for a single flip (x, u -> xu_new)."""
    vals = _values_of(x)
    return delta_loss_batch(s, imap, m, vals[None, :], [u], [xu_new], cond=cond)


def delta_loss_stochastic_grad(
    s,
    imap: Imap,
    m: EnergyModel,
    x,
    u: int,
    xu_new,
    j: int | None = None,
    i: int | None = None,
    seed=0,
) -> Tensor:
    """Single-child surrogate whose gradient estimates the full flip loss.

    With n children the full residual needs n+1 conditional ratios; this
    surrogate touches only two of the children — index i enters with its
    gradient blocked, index j is the one differentiated — plus u itself.
    Averaged over i uniform and ordered pairs i != j uniform, its gradient
    equals the gradient of delta_loss exactly.  The returned value itself is
    not the loss; only its backward pass is meaningful.  Indices index into
    imap.children[u]; omitted ones are drawn from ``seed``.
    """
    vals = _values_of(x)
    children = imap.children[u]
    n = len(children)
    if n <= 1:
        raise TooFewChildren(
            f"variable {u} has {n} children; use delta_loss directly"
        )
    _check_flip_args(imap, vals, u, xu_new)
    rng = np.random.default_rng(seed)
    if i is None:
        i = int(rng.integers(n))
    if j is None:
        j = int((i + 1 + rng.integers(n - 1)) % n)
    if not (0 <= i < n and 0 <= j < n):
        raise ConfigError(f"child indices must lie in [0, {n})")
    if i == j:
        raise ConfigError("the pair term needs two distinct children")

    X = vals[None, :].astype(np.float64)
    Xn = X.copy()
    Xn[0, u] = xu_new

    def ratio(v: int) -> Tensor:
        """d_v = log q(x_v | pa(x)) - log q(x'_v | pa(x')), a scalar."""
        if v == u:
            inputs = np.vstack([masked_parent_rows(imap, X, [u])] * 2)
            signs = np.array([vals[u], xu_new], dtype=np.float64)
        else:
            inputs = np.vstack(
                [masked_parent_rows(imap, X, [v]), masked_parent_rows(imap, Xn, [v])]
            )
            signs = np.array([vals[v], vals[v]], dtype=np.float64)
        lq = _clamped_logq(s, inputs, np.array([v, v]), signs)
        return tape.mul(lq, np.array([1.0, -1.0])).sum()

    delta = float(m.delta_log_reward(Assignment(vals), u, int(xu_new)))
    g = tape.const(np.asarray(delta)) - ratio(u)
    f_i = -ratio(children[i])
    f_j = -ratio(children[j])
    blocked_term = (g + float(n) * tape.stop_gradient(f_i)).square()
    pair_term = (
        tape.stop_gradient(g) + float(n - 1) * tape.stop_gradient(f_i) + f_j
    ).square()
    return blocked_term + float(n) * pair_term


# ---------------------------------------------------------------------------
# trajectory balance and friends


def _require_full(imap: Imap, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if len(X) == 0:
        raise EmptyBatch("no samples to score")
    if np.any(X[:, imap.order] == 0):
        raise PartialAssignment("this objective needs fully instantiated samples")
    return X


def _step_rows(imap: Imap, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masked rows for every (step, sample) conditional, step-major layout."""
    n = X.shape[0]
    inputs, vs, signs = [], [], []
    for v in imap.topo_order:
        inputs.append(masked_parent_rows(imap, X, np.full(n, v)))
        vs.append(np.full(n, v))
        signs.append(X[:, v])
    return np.concatenate(inputs, axis=0), np.concatenate(vs), np.concatenate(signs)


def _prefix_rows(imap: Imap, X: np.ndarray) -> np.ndarray:
    """Prefix encodings, prefix-major: block k holds X masked to the first k
    order variables (block 0 all zeros, block |V| the full samples)."""
    n, num_vars = X.shape
    blocks = [np.zeros((n, num_vars))]
    mask = np.zeros(num_vars, dtype=bool)
    for v in imap.topo_order:
        mask[v] = True
        blocks.append(X * mask)
    return np.concatenate(blocks, axis=0)


def tb_loss_batch(s, imap: Imap, m: EnergyModel, X, logZ: LogZEstimate) -> Tensor:
    """Mean squared full-trajectory residual (log Z + log q - log R)²."""
    X = _require_full(imap, X)
    n = X.shape[0]
    inputs, vs, signs = _step_rows(imap, X)
    lq = _clamped_logq(s, inputs, vs, signs)
    logq = tape.segment_sum(lq, np.tile(np.arange(n), len(imap.topo_order)), n)
    log_r = m.log_reward_batch(X.astype(np.int8))
    residual = logZ.value + logq - tape.const(log_r)
    return residual.square().mean()


def tb_loss(s, imap: Imap, m: EnergyModel, x, logZ: LogZEstimate) -> Tensor:
    return tb_loss_batch(s, imap, m, _values_of(x)[None, :], logZ)


def db_loss(s, imap: Imap, m: EnergyModel, x_prefix, next_var: int, flow) -> Tensor:
    """One detailed-balance step: flows on either side of sampling next_var."""
    vals = _values_of(x_prefix).astype(np.float64)
    order = imap.topo_order
    if next_var not in order:
        raise OrderViolation(f"{next_var} is not a variable of this map")
    k = order.index(next_var)
    expected = set(order[: k + 1])
    got = set(np.flatnonzero(vals).tolist())
    if got != expected:
        raise OrderViolation(
            f"step at {next_var} needs exactly the first {k + 1} order variables "
            f"instantiated, got {sorted(got)}"
        )
    prefix = vals.copy()
    prefix[next_var] = 0.0
    flows = flow.log_flow_rows(m, np.vstack([prefix, vals]))
    inputs = masked_parent_rows(imap, vals[None, :], np.array([next_var]))
    logq = _clamped_logq(s, inputs, [next_var], [vals[next_var]])
    residual = (
        tape.gather_1d(flows, np.array([0]))
        + logq
        - tape.gather_1d(flows, np.array([1]))
    )
    return residual.square().sum()


def db_trajectory_loss(s, imap: Imap, m: EnergyModel, X, flow) -> Tensor:
    """Mean of the |V| per-step losses over a batch of full trajectories."""
    X = _require_full(imap, X)
    n, num_vars = X.shape
    flows = flow.log_flow_rows(m, _prefix_rows(imap, X))  # ((V+1)*n,) prefix-major
    inputs, vs, signs = _step_rows(imap, X)
    logq = _clamped_logq(s, inputs, vs, signs)  # (V*n,) step-major
    idx = np.arange(num_vars * n)
    residual = tape.gather_1d(flows, idx) + logq - tape.gather_1d(flows, idx + n)
    return residual.square().mean()


def subtb_loss_batch(s, imap: Imap, m: EnergyModel, X, flow, lam: float) -> Tensor:
    """λ-weighted average of squared residuals over every sub-range.

    A range (i, j) matches the flow at prefix i against the flow at prefix j
    and the conditionals in between: adjacent ranges are the per-step terms,
    and the full range is the trajectory term with log F(∅) as the
    normalizer.  Per trajectory, term (i, j) carries weight λ^(j-i), and the
    weighted sum is divided by the total weight.
    """
    if not lam > 0:
        raise ConfigError("lambda must be positive")
    X = _require_full(imap, X)
    n, num_vars = X.shape

    # flows, reordered sample-major before the forward pass so the flat
    # output reshapes to (n, V+1)
    pm = _prefix_rows(imap, X)
    ss = np.repeat(np.arange(n), num_vars + 1)
    kk = np.tile(np.arange(num_vars + 1), n)
    flows_flat = flow.log_flow_rows(m, pm[kk * n + ss])
    F = tape.reshape(flows_flat, (n, num_vars + 1))

    # step conditionals, same trick, reshaped to (n, V)
    inputs, vs, signs = _step_rows(imap, X)
    ss2 = np.repeat(np.arange(n), num_vars)
    kk2 = np.tile(np.arange(num_vars), n)
    perm = kk2 * n + ss2
    lq_flat = _clamped_logq(s, inputs[perm], vs[perm], signs[perm])
    lq = tape.reshape(lq_flat, (n, num_vars))

    # C[s, k] = sum of the first k step log-probs; D = F - C; r(i<j) = D_i - D_j
    lower = np.tril(np.ones((num_vars + 1, num_vars)), k=-1)
    C = tape.matmul(lq, tape.const(lower.T))
    D = F - C

    # sum over i<j of w_ij (D_i - D_j)^2 is the quadratic form D^T (diag(W 1) - W) D,
    # W_ij = lam^|i-j| / (total weight) off the diagonal; 1/n folded in
    k = np.arange(num_vars + 1)
    W = np.power(float(lam), np.abs(k[:, None] - k[None, :]))
    np.fill_diagonal(W, 0.0)
    W /= W.sum() / 2
    Q = (np.diag(W.sum(axis=1)) - W) / n
    return (tape.matmul(D, tape.const(Q)) * D).sum()


def subtb_loss(s, imap: Imap, m: EnergyModel, x, flow, lam: float) -> Tensor:
    return subtb_loss_batch(s, imap, m, _values_of(x)[None, :], flow, lam)
