"""Training objectives for the amortized sampler.

The centerpiece is the local flip-matching loss: when one variable u flips,
the change in the model's log-reward must equal the change in the sampler's
log-probability, and the latter only involves the conditionals of u and its
children.  Squared mismatch of those two quantities, zero for every flip
exactly when the sampler is the target distribution.  Everything the loss
reads lives in u's neighborhood, which is what lets training drop the
full-sample sweep entirely: u's children and every conditional's parents are
read off the map's parent table, and each conditional reaches the network as
its parents' values and column indices, never as a |V|-wide row.

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
    "delta_loss",
    "delta_loss_batch",
    "delta_loss_stochastic_grad",
    "tb_loss_batch",
    "db_trajectory_loss",
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


# ---------------------------------------------------------------------------
# flip matching


def _clamped_logq(s, rows, vs, signs, cond=None) -> Tensor:
    return tape.clamp_min(s.logq_rows(rows, vs, signs, cond), LOGQ_FLOOR)


def _stack_rows(blocks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One (values, cols) pair from blocks of different widths, padded with column -1."""
    width = max((cols.shape[1] for _, cols in blocks), default=0)
    values = np.zeros((sum(len(cols) for _, cols in blocks), width))
    cols = np.full(values.shape, -1, dtype=np.int64)
    a = 0
    for v, c in blocks:
        values[a : a + len(c), : c.shape[1]] = v
        cols[a : a + len(c), : c.shape[1]] = c
        a += len(c)
    return values, cols


def _children(imap: Imap, u: int) -> np.ndarray:
    """u's children under the map, ascending, read off its parent table."""
    return np.sort(imap.order[(imap.parent_table == u).any(axis=1)])


def _flip_term_rows(imap: Imap, X: np.ndarray, u: int, new_vals: np.ndarray):
    """Conditional-ratio rows for a block of n flips at the same variable.

    Returns (values, cols, vs, signs, coeffs, row_ids).  Term t is u for t = 0
    and u's t-th child after that; its rows are n on the x side (coefficient
    +1) and then n on the flip side (-1).  u's two sides read the same parent
    values and differ in sign; a child's two sides differ in u's value.
    """
    n = len(X)
    terms = np.concatenate([[u], _children(imap, u)])
    vs = np.repeat(terms, 2 * n)
    row_ids = np.arange(len(vs)) % n
    flip_side = np.arange(len(vs)) // n % 2 == 1
    # X once per term and side: a broadcast view, which a single flip never copies
    X_rows = np.broadcast_to(X, (2 * len(terms),) + X.shape).reshape(-1, X.shape[1])
    values, cols = masked_parent_rows(imap, X_rows, vs)
    new_u = flip_side[:, None] & (cols == u)
    values[new_u] = new_vals[row_ids[new_u.any(axis=1)]]
    signs = X_rows[np.arange(len(vs)), vs]
    signs[n : 2 * n] = new_vals
    return values, cols, vs, signs, np.where(flip_side, -1.0, 1.0), row_ids


def _check_flips(X, us, new_vals, rows, vs, coeffs, seg) -> None:
    """Raise for the first flip, in row order, that changes nothing or misses its blanket.

    A flip at u needs u, its parents, its children and their parents
    instantiated: exactly the variables and the parent columns of its
    x-side term rows.
    """
    values, cols = rows
    same = new_vals == X[np.arange(len(X)), us]
    gap = ((values == 0) & (cols >= 0)).any(axis=1) | (X[seg, vs] == 0)
    missing = np.zeros(len(X), dtype=bool)
    missing[seg[gap & (coeffs > 0)]] = True
    bad = np.flatnonzero(same | missing)
    if not len(bad):
        return
    k = bad[0]
    u = int(us[k])
    if same[k]:
        raise SameValue(f"flip at {u} must change the value, got {new_vals[k]} twice")
    mine = seg == k
    needed = sorted({u, *vs[mine].tolist(), *cols[mine][cols[mine] >= 0].tolist()})
    lacking = [w for w in needed if X[k, w] == 0]
    raise MissingBlanket(f"flip at {u} needs {needed} instantiated; missing {lacking}")


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
    by_u = np.argsort(us, kind="stable")
    blocks, vs, signs, coeffs, seg = [], [], [], [], []
    for rows in np.split(by_u, np.flatnonzero(np.diff(us[by_u])) + 1):
        u = int(us[rows[0]])
        values, cols, v, sg, cf, ids = _flip_term_rows(imap_of(u), X[rows], u, new_vals[rows])
        blocks.append((values, cols))
        vs.append(v)
        signs.append(sg)
        coeffs.append(cf)
        seg.append(rows[ids])
    rows = _stack_rows(blocks)
    vs = np.concatenate(vs)
    signs = np.concatenate(signs)
    coeffs = np.concatenate(coeffs)
    seg = np.concatenate(seg)
    _check_flips(X, us, new_vals, rows, vs, coeffs, seg)

    if cond is not None:
        cond = np.asarray(cond, dtype=np.float64)
        if cond.ndim == 2:
            cond = cond[seg]

    logq = _clamped_logq(s, rows, vs, signs, cond)
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
    u's children in ascending order; omitted ones are drawn from ``seed``.
    """
    vals = _values_of(x)
    n = len(_children(imap, u))
    if n <= 1:
        raise TooFewChildren(
            f"variable {u} has {n} children; use delta_loss directly"
        )
    X = vals[None, :].astype(np.float64)
    new = np.array([xu_new], dtype=np.float64)
    values, cols, vs, signs, coeffs, seg = _flip_term_rows(imap, X, u, new)
    _check_flips(X, np.array([u]), new, (values, cols), vs, coeffs, seg)
    rng = np.random.default_rng(seed)
    if i is None:
        i = int(rng.integers(n))
    if j is None:
        j = int((i + 1 + rng.integers(n - 1)) % n)
    if not (0 <= i < n and 0 <= j < n):
        raise ConfigError(f"child indices must lie in [0, {n})")
    if i == j:
        raise ConfigError("the pair term needs two distinct children")

    def ratio(t: int) -> Tensor:
        """d_v = log q(x_v | pa(x)) - log q(x'_v | pa(x')) of term t, a scalar."""
        sel = slice(2 * t, 2 * t + 2)
        lq = _clamped_logq(s, (values[sel], cols[sel]), vs[sel], signs[sel])
        return tape.mul(lq, coeffs[sel]).sum()

    delta = float(m.delta_log_reward(Assignment(vals), u, int(xu_new)))
    g = tape.const(np.asarray(delta)) - ratio(0)
    f_i = -ratio(1 + i)
    f_j = -ratio(1 + j)
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


def _step_rows(imap: Imap, X: np.ndarray):
    """Parent rows for every (step, sample) conditional, step-major layout.

    Returns ((values, cols), vs, signs) as ``logq_rows`` takes them.
    """
    n = X.shape[0]
    blocks = [masked_parent_rows(imap, X, np.full(n, v)) for v in imap.topo_order]
    vs = np.repeat(imap.order, n)
    return _stack_rows(blocks), vs, X[np.tile(np.arange(n), len(imap.order)), vs]


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
    rows, vs, signs = _step_rows(imap, X)
    lq = _clamped_logq(s, rows, vs, signs)
    logq = tape.segment_sum(lq, np.tile(np.arange(n), len(imap.topo_order)), n)
    log_r = m.log_reward_batch(X.astype(np.int8))
    residual = logZ.value + logq - tape.const(log_r)
    return residual.square().mean()


def db_trajectory_loss(s, imap: Imap, m: EnergyModel, X, flow) -> Tensor:
    """Mean of the |V| per-step losses over a batch of full trajectories."""
    X = _require_full(imap, X)
    n, num_vars = X.shape
    flows = flow.log_flow_rows(m, _prefix_rows(imap, X))  # ((V+1)*n,) prefix-major
    rows, vs, signs = _step_rows(imap, X)
    logq = _clamped_logq(s, rows, vs, signs)  # (V*n,) step-major
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
    (values, cols), vs, signs = _step_rows(imap, X)
    ss2 = np.repeat(np.arange(n), num_vars)
    kk2 = np.tile(np.arange(num_vars), n)
    perm = kk2 * n + ss2
    lq_flat = _clamped_logq(s, (values[perm], cols[perm]), vs[perm], signs[perm])
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
