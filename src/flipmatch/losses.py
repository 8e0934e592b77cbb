"""Training objectives for the amortized sampler.

The centerpiece is the local flip-matching loss: when one variable u flips,
the change in the model's log-reward must equal the change in the sampler's
log-probability, and the latter only involves the conditionals of u and its
children.  Squared mismatch of those two quantities, zero for every flip
exactly when the sampler is the target distribution.  Everything the loss
reads lives in u's neighborhood, which is what lets training drop the
full-sample sweep entirely: u's children and every conditional's parents are
read off the map's parent table, and each conditional reaches the network as
its parents' values and column indices, never as a |V|-wide row.  The terms
of all flips come out of one merged parent table, with no loop over u, and go
through one network call.  A flip at a variable with many children may be
scored instead by a single-child surrogate, from three of its terms' rows.

Also here: the trajectory-balance family (full-trajectory, detailed per-step,
and the λ-weighted sub-range decomposition) with learnable state flows, and
the forward-looking flow that learns only a correction on top of the
partially accumulated reward.  Both are read along the order, in O(|V|·n): a
trajectory's prefixes reach the network as one running sum of its first layer
(``prefix_trunk``), the forward-looking reward grows by one local reward delta
per step, and every sub-range residual is a range sum of the per-step ones.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from flipmatch.energy import EnergyModel
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
from flipmatch.nn.mae import MaeParams, index_dtype
from flipmatch.nn.tape import Tensor
from flipmatch.sampler import _merged, masked_parent_rows

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
    """Learnable state flows on the prefixes of a sampling order.

    Wraps a network with a scalar head on ``MaeParams.prefix_trunk``.  In
    plain mode the head's output is log F directly; in forward-looking mode it
    is a log-space correction added to the partially accumulated reward, so
    the network only learns what the already-visible factors miss.  Terminal
    states never consult the network: their flow is the reward, substituted
    structurally.
    """

    def __init__(self, params: MaeParams, forward_looking: bool = False) -> None:
        if params.w_flow is None:
            raise ConfigError("flow head requires a network built with one")
        self.params = params
        self.forward_looking = forward_looking

    def log_flows(self, m: EnergyModel, imap: Imap, X: np.ndarray) -> Tensor:
        """log F of every prefix of ``imap``'s order for full samples X, prefix-major.

        Block k holds the n samples masked to the first k order variables;
        the last block, the samples themselves, is pinned to log R.  The
        forward-looking reward is the zero-masked one, grown along the order
        by one ``delta_log_reward_batch`` per step.
        """
        states = np.asarray(X).astype(np.int8)
        out = self.params.flow(self.params.prefix_trunk(X, imap.order))
        if self.forward_looking:
            work, zeros = np.zeros_like(states), np.zeros(len(states), dtype=np.int8)
            reward = [m.log_reward_batch(work)]
            for v in imap.order:
                work[:, v] = states[:, v]
                step = m.delta_log_reward_batch(work, np.full(len(work), v), zeros)
                reward.append(reward[-1] + step)
            out = out + np.concatenate(reward)
        full = np.arange(out.shape[0]) >= len(imap.order) * len(states)
        pinned = np.zeros(out.shape[0])
        pinned[full] = m.log_reward_batch(states)
        return tape.where(full, tape.const(pinned), out)


# ---------------------------------------------------------------------------
# flip matching


def _states(X, what: str) -> np.ndarray:
    """X as int8, once it is checked to hold only -1, 0 and +1: the reward
    and the network then read the same values."""
    X = np.asarray(X)
    states = X.astype(np.int8, copy=False) if ((X >= -1) & (X <= 1)).all() else None
    if states is None or not (states == X).all():
        raise PartialAssignment(f"{what} must hold -1, 0 or +1 only")
    return states


def _clamped_logq(s, rows, vs, signs) -> Tensor:
    return tape.clamp_min(s.logq_rows(rows, vs, signs), LOGQ_FLOOR)


def _draw_pair(n: int, seed, i: int | None = None, j: int | None = None) -> tuple[int, int]:
    """Children (i, j) of the single-child surrogate at a variable with n children;
    the omitted ones drawn from ``seed``, i uniform, then j among the other n - 1."""
    rng = np.random.default_rng(seed)
    if i is None:
        i = int(rng.integers(n))
    if j is None:
        j = int((i + 1 + rng.integers(n - 1)) % n)
    return i, j


def _surrogate_pairs(imap: Imap | Mapping[int, Imap], us, above: int, rng) -> np.ndarray | None:
    """``delta_loss_batch``'s pairs: for each flip whose variable has more than
    ``above`` children under its map, two of them drawn from a seed taken off
    ``rng`` in flip order; (-1, -1) for the others.  None when ``above`` is 0."""
    if above == 0:
        return None
    # children counted off each distinct flip variable's parent table
    uniq, at = np.unique(us, return_inverse=True)
    maps = [imap[u] for u in uniq.tolist()] if isinstance(imap, Mapping) else [imap] * len(uniq)
    counts = np.array([(sub.parent_table == u).sum() for sub, u in zip(maps, uniq)])[at]
    pairs = np.full((len(us), 2), -1)
    for k in np.flatnonzero(counts > above):
        pairs[k] = _draw_pair(int(counts[k]), int(rng.integers(2**31)))
    return pairs


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """counts[i] consecutive numbers from starts[i], for each i in turn."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _term_table(imap: Imap | Mapping[int, Imap], X: np.ndarray, us: np.ndarray, new_vals):
    """Conditional-ratio rows of every flip, from one merged parent table.

    Returns ((values, cols), vs, signs, coeffs, seg, term), seg naming each
    row's flip and term its term number: 0 for u's own, 1 + c for u's c-th
    child in ascending order.  Rows go by flip variable u, ascending; then by
    term; then x side (coefficient +1) before flip side (-1); then by flip,
    in batch order.  A child's two sides differ in u's value, u's own two in
    sign.
    """
    by_u = np.argsort(us, kind="stable")
    first = np.flatnonzero(np.r_[True, np.diff(us[by_u]) != 0])
    group_u, group_n = us[by_u][first], np.diff(first, append=len(us))
    maps, lacking = [imap], None
    if isinstance(imap, Mapping):
        maps = []
        try:
            for u in group_u.tolist():
                maps.append(imap[u])
        except KeyError as e:
            lacking = e  # raised after the coverage of the smaller u's is checked
        if not maps:
            raise lacking
    map_of, var, parents = _merged(maps)
    # u's terms are the entries of u's map that are u or list u as a parent:
    # one sorted lookup of (map, variable) keys, each entry's own key first
    listed = parents >= 0
    count = listed.sum(axis=1)
    ent, ids = np.arange(len(var), dtype=index_dtype(len(var))), var.astype(parents.dtype)
    key_e = np.concatenate([ent, np.repeat(ent, count)])
    key_v = np.concatenate([ids, parents[listed]])
    del listed
    stride = maps[0].num_vars
    code = map_of.astype(index_dtype(len(maps) * stride))[key_e] * stride + key_v
    is_parent = np.ones(len(key_v), dtype=bool)
    is_parent[: len(var)] = False
    order = np.lexsort((ids[key_e], is_parent, code))
    code, key_e, own = code[order], key_e[order], np.append(order < len(var), False)
    del key_v, is_parent, order
    checked = group_u[: len(maps)] if isinstance(imap, Mapping) else group_u
    want = np.arange(len(checked)) % len(maps) * stride + checked
    lo, hi = np.searchsorted(code, want), np.searchsorted(code, want, side="right")
    covered = own[lo] & (lo < hi) & (0 <= checked) & (checked < stride)
    if not covered.all():
        raise KeyError(f"variables {[int(checked[~covered][0])]} are not covered by this map")
    if lacking is not None:
        raise lacking
    term_g = np.repeat(np.arange(len(group_u)), hi - lo)
    term_e = key_e[_ranges(lo, hi - lo)]
    term_no = _ranges(0 * lo, hi - lo)
    n_t = group_n[term_g]
    row_t = np.repeat(np.arange(len(term_g)), 2 * n_t)
    local = _ranges(0 * n_t, 2 * n_t)
    flip_side = local >= n_t[row_t]
    seg = by_u[first[term_g[row_t]] + local % n_t[row_t]]
    vs = var[term_e[row_t]]
    # parent rows gathered only as wide as the widest term's parent set
    width = int(count[term_e].max(initial=0))
    values, cols = masked_parent_rows(parents[term_e[row_t], :width], X, vs, seg)
    flips = np.flatnonzero(flip_side)
    r, j = np.nonzero(cols[flips] == us[seg[flips], None])
    values[flips[r], j] = new_vals[seg[flips[r]]]
    signs = np.where(flip_side & (vs == us[seg]), new_vals[seg], X[seg, vs])
    return (values, cols), vs, signs, np.where(flip_side, -1.0, 1.0), seg, term_no[row_t]


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
        raise SameValue(f"flip at {u} must change the value, got {float(new_vals[k])} twice")
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
    pairs=None,
) -> Tensor:
    """Mean flip-matching loss over a batch of flips.

    ``imap`` may be a single map used for every row or a mapping from flip
    variable to the local map to use for flips at that variable (the partial
    sampling regime, where each variable trains under its own small map).

    A flip scores its squared residual unless ``pairs`` names two of its
    children: ``pairs[k] = (i, j)`` scores flip k by the single-child
    surrogate of ``delta_loss_stochastic_grad`` on u's distinct children i
    and j (ascending order; not checked here), and ``(-1, -1)`` keeps the
    residual.  A surrogate flip sends only the rows of u's own term and of
    children i and j to the network; every flip's rows go in one network
    call.  X and new_vals must hold -1, 0 and +1 only (PartialAssignment).
    """
    X = _states(X, "X")
    if X.ndim == 1:
        X = X[None, :]
    us = np.asarray(us, dtype=np.int64)
    new_vals = _states(new_vals, "new_vals")
    if len(X) == 0:
        raise EmptyBatch("no flips to score")
    pairs = np.full((len(X), 2), -1) if pairs is None else np.asarray(pairs, dtype=np.int64)
    if not (len(us) == len(new_vals) == len(X) and pairs.shape == (len(X), 2)):
        raise ConfigError("X, us, new_vals and pairs must align")

    rows, vs, signs, coeffs, seg, term = _term_table(imap, X, us, new_vals)
    _check_flips(X, us, new_vals, rows, vs, coeffs, seg)
    heavy = (pairs != -1).any(axis=1)
    key, slots = seg, len(X)
    if heavy.any():
        n = np.bincount(seg[coeffs > 0], minlength=len(X)) - 1  # children of each flip's u
        # a surrogate flip keeps the rows of u's own term (role 0), child i's
        # (role 1) and child j's (role 2); each role sums into its own slots
        hit = heavy[seg, None] & (term[:, None] - 1 == pairs[seg])
        keep = ~heavy[seg] | (term == 0) | hit.any(axis=1)
        rows = (rows[0][keep], rows[1][keep])
        vs, signs, coeffs, seg = vs[keep], signs[keep], coeffs[keep], seg[keep]
        key, slots = seg + len(X) * (hit[keep] @ [1, 2]), 3 * len(X)

    logq = _clamped_logq(s, rows, vs, signs)
    sums = tape.segment_sum(tape.mul(logq, coeffs), key, slots)
    delta = m.delta_log_reward_batch(X, us, new_vals)
    if not heavy.any():
        return (tape.const(delta) - sums).square().mean()
    # g, f_i and f_j of every flip; an exact flip's residual is its g
    at = np.arange(len(X))
    g = tape.const(delta) - tape.gather_1d(sums, at)
    f_i, f_j = -tape.gather_1d(sums, at + len(X)), -tape.gather_1d(sums, at + 2 * len(X))
    blocked_term = (g + tape.stop_gradient(f_i) * n).square()
    pair_term = (tape.stop_gradient(g) + tape.stop_gradient(f_i) * (n - 1) + f_j).square()
    return tape.where(heavy, blocked_term + pair_term * n, g.square()).mean()


def delta_loss(s, imap: Imap, m: EnergyModel, x, u: int, xu_new) -> Tensor:
    """Squared flip-matching residual for a single flip (x, u -> xu_new)."""
    return delta_loss_batch(s, imap, m, np.asarray(x)[None, :], [u], [xu_new])


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
    gradient blocked, index j is the one differentiated — plus u itself:
    (g + n·sg(f_i))² + n·(sg(g) + (n−1)·sg(f_i) + f_j)², with g the residual
    of u's own ratio and f the negated ratio of a child.  Averaged over i
    uniform and ordered pairs i != j uniform, its gradient equals the
    gradient of delta_loss exactly.  The returned value itself is not the
    loss; only its backward pass is meaningful.  Indices index into u's
    children in ascending order; omitted ones are drawn from ``seed``.
    """
    vals = np.asarray(x)
    n = int((imap.parent_table == u).sum())
    if n <= 1:
        raise TooFewChildren(f"variable {u} has {n} children; use delta_loss directly")
    i, j = _draw_pair(n, seed, i, j)
    if not (0 <= i < n and 0 <= j < n):
        raise ConfigError(f"child indices must lie in [0, {n})")
    if i == j:
        raise ConfigError("the pair term needs two distinct children")
    return delta_loss_batch(s, imap, m, vals[None, :], [u], [xu_new], pairs=[(i, j)])


# ---------------------------------------------------------------------------
# trajectory balance and friends


def _require_full(imap: Imap, X) -> np.ndarray:
    """X as int8 rows, each a full assignment of ``imap``'s variables."""
    X = _states(X, "samples")
    if X.ndim == 1:
        X = X[None, :]
    if len(X) == 0:
        raise EmptyBatch("no samples to score")
    if len(imap.order) != X.shape[1]:
        raise ConfigError(f"this objective needs an I-map covering all {X.shape[1]} variables")
    if np.any(X[:, imap.order] == 0):
        raise PartialAssignment("this objective needs fully instantiated samples")
    return X


def _step_rows(imap: Imap, X: np.ndarray):
    """Parent rows for every (step, sample) conditional, step-major layout.

    Returns ((values, cols), vs, signs) as ``logq_rows`` takes them.
    """
    n = X.shape[0]
    vs = np.repeat(imap.order, n)
    at = np.tile(np.arange(n), len(imap.order))
    parents = imap.parent_table.astype(index_dtype(imap.num_vars))
    return masked_parent_rows(np.repeat(parents, n, axis=0), X, vs, at), vs, X[at, vs]


def tb_loss_batch(s, imap: Imap, m: EnergyModel, X, logZ: LogZEstimate) -> Tensor:
    """Mean squared full-trajectory residual (log Z + log q - log R)²."""
    X = _require_full(imap, X)
    n = X.shape[0]
    rows, vs, signs = _step_rows(imap, X)
    lq = _clamped_logq(s, rows, vs, signs)
    logq = tape.segment_sum(lq, np.tile(np.arange(n), len(imap.topo_order)), n)
    log_r = m.log_reward_batch(X)
    residual = logZ.value + logq - tape.const(log_r)
    return residual.square().mean()


def _db_residuals(s, imap: Imap, m: EnergyModel, X, flow) -> Tensor:
    """r_t = log F_t + log q_t - log F_{t+1} of every step t and sample,
    step-major (|V|·n,): the per-step balance residuals."""
    X = _require_full(imap, X)
    flows = flow.log_flows(m, imap, X)  # ((V+1)*n,) prefix-major
    logq = _clamped_logq(s, *_step_rows(imap, X))  # (V*n,) step-major
    idx = np.arange(len(imap.order) * len(X))
    return tape.gather_1d(flows, idx) + logq - tape.gather_1d(flows, idx + len(X))


def db_trajectory_loss(s, imap: Imap, m: EnergyModel, X, flow) -> Tensor:
    """Mean of the |V| per-step losses over a batch of full trajectories."""
    return _db_residuals(s, imap, m, X, flow).square().mean()


def _range_sums(res: np.ndarray, opens: np.ndarray, carry: float):
    """Total weight S, weighted residual sum M and weighted squared sum E of
    the ranges (i, k) ending at each prefix k, a range opened at weight
    opens[i] and carried by ``carry`` per step; its residual is res[i:k].sum()."""
    S = np.zeros(len(res) + 1)
    M = np.zeros((len(res) + 1, res.shape[1]))
    E = np.zeros_like(M)
    for k, r in enumerate(res):
        s1 = S[k] + opens[k]
        E[k + 1] = carry * (E[k] + 2.0 * r * M[k] + r * r * s1)
        M[k + 1] = carry * (M[k] + r * s1)
        S[k + 1] = carry * s1
    return S, M, E


def subtb_loss_batch(s, imap: Imap, m: EnergyModel, X, flow, lam: float) -> Tensor:
    """λ-weighted average of squared residuals over every sub-range.

    A range (i, j) matches the flow at prefix i against the flow at prefix j
    and the conditionals in between: adjacent ranges are the per-step terms,
    and the full range is the trajectory term with log F(∅) as the
    normalizer.  Per trajectory, term (i, j) carries weight λ^(j-i), and the
    weighted sum is divided by the total weight.  Range (i, j)'s residual is
    the sum of the DB residuals r_i..r_{j-1}, so running sums along the order
    give the loss and its gradient.  For λ > 1 the weights are scaled by
    λ^-|V| to λ^-i·λ^-(|V|-j), which never overflow.
    """
    if not 0 < lam < np.inf:
        raise ConfigError(f"lambda must be positive and finite, got {lam}")
    r = _db_residuals(s, imap, m, X, flow)
    res = r.data.reshape(len(imap.order), -1)  # (V, n)
    # range (i, j) opens at opens[i], is carried and is read out at reads[j]
    opens = np.cumprod(np.r_[1.0, np.full(len(res), 1.0 / max(lam, 1.0))])
    carry, reads = min(float(lam), 1.0), opens[::-1]
    S, M, E = _range_sums(res, opens, carry)
    scale = 1.0 / (res.shape[1] * (reads[1:] @ S[1:]))

    def back(g):
        # a range through step t is one ending at prefix t+1 and one, maybe
        # empty, starting there; reversed, the latter open at reads[::-1] = opens
        Sb, Mb, _ = _range_sums(res[::-1], opens, carry)
        grad = M[1:] * (Sb[::-1, None][1:] + reads[1:, None]) + S[1:, None] * Mb[::-1][1:]
        r.accumulate((2.0 * float(g) * scale) * grad.reshape(-1))

    return tape._make(np.asarray((reads[1:] @ E[1:]).sum() * scale), (r,), back)
