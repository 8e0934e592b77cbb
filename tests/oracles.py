"""Independent brute-force reference implementations used across the tests.

Everything here is deliberately naive: subset enumeration, full-energy
evaluation, central finite differences, explicit conditional tables walked one
variable at a time.  The library must agree with these on small inputs; none
of this code is imported by the package itself.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from flipmatch import losses
from flipmatch.energy import (
    ZERO_MASKED,
    EnergyModel,
    ExactTable,
    IsingModel,
    _batch_values,
)
from flipmatch.errors import (
    ConfigError,
    EmptyBatch,
    FlipmatchError,
    PartialAssignment,
    TooFewChildren,
)
from flipmatch.graph import (
    Imap,
    UndirectedGraph,
    _as_rng,
    _bits,
    _breadth_first,
    _mask_of,
    _orient,
    _search,
    _spanning_tree,
)
from flipmatch.losses import (
    FlowHead,
    LogZEstimate,
    _check_flips,
    _clamped_logq,
    _prefix_rows,
    _require_full,
    _step_rows,
    _term_table,
    subtb_loss_batch,
    tb_loss_batch,
)
from flipmatch.nn import MaeParams, tape
from flipmatch.nn.mae import _LN_EPS, _count_runs, _matmul, _row_vars
from flipmatch.nn.tape import Tensor, log_sigmoid_np, sigmoid_np
from flipmatch.sampler import (
    AmortizedSampler,
    AnnealSchedule,
    Policy,
    _merged_levels,
    masked_parent_rows,
)


def _row(x) -> np.ndarray:
    """One assignment as an int8 vector; 0 marks an uninstantiated variable."""
    return np.asarray(x, dtype=np.int8)


def has_edge(g: UndirectedGraph, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in g.edges


def _connected(vertices: list[int], has_edge) -> bool:
    if not vertices:
        return True
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        v = stack.pop()
        for w in vertices:
            if w not in seen and has_edge(v, w):
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def chordal_brute_force(g: UndirectedGraph) -> bool:
    """Chordality by exhaustive induced-cycle search.

    A graph is non-chordal iff some vertex subset induces a connected
    2-regular subgraph (a chordless cycle) of length >= 4.
    """
    n = g.num_vars
    for mask in range(1 << n):
        if mask.bit_count() < 4:
            continue
        verts = [v for v in range(n) if (mask >> v) & 1]
        degs = [sum(1 for w in verts if w != v and has_edge(g, v, w)) for v in verts]
        if any(d != 2 for d in degs):
            continue
        if _connected(verts, lambda a, b: has_edge(g, a, b)):
            return False
    return True


def check_chordal(g: UndirectedGraph) -> bool:
    """True iff every cycle of length >= 4 has a chord.

    A candidate set of a maximum cardinality search (a vertex with its
    already-visited neighbors) is a clique for every vertex exactly when the
    graph is chordal (Tarjan and Yannakakis), and a set that is not a clique
    lies in no clique, so testing the maximal candidates suffices.
    """
    adj = g.adj_masks
    _, kept = _search(adj, (1 << g.num_vars) - 1, _as_rng(0))
    return all((adj[v] | 1 << v) & m == m for m in kept for v in _bits(m))


def maximal_cliques_brute_force(g: UndirectedGraph) -> set[frozenset[int]]:
    """All maximal cliques by subset enumeration (small graphs only)."""
    n = g.num_vars
    cliques = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if all(has_edge(g, a, b) for a, b in combinations(combo, 2)):
                cliques.append(frozenset(combo))
    return {
        c for c in cliques if not any(c < other for other in cliques)
    }


def all_states(num_vars: int) -> np.ndarray:
    """Every +-1 configuration, shape (2**num_vars, num_vars), bit v of the row index."""
    idx = np.arange(1 << num_vars)
    return ((idx[:, None] >> np.arange(num_vars)[None, :]) & 1).astype(np.int8) * 2 - 1


def product_marginals(probs: np.ndarray, num_vars: int) -> np.ndarray:
    """P(x_v = +1) as ``enumerate_exact`` once took it: one product with a float
    (2^|V|, |V|) copy of the states."""
    return probs @ (all_states(num_vars) == 1)


def exact_marginals(probs: np.ndarray, num_vars: int) -> np.ndarray:
    """P(x_v = +1) as the correctly rounded sum of the rows with bit v set."""
    idx = np.arange(len(probs))
    return np.array([math.fsum(probs[(idx >> v) & 1 == 1]) for v in range(num_vars)])


# scalar helpers over the energy model and assignments, which the library
# itself never needs


def energy(m: EnergyModel, x) -> float:
    return -float(m.log_reward_batch(_row(x)[None, :])[0])


def factors_touching(m: EnergyModel, u: int) -> tuple[int, ...]:
    return m._touching[u]


def partial_reward(m: EnergyModel, x, mode: str = ZERO_MASKED) -> float:
    return float(m.partial_reward_batch(_row(x)[None, :], mode)[0])


def delta_log_reward(m: EnergyModel, x, u: int, xu_new: int) -> float:
    """log R(x) - log R(x with x_u = xu_new): one row of the batch method."""
    return float(m.delta_log_reward_batch(_row(x)[None, :], [u], [xu_new])[0])


def with_value(x, v: int, value: int) -> np.ndarray:
    out = _row(x).copy()
    out[v] = value
    return out


def imap_parent_rows(imap: Imap, X, vs) -> tuple[np.ndarray, np.ndarray]:
    """``masked_parent_rows`` for variables of a map: row i reads X[i] at the
    parents of vs[i], looked up in the map's parent table."""
    return masked_parent_rows(imap.parent_table[imap.positions(vs)], X, vs)


def central_diff(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a flat vector."""
    g = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def trunk_np(mae, x: np.ndarray, cols=None) -> np.ndarray:
    """The network's gradient-free trunk: (B, input_width) rows, or (B, K) with ``cols``."""
    return mae._sliced_blocks_np(mae._first_layer(x, mae._packed(x, cols)))


def fit_sampler_exactly(mae, imaps, table) -> float:
    """Solve the output head so the network's conditionals are exact.

    For every I-map in ``imaps`` and every variable v, the rows the sampler
    would feed the trunk (inputs masked to v's parents) are collected, and the
    columns of the output head are solved by least squares so the produced
    logits equal the true conditional logits of ``table``.  Root conditionals
    go into the marginal-logit vector.  Works whenever the constraint count
    per variable stays below the trunk width; returns the worst residual.

    This sidesteps training: it manufactures a sampler that IS the target
    distribution under each given I-map, which is what loss-zero and
    order-consistency checks need as a reference point.
    """
    num_vars = mae.cfg.num_vars
    rows_per_var: dict[int, list[np.ndarray]] = {v: [] for v in range(num_vars)}
    targets_per_var: dict[int, list[float]] = {v: [] for v in range(num_vars)}
    for imap in imaps:
        for v in imap.vertices:
            ps = sorted(imap.parents[v])
            if not ps:
                x = np.zeros(num_vars, dtype=np.int8)
                mae.marginals.data[v] = conditional_logit(table, v, x)
                continue
            for c in range(1 << len(ps)):
                row = np.zeros(num_vars)
                x = np.zeros(num_vars, dtype=np.int8)
                for k, p in enumerate(ps):
                    val = 1 if (c >> k) & 1 else -1
                    row[p] = val
                    x[p] = val
                rows_per_var[v].append(row)
                targets_per_var[v].append(conditional_logit(table, v, x))
    worst = 0.0
    for v in range(num_vars):
        if not rows_per_var[v]:
            continue
        inputs = np.unique(np.array(rows_per_var[v]), axis=0)
        # recompute targets aligned with the deduplicated rows
        t = np.empty(len(inputs))
        for i, row in enumerate(inputs):
            t[i] = conditional_logit(table, v, row.astype(np.int8))
        h = trunk_np(mae, inputs)
        design = np.hstack([h, np.ones((len(h), 1))])
        sol, *_ = np.linalg.lstsq(design, t, rcond=None)
        mae.w_out.data[:, v] = sol[:-1]
        mae.b_out.data[v] = sol[-1]
        worst = max(worst, float(np.abs(design @ sol - t).max()))
    return worst


# ---------------------------------------------------------------------------
# exact conditionals: explicit tables walked one variable at a time, and the
# true state flows of an enumerated model.  With exact tables every flip and
# balance residual is zero, which is what the losses are checked against.


class TabularSampler:
    """Explicit conditional tables over one I-map; exact and parameter-free.

    ``tables[v]`` holds P(x_v = +1 | parent configuration), indexed by the
    little-endian bit pattern of the (sorted) parent values, bit set for +1.
    Methods take the I-map first, as the amortized sampler's do; it must be
    the map the tables were built for.
    """

    def __init__(self, imap: Imap, tables: dict[int, np.ndarray]) -> None:
        self.imap = imap
        self.tables = tables

    @classmethod
    def from_exact_table(cls, table: ExactTable, imap: Imap) -> "TabularSampler":
        """The conditionals of an exactly enumerated distribution under imap."""
        states = table.states()
        tables: dict[int, np.ndarray] = {}
        for v in imap.vertices:
            ps = sorted(imap.parents[v])
            t = np.zeros(1 << len(ps))
            for c in range(1 << len(ps)):
                match = np.ones(len(states), dtype=bool)
                for k, p in enumerate(ps):
                    want = 1 if (c >> k) & 1 else -1
                    match &= states[:, p] == want
                total = table.full_probs[match].sum()
                plus = table.full_probs[match & (states[:, v] == 1)].sum()
                t[c] = plus / total
            tables[v] = t
        return cls(imap, tables)

    def _check_map(self, imap: Imap) -> None:
        if (imap.topo_order, imap.parents) != (self.imap.topo_order, self.imap.parents):
            raise ConfigError("the tables were built for another I-map")

    def _config_indices(self, v: int, vals: np.ndarray) -> np.ndarray:
        ps = sorted(self.imap.parents[v])
        idx = np.zeros(vals.shape[0], dtype=np.int64)
        for k, p in enumerate(ps):
            idx |= (vals[:, p] > 0).astype(np.int64) << k
        return idx

    def logq_rows(self, rows, vs, signs) -> Tensor:
        """log q(sign_i at var vs_i | parent row i), as a constant on the tape."""
        inputs = scatter_compact(*rows, self.imap.num_vars)
        vs = np.asarray(vs)
        signs = np.asarray(signs)
        out = np.zeros(len(vs))
        for v in np.unique(vs):
            rows = np.flatnonzero(vs == v)
            p_plus = self.tables[int(v)][self._config_indices(int(v), inputs[rows])]
            p = np.where(signs[rows] > 0, p_plus, 1.0 - p_plus)
            out[rows] = np.log(p)
        return tape.const(out)

    def log_prob_batch(self, imap: Imap, X) -> np.ndarray:
        self._check_map(imap)
        vals = np.asarray(X, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[None, :]
        if np.any(vals[:, list(imap.vertices)] == 0):
            raise PartialAssignment("log_prob needs fully instantiated samples")
        out = np.zeros(vals.shape[0])
        for v in imap.topo_order:
            p_plus = self.tables[v][self._config_indices(v, vals)]
            p = np.where(vals[:, v] > 0, p_plus, 1.0 - p_plus)
            out += np.log(p)
        return out

    def log_prob(self, imap: Imap, x) -> float:
        return float(self.log_prob_batch(imap, _row(x)[None, :])[0])

    def ancestral_sample(self, imap: Imap, policy, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
        self._check_map(imap)
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        X = np.zeros((n, imap.num_vars), dtype=np.float64)
        logq = np.zeros(n)
        for v in imap.topo_order:
            p_plus = self.tables[v][self._config_indices(v, X)]
            logits = np.log(p_plus) - np.log1p(-p_plus)
            draws = np.where(rng.random(n) < policy.plus_probability(logits), 1.0, -1.0)
            X[:, v] = draws
            logq += np.log(np.where(draws > 0, p_plus, 1.0 - p_plus))
        return X.astype(np.int8), logq


class ExactFlow:
    """True state flows from an enumerated model: F(prefix) = Z * P(prefix).

    A parameter-free stand-in for FlowHead: with exact conditionals it zeroes
    every balance residual.
    """

    def __init__(self, table: ExactTable) -> None:
        self.table = table

    def log_flow_rows(self, m: EnergyModel, rows: np.ndarray) -> Tensor:
        rows = np.asarray(rows)
        states = self.table.states()
        out = np.empty(rows.shape[0])
        for r, row in enumerate(rows):
            match = np.ones(len(states), dtype=bool)
            for v in np.flatnonzero(row):
                match &= states[:, v] == row[v]
            out[r] = self.table.log_z + np.log(self.table.full_probs[match].sum())
        return tape.const(out)


def fit_tables_by_flip_matching(m, imap, max_iter: int = 60):
    """Solve the flip-matching equations for tabular conditionals from scratch.

    Parameterizes one logit per (variable, parent configuration) and drives the
    residual ``[log R(x') - log R(x)] - sum of conditional log-ratios`` to zero
    over every state / flip-site pair with Gauss-Newton (the Jacobian is
    analytic: d log sigma(s*z)/dz = s*sigma(-s*z)).  Nothing about the target's
    conditionals is consulted, so recovering them demonstrates that the zero
    set of the flip residuals pins down the distribution.

    Returns (TabularSampler, worst |residual| at the last evaluation, iterations
    used); callers that need a guarantee should re-score the returned sampler.
    """
    from flipmatch.energy import all_states

    def sigmoid(t: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + np.tanh(0.5 * t))

    num_vars = m.num_vars
    X = all_states(num_vars).astype(np.float64)
    n_states = len(X)
    parents = {v: sorted(imap.parents[v]) for v in imap.vertices}
    sizes = {v: 1 << len(parents[v]) for v in imap.vertices}
    offset, n_params = {}, 0
    for v in imap.vertices:
        offset[v] = n_params
        n_params += sizes[v]

    def column_of(v: int, vals: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(vals), dtype=np.int64)
        for k, p in enumerate(parents[v]):
            idx |= (vals[:, p] > 0).astype(np.int64) << k
        return idx + offset[v]

    log_r = m.log_reward_batch(X.astype(np.int8))
    per_site = []
    for u in imap.vertices:
        flipped = X.copy()
        flipped[:, u] = -X[:, u]
        target = m.log_reward_batch(flipped.astype(np.int8)) - log_r
        terms = [
            (column_of(v, X), column_of(v, flipped), X[:, v].copy(), flipped[:, v].copy())
            for v in [u, *imap.children[u]]
        ]
        per_site.append((target, terms))

    z = np.zeros(n_params)
    worst = np.inf
    for it in range(max_iter):
        resid = np.zeros(n_states * len(per_site))
        jac = np.zeros((n_states * len(per_site), n_params))
        rows = np.arange(n_states)
        for k, (target, terms) in enumerate(per_site):
            block = slice(k * n_states, (k + 1) * n_states)
            ratio = np.zeros(n_states)
            for c_old, c_new, x_old, x_new in terms:
                ratio += np.log(sigmoid(x_new * z[c_new])) - np.log(sigmoid(x_old * z[c_old]))
                np.add.at(jac[block], (rows, c_new), x_new * sigmoid(-x_new * z[c_new]))
                np.add.at(jac[block], (rows, c_old), -x_old * sigmoid(-x_old * z[c_old]))
            resid[block] = target - ratio
        worst = float(np.abs(resid).max())
        if worst < 1e-7:
            break
        step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
        z += step
    tables = {v: sigmoid(z[offset[v] : offset[v] + sizes[v]]) for v in imap.vertices}
    return TabularSampler(imap, tables), worst, it + 1


def exact_em(p, latent, data, rounds: int = 60, m_steps: int = 60, m_lr: float = 0.3):
    """EM with the exact posterior: enumerate latent completions, reweight, ascend.

    The E-step is exact (posterior weights by enumeration over latent
    configurations), so this is the idealized version of amortized EM and a
    quality ceiling for it under the same initialization.
    """
    from flipmatch.energy import logsumexp

    hidden = sorted(latent)
    configs = all_states(len(hidden))
    data = np.asarray(data, dtype=np.int8)
    for _ in range(rounds):
        blocks, weights = [], []
        for row in data:
            rs = np.repeat(row[None, :], len(configs), axis=0)
            rs[:, hidden] = configs
            lw = p.log_reward_batch(rs)
            blocks.append(rs)
            weights.append(np.exp(lw - logsumexp(lw)))
        R = np.concatenate(blocks)
        W = np.concatenate(weights)
        W /= W.sum()
        for _ in range(m_steps):
            p.set_params(p.get_params() + m_lr * p.log_reward_grad_mean(R, weights=W))
    return p


# ---------------------------------------------------------------------------
# the dense network forward: every |V|-wide masked row through the whole input
# layer, all |V| logits out, one of them kept.  The sampler reads only parent
# columns and computes only the logit it needs; these must agree with it.


def masked_sigmoid(z) -> np.ndarray:
    """sigmoid(z) computed apart on z >= 0 and on z < 0, by boolean-mask
    gathers and scatters; ``tape.sigmoid_np`` must give the same bits."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def no_merging(monkeypatch) -> None:
    """Make every network call run each of its rows through the blocks and
    the head, as though no row repeated another."""
    monkeypatch.setattr(MaeParams, "_distinct_rows", lambda self, *args: None)


def whole_batch_masked_logits(mae, x: np.ndarray, vs, cols=None) -> Tensor:
    """``masked_logits`` with the blocks run on the whole batch at once, every
    block's intermediates kept, and the head as a separate ``pick_affine``
    node: the taped call before it ran in slices."""
    vs = np.asarray(vs, dtype=np.int64)
    packed = mae._packed(x, cols)
    z = mae._first_layer(x, packed)
    distinct = mae._distinct_rows(x, packed, vs)
    if distinct is None:
        logits = tape.pick_affine(_whole_batch_blocks(mae, x, packed, z), mae.w_out, mae.b_out, vs)
    else:
        rows, inv = distinct
        trunk = _whole_batch_blocks(mae, x, packed, z[rows], rows)
        logits = tape.gather_1d(tape.pick_affine(trunk, mae.w_out, mae.b_out, vs[rows]), inv)
    empty = ~(x != 0).any(axis=1)
    if not empty.any():
        return logits
    return tape.where(empty, tape.gather_1d(mae.marginals, vs), logits)


def whole_batch_trunk(mae, x: np.ndarray, cols=None) -> Tensor:
    """``trunk`` run on the whole batch at once (see ``whole_batch_masked_logits``)."""
    packed = mae._packed(x, cols)
    return _whole_batch_blocks(mae, x, packed, mae._first_layer(x, packed))


def count_order_first_layer(mae, x: np.ndarray, packed) -> np.ndarray:
    """``MaeParams._first_layer`` as it was: blocks out of count order are
    copied in count order, and the output is put back in block order."""
    w_in = mae.w_in.data
    if packed is None:
        return _matmul(x, w_in)
    x3, cols, counts = packed
    # blocks in order of count, put back at the end if that moved them
    moved = (counts[1:] < counts[:-1]).any()
    if moved:
        order = np.argsort(counts, kind="stable")
        x3, cols, counts = x3[order], cols[order], counts[order]
    z = np.empty(x3.shape[:2] + (w_in.shape[1],))
    if len(counts) and counts[0] == 0:
        z[: np.searchsorted(counts, 1)] = 0.0
    for a, b, k in _count_runs(counts, x3.shape[1], w_in.shape[1]):
        np.matmul(x3[a:b, :, :k], w_in[cols[a:b, :k]], out=z[a:b])
    if moved:
        z = z[np.argsort(order)]
    return z.reshape(len(x), w_in.shape[1])


def sorted_copy_first_layer_grad(mae, x: np.ndarray, packed, gz: np.ndarray, rows=None):
    """``MaeParams._first_layer_grad`` as it was: one entry per used (row,
    slot) pair, then stably sorted copies of all three entry arrays."""
    if packed is None:
        return (x if rows is None else x[rows]).T @ gz
    x3, cols, _ = packed
    n = x3.shape[1]
    blk, slot = np.nonzero(cols >= 0)
    col = np.repeat(cols[blk, slot], n)
    row = (blk[:, None] * n + np.arange(n)).ravel()
    val = x3[blk, :, slot].ravel()
    if rows is not None:
        at = np.full(len(x), -1)
        at[rows] = np.arange(len(rows))
        row = at[row]
        keep = row >= 0
        col, row, val = col[keep], row[keep], val[keep]
    order = np.argsort(col.astype(np.min_scalar_type(len(mae.w_in.data))), kind="stable")
    col, row, val = col[order], row[order], val[order]
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    grad = np.zeros_like(mae.w_in.data)
    for c, a, b in zip(col[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), len(col)]):
        grad[c] = val[a:b] @ gz[row[a:b]]
    return grad


def all_rows_first_layer(monkeypatch) -> None:
    """Make every network call run the first layer on all of its rows and
    only then keep one row per group of equal rows, and the input weights'
    gradient expand every used (block, slot) pair to all of the block's rows
    before it drops the rows not kept: the order before the first layer ran
    on the kept rows alone."""
    monkeypatch.setattr(MaeParams, "masked_logits", _all_rows_masked_logits)
    monkeypatch.setattr(MaeParams, "masked_logits_np", _all_rows_masked_logits_np)
    monkeypatch.setattr(MaeParams, "_first_layer", _all_rows_first_layer)
    monkeypatch.setattr(MaeParams, "_first_layer_grad", _expanded_first_layer_grad)


def _all_rows_masked_logits(mae, x: np.ndarray, vs, cols=None) -> Tensor:
    vs = _row_vars(x, vs)
    packed = mae._packed(x, cols)
    z = mae._first_layer(x, packed)
    distinct = mae._distinct_rows(x, packed, vs)
    if distinct is None:
        logits = mae._taped_blocks(x, packed, z, head=vs)
    else:
        rows, inv = distinct
        logits = tape.gather_1d(mae._taped_blocks(x, packed, z[rows], rows, vs[rows]), inv)
    empty = ~(x != 0).any(axis=1)
    if not empty.any():
        return logits
    return tape.where(empty, tape.gather_1d(mae.marginals, vs), logits)


def _all_rows_masked_logits_np(mae, x: np.ndarray, vs, cols=None) -> np.ndarray:
    vs = _row_vars(x, vs)
    packed = mae._packed(x, cols)
    h = mae._first_layer(x, packed)
    distinct = mae._distinct_rows(x, packed, vs)
    head = vs
    if distinct is not None:
        rows, inv = distinct
        h, head = h[rows], vs[rows]
    logits = mae._head_np(mae._sliced_blocks_np(h), head)
    if distinct is not None:
        logits = logits[inv]
    empty = ~(x != 0).any(axis=1)
    if not empty.any():
        return logits
    return np.where(empty, mae.marginals.data[vs], logits)


def _all_rows_first_layer(mae, x: np.ndarray, packed) -> np.ndarray:
    w_in = mae.w_in.data
    if packed is None:
        return _matmul(x, w_in)
    x3, cols, counts = packed
    z = np.empty(x3.shape[:2] + (w_in.shape[1],))
    if not (counts[1:] < counts[:-1]).any():
        if len(counts) and counts[0] == 0:
            z[: np.searchsorted(counts, 1)] = 0.0
        for a, b, k in _count_runs(counts, x3.shape[1], w_in.shape[1]):
            np.matmul(x3[a:b, :, :k], w_in[cols[a:b, :k]], out=z[a:b])
    else:
        z[counts == 0] = 0.0
        order = np.argsort(counts, kind="stable")
        for a, b, k in _count_runs(counts[order], x3.shape[1], w_in.shape[1]):
            z[order[a:b]] = np.matmul(x3[order[a:b], :, :k], w_in[cols[order[a:b], :k]])
    return z.reshape(len(x), w_in.shape[1])


def _expanded_first_layer_grad(mae, x: np.ndarray, packed, gz: np.ndarray, rows=None):
    if packed is None:
        return (x if rows is None else x[rows]).T @ gz
    x3, cols, _ = packed
    n = x3.shape[1]
    blk, slot = np.nonzero(cols >= 0)
    by_col = cols[blk, slot].astype(np.min_scalar_type(len(mae.w_in.data)))
    order = np.argsort(by_col, kind="stable")
    blk, slot = blk[order], slot[order]
    col = np.repeat(cols[blk, slot], n)
    row = (blk[:, None] * n + np.arange(n)).ravel()
    val = x3[blk, :, slot].ravel()
    if rows is not None:
        at = np.full(len(x), -1)
        at[rows] = np.arange(len(rows))
        row = at[row]
        keep = row >= 0
        col, row, val = col[keep], row[keep], val[keep]
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    grad = np.zeros_like(mae.w_in.data)
    for c, a, b in zip(col[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), len(col)]):
        grad[c] = val[a:b] @ gz[row[a:b]]
    return grad


def _whole_batch_blocks(mae, x: np.ndarray, packed, h: np.ndarray, rows=None) -> Tensor:
    """The blocks on first-layer outputs h as one tape node that keeps each
    block's input, normalized values, 1/sigma and activation slope for every
    row; ``rows`` as for ``MaeParams._taped_blocks``."""
    saved: list[tuple] = []
    h = mae._blocks_np(h, saved)

    def backward(g: np.ndarray) -> None:
        # per block, last first: back through the activation slope and the
        # layer norm, into the block's affine map, then down the residual
        for k in reversed(range(len(saved))):
            h_in, xhat, inv, slope = saved[k]
            wk, bk, gamma, beta = mae.block_weights[k]
            gy = g * slope
            beta.accumulate(gy.sum(axis=0))
            gamma.accumulate((gy * xhat).sum(axis=0))
            dxhat = gy * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gz = inv * (dxhat - m1 - xhat * m2)
            if k == 0:
                mae.w_in.accumulate(mae._first_layer_grad(x, packed, gz, rows))
                mae.b_in.accumulate(gz.sum(axis=0))
            else:
                wk.accumulate(h_in.T @ gz)
                bk.accumulate(gz.sum(axis=0))
                g = g + gz @ wk.data.T

    return tape._make(h, mae._trunk_params, backward)


def _dense_log_sigmoid(z: np.ndarray) -> np.ndarray:
    return np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))


def dense_masked_logits(mae, x: np.ndarray) -> np.ndarray:
    """All logits for full-width masked rows: (B, input_width) -> (B, |V|)."""
    eps = _LN_EPS
    h = None
    for k, (wk, bk, gamma, beta) in enumerate(mae.block_weights):
        if k == 0:
            z = x @ mae.w_in.data + mae.b_in.data
        else:
            z = h @ wk.data + bk.data
        mu = z.mean(axis=-1, keepdims=True)
        zc = z - mu
        var = (zc * zc).mean(axis=-1, keepdims=True)
        zhat = zc * (1.0 / np.sqrt(var + eps))
        a = zhat * gamma.data + beta.data
        if mae.cfg.activation == "relu":
            a = np.where(a > 0, a, 0.0)
        else:
            a = np.where(a > 0, a, np.exp(np.minimum(a, 0.0)) - 1.0)
        h = a if k == 0 else h + a
    logits = h @ mae.w_out.data + mae.b_out.data
    empty = np.abs(x).sum(axis=1) == 0
    if not empty.any():
        return logits
    return np.where(empty[:, None], mae.marginals.data, logits)


def dense_parent_rows(imap, X: np.ndarray, vs) -> np.ndarray:
    """|V|-wide rows: row i keeps X[i, p] for p in parents(vs[i]), zeros elsewhere."""
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros_like(X)
    for i, v in enumerate(np.asarray(vs).tolist()):
        ps = list(imap.parents[v])
        out[i, ps] = X[i, ps]
    return out


def full_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whole rows of X in the compact (values, cols) form: every column listed."""
    X = np.asarray(X, dtype=np.float64)
    return X, np.broadcast_to(np.arange(X.shape[1]), X.shape)


def scatter_compact(values: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """The |V|-wide rows a (values, cols) pair of one-row blocks stands for."""
    out = np.zeros((len(values), width))
    r, j = np.nonzero(cols >= 0)
    np.add.at(out, (r, cols[r, j]), values[r, j])
    return out


class DenseSampler(AmortizedSampler):
    """``logq_rows`` through |V|-wide rows and the network's dense first layer.

    Built on the same parameters as the sampler it shadows; with
    ``dense_rows_in`` (below) the rows themselves are built |V| wide, so
    nothing of the compact path is left.
    """

    def logq_rows(self, rows, vs, signs) -> Tensor:
        values, cols = rows
        dense = scatter_compact(values, cols, self.num_vars)
        logits = self.params.masked_logits(dense, vs)
        return tape.log_sigmoid(tape.mul(logits, np.asarray(signs, dtype=np.float64)))


def dense_rows_in(monkeypatch) -> None:
    """Make the losses build their rows |V| wide, as ``dense_parent_rows``
    does: row i keeps X[at[i], p] for the parents p listed in its padded
    parent row, and column j is listed where j is such a parent."""

    def rows(parent_rows, X, vs, at=None):
        at = np.arange(len(vs)) if at is None else at
        parents = [[p for p in ps if p >= 0] for ps in np.asarray(parent_rows).tolist()]
        dense = np.zeros((len(parents), np.shape(X)[1]))
        cols = np.full(dense.shape, -1, dtype=np.int64)
        for i, ps in enumerate(parents):
            dense[i, ps] = np.asarray(X, dtype=np.float64)[at[i], ps]
            cols[i, ps] = ps
        return dense, cols

    monkeypatch.setattr(losses, "masked_parent_rows", rows)


def _dense_logits_at(sampler, imap, v: int, X: np.ndarray) -> np.ndarray:
    ps = list(imap.parents[v])
    row = np.zeros_like(X)
    if ps:
        row[:, ps] = X[:, ps]
    return dense_masked_logits(sampler.params, row)[:, v]


def _start(sampler, n: int, X) -> np.ndarray:
    """A float copy of the rows a walk starts from, zeros without X."""
    return np.zeros((n, sampler.num_vars)) if X is None else np.array(X, dtype=np.float64)


def dense_run_order(sampler, imap, policy, n: int, seed, X=None):
    """Draws and log q along the order, from X or zeros, the network evaluated densely."""
    rng = np.random.default_rng(seed)
    X = _start(sampler, n, X)
    logq = np.zeros(n)
    for v in imap.topo_order:
        logits = _dense_logits_at(sampler, imap, v, X)
        draws = np.where(rng.random(n) < policy.plus_probability(logits), 1.0, -1.0)
        X[:, v] = draws
        logq += _dense_log_sigmoid(draws * logits)
    return X.astype(np.int8), logq


def dense_log_prob_batch(sampler, imap, X) -> np.ndarray:
    """Sum of conditional log-probabilities along the order, evaluated densely."""
    vals = np.asarray(X, dtype=np.float64)
    logq = np.zeros(vals.shape[0])
    for v in imap.topo_order:
        logq += _dense_log_sigmoid(vals[:, v] * _dense_logits_at(sampler, imap, v, vals))
    return logq


# ---------------------------------------------------------------------------
# the sequential order walk: one network call per variable, in topological
# order, on the variable's parent columns.  The sampler batches each depth
# level of one map or of many into one call; these must give the same draws
# and the same log q.


def _parent_logits(sampler, imap, v: int, X: np.ndarray) -> np.ndarray:
    ps = np.asarray(imap.parents[v], dtype=np.int64)
    return sampler.params.masked_logits_np(X[:, ps], np.full(len(X), v), ps[None, :])


def sequential_run_order(sampler, imap, policy, n: int, seed, X=None):
    """Draws and log q along the order, from X or zeros, one variable at a time."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    X = _start(sampler, n, X)
    logq = np.zeros(n)
    for v in imap.topo_order:
        logits = _parent_logits(sampler, imap, v, X)
        draws = np.where(rng.random(n) < policy.plus_probability(logits), 1.0, -1.0)
        X[:, v] = draws
        logq += _dense_log_sigmoid(draws * logits)
    return X.astype(np.int8), logq


def sequential_log_prob_batch(sampler, imap, X) -> np.ndarray:
    """Sum of conditional log-probabilities along the order, one variable at a time."""
    vals = np.asarray(X, dtype=np.float64)
    logq = np.zeros(vals.shape[0])
    for v in imap.topo_order:
        logq += _dense_log_sigmoid(vals[:, v] * _parent_logits(sampler, imap, v, vals))
    return logq


# ---------------------------------------------------------------------------
# The graph layer's set-up stages by whole-graph scans: the minimum fill and
# the visit ties found by scanning every vertex, every candidate clique tested
# against every kept one, every clique pair listed.  The library keeps vertices
# in buckets and cliques in a vertex index; for the same rng stream it must
# make the same draws and give the same completions, cliques, trees and maps.


def reference_min_fill_chordalize(
    g: UndirectedGraph, seed: int | np.random.Generator = 0
) -> UndirectedGraph:
    """``min_fill_chordalize`` by a scan of every alive vertex at each elimination.

    Repeatedly eliminates the vertex whose neighborhood needs the fewest fill
    edges to become a clique, ties broken uniformly at random.  Already-chordal
    graphs come back unchanged (zero fill edges at every step).
    """
    _, added = reference_eliminate(g, range(g.num_vars), seed)
    return g.with_extra_edges(added)


def reference_eliminate(
    g: UndirectedGraph, verts: Iterable[int], seed: int | np.random.Generator = 0
) -> tuple[list[int], list[tuple[int, int]]]:
    """Min-fill elimination of ``verts`` by a scan of ``verts``' alive members
    at each step, every other vertex alive throughout; returns the
    elimination order and the fill edges."""
    rng = _as_rng(seed)
    n = g.num_vars
    adj = list(g.adj_masks)
    alive = (1 << n) - 1 if n else 0
    todo = set(verts)
    order: list[int] = []
    added: list[tuple[int, int]] = []

    def fill_count(v: int) -> int:
        nb = adj[v] & alive
        cnt = 0
        rest = nb
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            rest ^= low
            # pairs (a, b) with b > a, both neighbors of v, not adjacent
            cnt += (nb & rest & ~adj[a]).bit_count()
        return cnt

    fill = {v: fill_count(v) for v in sorted(todo)}
    for _ in range(len(todo)):
        best = min(fill.values())
        ties = [v for v in sorted(fill) if fill[v] == best]
        v = ties[int(rng.integers(len(ties)))] if len(ties) > 1 else ties[0]
        order.append(v)
        nb = adj[v] & alive
        dirty = nb
        rest = nb
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            rest ^= low
            need = nb & rest & ~adj[a]
            for b in _bits(need):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                added.append((a, b))
                dirty |= adj[a] & adj[b]
        alive &= ~(1 << v)
        del fill[v]
        for w in _bits(dirty & alive):
            if w in fill:
                fill[w] = fill_count(w)
    return order, added


def log_marginal_at(states: np.ndarray, log_p: np.ndarray, cols) -> np.ndarray:
    """log p(x_cols) at each of ``states``, from the joint ``log_p`` on every state."""
    cols = list(cols)
    code = (states[:, cols] > 0) @ (1 << np.arange(len(cols)))
    out = np.full(1 << len(cols), -np.inf)
    np.logaddexp.at(out, code, log_p)
    return out[code]


def reference_max_cardinality_search(
    g: UndirectedGraph, seed: int | np.random.Generator = 0
) -> tuple[list[int], list[frozenset[int]]]:
    """``max_cardinality_search`` with a weight array scanned at every visit and
    each candidate tested against every kept clique.

    Each visited vertex contributes the set {v} plus its already-visited
    neighbors; after discarding sets contained in others, a chordal input
    yields exactly its maximal cliques.  For any input the returned sets cover
    every edge.  Ties in the visit rule are broken uniformly at random.
    """
    rng = _as_rng(seed)
    n = g.num_vars
    adj = g.adj_masks
    weights = np.zeros(n, dtype=np.int64)
    visited = 0
    order: list[int] = []
    candidates: list[int] = []
    for _ in range(n):
        best = int(weights.max())
        ties = np.flatnonzero(weights == best)
        v = int(ties[rng.integers(len(ties))]) if len(ties) > 1 else int(ties[0])
        order.append(v)
        candidates.append((adj[v] & visited) | (1 << v))
        visited |= 1 << v
        weights[v] = -1
        for w in _bits(adj[v] & ~visited):
            if weights[w] >= 0:
                weights[w] += 1
    # keep only inclusion-maximal candidate sets
    candidates.sort(key=lambda m: -m.bit_count())
    kept: list[int] = []
    for c in candidates:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    cliques = [frozenset(_bits(c)) for c in kept]
    return order, cliques


class _ReferenceUnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


@dataclass(frozen=True)
class JunctionTree:
    """Rooted clique tree.  ``parent[i]`` is -1 for a root.

    ``root`` is the root clique index, or -1 when the clique graph was
    disconnected and the forest hangs under a virtual root.
    """

    cliques: tuple[frozenset[int], ...]
    parent: tuple[int, ...]
    root: int


def junction_tree(cliques: Sequence[frozenset[int]], seed) -> JunctionTree:
    """The library's spanning tree over ``cliques`` (``_spanning_tree``) as a record."""
    parent, root = _spanning_tree([_mask_of(c) for c in cliques], _as_rng(seed))
    return JunctionTree(tuple(frozenset(c) for c in cliques), tuple(parent), root)


def orient(g: UndirectedGraph, jt: JunctionTree, seed) -> Imap:
    """The library's orientation (``_orient``) of ``g`` along a breadth-first walk of ``jt``."""
    masks = [_mask_of(c) for c in jt.cliques]
    return _orient(g.adj_masks, masks, _breadth_first(jt.parent), g.num_vars, _as_rng(seed))


def reference_build_junction_tree(
    cliques: Sequence[frozenset[int]], seed: int | np.random.Generator = 0
) -> JunctionTree:
    """``build_junction_tree`` over all k(k-1)/2 clique pairs.

    Only pairs with a non-empty intersection compete; a disconnected clique
    graph therefore yields one tree per component, all hanging under a virtual
    root (``root = -1``).  Spanning-tree ties and the root choice are
    randomized.
    """
    rng = _as_rng(seed)
    masks = [_mask_of(c) for c in cliques]
    k = len(masks)
    pairs = [
        (i, j, (masks[i] & masks[j]).bit_count())
        for i in range(k)
        for j in range(i + 1, k)
        if masks[i] & masks[j]
    ]
    if pairs:
        perm = rng.permutation(len(pairs))
        pairs = [pairs[i] for i in perm]
        pairs.sort(key=lambda t: -t[2])  # stable: random order within equal weights
    uf = _ReferenceUnionFind(k)
    adj: list[list[int]] = [[] for _ in range(k)]
    for i, j, _w in pairs:
        if uf.union(i, j):
            adj[i].append(j)
            adj[j].append(i)

    components: dict[int, list[int]] = {}
    for i in range(k):
        components.setdefault(uf.find(i), []).append(i)
    comp_list = list(components.values())
    parent = [-1] * k
    comp_roots = []
    for comp in comp_list:
        root = comp[int(rng.integers(len(comp)))]
        comp_roots.append(root)
        seen = {root}
        queue = [root]
        while queue:
            c = queue.pop(0)
            for nxt in adj[c]:
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = c
                    queue.append(nxt)
    root = comp_roots[0] if len(comp_roots) == 1 else -1
    return JunctionTree(tuple(frozenset(c) for c in cliques), tuple(parent), root)



# ---------------------------------------------------------------------------
# I-maps as arc sets: the orientation built as a Dag of arcs, with parent,
# child and blanket dicts, and lifted to global ids arc by arc.  The library
# builds the order, depth and parent table directly; it must give the same
# order and the same parents for the same rng stream.


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph as a set of arcs with an explicit topological order.

    ``topo_order`` lists exactly the vertices the DAG covers (a subset of the
    universe ``0..num_vars-1`` when the DAG came from a local subgraph).
    """

    num_vars: int
    arcs: frozenset[tuple[int, int]]
    topo_order: tuple[int, ...]

    def __post_init__(self) -> None:
        pos = {v: i for i, v in enumerate(self.topo_order)}
        if len(pos) != len(self.topo_order):
            raise ValueError("topo_order has repeated vertices")
        for v in self.topo_order:
            if not 0 <= v < self.num_vars:
                raise ValueError(f"vertex {v} out of range")
        for a, b in self.arcs:
            if a not in pos or b not in pos:
                raise ValueError(f"arc ({a}, {b}) leaves the covered vertex set")
            if pos[a] >= pos[b]:
                raise ValueError(f"arc ({a}, {b}) violates topo_order")

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.topo_order))

    @cached_property
    def parent_map(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.topo_order}
        for a, b in self.arcs:
            out[b].append(a)
        return {v: tuple(sorted(ps)) for v, ps in out.items()}

    @cached_property
    def child_map(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.topo_order}
        for a, b in self.arcs:
            out[a].append(b)
        return {v: tuple(sorted(cs)) for v, cs in out.items()}


def reference_induced_subgraph(g: UndirectedGraph, vertices) -> tuple[UndirectedGraph, tuple]:
    """Subgraph over ``vertices`` by a scan of every edge of ``g``."""
    order = tuple(sorted(vertices))
    index = {v: i for i, v in enumerate(order)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return UndirectedGraph.from_edges(len(order), edges), order


def reference_traversal_order(jt: JunctionTree) -> list[int]:
    """Breadth-first clique order from the roots, by a list popped at the front."""
    children: list[list[int]] = [[] for _ in jt.cliques]
    for i, p in enumerate(jt.parent):
        if p != -1:
            children[p].append(i)
    order: list[int] = []
    queue = [i for i, p in enumerate(jt.parent) if p == -1]
    while queue:
        i = queue.pop(0)
        order.append(i)
        queue.extend(children[i])
    return order


@lru_cache(maxsize=64)
def reference_completion(g: UndirectedGraph, chordal_seed: int) -> UndirectedGraph:
    """The reference min-fill completion, cached per (graph, seed) as the library caches it."""
    return reference_min_fill_chordalize(g, chordal_seed)


def reference_build_imap(chordal: UndirectedGraph, jt: JunctionTree, rng) -> Dag:
    """Orient every chordal edge from the earlier to the later visited vertex."""
    visit: list[int] = []
    seen: set[int] = set()
    for ci in reference_traversal_order(jt):
        fresh = [v for v in sorted(jt.cliques[ci]) if v not in seen]
        if len(fresh) > 1:
            perm = rng.permutation(len(fresh))
            fresh = [fresh[i] for i in perm]
        visit.extend(fresh)
        seen.update(fresh)
    pos = {v: i for i, v in enumerate(visit)}
    arcs = frozenset(
        (u, v) if pos[u] < pos[v] else (v, u) for u, v in chordal.edges if u in pos and v in pos
    )
    return Dag(num_vars=chordal.num_vars, arcs=arcs, topo_order=tuple(visit))


def reference_lift_imap(local: Dag, mapping, num_vars: int) -> Dag:
    lift = dict(enumerate(mapping))
    return Dag(
        num_vars=num_vars,
        arcs=frozenset((lift[a], lift[b]) for a, b in local.arcs),
        topo_order=tuple(lift[v] for v in local.topo_order),
    )


def reference_blanket(dag: Dag) -> dict[int, tuple[int, ...]]:
    """Parents, children and co-parents of each vertex."""
    out = {}
    for v in dag.topo_order:
        b = set(dag.parent_map[v]) | set(dag.child_map[v])
        for c in dag.child_map[v]:
            b.update(dag.parent_map[c])
        b.discard(v)
        out[v] = tuple(sorted(b))
    return out


def reference_sample_imap(g: UndirectedGraph, seed, chordal_seed: int = 0) -> Dag:
    """``sample_imap``'s draw, from the same rng stream."""
    rng = _as_rng(seed)
    chordal = reference_completion(g, chordal_seed)
    _, cliques = reference_max_cardinality_search(chordal, rng)
    jt = reference_build_junction_tree(cliques, rng)
    return reference_build_imap(chordal, jt, rng)


def reference_sub_imap(g: UndirectedGraph, u: int, seed, chordal_seed: int = 0) -> Dag:
    """``sub_imap``'s draw, from the same rng stream."""
    rng = _as_rng(seed)
    chordal = reference_completion(g, chordal_seed)
    local, mapping = reference_induced_subgraph(chordal, {u} | set(chordal.neighbors(u)))
    _, cliques = reference_max_cardinality_search(local, rng)
    jt = reference_build_junction_tree(cliques, rng)
    return reference_lift_imap(reference_build_imap(local, jt, rng), mapping, g.num_vars)


def reference_imap_arrays(dag: Dag) -> tuple[list[int], list[int], list[list[int]]]:
    """Order, depth per position and the -1-padded sorted parent rows of ``dag``."""
    order = list(dag.topo_order)
    depth_of: dict[int, int] = {}
    for v in order:
        depth_of[v] = 1 + max(depth_of[p] for p in dag.parent_map[v]) if dag.parent_map[v] else 0
    width = max((len(dag.parent_map[v]) for v in order), default=0)
    rows = [list(dag.parent_map[v]) + [-1] * (width - len(dag.parent_map[v])) for v in order]
    return order, [depth_of[v] for v in order], rows


def imap_arcs(imap: Imap) -> frozenset[tuple[int, int]]:
    """The map's arcs (parent, child)."""
    return frozenset((p, v) for v, ps in imap.parents.items() for p in ps)


def completion_on(g: UndirectedGraph, imap: Imap, chordal_seed: int = 0) -> UndirectedGraph:
    """The chordal completion of ``g`` restricted to the vertices the map covers.

    Computed afresh from ``g``, not read off the map, so comparing it with the
    map's skeleton checks the orientation.
    """
    covered = set(imap.vertices)
    edges = reference_completion(g, chordal_seed).edges
    return UndirectedGraph(g.num_vars, frozenset(e for e in edges if covered.issuperset(e)))


# ---------------------------------------------------------------------------
# structural checks


def moral_graph(imap: Imap) -> UndirectedGraph:
    """Undirected skeleton plus edges between co-parents."""
    edges = {(min(a, b), max(a, b)) for a, b in imap_arcs(imap)}
    for ps in imap.parents.values():
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.add((min(ps[i], ps[j]), max(ps[i], ps[j])))
    return UndirectedGraph(imap.num_vars, frozenset(edges))


def verify_no_immoralities(imap: Imap, chordal: UndirectedGraph) -> bool:
    """True iff every vertex's parent set is pairwise adjacent in ``chordal``."""
    for ps in imap.parents.values():
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                if not has_edge(chordal, ps[i], ps[j]):
                    return False
    return True


def running_intersection_holds(jt: JunctionTree) -> bool:
    """Check that each vertex's cliques form one connected subtree."""
    vertex_cliques: dict[int, list[int]] = {}
    for i, c in enumerate(jt.cliques):
        for v in c:
            vertex_cliques.setdefault(v, []).append(i)
    for v, idxs in vertex_cliques.items():
        members = set(idxs)
        tops = [i for i in idxs if jt.parent[i] not in members]
        if len(tops) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# subTB as an explicit sum over ranges: one residual column per (i, j) pair.
# The library evaluates the same weighted sum as one quadratic form.


def pair_subtb_loss_batch(s, imap, m, X, flow, lam: float) -> Tensor:
    """λ-weighted mean of squared sub-range residuals, one column per range."""
    X = _require_full(imap, X)
    n, num_vars = X.shape
    pm = _prefix_rows(imap, X)
    ss = np.repeat(np.arange(n), num_vars + 1)
    kk = np.tile(np.arange(num_vars + 1), n)
    F = tape.reshape(flow.log_flow_rows(m, pm[kk * n + ss]), (n, num_vars + 1))
    (values, cols), vs, signs = _step_rows(imap, X)
    perm = np.tile(np.arange(num_vars), n) * n + np.repeat(np.arange(n), num_vars)
    lq = _clamped_logq(s, (values[perm], cols[perm]), vs[perm], signs[perm])
    lq = tape.reshape(lq, (n, num_vars))
    lower = np.tril(np.ones((num_vars + 1, num_vars)), k=-1)
    D = F - tape.matmul(lq, tape.const(lower.T))

    ii, jj, ww = [], [], []
    for a in range(num_vars + 1):
        for b in range(a + 1, num_vars + 1):
            ii.append(a)
            jj.append(b)
            ww.append(lam ** (b - a))
    pairs = np.zeros((num_vars + 1, len(ii)))
    pairs[ii, np.arange(len(ii))] = 1.0
    pairs[jj, np.arange(len(jj))] = -1.0
    weights = np.array(ww)
    weights = weights / weights.sum()
    R = tape.matmul(D, tape.const(pairs))  # (n, n_pairs)
    return tape.mul(R.square(), weights).sum() * (1.0 / n)


# ---------------------------------------------------------------------------
# one-row and one-state conveniences: single-sample wrappers of the batch
# losses, the forward-looking flow of one assignment, lookups in an
# enumerated table, and the sampler's one-draw and one-row calls.  The
# library itself only needs the batched forms.


def state_index(x: np.ndarray) -> int:
    """Inverse of all_states row construction."""
    bits = (np.asarray(x) > 0).astype(np.int64)
    return int(bits @ (1 << np.arange(len(bits), dtype=np.int64)))


def state_prob(t: ExactTable, x) -> float:
    return float(t.full_probs[state_index(_row(x))])


def table_conditional(t: ExactTable, v: int, x) -> float:
    """P(x_v = +1 | instantiated variables of x other than v)."""
    vals = _row(x)
    states = t.states()
    cond = np.ones(len(states), dtype=bool)
    for w in np.flatnonzero(vals):
        if w != v:
            cond &= states[:, w] == vals[w]
    total = float(t.full_probs[cond].sum())
    plus = float(t.full_probs[cond & (states[:, v] == 1)].sum())
    return plus / total


def conditional_logit(t: ExactTable, v: int, x) -> float:
    p = table_conditional(t, v, x)
    return float(np.log(p) - np.log1p(-p))


def tv_distance(t: ExactTable, other_probs: np.ndarray) -> float:
    return 0.5 * float(np.abs(t.full_probs - other_probs).sum())


def exact_sample(t: ExactTable, n: int, seed) -> list[np.ndarray]:
    """I.i.d. exact samples, one row each (empty list for n = 0)."""
    if n == 0:
        return []
    return list(t.sample_matrix(n, seed))


def partial_sample(s: AmortizedSampler, sub: Imap, policy: Policy, seed) -> np.ndarray:
    """One draw instantiating exactly the variables the local map covers."""
    return s.partial_sample_batch(sub, policy, 1, seed)[0]


def conditional_logprob(s, imap: Imap, v: int, x) -> float:
    """log q(x_v | x_parents(v)) under ``imap``: one row of the sampler's ``logq_rows``."""
    vals = np.asarray(x, dtype=np.float64)[None, :]
    return float(s.logq_rows(imap_parent_rows(imap, vals, [v]), [v], vals[:, v]).data[0])


def log_prob(s: AmortizedSampler, imap: Imap, x) -> float:
    return float(s.log_prob_batch(imap, _row(x)[None, :])[0])


def tb_loss(s, imap: Imap, m: EnergyModel, x, logZ: LogZEstimate) -> Tensor:
    return tb_loss_batch(s, imap, m, _row(x)[None, :], logZ)


def subtb_loss(s, imap: Imap, m: EnergyModel, x, flow, lam: float) -> Tensor:
    return subtb_loss_batch(s, imap, m, _row(x)[None, :], flow, lam)


class OrderViolation(FlipmatchError):
    """A prefix of instantiated variables does not follow the sampling order."""


def db_loss(s, imap: Imap, m: EnergyModel, x_prefix, next_var: int, flow) -> Tensor:
    """One detailed-balance step: flows on either side of sampling next_var."""
    vals = _row(x_prefix).astype(np.float64)
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
    rows = imap_parent_rows(imap, vals[None, :], np.array([next_var]))
    logq = _clamped_logq(s, rows, [next_var], [vals[next_var]])
    residual = (
        tape.gather_1d(flows, np.array([0]))
        + logq
        - tape.gather_1d(flows, np.array([1]))
    )
    return residual.square().sum()


def fl_flow(flow: FlowHead, m: EnergyModel, x, mode: str = ZERO_MASKED) -> Tensor:
    """Forward-looking log-flow of one partial assignment: correction + reward.

    No terminal substitution happens here — the balance losses pin terminals
    themselves — so a full assignment evaluates to log R plus the correction.
    """
    vals = _row(x)
    corr = flow.correction_rows(vals[None, :].astype(np.float64))
    partial = partial_reward(m, vals, mode)
    return corr.sum() + float(partial)


# ---------------------------------------------------------------------------
# the walk and the flip terms as they were before the conditional table and
# the term table: one network call per depth level, and one block of term
# rows per flip variable, stacked


def level_walk(
    self,
    maps: list[Imap],
    n: int,
    X: np.ndarray | None = None,
    policy: Policy | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (with ``rng``) or score (without) n rows under each map, by wavefront.

    Row j*n + i belongs to map j and starts from row j*n + i of X, or from
    zeros.  Each depth level of all maps goes
    through the network in one call.  The uniforms are drawn up front in
    the order a map-by-map, variable-by-variable walk draws them, and each
    row's log q is summed in topological order, so draws and log q do not
    depend on how the levels are batched.  Zero rows give empty results.
    """
    if n < 0:
        raise ConfigError(f"cannot draw {n} rows")
    map_of, pos, var, parents, levels = _merged_levels(maps)
    N = len(maps) * n
    work = np.zeros((N, self.num_vars + 1))
    if X is not None:
        work[:, :-1] = X
    uniforms = None if rng is None else rng.random(len(var) * n).reshape(len(var), n)
    terms = np.zeros((len(maps), max(len(m.order) for m in maps), n))
    for ent in levels:
        rows = map_of[ent, None] * n + np.arange(n)
        cols = var[ent, None]
        logits = self._entry_logits(work, rows, var[ent], parents[ent])
        if uniforms is not None:
            work[rows, cols] = np.where(
                uniforms[ent] < policy.plus_probability(logits), 1.0, -1.0
            )
        terms[map_of[ent], pos[ent]] = log_sigmoid_np(work[rows, cols] * logits)
    logq = np.zeros((len(maps), n))
    for t in range(terms.shape[1]):
        logq += terms[:, t]
    return work[:, :-1], logq.reshape(N)


def _children(imap: Imap, u: int) -> np.ndarray:
    """u's children under the map, ascending, read off its parent table."""
    return np.sort(imap.order[(imap.parent_table == u).any(axis=1)])


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
    values, cols = imap_parent_rows(imap, X_rows, vs)
    new_u = flip_side[:, None] & (cols == u)
    values[new_u] = new_vals[row_ids[new_u.any(axis=1)]]
    signs = X_rows[np.arange(len(vs)), vs]
    signs[n : 2 * n] = new_vals
    return values, cols, vs, signs, np.where(flip_side, -1.0, 1.0), row_ids


def per_u_delta_loss_batch(
    s,
    imap: Imap | Mapping[int, Imap],
    m: EnergyModel,
    X,
    us,
    new_vals,
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

    logq = _clamped_logq(s, rows, vs, signs)
    ratio_sum = tape.segment_sum(tape.mul(logq, coeffs), seg, len(X))
    delta = m.delta_log_reward_batch(X.astype(np.int8), us, new_vals.astype(np.int8))
    residual = tape.const(delta) - ratio_sum
    return residual.square().mean()


# ---------------------------------------------------------------------------
# the single-child surrogate as it was before it became rows of the step's one
# term table: its own term table, three network calls and a scalar reward
# delta per flip, in a loop over the step's heavy flips


def per_flip_delta_loss_stochastic_grad(
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
    vals = _row(x)
    n = len(_children(imap, u))
    if n <= 1:
        raise TooFewChildren(
            f"variable {u} has {n} children; use delta_loss directly"
        )
    X = vals[None, :].astype(np.float64)
    new = np.array([xu_new], dtype=np.float64)
    (values, cols), vs, signs, coeffs, seg, _ = _term_table(imap, X, np.array([u]), new)
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

    delta = delta_log_reward(m, vals, u, int(xu_new))
    g = tape.const(np.asarray(delta)) - ratio(0)
    f_i = -ratio(1 + i)
    f_j = -ratio(1 + j)
    blocked_term = (g + float(n) * tape.stop_gradient(f_i)).square()
    pair_term = (
        tape.stop_gradient(g) + float(n - 1) * tape.stop_gradient(f_i) + f_j
    ).square()
    return blocked_term + float(n) * pair_term


def per_flip_step_loss(s, imap_arg, m: EnergyModel, X, us, new_vals, thr: int, r_flip) -> Tensor:
    """The flip-matching step's loss as the trainer assembled it: the exact
    flips in one batch call, then each flip at a variable with more than
    ``thr`` children by its own surrogate, seeded off ``r_flip`` in flip order."""
    imap_of = (lambda u: imap_arg[u]) if isinstance(imap_arg, dict) else (lambda u: imap_arg)
    if thr > 0:
        n_children = np.array([len(_children(imap_of(int(u)), int(u))) for u in us])
        heavy = n_children > thr
    else:
        heavy = np.zeros(len(X), dtype=bool)

    total = len(X)
    loss = None
    if not heavy.all():
        keep = ~heavy
        exact = losses.delta_loss_batch(s, imap_arg, m, X[keep], us[keep], new_vals[keep])
        loss = exact * (float(keep.sum()) / total)
    for k in np.flatnonzero(heavy):
        surrogate = per_flip_delta_loss_stochastic_grad(
            s,
            imap_of(int(us[k])),
            m,
            X[k].astype(np.int8),
            int(us[k]),
            int(new_vals[k]),
            seed=int(r_flip.integers(2**31)),
        )
        term = surrogate * (1.0 / total)
        loss = term if loss is None else loss + term
    return loss


def per_flip_trainer_step(trainer) -> tuple[float, int]:
    """``_DeltaTrainer.step`` with the per-flip surrogate loop."""
    if trainer.step_count % trainer.cfg.imap_refresh_period == 0 and trainer.step_count > 0:
        trainer._refresh()
    X, us, imap_arg, instantiated = trainer._draw_batch()
    new_vals = -X[np.arange(len(X)), us]
    loss = per_flip_step_loss(
        trainer.s, imap_arg, trainer.m, X, us, new_vals,
        trainer.cfg.stochastic_children_above, trainer.r_flip,
    )
    trainer.opt.zero_grad()
    tape.backward(loss)
    trainer.opt.step()
    trainer.step_count += 1
    return float(loss.data), instantiated


# ---------------------------------------------------------------------------
# Gibbs as it was before the level schedule: one variable at a time in index
# order, on a chains-major state, one logit call per variable


def sequential_flip_logits(m: EnergyModel, u: int, X: np.ndarray) -> np.ndarray:
    """log R(x with x_u=+1) - log R(x with x_u=-1) per row of X: the
    neighbour-list field for Ising models, the touching-factor sum otherwise."""
    X = _batch_values(X)
    if isinstance(m, IsingModel):
        nb = np.array(m.graph.neighbors(u), dtype=np.int64)
        field = X[:, nb] @ m.J[u, nb]
        return m.sigma * (4.0 * field + 2.0 * m.b[u])
    plus = X.copy()
    plus[:, u] = 1
    minus = X.copy()
    minus[:, u] = -1
    out = np.zeros(X.shape[0])
    for k in factors_touching(m, u):
        f = m.factors[k]
        out += f.log_value(plus[:, f.scope]) - f.log_value(minus[:, f.scope])
    return out


def sequential_gibbs(
    m: EnergyModel,
    n_chains: int,
    n_steps: int,
    anneal_schedule: AnnealSchedule | None = None,
    seed=0,
) -> np.ndarray:
    """Systematic-scan Gibbs sampling, one step = one full sweep over variables."""
    if n_chains < 0 or n_steps < 0:
        raise ConfigError(f"chain and sweep counts cannot be negative: {n_chains}, {n_steps}")
    rng = _as_rng(seed)
    schedule = anneal_schedule or AnnealSchedule()
    X = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_chains, m.num_vars))
    X = X.astype(np.float64)
    for sweep in range(n_steps if n_chains else 0):
        beta = schedule.beta(sweep)
        for u in range(m.num_vars):
            logits = sequential_flip_logits(m, u, X)
            p_plus = sigmoid_np(beta * logits)
            X[:, u] = np.where(rng.random(n_chains) < p_plus, 1.0, -1.0)
    return X.astype(np.int8)
