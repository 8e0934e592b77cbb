"""Independent brute-force reference implementations used across the tests.

Everything here is deliberately naive: subset enumeration, full-energy
evaluation, central finite differences, explicit conditional tables walked one
variable at a time.  The library must agree with these on small inputs; none
of this code is imported by the package itself.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from flipmatch import losses
from flipmatch.energy import (
    EnergyModel,
    ExactTable,
    IsingModel,
    TabularBayesNetModel,
    _batch_values,
    ebm_param_grad,
)
from flipmatch.errors import (
    ConfigError,
    EmptyBatch,
    EmptyDataset,
    FlipmatchError,
    PartialAssignment,
    ShapeMismatch,
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
    sample_imap,
    sub_imap,
)
from flipmatch.harness import MetricsRow, TrainConfig, metric_mmd_linear, metric_nll
from flipmatch.harness.em import _check_latent, data_marginal_loglik, latent_imap
from flipmatch.harness.loops import (
    GFN_OBJECTIVES,
    _aux_multipliers,
    _spawn_rngs,
    interaction_graph,
)
from flipmatch.losses import (
    FlowHead,
    LogZEstimate,
    _check_flips,
    _clamped_logq,
    _require_full,
    _step_rows,
    _surrogate_pairs,
    _term_table,
    db_trajectory_loss,
    delta_loss_batch,
    subtb_loss_batch,
    tb_loss_batch,
)
from flipmatch.nn import AdamState, MaeConfig, MaeParams, tape
from flipmatch.nn.mae import (
    _BLOCK_ELEMENTS,
    _LN_EPS,
    _count_runs,
    _head_np,
    _matmul,
    _row_slices,
    _row_vars,
    pick_affine_grads,
)
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


def partial_reward(m: EnergyModel, x) -> float:
    """Zero-masked reward of a partial assignment: log R with 0 at its masked variables."""
    return float(m.log_reward_batch(_row(x)[None, :])[0])


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


def every_column(x: np.ndarray) -> np.ndarray:
    """``cols`` that hand (B, input_width) rows to the network as one block
    listing every column."""
    return np.arange(np.shape(x)[1])[None, :]


def trunk_np(mae, x: np.ndarray, cols=None) -> np.ndarray:
    """The network's gradient-free trunk: (B, input_width) rows, or (B, K) with ``cols``."""
    cols = every_column(x) if cols is None else cols
    return mae._sliced_blocks_np(mae._first_layer(mae._packed(x, cols)))


def taped_trunk(mae, x: np.ndarray, cols) -> Tensor:
    """The trunk on compact input rows as one tape node, without a head."""
    packed = mae._packed(x, cols)
    return _whole_batch_blocks(
        mae, mae._first_layer(packed), partial(mae._first_layer_grad, packed)
    )


def pick_affine(x: Tensor, w: Tensor, b: Tensor, cols: np.ndarray) -> Tensor:
    """out[i] = x[i] . w[:, cols[i]] + b[cols[i]]: the network's head as a
    tape node of its own, on trunk rows recorded apart from it."""
    cols = np.asarray(cols, dtype=np.int64)
    w_rows = w.data.T[cols]  # (rows, width): row i is column cols[i] of w

    def back(g):
        if x.requires_grad:
            x.accumulate(g[:, None] * w_rows)
        gw, gb = np.zeros_like(w.data), np.zeros_like(b.data)
        pick_affine_grads(x.data, g, cols, gw, gb)
        if w.requires_grad:
            w.accumulate(gw)
        if b.requires_grad:
            b.accumulate(gb)

    out_data = np.einsum("ij,ij->i", x.data, w_rows) + b.data[cols]
    return tape._make(out_data, (x, w, b), back)


def flow_head(mae, trunk: Tensor) -> Tensor:
    """The flow head as a ``pick_affine`` node on separately taped trunk rows."""
    return pick_affine(trunk, mae.w_flow, mae.b_flow, np.zeros(trunk.shape[0], dtype=np.int64))


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

    def log_flows(self, m: EnergyModel, imap: Imap, X: np.ndarray) -> Tensor:
        """log F of every prefix of the order, prefix-major, as ``FlowHead.log_flows``."""
        return self.log_flow_rows(m, _prefix_rows(imap, X))

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


def whole_batch_masked_logits(mae, x: np.ndarray, vs, cols) -> Tensor:
    """``masked_logits`` with the blocks run on the whole batch at once, every
    block's intermediates kept, and the head as a separate ``pick_affine``
    node: the taped call before it ran in slices."""
    vs = np.asarray(vs, dtype=np.int64)
    packed = mae._packed(x, cols)
    z = mae._first_layer(packed)
    distinct = mae._distinct_rows(packed, vs)
    if distinct is None:
        trunk = _whole_batch_blocks(mae, z, partial(mae._first_layer_grad, packed))
        logits = pick_affine(trunk, mae.w_out, mae.b_out, vs)
    else:
        rows, inv = distinct
        trunk = _whole_batch_blocks(mae, z[rows], partial(mae._first_layer_grad, packed, rows=rows))
        logits = tape.gather_1d(pick_affine(trunk, mae.w_out, mae.b_out, vs[rows]), inv)
    empty = ~(x != 0).any(axis=1)
    if not empty.any():
        return logits
    return tape.where(empty, tape.gather_1d(mae.marginals, vs), logits)


def whole_batch_prefix_flows(mae, X: np.ndarray, order) -> Tensor:
    """``prefix_flows`` with the blocks run on the whole batch at once and the
    flow head as a separate ``pick_affine`` node (see ``whole_batch_masked_logits``)."""
    return flow_head(mae, _whole_batch_blocks(mae, *mae._prefix_first_layer(X, order)))


def sliced_prefix_flows(mae, X: np.ndarray, order) -> Tensor:
    """``prefix_flows`` as it was before the flow head ran inside the
    network's tape node: the blocks as one node of their own, on the same
    row slices, and the flow head as a separate ``pick_affine`` node on the
    (rows, width) trunk output."""
    z, w_in_grad = mae._prefix_first_layer(X, order)
    slices = _row_slices(*z.shape)
    trunk = np.empty_like(z)
    last = None
    for s in slices:
        if s is slices[-1]:
            last = []
            trunk[s] = mae._blocks_np(z[s], last)
        else:
            trunk[s] = mae._blocks_np(z[s].copy())

    def backward(g: np.ndarray) -> None:
        gz = z
        for s in reversed(slices):
            saved = last
            if s is not slices[-1]:
                saved = []
                mae._blocks_np(z[s].copy(), saved)
            gz[s] = mae._blocks_backward(saved, g[s])
        mae.w_in.accumulate(w_in_grad(gz))
        mae.b_in.accumulate(gz.sum(axis=0))

    return flow_head(mae, tape._make(trunk, mae._trunk_params, backward))


def count_order_first_layer(mae, packed) -> np.ndarray:
    """``MaeParams._first_layer`` as it was: blocks out of count order are
    copied in count order, and the output is put back in block order."""
    w_in = mae.w_in.data
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
    return z.reshape(-1, w_in.shape[1])


def sorted_copy_first_layer_grad(mae, packed, gz: np.ndarray, rows=None):
    """``MaeParams._first_layer_grad`` as it was: one entry per used (row,
    slot) pair, then stably sorted copies of all three entry arrays."""
    x3, cols, _ = packed
    n = x3.shape[1]
    blk, slot = np.nonzero(cols >= 0)
    col = np.repeat(cols[blk, slot], n)
    row = (blk[:, None] * n + np.arange(n)).ravel()
    val = x3[blk, :, slot].ravel()
    if rows is not None:
        at = np.full(x3.shape[0] * n, -1)
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


def _all_rows_masked_logits(mae, x: np.ndarray, vs, cols) -> Tensor:
    vs = _row_vars(x, vs)
    packed = mae._packed(x, cols)
    z = mae._first_layer(packed)
    distinct = mae._distinct_rows(packed, vs)
    if distinct is None:
        head = (mae.w_out, mae.b_out, vs)
        logits = mae._taped_blocks(z, partial(mae._first_layer_grad, packed), head)
    else:
        rows, inv = distinct
        w_in_grad = partial(mae._first_layer_grad, packed, rows=rows)
        head = (mae.w_out, mae.b_out, vs[rows])
        logits = tape.gather_1d(mae._taped_blocks(z[rows], w_in_grad, head), inv)
    empty = ~(x != 0).any(axis=1)
    if not empty.any():
        return logits
    return tape.where(empty, tape.gather_1d(mae.marginals, vs), logits)


def _all_rows_masked_logits_np(mae, x: np.ndarray, vs, cols) -> np.ndarray:
    vs = _row_vars(x, vs)
    packed = mae._packed(x, cols)
    h = mae._first_layer(packed)
    distinct = mae._distinct_rows(packed, vs)
    head = vs
    if distinct is not None:
        rows, inv = distinct
        h, head = h[rows], vs[rows]
    logits = _head_np(mae._sliced_blocks_np(h), mae.w_out.data, mae.b_out.data, head)
    if distinct is not None:
        logits = logits[inv]
    empty = ~(x != 0).any(axis=1)
    if not empty.any():
        return logits
    return np.where(empty, mae.marginals.data[vs], logits)


def _all_rows_first_layer(mae, packed) -> np.ndarray:
    w_in = mae.w_in.data
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
    return z.reshape(-1, w_in.shape[1])


def _expanded_first_layer_grad(mae, packed, gz: np.ndarray, rows=None):
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
        at = np.full(x3.shape[0] * n, -1)
        at[rows] = np.arange(len(rows))
        row = at[row]
        keep = row >= 0
        col, row, val = col[keep], row[keep], val[keep]
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    grad = np.zeros_like(mae.w_in.data)
    for c, a, b in zip(col[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), len(col)]):
        grad[c] = val[a:b] @ gz[row[a:b]]
    return grad


def _whole_batch_blocks(mae, h: np.ndarray, w_in_grad) -> Tensor:
    """The blocks on first-layer outputs h as one tape node that keeps each
    block's input, normalized values, 1/sigma and activation slope for every
    row; ``w_in_grad`` as for ``MaeParams._taped_blocks``."""
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
                mae.w_in.accumulate(w_in_grad(gz))
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
    """``logq_rows`` through |V|-wide rows, one block listing every column.

    Built on the same parameters as the sampler it shadows; with
    ``dense_rows_in`` (below) the rows themselves are built |V| wide, so
    nothing of the compact parent rows is left.
    """

    def logq_rows(self, rows, vs, signs) -> Tensor:
        values, cols = rows
        dense = scatter_compact(values, cols, self.num_vars)
        logits = self.params.masked_logits(dense, vs, every_column(dense))
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
# state flows on |V|-wide masked rows, as the flow head read them before its
# prefixes became a running sum of the first layer and its reward a running
# sum of local deltas: any rows through the dense first layer, and DB and
# subTB on the dense prefix rows, subTB as a quadratic form on the tape's
# dense product, which no loss of the package needs any more.


def matmul(a, b) -> Tensor:
    """a @ b on the tape."""
    a, b = tape._as_tensor(a), tape._as_tensor(b)

    def back(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return tape._make(a.data @ b.data, (a, b), back)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def back(g):
        x.accumulate(g.reshape(x.data.shape))

    return tape._make(x.data.reshape(shape), (x,), back)


def correction_rows(flow: FlowHead, rows: np.ndarray) -> Tensor:
    """The flow head's output on masked rows, before any reward is added, as
    one tape node through the dense first layer: rows @ w_in, whose input
    weights' gradient is rows.T @ gz."""
    mae, x = flow.params, np.asarray(rows, dtype=np.float64)
    head = (mae.w_flow, mae.b_flow, np.zeros(len(x), dtype=np.int64))
    return mae._taped_blocks(_matmul(x, mae.w_in.data), lambda gz: x.T @ gz, head)


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


def log_flow_rows(flow, m: EnergyModel, rows: np.ndarray) -> Tensor:
    """log F for a batch of masked rows; a ``FlowHead``'s full rows pinned to log R."""
    if isinstance(flow, ExactFlow):
        return flow.log_flow_rows(m, rows)
    rows = np.asarray(rows, dtype=np.float64)
    full = np.all(rows != 0, axis=1)
    out = correction_rows(flow, rows)
    if flow.forward_looking:
        out = out + m.log_reward_batch(rows)
    if not full.any():
        return out
    pinned = np.zeros(rows.shape[0])
    pinned[full] = m.log_reward_batch(rows[full].astype(np.int8))
    return tape.where(full, tape.const(pinned), out)


def dense_db_trajectory_loss(s, imap: Imap, m: EnergyModel, X, flow) -> Tensor:
    """``db_trajectory_loss`` with its flows on the dense prefix rows."""
    X = _require_full(imap, X)
    n, num_vars = X.shape
    flows = log_flow_rows(flow, m, _prefix_rows(imap, X))  # ((V+1)*n,) prefix-major
    rows, vs, signs = _step_rows(imap, X)
    logq = _clamped_logq(s, rows, vs, signs)  # (V*n,) step-major
    idx = np.arange(num_vars * n)
    residual = tape.gather_1d(flows, idx) + logq - tape.gather_1d(flows, idx + n)
    return residual.square().mean()


def dense_subtb_loss_batch(s, imap: Imap, m: EnergyModel, X, flow, lam: float) -> Tensor:
    """``subtb_loss_batch`` with its flows on the dense prefix rows, the rows
    and the step conditionals reordered sample-major before the network."""
    X = _require_full(imap, X)
    n, num_vars = X.shape
    pm = _prefix_rows(imap, X)
    ss = np.repeat(np.arange(n), num_vars + 1)
    kk = np.tile(np.arange(num_vars + 1), n)
    F = reshape(log_flow_rows(flow, m, pm[kk * n + ss]), (n, num_vars + 1))
    (values, cols), vs, signs = _step_rows(imap, X)
    perm = np.tile(np.arange(num_vars), n) * n + np.repeat(np.arange(n), num_vars)
    lq = _clamped_logq(s, (values[perm], cols[perm]), vs[perm], signs[perm])
    lq = reshape(lq, (n, num_vars))
    lower = np.tril(np.ones((num_vars + 1, num_vars)), k=-1)
    D = F - matmul(lq, tape.const(lower.T))
    k = np.arange(num_vars + 1)
    W = np.power(float(lam), np.abs(k[:, None] - k[None, :]))
    np.fill_diagonal(W, 0.0)
    W /= W.sum() / 2
    Q = (np.diag(W.sum(axis=1)) - W) / n
    return (matmul(D, tape.const(Q)) * D).sum()


# ---------------------------------------------------------------------------
# subTB as an explicit sum over ranges: one residual column per (i, j) pair.
# The library evaluates the same weighted sum as running sums along the order.


def pair_subtb_loss_batch(s, imap, m, X, flow, lam: float) -> Tensor:
    """λ-weighted mean of squared sub-range residuals, one column per range."""
    X = _require_full(imap, X)
    n, num_vars = X.shape
    sample_major = np.tile(np.arange(num_vars + 1), n) * n + np.repeat(np.arange(n), num_vars + 1)
    F = tape.gather_1d(flow.log_flows(m, imap, X), sample_major)
    F = reshape(F, (n, num_vars + 1))
    (values, cols), vs, signs = _step_rows(imap, X)
    perm = np.tile(np.arange(num_vars), n) * n + np.repeat(np.arange(n), num_vars)
    lq = _clamped_logq(s, (values[perm], cols[perm]), vs[perm], signs[perm])
    lq = reshape(lq, (n, num_vars))
    lower = np.tril(np.ones((num_vars + 1, num_vars)), k=-1)
    D = F - matmul(lq, tape.const(lower.T))

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
    R = matmul(D, tape.const(pairs))  # (n, n_pairs)
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
    flows = log_flow_rows(flow, m, np.vstack([prefix, vals]))
    rows = imap_parent_rows(imap, vals[None, :], np.array([next_var]))
    logq = _clamped_logq(s, rows, [next_var], [vals[next_var]])
    residual = (
        tape.gather_1d(flows, np.array([0]))
        + logq
        - tape.gather_1d(flows, np.array([1]))
    )
    return residual.square().sum()


def fl_flow(flow: FlowHead, m: EnergyModel, x) -> Tensor:
    """Forward-looking log-flow of one partial assignment: correction + reward.

    No terminal substitution happens here — the balance losses pin terminals
    themselves — so a full assignment evaluates to log R plus the correction.
    """
    vals = _row(x)
    corr = correction_rows(flow, vals[None, :])
    partial = partial_reward(m, vals)
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
    """``_Trainer.step`` with the per-flip surrogate loop."""
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


def sequential_flip_logits(m: EnergyModel, u: int, X: np.ndarray, J=None) -> np.ndarray:
    """log R(x with x_u=+1) - log R(x with x_u=-1) per row of X: the
    neighbour-list field for Ising models, the touching-factor sum otherwise.
    ``J`` is an Ising model's dense couplings, read from ``m.J`` if not given."""
    X = _batch_values(X)
    if isinstance(m, IsingModel):
        J = m.J if J is None else J
        nb = np.array(m.graph.neighbors(u), dtype=np.int64)
        field = X[:, nb] @ J[u, nb]
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
    J = m.J if isinstance(m, IsingModel) else None
    for sweep in range(n_steps if n_chains else 0):
        beta = schedule.beta(sweep)
        for u in range(m.num_vars):
            logits = sequential_flip_logits(m, u, X, J)
            p_plus = sigmoid_np(beta * logits)
            X[:, u] = np.where(rng.random(n_chains) < p_plus, 1.0, -1.0)
    return X.astype(np.int8)


# ---------------------------------------------------------------------------
# the forms before rows at the width of their data: the walk's states in a
# float64 work array and every network input as float64 values with int64
# columns, and the prefix layer's running sums by ``np.cumsum``


def cumsum_prefix_first_layer(mae, X: np.ndarray, order):
    """``MaeParams._prefix_first_layer`` as it was: both running sums by
    ``np.cumsum`` along the prefix axis, the one of largest stride."""
    X = np.asarray(X, dtype=np.float64)
    order = np.asarray(order, dtype=np.int64)
    w_in = mae.w_in.data
    xo = X.T[order]
    z = np.zeros((len(order) + 1, len(X), w_in.shape[1]))
    np.multiply(xo[:, :, None], w_in[order][:, None, :], out=z[1:])
    np.cumsum(z, axis=0, out=z)

    def w_in_grad(gz: np.ndarray) -> np.ndarray:
        after = np.cumsum(gz.reshape(z.shape)[:0:-1], axis=0)[::-1]
        grad = np.zeros_like(w_in)
        grad[order] = np.matmul(xo[:, None, :], after)[:, 0]
        return grad

    return z.reshape(-1, z.shape[2]), w_in_grad


def _float_conditional_table(s, var: np.ndarray, parents: np.ndarray, n: int):
    counts = (parents >= 0).sum(axis=1)
    take = counts < int(n).bit_length()
    offset = np.full(len(var), -1, dtype=np.int64)
    cap = max(1, _BLOCK_ELEMENTS // s.params.cfg.width)
    chunks, a = [np.zeros(0)], 0
    for k in np.unique(counts[take]).tolist():
        ents = np.flatnonzero(take & (counts == k))
        size = 1 << k
        offset[ents] = a + size * np.arange(len(ents))
        a += size * len(ents)
        configs = np.where((np.arange(size)[:, None] >> np.arange(k)) & 1, 1.0, -1.0)
        step = max(1, cap // size)
        for e in np.split(ents, np.arange(step, len(ents), step)):
            x = np.broadcast_to(configs, (len(e), size, k)).reshape(len(e) * size, k)
            chunks.append(s.params.masked_logits_np(x, np.repeat(var[e], size), parents[e, :k]))
    return np.concatenate(chunks), offset


def _float_entry_logits(s, work, rows, vs, parents) -> np.ndarray:
    width = int((parents >= 0).sum(axis=1).max(initial=0))
    parents = parents[:, :width]
    x = work[rows[:, :, None], np.where(parents < 0, work.shape[1] - 1, parents)[:, None, :]]
    e, n = rows.shape
    logits = s.params.masked_logits_np(x.reshape(e * n, width), np.repeat(vs, n), parents)
    return logits.reshape(e, n)


def float_walk(
    s,
    maps: list[Imap],
    n: int,
    X: np.ndarray | None = None,
    policy: Policy | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``AmortizedSampler._walk`` with float64 states and int64 parent columns."""
    map_of, pos, var, parents, levels = _merged_levels(maps)
    parents = parents.astype(np.int64)
    N = len(maps) * n
    work = np.zeros((N, s.num_vars + 1))
    if X is not None:
        work[:, :-1] = X
    table, offset = _float_conditional_table(s, var, parents, n)
    uniforms = None if rng is None else rng.random(len(var) * n).reshape(len(var), n)
    terms = np.zeros((len(maps), max(len(m.order) for m in maps), n))
    for ent in levels:
        rows = map_of[ent, None] * n + np.arange(n)
        cols = var[ent, None]
        at, logits = offset[ent] >= 0, np.empty(rows.shape)
        plus = work[rows[at][:, :, None], parents[ent[at], None, : int(n).bit_length()]] > 0
        logits[at] = table[offset[ent[at], None] + (plus << np.arange(plus.shape[2])).sum(-1)]
        if not at.all():
            e = ent[~at]
            logits[~at] = _float_entry_logits(s, work, rows[~at], var[e], parents[e])
        if uniforms is not None:
            work[rows, cols] = np.where(
                uniforms[ent] < policy.plus_probability(logits), 1.0, -1.0
            )
        terms[map_of[ent], pos[ent]] = log_sigmoid_np(work[rows, cols] * logits)
    logq = np.zeros((len(maps), n))
    for t in range(terms.shape[1]):
        logq += terms[:, t]
    return work[:, :-1], logq.reshape(N)


# ---------------------------------------------------------------------------
# IsingModel as it was before the coupling table: every coupling read from a
# dense (|V|, |V|) J


class DenseIsingModel(IsingModel):
    """An ``IsingModel`` whose rewards, flip ratios, Gibbs logits and
    parameters read a dense J it keeps, as the model did before its
    couplings moved to an edge table beside the neighbour table."""

    def __init__(self, J: np.ndarray, b: np.ndarray, sigma: float = 0.2) -> None:
        super().__init__(J, b, sigma)
        self.dense_J = np.array(J, dtype=np.float64)

    def _rebuild_factor_weights(self) -> None:
        k = 0
        for u, v in self.edges:
            self.factors[k].weight = 2.0 * self.sigma * self.dense_J[u, v]
            k += 1
        for v in range(self.num_vars):
            self.factors[k].weight = self.sigma * self.b[v]
            k += 1

    def log_reward_batch(self, X) -> np.ndarray:
        X = _batch_values(X).astype(np.float64)
        return self.sigma * (np.einsum("ni,ni->n", X @ self.dense_J, X) + X @ self.b)

    def local_flip_logits(self, u, X: np.ndarray) -> np.ndarray:
        Xv = _batch_values(X).T
        us = np.atleast_1d(np.asarray(u, dtype=np.int64))
        field = np.empty((len(us), Xv.shape[1]))
        deg = self._degree[us]
        for d in np.unique(deg).tolist():
            at = np.flatnonzero(deg == d)
            nb = self._nbrs[us[at], :d]
            blocks = np.ascontiguousarray(Xv[nb], dtype=np.float64).transpose(0, 2, 1)
            field[at] = np.matmul(blocks, self.dense_J[us[at, None], nb][:, :, None])[:, :, 0]
        out = self.sigma * (4.0 * field + 2.0 * self.b[us][:, None])
        return out if np.ndim(u) else out[0]

    def delta_log_reward_batch(self, X, us, new_vals) -> np.ndarray:
        X = _batch_values(X)
        us = np.asarray(us)
        Xf = X.astype(np.float64)
        field = np.einsum("nj,nj->n", Xf, self.dense_J[us])
        diff = (X[np.arange(X.shape[0]), us] - np.asarray(new_vals)).astype(np.float64)
        return self.sigma * diff * (2.0 * field + self.b[us])

    def get_params(self) -> np.ndarray:
        coup = np.array([self.dense_J[u, v] for u, v in self.edges])
        return np.concatenate([coup, self.b])

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.num_params():
            raise ShapeMismatch("parameter vector size mismatch")
        for k, (u, v) in enumerate(self.edges):
            self.dense_J[u, v] = self.dense_J[v, u] = flat[k]
        self.b = flat[len(self.edges) :].copy()
        self._rebuild_factor_weights()


# ---------------------------------------------------------------------------
# the taped trunk's backward as it was before the first layer's output
# gradient took the output's own buffer


def two_buffer_trunk_backward(mae, z, w_in_grad, head, last, g: np.ndarray) -> None:
    """``MaeParams._trunk_backward`` with gz in an array of its own beside z."""
    w, b, cols = head
    slices = _row_slices(*z.shape)
    gz = np.empty_like(z)
    gw, gb = np.zeros_like(w.data), np.zeros_like(b.data)
    for s in reversed(slices):
        if s is slices[-1]:
            saved, h = last
        else:
            saved = []
            h = mae._blocks_np(z[s].copy(), saved)
        pick_affine_grads(h, g[s], cols[s], gw, gb)
        gz[s] = mae._blocks_backward(saved, g[s][:, None] * w.data.T[cols[s]])
    w.accumulate(gw)
    b.accumulate(gb)
    mae.w_in.accumulate(w_in_grad(gz))
    mae.b_in.accumulate(gz.sum(axis=0))


# ---------------------------------------------------------------------------
# The four training loops as they were before one trainer ran every sampler
# update: flip matching in a trainer of its own, trajectory balance and the
# flow objectives in a loop of their own, and EM's E-step inline


def reference_eval_metrics(s, imap: Imap, eval_samples, eval_rng) -> tuple[float, float]:
    if eval_samples is None:
        return float("nan"), float("nan")
    nll = metric_nll(s, imap, eval_samples)
    draws, _ = s.ancestral_sample(imap, Policy.on_policy(), len(eval_samples), seed=eval_rng)
    return nll, metric_mmd_linear(draws, eval_samples)


class ReferenceDeltaTrainer:
    """One flip-matching update at a time, against a possibly changing model."""

    def __init__(self, cfg: TrainConfig, m: EnergyModel, s: AmortizedSampler) -> None:
        self.cfg = cfg
        self.m = m
        self.s = s
        self.g = interaction_graph(m)
        self.policy = cfg.policy()
        self.r_sample, self.r_flip, self.r_imap = _spawn_rngs(cfg.seed, 3)
        self.opt = AdamState(
            s.params.params,
            lr=cfg.lr,
            total_steps=cfg.total_steps,
            lr_multipliers=_aux_multipliers(s.params, cfg.aux_lr_multiplier),
        )
        self.step_count = 0
        self.full_imap: Imap = sample_imap(self.g, seed=self.r_imap)
        self.subs: dict[int, Imap] = {}
        if cfg.sub_dags_per_var > 0:
            self._refresh_subs()

    def _refresh_subs(self) -> None:
        self.subs = {u: sub_imap(self.g, u, seed=self.r_imap) for u in range(self.m.num_vars)}

    def _refresh(self) -> None:
        self.full_imap = sample_imap(self.g, seed=self.r_imap)
        if self.cfg.sub_dags_per_var > 0:
            self._refresh_subs()

    def _draw_batch(self) -> tuple[np.ndarray, np.ndarray, object, int]:
        num_vars = self.m.num_vars
        if self.cfg.sub_dags_per_var == 0:
            X, _ = self.s.ancestral_sample(
                self.full_imap, self.policy, self.cfg.batch_size, seed=self.r_sample
            )
            us = self.r_flip.integers(0, num_vars, size=self.cfg.batch_size)
            return X, us, self.full_imap, num_vars
        k = self.cfg.sub_dags_per_var
        maps = [self.subs[u] for u in range(num_vars)]
        X = self.s.partial_sample_batch(maps, self.policy, k, seed=self.r_sample)
        us = np.repeat(np.arange(num_vars), k)
        widest = max(len(self.subs[u].order) for u in range(num_vars))
        return X, us, self.subs, widest

    def step(self) -> tuple[float, int]:
        """One gradient update; returns (objective value, widest instantiation)."""
        if self.step_count % self.cfg.imap_refresh_period == 0 and self.step_count > 0:
            self._refresh()
        X, us, imap_arg, instantiated = self._draw_batch()
        new_vals = -X[np.arange(len(X)), us]
        pairs = _surrogate_pairs(imap_arg, us, self.cfg.stochastic_children_above, self.r_flip)
        loss = delta_loss_batch(self.s, imap_arg, self.m, X, us, new_vals, pairs=pairs)
        self.opt.zero_grad()
        tape.backward(loss)
        self.opt.step()
        self.step_count += 1
        return float(loss.data), instantiated


def reference_train_delta(
    cfg: TrainConfig, m: EnergyModel, s: AmortizedSampler, eval_samples=None
) -> tuple[AmortizedSampler, list[MetricsRow]]:
    """Train the sampler by local flip matching (Algorithm: sample, flip, match).

    Returns the sampler and one metrics row per evaluation point.  Pass
    ``eval_samples`` (full assignments from the target) to get NLL and MMD
    columns; without them those columns are NaN.
    """
    if cfg.objective != "delta":
        raise ConfigError(f"train_delta needs objective delta, got {cfg.objective!r}")
    trainer = ReferenceDeltaTrainer(cfg, m, s)
    (eval_rng,) = _spawn_rngs(cfg.seed + 1, 1)
    rows: list[MetricsRow] = []
    t0 = time.perf_counter()
    for step in range(cfg.total_steps):
        loss, instantiated = trainer.step()
        if (step + 1) % cfg.eval_period == 0 or step + 1 == cfg.total_steps:
            nll, mmd = reference_eval_metrics(s, trainer.full_imap, eval_samples, eval_rng)
            rows.append(
                MetricsRow(step + 1, time.perf_counter() - t0, nll, mmd, loss, instantiated)
            )
    return s, rows


def reference_train_gfn(
    cfg: TrainConfig,
    m: EnergyModel,
    s: AmortizedSampler,
    flow: FlowHead | None = None,
    logZ: LogZEstimate | None = None,
    eval_samples=None,
) -> tuple[AmortizedSampler, list[MetricsRow]]:
    """Train the sampler on full trajectories with a balance objective.

    ``tb`` learns the scalar normalizer (``logZ``, created if not given, at
    ``aux_lr_multiplier`` times the base rate); the detailed and sub-range
    objectives learn state flows through ``flow`` (a head on the sampler's own
    network by default, forward-looking for the ``fl-`` variants).
    """
    if cfg.objective not in GFN_OBJECTIVES:
        raise ConfigError(
            f"train_gfn needs one of {', '.join(GFN_OBJECTIVES)}, got {cfg.objective!r}"
        )
    g = interaction_graph(m)
    r_sample, r_imap, eval_rng = _spawn_rngs(cfg.seed, 3)
    params = list(s.params.params)
    multipliers = _aux_multipliers(s.params, cfg.aux_lr_multiplier)
    if cfg.objective == "tb":
        if logZ is None:
            logZ = LogZEstimate()
        params.append(logZ.value)
        multipliers.append(cfg.aux_lr_multiplier)
    else:
        if flow is None:
            flow = FlowHead(s.params, forward_looking=cfg.objective.startswith("fl-"))
        flow_params = getattr(flow, "params", None)
        if flow_params is not None and flow_params is not s.params:
            params.extend(flow_params.params)
            multipliers.extend(_aux_multipliers(flow_params, cfg.aux_lr_multiplier))
    opt = AdamState(
        params, lr=cfg.lr, total_steps=cfg.total_steps, lr_multipliers=multipliers
    )
    policy = cfg.policy()
    imap = sample_imap(g, seed=r_imap)
    rows: list[MetricsRow] = []
    t0 = time.perf_counter()
    for step in range(cfg.total_steps):
        if step % cfg.imap_refresh_period == 0 and step > 0:
            imap = sample_imap(g, seed=r_imap)
        X, _ = s.ancestral_sample(imap, policy, cfg.batch_size, seed=r_sample)
        if cfg.objective == "tb":
            loss = tb_loss_batch(s, imap, m, X, logZ)
        elif cfg.objective in ("db", "fl-db"):
            loss = db_trajectory_loss(s, imap, m, X, flow)
        else:
            loss = subtb_loss_batch(s, imap, m, X, flow, cfg.subtb_lambda)
        opt.zero_grad()
        tape.backward(loss)
        opt.step()
        if (step + 1) % cfg.eval_period == 0 or step + 1 == cfg.total_steps:
            nll, mmd = reference_eval_metrics(s, imap, eval_samples, eval_rng)
            rows.append(
                MetricsRow(
                    step + 1, time.perf_counter() - t0, nll, mmd, float(loss.data), m.num_vars
                )
            )
    return s, rows


def reference_train_ebm(
    cfg: TrainConfig,
    m: EnergyModel,
    s: AmortizedSampler,
    data,
    p_lr: float = 0.05,
    p_updates: int = 300,
    alternation: tuple[int, int] = (100, 100),
    warmup: int = 0,
    neg_batch: int | None = None,
    eval_samples=None,
) -> tuple[EnergyModel, AmortizedSampler, list[MetricsRow]]:
    """Learn the energy parameters from data, with the sampler as the negative phase.

    Alternates ``alternation[0]`` flip-matching updates of the sampler against
    the current energies with ``alternation[1]`` likelihood-ascent updates of
    the energies (positive phase from the dataset, negative phase from the
    sampler), until ``p_updates`` energy steps have run.  ``warmup`` extra
    sampler updates run before the first energy step so the negative phase
    starts from a sampler that already tracks the initial energies; size
    ``cfg.total_steps`` to roughly the total sampler updates so the learning
    rate schedule spans the run.  Energy parameters keep the support they
    were constructed with, so initialize couplings you want learned at small
    nonzero values.
    """
    if cfg.objective != "delta":
        raise ConfigError("energy learning trains its sampler by flip matching")
    data = np.asarray(data, dtype=np.int8)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyDataset("energy learning needs a non-empty dataset of assignments")
    if np.any(data == 0):
        raise PartialAssignment("the dataset must be fully instantiated")
    if not (alternation[0] > 0 and alternation[1] > 0):
        raise ConfigError("both alternation phase lengths must be positive")
    trainer = ReferenceDeltaTrainer(cfg, m, s)
    r_data, r_neg, eval_rng = _spawn_rngs(cfg.seed + 1, 3)
    nb = cfg.batch_size if neg_batch is None else neg_batch
    rows: list[MetricsRow] = []
    t0 = time.perf_counter()
    for _ in range(warmup):
        trainer.step()
    p_done = 0
    while p_done < p_updates:
        loss = float("nan")
        instantiated = 0
        for _ in range(alternation[0]):
            loss, instantiated = trainer.step()
        for _ in range(alternation[1]):
            if p_done == p_updates:
                break
            pos = data[r_data.integers(0, len(data), size=min(cfg.batch_size, len(data)))]
            neg, _ = s.ancestral_sample(
                trainer.full_imap, Policy.on_policy(), nb, seed=r_neg
            )
            m.set_params(m.get_params() + p_lr * ebm_param_grad(m, pos, neg))
            p_done += 1
        nll, mmd = reference_eval_metrics(s, trainer.full_imap, eval_samples, eval_rng)
        rows.append(MetricsRow(p_done, time.perf_counter() - t0, nll, mmd, loss, instantiated))
    return m, s, rows


def reference_train_em(
    cfg: TrainConfig,
    p: TabularBayesNetModel,
    latent,
    data,
    s: AmortizedSampler | None = None,
    rounds: int = 5,
    m_steps: int = 40,
    m_lr: float = 0.2,
    completions_per_row: int = 2,
) -> tuple[TabularBayesNetModel, AmortizedSampler | None, list[MetricsRow]]:
    """Fit a latent-variable model by alternating posterior and likelihood updates.

    Each round runs ``cfg.total_steps`` flip-matching updates of the
    conditional sampler (E) followed by ``m_steps`` exact-gradient ascent
    updates of the model on posterior-completed data (M).  With no latent
    variables the E-step vanishes and this is plain maximum likelihood.
    The E-step scores every flip exactly under one latent map, so
    ``sub_dags_per_var`` and ``stochastic_children_above`` must be 0.

    Rows of ``data`` must instantiate every observed variable; latent
    coordinates are ignored.  Returns the model, the sampler (None when
    nothing is latent), and one metrics row per round whose ``nll`` column is
    the negative marginal log-likelihood of the data and whose
    ``instantiated`` column counts the variables the sampler fills in.
    """
    if cfg.objective != "delta":
        raise ConfigError("the posterior sampler trains by flip matching")
    for name in ("sub_dags_per_var", "stochastic_children_above"):
        if getattr(cfg, name):
            raise ConfigError(f"EM scores every flip exactly under one latent map: {name} must be 0")
    if rounds < 1 or m_steps < 1 or completions_per_row < 1 or m_lr <= 0:
        raise ConfigError("rounds, m_steps, completions_per_row, and m_lr must be positive")
    hidden_set = set(int(v) for v in latent)
    data = np.asarray(data, dtype=np.int8)
    if data.ndim != 2 or data.shape[1] != p.num_vars:
        raise ShapeMismatch(f"data must be (n, {p.num_vars}), got {data.shape}")
    if data.shape[0] == 0:
        raise EmptyDataset("EM needs at least one data row")

    if not hidden_set:
        if np.any(data == 0):
            raise PartialAssignment("with nothing latent every coordinate must be observed")
        rows: list[MetricsRow] = []
        t0 = time.perf_counter()
        for r in range(rounds):
            for _ in range(m_steps):
                p.set_params(p.get_params() + m_lr * p.log_reward_grad_mean(data))
            nll = -data_marginal_loglik(p, (), data)
            rows.append(MetricsRow(r + 1, time.perf_counter() - t0, nll, float("nan"), float("nan"), 0))
        return p, s, rows

    hidden, observed = _check_latent(hidden_set, p.num_vars)
    if np.any(data[:, observed] == 0):
        raise PartialAssignment("every observed coordinate must carry a value")
    if s is None:
        s = AmortizedSampler(
            MaeParams(
                MaeConfig(
                    num_vars=p.num_vars,
                    width=cfg.width,
                    blocks=cfg.blocks,
                    activation=cfg.activation,
                    init_seed=cfg.seed,
                )
            )
        )
    elif s.num_vars != p.num_vars:
        raise ConfigError(f"the sampler has {s.num_vars} variables, the model {p.num_vars}")

    r_sample, r_flip, r_imap, r_data, r_m = _spawn_rngs(cfg.seed, 5)
    opt = AdamState(
        s.params.params,
        lr=cfg.lr,
        total_steps=rounds * cfg.total_steps,
        lr_multipliers=_aux_multipliers(s.params, cfg.aux_lr_multiplier),
    )
    policy = cfg.policy()
    imap = latent_imap(p, hidden, r_imap)
    hidden_arr = np.array(hidden)
    e_steps_done = 0
    last_loss = float("nan")
    rows = []
    t0 = time.perf_counter()
    for r in range(rounds):
        for _ in range(cfg.total_steps):
            if e_steps_done % cfg.imap_refresh_period == 0 and e_steps_done > 0:
                imap = latent_imap(p, hidden, r_imap)
            idx = r_data.integers(0, len(data), size=cfg.batch_size)
            X = s.partial_sample_batch(imap, policy, cfg.batch_size, seed=r_sample, X=data[idx])
            us = hidden_arr[r_flip.integers(0, len(hidden), size=cfg.batch_size)]
            new_vals = -X[np.arange(cfg.batch_size), us]
            loss = delta_loss_batch(s, imap, p, X, us, new_vals)
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
            e_steps_done += 1
            last_loss = float(loss.data)
        for _ in range(m_steps):
            obs_rep = np.repeat(data, completions_per_row, axis=0)
            Xc = s.partial_sample_batch(imap, Policy.on_policy(), len(obs_rep), seed=r_m, X=obs_rep)
            grad = p.log_reward_grad_mean(Xc)
            p.set_params(p.get_params() + m_lr * grad)
        nll = -data_marginal_loglik(p, hidden, data)
        rows.append(
            MetricsRow(r + 1, time.perf_counter() - t0, nll, float("nan"), last_loss, len(hidden))
        )
    return p, s, rows
