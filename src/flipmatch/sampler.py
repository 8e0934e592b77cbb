"""The amortized ancestral sampler over directed orientations of a graphical model.

The amortized sampler evaluates each variable's conditional from an input
masked down to exactly the variable's parents.  Because the mask is the only
thing that encodes the order, a single set of weights can serve every I-map of
the same graph, including the small local maps used for partial sampling.
Sampling, scoring and the taped losses hand the network only the parent
columns and read back only the variable's own logit, so a conditional costs
what its parent set costs, not what |V| costs.  ``masked_parent_rows`` builds
that compact input for the losses: per row, the parents' values and their
column indices, read off ``Imap.parent_table``.  A map's given variables
(``Imap.given``, the observed values of a latent posterior) are parent
columns like any other: the walk reads them from the rows it starts from.

Draws and scores follow a wavefront walk.  Each I-map holds its topological
order, the depth of each position and the padded parent table as arrays
(``Imap.order``, ``Imap.depth``, ``Imap.parent_table``); the walk merges the
levels of one map or of many.  An entry with k parents and 2^k <= n, n the
rows per map, has all its parent configurations evaluated in one table before
the walk and reads its logits off it by its parents' signs; the other entries
of a level go through the network in one call.  The uniforms are drawn up
front in the order of a map-by-map, variable-by-variable walk, and each row's
log q is summed in topological order, so batching changes neither the draws
nor log q.

Also here: exploration policies (tempered and epsilon-uniform) and a
systematic-scan Gibbs chain with optional annealing.  The chain scans the
variables in index order, but a variable waits only on its lower-index
neighbours, so a sweep runs by dependency levels: one batched update of the
local conditionals per level of pairwise non-adjacent variables (63 levels
for a 32x32 lattice, against 1024 variables).  A sweep's uniforms are drawn
up front in variable order, so the draws equal those of a scan that updates
one variable at a time, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from flipmatch.energy import EnergyModel
from flipmatch.errors import (
    ConfigError,
    PartialAssignment,
    ShapeMismatch,
)
from flipmatch.graph import Imap, UndirectedGraph, _as_rng
from flipmatch.nn import tape
from flipmatch.nn.mae import _BLOCK_ELEMENTS, MaeParams, index_dtype
from flipmatch.nn.tape import Tensor, log_sigmoid_np, sigmoid_np

__all__ = [
    "Policy",
    "AmortizedSampler",
    "AnnealSchedule",
    "gibbs_chain",
    "masked_parent_rows",
]


@dataclass(frozen=True)
class Policy:
    """How a step's sampling distribution is derived from the model's logits.

    ``on-policy`` draws from the model itself; ``tempered`` divides logits by
    a temperature; ``eps-uniform`` mixes the on-policy step distribution with
    a uniform coin, p = (1-eps) * p_on + eps * p_uniform.  Policies only shape
    what gets drawn — log-probabilities are always reported under the
    unmodified model.
    """

    kind: str = "on-policy"
    temperature: float = 1.0
    eps: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("on-policy", "tempered", "eps-uniform"):
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if not self.temperature > 0:
            raise ConfigError("temperature must be positive")
        if not 0.0 <= self.eps <= 1.0:
            raise ConfigError("eps must lie in [0, 1]")

    @classmethod
    def on_policy(cls) -> "Policy":
        return cls()

    def plus_probability(self, logits: np.ndarray) -> np.ndarray:
        """Probability of drawing +1 at a step with the given model logits."""
        if self.kind == "tempered":
            return sigmoid_np(np.asarray(logits) / self.temperature)
        p_on = sigmoid_np(logits)
        if self.kind == "eps-uniform":
            return (1.0 - self.eps) * p_on + self.eps * 0.5
        return p_on


def masked_parent_rows(
    parents: np.ndarray, X: np.ndarray, vs: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of X reduced to the parent columns of the given variables.

    ``parents[i]`` holds the parents of vs[i], padded with -1 (rows of
    ``Imap.parent_table``), and ``rows[i]`` the row of X it reads (i if not
    given).  Returns (values, cols), the network's compact input form: cols
    trimmed to the widest parent set of the batch, and values[i] =
    X[rows[i], cols[i]] (0 where padded) — "condition exactly on the
    parents" without a |V|-wide row.  values has X's dtype and cols the
    parent table's: the int8 states and narrow column ids of the sampler and
    the losses reach the network as they are.  cols is a view of
    ``parents``, so a caller that gathers the parent rows trims them first.
    """
    X = np.asarray(X)
    cols = np.asarray(parents)
    cols = cols[:, : int((cols >= 0).sum(axis=1).max(initial=0))]
    values = X[(np.arange(len(vs)) if rows is None else rows)[:, None], cols]
    values[cols < 0] = 0
    return values, cols


def _merged(maps: list[Imap]):
    """The (map, position) entries of several maps, map-major, then by
    topological position: per-entry map index, variable and parents, padded
    with -1 to the widest parent set of all maps, in ``index_dtype``."""
    map_of = np.repeat(np.arange(len(maps)), [len(m.order) for m in maps])
    var = np.concatenate([m.order for m in maps])
    width = max(m.parent_table.shape[1] for m in maps)
    parents = np.full((len(var), width), -1, dtype=index_dtype(maps[0].num_vars))
    a = 0
    for m in maps:
        parents[a : a + len(m.order), : m.parent_table.shape[1]] = m.parent_table
        a += len(m.order)
    return map_of, var, parents


def _merged_levels(maps: list[Imap]):
    """The entries of ``_merged``, with positions, grouped by depth level.

    Returns per-entry map index, position, variable and parents, and the
    entry numbers of each depth level, ordered by parent count so that the
    network's first layer finds equal counts side by side.
    """
    map_of, var, parents = _merged(maps)
    pos = np.concatenate([np.arange(len(m.order)) for m in maps])
    depth = np.concatenate([m.depth for m in maps])
    by_depth = np.lexsort(((parents >= 0).sum(axis=1), depth))
    levels = np.split(by_depth, np.flatnonzero(np.diff(depth[by_depth])) + 1)
    return map_of, pos, var, parents, levels


class AmortizedSampler:
    """A network-backed sampler usable under any I-map of its graph."""

    def __init__(self, params: MaeParams) -> None:
        self.params = params

    @property
    def num_vars(self) -> int:
        return self.params.cfg.num_vars

    # -- conditional evaluation ----------------------------------------------

    def logq_rows(self, rows: tuple[np.ndarray, np.ndarray], vs, signs) -> Tensor:
        """Taped log q(sign_i at var vs_i | parent row i) for a batch of rows.

        ``rows`` is the (values, cols) pair of ``masked_parent_rows``; the
        network reads only those columns and computes only the logit of each
        row's own variable.
        """
        values, cols = rows
        logits = self.params.masked_logits(values, vs, cols)
        return tape.log_sigmoid(tape.mul(logits, np.asarray(signs, dtype=np.float64)))

    def _entry_logits(
        self, work: np.ndarray, rows: np.ndarray, vs: np.ndarray, parents: np.ndarray
    ) -> np.ndarray:
        """Logit of variable vs[e] at rows rows[e] of work, in one network call.

        ``work`` holds the values drawn or given so far plus a last column of
        zeros, which the -1 padding of ``parents`` reads.  Each entry hands
        the network its parent columns, so the first layer gathers one block
        of input weights per entry, not per row.
        """
        width = int((parents >= 0).sum(axis=1).max(initial=0))
        parents = parents[:, :width]
        x = work[rows[:, :, None], parents[:, None, :]]
        e, n = rows.shape
        logits = self.params.masked_logits_np(x.reshape(e * n, width), np.repeat(vs, n), parents)
        return logits.reshape(e, n)

    def _conditional_table(self, var: np.ndarray, parents: np.ndarray, n: int):
        """Logits of all +-1 parent configurations of each entry with k parents, 2^k <= n.

        Entry e's 2^k rows start at ``offset[e]`` (-1 for the other entries),
        row c with +1 at parent slot j where bit j of c is set.  Entries go by
        k, whole entries per call, ``_BLOCK_ELEMENTS // width`` rows a call.
        """
        counts = (parents >= 0).sum(axis=1)
        take = counts < int(n).bit_length()
        offset = np.full(len(var), -1, dtype=np.int64)
        cap = max(1, _BLOCK_ELEMENTS // self.params.cfg.width)
        chunks, a = [np.zeros(0)], 0
        for k in np.unique(counts[take]).tolist():
            ents = np.flatnonzero(take & (counts == k))
            size = 1 << k
            offset[ents] = a + size * np.arange(len(ents))
            a += size * len(ents)
            configs = np.where((np.arange(size)[:, None] >> np.arange(k)) & 1, 1, -1).astype(np.int8)
            step = max(1, cap // size)
            for e in np.split(ents, np.arange(step, len(ents), step)):
                x = np.broadcast_to(configs, (len(e), size, k)).reshape(len(e) * size, k)
                chunks.append(self.params.masked_logits_np(x, np.repeat(var[e], size), parents[e, :k]))
        return np.concatenate(chunks), offset

    def _walk(
        self,
        maps: list[Imap],
        n: int,
        X: np.ndarray | None = None,
        policy: Policy | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw (with ``rng``) or score (without) n rows under each map, by wavefront.

        Row j*n + i belongs to map j and starts from row j*n + i of X, or
        from zeros: drawing overwrites the maps' variables and reads every
        other column where a parent names it, scoring reads them all.
        Entries of the ``_conditional_table`` read their logits off it; the
        other entries of each depth level of all maps go through the network
        in one call.  The uniforms are drawn up front in the order a
        map-by-map, variable-by-variable walk draws them, and each row's log
        q is summed in topological order, so draws and log q do not depend on
        how the conditionals are batched.  ``work`` holds -1, 0 and +1 only,
        as int8; the draws come back as an int8 view of it.  Zero rows give
        empty results.
        """
        if n < 0:
            raise ConfigError(f"cannot draw {n} rows")
        map_of, pos, var, parents, levels = _merged_levels(maps)
        N = len(maps) * n
        work = np.zeros((N, self.num_vars + 1), dtype=np.int8)
        if X is not None:
            work[:, :-1] = X
        table, offset = self._conditional_table(var, parents, n)
        uniforms = None if rng is None else rng.random(len(var) * n).reshape(len(var), n)
        terms = np.zeros((len(maps), max(len(m.order) for m in maps), n))
        for ent in levels:
            rows = map_of[ent, None] * n + np.arange(n)
            cols = var[ent, None]
            at, logits = offset[ent] >= 0, np.empty(rows.shape)
            # tabulated entries: a -1 pad reads work's zero column, so sets no bit
            plus = work[rows[at][:, :, None], parents[ent[at], None, : int(n).bit_length()]] > 0
            logits[at] = table[offset[ent[at], None] + (plus << np.arange(plus.shape[2])).sum(-1)]
            if not at.all():
                e = ent[~at]
                logits[~at] = self._entry_logits(work, rows[~at], var[e], parents[e])
            if uniforms is None:
                x = work[rows, cols]
            else:
                x = np.where(uniforms[ent] < policy.plus_probability(logits), 1.0, -1.0)
                work[rows, cols] = x
            terms[map_of[ent], pos[ent]] = log_sigmoid_np(x * logits)
        logq = np.zeros((len(maps), n))
        for t in range(terms.shape[1]):
            logq += terms[:, t]
        return work[:, :-1], logq.reshape(N)

    # -- sampling --------------------------------------------------------------

    def ancestral_sample(
        self, imap: Imap, policy: Policy, n: int, seed
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw n full samples; returns (states, model log q of each draw)."""
        if len(imap.order) != self.num_vars:
            raise ConfigError(
                "ancestral sampling needs an I-map covering every variable; "
                "use partial_sample_batch for local maps"
            )
        return self._walk([imap], n, policy=policy, rng=_as_rng(seed))

    def partial_sample_batch(
        self, sub: Imap | Sequence[Imap], policy: Policy, n: int, seed, X=None
    ) -> np.ndarray:
        """n draws under one local map, or under each of a sequence of maps.

        With k maps the result has k*n rows; row j*n + i is draw i under map
        j.  ``X``, one row per output row, holds the values the draws start
        from: each map's given variables must be at -1 or +1 in its rows,
        the map's own variables are drawn over, and every other column is
        returned as it is.  Without X the draws start from zeros.  The draws
        equal those of k one-map calls in turn on the same rng.
        """
        maps = [sub] if isinstance(sub, Imap) else list(sub)
        if not maps:
            raise ConfigError("partial sampling needs at least one local map")
        if X is not None:
            X = np.asarray(X)
            if X.shape != (len(maps) * n, self.num_vars):
                raise ShapeMismatch(
                    f"X must be ({len(maps) * n}, {self.num_vars}), one row per draw, got {X.shape}"
                )
        for j, m in enumerate(maps):
            if len(m.given) and (X is None or np.any(np.abs(X[j * n : (j + 1) * n, m.given]) != 1)):
                raise PartialAssignment(
                    f"map {j} is drawn given {m.given.tolist()}: X must hold -1 or +1 there"
                )
        return self._walk(maps, n, X, policy=policy, rng=_as_rng(seed))[0]

    # -- scoring ----------------------------------------------------------------

    def log_prob_batch(self, imap: Imap, X) -> np.ndarray:
        """Sum of conditional log-probabilities along the order, per row:
        log q of the map's variables given its given ones."""
        vals = np.asarray(X)
        if vals.ndim == 1:
            vals = vals[None, :]
        if not np.all(np.abs(vals[:, np.concatenate([imap.order, imap.given])]) == 1):
            raise PartialAssignment(
                "log_prob needs the map's drawn and given variables at -1 or +1"
            )
        return self._walk([imap], vals.shape[0], vals)[1]


# ---------------------------------------------------------------------------
# Gibbs


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear inverse-temperature ramp: 1/start_temperature up to 1.0.

    ``beta(t)`` gives the inverse temperature for sweep t (0-indexed); after
    ``ramp_sweeps`` sweeps the target energy is sampled unmodified.  A start
    temperature of 1 is exactly no annealing.
    """

    start_temperature: float = 1.0
    ramp_sweeps: int = 0

    def __post_init__(self) -> None:
        if not self.start_temperature > 0:
            raise ConfigError("start temperature must be positive")
        if self.ramp_sweeps < 0:
            raise ConfigError("ramp length cannot be negative")

    def beta(self, sweep: int) -> float:
        if self.ramp_sweeps == 0 or sweep >= self.ramp_sweeps:
            return 1.0
        b0 = 1.0 / self.start_temperature
        return b0 + (1.0 - b0) * (sweep / self.ramp_sweeps)


def _scan_levels(g: UndirectedGraph) -> list[np.ndarray]:
    """The variables of g by dependency level of an index-order scan.

    level(u) is 0 if u has no lower-index neighbour and otherwise one more
    than the highest level among them, so each level is an independent set,
    every lower-index neighbour of u sits in an earlier level and every
    higher-index one in a later level.
    """
    level = [0] * g.num_vars
    for u, v in sorted(g.edges, key=lambda e: e[1]):
        level[v] = max(level[v], level[u] + 1)
    level = np.array(level, dtype=np.int64)
    by_level = np.argsort(level, kind="stable")
    return np.split(by_level, np.flatnonzero(np.diff(level[by_level])) + 1)


def gibbs_chain(
    m: EnergyModel,
    n_chains: int,
    n_steps: int,
    anneal_schedule: AnnealSchedule | None = None,
    seed=0,
) -> np.ndarray:
    """Systematic-scan Gibbs sampling, one step = one full sweep over variables.

    Each variable is redrawn, in index order, from its exact local
    conditional, which only involves the factors touching it; the annealing
    schedule scales the conditional logits by the current inverse
    temperature.  A sweep runs as one batched update per dependency level
    (``_scan_levels``): a level's variables are pairwise non-adjacent in
    ``m.graph``, whose cliques hold every factor scope, and each reads its
    lower-index neighbours already redrawn and its higher-index ones not yet,
    as the one-variable-at-a-time scan does.  A sweep's uniforms are drawn
    up front in variable order, and the logits are computed per variable as
    that scan computes them, so the draws are the same bit for bit.  Zero
    chains give an empty (0, |V|) result; a negative count raises
    ConfigError.
    """
    if n_chains < 0 or n_steps < 0:
        raise ConfigError(f"chain and sweep counts cannot be negative: {n_chains}, {n_steps}")
    rng = _as_rng(seed)
    schedule = anneal_schedule or AnnealSchedule()
    X = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_chains, m.num_vars))
    # variable-major, so a level gathers its neighbours' rows contiguously
    Xv = np.ascontiguousarray(X.T, dtype=np.float64)
    levels = _scan_levels(m.graph)
    for sweep in range(n_steps if n_chains else 0):
        beta = schedule.beta(sweep)
        uniforms = rng.random(m.num_vars * n_chains).reshape(m.num_vars, n_chains)
        for us in levels:
            p_plus = sigmoid_np(beta * m.local_flip_logits(us, Xv.T))
            Xv[us] = np.where(uniforms[us] < p_plus, 1.0, -1.0)
    return np.ascontiguousarray(Xv.T, dtype=np.int8)
