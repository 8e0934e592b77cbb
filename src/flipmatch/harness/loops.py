"""Training loops: flip matching, the balance objectives, and EBM alternation.

Every sampler update of every trainer, EM's E-step included, is one
``_Trainer.step`` of three parts: a state source (ancestral draws under the
full map, partial draws under sub-maps, or data rows completed under a
latent map), an objective (flip matching, or a balance objective with its
log Z or flow head) and the update (backward and Adam).  ``train_ebm`` and
``train_em`` interleave it with their model updates.  All randomness flows
from one seed sequence per run, so a (config, seed) pair reproduces its
metrics bit for bit; wall-clock is the one column exempt from that.
"""

from __future__ import annotations

import time

import numpy as np

from flipmatch.energy import EnergyModel, ebm_param_grad
from flipmatch.errors import ConfigError, EmptyDataset, PartialAssignment
from flipmatch.graph import UndirectedGraph, _elimination_imap, _mask_of, sample_imap, sub_imap
from flipmatch.harness.config import OBJECTIVES, TrainConfig
from flipmatch.harness.metrics import MetricsRow, metric_mmd_linear, metric_nll
from flipmatch.losses import (
    FlowHead,
    LogZEstimate,
    _surrogate_pairs,
    db_trajectory_loss,
    delta_loss_batch,
    subtb_loss_batch,
    tb_loss_batch,
)
from flipmatch.nn import AdamState, tape
from flipmatch.sampler import AmortizedSampler, Policy

__all__ = ["interaction_graph", "train_delta", "train_gfn", "train_ebm"]

# every objective but flip matching trains on full trajectories
GFN_OBJECTIVES = tuple(o for o in OBJECTIVES if o != "delta")


def interaction_graph(m: EnergyModel) -> UndirectedGraph:
    """The Markov network of a factorized model, as its constructor built it."""
    return m.graph


def _aux_multipliers(params, mult: float) -> list[float]:
    return [mult if g == "aux" else 1.0 for g in params.groups]


def _spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


class _Trainer:
    """One sampler update at a time, against a possibly changing model.

    ``rngs`` are the generators of the states, the flips, the maps and the
    data rows, in that order: by default the first three children of the
    config's seed, and no data rows.  ``aux`` is a balance objective's log Z
    or flow head, made here if not given.  With ``latent`` ids and ``data``
    rows, the states are data rows completed under a latent map, and only
    the latents are flipped.
    """

    def __init__(self, cfg: TrainConfig, m: EnergyModel, s: AmortizedSampler,
                 rngs=None, aux=None, latent: tuple[int, ...] = (), data=None) -> None:
        self.cfg, self.m, self.s, self.aux, self.data = cfg, m, s, aux, data
        self.g = interaction_graph(m)
        self.policy = cfg.policy()
        rngs = rngs or (*_spawn_rngs(cfg.seed, 3), None)
        self.r_sample, self.r_flip, self.r_imap, self.r_data = rngs
        self.latent_mask = _mask_of(latent)
        self.flippable = np.array(latent) if latent else np.arange(m.num_vars)
        params, mults = list(s.params.params), _aux_multipliers(s.params, cfg.aux_lr_multiplier)
        if cfg.objective == "tb":
            self.aux = aux or LogZEstimate()
            params.append(self.aux.value)
            mults.append(cfg.aux_lr_multiplier)
        elif cfg.objective != "delta":
            self.aux = aux or FlowHead(s.params, forward_looking=cfg.objective.startswith("fl-"))
            net = getattr(self.aux, "params", s.params)
            if net is not s.params:
                params.extend(net.params)
                mults.extend(_aux_multipliers(net, cfg.aux_lr_multiplier))
        self.opt = AdamState(params, lr=cfg.lr, total_steps=cfg.total_steps, lr_multipliers=mults)
        self.step_count, self.subs = 0, {}
        self._refresh()

    def _refresh(self) -> None:
        if self.data is not None:
            self.imap = _elimination_imap(self.g, self.latent_mask, self.r_imap)
            return
        self.imap = sample_imap(self.g, seed=self.r_imap)
        if self.cfg.sub_dags_per_var > 0:
            self.subs = {u: sub_imap(self.g, u, seed=self.r_imap) for u in range(self.m.num_vars)}

    def _draw_batch(self) -> tuple[np.ndarray, np.ndarray | None, object, int]:
        """States, their flips (flip matching only), their map or sub-maps, and the widest draw."""
        n = self.cfg.batch_size
        if self.subs:
            k, maps = self.cfg.sub_dags_per_var, list(self.subs.values())
            X = self.s.partial_sample_batch(maps, self.policy, k, seed=self.r_sample)
            return X, np.repeat(self.flippable, k), self.subs, max(len(sub.order) for sub in maps)
        if self.data is None:
            X, _ = self.s.ancestral_sample(self.imap, self.policy, n, seed=self.r_sample)
        else:
            rows = self.data[self.r_data.integers(0, len(self.data), size=n)]
            X = self.s.partial_sample_batch(self.imap, self.policy, n, seed=self.r_sample, X=rows)
        us = None
        if self.cfg.objective == "delta":
            us = self.flippable[self.r_flip.integers(0, len(self.flippable), size=n)]
        return X, us, self.imap, len(self.imap.order)

    def _loss(self, X: np.ndarray, us: np.ndarray | None, imap) -> tape.Tensor:
        cfg, s, m = self.cfg, self.s, self.m
        if cfg.objective == "delta":
            new_vals = -X[np.arange(len(X)), us]
            pairs = _surrogate_pairs(imap, us, cfg.stochastic_children_above, self.r_flip)
            return delta_loss_batch(s, imap, m, X, us, new_vals, pairs=pairs)
        if cfg.objective == "tb":
            return tb_loss_batch(s, imap, m, X, self.aux)
        if cfg.objective in ("db", "fl-db"):
            return db_trajectory_loss(s, imap, m, X, self.aux)
        return subtb_loss_batch(s, imap, m, X, self.aux, cfg.subtb_lambda)

    def step(self) -> tuple[float, int]:
        """One gradient update; returns (objective value, widest instantiation)."""
        if self.step_count % self.cfg.imap_refresh_period == 0 and self.step_count > 0:
            self._refresh()
        X, us, imap, instantiated = self._draw_batch()
        loss = self._loss(X, us, imap)
        self.opt.zero_grad()
        tape.backward(loss)
        self.opt.step()
        self.step_count += 1
        return float(loss.data), instantiated


def _row(trainer: _Trainer, step, t0, loss, instantiated, eval_samples, eval_rng) -> MetricsRow:
    """A metrics row, with NLL and MMD under the trainer's map if given samples."""
    nll = mmd = float("nan")
    if eval_samples is not None:
        s, imap = trainer.s, trainer.imap
        nll = metric_nll(s, imap, eval_samples)
        draws, _ = s.ancestral_sample(imap, Policy.on_policy(), len(eval_samples), seed=eval_rng)
        mmd = metric_mmd_linear(draws, eval_samples)
    return MetricsRow(step, time.perf_counter() - t0, nll, mmd, loss, instantiated)


def _train(trainer: _Trainer, eval_samples, eval_rng) -> list[MetricsRow]:
    total, period = trainer.cfg.total_steps, trainer.cfg.eval_period
    rows: list[MetricsRow] = []
    t0 = time.perf_counter()
    for step in range(1, total + 1):
        loss, instantiated = trainer.step()
        if step % period == 0 or step == total:
            rows.append(_row(trainer, step, t0, loss, instantiated, eval_samples, eval_rng))
    return rows


def train_delta(
    cfg: TrainConfig, m: EnergyModel, s: AmortizedSampler, eval_samples=None
) -> tuple[AmortizedSampler, list[MetricsRow]]:
    """Train the sampler by local flip matching (Algorithm: sample, flip, match).

    Returns the sampler and one metrics row per evaluation point.  Pass
    ``eval_samples`` (full assignments from the target) to get NLL and MMD
    columns; without them those columns are NaN.
    """
    if cfg.objective != "delta":
        raise ConfigError(f"train_delta needs objective delta, got {cfg.objective!r}")
    trainer = _Trainer(cfg, m, s)
    return s, _train(trainer, eval_samples, _spawn_rngs(cfg.seed + 1, 1)[0])


def train_gfn(
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
    r_sample, r_imap, eval_rng = _spawn_rngs(cfg.seed, 3)
    aux = logZ if cfg.objective == "tb" else flow
    trainer = _Trainer(cfg, m, s, (r_sample, None, r_imap, None), aux)
    return s, _train(trainer, eval_samples, eval_rng)


def train_ebm(
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
    nb = cfg.batch_size if neg_batch is None else neg_batch
    for name, v, lo in (("p_updates", p_updates, 1), ("warmup", warmup, 0), ("neg_batch", nb, 1)):
        if v < lo:
            raise ConfigError(f"{name} must be at least {lo}, got {v}")
    if not 0 < p_lr < np.inf:
        raise ConfigError(f"p_lr must be positive and finite, got {p_lr}")
    data = np.asarray(data, dtype=np.int8)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyDataset("energy learning needs a non-empty dataset of assignments")
    if np.any(data == 0):
        raise PartialAssignment("the dataset must be fully instantiated")
    if not (alternation[0] > 0 and alternation[1] > 0):
        raise ConfigError("both alternation phase lengths must be positive")
    trainer = _Trainer(cfg, m, s)
    r_data, r_neg, eval_rng = _spawn_rngs(cfg.seed + 1, 3)
    rows: list[MetricsRow] = []
    t0 = time.perf_counter()
    for _ in range(warmup):
        trainer.step()
    p_done = 0
    while p_done < p_updates:
        for _ in range(alternation[0]):
            loss, instantiated = trainer.step()
        for _ in range(min(alternation[1], p_updates - p_done)):
            pos = data[r_data.integers(0, len(data), size=min(cfg.batch_size, len(data)))]
            neg, _ = s.ancestral_sample(trainer.imap, Policy.on_policy(), nb, seed=r_neg)
            m.set_params(m.get_params() + p_lr * ebm_param_grad(m, pos, neg))
            p_done += 1
        rows.append(_row(trainer, p_done, t0, loss, instantiated, eval_samples, eval_rng))
    return m, s, rows
