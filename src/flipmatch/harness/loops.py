"""Training loops: flip-matching, trajectory balance, and EBM alternation.

The flip-matching loop is factored into a small stateful trainer so the
energy-learning loop can interleave sampler updates with energy updates
against the live model.  All randomness flows from one seed sequence per run,
so a (config, seed) pair reproduces its metrics bit for bit; wall-clock is
the one column exempt from that.
"""

from __future__ import annotations

import time

import numpy as np

from flipmatch.energy import EnergyModel, ebm_param_grad
from flipmatch.errors import ConfigError, EmptyDataset, PartialAssignment
from flipmatch.graph import Imap, UndirectedGraph, sample_imap, sub_imap
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

# every objective but flip matching trains on full trajectories, and every one
# of those but trajectory balance learns state flows through a flow head
GFN_OBJECTIVES = tuple(o for o in OBJECTIVES if o != "delta")
FLOW_OBJECTIVES = tuple(o for o in GFN_OBJECTIVES if o != "tb")


def interaction_graph(m: EnergyModel) -> UndirectedGraph:
    """The Markov network of a factorized model, as its constructor built it."""
    return m.graph


def _aux_multipliers(params, mult: float) -> list[float]:
    return [mult if g == "aux" else 1.0 for g in params.groups]


def _spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


def _eval_metrics(s, imap: Imap, eval_samples, eval_rng) -> tuple[float, float]:
    if eval_samples is None:
        return float("nan"), float("nan")
    nll = metric_nll(s, imap, eval_samples)
    draws, _ = s.ancestral_sample(imap, Policy.on_policy(), len(eval_samples), seed=eval_rng)
    return nll, metric_mmd_linear(draws, eval_samples)


class _DeltaTrainer:
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
    trainer = _DeltaTrainer(cfg, m, s)
    (eval_rng,) = _spawn_rngs(cfg.seed + 1, 1)
    rows: list[MetricsRow] = []
    t0 = time.perf_counter()
    for step in range(cfg.total_steps):
        loss, instantiated = trainer.step()
        if (step + 1) % cfg.eval_period == 0 or step + 1 == cfg.total_steps:
            nll, mmd = _eval_metrics(s, trainer.full_imap, eval_samples, eval_rng)
            rows.append(
                MetricsRow(step + 1, time.perf_counter() - t0, nll, mmd, loss, instantiated)
            )
    return s, rows


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
            nll, mmd = _eval_metrics(s, imap, eval_samples, eval_rng)
            rows.append(
                MetricsRow(
                    step + 1, time.perf_counter() - t0, nll, mmd, float(loss.data), m.num_vars
                )
            )
    return s, rows


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
    data = np.asarray(data, dtype=np.int8)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyDataset("energy learning needs a non-empty dataset of assignments")
    if np.any(data == 0):
        raise PartialAssignment("the dataset must be fully instantiated")
    if not (alternation[0] > 0 and alternation[1] > 0):
        raise ConfigError("both alternation phase lengths must be positive")
    trainer = _DeltaTrainer(cfg, m, s)
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
        nll, mmd = _eval_metrics(s, trainer.full_imap, eval_samples, eval_rng)
        rows.append(MetricsRow(p_done, time.perf_counter() - t0, nll, mmd, loss, instantiated))
    return m, s, rows
