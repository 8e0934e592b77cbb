"""Expectation-maximization with an amortized conditional posterior.

The E-step trains the sampler by flip matching over the latent variables
only, conditioning its network on the observed values of each data row.  The
M-step ascends the exact likelihood gradient of the (normalized) model on
data rows completed by posterior draws.  Observed variables never pass
through the sampler's masked inputs; they enter through its conditioning
block, so one network amortizes the posterior across all rows at once.
"""

from __future__ import annotations

import time

import numpy as np

from flipmatch.energy import TabularBayesNetModel, all_states, logsumexp
from flipmatch.errors import (
    ConfigError,
    EmptyDataset,
    LatentCoversAll,
    PartialAssignment,
    ShapeMismatch,
)
from flipmatch.graph import Imap, _imap_on, _mask_of
from flipmatch.harness.config import TrainConfig
from flipmatch.harness.loops import _aux_multipliers, _spawn_rngs, interaction_graph
from flipmatch.harness.metrics import MetricsRow
from flipmatch.losses import delta_loss_batch
from flipmatch.nn import AdamState, MaeConfig, MaeParams, tape
from flipmatch.sampler import AmortizedSampler, Policy

__all__ = ["latent_imap", "data_marginal_loglik", "train_em"]


def _latent_ids(latent, num_vars: int) -> tuple[int, ...]:
    hidden = tuple(sorted(set(int(v) for v in latent)))
    if any(v < 0 or v >= num_vars for v in hidden):
        raise ConfigError(f"latent variables must lie in [0, {num_vars}), got {list(hidden)}")
    return hidden


def _check_latent(latent, num_vars: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    hidden = _latent_ids(latent, num_vars)
    if len(hidden) == num_vars:
        raise LatentCoversAll("every variable is latent; nothing conditions the posterior")
    observed = tuple(v for v in range(num_vars) if v not in set(hidden))
    return hidden, observed


def latent_imap(m, latent, seed) -> Imap:
    """A random orientation of the model's interaction graph restricted to ``latent``.

    Min-fill runs over the latent set only, from chordal seed 0, so the map is
    ``sample_imap``'s draw on the induced subgraph, with global variable ids:
    it drives ``partial_sample_batch`` and the flip-matching loss directly on
    full-width rows.
    """
    hidden, _ = _check_latent(latent, m.num_vars)
    return _imap_on(interaction_graph(m), _mask_of(hidden), seed, 0)


def data_marginal_loglik(p: TabularBayesNetModel, latent, data) -> float:
    """Mean log-likelihood of the observed coordinates, latents summed out.

    Exact by enumeration over the 2^|latent| completions of each row; NaN when
    more than 16 variables are latent.  Latent ids outside [0, num_vars)
    raise ConfigError.
    """
    hidden = _latent_ids(latent, p.num_vars)
    data = np.asarray(data, dtype=np.int8)
    if not hidden:
        return float(np.mean(p.log_reward_batch(data)))
    if len(hidden) > 16:
        return float("nan")
    configs = all_states(len(hidden))
    total = 0.0
    for row in data:
        rows = np.repeat(row[None, :], len(configs), axis=0)
        rows[:, hidden] = configs
        total += logsumexp(p.log_reward_batch(rows))
    return total / len(data)


def train_em(
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
                    cond_vars=observed,
                    init_seed=cfg.seed,
                )
            )
        )
    elif tuple(s.params.cfg.cond_vars) != observed:
        raise ConfigError(
            f"the sampler must condition on the observed variables {observed}, "
            f"got {tuple(s.params.cfg.cond_vars)}"
        )

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
    obs_cols = list(observed)
    e_steps_done = 0
    last_loss = float("nan")
    rows = []
    t0 = time.perf_counter()
    for r in range(rounds):
        for _ in range(cfg.total_steps):
            if e_steps_done % cfg.imap_refresh_period == 0 and e_steps_done > 0:
                imap = latent_imap(p, hidden, r_imap)
            idx = r_data.integers(0, len(data), size=cfg.batch_size)
            cond_rows = data[idx][:, obs_cols].astype(np.float64)
            X = s.partial_sample_batch(imap, policy, cfg.batch_size, seed=r_sample, cond=cond_rows)
            X[:, obs_cols] = data[idx][:, obs_cols]
            us = hidden_arr[r_flip.integers(0, len(hidden), size=cfg.batch_size)]
            new_vals = -X[np.arange(cfg.batch_size), us]
            loss = delta_loss_batch(s, imap, p, X, us, new_vals, cond=cond_rows)
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
            e_steps_done += 1
            last_loss = float(loss.data)
        for _ in range(m_steps):
            obs_rep = np.repeat(data, completions_per_row, axis=0)
            cond_rep = obs_rep[:, obs_cols].astype(np.float64)
            Xc = s.partial_sample_batch(
                imap, Policy.on_policy(), len(obs_rep), seed=r_m, cond=cond_rep
            )
            Xc[:, obs_cols] = obs_rep[:, obs_cols]
            grad = p.log_reward_grad_mean(Xc.astype(np.int8))
            p.set_params(p.get_params() + m_lr * grad)
        nll = -data_marginal_loglik(p, hidden, data)
        rows.append(
            MetricsRow(r + 1, time.perf_counter() - t0, nll, float("nan"), last_loss, len(hidden))
        )
    return p, s, rows
