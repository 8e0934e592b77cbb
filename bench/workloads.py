"""The three benchmark workloads, driven through flipmatch's public API.

Each workload is a closed loop with one caller: every library call starts
when the previous one returns.  A run repeats rounds; a round is one set-up
(timed as set-up) followed by the workload's timed library calls.  Rounds of
one run use the same seed, so they are replicates: their outputs must agree
exactly, which is one of the correctness gates.

Library functions are looked up on the ``flipmatch`` package at call time,
never bound at import, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

import flipmatch as fm


class Recorder:
    """Timing samples and correctness gates of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, *values: float) -> None:
        self.samples[name].extend(values)

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def step_times(rows) -> list[float]:
    """Per-step seconds from MetricsRow.seconds (cumulative; eval_period=1)."""
    cum = [r.seconds for r in rows]
    return [b - a for a, b in zip([0.0] + cum[:-1], cum)]


def train_call(train, *args, **kwargs):
    """Run a train_* loop; returns (sampler, rows, preamble seconds).

    The loops start their clock after building their trainer (I-map draws,
    optimizer), so wall time minus the last row's seconds is that set-up.
    """
    t0 = time.perf_counter()
    out = train(*args, **kwargs)
    wall = time.perf_counter() - t0
    rows = out[-1]
    return out[0], rows, wall - rows[-1].seconds


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def p90(xs) -> float | None:
    """90th percentile, reported only with at least ten samples beyond it."""
    if len(xs) < 100:
        return None
    return float(np.percentile(np.asarray(xs, dtype=np.float64), 90))


def grid_model(side: int, seed: int):
    return fm.random_ising(fm.grid_graph(side, side), sigma=0.2, seed=seed)


def sampler(num_vars: int, width: int, blocks: int, init_seed: int):
    cfg = fm.MaeConfig(
        num_vars=num_vars, width=width, blocks=blocks, activation="relu", init_seed=init_seed
    )
    return fm.AmortizedSampler(fm.MaeParams(cfg))


# ---------------------------------------------------------------------------
# ladder16-train


@dataclass
class Ladder16Train:
    """16-spin ladder: full-DAG flip matching, then trajectory balance.

    Small |V|, so the |V|-wide network rows waste little and the time goes to
    the per-variable Python walk, the tape and Adam.  The only workload that
    runs ``tb_loss_batch`` and full-DAG ``delta_loss_batch``.
    """

    name: ClassVar[str] = "ladder16-train"
    main_metric: ClassVar[str] = "delta_steps_per_s"
    rungs: int = 8
    width: int = 128
    blocks: int = 2
    batch: int = 128
    delta_steps: int = 150
    tb_steps: int = 40
    reference_draws: int = 5000

    def prepare(self, seed: int) -> None:
        self._gaps: list[float] = []

    def setup(self, seed: int):
        m = fm.random_ising(fm.ladder_graph(self.rungs), sigma=0.2, seed=3 + seed)
        table = fm.enumerate_exact(m)
        reference = table.sample_matrix(self.reference_draws, seed=7 + seed)
        n = m.num_vars
        return {
            "m": m,
            "entropy": table.entropy(),
            "reference": reference,
            "s_delta": sampler(n, self.width, self.blocks, seed),
            "s_tb": sampler(n, self.width, self.blocks, seed),
            "imap": fm.sample_imap(fm.interaction_graph(m), seed=seed),
        }

    def _cfg(self, seed: int, **kw) -> "fm.TrainConfig":
        return fm.TrainConfig(
            batch_size=self.batch,
            lr=1e-2,
            eval_period=1,
            width=self.width,
            blocks=self.blocks,
            seed=1 + seed,
            **kw,
        )

    def round(self, st, seed: int, rec: Recorder) -> tuple[float, float]:
        cfg = self._cfg(
            seed,
            objective="delta",
            total_steps=self.delta_steps,
            policy_kind="tempered",
            policy_temperature=2.0,
        )
        s_delta, rows_d, pre_d = train_call(fm.train_delta, cfg, st["m"], st["s_delta"])
        cfg = self._cfg(
            seed,
            objective="tb",
            total_steps=self.tb_steps,
            policy_kind="eps-uniform",
            policy_eps=0.1,
        )
        _, rows_t, pre_t = train_call(fm.train_gfn, cfg, st["m"], st["s_tb"])
        for r in rows_d:
            rec.gate(math.isfinite(r.loss), f"delta loss at step {r.step} is {r.loss}")
        for r in rows_t:
            rec.gate(math.isfinite(r.loss), f"tb loss at step {r.step} is {r.loss}")

        # scored outside the timed steps
        gap = fm.metric_nll(s_delta, st["imap"], st["reference"]) - st["entropy"]
        rec.gate(math.isfinite(gap), f"nll gap is {gap}")
        if self._gaps:
            rec.gate(gap == self._gaps[0], f"nll gap {gap!r} differs from {self._gaps[0]!r}")
        self._gaps.append(gap)

        d, t = step_times(rows_d), step_times(rows_t)
        rec.add("delta_step_s", *d)
        rec.add("delta_rate", len(d) / sum(d))
        rec.add("tb_rate", len(t) / sum(t))
        return pre_d + pre_t, sum(d) + sum(t)

    def named(self, rec: Recorder) -> dict[str, tuple[float | None, str, str]]:
        d, n = rec.samples["delta_step_s"], len(rec.samples["delta_rate"])
        q90 = p90(d)
        return {
            "delta_steps_per_s": (
                statistics.median(rec.samples["delta_rate"]),
                "1/s",
                f"median over {n} rounds of {self.delta_steps} steps",
            ),
            "delta_step_ms_p90": (
                None if q90 is None else 1e3 * q90,
                "ms",
                f"90th percentile of {len(d)} steps",
            ),
            "tb_steps_per_s": (
                statistics.median(rec.samples["tb_rate"]),
                "1/s",
                f"median over {n} rounds of {self.tb_steps} steps",
            ),
            "nll_gap_nats": (
                self._gaps[0] if self._gaps else None,
                "nats",
                f"after {self.delta_steps} delta steps, {self.reference_draws} held-out "
                f"exact draws, identical in {len(self._gaps)} rounds",
            ),
        }


# ---------------------------------------------------------------------------
# grid32-sample


def reference_gibbs_tau(m, chains: int, sweeps: int, burn_in: int, seed: int) -> float:
    """Integrated autocorrelation time of the magnetization, in sweeps.

    Runs the benchmark's own systematic-scan Gibbs chain (the same chain as
    ``gibbs_chain``: variables in index order, exact local conditionals) over
    the model's neighbour lists, so it costs O(degree) per update, and
    estimates tau with Sokal's self-consistent window (W >= 5 tau).
    """
    rng = np.random.default_rng(seed)
    J = np.asarray(m.J)
    nbrs = [np.flatnonzero(J[u]) for u in range(m.num_vars)]
    weights = [J[u, nb] for u, nb in enumerate(nbrs)]
    X = rng.choice(np.array([-1.0, 1.0]), size=(chains, m.num_vars))
    mags = np.empty((sweeps, chains))
    for t in range(burn_in + sweeps):
        for u in range(m.num_vars):
            logit = m.sigma * (4.0 * (X[:, nbrs[u]] @ weights[u]) + 2.0 * m.b[u])
            X[:, u] = np.where(rng.random(chains) * (1.0 + np.exp(-logit)) < 1.0, 1.0, -1.0)
        if t >= burn_in:
            mags[t - burn_in] = X.mean(axis=1)
    y = mags - mags.mean()
    var = float((y * y).mean())
    tau = 1.0
    for k in range(1, sweeps // 2):
        rho = float((y[k:] * y[:-k]).mean()) / var
        tau += 2.0 * rho
        if k >= 5.0 * tau:
            break
    return tau


@dataclass
class Grid32Sample:
    """32x32 lattice: no-grad inference, ancestral draws, scoring and Gibbs.

    1024 sequential network calls on |V|-wide rows per batch; the Gibbs local
    field reads the dense 1024x1024 J.  Never touches the tape or Adam.  The
    sampler is untrained: cost does not depend on weight values.
    """

    name: ClassVar[str] = "grid32-sample"
    main_metric: ClassVar[str] = "draws_per_s"
    side: int = 32
    width: int = 64
    blocks: int = 2
    draws: int = 256
    chains: int = 256
    sweeps: int = 10
    tau_chains: int = 64
    tau_sweeps: int = 150
    tau_burn_in: int = 10

    def prepare(self, seed: int) -> None:
        self._first_draws: str | None = None
        self.tau = reference_gibbs_tau(
            grid_model(self.side, seed), self.tau_chains, self.tau_sweeps, self.tau_burn_in, seed
        )

    def setup(self, seed: int):
        m = grid_model(self.side, seed)
        s = sampler(m.num_vars, self.width, self.blocks, seed)
        return {"m": m, "s": s, "imap": fm.sample_imap(fm.interaction_graph(m), seed=seed)}

    def round(self, st, seed: int, rec: Recorder) -> tuple[float, float]:
        s, imap, m = st["s"], st["imap"], st["m"]
        t0 = time.perf_counter()
        X, logq = s.ancestral_sample(imap, fm.Policy.on_policy(), self.draws, seed=seed)
        t1 = time.perf_counter()
        lp = s.log_prob_batch(imap, X)
        t2 = time.perf_counter()
        G = fm.gibbs_chain(m, self.chains, self.sweeps, seed=seed)
        t3 = time.perf_counter()

        rec.gate(bool(np.all(np.abs(X) == 1)), "an ancestral draw is not +-1")
        err = float(np.max(np.abs(logq - lp)))
        rec.gate(err <= 1e-12, f"ancestral logq and log_prob_batch differ by {err:.3g}")
        rec.gate(bool(np.all(np.abs(G) == 1)), "a Gibbs state is not +-1")
        d = digest(X)
        if self._first_draws is None:
            self._first_draws = d
        else:
            rec.gate(d == self._first_draws, "same seed gave different draws")

        rec.add("draw_batch_s", t1 - t0)
        rec.add("logprob_batch_s", t2 - t1)
        rec.add("gibbs_s", t3 - t2)
        return 0.0, t3 - t0

    def named(self, rec: Recorder) -> dict[str, tuple[float | None, str, str]]:
        a, lp, g = (rec.samples[k] for k in ("draw_batch_s", "logprob_batch_s", "gibbs_s"))
        gibbs_rate = self.chains * self.sweeps / statistics.median(g)
        return {
            "draws_per_s": (
                self.draws / statistics.median(a),
                "1/s",
                f"median of {len(a)} batches of {self.draws}",
            ),
            "logprob_rows_per_s": (
                self.draws / statistics.median(lp),
                "1/s",
                f"median of {len(lp)} batches of {self.draws}",
            ),
            "gibbs_sweeps_per_s": (
                gibbs_rate,
                "1/s",
                f"chains x sweeps / s, median of {len(g)} calls of {self.chains}x{self.sweeps}",
            ),
            "gibbs_tau_int": (
                self.tau,
                "sweeps",
                f"magnetization, {self.tau_chains} chains x {self.tau_sweeps} sweeps",
            ),
            "gibbs_ess_per_s": (
                gibbs_rate / self.tau,
                "1/s",
                "cost comparison with draws_per_s: the sampler is untrained",
            ),
        }


# ---------------------------------------------------------------------------
# grid32-local


@dataclass
class Grid32Local:
    """32x32 lattice: flip matching on per-variable sub-DAGs (the locality claim).

    One step draws one partial sample per variable under its own local map
    (1024 flips), through ``partial_sample_batch``, ``masked_parent_rows`` and
    the tape.  Set-up is dominated by the 1024 ``sub_imap`` draws.
    """

    name: ClassVar[str] = "grid32-local"
    main_metric: ClassVar[str] = "local_flips_per_s"
    side: int = 32
    width: int = 64
    blocks: int = 2
    steps: int = 1

    def prepare(self, seed: int) -> None:
        m = grid_model(self.side, seed)
        imap = fm.sample_imap(fm.interaction_graph(m), seed=seed)
        self.bound = 1 + max(len(imap.blanket[v]) for v in imap.vertices)
        self._losses: list[float] | None = None

    def setup(self, seed: int):
        m = grid_model(self.side, seed)
        return {"m": m, "s": sampler(m.num_vars, self.width, self.blocks, seed)}

    def round(self, st, seed: int, rec: Recorder) -> tuple[float, float]:
        cfg = fm.TrainConfig(
            objective="delta",
            total_steps=self.steps,
            sub_dags_per_var=1,
            width=self.width,
            blocks=self.blocks,
            eval_period=1,
            seed=seed,
        )
        _, rows, pre = train_call(fm.train_delta, cfg, st["m"], st["s"])
        losses = [r.loss for r in rows]
        for r in rows:
            rec.gate(math.isfinite(r.loss), f"local loss at step {r.step} is {r.loss}")
            rec.gate(
                r.instantiated <= self.bound,
                f"step {r.step} instantiated {r.instantiated} > {self.bound}",
            )
        if self._losses is None:
            self._losses = losses
        else:
            rec.gate(losses == self._losses, "same seed gave different losses")
        t = step_times(rows)
        rec.add("local_flip_rate", self.side * self.side * len(t) / sum(t))
        return pre, sum(t)

    def named(self, rec: Recorder) -> dict[str, tuple[float | None, str, str]]:
        r = rec.samples["local_flip_rate"]
        return {
            "local_flips_per_s": (
                statistics.median(r),
                "1/s",
                f"{self.side * self.side} flips per step, median over {len(r)} rounds "
                f"of {self.steps} step(s)",
            ),
        }


WORKLOADS = {cls.name: cls for cls in (Ladder16Train, Grid32Sample, Grid32Local)}

