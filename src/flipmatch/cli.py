"""Command-line entry points.

Subcommands: ``chordalize`` (inspect a model's graph structure), ``oracle``
(exact enumeration), ``train`` (fit a sampler), ``sample`` (draw from a
checkpoint), ``eval`` (score a checkpoint against reference samples),
``gibbs`` (MCMC baseline), and ``em`` (latent-variable fitting).

Assignments on disk are one row per line of whitespace-separated integers in
{-1, +1} (0 marks a latent coordinate in EM data files).  Exit codes: 0 on
success, 2 for configuration or input errors, 3 for numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from flipmatch.energy import TabularBayesNetModel, enumerate_exact, read_model, write_model
from flipmatch.errors import ConfigError, FlipmatchError, NonFiniteLoss
from flipmatch.graph import _cached_chordal, max_cardinality_search, sample_imap
from flipmatch.harness import (
    TrainConfig,
    interaction_graph,
    load_train_config,
    metric_mmd_linear,
    metric_nll,
    train_delta,
    train_em,
    train_gfn,
    write_metrics_csv,
)
from flipmatch.harness.loops import FLOW_OBJECTIVES
from flipmatch.losses import LogZEstimate
from flipmatch.nn import MaeConfig, MaeParams, load_checkpoint, save_checkpoint
from flipmatch.sampler import AmortizedSampler, AnnealSchedule, Policy, gibbs_chain


def _read_assignments(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # a file without rows reads as an empty array, which callers reject
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            X = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read assignments from {path}: {exc}") from exc
    if X.size == 0:
        return np.zeros((0, 0), dtype=np.int8)
    if not np.all(np.isin(X, (-1.0, 0.0, 1.0))):
        raise ConfigError(f"{path}: assignment values must be -1, 0, or +1")
    return X.astype(np.int8)


def _write_assignments(X: np.ndarray, path: str | None) -> None:
    lines = "\n".join(" ".join(str(int(v)) for v in row) for row in X)
    if path is None:
        print(lines)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lines + "\n")


def _emit(doc: dict, path: str | None) -> None:
    clean = {
        k: (None if isinstance(v, float) and not np.isfinite(v) else v) for k, v in doc.items()
    }
    text = json.dumps(clean, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_model(path: str):
    try:
        return read_model(path)
    except OSError as exc:
        raise ConfigError(f"cannot read model from {path}: {exc}") from exc


def _load_sampler(path: str) -> AmortizedSampler:
    try:
        mae = load_checkpoint(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read checkpoint from {path}: {exc}") from exc
    return AmortizedSampler(mae)


def _build_sampler(cfg: TrainConfig, num_vars: int) -> AmortizedSampler:
    mae_cfg = MaeConfig(
        num_vars=num_vars,
        width=cfg.width,
        blocks=cfg.blocks,
        activation=cfg.activation,
        flow_head=cfg.objective in FLOW_OBJECTIVES,
        init_seed=cfg.seed,
    )
    return AmortizedSampler(MaeParams(mae_cfg))


def cmd_chordalize(args) -> int:
    m = _load_model(args.model)
    g = interaction_graph(m)
    # the completion sample_imap reads
    chordal = _cached_chordal(g, args.chordal_seed)
    _, cliques = max_cardinality_search(chordal, args.chordal_seed)
    imap = sample_imap(g, seed=args.imap_seed, chordal_seed=args.chordal_seed)
    doc = {
        "num_vars": g.num_vars,
        "edges": len(g.edges),
        "fill_edges": sorted([int(a), int(b)] for a, b in (chordal.edges - g.edges)),
        "max_clique_size": max((len(c) for c in cliques), default=0),
        "topo_order": [int(v) for v in imap.topo_order],
        "max_blanket_size": max((len(b) for b in imap.blanket.values()), default=0),
    }
    _emit(doc, args.out)
    return 0


def cmd_oracle(args) -> int:
    m = _load_model(args.model)
    table = enumerate_exact(m)
    doc = {
        "num_vars": m.num_vars,
        "log_z": table.log_z,
        "entropy": table.entropy(),
        "marginals": [float(x) for x in table.marginals],
    }
    _emit(doc, args.out)
    return 0


def cmd_train(args) -> int:
    m = _load_model(args.model)
    cfg = load_train_config(args.config, seed=args.seed)
    eval_samples = None
    if args.eval_n > 0:
        eval_samples = enumerate_exact(m).sample_matrix(args.eval_n, seed=cfg.seed + 101)
    s = _build_sampler(cfg, m.num_vars)
    if cfg.objective == "delta":
        s, rows = train_delta(cfg, m, s, eval_samples=eval_samples)
    else:
        logZ = LogZEstimate() if cfg.objective == "tb" else None
        s, rows = train_gfn(cfg, m, s, logZ=logZ, eval_samples=eval_samples)
    if args.checkpoint:
        save_checkpoint(s.params, args.checkpoint)
    if args.metrics:
        write_metrics_csv(rows, args.metrics)
    last = rows[-1]
    doc = {
        "objective": cfg.objective,
        "steps": last.step,
        "loss": last.loss,
        "nll": last.nll,
        "mmd": last.mmd,
        "instantiated": last.instantiated,
    }
    if cfg.objective == "tb":
        doc["log_z"] = logZ.item()
    _emit(doc, None)
    return 0


def cmd_sample(args) -> int:
    m = _load_model(args.model)
    s = _load_sampler(args.checkpoint)
    if s.params.cfg.num_vars != m.num_vars:
        raise ConfigError(
            f"checkpoint built for {s.params.cfg.num_vars} variables, model has {m.num_vars}"
        )
    imap = sample_imap(interaction_graph(m), seed=args.imap_seed)
    X, _ = s.ancestral_sample(imap, Policy.on_policy(), args.n, seed=args.seed)
    _write_assignments(X, args.out)
    return 0


def cmd_eval(args) -> int:
    # the draws use seed + 1, which would pass -1 as 0 and report -2 as -1
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    m = _load_model(args.model)
    s = _load_sampler(args.checkpoint)
    imap = sample_imap(interaction_graph(m), seed=args.imap_seed)
    doc: dict = {"num_vars": m.num_vars}
    if args.samples:
        truth = _read_assignments(args.samples)
    elif args.exact_n > 0:
        table = enumerate_exact(m)
        truth = table.sample_matrix(args.exact_n, seed=args.seed)
        doc["entropy"] = table.entropy()
        doc["log_z"] = table.log_z
    else:
        raise ConfigError("eval needs --samples FILE or --exact-n N")
    if truth.shape[1] != m.num_vars:
        raise ConfigError(
            f"reference rows have {truth.shape[1]} columns, model has {m.num_vars} variables"
        )
    doc["n"] = len(truth)
    doc["nll"] = metric_nll(s, imap, truth)
    draws, _ = s.ancestral_sample(imap, Policy.on_policy(), len(truth), seed=args.seed + 1)
    doc["mmd"] = metric_mmd_linear(draws, truth)
    _emit(doc, args.out)
    return 0


def cmd_gibbs(args) -> int:
    m = _load_model(args.model)
    schedule = AnnealSchedule(args.start_temperature, args.ramp_sweeps)
    X = gibbs_chain(m, args.n, args.steps, anneal_schedule=schedule, seed=args.seed)
    _write_assignments(X, args.out)
    return 0


def cmd_em(args) -> int:
    p = _load_model(args.model)
    if not isinstance(p, TabularBayesNetModel):
        raise ConfigError("em needs a bayesnet model file")
    data = _read_assignments(args.data)
    try:
        latent = [int(tok) for tok in args.latent.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--latent takes comma-separated variable ids: {exc}") from None
    cfg = (
        load_train_config(args.config, seed=args.seed)
        if args.config
        else TrainConfig(seed=args.seed if args.seed is not None else 0)
    )
    p, s, rows = train_em(
        cfg,
        p,
        latent,
        data,
        rounds=args.rounds,
        m_steps=args.m_steps,
        m_lr=args.m_lr,
        completions_per_row=args.completions,
    )
    if args.out_model:
        write_model(p, args.out_model)
    if args.checkpoint and s is not None:
        save_checkpoint(s.params, args.checkpoint)
    if args.metrics:
        write_metrics_csv(rows, args.metrics)
    _emit({"rounds": rows[-1].step, "nll": rows[-1].nll, "latent": sorted(set(latent))}, None)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipmatch",
        description="Train and evaluate amortized samplers for discrete graphical models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chordalize", help="triangulate a model's graph and pick an order")
    p.add_argument("--model", required=True)
    p.add_argument("--chordal-seed", type=int, default=0)
    p.add_argument("--imap-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_chordalize)

    p = sub.add_parser("oracle", help="enumerate a small model exactly")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("train", help="train a sampler against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True, help="JSON file mirroring TrainConfig fields")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--checkpoint", help="where to write the trained network")
    p.add_argument("--metrics", help="where to write the metrics CSV")
    p.add_argument(
        "--eval-n", type=int, default=0, help="draw N exact samples for NLL/MMD columns"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw assignments from a trained checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--imap-seed", type=int, default=0)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="score a checkpoint against reference samples")
    p.add_argument("--model", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", help="file of reference assignments")
    p.add_argument("--exact-n", type=int, default=0, help="draw N exact samples instead")
    p.add_argument("--imap-seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gibbs", help="run annealed Gibbs chains")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=64, help="number of parallel chains")
    p.add_argument("--steps", type=int, default=1000, help="full sweeps per chain")
    p.add_argument("--start-temperature", type=float, default=1.0)
    p.add_argument("--ramp-sweeps", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gibbs)

    p = sub.add_parser("em", help="fit a latent-variable bayesnet to data")
    p.add_argument("--model", required=True, help="bayesnet model file (the initialization)")
    p.add_argument("--data", required=True, help="assignments file; latent coordinates 0")
    p.add_argument("--latent", default="", help="comma-separated latent variable ids")
    p.add_argument("--config", help="JSON TrainConfig for the posterior sampler")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--m-steps", type=int, default=40)
    p.add_argument("--m-lr", type=float, default=0.2)
    p.add_argument("--completions", type=int, default=2)
    p.add_argument("--out-model", help="where to write the fitted model")
    p.add_argument("--checkpoint", help="where to write the posterior network")
    p.add_argument("--metrics")
    p.set_defaults(func=cmd_em)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLoss as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FlipmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
