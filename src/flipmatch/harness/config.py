"""Training configuration: one flat record, JSON in and out."""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields

from flipmatch.errors import ConfigError
from flipmatch.nn import MaeConfig, MaeParams
from flipmatch.sampler import AmortizedSampler, Policy

__all__ = ["OBJECTIVES", "TrainConfig", "load_train_config", "save_train_config"]

OBJECTIVES = ("delta", "tb", "db", "fl-db", "subtb", "fl-subtb")
# the balance objectives that learn state flows, through a head on the sampler
FLOW_OBJECTIVES = ("db", "fl-db", "subtb", "fl-subtb")


@dataclass
class TrainConfig:
    """Everything a training run needs beyond the model itself.

    ``sub_dags_per_var`` selects the update style for the flip-matching
    objective: zero trains on full ancestral samples under one I-map, a
    positive value samples that many partial draws per variable under
    per-variable local maps.  ``stochastic_children_above``, when positive,
    scores each flip at a variable with more children than that by the
    single-child surrogate on two of them drawn at random.  Both knobs belong
    to flip matching and must be 0 under any other objective.
    ``aux_lr_multiplier`` scales the learning rate of the log-normalizer
    estimate and the root-marginal logits.
    """

    objective: str = "delta"
    total_steps: int = 1000
    batch_size: int = 64
    lr: float = 1e-3
    aux_lr_multiplier: float = 100.0
    policy_kind: str = "tempered"
    policy_temperature: float = 2.0
    policy_eps: float = 0.0
    imap_refresh_period: int = 50
    sub_dags_per_var: int = 0
    stochastic_children_above: int = 0
    subtb_lambda: float = 0.9
    width: int = 64
    blocks: int = 2
    activation: str = "relu"
    seed: int = 0
    eval_period: int = 100

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind = {"int": numbers.Integral, "float": numbers.Real, "str": str}[f.type]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"objective must be one of {', '.join(OBJECTIVES)}, got {self.objective!r}"
            )
        positive = (
            ("total_steps", self.total_steps),
            ("batch_size", self.batch_size),
            ("lr", self.lr),
            ("aux_lr_multiplier", self.aux_lr_multiplier),
            ("imap_refresh_period", self.imap_refresh_period),
            ("subtb_lambda", self.subtb_lambda),
            ("width", self.width),
            ("blocks", self.blocks),
            ("eval_period", self.eval_period),
        )
        for name, value in positive:
            if not 0 < value < float("inf"):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        for name, value in (
            ("sub_dags_per_var", self.sub_dags_per_var),
            ("stochastic_children_above", self.stochastic_children_above),
            ("seed", self.seed),
        ):
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        for name in ("sub_dags_per_var", "stochastic_children_above"):
            if getattr(self, name) and self.objective != "delta":
                raise ConfigError(f"{name} applies to objective delta only, got {self.objective!r}")
        if self.activation not in ("relu", "elu"):
            raise ConfigError(f"activation must be relu or elu, got {self.activation!r}")
        self.policy()  # validates kind / temperature / eps

    def policy(self) -> Policy:
        return Policy(
            kind=self.policy_kind, temperature=self.policy_temperature, eps=self.policy_eps
        )

    def sampler(self, num_vars: int) -> AmortizedSampler:
        """A fresh sampler for ``num_vars`` variables, its weights drawn from
        ``seed``, with a flow head under the objectives that learn flows."""
        mae_cfg = MaeConfig(
            num_vars=num_vars, width=self.width, blocks=self.blocks, activation=self.activation,
            flow_head=self.objective in FLOW_OBJECTIVES, init_seed=self.seed,
        )
        return AmortizedSampler(MaeParams(mae_cfg))

    def to_dict(self) -> dict:
        return asdict(self)


def load_train_config(path: str, seed: int | None = None) -> TrainConfig:
    """Read a JSON config mirroring the TrainConfig fields.

    Unknown keys are rejected rather than ignored, so typos fail loudly.
    ``seed`` overrides the file's value when given.
    """
    try:
        with open(path, "rb") as fh:
            raw = json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and bytes that are not UTF-8/16/32 text
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if seed is not None:
        raw["seed"] = seed
    try:
        return TrainConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def save_train_config(cfg: TrainConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
