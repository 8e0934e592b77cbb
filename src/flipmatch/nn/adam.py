"""Adam with a stepped learning-rate schedule.

First and second moment estimates with bias correction, following the
standard formulation (betas 0.9 and 0.999, eps 1e-8), plus a milestone
schedule: the learning rate is multiplied by 0.1 once the step counter passes
each of 20, 40, 60, 80 and 90% of ``total_steps``.  These are module
constants; a run chooses only the base rate, the step count and per-parameter
rate multipliers (used here to train the marginal-logit vector faster than
the trunk).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from flipmatch.errors import NonFiniteLoss, ShapeMismatch
from flipmatch.nn.tape import Tensor

__all__ = ["AdamState"]

_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8
_MILESTONES = (0.2, 0.4, 0.6, 0.8, 0.9)
_DECAY = 0.1


class AdamState:
    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        total_steps: int = 1000,
        lr_multipliers: Sequence[float] | None = None,
    ) -> None:
        self.params = list(params)
        self.base_lr = float(lr)
        self.total_steps = int(total_steps)
        if lr_multipliers is None:
            self.multipliers = [1.0] * len(self.params)
        else:
            if len(lr_multipliers) != len(self.params):
                raise ShapeMismatch("one lr multiplier per parameter required")
            self.multipliers = [float(m) for m in lr_multipliers]
        self.step_count = 0
        self.m = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self.v = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]

    @property
    def lr(self) -> float:
        """Learning rate in effect for the next update."""
        passed = sum(1 for f in _MILESTONES if self.step_count >= f * self.total_steps)
        return self.base_lr * _DECAY**passed

    def step(self) -> None:
        """Apply one update from the gradients currently stored on the params.

        A NaN or infinite gradient raises NonFiniteLoss before any parameter
        or moment changes, so it cannot spread through the moments.
        """
        for i, p in enumerate(self.params):
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NonFiniteLoss(f"gradient of parameter {i} {p.grad.shape} is not finite")
        lr_now = self.lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - _BETA1**t
        bc2 = 1.0 - _BETA2**t
        for p, m, v, mult in zip(self.params, self.m, self.v, self.multipliers):
            g = p.grad if p.grad is not None else np.zeros_like(m)
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + _EPS)
            p.data = p.data - (lr_now * mult) * update.astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
