"""Span tracing around flipmatch's public functions, installed from outside.

The tracer swaps each traced function or method for a wrapper that times the
call, counts it, and records the work it was handed (rows, computed flops).
Library modules that imported a traced function by name hold their own
reference to it (``harness.loops`` binds ``delta_loss_batch``, ``sample_imap``
and ``sub_imap``; ``losses`` binds ``masked_parent_rows``), so installing
scans every loaded ``flipmatch`` module and replaces each binding of the
original object.  ``remove`` puts every original back, so an untraced run
measures the unmodified code.

A span's self time is its duration minus the time its child spans cover.
Spans nest through a stack; the benchmark is one thread, so one stack is
enough.  Only aggregates are kept: calls, self seconds, rows and, for the
network, flops and fill counters.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _batch_len(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else int(x.shape[0])


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` is ``func`` or ``Class.method`` in ``module``.

    ``rows`` maps (args, kwargs, result) to the number of rows the call
    processed; None means the span records no row count.
    """

    span: str
    module: str
    attr: str
    rows: Callable[[tuple, dict, object], int] | None = None


def _mae_rows(args, kwargs, out) -> int:
    return int(_arg(args, kwargs, 1, "x").shape[0])


TARGETS: tuple[Target, ...] = (
    Target("graph.sample_imap", "flipmatch.graph", "sample_imap"),
    Target("graph.sub_imap", "flipmatch.graph", "sub_imap"),
    Target(
        "sampler.ancestral_sample",
        "flipmatch.sampler",
        "AmortizedSampler.ancestral_sample",
        lambda a, k, out: int(_arg(a, k, 3, "n")),
    ),
    Target(
        "sampler.partial_sample_batch",
        "flipmatch.sampler",
        "AmortizedSampler.partial_sample_batch",
        lambda a, k, out: int(_arg(a, k, 3, "n")),
    ),
    Target(
        "sampler.log_prob_batch",
        "flipmatch.sampler",
        "AmortizedSampler.log_prob_batch",
        lambda a, k, out: _batch_len(_arg(a, k, 2, "X")),
    ),
    Target(
        "sampler.masked_parent_rows",
        "flipmatch.sampler",
        "masked_parent_rows",
        lambda a, k, out: len(_arg(a, k, 2, "vs")),
    ),
    Target("sampler.gibbs_chain", "flipmatch.sampler", "gibbs_chain"),
    Target("nn.mae.masked_logits_np", "flipmatch.nn.mae", "MaeParams.masked_logits_np", _mae_rows),
    Target("nn.mae.masked_logits", "flipmatch.nn.mae", "MaeParams.masked_logits", _mae_rows),
    Target("nn.tape.backward", "flipmatch.nn.tape", "backward"),
    Target("nn.adam.step", "flipmatch.nn.adam", "AdamState.step"),
    Target(
        "energy.delta_log_reward_batch",
        "flipmatch.energy",
        "*.delta_log_reward_batch",
        lambda a, k, out: len(_arg(a, k, 2, "us")),
    ),
    Target("energy.local_flip_logits", "flipmatch.energy", "*.local_flip_logits"),
    Target("energy.log_reward_batch", "flipmatch.energy", "*.log_reward_batch"),
    Target(
        "losses.delta_loss_batch",
        "flipmatch.losses",
        "delta_loss_batch",
        lambda a, k, out: len(_arg(a, k, 4, "us")),
    ),
    Target(
        "losses.tb_loss_batch",
        "flipmatch.losses",
        "tb_loss_batch",
        lambda a, k, out: _batch_len(_arg(a, k, 3, "X")),
    ),
    Target("harness.metric_nll", "flipmatch.harness.metrics", "metric_nll"),
    Target("harness.train_delta", "flipmatch.harness.loops", "train_delta"),
    Target("harness.train_gfn", "flipmatch.harness.loops", "train_gfn"),
)


class SpanStats:
    __slots__ = ("calls", "self_s", "rows", "flops")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.rows = 0
        self.flops = 0


class Tracer:
    """Aggregated spans over the traced callables; install, run, remove."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.stats = {t.span: SpanStats() for t in targets}
        self.input_entries = 0
        self.input_nonzero = 0
        self.logits_computed = 0
        self.logits_read = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ------------------------------------------------------------

    def _network_counters(self, stat: SpanStats, args, kwargs, out) -> None:
        params, x = args[0], _arg(args, kwargs, 1, "x")
        cfg = params.cfg
        rows = int(x.shape[0])
        w = cfg.width
        # computed from shapes: input layer, hidden blocks, output head
        macs = cfg.input_width * w + (cfg.blocks - 1) * w * w + w * cfg.num_vars
        stat.flops += 2 * rows * macs
        self.input_entries += int(x.size)
        self.input_nonzero += int(np.count_nonzero(x))
        # every caller reads one logit per row (the row's own variable)
        self.logits_computed += int(np.asarray(getattr(out, "data", out)).size)
        self.logits_read += rows

    def _wrap(self, target: Target, fn):
        stat = self.stats[target.span]
        stack = self._stack
        network = target.span.startswith("nn.mae.")
        rows_of = target.rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if rows_of is not None:
                stat.rows += rows_of(args, kwargs, out)
            if network:
                self._network_counters(stat, args, kwargs, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------------

    @staticmethod
    def _owners(target: Target) -> list[tuple[object, str]]:
        """(owner, attribute) pairs holding the original callable."""
        module = sys.modules[target.module]
        if "." not in target.attr:
            fn = getattr(module, target.attr)
            owners = []
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "flipmatch" or name.startswith("flipmatch.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        owners.append((mod, key))
            return owners
        cls_name, meth = target.attr.split(".")
        if cls_name != "*":
            return [(getattr(module, cls_name), meth)]
        # every class of the module that defines the method itself
        return [
            (cls, meth)
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__ and meth in vars(cls)
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owners = self._owners(target)
            if not owners:
                raise RuntimeError(f"nothing to trace for {target.span}")
            wrapped: dict[int, object] = {}
            for owner, key in owners:
                original = vars(owner)[key]
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(target, original)
                self._patches.append((owner, key, original))
                setattr(owner, key, wrapped[id(original)])

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    @property
    def installed(self) -> bool:
        return bool(self._patches)
