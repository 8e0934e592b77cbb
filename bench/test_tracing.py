"""The tracer's wrappers fire where the layer table says and leave no trace.

Runs a seconds-long instance of each workload under the tracer and checks
that every span the layer table assigns to that workload records calls, so
a wrapper installed on the wrong namespace (a module that imported the
function by name) shows up as a missing span.  Removing the tracer must put
back every original binding, so untraced runs measure unmodified code.

    python3 -m pytest bench/test_tracing.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import load_library  # noqa: E402

load_library()

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED = {
    "ladder16-train": {
        "graph.sample_imap",
        "sampler.ancestral_sample",
        "sampler.log_prob_batch",
        "sampler.masked_parent_rows",
        "nn.mae.masked_logits_np",
        "nn.mae.masked_logits",
        "nn.tape.backward",
        "nn.adam.step",
        "energy.delta_log_reward_batch",
        "energy.log_reward_batch",
        "losses.delta_loss_batch",
        "losses.tb_loss_batch",
        "harness.metric_nll",
        "harness.train_delta",
        "harness.train_gfn",
    },
    "grid32-sample": {
        "graph.sample_imap",
        "sampler.ancestral_sample",
        "sampler.log_prob_batch",
        "sampler.gibbs_chain",
        "nn.mae.masked_logits_np",
        "energy.local_flip_logits",
    },
    "grid32-local": {
        "graph.sample_imap",
        "graph.sub_imap",
        "sampler.partial_sample_batch",
        "sampler.masked_parent_rows",
        "nn.mae.masked_logits_np",
        "nn.mae.masked_logits",
        "nn.tape.backward",
        "nn.adam.step",
        "energy.delta_log_reward_batch",
        "losses.delta_loss_batch",
        "harness.train_delta",
    },
}

# seconds-long instances of the workloads
TINY = {
    "ladder16-train": lambda: workloads.Ladder16Train(
        rungs=3, width=8, batch=8, delta_steps=3, tb_steps=2, reference_draws=50
    ),
    "grid32-sample": lambda: workloads.Grid32Sample(
        side=4, width=8, draws=8, chains=8, sweeps=2, tau_chains=4, tau_sweeps=20
    ),
    "grid32-local": lambda: workloads.Grid32Local(side=4, width=8),
}

# the no-grad inference workload never reaches the tape or the optimizer
ABSENT = {"grid32-sample": {"nn.tape.backward", "nn.adam.step", "nn.mae.masked_logits"}}


def _bindings() -> dict:
    """Every attribute of every flipmatch module and of its classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "flipmatch" or name.startswith("flipmatch.")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    return snap


def test_every_span_is_expected_somewhere():
    spans = {t.span for t in tracing.TARGETS}
    assert set().union(*EXPECTED.values()) == spans


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_spans_fire_where_the_layer_table_says(name):
    wl = TINY[name]()
    rec = workloads.Recorder()
    wl.prepare(0)
    before = _bindings()
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracer:
        assert _bindings() != before
        wl.round(wl.setup(0), 0, rec)
    wall = time.perf_counter() - t0

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []

    fired = {span for span, st in tracer.stats.items() if st.calls > 0}
    assert EXPECTED[name] - fired == set()
    assert ABSENT.get(name, set()) & fired == set()
    assert rec.attempted > 0 and rec.failed == 0
    # self times partition the traced wall time: no span is counted twice
    assert 0.0 < sum(st.self_s for st in tracer.stats.values()) <= wall


def test_modules_that_imported_by_name_are_patched():
    from flipmatch import losses
    from flipmatch.harness import loops

    with tracing.Tracer():
        for fn in (
            loops.delta_loss_batch,
            loops.sample_imap,
            loops.sub_imap,
            losses.masked_parent_rows,
        ):
            assert hasattr(fn, "__wrapped__")
    assert not hasattr(loops.delta_loss_batch, "__wrapped__")
