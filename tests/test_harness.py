"""Tests for the training harness: config, metrics, and the four loops."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from flipmatch.energy import (
    IsingModel,
    TabularBayesNetModel,
    all_states,
    enumerate_exact,
    logsumexp,
    random_ising,
)
from flipmatch.errors import (
    ConfigError,
    EmptyBatch,
    EmptyDataset,
    FlipmatchError,
    LatentCoversAll,
    PartialAssignment,
    ShapeMismatch,
)
from flipmatch.graph import Imap, chain_graph, cycle_graph, grid_graph, ladder_graph, sample_imap
from flipmatch.harness import (
    METRIC_COLUMNS,
    OBJECTIVES,
    MetricsRow,
    TrainConfig,
    data_marginal_loglik,
    interaction_graph,
    latent_imap,
    load_train_config,
    metric_mmd_linear,
    metric_nll,
    read_metrics_csv,
    save_train_config,
    train_delta,
    train_ebm,
    train_em,
    train_gfn,
    write_metrics_csv,
)
from flipmatch.losses import FlowHead, LogZEstimate
from flipmatch.nn import MaeConfig, MaeParams
from flipmatch.sampler import AmortizedSampler
from oracles import (
    TabularSampler,
    exact_em,
    reference_train_delta,
    reference_train_ebm,
    reference_train_em,
    reference_train_gfn,
    tv_distance,
)


def make_sampler(num_vars, width=24, seed=0, **kwargs):
    cfg = MaeConfig(
        num_vars=num_vars, width=width, blocks=2, activation="elu", init_seed=seed, **kwargs
    )
    return AmortizedSampler(MaeParams(cfg))


def uniform_tabular(num_vars, seed=0):
    imap = sample_imap(chain_graph(num_vars), seed=seed)
    tables = {v: np.full(2 ** len(imap.parents[v]), 0.5) for v in imap.vertices}
    return TabularSampler(imap, tables), imap


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.objective == "delta"
        pol = cfg.policy()
        assert pol.kind == "tempered" and pol.temperature == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objective": "vae"},
            {"total_steps": 0},
            {"batch_size": -1},
            {"lr": 0.0},
            {"lr": float("inf")},
            {"lr": float("nan")},
            {"aux_lr_multiplier": float("inf")},
            {"subtb_lambda": float("inf")},
            {"activation": "tanh"},
            {"policy_kind": "greedy"},
            {"policy_eps": 1.5},
            {"subtb_lambda": 0.0},
            {"sub_dags_per_var": -2},
            {"eval_period": 0},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_infinite_temperature_is_the_uniform_policy(self):
        pol = TrainConfig(policy_temperature=float("inf")).policy()
        assert_array_equal(pol.plus_probability(np.array([-50.0, 0.0, 50.0])), 0.5)

    @pytest.mark.parametrize("objective", ["tb", "db", "fl-db", "subtb", "fl-subtb"])
    @pytest.mark.parametrize("knob", ["sub_dags_per_var", "stochastic_children_above"])
    def test_flip_matching_knobs_rejected_under_other_objectives(self, objective, knob):
        with pytest.raises(ConfigError, match=knob):
            TrainConfig(objective=objective, **{knob: 1})
        TrainConfig(objective="delta", **{knob: 1})

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_sampler_has_a_flow_head_under_the_flow_objectives_only(self, objective):
        cfg = TrainConfig(objective=objective, width=8, blocks=1, activation="elu", seed=4)
        s = cfg.sampler(5)
        flows = objective in ("db", "fl-db", "subtb", "fl-subtb")
        assert (s.params.w_flow is not None) == flows
        want = MaeParams(
            MaeConfig(
                num_vars=5, width=8, blocks=1, activation="elu", flow_head=flows, init_seed=4
            )
        )
        assert np.array_equal(s.params.pack(), want.pack())

    def test_json_round_trip(self, tmp_path):
        cfg = TrainConfig(objective="subtb", total_steps=77, subtb_lambda=0.5, seed=9)
        path = tmp_path / "cfg.json"
        save_train_config(cfg, str(path))
        assert load_train_config(str(path)) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": "delta", "learning_rate": 0.1}))
        with pytest.raises(ConfigError, match="learning_rate"):
            load_train_config(str(path))

    def test_seed_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        save_train_config(TrainConfig(seed=1), str(path))
        assert load_train_config(str(path), seed=42).seed == 42

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_train_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_train_config(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 2.5},
            {"blocks": True},
            {"seed": 1.0},
            {"total_steps": "10"},
            {"lr": "0.1"},
            {"policy_eps": False},
            {"objective": 1},
            {"eval_period": None},
        ],
    )
    def test_rejects_wrongly_typed_fields(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)

    def test_numpy_scalars_and_ints_for_floats_accepted(self):
        cfg = TrainConfig(seed=np.int64(4), width=np.int32(8), lr=1, policy_eps=np.float64(0.1))
        assert (cfg.seed, cfg.width, cfg.lr, cfg.policy_eps) == (4, 8, 1, 0.1)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError, match="cfg.json"):
            load_train_config(str(path))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.binary(max_size=64)
        | st.text(max_size=64).map(str.encode)
        | st.dictionaries(
            st.sampled_from(["objective", "width", "lr", "seed", "policy_kind", "blocks", "x"]),
            st.none()
            | st.booleans()
            | st.integers(-3, 10**20)
            | st.floats(allow_nan=True)
            | st.text(max_size=8)
            | st.lists(st.integers(), max_size=2),
            max_size=4,
        ).map(lambda d: json.dumps(d).encode())
    )
    def test_any_bytes_give_a_config_or_flipmatch_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "cfg.json")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                cfg = load_train_config(path)
            except FlipmatchError:
                return
            assert isinstance(cfg, TrainConfig)


class TestMetrics:
    def test_nll_of_uniform_sampler_is_bits(self):
        s, imap = uniform_tabular(4)
        X = np.array([[1, -1, 1, 1], [-1, -1, 1, -1]], dtype=np.int8)
        assert_allclose(metric_nll(s, imap, X), 4 * np.log(2), rtol=1e-12)

    def test_nll_approaches_entropy_for_exact_sampler(self):
        m = random_ising(chain_graph(5), sigma=0.6, seed=4)
        table = enumerate_exact(m)
        imap = sample_imap(interaction_graph(m), seed=2)
        s = TabularSampler.from_exact_table(table, imap)
        X = table.sample_matrix(4096, seed=11)
        assert abs(metric_nll(s, imap, X) - table.entropy()) < 0.08

    def test_nll_empty_batch(self):
        s, imap = uniform_tabular(3)
        with pytest.raises(EmptyBatch):
            metric_nll(s, imap, np.zeros((0, 3), dtype=np.int8))

    def test_mmd_same_distribution_is_small(self):
        m = random_ising(chain_graph(6), sigma=0.5, seed=1)
        t = enumerate_exact(m)
        a = t.sample_matrix(4096, seed=1)
        b = t.sample_matrix(4096, seed=2)
        assert abs(metric_mmd_linear(a, b)) < 0.01

    def test_mmd_separates_distributions(self):
        m = random_ising(chain_graph(6), sigma=2.0, seed=1)
        a = enumerate_exact(m).sample_matrix(2048, seed=1)
        rng = np.random.default_rng(0)
        b = rng.choice([-1, 1], size=(2048, 6)).astype(np.int8)
        assert metric_mmd_linear(a, b) > 0.05

    def test_mmd_matches_hand_computation(self):
        a = np.array([[1, -1], [1, 1], [-1, -1]], dtype=float)
        b = np.array([[-1, 1], [1, 1]], dtype=float)
        k = lambda x, y: float(x @ y)
        aa = sum(k(a[i], a[j]) for i in range(3) for j in range(3) if i != j) / 6
        bb = sum(k(b[i], b[j]) for i in range(2) for j in range(2) if i != j) / 2
        ab = sum(k(x, y) for x in a for y in b) / 6
        assert_allclose(metric_mmd_linear(a, b), aa + bb - 2 * ab, rtol=1e-12)

    def test_mmd_shape_and_size_errors(self):
        a = np.ones((4, 3))
        with pytest.raises(ShapeMismatch):
            metric_mmd_linear(a, np.ones((4, 2)))
        with pytest.raises(EmptyBatch):
            metric_mmd_linear(a[:1], a)

    def test_csv_round_trip(self, tmp_path):
        rows = [
            MetricsRow(100, 1.5, 2.25, 0.001, 0.5, 4),
            MetricsRow(200, 3.0, float("nan"), float("nan"), 0.25, 16),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, str(path))
        back = read_metrics_csv(str(path))
        assert len(back) == 2
        assert back[0] == rows[0]
        assert back[1].step == 200 and np.isnan(back[1].nll) and np.isnan(back[1].mmd)

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,loss\n1,0.5\n")
        with pytest.raises(ShapeMismatch):
            read_metrics_csv(str(path))

    def test_csv_empty_file_names_the_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ShapeMismatch, match=r"empty\.csv, line 1"):
            read_metrics_csv(str(path))

    def test_csv_short_row_names_the_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(METRIC_COLUMNS) + "\n1,0.5,nan,nan,0.25,3\n2,0.75,nan\n")
        with pytest.raises(ShapeMismatch, match=r"short\.csv, line 3: 3 fields, expected 6"):
            read_metrics_csv(str(path))

    def test_csv_non_numeric_field_names_the_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text(",".join(METRIC_COLUMNS) + "\n1,0.5,nan,nan,low,3\n")
        with pytest.raises(ShapeMismatch, match=r"text\.csv, line 2: .*'low'"):
            read_metrics_csv(str(path))


class TestInteractionGraph:
    def test_ising_recovers_its_graph(self):
        g = cycle_graph(5)
        m = random_ising(g, sigma=0.3, seed=0)
        assert interaction_graph(m).edges == g.edges

    def test_shared_child_marries_parents(self):
        dag = Imap.from_parents(3, (0, 1, 2), ((), (), (0, 1)))
        p = TabularBayesNetModel(dag)
        g = interaction_graph(p)
        assert (0, 1) in g.edges  # co-parents interact through the shared factor


class TestTrainDelta:
    def test_two_var_nll_reaches_entropy(self):
        m = IsingModel(np.array([[0, 0.8], [0.8, 0]]), np.array([0.4, -0.1]), 1.0)
        t = enumerate_exact(m)
        s = make_sampler(2, width=16)
        cfg = TrainConfig(
            objective="delta", total_steps=600, batch_size=64, lr=1e-2, eval_period=300, seed=1
        )
        s, rows = train_delta(cfg, m, s, eval_samples=t.sample_matrix(2048, 7))
        assert abs(rows[-1].nll - t.entropy()) < 0.02
        assert rows[-1].mmd < 0.01

    def test_chain_total_variation(self):
        m = random_ising(chain_graph(6), sigma=0.4, seed=5)
        t = enumerate_exact(m)
        s = make_sampler(6, width=48)
        cfg = TrainConfig(
            objective="delta",
            total_steps=2500,
            batch_size=128,
            lr=1e-2,
            eval_period=2500,
            seed=2,
            imap_refresh_period=50,
        )
        s, _ = train_delta(cfg, m, s)
        states = all_states(6)
        for imap_seed in (123, 77):
            imap = sample_imap(interaction_graph(m), seed=imap_seed)
            q = np.exp(s.log_prob_batch(imap, states))
            assert 0.5 * np.abs(q - t.full_probs).sum() < 0.02

    def test_full_mode_metrics_shape(self):
        m = random_ising(cycle_graph(4), sigma=0.3, seed=0)
        s = make_sampler(4, width=12)
        cfg = TrainConfig(
            objective="delta", total_steps=120, batch_size=16, lr=1e-3, eval_period=50, seed=0
        )
        s, rows = train_delta(cfg, m, s)
        assert [r.step for r in rows] == [50, 100, 120]
        assert all(r.instantiated == 4 for r in rows)
        assert all(np.isnan(r.nll) and np.isnan(r.mmd) for r in rows)
        assert all(np.isfinite(r.loss) for r in rows)
        seconds = [r.seconds for r in rows]
        assert seconds == sorted(seconds)

    def test_sub_dag_mode_instantiates_neighborhoods_only(self):
        num_vars = 8
        m = random_ising(chain_graph(num_vars), sigma=0.3, seed=1)
        s = make_sampler(num_vars, width=16)
        cfg = TrainConfig(
            objective="delta",
            total_steps=60,
            batch_size=16,
            lr=1e-3,
            eval_period=30,
            seed=3,
            sub_dags_per_var=4,
        )
        s, rows = train_delta(cfg, m, s)
        # on a chain each neighborhood is a variable plus at most two neighbors
        assert all(r.instantiated == 3 for r in rows)
        assert rows[-1].instantiated < num_vars

    def test_stochastic_child_surrogate_runs(self):
        m = random_ising(cycle_graph(5), sigma=0.3, seed=2)
        s = make_sampler(5, width=12)
        cfg = TrainConfig(
            objective="delta",
            total_steps=40,
            batch_size=8,
            lr=1e-3,
            eval_period=40,
            seed=4,
            stochastic_children_above=1,
        )
        s, rows = train_delta(cfg, m, s)
        assert len(rows) == 1 and np.isfinite(rows[0].loss)

    def test_rejects_other_objectives(self):
        m = random_ising(cycle_graph(3), sigma=0.3, seed=0)
        with pytest.raises(ConfigError):
            train_delta(TrainConfig(objective="tb"), m, make_sampler(3, width=8))

    def test_bit_for_bit_reproducible(self):
        m = random_ising(cycle_graph(4), sigma=0.5, seed=6)
        t = enumerate_exact(m)
        ev = t.sample_matrix(256, seed=5)
        cfg = TrainConfig(
            objective="delta", total_steps=80, batch_size=16, lr=2e-3, eval_period=40, seed=11
        )
        _, rows_a = train_delta(cfg, m, make_sampler(4, width=12, seed=2), eval_samples=ev)
        _, rows_b = train_delta(cfg, m, make_sampler(4, width=12, seed=2), eval_samples=ev)
        for a, b in zip(rows_a, rows_b):
            assert (a.step, a.nll, a.mmd, a.loss, a.instantiated) == (
                b.step,
                b.nll,
                b.mmd,
                b.loss,
                b.instantiated,
            )


class TestTrainGfn:
    def test_tb_learns_log_partition(self):
        m = IsingModel(np.array([[0, 0.7], [0.7, 0]]), np.array([0.4, -0.3]), 1.0)
        t = enumerate_exact(m)
        s = make_sampler(2, width=16, seed=1)
        logZ = LogZEstimate()
        cfg = TrainConfig(
            objective="tb",
            total_steps=1500,
            batch_size=64,
            lr=5e-3,
            eval_period=750,
            seed=3,
            policy_kind="eps-uniform",
            policy_eps=0.1,
        )
        s, rows = train_gfn(cfg, m, s, logZ=logZ)
        assert abs(logZ.item() - t.log_z) < 0.05
        assert all(r.instantiated == 2 for r in rows)

    def test_db_flow_learns_log_partition_at_the_root(self):
        m = IsingModel(np.zeros((1, 1)), np.array([0.9]), 1.0)
        t = enumerate_exact(m)
        s = make_sampler(1, width=12, seed=2, flow_head=True)
        flow = FlowHead(s.params)
        cfg = TrainConfig(
            objective="db",
            total_steps=600,
            batch_size=64,
            lr=5e-2,
            eval_period=300,
            seed=4,
            policy_kind="eps-uniform",
            policy_eps=0.2,
        )
        s, rows = train_gfn(cfg, m, s, flow=flow)
        root = float(flow.log_flows(m, sample_imap(m.graph, seed=0), np.ones((1, 1))).data[0])
        assert abs(root - t.log_z) < 0.01
        assert rows[-1].loss < 1e-6

    def test_exact_start_stays_at_zero_loss(self):
        # with exact conditionals and exact flows, every residual vanishes
        from oracles import ExactFlow, fit_sampler_exactly

        m = random_ising(cycle_graph(4), sigma=0.5, seed=3)
        table = enumerate_exact(m)
        cfg = TrainConfig(
            objective="db",
            total_steps=2,
            batch_size=32,
            lr=1e-6,
            eval_period=1,
            seed=5,
            imap_refresh_period=10,
        )
        # fit the sampler under the exact imap the run will draw: the loop
        # spawns (sample, imap, eval) streams from the config seed in order
        _, r_imap, _ = [
            np.random.default_rng(c) for c in np.random.SeedSequence(cfg.seed).spawn(3)
        ]
        imap = sample_imap(interaction_graph(m), seed=r_imap)
        s = make_sampler(4, width=64, seed=0)
        assert fit_sampler_exactly(s.params, [imap], table) < 1e-9
        _, rows = train_gfn(cfg, m, s, flow=ExactFlow(table))
        assert rows[0].loss < 1e-10

    def test_forward_looking_needs_flow_capable_network(self):
        m = random_ising(cycle_graph(3), sigma=0.3, seed=0)
        s = make_sampler(3, width=8)  # no flow head on this network
        cfg = TrainConfig(objective="fl-db", total_steps=10, batch_size=8, eval_period=10)
        with pytest.raises(ConfigError):
            train_gfn(cfg, m, s)

    def test_separate_flow_network_gets_trained(self):
        m = random_ising(cycle_graph(3), sigma=0.3, seed=0)
        s = make_sampler(3, width=12, seed=0)
        flow_net = MaeParams(
            MaeConfig(num_vars=3, width=8, blocks=1, activation="elu", flow_head=True, init_seed=7)
        )
        flow = FlowHead(flow_net)
        before = flow_net.w_flow.data.copy()
        cfg = TrainConfig(
            objective="db", total_steps=30, batch_size=16, lr=1e-2, eval_period=30, seed=6
        )
        train_gfn(cfg, m, s, flow=flow)
        assert not np.allclose(flow_net.w_flow.data, before)

    def test_rejects_delta_objective(self):
        m = random_ising(cycle_graph(3), sigma=0.3, seed=0)
        with pytest.raises(ConfigError):
            train_gfn(TrainConfig(objective="delta"), m, make_sampler(3, width=8))

    def test_bit_for_bit_reproducible(self):
        m = random_ising(cycle_graph(3), sigma=0.4, seed=1)
        cfg = TrainConfig(
            objective="tb", total_steps=60, batch_size=16, lr=2e-3, eval_period=30, seed=13
        )
        _, rows_a = train_gfn(cfg, m, make_sampler(3, width=12, seed=4))
        _, rows_b = train_gfn(cfg, m, make_sampler(3, width=12, seed=4))
        assert [(r.step, r.loss) for r in rows_a] == [(r.step, r.loss) for r in rows_b]


class TestTrainEbm:
    def test_recovers_coupling_and_biases(self):
        m_true = IsingModel(np.array([[0, 0.8], [0.8, 0]]), np.array([0.3, -0.2]), 1.0)
        data = enumerate_exact(m_true).sample_matrix(4000, 11)
        m = IsingModel(np.array([[0, 0.05], [0.05, 0]]), np.zeros(2), 1.0)
        s = make_sampler(2, width=24, seed=5)
        cfg = TrainConfig(
            objective="delta", total_steps=7000, batch_size=64, lr=5e-3, eval_period=1000, seed=7
        )
        m, s, rows = train_ebm(
            cfg, m, s, data, p_lr=0.05, p_updates=300, alternation=(100, 5), warmup=800,
            neg_batch=256,
        )
        assert abs(float(m.J[0, 1]) - 0.8) < 0.15
        tv = tv_distance(enumerate_exact(m_true), enumerate_exact(m).full_probs)
        assert tv < 0.05
        assert rows[-1].step == 300

    def test_validates_inputs(self):
        m = random_ising(cycle_graph(3), sigma=0.3, seed=0)
        s = make_sampler(3, width=8)
        cfg = TrainConfig(objective="delta", total_steps=10, batch_size=4, eval_period=10)
        with pytest.raises(EmptyDataset):
            train_ebm(cfg, m, s, np.zeros((0, 3), dtype=np.int8))
        with pytest.raises(PartialAssignment):
            train_ebm(cfg, m, s, np.array([[1, 0, -1]], dtype=np.int8))
        with pytest.raises(ConfigError):
            train_ebm(TrainConfig(objective="tb"), m, s, np.ones((4, 3), dtype=np.int8))
        with pytest.raises(ConfigError):
            train_ebm(cfg, m, s, np.ones((4, 3), dtype=np.int8), alternation=(0, 5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_updates": 0},
            {"warmup": -3},
            {"p_lr": -1.0},
            {"p_lr": float("nan")},
            {"p_lr": float("inf")},
            {"neg_batch": 0},
        ],
    )
    def test_rejects_bad_arguments_before_any_update(self, kwargs):
        m = random_ising(cycle_graph(3), sigma=0.3, seed=0)
        s = make_sampler(3, width=8)
        params, weights = m.get_params().copy(), s.params.pack()
        cfg = TrainConfig(objective="delta", total_steps=10, batch_size=4, eval_period=10)
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            train_ebm(cfg, m, s, np.ones((4, 3), dtype=np.int8), **kwargs)
        assert np.array_equal(m.get_params(), params)
        assert np.array_equal(s.params.pack(), weights)


class TestSamplerOfAnotherSize:
    """Every trainer refuses a sampler built for another number of variables
    with one ConfigError naming both counts, before any update."""

    @pytest.mark.parametrize("sampler_vars", [6, 12])
    @pytest.mark.parametrize("trainer", ["delta", "delta-sub-maps", "tb", "fl-subtb", "ebm"])
    def test_refused_naming_both_counts(self, trainer, sampler_vars):
        m = random_ising(ladder_graph(4), sigma=0.3, seed=0)  # 8 spins
        s = make_sampler(sampler_vars, width=8, flow_head=trainer == "fl-subtb")
        weights = s.params.pack()
        small = dict(total_steps=2, batch_size=4, eval_period=2)
        with pytest.raises(ConfigError, match=f"built for {sampler_vars} variables, model has 8"):
            if trainer.startswith("delta"):
                sub_maps = int(trainer == "delta-sub-maps")
                train_delta(TrainConfig(objective="delta", sub_dags_per_var=sub_maps, **small), m, s)
            elif trainer == "ebm":
                data = np.ones((4, 8), dtype=np.int8)
                train_ebm(TrainConfig(objective="delta", **small), m, s, data)
            else:
                train_gfn(TrainConfig(objective=trainer, **small), m, s)
        assert_array_equal(s.params.pack(), weights)


def three_var_latent_problem():
    dag = Imap.from_parents(3, (0, 1, 2), ((), (0,), (1,)))
    p_true = TabularBayesNetModel(
        dag, {0: np.array([0.7]), 1: np.array([-0.9, 0.9]), 2: np.array([0.5, -1.1])}
    )
    X = p_true.sample(3000, 13)
    data = X.copy()
    data[:, 1] = 0
    init = {0: np.array([0.0]), 1: np.array([-0.4, 0.4]), 2: np.array([0.2, -0.2])}
    return dag, p_true, data, init


class TestTrainEm:
    def test_matches_exact_posterior_em(self):
        dag, _, data, init = three_var_latent_problem()
        oracle = exact_em(TabularBayesNetModel(dag, init), [1], data)
        oracle_nll = -data_marginal_loglik(oracle, [1], data)
        cfg = TrainConfig(
            objective="delta",
            total_steps=150,
            batch_size=64,
            lr=5e-3,
            eval_period=50,
            seed=8,
            imap_refresh_period=50,
        )
        p, s, rows = train_em(
            cfg, TabularBayesNetModel(dag, init), [1], data, rounds=4, m_steps=25, m_lr=0.25
        )
        assert rows[-1].nll - oracle_nll < 0.05
        assert rows[-1].nll <= rows[0].nll

        # the trained sampler matches the learned model's own exact posterior
        imap = latent_imap(p, [1], seed=0)
        for a in (-1, 1):
            for c in (-1, 1):
                pair = np.array([[a, 1, c], [a, -1, c]], dtype=np.int8)
                lw = p.log_reward_batch(pair)
                exact_plus = np.exp(lw[0] - logsumexp(lw))
                qp, qm = np.exp(s.log_prob_batch(imap, pair))
                assert abs(qp / (qp + qm) - exact_plus) < 0.05

    def test_both_steps_draw_from_the_data_rows(self, monkeypatch):
        dag, _, data, init = three_var_latent_problem()
        seen = []
        draw = AmortizedSampler.partial_sample_batch

        def recorded(self, sub, policy, n, seed, X=None):
            out = draw(self, sub, policy, n, seed, X=X)
            seen.append((sub, X, out))
            return out

        monkeypatch.setattr(AmortizedSampler, "partial_sample_batch", recorded)
        cfg = TrainConfig(objective="delta", total_steps=3, batch_size=8, eval_period=3, seed=2)
        train_em(cfg, TabularBayesNetModel(dag, init), [1], data, rounds=1, m_steps=2)
        assert [len(X) for _, X, _ in seen] == [8] * 3 + [2 * len(data)] * 2
        rows = {tuple(r) for r in data.tolist()}
        for imap, X, out in seen:
            # observed 0 and 2 are the latent's given parents, read from data rows
            assert imap.given.tolist() == [0, 2]
            assert {tuple(r) for r in np.asarray(X).tolist()} <= rows
            assert_array_equal(out[:, [0, 2]], np.asarray(X)[:, [0, 2]])
            assert set(np.unique(out[:, 1]).tolist()) <= {-1, 1}

    def test_nothing_latent_is_plain_mle(self):
        dag, p_true, _, _ = three_var_latent_problem()
        data = p_true.sample(500, 3)
        p_a, s_a, rows = train_em(
            TrainConfig(objective="delta", total_steps=1, eval_period=1, seed=0),
            TabularBayesNetModel(dag),
            [],
            data,
            rounds=3,
            m_steps=20,
            m_lr=0.3,
        )
        assert s_a is None
        p_b = TabularBayesNetModel(dag)
        for _ in range(60):
            p_b.set_params(p_b.get_params() + 0.3 * p_b.log_reward_grad_mean(data))
        assert_allclose(p_a.get_params(), p_b.get_params(), rtol=1e-12)
        assert_allclose(rows[-1].nll, -np.mean(p_b.log_reward_batch(data)), rtol=1e-12)

    def test_nothing_latent_checks_the_sampler(self):
        dag, p_true, _, _ = three_var_latent_problem()
        data = p_true.sample(50, 3)
        cfg = TrainConfig(objective="delta", total_steps=1, eval_period=1)
        with pytest.raises(ConfigError, match="variables"):
            train_em(cfg, TabularBayesNetModel(dag), [], data, s=make_sampler(5, width=8))
        s = make_sampler(3, width=8)
        _, got, _ = train_em(cfg, TabularBayesNetModel(dag), [], data, s=s, rounds=1, m_steps=1)
        assert got is s

    @pytest.mark.parametrize("knob", ["sub_dags_per_var", "stochastic_children_above"])
    def test_flip_matching_knobs_rejected(self, knob):
        dag, _, data, init = three_var_latent_problem()
        cfg = TrainConfig(total_steps=5, batch_size=4, eval_period=5, **{knob: 1})
        with pytest.raises(ConfigError, match=knob):
            train_em(cfg, TabularBayesNetModel(dag, init), [1], data)

    def test_bit_for_bit_reproducible(self):
        # four latent variables and a map redrawn every other E-step, so
        # that the latent maps enter the run
        dag = Imap.from_parents(6, range(6), ((), (0,), (0,), (1, 2), (3,), (3, 4)))
        rng = np.random.default_rng(4)
        tables = {v: rng.normal(size=1 << len(dag.parents[v])) for v in range(6)}
        data = TabularBayesNetModel(dag, tables).sample(300, 9)
        data[:, [1, 2, 3, 4]] = 0
        cfg = TrainConfig(
            objective="delta", total_steps=8, batch_size=16, lr=5e-3, eval_period=8, seed=3,
            imap_refresh_period=2,
        )
        runs = [
            train_em(cfg, TabularBayesNetModel(dag), [1, 2, 3, 4], data, rounds=2, m_steps=4)
            for _ in range(2)
        ]
        (p_a, s_a, rows_a), (p_b, s_b, rows_b) = runs
        assert [(r.step, r.nll, r.loss, r.instantiated) for r in rows_a] == [
            (r.step, r.nll, r.loss, r.instantiated) for r in rows_b
        ]
        assert np.array_equal(p_a.get_params(), p_b.get_params())
        assert np.array_equal(s_a.params.pack(), s_b.params.pack())

    def test_marginal_loglik_rejects_latent_ids_out_of_range(self):
        dag, p_true, _, _ = three_var_latent_problem()
        row = np.array([[1, 0, -1]], dtype=np.int8)
        for bad in ([-1], [5], [1, 3]):
            with pytest.raises(ConfigError, match="latent"):
                data_marginal_loglik(p_true, bad, row)

    def test_marginal_loglik_is_nan_above_16_latents(self):
        wide = TabularBayesNetModel(Imap.from_parents(18, range(18), [()] * 18))
        assert np.isnan(data_marginal_loglik(wide, range(17), np.ones((1, 18), dtype=np.int8)))

    def test_latent_imap_rejects_bad_latent_sets(self):
        dag, p_true, _, _ = three_var_latent_problem()
        for bad in ([-1], [3], [0, 7]):
            with pytest.raises(ConfigError, match="latent"):
                latent_imap(p_true, bad, seed=0)
        with pytest.raises(LatentCoversAll):
            latent_imap(p_true, [0, 1, 2], seed=0)

    def test_latent_imap_draws_the_latent_set_given_the_observed(self):
        dag, p_true, _, _ = three_var_latent_problem()
        imap = latent_imap(p_true, [0, 1], seed=4)
        assert imap.vertices == (0, 1)
        assert imap.given.tolist() == [2]
        assert all(set(ps) <= {0, 1, 2} for ps in imap.parents.values())
        assert imap.num_vars == 3

    def test_marginal_loglik_hand_check(self):
        dag, p_true, _, _ = three_var_latent_problem()
        row = np.array([[1, 0, -1]], dtype=np.int8)
        both = np.array([[1, 1, -1], [1, -1, -1]], dtype=np.int8)
        want = logsumexp(p_true.log_reward_batch(both))
        assert_allclose(data_marginal_loglik(p_true, [1], row), want, rtol=1e-12)
        full = np.array([[1, 1, -1], [-1, -1, 1]], dtype=np.int8)
        assert_allclose(
            data_marginal_loglik(p_true, [], full),
            np.mean(p_true.log_reward_batch(full)),
            rtol=1e-12,
        )

    def test_validates_inputs(self):
        dag, p_true, data, _ = three_var_latent_problem()
        cfg = TrainConfig(objective="delta", total_steps=5, batch_size=4, eval_period=5)
        with pytest.raises(LatentCoversAll):
            train_em(cfg, TabularBayesNetModel(dag), [0, 1, 2], data)
        with pytest.raises(EmptyDataset):
            train_em(cfg, TabularBayesNetModel(dag), [1], np.zeros((0, 3), dtype=np.int8))
        with pytest.raises(ShapeMismatch):
            train_em(cfg, TabularBayesNetModel(dag), [1], np.ones((4, 2), dtype=np.int8))
        bad = data.copy()
        bad[0, 0] = 0
        with pytest.raises(PartialAssignment):
            train_em(cfg, TabularBayesNetModel(dag), [1], bad)
        with pytest.raises(ConfigError):
            train_em(TrainConfig(objective="tb"), TabularBayesNetModel(dag), [1], data)
        with pytest.raises(ConfigError):
            train_em(cfg, TabularBayesNetModel(dag), [1], data, rounds=0)
        mismatched = make_sampler(4, width=8)
        with pytest.raises(ConfigError, match="variables"):
            train_em(cfg, TabularBayesNetModel(dag), [1], data, s=mismatched)


def assert_same_rows(got, want):
    """Every metrics column but ``seconds``, exactly; NaN matches NaN."""

    def columns(rows):
        return np.array([(r.step, r.nll, r.mmd, r.loss, r.instantiated) for r in rows])

    assert_array_equal(columns(got), columns(want))


class TestOneTrainer:
    """One trainer runs every sampler update of the four trainers, and each
    trainer gives the bits of its loop as it stood before (the ``reference_*``
    loops in ``oracles``): the packed weights, log Z, a separate flow network,
    the model's parameters, and every metrics column but ``seconds``.  Maps
    are redrawn every other step, so the map draws enter every run."""

    @staticmethod
    def ising():
        m = random_ising(grid_graph(3, 3), sigma=0.5, seed=1)
        return m, enumerate_exact(m).sample_matrix(32, 2)

    @staticmethod
    def config(seed, **knobs):
        knobs = {"total_steps": 6, **knobs}
        return TrainConfig(
            batch_size=8, lr=1e-2, width=8, eval_period=2, imap_refresh_period=2, seed=seed, **knobs
        )

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"policy_kind": "eps-uniform", "policy_eps": 0.1},
            {"sub_dags_per_var": 2},
            {"stochastic_children_above": 1},
            {"sub_dags_per_var": 2, "stochastic_children_above": 1},
        ],
        ids=["tempered", "eps-uniform", "sub-maps", "surrogate", "sub-maps-surrogate"],
    )
    def test_delta(self, knobs, seed):
        m, eval_samples = self.ising()
        cfg = self.config(seed, **knobs)
        got, rows = train_delta(cfg, m, cfg.sampler(9), eval_samples=eval_samples)
        want, want_rows = reference_train_delta(cfg, m, cfg.sampler(9), eval_samples=eval_samples)
        assert np.array_equal(got.params.pack(), want.params.pack())
        assert_same_rows(rows, want_rows)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("objective", ["tb", "db", "fl-db", "subtb", "fl-subtb"])
    def test_balance_objectives(self, objective, seed):
        m, eval_samples = self.ising()
        cfg = self.config(seed, objective=objective, policy_kind="eps-uniform", policy_eps=0.1)
        runs = []
        for train in (train_gfn, reference_train_gfn):
            logZ = LogZEstimate() if objective == "tb" else None
            s, rows = train(cfg, m, cfg.sampler(9), logZ=logZ, eval_samples=eval_samples)
            runs.append((s.params.pack(), rows, logZ and logZ.item()))
        (got, rows, got_z), (want, want_rows, want_z) = runs
        assert np.array_equal(got, want)
        assert_same_rows(rows, want_rows)
        assert got_z == want_z

    def test_separate_flow_network(self):
        m, eval_samples = self.ising()
        cfg = self.config(5, objective="db")
        runs = []
        for train in (train_gfn, reference_train_gfn):
            net_cfg = MaeConfig(
                num_vars=9, width=8, blocks=1, activation="elu", flow_head=True, init_seed=7
            )
            net = MaeParams(net_cfg)
            s, rows = train(cfg, m, make_sampler(9, width=8), flow=FlowHead(net))
            runs.append((s.params.pack(), net.pack(), rows))
        (got, got_net, rows), (want, want_net, want_rows) = runs
        assert np.array_equal(got, want)
        assert np.array_equal(got_net, want_net)
        assert_same_rows(rows, want_rows)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_ebm(self, seed):
        truth = random_ising(cycle_graph(4), sigma=0.6, seed=2)
        data = enumerate_exact(truth).sample_matrix(200, 11)
        eval_samples = enumerate_exact(truth).sample_matrix(32, 12)
        cfg = self.config(seed, total_steps=20)
        runs = []
        for train in (train_ebm, reference_train_ebm):
            m = random_ising(cycle_graph(4), sigma=0.1, seed=4)
            m, s, rows = train(
                cfg, m, cfg.sampler(4), data, p_updates=5, alternation=(3, 2), warmup=2,
                neg_batch=16, eval_samples=eval_samples,
            )
            runs.append((m.get_params(), s.params.pack(), rows))
        (got_m, got, rows), (want_m, want, want_rows) = runs
        assert np.array_equal(got_m, want_m)
        assert np.array_equal(got, want)
        assert_same_rows(rows, want_rows)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("latent", [[1], [1, 2], []], ids=["one", "two", "none"])
    def test_em(self, latent, seed):
        dag = Imap.from_parents(6, range(6), ((), (0,), (0,), (1, 2), (3,), (3, 4)))
        rng = np.random.default_rng(4)
        tables = {v: rng.normal(size=1 << len(dag.parents[v])) for v in range(6)}
        data = TabularBayesNetModel(dag, tables).sample(100, 9)
        data[:, latent] = 0
        cfg = self.config(seed, total_steps=4)
        runs = []
        for train in (train_em, reference_train_em):
            p, s, rows = train(cfg, TabularBayesNetModel(dag), latent, data, rounds=2, m_steps=3)
            runs.append((p.get_params(), s and s.params.pack(), rows))
        (got_p, got, rows), (want_p, want, want_rows) = runs
        assert np.array_equal(got_p, want_p)
        assert (got is None and want is None) if not latent else np.array_equal(got, want)
        assert_same_rows(rows, want_rows)
