"""Loss tests: flip matching, its single-child gradient estimator, and the
trajectory-balance family.

The recurring reference points are a tabular sampler holding enumerated
conditionals and the enumerated prefix flows F(prefix) = Z * P(prefix): with
both in place every residual in this module must vanish.  Hand-evaluated one-
and two-variable cases pin the constants, finite differences pin the
gradients, and the single-child estimator is checked by enumerating all its
index choices against the full backward pass, and as rows of a step's one term
table against the per-flip loop it replaced.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from flipmatch.energy import (
    FactorGraphModel,
    IsingModel,
    MlpFactor,
    TabularBayesNetModel,
    enumerate_exact,
    random_ising,
)
from flipmatch.errors import (
    ConfigError,
    EmptyBatch,
    MissingBlanket,
    PartialAssignment,
    SameValue,
    TooFewChildren,
)
from flipmatch.graph import (
    _elimination_imap,
    _mask_of,
    chain_graph,
    cycle_graph,
    grid_graph,
    ladder_graph,
    sample_imap,
    sub_imap,
)
from flipmatch.harness import TrainConfig, latent_imap
from flipmatch.harness.loops import _Trainer
from flipmatch.losses import (
    LOGQ_FLOOR,
    FlowHead,
    LogZEstimate,
    _surrogate_pairs,
    db_trajectory_loss,
    delta_loss,
    delta_loss_batch,
    delta_loss_stochastic_grad,
    subtb_loss_batch,
    tb_loss_batch,
)
from flipmatch.nn import MaeConfig, MaeParams, tape
from flipmatch.sampler import AmortizedSampler, Policy

from oracles import (
    DenseSampler,
    ExactFlow,
    OrderViolation,
    TabularSampler,
    _children,
    _flip_term_rows,
    _prefix_rows,
    all_states,
    correction_rows,
    db_loss,
    dense_db_trajectory_loss,
    dense_rows_in,
    dense_subtb_loss_batch,
    factors_touching,
    fit_sampler_exactly,
    fl_flow,
    imap_parent_rows,
    log_flow_rows,
    log_prob,
    no_merging,
    pair_subtb_loss_batch,
    partial_reward,
    per_flip_delta_loss_stochastic_grad,
    per_flip_step_loss,
    per_flip_trainer_step,
    per_u_delta_loss_batch,
    subtb_loss,
    tb_loss,
    tv_distance,
)


def exact_setup(num_vars: int = 5, sigma: float = 0.7, seed: int = 3, imap_seed: int = 1):
    g = cycle_graph(num_vars)
    m = random_ising(g, sigma=sigma, seed=seed)
    imap = sample_imap(g, seed=imap_seed)
    table = enumerate_exact(m)
    return m, imap, table


def flat_model(num_vars: int) -> IsingModel:
    """phi identically 1: every state has log reward 0."""
    return IsingModel(np.zeros((num_vars, num_vars)), np.zeros(num_vars), sigma=1.0)


def one_var_model() -> IsingModel:
    """Single spin with log R(x) = x."""
    return IsingModel(np.zeros((1, 1)), np.array([1.0]), sigma=1.0)


def fresh_sampler(num_vars: int, width: int = 12, seed: int = 0, **kw) -> AmortizedSampler:
    cfg = MaeConfig(
        num_vars=num_vars, width=width, blocks=2, activation="elu", init_seed=seed, **kw
    )
    return AmortizedSampler(MaeParams(cfg))


def randomized_sampler(
    num_vars: int, width: int = 12, seed: int = 0, scale: float = 0.3, **kw
) -> AmortizedSampler:
    s = fresh_sampler(num_vars, width=width, seed=seed, **kw)
    rng = np.random.default_rng(seed + 1000)
    flat = s.params.pack()
    s.params.unpack(flat + rng.normal(0, scale, flat.shape))
    return s


def random_flips(table, n: int, seed: int = 0):
    """(X, us, new_vals) drawn from the target with a uniform flip variable."""
    rng = np.random.default_rng(seed)
    X = table.sample_matrix(n, seed=rng).astype(np.float64)
    us = rng.integers(0, table.num_vars, size=n)
    new_vals = -X[np.arange(n), us]
    return X, us, new_vals


def collect_grads(params, loss) -> list[np.ndarray]:
    for p in params:
        p.grad = None
    tape.backward(loss)
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


def assert_grad_matches_fd(make_loss, params, h: float = 1e-5, tol: float = 1e-5, top: int = 5):
    """Finite-difference check on the largest-gradient coordinates of each param."""
    grads = collect_grads(params, make_loss())
    checked = 0
    for p, g in zip(params, grads):
        flat, gf = p.data.reshape(-1), g.reshape(-1)
        for k in np.argsort(-np.abs(gf))[:top]:
            if abs(gf[k]) <= 1e-4:
                continue
            old = flat[k]
            flat[k] = old + h
            up = float(make_loss().data)
            flat[k] = old - h
            down = float(make_loss().data)
            flat[k] = old
            num = (up - down) / (2 * h)
            assert abs(num - gf[k]) / max(abs(gf[k]), abs(num)) < tol
            checked += 1
    assert checked >= 3


class TestDeltaLoss:
    def test_exact_conditionals_zero_for_every_flip(self):
        m, imap, table = exact_setup()
        s = TabularSampler.from_exact_table(table, imap)
        for x in all_states(table.num_vars):
            for u in range(table.num_vars):
                val = delta_loss(s, imap, m, x, u, int(-x[u]))
                assert float(val.data) < 1e-12

    @pytest.mark.parametrize("hidden", [(1,), (0, 2), (1, 2, 3), (0, 1, 2, 3)])
    def test_exact_posterior_zero_for_every_latent_flip(self, hidden):
        # the latent map's conditionals of p are p(h | o): a latent flip moves
        # log q by what it moves log p
        m, _, table = exact_setup()
        imap = latent_imap(m, hidden, seed=2)
        s = TabularSampler.from_exact_table(table, imap)
        for x in all_states(table.num_vars):
            for u in hidden:
                assert float(delta_loss(s, imap, m, x, u, int(-x[u])).data) < 1e-12

    @pytest.mark.parametrize("hidden", [(3,), (0, 2, 4)])
    def test_fitted_network_on_a_latent_map_zero(self, hidden):
        m, _, table = exact_setup()
        imap = latent_imap(m, hidden, seed=3)
        mae = MaeParams(MaeConfig(num_vars=5, width=64, blocks=2, activation="elu", init_seed=4))
        assert fit_sampler_exactly(mae, [imap], table) < 1e-8
        s = AmortizedSampler(mae)
        X, _, _ = random_flips(table, 64, seed=5)
        us = np.random.default_rng(6).choice(hidden, size=64)
        new_vals = -X[np.arange(64), us]
        assert float(delta_loss_batch(s, imap, m, X, us, new_vals).data) < 1e-12

    def test_fitted_network_zero(self):
        m, imap, table = exact_setup()
        mae = MaeParams(MaeConfig(num_vars=5, width=64, blocks=2, activation="elu", init_seed=4))
        assert fit_sampler_exactly(mae, [imap], table) < 1e-8
        s = AmortizedSampler(mae)
        X, us, new_vals = random_flips(table, 64, seed=5)
        assert float(delta_loss_batch(s, imap, m, X, us, new_vals).data) < 1e-12

    def test_one_variable_uniform_hand_value(self):
        # log R(x) = x, q uniform: residual (1 - (-1)) - (log .5 - log .5) = 2
        m = one_var_model()
        imap = sample_imap(chain_graph(1), seed=0)
        s = fresh_sampler(1)
        val = delta_loss(s, imap, m, np.array([1], dtype=np.int8), 0, -1)
        assert_allclose(float(val.data), 4.0, atol=1e-12)

    def test_plain_sequence_row_matches_the_array_row(self):
        m, imap, _ = exact_setup()
        s = randomized_sampler(5, seed=2)
        x = np.array([1, -1, -1, 1, 1], dtype=np.int8)
        for u in range(5):
            want = delta_loss_batch(s, imap, m, x[None, :], [u], [-x[u]])
            got = delta_loss(s, imap, m, x.tolist(), u, int(-x[u]))
            assert float(got.data) == float(want.data)

    def test_term_structure_counts(self):
        m, imap, _ = exact_setup()
        n = 7
        rng = np.random.default_rng(0)
        X = rng.choice([-1.0, 1.0], size=(n, 5))
        for u in range(5):
            values, cols, vs, signs, coeffs, seg = _flip_term_rows(imap, X, u, -X[:, u])
            # one conditional ratio for u and one per child, two rows each
            assert values.shape[0] == 2 * (1 + len(imap.children[u])) * n
            assert coeffs.sum() == 0.0  # paired +1/-1
            assert set(vs) == {u, *imap.children[u]}
        # the reward side touches exactly the factors containing u: on a cycle
        # that is two couplings plus the bias
        assert all(len(factors_touching(m, u)) == 3 for u in range(5))

    def test_same_value_raises(self):
        m, imap, _ = exact_setup()
        s = fresh_sampler(5)
        x = np.ones(5, dtype=np.int8)
        with pytest.raises(SameValue):
            delta_loss(s, imap, m, x, 2, 1)

    def test_missing_blanket_raises(self):
        m, imap, _ = exact_setup()
        s = fresh_sampler(5)
        u = imap.topo_order[0]
        x = np.zeros(5, dtype=np.int8)
        x[u] = 1  # blanket left empty
        with pytest.raises(MissingBlanket):
            delta_loss(s, imap, m, x, int(u), int(-x[u]))

    def test_batch_reports_the_first_bad_flip(self):
        m, imap, _ = exact_setup()
        s = fresh_sampler(5)
        X = np.ones((3, 5))
        us = np.array([0, 1, 2])
        new_vals = np.array([-1.0, -1.0, 1.0])  # row 2 flips to its own value
        p = imap.parents[1] or imap.children[1]
        X[1, p[0]] = 0.0  # row 1 misses a blanket variable
        with pytest.raises(MissingBlanket, match=rf"flip at 1 needs .*missing \[{p[0]}\]"):
            delta_loss_batch(s, imap, m, X, us, new_vals)
        with pytest.raises(SameValue, match="flip at 2"):
            delta_loss_batch(s, imap, m, X[::-1], us[::-1], new_vals[::-1])

    def test_fresh_sub_maps_build_no_dict_views(self):
        g = grid_graph(4, 4)
        m = random_ising(g, sigma=0.5, seed=2)
        subs = {u: sub_imap(g, u, seed=u) for u in range(16)}
        s = randomized_sampler(16, seed=3)
        X = np.random.default_rng(4).choice([-1.0, 1.0], size=(16, 16))
        us = np.arange(16)
        loss = delta_loss_batch(s, subs, m, X, us, -X[us, us])
        tape.backward(loss)
        for sub in subs.values():
            assert not {"parents", "children", "blanket"} & set(vars(sub))

    def test_partial_outside_blanket_allowed(self):
        g = grid_graph(3, 3)
        m = random_ising(g, sigma=0.5, seed=1)
        imap = sample_imap(g, seed=0)
        s = randomized_sampler(9, seed=2)
        u = 0
        needed = {u, *imap.blanket[u]}
        rng = np.random.default_rng(3)
        x = rng.choice([-1, 1], size=9).astype(np.int8)
        x_partial = x.copy()
        for w in range(9):
            if w not in needed:
                x_partial[w] = 0
        full = delta_loss(s, imap, m, x, u, int(-x[u]))
        part = delta_loss(s, imap, m, x_partial, u, int(-x[u]))
        assert float(full.data) == float(part.data)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_locality_outside_neighborhood(self, seed):
        g = grid_graph(3, 3)
        m = random_ising(g, sigma=0.5, seed=1)
        imap = sample_imap(g, seed=0)
        s = randomized_sampler(9, seed=2)
        u = 0
        near = {u, *imap.blanket[u]}
        far = [w for w in range(9) if w not in near]
        assert far  # a corner never neighbors the whole grid
        rng = np.random.default_rng(seed)
        x = rng.choice([-1, 1], size=9).astype(np.int8)
        base = float(delta_loss(s, imap, m, x, u, int(-x[u])).data)
        y = x.copy()
        y[far] = rng.choice([-1, 0, 1], size=len(far))
        assert float(delta_loss(s, imap, m, y, u, int(-y[u])).data) == base

    def test_batch_is_mean_of_singles(self):
        m, imap, table = exact_setup()
        s = randomized_sampler(5, seed=7)
        X, us, new_vals = random_flips(table, 6, seed=11)
        batch = float(delta_loss_batch(s, imap, m, X, us, new_vals).data)
        singles = [
            float(delta_loss(s, imap, m, X[k].astype(np.int8), int(us[k]), int(new_vals[k])).data)
            for k in range(6)
        ]
        assert_allclose(batch, np.mean(singles), rtol=1e-12)

    def test_per_variable_imap_mapping(self):
        g = grid_graph(3, 3)
        m = random_ising(g, sigma=0.4, seed=5)
        s = randomized_sampler(9, seed=8)
        locals_ = {u: sub_imap(g, u, seed=u) for u in range(9)}
        rng = np.random.default_rng(1)
        X = rng.choice([-1.0, 1.0], size=(10, 9))
        us = rng.integers(0, 9, size=10)
        new_vals = -X[np.arange(10), us]
        batch = float(delta_loss_batch(s, locals_, m, X, us, new_vals).data)
        singles = [
            float(delta_loss(s, locals_[int(us[k])], m, X[k].astype(np.int8), int(us[k]), int(new_vals[k])).data)
            for k in range(10)
        ]
        assert_allclose(batch, np.mean(singles), rtol=1e-12)

    def test_empty_and_misaligned_batches(self):
        m, imap, _ = exact_setup()
        s = fresh_sampler(5)
        with pytest.raises(EmptyBatch):
            delta_loss_batch(s, imap, m, np.zeros((0, 5)), [], [])
        with pytest.raises(ConfigError):
            delta_loss_batch(s, imap, m, np.ones((2, 5)), [0], [-1, -1])

    def test_given_values_flow_through(self):
        m, _, table = exact_setup()
        imap = _elimination_imap(m.graph, 0b01110, seed=0)  # 1, 2 and 3 given 0 and 4
        assert imap.given.tolist() == [0, 4]
        s = randomized_sampler(5, seed=3)
        X, _, _ = random_flips(table, 4, seed=2)
        us = np.array([1, 2, 3, 2])
        new_vals = -X[np.arange(4), us]
        batch = float(delta_loss_batch(s, imap, m, X, us, new_vals).data)
        singles = [
            float(delta_loss(s, imap, m, X[k].astype(np.int8), int(us[k]), int(new_vals[k])).data)
            for k in range(4)
        ]
        assert_allclose(batch, np.mean(singles), rtol=1e-12)
        X[:, [0, 4]] *= -1
        flipped = float(delta_loss_batch(s, imap, m, X, us, new_vals).data)
        assert flipped != batch

    def test_training_tabular_to_zero_recovers_target(self):
        # the converse direction: drive every flip residual to zero and the
        # sampler's joint must be the target distribution
        g = cycle_graph(4)
        m = random_ising(g, sigma=0.6, seed=9)
        imap = sample_imap(g, seed=2)
        table = enumerate_exact(m)
        states = all_states(4).astype(np.float64)

        sizes = {v: 1 << len(imap.parents[v]) for v in imap.vertices}
        offsets, off = {}, 0
        for v in sorted(imap.vertices):
            offsets[v] = off
            off += sizes[v]

        def make_sampler(theta):
            tables = {
                v: 1.0 / (1.0 + np.exp(-theta[offsets[v] : offsets[v] + sizes[v]]))
                for v in imap.vertices
            }
            return TabularSampler(imap, tables)

        Xs = np.repeat(states, 4, axis=0)
        us = np.tile(np.arange(4), len(states))
        new_vals = -Xs[np.arange(len(Xs)), us]
        deltas = m.delta_log_reward_batch(Xs.astype(np.int8), us, new_vals.astype(np.int8))

        def residuals(theta):
            s = make_sampler(theta)
            out = np.empty(len(Xs))
            for k in range(len(Xs)):
                x, u, nv = Xs[k], int(us[k]), new_vals[k]
                xn = x.copy()
                xn[u] = nv
                row = imap_parent_rows(imap, x[None, :], [u])
                ratio = float(
                    s.logq_rows(row, [u], [x[u]]).data[0] - s.logq_rows(row, [u], [nv]).data[0]
                )
                for c in imap.children[u]:
                    r_old = imap_parent_rows(imap, x[None, :], [c])
                    r_new = imap_parent_rows(imap, xn[None, :], [c])
                    ratio += float(
                        s.logq_rows(r_old, [c], [x[c]]).data[0]
                        - s.logq_rows(r_new, [c], [x[c]]).data[0]
                    )
                out[k] = deltas[k] - ratio
            return out

        theta, h = np.zeros(off), 1e-6
        for _ in range(15):  # Gauss-Newton on the residual vector
            r = residuals(theta)
            if np.max(np.abs(r)) < 1e-8:
                break
            J = np.empty((len(r), off))
            for k in range(off):
                e = np.zeros(off)
                e[k] = h
                J[:, k] = (residuals(theta + e) - residuals(theta - e)) / (2 * h)
            theta -= np.linalg.lstsq(J, r, rcond=None)[0]

        assert np.max(residuals(theta) ** 2) < 1e-12
        q = np.exp(make_sampler(theta).log_prob_batch(imap, states))
        assert tv_distance(table, q) < 1e-6

    def test_near_deterministic_conditional_is_floored(self):
        # a conditional probability of 1e-300 enters the residual as the
        # floor, not as -inf
        m = flat_model(1)
        imap = sample_imap(chain_graph(1), seed=0)
        s = TabularSampler(imap, {0: np.array([1e-300])})
        lz = LogZEstimate(0.0)
        val = tb_loss(s, imap, m, np.array([1], dtype=np.int8), lz)
        assert_allclose(float(val.data), LOGQ_FLOOR**2, rtol=1e-12)


class TestCompactMatchesDense:
    """Every taped loss on compact parent rows against |V|-wide rows.

    The dense side builds its rows with ``oracles.dense_parent_rows`` and hands
    them to the network as one block that lists every column
    (``oracles.DenseSampler``), on the same parameters.  Values and every
    parameter gradient agree within 1e-12.
    """

    def build(self, activation):
        g = grid_graph(3, 3)
        cfg = MaeConfig(
            num_vars=9, width=12, blocks=2, activation=activation, flow_head=True, init_seed=5
        )
        s = AmortizedSampler(MaeParams(cfg))
        rng = np.random.default_rng(6)
        s.params.unpack(s.params.pack() + rng.normal(0, 0.4, cfg.param_count))
        X = rng.choice([-1.0, 1.0], size=(12, 9))
        return g, random_ising(g, sigma=0.5, seed=7), sample_imap(g, seed=8), s, X

    def check(self, monkeypatch, s, make_loss, extra=()):
        params = [*s.params.params, *extra]
        loss = make_loss(s)
        got = float(loss.data), collect_grads(params, loss)
        with monkeypatch.context() as mp:
            dense_rows_in(mp)
            loss = make_loss(DenseSampler(s.params))
            want = float(loss.data), collect_grads(params, loss)
        assert abs(got[0] - want[0]) <= 1e-12
        assert max(np.abs(g).max(initial=0.0) for g in got[1]) > 1e-3
        for name, g, w in zip(s.params.names + ["extra"] * len(extra), got[1], want[1]):
            assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("maps", ["one-map", "sub-maps", "given"])
    def test_delta_loss_batch(self, monkeypatch, activation, maps):
        g, m, imap, s, X = self.build(activation)
        rng = np.random.default_rng(9)
        us = rng.integers(0, 9, size=len(X))
        if maps == "sub-maps":
            imap = {u: sub_imap(g, u, seed=u) for u in range(9)}
        elif maps == "given":
            # the corners given, the rest drawn
            imap = _elimination_imap(g, _mask_of((1, 3, 4, 5, 7)), seed=3)
            us = rng.choice([1, 3, 4, 5, 7], size=len(X))
        self.check(
            monkeypatch, s, lambda s: delta_loss_batch(s, imap, m, X, us, -X[np.arange(len(X)), us])
        )

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_trajectory_losses(self, monkeypatch, activation):
        g, m, imap, s, X = self.build(activation)
        logz = LogZEstimate(0.3)
        flow = FlowHead(s.params)
        self.check(monkeypatch, s, lambda s: tb_loss_batch(s, imap, m, X, logz), [logz.value])
        self.check(monkeypatch, s, lambda s: db_trajectory_loss(s, imap, m, X, flow))
        self.check(monkeypatch, s, lambda s: subtb_loss_batch(s, imap, m, X, flow, 0.9))

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_stochastic_grad(self, monkeypatch, activation):
        g, m, imap, s, X = self.build(activation)
        u = max(range(9), key=lambda v: len(imap.children[v]))
        assert len(imap.children[u]) >= 2
        x = X[0].astype(np.int8)
        self.check(
            monkeypatch,
            s,
            lambda s: delta_loss_stochastic_grad(s, imap, m, x, u, int(-x[u]), j=0, i=1),
        )


class TestTermTableMatchesPerU:
    """The flip terms of every u come from one merged parent table; loss,
    gradients and errors stay bit for bit those of the per-u loop."""

    def build(self, activation):
        g = grid_graph(4, 4)
        cfg = MaeConfig(num_vars=16, width=12, blocks=2, activation=activation, init_seed=3)
        s = AmortizedSampler(MaeParams(cfg))
        rng = np.random.default_rng(4)
        s.params.unpack(s.params.pack() + rng.normal(0, 0.4, cfg.param_count))
        return g, random_ising(g, sigma=0.5, seed=5), s

    def same(self, s, make_loss):
        got = make_loss(delta_loss_batch)
        got = float(got.data), collect_grads(s.params.params, got)
        want = make_loss(per_u_delta_loss_batch)
        want = float(want.data), collect_grads(s.params.params, want)
        assert got[0] == want[0]
        assert max(np.abs(g).max() for g in got[1]) > 1e-3
        for name, g, w in zip(s.params.names, got[1], want[1]):
            assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("given", [False, True], ids=["full", "given"])
    def test_full_map(self, activation, given):
        g, m, s = self.build(activation)
        hidden = list(range(0, 16, 3))
        imap = _elimination_imap(g, _mask_of(hidden), seed=2) if given else sample_imap(g, seed=2)
        rng = np.random.default_rng(6)
        X = rng.choice([-1.0, 1.0], size=(40, 16))
        us = rng.choice(hidden, size=40) if given else rng.integers(0, 16, size=40)
        flips = -X[np.arange(40), us]
        self.same(s, lambda loss: loss(s, imap, m, X, us, flips))

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_sub_maps(self, activation, k):
        g, m, s = self.build(activation)
        subs = {u: sub_imap(g, u, seed=u) for u in range(16)}
        X = s.partial_sample_batch([subs[u] for u in range(16)], Policy.on_policy(), k, seed=7)
        us = np.repeat(np.arange(16), k)
        # the batch in a shuffled order: rows of one u are not side by side
        at = np.random.default_rng(8).permutation(len(us))
        X, us = X[at], us[at]
        flips = -X[np.arange(len(us)), us]
        self.same(s, lambda loss: loss(s, subs, m, X, us, flips))

    def test_first_bad_flip_errors_unchanged(self):
        g, m, s = self.build("relu")
        imap = sample_imap(g, seed=2)
        subs = {u: sub_imap(g, u, seed=u) for u in range(16)}
        rng = np.random.default_rng(9)
        X = rng.choice([-1.0, 1.0], size=(6, 16))
        us = np.array([5, 3, 5, 0, 9, 3])
        flips = -X[np.arange(6), us]
        cases = ([(4, "same")], [(2, "blanket")], [(1, "far")], [(0, "same"), (0, "blanket")],
                 [(4, "same"), (2, "blanket")])
        seen = set()
        swapped = {**subs, 3: subs[9]}  # subs[9] does not cover 3
        lacking_9 = {u: sub for u, sub in swapped.items() if u != 9}
        lacking_0 = {u: sub for u, sub in swapped.items() if u != 0}
        for imaps in (imap, subs, swapped, lacking_9, lacking_0):
            for case in cases:
                Xb, fb = X.copy(), flips.copy()
                for row, how in case:
                    u = int(us[row])
                    if how == "same":
                        fb[row] = Xb[row, u]
                    elif how == "blanket":
                        Xb[row, imap.blanket[u][0]] = 0.0
                    else:
                        Xb[row, [v for v in range(16) if v not in subs[u].vertices]] = 0.0
                errors = []
                for loss in (delta_loss_batch, per_u_delta_loss_batch):
                    try:
                        loss(s, imaps, m, Xb, us, fb)
                        errors.append(None)
                    except (SameValue, MissingBlanket, KeyError) as e:
                        errors.append((type(e), str(e)))
                assert errors[0] == errors[1]
                seen.add(errors[0] and errors[0][0])
        assert seen == {None, SameValue, MissingBlanket, KeyError}
        # a flip variable outside the universe is covered by no map
        for u in (-1, 16):
            errors = []
            for loss in (delta_loss_batch, per_u_delta_loss_batch):
                with pytest.raises(KeyError) as e:
                    loss(s, imap, m, X, np.r_[us[:-1], u], flips)
                errors.append(str(e.value))
            assert errors[0] == errors[1]


class TestDistinctRows:
    """Losses on the 16-spin ladder whose batches repeat most conditionals.

    The network hands repeated rows one pass through its blocks; the
    reference, ``oracles.DenseSampler`` on |V|-wide rows with every row
    evaluated, must agree on the value and every gradient within 1e-12.
    """

    def build(self, activation):
        g = ladder_graph(8)
        cfg = MaeConfig(num_vars=16, width=12, blocks=2, activation=activation, init_seed=5)
        s = AmortizedSampler(MaeParams(cfg))
        rng = np.random.default_rng(16)
        s.params.unpack(s.params.pack() + rng.normal(0, 0.4, cfg.param_count))
        # 48 rows drawn from 5 states
        X = rng.choice([-1.0, 1.0], size=(5, 16))[rng.integers(0, 5, size=48)]
        return random_ising(g, sigma=0.5, seed=17), sample_imap(g, seed=18), s, X

    def check(self, monkeypatch, s, make_loss, extra=()):
        asked, passed = [], []
        distinct_rows = MaeParams._distinct_rows

        def counted(self, packed, vs):
            out = distinct_rows(self, packed, vs)
            asked.append(len(vs))
            passed.append(len(vs) if out is None else len(out[0]))
            return out

        params = [*s.params.params, *extra]
        with monkeypatch.context() as mp:
            mp.setattr(MaeParams, "_distinct_rows", counted)
            loss = make_loss(s)
        got = float(loss.data), collect_grads(params, loss)
        assert 4 * sum(passed) < sum(asked)
        with monkeypatch.context() as mp:
            dense_rows_in(mp)
            no_merging(mp)
            loss = make_loss(DenseSampler(s.params))
            want = float(loss.data), collect_grads(params, loss)
        assert abs(got[0] - want[0]) <= 1e-12
        assert max(np.abs(g).max(initial=0.0) for g in got[1]) > 1e-3
        for name, g, w in zip(s.params.names + ["extra"] * len(extra), got[1], want[1]):
            assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_delta_loss_batch(self, monkeypatch, activation):
        m, imap, s, X = self.build(activation)
        us = np.random.default_rng(19).integers(0, 3, size=len(X))
        flips = -X[np.arange(len(X)), us]
        self.check(monkeypatch, s, lambda s: delta_loss_batch(s, imap, m, X, us, flips))

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_tb_loss_batch(self, monkeypatch, activation):
        m, imap, s, X = self.build(activation)
        logz = LogZEstimate(0.3)
        self.check(monkeypatch, s, lambda s: tb_loss_batch(s, imap, m, X, logz), [logz.value])


class TestStochasticGrad:
    """The surrogate's value is not the loss; only its gradient is meaningful,
    and averaged over all index choices it must equal the full gradient."""

    def setup_method(self):
        g = cycle_graph(6)
        self.m = random_ising(g, sigma=0.7, seed=3)
        self.imap = sample_imap(g, seed=1)
        counts = {u: len(self.imap.children[u]) for u in range(6)}
        self.u = max(counts, key=counts.get)
        self.n = counts[self.u]
        assert self.n >= 2
        self.s = randomized_sampler(6, seed=7)
        rng = np.random.default_rng(4)
        self.x = rng.choice([-1, 1], size=6).astype(np.int8)

    def test_pair_enumeration_matches_full_gradient(self):
        params = self.s.params.params
        full = collect_grads(
            params, delta_loss(self.s, self.imap, self.m, self.x, self.u, int(-self.x[self.u]))
        )
        acc = [np.zeros_like(p.data) for p in params]
        count = 0
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                gs = collect_grads(
                    params,
                    delta_loss_stochastic_grad(
                        self.s, self.imap, self.m, self.x, self.u, int(-self.x[self.u]), j=j, i=i
                    ),
                )
                for k, g in enumerate(gs):
                    acc[k] += g
                count += 1
        for mean, f in zip((a / count for a in acc), full):
            assert np.max(np.abs(mean - f)) < 1e-10

    def test_single_draws_vary(self):
        params = self.s.params.params
        per_pair = []
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                gs = collect_grads(
                    params,
                    delta_loss_stochastic_grad(
                        self.s, self.imap, self.m, self.x, self.u, int(-self.x[self.u]), j=j, i=i
                    ),
                )
                per_pair.append(np.concatenate([g.reshape(-1) for g in gs]))
        spread = np.var(np.stack(per_pair), axis=0)
        assert spread.max() > 1e-8

    def test_zero_residual_means_zero_gradient(self):
        # flat reward and a fresh (uniform) sampler: every partial residual is 0
        m = flat_model(6)
        s = fresh_sampler(6)
        x = np.ones(6, dtype=np.int8)
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                gs = collect_grads(
                    s.params.params,
                    delta_loss_stochastic_grad(s, self.imap, m, x, self.u, -1, j=j, i=i),
                )
                assert max(np.abs(g).max() for g in gs) == 0.0

    def test_too_few_children(self):
        leaf = self.imap.topo_order[-1]
        assert len(self.imap.children[leaf]) == 0
        with pytest.raises(TooFewChildren):
            delta_loss_stochastic_grad(
                self.s, self.imap, self.m, self.x, int(leaf), int(-self.x[leaf])
            )

    def test_index_validation(self):
        args = (self.s, self.imap, self.m, self.x, self.u, int(-self.x[self.u]))
        with pytest.raises(ConfigError):
            delta_loss_stochastic_grad(*args, j=0, i=0)
        with pytest.raises(ConfigError):
            delta_loss_stochastic_grad(*args, j=self.n, i=0)

    def test_seed_draws_indices(self):
        args = (self.s, self.imap, self.m, self.x, self.u, int(-self.x[self.u]))
        a = float(delta_loss_stochastic_grad(*args, seed=5).data)
        b = float(delta_loss_stochastic_grad(*args, seed=5).data)
        assert a == b
        values = {round(float(delta_loss_stochastic_grad(*args, seed=k).data), 12) for k in range(20)}
        assert len(values) > 1


class TestSurrogateRowsMatchPerFlip:
    """The single-child surrogate as rows of the step's one term table
    (``pairs`` in ``delta_loss_batch``) against the per-flip loop it replaces
    (``oracles.per_flip_step_loss``): the same (i, j) draws, one taped
    network call with six rows per surrogate flip, and the value and every
    gradient within 1e-12, on a full map and on sub-maps."""

    ABOVE = 3  # splits the 4x4 lattice's flips into exact and surrogate ones

    def build(self, activation, local):
        g = grid_graph(4, 4)
        cfg = MaeConfig(num_vars=16, width=12, blocks=2, activation=activation, init_seed=3)
        s = AmortizedSampler(MaeParams(cfg))
        rng = np.random.default_rng(4)
        s.params.unpack(s.params.pack() + rng.normal(0, 0.4, cfg.param_count))
        m = random_ising(g, sigma=0.5, seed=5)
        if local:
            imap = {u: sub_imap(g, u, seed=u) for u in range(16)}
            X = s.partial_sample_batch([imap[u] for u in range(16)], Policy.on_policy(), 3, seed=7)
            us = np.repeat(np.arange(16), 3)
            at = rng.permutation(len(us))
            X, us = X[at], us[at]
        else:
            imap = sample_imap(g, seed=2)
            X = rng.choice([-1.0, 1.0], size=(40, 16))
            us = rng.integers(0, 16, size=40)
        pairs = _surrogate_pairs(imap, us, self.ABOVE, np.random.default_rng(11))
        heavy = pairs[:, 0] >= 0
        assert heavy.any() and not heavy.all()
        return s, m, imap, X, us, -X[np.arange(len(us)), us], pairs

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("local", [False, True], ids=["one-map", "sub-maps"])
    def test_value_and_gradients(self, activation, local):
        s, m, imap, X, us, flips, pairs = self.build(activation, local)
        got = delta_loss_batch(s, imap, m, X, us, flips, pairs=pairs)
        got = float(got.data), collect_grads(s.params.params, got)
        want = per_flip_step_loss(s, imap, m, X, us, flips, self.ABOVE, np.random.default_rng(11))
        want = float(want.data), collect_grads(s.params.params, want)
        assert abs(got[0] - want[0]) <= 1e-12
        assert max(np.abs(g).max() for g in got[1]) > 1e-3
        for name, g, w in zip(s.params.names, got[1], want[1]):
            assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("local", [False, True], ids=["one-map", "sub-maps"])
    def test_same_draws(self, local):
        s, m, imap, X, us, flips, pairs = self.build("relu", local)
        seeds = np.random.default_rng(11)
        for k in np.flatnonzero(pairs[:, 0] >= 0):
            u = int(us[k])
            sub = imap[u] if local else imap
            args = (s, sub, m, X[k].astype(np.int8), u, int(flips[k]))
            seed = int(seeds.integers(2**31))
            drawn = float(per_flip_delta_loss_stochastic_grad(*args, seed=seed).data)
            n = len(_children(sub, u))
            by_pair = {
                (i, j): float(per_flip_delta_loss_stochastic_grad(*args, i=i, j=j).data)
                for i in range(n)
                for j in range(n)
                if i != j
            }
            # every pair gives its own value, so the value names the draw
            assert len(set(by_pair.values())) == len(by_pair)
            assert by_pair[tuple(pairs[k].tolist())] == drawn
            assert abs(float(delta_loss_stochastic_grad(*args, seed=seed).data) - drawn) <= 1e-12

    @pytest.mark.parametrize("local", [False, True], ids=["one-map", "sub-maps"])
    def test_one_network_call_per_step(self, monkeypatch, local):
        g = grid_graph(4, 4)
        m = random_ising(g, sigma=0.5, seed=5)
        s = AmortizedSampler(MaeParams(MaeConfig(num_vars=16, width=12, blocks=2, init_seed=3)))
        cfg = TrainConfig(
            batch_size=32, width=12, seed=2, stochastic_children_above=self.ABOVE,
            sub_dags_per_var=2 if local else 0,
        )
        trainer = _Trainer(cfg, m, s)
        calls, seen = [], []
        masked_logits = MaeParams.masked_logits
        loss_batch = delta_loss_batch

        def counted(self, x, vs, cols=None):
            calls.append(len(vs))
            return masked_logits(self, x, vs, cols)

        def recorded(s, imap, m, X, us, new_vals, pairs=None):
            seen.append((imap, us, pairs))
            return loss_batch(s, imap, m, X, us, new_vals, pairs=pairs)

        monkeypatch.setattr(MaeParams, "masked_logits", counted)
        monkeypatch.setattr("flipmatch.harness.loops.delta_loss_batch", recorded)
        for _ in range(3):
            trainer.step()
        assert len(calls) == len(seen) == 3
        for rows, (imap, us, pairs) in zip(calls, seen):
            heavy = pairs[:, 0] >= 0
            assert heavy.any()
            maps = [imap[u] if local else imap for u in us.tolist()]
            n = np.array([len(_children(sub, u)) for sub, u in zip(maps, us.tolist())])
            assert rows == np.where(heavy, 6, 2 + 2 * n).sum()

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("local", [False, True], ids=["one-map", "sub-maps"])
    def test_trainer_matches_per_flip_loop(self, activation, local):
        m = random_ising(grid_graph(4, 4), sigma=0.5, seed=5)
        cfg = TrainConfig(
            batch_size=24, lr=1e-2, width=12, activation=activation, seed=3,
            stochastic_children_above=self.ABOVE, sub_dags_per_var=2 if local else 0,
        )

        def run(step):
            mae = MaeParams(MaeConfig(num_vars=16, width=12, blocks=2, activation=activation))
            trainer = _Trainer(cfg, m, AmortizedSampler(mae))
            return [step(trainer) for _ in range(5)], mae.pack()

        (got, got_w), (want, want_w) = run(_Trainer.step), run(per_flip_trainer_step)
        assert [n for _, n in got] == [n for _, n in want]
        assert_allclose([v for v, _ in got], [v for v, _ in want], rtol=1e-12, atol=0)
        assert_allclose(got_w, want_w, rtol=0, atol=1e-12)


class TestTbLoss:
    def test_exact_conditionals_and_logz(self):
        m, imap, table = exact_setup()
        s = TabularSampler.from_exact_table(table, imap)
        lz = LogZEstimate(table.log_z)
        X = table.sample_matrix(32, seed=0)
        assert float(tb_loss_batch(s, imap, m, X, lz).data) < 1e-10

    def test_uniform_sampler_flat_model(self):
        m = flat_model(3)
        imap = sample_imap(chain_graph(3), seed=0)
        s = fresh_sampler(3)
        lz = LogZEstimate(3 * np.log(2.0))
        val = tb_loss(s, imap, m, np.array([1, -1, 1], dtype=np.int8), lz)
        assert float(val.data) < 1e-28

    def test_two_var_hand_value(self):
        m = flat_model(2)
        imap = sample_imap(chain_graph(2), seed=0)
        s = fresh_sampler(2)
        lz = LogZEstimate(0.0)
        val = float(tb_loss(s, imap, m, np.array([1, 1], dtype=np.int8), lz).data)
        assert_allclose(val, (2 * np.log(2.0)) ** 2, rtol=1e-12)
        assert round(val, 4) == 1.9218

    def test_partial_sample_rejected(self):
        m, imap, _ = exact_setup()
        s = fresh_sampler(5)
        x = np.ones(5, dtype=np.int8)
        x[2] = 0
        with pytest.raises(PartialAssignment):
            tb_loss(s, imap, m, x, LogZEstimate())
        with pytest.raises(EmptyBatch):
            tb_loss_batch(s, imap, m, np.zeros((0, 5)), LogZEstimate())

    def test_logz_estimate(self):
        lz = LogZEstimate(1.5)
        assert lz.item() == 1.5
        assert lz.value.requires_grad
        with pytest.raises(ConfigError):
            LogZEstimate(np.inf)


def prefix_after(imap, x, k: int) -> np.ndarray:
    """x masked to the first k topo-order variables."""
    out = np.zeros(len(x))
    for v in imap.topo_order[:k]:
        out[v] = x[v]
    return out


class TestDbLoss:
    def test_one_variable_exact(self):
        m = one_var_model()
        imap = sample_imap(chain_graph(1), seed=0)
        table = enumerate_exact(m)
        s = TabularSampler.from_exact_table(table, imap)
        flow = ExactFlow(table)  # F(empty) = Z
        for sign in (1, -1):
            val = db_loss(s, imap, m, np.array([sign], dtype=np.int8), 0, flow)
            assert float(val.data) < 1e-12

    def test_true_flows_zero_every_step(self):
        g = chain_graph(5)
        m = random_ising(g, sigma=0.8, seed=2)
        imap = sample_imap(g, seed=3)
        table = enumerate_exact(m)
        s = TabularSampler.from_exact_table(table, imap)
        flow = ExactFlow(table)
        X = table.sample_matrix(8, seed=1)
        for x in X:
            for k, v in enumerate(imap.topo_order):
                step = prefix_after(imap, x, k + 1)
                assert float(db_loss(s, imap, m, step, int(v), flow).data) < 1e-12
        assert float(db_trajectory_loss(s, imap, m, X, flow).data) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_step_residuals_telescope_to_tb(self, seed):
        # sum of unsquared per-step residuals = log F(empty) + log q - log R,
        # for any flow correction and any sampler
        m, imap, table = exact_setup()
        s = randomized_sampler(5, seed=seed % 100, flow_head=True)
        flow = FlowHead(s.params, forward_looking=True)
        x = table.sample_matrix(1, seed=seed)[0]
        flows = log_flow_rows(flow, m, np.stack([prefix_after(imap, x, k) for k in range(6)])).data
        steps = []
        for k, v in enumerate(imap.topo_order):
            row = imap_parent_rows(imap, x[None, :].astype(np.float64), [v])
            lq = float(s.logq_rows(row, [v], [x[v]]).data[0])
            steps.append(flows[k] + lq - flows[k + 1])
            # and db_loss is exactly this residual, squared
            val = db_loss(s, imap, m, prefix_after(imap, x, k + 1), int(v), flow)
            assert_allclose(float(val.data), steps[-1] ** 2, rtol=1e-9, atol=1e-12)
        logq = float(log_prob(s, imap, x))
        tb_residual = flows[0] + logq - m.log_reward_batch(x[None, :])[0]
        assert_allclose(sum(steps), tb_residual, rtol=1e-9, atol=1e-9)

    def test_order_violations(self):
        m, imap, table = exact_setup()
        s = fresh_sampler(5)
        flow = ExactFlow(table)
        x = table.sample_matrix(1, seed=0)[0]
        v0, v1, v2 = imap.topo_order[:3]
        # skipping a variable
        bad = np.zeros(5)
        bad[v1] = x[v1]
        with pytest.raises(OrderViolation):
            db_loss(s, imap, m, bad, int(v1), flow)
        # next_var not the latest instantiated one
        two = prefix_after(imap, x, 2)
        with pytest.raises(OrderViolation):
            db_loss(s, imap, m, two, int(v0), flow)
        # an extra later variable present
        extra = prefix_after(imap, x, 1)
        extra[v2] = x[v2]
        with pytest.raises(OrderViolation):
            db_loss(s, imap, m, extra, int(v0), flow)
        # a variable the map does not know
        with pytest.raises(OrderViolation):
            db_loss(s, imap, m, prefix_after(imap, x, 1), 99, flow)


class TestSubTb:
    def test_exact_everything_is_zero(self):
        m, imap, table = exact_setup()
        s = TabularSampler.from_exact_table(table, imap)
        flow = ExactFlow(table)
        X = table.sample_matrix(12, seed=0)
        assert float(subtb_loss_batch(s, imap, m, X, flow, 0.9).data) < 1e-12

    def test_single_variable_equals_db_step(self):
        m = one_var_model()
        imap = sample_imap(chain_graph(1), seed=0)
        s = randomized_sampler(1, seed=5, flow_head=True)
        flow = FlowHead(s.params)
        x = np.array([1], dtype=np.int8)
        a = float(subtb_loss(s, imap, m, x, flow, 0.7).data)
        b = float(db_loss(s, imap, m, x, 0, flow).data)
        assert_allclose(a, b, rtol=1e-12)

    def test_matches_explicit_range_sum(self):
        # slow reference: enumerate every (i, j) range from the primitives
        m, imap, table = exact_setup()
        s = randomized_sampler(5, seed=9, flow_head=True)
        flow = FlowHead(s.params, forward_looking=True)
        X = table.sample_matrix(6, seed=4).astype(np.float64)
        num_vars = 5
        for lam in (0.5, 1.0, 1.7):
            expected = 0.0
            for x in X:
                prefixes = np.stack([prefix_after(imap, x, k) for k in range(num_vars + 1)])
                flows = log_flow_rows(flow, m, prefixes).data
                lqs = []
                for v in imap.topo_order:
                    row = imap_parent_rows(imap, x[None, :], [v])
                    lqs.append(
                        max(float(s.logq_rows(row, [v], [x[v]]).data[0]), LOGQ_FLOOR)
                    )
                num, den = 0.0, 0.0
                for i in range(num_vars + 1):
                    for j in range(i + 1, num_vars + 1):
                        r = flows[i] + sum(lqs[i:j]) - flows[j]
                        num += lam ** (j - i) * r**2
                        den += lam ** (j - i)
                expected += num / den
            expected /= len(X)
            got = float(subtb_loss_batch(s, imap, m, X, flow, lam).data)
            assert_allclose(got, expected, rtol=1e-10)

    def test_lambda_to_zero_is_db_mean(self):
        # true flows, imperfect sampler: per-step residuals are real but O(1),
        # so the lambda-weighting correction is O(lambda)
        m, imap, table = exact_setup()
        s = randomized_sampler(5, seed=9, scale=0.15)
        flow = ExactFlow(table)
        X = table.sample_matrix(8, seed=4)
        db = float(db_trajectory_loss(s, imap, m, X, flow).data)
        assert db > 0.01
        tiny = float(subtb_loss_batch(s, imap, m, X, flow, 1e-6).data)
        assert abs(tiny - db) < 1e-6

    def test_lambda_validation(self):
        m, imap, table = exact_setup()
        s = fresh_sampler(5, flow_head=True)
        flow = FlowHead(s.params)
        X = table.sample_matrix(2, seed=0)
        for lam in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigError):
                subtb_loss_batch(s, imap, m, X, flow, lam)

    def test_forward_looking_step_memory(self):
        # 16×16, 32 trajectories, width 64: the loss and its backward keep
        # O(|V|·n) arrays beside the network's own, and the flow head runs
        # in the network's tape node (16.8 MB traced; 28.0 MB with the flow
        # head as a node of its own on (rows, width) trunk rows, 46.7 MB
        # with |V|-wide prefix rows and (|V|+1)² matrices)
        g = grid_graph(16, 16)
        m = random_ising(g, sigma=0.2, seed=0)
        imap = sample_imap(g, seed=1)
        s = fresh_sampler(256, width=64, flow_head=True)
        flow = FlowHead(s.params, forward_looking=True)
        X = np.random.default_rng(2).choice([-1, 1], size=(32, 256)).astype(np.int8)
        tracemalloc.start()
        try:
            tape.backward(subtb_loss_batch(s, imap, m, X, flow, 0.9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21e6


class TestSubTbRangeSums:
    """subTB's running sums along the order against one residual column per
    range (``oracles.pair_subtb_loss_batch``) and finite differences, at λ on
    both sides of 1, and finite where λ^|V| overflows."""

    def test_equals_pair_sum(self):
        m, imap, table = exact_setup()
        s = randomized_sampler(5, seed=9, flow_head=True)
        flow = FlowHead(s.params, forward_looking=True)
        X = table.sample_matrix(7, seed=4)
        params = s.params.params
        for lam in (0.5, 0.9, 1.0, 1.7):
            got = subtb_loss_batch(s, imap, m, X, flow, lam)
            want = pair_subtb_loss_batch(s, imap, m, X, flow, lam)
            assert_allclose(float(got.data), float(want.data), rtol=1e-12)
            for g_got, g_want in zip(collect_grads(params, got), collect_grads(params, want)):
                assert_allclose(g_got, g_want, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("lam", [1e20, 1e300])
    def test_large_lambda_keeps_the_full_range(self, lam):
        # λ^|V| overflows on 16 spins; as λ grows the full range (0, |V|)
        # outweighs every other, and the loss tends to the TB loss with
        # log F(∅) as log Z
        g = ladder_graph(8)
        m = random_ising(g, sigma=0.5, seed=1)
        imap = sample_imap(g, seed=2)
        s = randomized_sampler(16, seed=3, flow_head=True)
        flow = FlowHead(s.params)
        X = np.random.default_rng(4).choice([-1, 1], size=(8, 16)).astype(np.int8)
        got = float(subtb_loss_batch(s, imap, m, X, flow, lam).data)
        log_f0 = flow.log_flows(m, imap, X).data[:8]
        want = np.mean((log_f0 + s.log_prob_batch(imap, X) - m.log_reward_batch(X)) ** 2)
        assert np.isfinite(got)
        assert_allclose(got, want, rtol=1e-12)

    def test_grad_above_one(self):
        m, imap, table = exact_setup()
        s = randomized_sampler(5, seed=7, flow_head=True)
        flow = FlowHead(s.params, forward_looking=True)
        X = np.random.default_rng(1).choice([-1.0, 1.0], size=(4, 5))
        assert_grad_matches_fd(
            lambda: subtb_loss_batch(s, imap, m, X, flow, 1.7), s.params.params
        )


class TestBalanceNeedsFullMap:
    """The balance objectives score whole trajectories: a map that leaves a
    variable out is refused, as ancestral sampling refuses it."""

    @pytest.mark.parametrize("objective", ["tb", "db", "subtb"])
    def test_sub_map_rejected(self, objective):
        g = grid_graph(3, 3)
        m = random_ising(g, sigma=0.5, seed=1)
        s = randomized_sampler(9, seed=2, flow_head=True)
        flow = FlowHead(s.params)
        sub = sub_imap(g, 4, seed=0)
        assert 1 < len(sub.order) < 9
        X = np.random.default_rng(3).choice([-1.0, 1.0], size=(4, 9))
        loss = {
            "tb": lambda imap: tb_loss_batch(s, imap, m, X, LogZEstimate()),
            "db": lambda imap: db_trajectory_loss(s, imap, m, X, flow),
            "subtb": lambda imap: subtb_loss_batch(s, imap, m, X, flow, 0.9),
        }[objective]
        with pytest.raises(ConfigError, match="covering all 9 variables"):
            loss(sub)
        assert np.isfinite(float(loss(sample_imap(g, seed=0)).data))


class TestStateValues:
    """The losses take state values -1, 0 and +1 only.  Any other value would
    reach the network as given but the reward truncated to int8, so the two
    sides of a residual would read different states."""

    @pytest.mark.parametrize("objective", ["delta", "tb", "db", "subtb"])
    def test_other_values_rejected(self, objective):
        g = ladder_graph(3)
        m = random_ising(g, sigma=0.5, seed=1)
        s = randomized_sampler(6, seed=2, flow_head=True)
        flow = FlowHead(s.params)
        imap = sample_imap(g, seed=0)
        X = np.random.default_rng(3).choice([-1.0, 1.0], size=(4, 6))
        us = np.array([0, 3, 4, 5])
        loss = {
            "delta": lambda X: delta_loss_batch(s, imap, m, X, us, -np.sign(X[np.arange(4), us])),
            "tb": lambda X: tb_loss_batch(s, imap, m, X, LogZEstimate()),
            "db": lambda X: db_trajectory_loss(s, imap, m, X, flow),
            "subtb": lambda X: subtb_loss_batch(s, imap, m, X, flow, 0.9),
        }[objective]
        assert np.isfinite(float(loss(X).data))
        for bad in (0.5, -2.0, np.nan):
            Xb = X.copy()
            Xb[0, 3] = bad
            with pytest.raises(PartialAssignment, match="-1, 0 or \\+1"):
                loss(Xb)

    def test_other_new_values_rejected(self):
        g = ladder_graph(3)
        m = random_ising(g, sigma=0.5, seed=1)
        s = randomized_sampler(6, seed=2)
        imap = sample_imap(g, seed=0)
        X = np.random.default_rng(3).choice([-1.0, 1.0], size=(2, 6))
        with pytest.raises(PartialAssignment, match="new_vals"):
            delta_loss_batch(s, imap, m, X, [0, 3], [-X[0, 0], 0.5])
        with pytest.raises(PartialAssignment, match="-1, 0 or \\+1"):
            delta_loss(s, imap, m, np.r_[X[0, :5], 0.5], 0, -X[0, 0])

    def test_int8_states_score_as_floats(self):
        # the checked int8 copy is exact: the same loss and gradients, bit for bit
        g = ladder_graph(3)
        m = random_ising(g, sigma=0.5, seed=1)
        imap = sample_imap(g, seed=0)
        X = np.random.default_rng(3).choice([-1.0, 1.0], size=(8, 6))
        us = np.arange(8) % 6
        got = []
        for form in (np.float64, np.int8):
            s = randomized_sampler(6, seed=2)
            Xf = X.astype(form)
            loss = delta_loss_batch(s, imap, m, Xf, us, -Xf[np.arange(8), us])
            loss = loss + tb_loss_batch(s, imap, m, Xf, LogZEstimate(0.5))
            tape.backward(loss)
            got.append([float(loss.data)] + [p.grad.copy() for p in s.params.params])
        assert got[0][0] == got[1][0]
        for a, b in zip(got[0][1:], got[1][1:]):
            assert_array_equal(a, b)


class TestFlowsMatchDense:
    """State flows from the running sum of the first layer and the reward
    grown by one local delta per step, against the flow head and the reward
    on the dense prefix rows (``oracles.log_flow_rows``), and DB and subTB
    against their dense-prefix forms: values and every gradient within 1e-12
    relative, in plain and forward-looking mode, on MLP factors and on a
    tabular Bayes net."""

    CASES = [(False, "mlp"), (True, "mlp"), (True, "bayes-net")]
    IDS = ["plain", "fl", "fl-bayes-net"]

    def build(self, forward_looking, model):
        g = grid_graph(3, 3)
        rng = np.random.default_rng(7)
        if model == "mlp":
            m = FactorGraphModel(9, [MlpFactor.random(e, rng) for e in g.edges])
        else:
            dag = sample_imap(g, seed=11)
            m = TabularBayesNetModel(
                dag, {v: rng.normal(size=1 << len(dag.parents[v])) for v in range(9)}
            )
        imap = sample_imap(g, seed=4)
        assert not np.array_equal(imap.order, np.arange(9))
        s = randomized_sampler(9, seed=8, flow_head=True)
        flow = FlowHead(s.params, forward_looking=forward_looking)
        X = rng.choice([-1.0, 1.0], size=(6, 9))
        return m, imap, s, flow, X

    def same(self, params, got, want):
        got_v, want_v = got.data, want.data
        assert np.abs(got_v - want_v).max() <= 1e-12 * np.abs(want_v).max()
        weights = np.random.default_rng(9).normal(size=got_v.shape)
        got_g = collect_grads(params, tape.mul(got, weights).sum())
        want_g = collect_grads(params, tape.mul(want, weights).sum())
        assert max(np.abs(g).max() for g in got_g) > 1e-3
        for g, w in zip(got_g, want_g):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(initial=0.0)

    @pytest.mark.parametrize("forward_looking, model", CASES, ids=IDS)
    def test_log_flows(self, forward_looking, model):
        m, imap, s, flow, X = self.build(forward_looking, model)
        got = flow.log_flows(m, imap, X)
        want = log_flow_rows(flow, m, _prefix_rows(imap, X))
        self.same(s.params.params, got, want)

    @pytest.mark.parametrize("forward_looking, model", CASES, ids=IDS)
    def test_db_and_subtb(self, forward_looking, model):
        m, imap, s, flow, X = self.build(forward_looking, model)
        args = (s, imap, m, X, flow)
        self.same(s.params.params, db_trajectory_loss(*args), dense_db_trajectory_loss(*args))
        self.same(s.params.params, subtb_loss_batch(*args, 0.8), dense_subtb_loss_batch(*args, 0.8))


def mlp_chain_model(num_vars: int = 4, seed: int = 0) -> FactorGraphModel:
    rng = np.random.default_rng(seed)
    factors = [MlpFactor.random((v, v + 1), rng) for v in range(num_vars - 1)]
    return FactorGraphModel(num_vars, factors)


class TestFlowParametrization:
    def test_requires_flow_head(self):
        mae = MaeParams(MaeConfig(num_vars=3, width=8, blocks=1))
        with pytest.raises(ConfigError):
            FlowHead(mae)

    def test_zero_correction_gives_partial_reward(self):
        m = mlp_chain_model()
        s = fresh_sampler(4, flow_head=True)  # zero-initialized head
        flow = FlowHead(s.params, forward_looking=True)
        x = np.array([1, -1, 0, 0], dtype=np.int8)
        val = float(fl_flow(flow, m, x).data)
        assert_allclose(val, partial_reward(m, x), rtol=1e-12)

    def test_full_assignment_adds_correction_to_reward(self):
        m = mlp_chain_model()
        s = randomized_sampler(4, seed=3, flow_head=True)
        flow = FlowHead(s.params, forward_looking=True)
        x = np.array([1, -1, 1, 1], dtype=np.int8)
        corr = float(correction_rows(flow, x[None, :]).data[0])
        val = float(fl_flow(flow, m, x).data)
        assert_allclose(val, m.log_reward_batch(x[None, :])[0] + corr, rtol=1e-9)

    def test_empty_mask_sums_factor_values_at_zero(self):
        m = mlp_chain_model()
        s = randomized_sampler(4, seed=3, flow_head=True)
        flow = FlowHead(s.params, forward_looking=True)
        empty = np.zeros(4, dtype=np.int8)
        corr = float(correction_rows(flow, np.zeros((1, 4))).data[0])
        at_zero = sum(float(f.log_value(np.zeros((1, len(f.scope))))[0]) for f in m.factors)
        assert_allclose(float(fl_flow(flow, m, empty).data), corr + at_zero, rtol=1e-9)
        # Ising factors all pass through zero, so there the flow is bare
        ising = random_ising(cycle_graph(4), sigma=0.5, seed=0)
        assert_allclose(float(fl_flow(flow, ising, empty).data), corr, rtol=1e-12)

    def test_terminal_flow_pinned_to_reward(self):
        m = mlp_chain_model()
        imap = sample_imap(chain_graph(4), seed=1)
        s = randomized_sampler(4, seed=6, flow_head=True)
        flow = FlowHead(s.params, forward_looking=True)
        rng = np.random.default_rng(2)
        X = rng.choice([-1.0, 1.0], size=(5, 4))
        out = flow.log_flows(m, imap, X)
        assert out.shape == (25,)
        assert_array_equal(out.data[20:], m.log_reward_batch(X.astype(np.int8)))
        # and no gradient reaches the flow head through pinned rows
        grads = collect_grads([s.params.w_flow], tape.gather_1d(out, np.arange(20, 25)).sum())
        assert np.all(grads[0] == 0.0)

    def test_exact_flow_endpoints(self):
        m, imap, table = exact_setup()
        flow = ExactFlow(table)
        empty = np.zeros((1, 5))
        assert_allclose(flow.log_flow_rows(m, empty).data[0], table.log_z, rtol=1e-12)
        x = table.sample_matrix(1, seed=0)
        assert_allclose(
            flow.log_flow_rows(m, x.astype(np.float64)).data[0],
            m.log_reward_batch(x[:1])[0],
            rtol=1e-10,
        )


class TestGradients:
    """Every loss's backward pass against central differences."""

    def setup_method(self):
        self.m, self.imap, self.table = exact_setup()
        self.s = randomized_sampler(5, seed=7, flow_head=True)
        self.flow = FlowHead(self.s.params, forward_looking=True)
        rng = np.random.default_rng(1)
        self.X = rng.choice([-1.0, 1.0], size=(4, 5))
        self.us = rng.integers(0, 5, size=4)
        self.new_vals = -self.X[np.arange(4), self.us]

    def test_delta_loss_grad(self):
        assert_grad_matches_fd(
            lambda: delta_loss_batch(self.s, self.imap, self.m, self.X, self.us, self.new_vals),
            self.s.params.params,
        )

    def test_tb_loss_grad(self):
        lz = LogZEstimate(0.4)
        assert_grad_matches_fd(
            lambda: tb_loss_batch(self.s, self.imap, self.m, self.X, lz),
            self.s.params.params + [lz.value],
        )

    def test_db_step_grad(self):
        v0 = self.imap.topo_order[0]
        step = prefix_after(self.imap, self.X[0], 1)
        assert_grad_matches_fd(
            lambda: db_loss(self.s, self.imap, self.m, step, int(v0), self.flow),
            self.s.params.params,
        )

    def test_db_trajectory_grad(self):
        assert_grad_matches_fd(
            lambda: db_trajectory_loss(self.s, self.imap, self.m, self.X, self.flow),
            self.s.params.params,
        )

    def test_subtb_grad(self):
        assert_grad_matches_fd(
            lambda: subtb_loss_batch(self.s, self.imap, self.m, self.X, self.flow, 0.8),
            self.s.params.params,
        )

    def test_fl_flow_grad(self):
        x = np.array([1, 0, -1, 0, 1], dtype=np.int8)
        assert_grad_matches_fd(
            lambda: fl_flow(self.flow, self.m, x), self.s.params.params
        )


class TestDegenerateModels:
    """An edgeless model, where no flip has children, and a single variable."""

    @staticmethod
    def _edgeless(num_vars: int = 4) -> IsingModel:
        return IsingModel(np.zeros((num_vars, num_vars)), np.linspace(-0.8, 0.6, num_vars), 1.0)

    @pytest.mark.parametrize("make", ["edgeless", "one-var"])
    def test_exact_sampler_zeroes_every_loss(self, make):
        m = self._edgeless() if make == "edgeless" else one_var_model()
        imap = sample_imap(m.graph, seed=0)
        assert all(not cs for cs in imap.children.values())
        table = enumerate_exact(m)
        s = TabularSampler.from_exact_table(table, imap)
        flow = ExactFlow(table)
        states = all_states(m.num_vars)
        n = m.num_vars
        for u in range(n):
            loss = delta_loss_batch(s, imap, m, states, np.full(len(states), u), -states[:, u])
            assert float(loss.data) < 1e-12
        logZ = LogZEstimate(table.log_z)
        assert float(tb_loss_batch(s, imap, m, states, logZ).data) < 1e-12
        assert float(db_trajectory_loss(s, imap, m, states, flow).data) < 1e-12
        assert float(subtb_loss_batch(s, imap, m, states, flow, 0.9).data) < 1e-12

    @pytest.mark.parametrize("make", ["edgeless", "one-var"])
    def test_uniform_sampler_leaves_the_reward_change(self, make):
        # a fresh network is exactly uniform, so every log q ratio is 0 and
        # the residual is the change in log reward alone
        m = self._edgeless() if make == "edgeless" else one_var_model()
        s = fresh_sampler(m.num_vars)
        states = all_states(m.num_vars)
        us = np.arange(len(states)) % m.num_vars
        new_vals = -states[np.arange(len(states)), us]
        delta = m.delta_log_reward_batch(states, us, new_vals)
        subs = {u: sub_imap(m.graph, u, seed=u) for u in range(m.num_vars)}
        assert all(sub.vertices == (u,) for u, sub in subs.items())
        for imap in (sample_imap(m.graph, seed=0), subs):
            loss = delta_loss_batch(s, imap, m, states, us, new_vals)
            assert_allclose(float(loss.data), np.mean(delta**2), rtol=1e-12)
