"""Autodiff tape, sampler network, and optimizer tests.

The gradient contract everywhere: analytic gradients agree with central
finite differences at 64-bit precision.  Network checks additionally pin the
zero-initialization behaviour (a fresh sampler is exactly uniform) and exact
agreement between the taped and the gradient-free calls of the one forward.
"""

from __future__ import annotations

import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from flipmatch.errors import (
    ConfigError,
    CorruptFile,
    FlipmatchError,
    NonFiniteLoss,
    ShapeMismatch,
)
from flipmatch.energy import random_ising
from flipmatch.graph import (
    _elimination_imap,
    _mask_of,
    cycle_graph,
    grid_graph,
    ladder_graph,
    sample_imap,
    sub_imap,
)
from flipmatch.harness import TrainConfig
from flipmatch.harness.loops import _Trainer
from flipmatch.losses import _term_table
from flipmatch.nn import AdamState, MaeConfig, MaeParams, load_checkpoint, save_checkpoint, tape
from flipmatch.nn import mae as mae_module
from flipmatch.nn.mae import index_dtype
from flipmatch.nn.tape import Tensor
from flipmatch.sampler import AmortizedSampler, Policy

from oracles import (
    all_rows_first_layer,
    central_diff,
    count_order_first_layer,
    cumsum_prefix_first_layer,
    every_column,
    float_walk,
    masked_sigmoid,
    matmul,
    no_merging,
    pick_affine,
    relative_error,
    reshape,
    sliced_prefix_flows,
    sorted_copy_first_layer_grad,
    taped_trunk,
    trunk_np,
    two_buffer_trunk_backward,
    whole_batch_masked_logits,
    whole_batch_prefix_flows,
)


def run_gradcheck(arrays, fn, tol=5e-7, h=1e-5):
    """Compare taped gradients of fn(*params) against central differences."""
    params = [tape.param(a) for a in arrays]
    out = fn(*params)
    tape.backward(out)
    analytic = np.concatenate(
        [
            (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
            for p in params
        ]
    )

    def value(flat: np.ndarray) -> float:
        ps = []
        k = 0
        for a in arrays:
            ps.append(tape.param(flat[k : k + a.size].reshape(a.shape)))
            k += a.size
        return float(fn(*ps).data)

    flat0 = np.concatenate([a.ravel() for a in arrays]).astype(np.float64)
    numeric = central_diff(value, flat0, h=h)
    err = relative_error(analytic, numeric, floor=1e-6).max()
    assert err < tol, f"max relative gradient error {err}"


class TestTapeOps:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        w = rng.normal(size=(3, 4))
        run_gradcheck([a, b], lambda x, y: tape.mul(x + y, w).sum())

    def test_mul_broadcast_and_scalar(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 5)), rng.normal(size=(1, 5))
        run_gradcheck([a, b], lambda x, y: (2.5 * tape.mul(x, y)).sum())

    def test_sub_neg_square_mean(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=6), rng.normal(size=6)
        run_gradcheck([a, b], lambda x, y: (x - y).square().mean())
        run_gradcheck([a], lambda x: (-x + 1.0).square().sum())
        run_gradcheck([a], lambda x: (1.0 - x).square().sum())

    def test_matmul(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))
        run_gradcheck([a, b], lambda x, y: tape.mul(matmul(x, y), w).sum())

    def test_pointwise(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=9)
        w = rng.normal(size=9)
        run_gradcheck([x], lambda a: tape.mul(tape.log_sigmoid(a), w).sum())

    def test_log_sigmoid_extreme_values_stay_finite(self):
        x = tape.param(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
        out = tape.log_sigmoid(x).sum()
        tape.backward(out)
        assert np.isfinite(out.data)
        assert np.all(np.isfinite(x.grad))
        # saturation: slope ~1 far left, ~0 far right
        assert x.grad[0] == pytest.approx(1.0)
        assert x.grad[-1] == pytest.approx(0.0)

    def test_sigmoid_np_matches_the_masked_form_bit_for_bit(self):
        z = np.random.default_rng(40).normal(0, 30, 200_001)
        z = np.concatenate([z, [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf]])
        assert_array_equal(
            tape.sigmoid_np(z).view(np.int64), masked_sigmoid(z).view(np.int64)
        )
        assert np.isnan(tape.sigmoid_np(np.nan))
        assert tape.sigmoid_np(2.0) == masked_sigmoid(2.0)

    def test_where(self):
        rng = np.random.default_rng(6)
        cond = rng.random((3, 4)) > 0.5
        a, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        w = rng.normal(size=(3, 4))
        run_gradcheck([a, b], lambda x, y: tape.mul(tape.where(cond, x, y), w).sum())

    def test_pick_affine(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        # unsorted, repeated and unused columns
        cols = np.array([4, 0, 2, 4, 2, 4])
        out_w = rng.normal(size=6)
        run_gradcheck(
            [x, w, b], lambda a, m, c: tape.mul(pick_affine(a, m, c, cols), out_w).sum()
        )
        # forward is the dense affine map read at each row's column
        out = pick_affine(tape.const(x), tape.const(w), tape.const(b), cols)
        assert_allclose(out.data, (x @ w + b)[np.arange(6), cols], rtol=1e-14)

    def test_pick_affine_empty_batch(self):
        w = tape.param(np.ones((3, 4)))
        out = pick_affine(tape.const(np.zeros((0, 3))), w, tape.param(np.zeros(4)), [])
        assert out.shape == (0,)
        tape.backward(out.sum())
        assert w.grad is None or not w.grad.any()

    def test_gather_1d_repeated_indices_accumulate(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=5)
        idx = np.array([0, 2, 2, 1, 2])
        w = rng.normal(size=5)
        run_gradcheck([x], lambda a: tape.mul(tape.gather_1d(a, idx), w).sum())
        p = tape.param(x)
        tape.backward(tape.gather_1d(p, idx).sum())
        assert_array_equal(p.grad, np.array([1.0, 1.0, 3.0, 0.0, 0.0]))

    def test_segment_sum(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=6)
        seg = np.array([0, 0, 1, 3, 3, 3])  # segment 2 left empty
        w = rng.normal(size=4)
        run_gradcheck([x], lambda a: tape.mul(tape.segment_sum(a, seg, 4), w).sum())
        out = tape.segment_sum(tape.const(x), seg, 4)
        assert out.data[2] == 0.0

    def test_clamp_min(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=8) * 3
        x = np.where(np.abs(x + 1) < 0.2, x + 0.5, x)
        w = rng.normal(size=8)
        run_gradcheck([x], lambda a: tape.mul(tape.clamp_min(a, -1.0), w).sum())

    def test_composite_expression(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 3))

        seg = np.array([0, 2, 0, 1, 2, 2])

        def f(x, y):
            h = tape.log_sigmoid(matmul(x, y)) + x * x
            return tape.segment_sum(reshape(h, (6,)), seg, 3).square().mean()

        run_gradcheck([a, b], f, tol=2e-6)


class TestBackwardMechanics:
    def test_reused_tensor_accumulates(self):
        x = tape.param(np.array([1.0, -2.0, 3.0]))
        y = (x * x + x).sum()
        tape.backward(y)
        assert_allclose(x.grad, 2 * x.data + 1)

    def test_stop_gradient_blocks_flow(self):
        x = tape.param(np.array([1.5, -0.5]))
        y = tape.mul(x, tape.stop_gradient(x)).sum()
        tape.backward(y)
        assert_allclose(x.grad, x.data)

    def test_const_gets_no_grad(self):
        c = tape.const(np.ones(3))
        x = tape.param(np.ones(3))
        tape.backward(tape.mul(c, x).sum())
        assert c.grad is None
        assert_allclose(x.grad, np.ones(3))

    def test_backward_requires_scalar(self):
        x = tape.param(np.ones(3))
        with pytest.raises(ShapeMismatch):
            tape.backward(x + 1.0)

    def test_backward_rejects_nonfinite(self):
        x = tape.param(np.array(np.inf))
        with pytest.raises(NonFiniteLoss):
            tape.backward(x * 1.0)

    def test_zero_grad(self):
        x = tape.param(np.ones(2))
        tape.backward(x.sum())
        x.zero_grad()
        assert x.grad is None

    def test_a_graph_is_back_propagated_once(self):
        # a second pass would add the intermediate nodes' kept gradients again
        w = tape.param(np.array([1.0, 2.0]))
        loss = (w * w).sum()
        tape.backward(loss)
        assert_array_equal(w.grad, [2.0, 4.0])
        w.zero_grad()
        with pytest.raises(ConfigError):
            tape.backward(loss)
        assert w.grad is None
        # a new graph on the same parameters back-propagates as the first did
        tape.backward((w * w).sum())
        assert_array_equal(w.grad, [2.0, 4.0])

    def test_a_graph_that_reaches_a_spent_node_is_refused(self):
        w = tape.param(np.array([1.0, -3.0]))
        y = w * w
        tape.backward(y.sum())
        w.zero_grad()
        with pytest.raises(ConfigError):
            tape.backward((y + w).sum())
        assert w.grad is None

    def test_diamond_graph_order(self):
        # shared node consumed by two branches must collect both contributions
        x = tape.param(np.array([2.0]))
        a = x * 3.0
        b = x * 5.0
        tape.backward((a + b).sum())
        assert_allclose(x.grad, [8.0])


def small_config(**kw) -> MaeConfig:
    base = dict(num_vars=4, width=8, blocks=2, activation="elu", init_seed=3)
    base.update(kw)
    return MaeConfig(**base)


def randomize(mae: MaeParams, seed: int, scale: float = 0.3) -> None:
    rng = np.random.default_rng(seed)
    flat = mae.pack()
    mae.unpack(flat + rng.normal(0, scale, flat.shape))


def sample_inputs(cfg: MaeConfig, batch: int, seed: int, empty_rows: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 0.0, 1.0], size=(batch, cfg.input_width))
    for i in range(min(empty_rows, batch)):
        x[i] = 0.0
    if x.shape[0] > empty_rows:  # make sure at least one row is informative
        x[-1, 0] = 1.0
    return x


class TestMae:
    def test_fresh_network_is_exactly_uniform(self):
        cfg = small_config()
        mae = MaeParams(cfg)
        x = sample_inputs(cfg, 6, seed=0)
        logits = mae.masked_logits(x, np.arange(6) % 4, every_column(x))
        assert_array_equal(logits.data, np.zeros(6))

    def test_same_seed_same_params(self):
        a = MaeParams(small_config(init_seed=7))
        b = MaeParams(small_config(init_seed=7))
        c = MaeParams(small_config(init_seed=8))
        assert_array_equal(a.pack(), b.pack())
        assert not np.array_equal(a.pack(), c.pack())

    def test_rejects_bad_input_width(self):
        mae = MaeParams(small_config(flow_head=True))
        with pytest.raises(ShapeMismatch):
            mae.prefix_flows(np.zeros((2, 5)), range(4))
        with pytest.raises(ShapeMismatch):
            trunk_np(mae, np.zeros((2, 5)))

    def test_tape_and_plain_forward_agree_exactly(self):
        # 1,200 rows is the size of a wavefront level batch, where the plain
        # forward's in-place buffers outgrow the cache
        for activation in ("relu", "elu"):
            for batch in (5, 1200):
                cfg = small_config(activation=activation, blocks=3)
                mae = MaeParams(cfg)
                randomize(mae, seed=11)
                x = sample_inputs(cfg, batch, seed=2)
                vs = np.resize([3, 0, 2, 3, 1], batch)
                cols = every_column(x)
                assert_array_equal(
                    mae.masked_logits(x, vs, cols).data, mae.masked_logits_np(x, vs, cols)
                )

    def test_relu_maps_nan_to_zero_like_the_tape(self):
        cfg = small_config(activation="relu", blocks=1)
        mae = MaeParams(cfg)
        randomize(mae, seed=12)
        x = sample_inputs(cfg, 6, seed=3)
        x[2:4, 1] = np.nan
        plain = trunk_np(mae, x)
        assert_array_equal(plain[2:4], 0.0)
        assert_array_equal(taped_trunk(mae, x, every_column(x)).data, plain)

    def test_empty_rows_read_the_marginal_head(self):
        cfg = small_config()
        mae = MaeParams(cfg)
        randomize(mae, seed=5)
        mae.marginals.data = np.array([0.5, -1.0, 2.0, 0.0])
        x = sample_inputs(cfg, 4, seed=3, empty_rows=2)
        vs = np.array([1, 2, 0, 3])
        out = mae.masked_logits(x, vs, every_column(x)).data
        assert out[0] == mae.marginals.data[1]
        assert out[1] == mae.marginals.data[2]
        assert out[3] != mae.marginals.data[3]

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_full_network_gradcheck(self, activation, blocks):
        cfg = small_config(activation=activation, blocks=blocks)
        mae = MaeParams(cfg)
        randomize(mae, seed=13)
        x = sample_inputs(cfg, 3, seed=4)
        weights = np.random.default_rng(5).normal(size=(3, 4))
        # every (row, variable) pair once, so each head column is exercised
        xs = np.repeat(x, 4, axis=0)
        vs = np.tile(np.arange(4), 3)
        weights = weights.ravel()

        def loss_value(flat: np.ndarray) -> float:
            mae.unpack(flat)
            return float(tape.mul(mae.masked_logits(xs, vs, every_column(xs)), weights).sum().data)

        flat0 = mae.pack()
        mae.zero_grad()
        tape.backward(tape.mul(mae.masked_logits(xs, vs, every_column(xs)), weights).sum())
        analytic = np.concatenate(
            [
                (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
                for p in mae.params
            ]
        )
        numeric = central_diff(loss_value, flat0, h=1e-4)
        mae.unpack(flat0)
        live = np.abs(analytic) > 1e-3  # coordinates where relative error is meaningful
        assert live.sum() >= 50
        err = relative_error(analytic[live], numeric[live], floor=1e-3)
        assert err.max() < 1e-4
        # the rest must still agree in absolute terms
        assert np.abs(analytic[~live] - numeric[~live]).max(initial=0.0) < 1e-6

    def test_flow_without_head_raises(self):
        mae = MaeParams(small_config())
        x = sample_inputs(mae.cfg, 2, seed=8)
        with pytest.raises(ShapeMismatch):
            mae.prefix_flows(x, range(4))

    def test_shapes(self):
        cfg = small_config(flow_head=True)
        mae = MaeParams(cfg)
        x = np.zeros((5, cfg.input_width))
        x[:, -1] = 1.0
        assert mae.masked_logits(x, np.arange(5) % 4, every_column(x)).shape == (5,)
        assert mae.prefix_flows(x, [3, 1]).shape == (15,)

    def test_exactly_one_aux_group(self):
        mae = MaeParams(small_config())
        assert mae.groups.count("aux") == 1
        assert mae.names[mae.groups.index("aux")] == "marginals"


def network_grads(mae: MaeParams, loss) -> list[np.ndarray]:
    mae.zero_grad()
    tape.backward(loss)
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in mae.params]


def awkward_compact_batch(cfg: MaeConfig, n: int, seed: int):
    """Compact inputs in blocks of n rows: unsorted, repeated and -1 columns
    (trailing and interior), blocks of different used counts, an all-padding
    block and an all-zero row; the last input column is never listed.
    Returns (x, cols, dense rows)."""
    top = cfg.input_width - 1
    cols = np.array(
        [
            [top - 1, 0, -1, -1],
            [2, 2, 1, -1],
            [-1, 1, -1, 0],
            [-1, -1, -1, -1],
            [1, -1, -1, -1],
            [0, top - 1, 2, 1],
        ]
    )
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(len(cols) * n, cols.shape[1]))
    x[np.repeat(cols < 0, n, axis=0)] = 0.0
    x[-1, :] = 0.0  # a row whose listed columns all read zero
    dense = np.zeros((len(x), cfg.input_width))
    for i, row in enumerate(x):
        for k, c in enumerate(cols[i // n]):
            if c >= 0:
                dense[i, c] += row[k]
    return x, cols, dense


class TestCompactInput:
    """The (values, cols) input form against the full-width rows it stands for."""

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_full_rows(self, activation, n):
        cfg = small_config(activation=activation, blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=31)
        x, cols, dense = awkward_compact_batch(cfg, n, seed=n)
        vs = np.resize([3, 0, 2, 1], len(x))
        weights = np.random.default_rng(8).normal(size=len(x))
        compact = mae.masked_logits(x, vs, cols)
        full = mae.masked_logits(dense, vs, every_column(dense))
        assert_allclose(compact.data, full.data, rtol=0, atol=1e-12)
        assert_array_equal(compact.data, mae.masked_logits_np(x, vs, cols))
        empty = ~dense.any(axis=1)
        assert empty.sum() == n + 1  # the all-padding block and the zero row
        assert_array_equal(compact.data[empty], mae.marginals.data[vs[empty]])
        got = network_grads(mae, tape.mul(compact, weights).sum())
        want = network_grads(mae, tape.mul(full, weights).sum())
        for name, g, w in zip(mae.names, got, want):
            assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_first_layer_gradcheck(self, activation, n):
        cfg = small_config(activation=activation, blocks=2)
        mae = MaeParams(cfg)
        randomize(mae, seed=32)
        x, cols, _ = awkward_compact_batch(cfg, n, seed=5)
        vs = np.resize([1, 3, 0, 2], len(x))
        weights = np.random.default_rng(9).normal(size=len(x))

        def loss_value(flat: np.ndarray) -> float:
            mae.unpack(flat)
            return float(tape.mul(mae.masked_logits(x, vs, cols), weights).sum().data)

        flat0 = mae.pack()
        loss = tape.mul(mae.masked_logits(x, vs, cols), weights).sum()
        analytic = np.concatenate([g.ravel() for g in network_grads(mae, loss)])
        numeric = central_diff(loss_value, flat0, h=1e-4)
        mae.unpack(flat0)
        w_in = slice(0, mae.w_in.data.size)
        assert np.abs(analytic[w_in]).max() > 1e-2
        # rows of never-listed input columns get no gradient at all
        unused = mae.w_in.data.shape[0] - 1
        assert_array_equal(analytic[w_in].reshape(mae.w_in.data.shape)[unused], 0.0)
        live = np.abs(analytic) > 1e-3
        err = relative_error(analytic[live], numeric[live], floor=1e-3)
        assert err.max() < 1e-4
        assert np.abs(analytic[~live] - numeric[~live]).max(initial=0.0) < 1e-6

    def test_empty_batch(self):
        cfg = small_config()
        mae = MaeParams(cfg)
        randomize(mae, seed=33)
        for blocks in (0, 3):
            x = np.zeros((0, 2))
            cols = np.zeros((blocks, 2), dtype=np.int64)
            logits = mae.masked_logits(x, np.zeros(0, dtype=np.int64), cols)
            assert logits.shape == (0,)
            assert mae.masked_logits_np(x, np.zeros(0, dtype=np.int64), cols).shape == (0,)
            for g in network_grads(mae, logits.sum()):
                assert_array_equal(g, 0.0)

    def test_rejects_bad_columns(self):
        mae = MaeParams(small_config())
        for x, cols in [
            (np.ones((2, 2)), np.array([[0, 4]])),  # past the input width
            (np.ones((2, 2)), np.array([[0, -2]])),  # below -1
            (np.ones((3, 2)), np.array([[0, 1], [1, 2]])),  # 3 rows in 2 blocks
            (np.ones((2, 3)), np.array([[0, 1]])),  # 3 values, 2 columns
        ]:
            with pytest.raises(ShapeMismatch):
                taped_trunk(mae, x, cols)
            with pytest.raises(ShapeMismatch):
                trunk_np(mae, x, cols)


def first_rows(x, vs, cols, n) -> list[int]:
    """The first row of each distinct (variable, used columns, values) row."""
    first: dict[tuple, int] = {}
    for i, row in enumerate(x.tolist()):
        used = [(c, v) for c, v in zip(cols[i // n], row) if c >= 0]
        first.setdefault((int(vs[i]), *used), i)
    return list(first.values())


def posterior_batch(cfg: MaeConfig, seed: int):
    """The flip-term rows of one E-step under a latent map: a cycle of the
    config's variables with its last one observed, and 40 flips of the
    others.  Returns (x, vs, cols, 1, distinct) as ``repeated_batch`` does."""
    v = cfg.num_vars
    imap = _elimination_imap(cycle_graph(v), _mask_of(range(v - 1)), seed=seed)
    rng = np.random.default_rng(seed)
    X = rng.choice([-1.0, 1.0], size=(40, v))
    us = rng.integers(0, v - 1, size=40)
    (x, cols), vs, *_ = _term_table(imap, X, us, -X[np.arange(40), us])
    return x, vs, cols, 1, len(first_rows(x, vs, cols, 1))


def repeated_batch(cfg: MaeConfig, form, seed: int):
    """The rows of ``awkward_compact_batch`` again and again in shuffled order,
    each with a variable that travels with it: most rows repeat another.

    ``form`` is "dense" for full-width rows in one block that lists every
    column, "posterior" for the rows of ``posterior_batch``, else the rows per
    block.  Returns (x, vs, cols, n, distinct): distinct counts the distinct
    (variable, used columns, values) rows.
    """
    if form == "posterior":
        return posterior_batch(cfg, seed)
    n = 1 if form == "dense" else form
    x, cols, dense = awkward_compact_batch(cfg, n, seed)
    rng = np.random.default_rng(seed)
    vs = np.resize([3, 0, 2, 1, 1], len(x))
    if form == "dense":
        pick = rng.permutation(np.resize(np.arange(len(x)), 5 * len(x)))
        x, vs, cols, n = dense[pick], vs[pick], every_column(dense), len(pick)
    else:
        blocks = rng.permutation(np.resize(np.arange(len(cols)), 5 * len(cols)))
        pick = (blocks[:, None] * n + np.arange(n)).ravel()
        x, vs, cols = x[pick], vs[pick], cols[blocks]
    return x, vs, cols, n, len(first_rows(x, vs, cols, n))


def each_row_alone(mae: MaeParams, x, vs, cols, n) -> np.ndarray:
    return np.array(
        [
            mae.masked_logits_np(x[i : i + 1], vs[i : i + 1], cols[i // n][None])[0]
            for i in range(len(x))
        ]
    )


@pytest.fixture
def block_rows(monkeypatch):
    """The row count of every pass through the blocks, as a list."""
    seen: list[int] = []
    blocks = MaeParams._blocks_np

    def counted(self, h, saved=None):
        seen.append(len(h))
        return blocks(self, h, saved)

    monkeypatch.setattr(MaeParams, "_blocks_np", counted)
    return seen


class TestFirstLayerWithoutCopies:
    """The compact first layer writes each run of equal counts into its own
    blocks' rows, and its gradient sorts the used (block, slot) pairs before
    expanding them: output and gradient are bit for bit those of the count
    order copies they replace (``oracles.count_order_first_layer`` and
    ``oracles.sorted_copy_first_layer_grad``)."""

    @pytest.mark.parametrize("grad_entries", [1 << 17, 50], ids=["one-range", "ranges"])
    @pytest.mark.parametrize("in_order", [False, True], ids=["shuffled", "by-count"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_bit_for_bit(self, monkeypatch, in_order, n, grad_entries):
        # small gather pieces, so a run of equal counts spans several pieces;
        # the gradient in one range of columns, or in many
        monkeypatch.setattr(mae_module, "_GATHER_ELEMENTS", 1 << 9)
        monkeypatch.setattr(mae_module, "_GRAD_ENTRIES", grad_entries)
        cfg = small_config(num_vars=40, width=16)
        mae = MaeParams(cfg)
        randomize(mae, seed=34)
        rng = np.random.default_rng(n)
        blocks, k = 300, 12
        counts = rng.integers(0, k + 1, size=blocks)
        counts = np.sort(counts) if in_order else counts
        cols = np.full((blocks, k), -1)
        for e, c in enumerate(counts):
            slots = np.sort(rng.choice(k, c, replace=False))
            cols[e, slots] = rng.choice(cfg.input_width, c, replace=False)
        x = rng.choice([-1.0, 1.0], size=(blocks * n, k)) * (np.repeat(cols, n, axis=0) >= 0)
        packed = mae._packed(x, cols)
        assert (np.diff(packed[2]) < 0).any() != in_order
        z = mae._first_layer(packed)
        assert_array_equal(z, count_order_first_layer(mae, packed))
        gz = rng.normal(size=z.shape)
        want = sorted_copy_first_layer_grad(mae, packed, gz)
        assert_array_equal(mae._first_layer_grad(packed, gz), want)
        rows = np.sort(rng.choice(len(x), len(x) // 3, replace=False))
        want = sorted_copy_first_layer_grad(mae, packed, gz[rows], rows)
        assert_array_equal(mae._first_layer_grad(packed, gz[rows], rows), want)


class TestDistinctRows:
    """Rows with equal inputs and variable share one pass through the blocks
    and the head, and that changes no logit and no gradient beyond 1e-12."""

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("form", ["dense", 1, 3, "posterior"])
    def test_repeats_change_no_logit_and_no_gradient(
        self, monkeypatch, block_rows, activation, form
    ):
        cfg = small_config(activation=activation, blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=41)
        seed = {"dense": 13, 1: 14, 3: 15, "posterior": 16}[form]
        x, vs, cols, n, distinct = repeated_batch(cfg, form, seed)
        assert distinct * 2 < len(x)
        weights = np.random.default_rng(10).normal(size=len(x))
        plain = mae.masked_logits_np(x, vs, cols)
        assert sum(block_rows) == distinct
        block_rows.clear()
        taped = mae.masked_logits(x, vs, cols)
        assert block_rows == [distinct]
        got = network_grads(mae, tape.mul(taped, weights).sum())
        assert_array_equal(taped.data, plain)
        assert_array_equal(plain, each_row_alone(mae, x, vs, cols, n))
        with monkeypatch.context() as mp:
            no_merging(mp)
            assert_array_equal(mae.masked_logits_np(x, vs, cols), plain)
            full = mae.masked_logits(x, vs, cols)
            assert_array_equal(full.data, plain)
            want = network_grads(mae, tape.mul(full, weights).sum())
        assert max(np.abs(g).max() for g in got) > 1e-2
        for name, g, w in zip(mae.names, got, want):
            assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("form", ["dense", 1, 2])
    def test_gradcheck_with_repeats(self, block_rows, activation, form):
        cfg = small_config(activation=activation, blocks=2)
        mae = MaeParams(cfg)
        randomize(mae, seed=42)
        x, vs, cols, _, distinct = repeated_batch(cfg, form, seed=6)
        weights = np.random.default_rng(11).normal(size=len(x))

        def loss_value(flat: np.ndarray) -> float:
            mae.unpack(flat)
            return float(tape.mul(mae.masked_logits(x, vs, cols), weights).sum().data)

        flat0 = mae.pack()
        loss = tape.mul(mae.masked_logits(x, vs, cols), weights).sum()
        assert block_rows == [distinct]
        analytic = np.concatenate([g.ravel() for g in network_grads(mae, loss)])
        numeric = central_diff(loss_value, flat0, h=1e-4)
        mae.unpack(flat0)
        live = np.abs(analytic) > 1e-3
        assert live.sum() >= 50
        err = relative_error(analytic[live], numeric[live], floor=1e-3)
        assert err.max() < 1e-4
        assert np.abs(analytic[~live] - numeric[~live]).max(initial=0.0) < 1e-6

    def test_rows_that_differ_in_one_place_stay_apart(self, monkeypatch, block_rows):
        mae = MaeParams(small_config(num_vars=6))
        randomize(mae, seed=43)
        # a row, then the same row with another variable, another column, another value
        vs = np.array([3, 4, 3, 3])
        cols = np.array([[0, 2, -1], [0, 2, -1], [0, 1, -1], [0, 2, -1]])
        x = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
        dense = np.zeros((4, mae.cfg.input_width))
        np.put_along_axis(dense, np.where(cols < 0, 5, cols), x, axis=1)
        pick = np.random.default_rng(3).permutation(np.resize(np.arange(4), 40))
        # one-row blocks, and one block of all rows that lists every column
        full = every_column(dense)
        for rows, c, n, picked in ((x, cols, 1, cols[pick]), (dense, full, 4, full)):
            block_rows.clear()
            got = mae.masked_logits_np(rows[pick], vs[pick], picked)
            assert sum(block_rows) == 4
            alone = each_row_alone(mae, rows, vs, c, n)
            assert len(set(alone.tolist())) == 4
            assert_array_equal(got, alone[pick])
            # with every key equal, each neighbour is compared in full
            with monkeypatch.context() as mp:
                mp.setattr(MaeParams, "_row_keys", lambda self, packed, vs: np.zeros(len(vs)))
                got = mae.masked_logits(rows[pick], vs[pick], picked)
            assert_array_equal(got.data, alone[pick])

    def test_a_key_collision_merges_nothing_unequal(self, monkeypatch, block_rows):
        cfg = small_config(activation="relu", blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=44)
        x, vs, cols, n, distinct = repeated_batch(cfg, 1, seed=4)
        alone = each_row_alone(mae, x, vs, cols, n)
        monkeypatch.setattr(MaeParams, "_row_keys", lambda self, packed, vs: np.zeros(len(vs)))
        # every neighbour in the sorted order is a candidate, equal or not
        for perm in (np.arange(len(x)), np.lexsort(np.column_stack([vs, x, cols]).T)):
            block_rows.clear()
            got = mae.masked_logits(x[perm], vs[perm], cols[perm])
            assert distinct <= block_rows[0] <= len(x)
            assert_array_equal(got.data, alone[perm])

    def test_rows_with_nan_are_never_merged(self, block_rows):
        cfg = small_config(activation="elu", blocks=2)
        mae = MaeParams(cfg)
        randomize(mae, seed=45)
        x, vs, cols, n, distinct = repeated_batch(cfg, 1, seed=7)
        nan = vs == 3
        x[nan, 0] = np.nan
        rest = {(v, *r, *c) for v, r, c in zip(vs[~nan], x[~nan].tolist(), cols[~nan].tolist())}
        plain = mae.masked_logits_np(x, vs, cols)
        assert np.isnan(plain[nan]).all()
        assert sum(block_rows) == nan.sum() + len(rest) < len(x)
        block_rows.clear()
        mae.masked_logits(x, vs, cols)
        assert block_rows == [nan.sum() + len(rest)]
        assert_array_equal(plain, each_row_alone(mae, x, vs, cols, n))

    def test_marginal_rows_one_row_and_no_rows(self, monkeypatch, block_rows):
        cfg = small_config()
        mae = MaeParams(cfg)
        randomize(mae, seed=46)
        mae.marginals.data = np.array([0.5, -1.0, 2.0, 0.25])
        # 30 all-zero rows of 4 variables, and 10 copies of one informative row
        x = np.zeros((40, cfg.input_width))
        x[30:, 1] = 1.0
        vs = np.resize(np.arange(4), 40)
        weights = np.random.default_rng(12).normal(size=40)
        cols = every_column(x)
        logits = mae.masked_logits(x, vs, cols)
        assert block_rows == [4 + 4]  # each variable's zero row and informative row
        assert_array_equal(logits.data[:30], mae.marginals.data[vs[:30]])
        got = network_grads(mae, tape.mul(logits, weights).sum())
        with monkeypatch.context() as mp:
            no_merging(mp)
            want = network_grads(mae, tape.mul(mae.masked_logits(x, vs, cols), weights).sum())
        for name, g, w in zip(mae.names, got, want):
            assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)
        block_rows.clear()
        one = mae.masked_logits(x[-1:], vs[-1:], cols)
        assert block_rows == [1]
        assert_array_equal(one.data, logits.data[-1:])
        for x0, c0 in (
            (np.zeros((0, cfg.input_width)), cols),
            (np.zeros((0, 2)), np.zeros((3, 2))),
        ):
            v0 = np.zeros(0, dtype=np.int64)
            assert mae.masked_logits(x0, v0, c0).shape == (0,)
            assert mae.masked_logits_np(x0, v0, c0).shape == (0,)


def slice_rows(monkeypatch, rows: int, width: int) -> None:
    """Make the blocks run on slices of ``rows`` rows at the given width."""
    monkeypatch.setattr(mae_module, "_BLOCK_ELEMENTS", rows * width)


def sliced_batch(cfg: MaeConfig, form: str, seed: int):
    """(x, vs, cols, n) of one of the input forms the taped call takes: full
    rows in one block that lists every column, compact blocks of 3 rows,
    compact rows that mostly repeat, or the flip-term rows of
    ``posterior_batch``."""
    if form == "posterior":
        x, vs, cols, n, _ = posterior_batch(cfg, seed)
        return x, vs, cols, n
    if form == "dense":
        x = sample_inputs(cfg, 23, seed=seed, empty_rows=2)
        vs = np.random.default_rng(seed).integers(0, cfg.num_vars, len(x))
        return x, vs, every_column(x), len(x)
    if form == "compact":
        x, cols, _ = awkward_compact_batch(cfg, 3, seed)
        return x, np.resize([3, 0, 2, 1], len(x)), cols, 3
    x, vs, cols, n, _ = repeated_batch(cfg, 3, seed)
    return x, vs, cols, n


class TestSlicedTape:
    """The taped call runs its blocks and head on row slices and runs them
    again in the backward; that changes no logit, and no gradient beyond
    1e-12 of the whole-batch reference, and none at all in one slice."""

    FORMS = ["dense", "compact", "merged", "posterior"]

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("form", FORMS)
    def test_slices_change_no_logit_and_no_gradient(
        self, monkeypatch, block_rows, activation, form
    ):
        cfg = small_config(activation=activation, blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=51)
        x, vs, cols, n = sliced_batch(cfg, form, seed=17)
        weights = np.random.default_rng(13).normal(size=len(x))
        reference = whole_batch_masked_logits(mae, x, vs, cols)
        want = network_grads(mae, tape.mul(reference, weights).sum())
        reference = reference.data
        slice_rows(monkeypatch, 4, cfg.width)
        block_rows.clear()
        taped = mae.masked_logits(x, vs, cols)
        forward = list(block_rows)
        assert len(forward) >= 3 and set(forward[:-1]) == {4}
        assert (sum(forward) < len(x)) == (form in ("merged", "posterior"))
        assert_array_equal(taped.data, mae.masked_logits_np(x, vs, cols))
        assert_array_equal(taped.data, each_row_alone(mae, x, vs, cols, n))
        assert_array_equal(taped.data, reference)
        block_rows.clear()
        got = network_grads(mae, tape.mul(taped, weights).sum())
        # every slice but the last runs again, last first
        assert block_rows == forward[-2::-1]
        assert max(np.abs(g).max() for g in got) > 1e-2
        for name, g, w in zip(mae.names, got, want):
            assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("form", FORMS)
    def test_one_slice_is_the_whole_batch_reference(self, block_rows, activation, form):
        cfg = small_config(activation=activation, blocks=3, flow_head=True)
        mae = MaeParams(cfg)
        randomize(mae, seed=52)
        x, vs, cols, _ = sliced_batch(cfg, form, seed=18)
        weights = np.random.default_rng(14).normal(size=len(x))
        taped = mae.masked_logits(x, vs, cols)
        assert len(block_rows) == 1
        reference = whole_batch_masked_logits(mae, x, vs, cols)
        assert_array_equal(taped.data, reference.data)
        got = network_grads(mae, tape.mul(taped, weights).sum())
        want = network_grads(mae, tape.mul(reference, weights).sum())
        assert len(block_rows) == 2  # the node and the reference, no recompute
        for name, g, w in zip(mae.names, got, want):
            assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("form", ["dense", "compact", "merged"])
    def test_gradcheck_across_slices(self, monkeypatch, activation, form):
        cfg = small_config(activation=activation, blocks=2)
        mae = MaeParams(cfg)
        randomize(mae, seed=54)
        x, vs, cols, _ = sliced_batch(cfg, form, seed=20)
        weights = np.random.default_rng(16).normal(size=len(x))
        slice_rows(monkeypatch, 3, cfg.width)

        def loss() -> Tensor:
            return tape.mul(mae.masked_logits(x, vs, cols), weights).sum()

        def loss_value(flat: np.ndarray) -> float:
            mae.unpack(flat)
            return float(loss().data)

        flat0 = mae.pack()
        analytic = np.concatenate([g.ravel() for g in network_grads(mae, loss())])
        numeric = central_diff(loss_value, flat0, h=1e-4)
        mae.unpack(flat0)
        live = np.abs(analytic) > 1e-3
        assert live.sum() >= 50
        err = relative_error(analytic[live], numeric[live], floor=1e-3)
        assert err.max() < 1e-4
        assert np.abs(analytic[~live] - numeric[~live]).max(initial=0.0) < 1e-6

    def test_tape_memory_is_a_few_batch_arrays(self):
        # 32,768 rows at width 64 are 32 slices.  The first layer's output and
        # its gradient are two arrays of the batch's size, and one slice's
        # intermediates add about a third of one; the whole-batch tape kept
        # each block's input, normalized values and activation slope for
        # every row, over 14 such arrays at its peak
        cfg = MaeConfig(num_vars=16, width=64, blocks=3, activation="relu", init_seed=0)
        mae = MaeParams(cfg)
        randomize(mae, seed=55, scale=0.1)
        rows = 32768
        x = np.random.default_rng(0).choice([-1.0, 1.0], size=(rows, cfg.input_width))
        vs = np.arange(rows) % cfg.num_vars
        weights = np.random.default_rng(1).normal(size=rows)
        tracemalloc.start()
        try:
            tape.backward(tape.mul(mae.masked_logits(x, vs, every_column(x)), weights).sum())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * rows * cfg.width * 8


def prefix_batch(cfg: MaeConfig, order, n: int, seed: int):
    """n full +-1 rows, and an order of their columns: "shuffled" for all of
    them in random order, "one-var" for one column, "sliced" for all of them
    in random order with more prefix rows than one slice of the blocks
    holds."""
    rng = np.random.default_rng(seed)
    v = cfg.num_vars
    if order == "sliced":
        n = max(n, mae_module._BLOCK_ELEMENTS // cfg.width // (v + 1) + 1)
    X = rng.choice([-1.0, 1.0], size=(n, v))
    return X, rng.permutation(v)[: 1 if order == "one-var" else v]


class TestPrefixFlows:
    """The flow head on every prefix of an order, from one running sum of the
    first layer and inside the network's one tape node: against finite
    differences on every parameter, against the blocks run on the whole batch
    at once, and against the flow head as a node of its own on the trunk
    rows."""

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("order", ["shuffled", "one-var", "sliced"])
    def test_gradcheck(self, block_rows, activation, order):
        cfg = small_config(activation=activation, blocks=2, flow_head=True)
        mae = MaeParams(cfg)
        randomize(mae, seed=56)
        X, order = prefix_batch(cfg, order, 3, seed=21)
        assert len(order) == 1 or not np.array_equal(order, np.arange(len(order)))
        weights = np.random.default_rng(19).normal(size=(len(order) + 1) * len(X))

        def loss() -> Tensor:
            return tape.mul(mae.prefix_flows(X, order), weights).sum()

        def loss_value(flat: np.ndarray) -> float:
            mae.unpack(flat)
            return float(loss().data)

        flat0 = mae.pack()
        analytic = np.concatenate([g.ravel() for g in network_grads(mae, loss())])
        # a batch of several slices runs each one but the last again
        slices = -(-len(weights) // (mae_module._BLOCK_ELEMENTS // cfg.width))
        assert len(block_rows) == 2 * slices - 1
        numeric = central_diff(loss_value, flat0, h=1e-4)
        mae.unpack(flat0)
        w_in = analytic[: mae.w_in.data.size].reshape(mae.w_in.data.shape)
        unused = np.setdiff1d(np.arange(cfg.num_vars), order)
        assert_array_equal(w_in[unused], 0.0)
        live = np.abs(analytic) > 1e-3
        assert live.sum() >= 50
        err = relative_error(analytic[live], numeric[live], floor=1e-3)
        assert err.max() < 1e-4
        assert np.abs(analytic[~live] - numeric[~live]).max(initial=0.0) < 1e-6

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("slice_to", [None, 5], ids=["whole", "slices5"])
    def test_matches_the_whole_batch_reference(self, monkeypatch, activation, slice_to):
        # in one slice bit for bit; in slices of 5 rows the gradients within 1e-12
        cfg = small_config(activation=activation, blocks=3, flow_head=True)
        mae = MaeParams(cfg)
        randomize(mae, seed=57)
        X, order = prefix_batch(cfg, "shuffled", 6, seed=22)
        weights = np.random.default_rng(20).normal(size=(len(order) + 1) * len(X))
        reference = whole_batch_prefix_flows(mae, X, order)
        want = network_grads(mae, tape.mul(reference, weights).sum())
        if slice_to is not None:
            slice_rows(monkeypatch, slice_to, cfg.width)
        flows = mae.prefix_flows(X, order)
        assert_array_equal(flows.data, reference.data)
        trunk = mae._sliced_blocks_np(mae._prefix_first_layer(X, order)[0])
        plain = mae_module._head_np(trunk, mae.w_flow.data, mae.b_flow.data, np.zeros(len(trunk), int))
        assert_array_equal(flows.data, plain)
        got = network_grads(mae, tape.mul(flows, weights).sum())
        for name, g, w in zip(mae.names, got, want):
            if slice_to is None:
                assert_array_equal(g, w, err_msg=name)
            else:
                assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("slice_to", [None, 5], ids=["whole", "slices5"])
    def test_matches_the_head_as_a_node_of_its_own(self, monkeypatch, activation, slice_to):
        # the same slices with the flow head read off (rows, width) trunk
        # rows by a node of its own: the flows and the trunk's gradients bit
        # for bit; the head's own gradient, summed slice by slice, within
        # 1e-12 in slices and bit for bit in one
        cfg = small_config(activation=activation, blocks=3, flow_head=True)
        mae = MaeParams(cfg)
        randomize(mae, seed=59)
        X, order = prefix_batch(cfg, "shuffled", 6, seed=29)
        weights = np.random.default_rng(30).normal(size=(len(order) + 1) * len(X))
        if slice_to is not None:
            slice_rows(monkeypatch, slice_to, cfg.width)
        reference = sliced_prefix_flows(mae, X, order)
        want = network_grads(mae, tape.mul(reference, weights).sum())
        flows = mae.prefix_flows(X, order)
        assert_array_equal(flows.data, reference.data)
        got = network_grads(mae, tape.mul(flows, weights).sum())
        assert max(np.abs(g).max() for g in got) > 1e-2
        for name, g, w in zip(mae.names, got, want):
            if slice_to is not None and name in ("w_flow", "b_flow"):
                assert_allclose(g, w, rtol=1e-12, atol=0, err_msg=name)
            else:
                assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("order", ["shuffled", "one-var", "sliced"])
    def test_running_sums_are_the_cumsum_bits(self, order):
        # in-place adds of one prefix block to the next make np.cumsum's
        # additions in its order, the sign of a zero included
        cfg = small_config(flow_head=True)
        mae = MaeParams(cfg)
        randomize(mae, seed=58)
        X, order = prefix_batch(cfg, order, 5, seed=23)
        X[0, order[0]] = X[1, order[-1]] = 0.0
        z, w_in_grad = mae._prefix_first_layer(X, order)
        z_ref, w_in_grad_ref = cumsum_prefix_first_layer(mae, X, order)
        assert_array_equal(z.view(np.int64), z_ref.view(np.int64))
        gz = np.random.default_rng(24).normal(size=z.shape)
        gz[: len(X)] = -0.0
        kept = gz.copy()
        assert_array_equal(w_in_grad(gz).view(np.int64), w_in_grad_ref(gz).view(np.int64))
        assert_array_equal(gz, kept)

    def test_rejects_bad_inputs(self):
        mae = MaeParams(small_config(flow_head=True))
        X = np.ones((2, 4))
        for x, order in [(np.ones((2, 5)), [0]), (X, [0, 0]), (X, [4]), (X, [-1]), (X, [[0]])]:
            with pytest.raises(ShapeMismatch):
                mae.prefix_flows(x, order)


def unique_column_batch(cfg: MaeConfig, form, seed: int):
    """Eight blocks used six times each in shuffled order, every row's
    variable travelling with it: full rows in one block that lists every
    column for "dense", else blocks of ``form`` rows, each block listing
    distinct input columns in random slots, some -1 and one block all -1.
    Returns (x, vs, cols, n, distinct) as ``repeated_batch`` does; "posterior"
    is ``posterior_batch``."""
    if form == "posterior":
        return posterior_batch(cfg, seed)
    n = 1 if form == "dense" else form
    rng = np.random.default_rng(seed)
    kinds, k = 8, 4
    cols = np.full((kinds, k), -1)
    for e in range(1, kinds):
        c = rng.integers(1, k + 1)
        cols[e, rng.choice(k, c, replace=False)] = rng.choice(cfg.input_width, c, replace=False)
    x = rng.choice([-1.0, 1.0], size=(kinds * n, k)) * (np.repeat(cols, n, axis=0) >= 0)
    vs = rng.integers(0, cfg.num_vars, kinds * n)
    blocks = rng.permutation(np.resize(np.arange(kinds), 6 * kinds))
    pick = (blocks[:, None] * n + np.arange(n)).ravel()
    x, vs, cols = x[pick], vs[pick], cols[blocks]
    if form == "dense":
        # -1 slots go to a last column, which is then dropped
        dense = np.zeros((len(x), cfg.input_width + 1))
        np.put_along_axis(dense, np.where(cols < 0, cfg.input_width, cols), x, axis=1)
        x, cols, n = dense[:, :-1], every_column(dense[:, :-1]), len(x)
    return x, vs, cols, n, len(first_rows(x, vs, cols, n))


@pytest.fixture
def first_layer_rows(monkeypatch):
    """The row count of every first-layer output, as a list."""
    seen: list[int] = []
    first_layer = MaeParams._first_layer

    def counted(self, packed, rows=None):
        z = first_layer(self, packed, rows)
        seen.append(len(z))
        return z

    monkeypatch.setattr(MaeParams, "_first_layer", counted)
    return seen


class TestFirstLayerOnRepresentatives:
    """The first layer runs only on the blocks that hold the first row of a
    group of equal rows, the tape keeps its output on those rows alone, and
    the input weights' gradient lists only their entries.  Logits and
    gradients are bit for bit those of the first layer on every row
    (``oracles.all_rows_first_layer``), except that blocks of several rows
    listing one column twice may sum that column's entries in another order."""

    FORMS = ["dense", 1, 3, "posterior"]
    FORM_IDS = ["dense", "rows", "blocks", "posterior"]

    @pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
    def test_one_first_layer_row_per_distinct_row(self, monkeypatch, first_layer_rows, form):
        cfg = small_config(blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=61)
        x, vs, cols, n, distinct = unique_column_batch(cfg, form, seed=21)
        assert distinct * 4 < len(x)
        read: list[int] = []  # blocks per product of the compact first layer
        count_runs = mae_module._count_runs

        def counted_runs(counts, rows, width):
            for a, b, k in count_runs(counts, rows, width):
                read.append(b - a)
                yield a, b, k

        monkeypatch.setattr(mae_module, "_count_runs", counted_runs)
        mae.masked_logits_np(x, vs, cols)
        tape.backward(mae.masked_logits(x, vs, cols).sum())
        assert first_layer_rows == [distinct, distinct]
        if form != "dense":
            # the blocks holding a first row, but for the one listing nothing
            held = {i // n for i in first_rows(x, vs, cols, n) if (cols[i // n] >= 0).any()}
            assert sum(read) == 2 * len(held) < len(cols)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
    @pytest.mark.parametrize("slice_to", [None, 3, 5], ids=["whole", "slices3", "slices5"])
    def test_bit_for_bit_against_all_rows(self, monkeypatch, activation, form, slice_to):
        cfg = small_config(activation=activation, blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=62)
        x, vs, cols, _, distinct = unique_column_batch(cfg, form, seed=22)
        assert distinct * 4 < len(x)
        weights = np.random.default_rng(17).normal(size=len(x))
        if slice_to is not None:
            slice_rows(monkeypatch, slice_to, cfg.width)
        plain = mae.masked_logits_np(x, vs, cols)
        taped = mae.masked_logits(x, vs, cols)
        got = network_grads(mae, tape.mul(taped, weights).sum())
        with monkeypatch.context() as mp:
            all_rows_first_layer(mp)
            assert_array_equal(mae.masked_logits_np(x, vs, cols), plain)
            reference = mae.masked_logits(x, vs, cols)
            want = network_grads(mae, tape.mul(reference, weights).sum())
        assert_array_equal(taped.data, plain)
        assert_array_equal(reference.data, plain)
        assert max(np.abs(g).max() for g in got) > 1e-2
        for name, g, w in zip(mae.names, got, want):
            assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_blocks_that_each_hold_a_first_row(self, monkeypatch, first_layer_rows, activation):
        # one variable per block of 8 rows, as in the sampler's walk: no row
        # equals a row of another block, so every block is read
        cfg = small_config(num_vars=6, activation=activation, blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=67)
        n = 8
        cols = np.array([[1, 4], [0, -1], [2, 3], [5, 1], [-1, -1], [3, 0]])
        rng = np.random.default_rng(26)
        x = rng.choice([-1.0, 1.0], size=(len(cols) * n, 2)) * (np.repeat(cols, n, axis=0) >= 0)
        vs = np.repeat(np.arange(len(cols)), n)
        weights = rng.normal(size=len(x))
        distinct = len(first_rows(x, vs, cols, n))
        assert distinct * 2 < len(x)
        plain = mae.masked_logits_np(x, vs, cols)
        taped = mae.masked_logits(x, vs, cols)
        assert first_layer_rows == [distinct, distinct]
        got = network_grads(mae, tape.mul(taped, weights).sum())
        with monkeypatch.context() as mp:
            all_rows_first_layer(mp)
            assert_array_equal(mae.masked_logits_np(x, vs, cols), plain)
            reference = mae.masked_logits(x, vs, cols)
            want = network_grads(mae, tape.mul(reference, weights).sum())
        assert_array_equal(taped.data, plain)
        assert_array_equal(reference.data, plain)
        for name, g, w in zip(mae.names, got, want):
            assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_a_column_listed_twice(self, monkeypatch, activation, n):
        # ``awkward_compact_batch`` has a block that lists column 2 twice
        cfg = small_config(activation=activation, blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=63)
        x, vs, cols, _, distinct = repeated_batch(cfg, n, seed=23)
        assert distinct * 2 < len(x)
        weights = np.random.default_rng(18).normal(size=len(x))
        taped = mae.masked_logits(x, vs, cols)
        got = network_grads(mae, tape.mul(taped, weights).sum())
        with monkeypatch.context() as mp:
            all_rows_first_layer(mp)
            reference = mae.masked_logits(x, vs, cols)
            want = network_grads(mae, tape.mul(reference, weights).sum())
        assert_array_equal(taped.data, reference.data)
        for name, g, w in zip(mae.names, got, want):
            if n == 1:
                assert_array_equal(g, w, err_msg=name)
            else:
                assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("form", ["dense", 1, 3])
    def test_rows_with_nan(self, monkeypatch, first_layer_rows, form):
        cfg = small_config(activation="elu", blocks=2)
        mae = MaeParams(cfg)
        randomize(mae, seed=64)
        x, vs, cols, n, _ = unique_column_batch(cfg, form, seed=24)
        nan = np.flatnonzero((x != 0).any(axis=1))[::7]
        x[nan, np.argmax(x[nan] != 0, axis=1)] = np.nan
        rest = np.setdiff1d(np.arange(len(x)), nan)
        kept = len(nan) + len(first_rows(x[rest], vs[rest], cols[rest // n], 1))
        plain = mae.masked_logits_np(x, vs, cols)
        taped = mae.masked_logits(x, vs, cols)
        assert first_layer_rows == [kept, kept] and kept < len(x)
        assert np.isnan(plain[nan]).all() and not np.isnan(plain[rest]).any()
        with monkeypatch.context() as mp:
            all_rows_first_layer(mp)
            assert_array_equal(mae.masked_logits_np(x, vs, cols), plain)
            assert_array_equal(mae.masked_logits(x, vs, cols).data, plain)
        assert_array_equal(taped.data, plain)

    def test_parent_rows_of_the_sampler(self, monkeypatch, first_layer_rows):
        # the losses' parent rows, observed parents among them: rows with
        # equal variable, columns and values share one first-layer row
        cfg = small_config(num_vars=6, blocks=2)
        s = AmortizedSampler(MaeParams(cfg))
        randomize(s.params, seed=65)
        rng = np.random.default_rng(25)
        pick = rng.integers(0, 6, size=60)
        values = rng.choice([-1.0, 1.0], size=(6, 2))[pick]
        cols = np.array([[1, 2], [1, 2], [3, -1], [2, 4], [4, 1], [3, -1]])[pick]
        values[cols < 0] = 0.0
        vs = np.array([0, 3, 5, 0, 5, 1])[pick]
        signs = rng.choice([-1.0, 1.0], size=60)
        weights = rng.normal(size=60)
        got = s.logq_rows((values, cols), vs, signs)
        grads = network_grads(s.params, tape.mul(got, weights).sum())
        assert first_layer_rows == [len(first_rows(values, vs, cols, 1))]
        assert first_layer_rows[0] * 3 < len(values)
        with monkeypatch.context() as mp:
            all_rows_first_layer(mp)
            want = s.logq_rows((values, cols), vs, signs)
            want_grads = network_grads(s.params, tape.mul(want, weights).sum())
        assert_array_equal(got.data, want.data)
        for name, g, w in zip(s.params.names, grads, want_grads):
            assert_array_equal(g, w, err_msg=name)

    def test_tape_memory_on_repeated_rows(self):
        # 16,384 one-row blocks of 4 slots that hold 64 distinct rows.  The
        # first layer on every row would be a 16,384 x 64 array of 8 MB, eight
        # times the input; on the representatives it is 64 rows.  What
        # remains is the grouping, whose candidate pairs compare gathered
        # copies of the input's values and columns
        cfg = MaeConfig(num_vars=16, width=64, blocks=3, activation="relu", init_seed=0)
        mae = MaeParams(cfg)
        randomize(mae, seed=66, scale=0.1)
        rng = np.random.default_rng(0)
        kinds, rows, k = 64, 16384, 4
        cols = np.stack([rng.choice(cfg.num_vars, k, replace=False) for _ in range(kinds)])
        x = rng.choice([-1.0, 1.0], size=(kinds, k))
        vs = rng.integers(0, cfg.num_vars, kinds)
        pick = rng.permutation(np.resize(np.arange(kinds), rows))
        x, cols, vs = x[pick], cols[pick], vs[pick]
        weights = rng.normal(size=rows)
        tracemalloc.start()
        try:
            tape.backward(tape.mul(mae.masked_logits(x, vs, cols), weights).sum())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (x.nbytes + cols.nbytes) + 8 * kinds * cfg.width * 8


@pytest.fixture
def network_inputs(monkeypatch):
    """The (values, cols) dtypes of every network call, as a set."""
    seen: set[tuple] = set()
    for name in ("masked_logits", "masked_logits_np"):
        call = getattr(MaeParams, name)

        def recorded(self, x, vs, cols, call=call):
            seen.add((x.dtype, np.asarray(cols).dtype))
            return call(self, x, vs, cols)

        monkeypatch.setattr(MaeParams, name, recorded)
    return seen


class TestNarrowRows:
    """States reach the network as int8 and variable ids in ``index_dtype``,
    from the walk's work array and the merged parent table to the input
    weights' gradient.  numpy turns -1, 0 and +1 into float64 exactly, so
    logits, draws, log q and gradients are bit for bit those of float64
    values and int64 columns."""

    def test_index_dtype(self):
        assert index_dtype(1) == index_dtype(128) == np.int8
        assert index_dtype(129) == index_dtype(32768) == np.int16
        assert index_dtype(32769) == np.int32
        assert index_dtype(2**31 + 1) == np.int64

    @pytest.mark.parametrize("sliced", [False, True], ids=["whole", "slices4"])
    @pytest.mark.parametrize("form", TestSlicedTape.FORMS)
    def test_network_reads_narrow_rows_exactly(self, monkeypatch, block_rows, form, sliced):
        cfg = small_config(activation="elu", blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=61)
        x, vs, cols, n = sliced_batch(cfg, form, seed=18)
        if sliced:
            slice_rows(monkeypatch, 4, cfg.width)
        weights = np.random.default_rng(14).normal(size=len(x))
        runs = []
        for x_type, col_type in [(np.float64, np.int64), (np.int8, np.int16), (np.int8, np.int8)]:
            xn, cn = x.astype(x_type), np.asarray(cols).astype(col_type)
            block_rows.clear()
            taped = mae.masked_logits(xn, vs, cn)
            first_pass = sum(block_rows)
            grads = network_grads(mae, tape.mul(taped, weights).sum())
            runs.append((taped.data, mae.masked_logits_np(xn, vs, cn), grads, first_pass))
        want, want_np, want_grads, want_rows = runs[0]
        assert (want_rows < len(x)) == (form in ("merged", "posterior"))
        for got, got_np, grads, first_pass in runs[1:]:
            assert first_pass == want_rows  # the same rows merge
            assert_array_equal(got, want)
            assert_array_equal(got_np, want_np)
            for name, g, w in zip(mae.names, grads, want_grads):
                assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("graph", ["ladder", "grid"])
    def test_walk_matches_the_float64_walk(self, network_inputs, graph):
        # 12 variables take int8 ids, 144 int16; with n rows per map the
        # entries of fewer than log2(n) + 1 parents read the table
        g = ladder_graph(6) if graph == "ladder" else grid_graph(12, 12)
        v = g.num_vars
        s = AmortizedSampler(MaeParams(MaeConfig(num_vars=v, width=16, blocks=2, init_seed=1)))
        randomize(s.params, seed=62)
        latent = _elimination_imap(g, _mask_of(range(v // 2)), seed=4)
        cases = [[sample_imap(g, seed=3)], [sub_imap(g, u, seed=u) for u in (0, v // 2, v - 1)]]
        rng = np.random.default_rng(9)
        for maps in cases + [[latent]]:
            for n in (1, 4, 9):
                X0 = rng.choice([-1.0, 1.0], size=(len(maps) * n, v))
                policy = Policy(kind="tempered", temperature=1.5)
                network_inputs.clear()
                X, logq = s._walk(maps, n, X0, policy, np.random.default_rng(n))
                assert network_inputs == {(np.dtype(np.int8), index_dtype(v))}
                X_ref, logq_ref = float_walk(s, maps, n, X0, policy, np.random.default_rng(n))
                assert X.dtype == np.int8
                assert_array_equal(X, X_ref)
                assert_array_equal(logq, logq_ref)
                assert_array_equal(s._walk(maps, n, X)[1], float_walk(s, maps, n, X_ref)[1])

    def test_sub_map_step_memory(self, network_inputs):
        # one flip-matching step on the 16x16 lattice, one partial draw under
        # each variable's own sub-map, width 64: its tracemalloc peak was 14.0
        # MB with int8 states and int16 ids, 15.7 MB with float64 states and
        # int64 ids gathered at the width of the widest sub-map, and is 10.7
        # MB with one buffer for the first layer's output and its gradient
        g = grid_graph(16, 16)
        s = AmortizedSampler(MaeParams(MaeConfig(num_vars=256, width=64, blocks=2, init_seed=0)))
        cfg = TrainConfig(
            objective="delta", total_steps=1, sub_dags_per_var=1, width=64, blocks=2, seed=0
        )
        trainer = _Trainer(cfg, random_ising(g, sigma=0.2, seed=0), s)
        tracemalloc.start()
        try:
            loss, _ = trainer.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loss == 2.495
        assert network_inputs == {(np.dtype(np.int8), np.dtype(np.int16))}
        assert peak < 15.0e6


class TestOneBufferBackward:
    """The taped trunk's backward writes the first layer's output gradient
    into the output's own buffer, slice by slice once a slice has run again:
    the gradients are those of the backward that kept the two apart, bit for
    bit, and a step holds one (rows, width) array in place of two."""

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("slice_to", [None, 4], ids=["whole", "slices4"])
    @pytest.mark.parametrize("form", TestSlicedTape.FORMS)
    def test_masked_logits_gradients(self, monkeypatch, block_rows, activation, slice_to, form):
        cfg = small_config(activation=activation, blocks=3)
        mae = MaeParams(cfg)
        randomize(mae, seed=71)
        x, vs, cols, _ = sliced_batch(cfg, form, seed=25)
        if slice_to is not None:
            slice_rows(monkeypatch, slice_to, cfg.width)
        weights = np.random.default_rng(26).normal(size=len(x))
        block_rows.clear()
        taped = mae.masked_logits(x, vs, cols)
        assert (len(block_rows) > 1) == (slice_to is not None)
        assert (sum(block_rows) < len(x)) == (form in ("merged", "posterior"))
        got = network_grads(mae, tape.mul(taped, weights).sum())
        with monkeypatch.context() as mp:
            mp.setattr(MaeParams, "_trunk_backward", two_buffer_trunk_backward)
            want = network_grads(mae, tape.mul(mae.masked_logits(x, vs, cols), weights).sum())
        assert max(np.abs(g).max() for g in got) > 1e-2
        for name, g, w in zip(mae.names, got, want):
            assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("order", ["shuffled", "one-var", "sliced"])
    def test_prefix_flows_gradients(self, monkeypatch, activation, order):
        cfg = small_config(activation=activation, blocks=2, flow_head=True)
        mae = MaeParams(cfg)
        randomize(mae, seed=72)
        X, order = prefix_batch(cfg, order, 4, seed=27)
        weights = np.random.default_rng(28).normal(size=(len(order) + 1) * len(X))

        def grads() -> list[np.ndarray]:
            return network_grads(mae, tape.mul(mae.prefix_flows(X, order), weights).sum())

        got = grads()
        with monkeypatch.context() as mp:
            mp.setattr(MaeParams, "_trunk_backward", two_buffer_trunk_backward)
            want = grads()
        for name, g, w in zip(mae.names, got, want):
            assert_array_equal(g, w, err_msg=name)

    def test_the_trunk_node_is_back_propagated_once(self):
        cfg = small_config()
        mae = MaeParams(cfg)
        randomize(mae, seed=73)
        x, vs, cols, _ = sliced_batch(cfg, "compact", seed=29)
        logits = mae.masked_logits(x, vs, cols)
        first = network_grads(mae, logits.sum())
        mae.zero_grad()
        with pytest.raises(ConfigError):
            tape.backward(logits.sum())
        assert all(p.grad is None for p in mae.params)
        again = network_grads(mae, mae.masked_logits(x, vs, cols).sum())
        for name, g, w in zip(mae.names, again, first):
            assert_array_equal(g, w, err_msg=name)

    def test_sub_map_step_memory(self):
        # the step of ``TestNarrowRows.test_sub_map_step_memory``: its
        # tracemalloc peak is 10.7 MB with one buffer, 14.0 MB with two
        g = grid_graph(16, 16)
        s = AmortizedSampler(MaeParams(MaeConfig(num_vars=256, width=64, blocks=2, init_seed=0)))
        cfg = TrainConfig(
            objective="delta", total_steps=1, sub_dags_per_var=1, width=64, blocks=2, seed=0
        )
        trainer = _Trainer(cfg, random_ising(g, sigma=0.2, seed=0), s)
        tracemalloc.start()
        try:
            loss, _ = trainer.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loss == 2.495
        assert peak < 12.0e6


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = small_config(flow_head=True, activation="elu")
        mae = MaeParams(cfg)
        randomize(mae, seed=21)
        path = os.fspath(tmp_path / "net.dmae")
        save_checkpoint(mae, path)
        # flags: flow head and elu; no optimizer state and no conditioning count
        assert struct.unpack_from("<II", open(path, "rb").read(), 24) == (5, 0)
        loaded = load_checkpoint(path)
        assert loaded.cfg.num_vars == cfg.num_vars
        assert loaded.cfg.width == cfg.width
        assert loaded.cfg.blocks == cfg.blocks
        assert loaded.cfg.activation == "elu"
        assert loaded.cfg.flow_head
        assert_array_equal(loaded.pack(), mae.pack())
        x = sample_inputs(cfg, 4, seed=9)
        vs = np.arange(4)
        cols = every_column(x)
        assert_array_equal(
            loaded.masked_logits(x, vs, cols).data, mae.masked_logits(x, vs, cols).data
        )

    def test_float32_storage(self, tmp_path):
        # a hand-built file storing its parameters at 32 bits still loads
        cfg = small_config(activation="elu")
        mae = MaeParams(cfg)
        randomize(mae, seed=22)
        flat32 = mae.pack().astype("<f4")

        def write(float_bits: int) -> str:
            path = os.fspath(tmp_path / f"net{float_bits}.dmae")
            header = struct.pack("<4sIIIIIII", b"DMAE", 1, 4, 8, 2, float_bits, 4, 0)
            body = struct.pack("<Q", flat32.size) + flat32.tobytes()
            open(path, "wb").write(header + body)
            return path

        loaded = load_checkpoint(write(32), init_seed=cfg.init_seed)
        assert loaded.cfg == cfg
        assert_array_equal(loaded.pack(), flat32.astype(np.float64))
        # saving writes 64 bits, and the widened values survive exactly
        path = os.fspath(tmp_path / "net64.dmae")
        save_checkpoint(loaded, path)
        assert struct.unpack_from("<I", open(path, "rb").read(), 20) == (64,)
        assert_array_equal(load_checkpoint(path).pack(), loaded.pack())
        with pytest.raises(CorruptFile, match="float width"):
            load_checkpoint(write(16))

    @staticmethod
    def with_optimizer_blob(path: str, n_params: int) -> bytes:
        """The file at ``path`` as a writer that kept Adam's state wrote it:
        flag 2 set, then the step count, base rate and both moments."""
        raw = bytearray(open(path, "rb").read())
        (flags,) = struct.unpack_from("<I", raw, 24)
        struct.pack_into("<I", raw, 24, flags | 2)
        moments = np.random.default_rng(1).normal(size=2 * n_params).astype("<f8")
        return bytes(raw) + struct.pack("<Qd", 3, 1e-3) + moments.tobytes()

    def test_optimizer_state_is_read_and_dropped(self, tmp_path):
        cfg = small_config()
        mae = MaeParams(cfg)
        randomize(mae, seed=23)
        path = os.fspath(tmp_path / "opt.dmae")
        save_checkpoint(mae, path)
        raw = self.with_optimizer_blob(path, cfg.param_count)
        open(path, "wb").write(raw)
        loaded = load_checkpoint(path)
        assert_array_equal(loaded.pack(), mae.pack())
        # the blob's length is still checked
        for cut in (1, 8, 17):
            open(path, "wb").write(raw[:-cut])
            with pytest.raises(CorruptFile, match="optimizer state"):
                load_checkpoint(path)

    def test_conditioning_block_is_refused(self, tmp_path):
        path = os.fspath(tmp_path / "cond.dmae")
        header = struct.pack("<4sIIIIIII", b"DMAE", 1, 4, 8, 2, 64, 0, 2)
        open(path, "wb").write(header + bytes(8))
        with pytest.raises(CorruptFile, match="conditioning-block checkpoints are no longer read"):
            load_checkpoint(path)

    def test_every_truncation_names_the_file(self, tmp_path):
        cfg = small_config()
        mae = MaeParams(cfg)
        path = os.fspath(tmp_path / "cut.dmae")
        save_checkpoint(mae, path)
        raw = self.with_optimizer_blob(path, cfg.param_count)
        # every cut through the header and the count, then a spread of cuts
        # through the parameters and the optimizer blob
        cuts = sorted({*range(48), *range(48, len(raw), 97), len(raw) - 1})
        for k in cuts:
            open(path, "wb").write(raw[:k])
            with pytest.raises(CorruptFile, match="cut.dmae"):
                load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        mae = MaeParams(small_config())
        path = os.fspath(tmp_path / "bad.dmae")
        save_checkpoint(mae, path)
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "kw",
        [{}, {"flow_head": True}, {"blocks": 1}, {"blocks": 3, "width": 5}],
    )
    def test_param_count_matches_the_network(self, kw):
        cfg = small_config(**kw)
        assert MaeParams(cfg).pack().size == cfg.param_count

    def test_header_is_checked_before_the_network_is_built(self, tmp_path, monkeypatch):
        def refuse(self, cfg):
            raise AssertionError(f"network built for {cfg}")

        monkeypatch.setattr(MaeParams, "__init__", refuse)
        path = tmp_path / "head.dmae"
        for (num_vars, width, blocks), count, what in [
            ((4, 0, 2), 0, "positive"),
            ((0, 8, 2), 0, "positive"),
            ((4, 8, 0), 0, "positive"),
            ((4, 8, 2), 5, "implies"),
            # a huge width whose count matches: the parameters are then missing
            ((4, 2**31, 1), MaeConfig(4, 2**31, 1).param_count, "truncated parameters"),
        ]:
            header = struct.pack("<4sIIIIIII", b"DMAE", 1, num_vars, width, blocks, 64, 0, 0)
            path.write_bytes(header + struct.pack("<Q", count) + bytes(64))
            with pytest.raises(CorruptFile, match=f"head.dmae.*{what}"):
                load_checkpoint(str(path))

    # header fields small enough to load a whole network from the bytes that
    # follow, or large enough that the stored count or the file size refuses
    # them; the network is built only from parameters present in the file, so
    # no example can allocate more than its own few kilobytes
    _dims = st.integers(0, 3) | st.sampled_from([2**16, 2**31 - 1, 2**32 - 1])

    @settings(max_examples=300, deadline=None)
    @given(
        magic=st.sampled_from([b"DMAE", b"DMAX"]),
        version=st.sampled_from([1, 1, 1, 2]),
        dims=st.tuples(_dims, _dims, _dims),
        float_bits=st.sampled_from([32, 64, 64, 16]),
        flags=st.integers(0, 7),
        n_cond=st.integers(0, 2) | st.just(2**32 - 1),
        count=st.none() | st.integers(0, 2**64 - 1),
        tail=st.binary(max_size=2048),
    )
    def test_any_header_gives_a_network_or_flipmatch_error(
        self, magic, version, dims, float_bits, flags, n_cond, count, tail
    ):
        num_vars, width, blocks = dims
        head = struct.pack(
            "<4sIIIIIII", magic, version, num_vars, width, blocks, float_bits, flags, n_cond
        )
        if count is None and min(dims) > 0:
            # the count the header implies, so the parameters themselves are read
            implied = MaeConfig(num_vars, width, blocks, flow_head=bool(flags & 1))
            count = min(implied.param_count, 2**64 - 1)
        body = struct.pack("<Q", count or 0) + tail
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "net.dmae")
            with open(path, "wb") as fh:
                fh.write(head + body)
            try:
                mae = load_checkpoint(path)
            except FlipmatchError:
                return
            assert n_cond == 0
            assert mae.pack().size == mae.cfg.param_count <= len(tail) // 4

    def test_bad_version_rejected(self, tmp_path):
        mae = MaeParams(small_config())
        path = os.fspath(tmp_path / "ver.dmae")
        save_checkpoint(mae, path)
        raw = bytearray(open(path, "rb").read())
        raw[4] = 99
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        rng = np.random.default_rng(30)
        p = tape.param(rng.normal(size=6))
        start = p.data.copy()
        g = rng.uniform(0.5, 2.0, size=6) * np.where(rng.random(6) > 0.5, 1, -1)
        p.grad = g.copy()
        adam = AdamState([p], lr=1e-3, total_steps=100)
        adam.step()
        assert_allclose(start - p.data, 1e-3 * np.sign(g), rtol=1e-6)

    def test_constant_gradient_keeps_unit_steps(self):
        p = tape.param(np.zeros(3))
        g = np.array([1.0, -2.0, 0.5])
        adam = AdamState([p], lr=1e-2, total_steps=1000)
        for _ in range(5):
            p.grad = g.copy()
            adam.step()
        assert_allclose(p.data, -5 * 1e-2 * np.sign(g), rtol=1e-5)

    def test_milestone_schedule(self):
        p = tape.param(np.zeros(1))
        adam = AdamState([p], lr=1.0, total_steps=10)
        observed = []
        for _ in range(11):
            observed.append(adam.lr)
            p.grad = np.zeros(1)
            adam.step()
        # decays tenfold once 2, 4, 6, 8 and 9 of the 10 steps are done
        assert observed == [0.1**k for k in (0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 5)]

    def test_default_schedule_reaches_final_decade(self):
        p = tape.param(np.zeros(1))
        adam = AdamState([p], lr=1e-3, total_steps=100)
        for _ in range(100):
            p.grad = np.zeros(1)
            adam.step()
        assert adam.lr == pytest.approx(1e-3 * 0.1**5)

    def test_lr_multipliers(self):
        a = tape.param(np.zeros(2))
        b = tape.param(np.zeros(2))
        adam = AdamState([a, b], lr=1e-3, total_steps=10, lr_multipliers=[1.0, 100.0])
        a.grad = np.ones(2)
        b.grad = np.ones(2)
        adam.step()
        assert_allclose(b.data, 100.0 * a.data, rtol=1e-12)

    def test_multiplier_length_checked(self):
        with pytest.raises(ShapeMismatch):
            AdamState([tape.param(np.zeros(1))], lr_multipliers=[1.0, 2.0])

    def test_missing_gradient_means_no_movement_from_rest(self):
        p = tape.param(np.array([1.0, 2.0]))
        adam = AdamState([p], lr=1e-3, total_steps=10)
        adam.step()  # p.grad is None
        assert_array_equal(p.data, np.array([1.0, 2.0]))

    def test_non_finite_gradient_stops_the_step(self):
        p, q = tape.param(np.ones(2)), tape.param(np.ones(3))
        adam = AdamState([p, q], lr=1e-2, total_steps=10)
        p.grad = np.ones(2)
        q.grad = np.array([0.5, np.nan, 0.5])
        with pytest.raises(NonFiniteLoss, match="parameter 1"):
            adam.step()
        # nothing moved: not the finite parameter, not the moments, not the clock
        assert_array_equal(p.data, np.ones(2))
        assert_array_equal(q.data, np.ones(3))
        assert not any(m.any() or v.any() for m, v in zip(adam.m, adam.v))
        assert adam.step_count == 0
        q.grad = np.array([0.5, np.inf, 0.5])
        with pytest.raises(NonFiniteLoss):
            adam.step()

    def test_zero_grad_clears_all(self):
        p, q = tape.param(np.zeros(2)), tape.param(np.zeros(3))
        p.grad = np.ones(2)
        q.grad = np.ones(3)
        AdamState([p, q]).zero_grad()
        assert p.grad is None and q.grad is None
