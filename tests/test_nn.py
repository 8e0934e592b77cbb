"""Autodiff tape, sampler network, and optimizer tests.

The gradient contract everywhere: analytic gradients agree with central
finite differences at 64-bit precision.  Network checks additionally pin the
zero-initialization behaviour (a fresh sampler is exactly uniform) and exact
agreement between the taped and the gradient-free calls of the one forward.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from flipmatch.errors import CorruptFile, NonFiniteLoss, ShapeMismatch
from flipmatch.nn import AdamState, MaeConfig, MaeParams, load_checkpoint, save_checkpoint, tape

from oracles import central_diff, relative_error


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
        run_gradcheck([a, b], lambda x, y: tape.mul(tape.matmul(x, y), w).sum())

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
            [x, w, b], lambda a, m, c: tape.mul(tape.pick_affine(a, m, c, cols), out_w).sum()
        )
        # forward is the dense affine map read at each row's column
        out = tape.pick_affine(tape.const(x), tape.const(w), tape.const(b), cols)
        assert_allclose(out.data, (x @ w + b)[np.arange(6), cols], rtol=1e-14)

    def test_pick_affine_empty_batch(self):
        w = tape.param(np.ones((3, 4)))
        out = tape.pick_affine(tape.const(np.zeros((0, 3))), w, tape.param(np.zeros(4)), [])
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
            h = tape.log_sigmoid(tape.matmul(x, y)) + x * x
            return tape.segment_sum(tape.reshape(h, (6,)), seg, 3).square().mean()

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
        logits = mae.masked_logits(x, np.arange(6) % 4)
        assert_array_equal(logits.data, np.zeros(6))

    def test_same_seed_same_params(self):
        a = MaeParams(small_config(init_seed=7))
        b = MaeParams(small_config(init_seed=7))
        c = MaeParams(small_config(init_seed=8))
        assert_array_equal(a.pack(), b.pack())
        assert not np.array_equal(a.pack(), c.pack())

    def test_rejects_bad_input_width(self):
        mae = MaeParams(small_config())
        with pytest.raises(ShapeMismatch):
            mae.trunk(np.zeros((2, 5)))
        with pytest.raises(ShapeMismatch):
            mae.trunk_np(np.zeros((2, 5)))

    def test_tape_and_plain_forward_agree_exactly(self):
        # 1,200 rows is the size of a wavefront level batch, where the plain
        # forward's in-place buffers outgrow the cache
        for activation in ("relu", "elu"):
            for cond in ((), (1, 3)):
                for batch in (5, 1200):
                    cfg = small_config(activation=activation, cond_vars=cond, blocks=3)
                    mae = MaeParams(cfg)
                    randomize(mae, seed=11)
                    x = sample_inputs(cfg, batch, seed=2)
                    vs = np.resize([3, 0, 2, 3, 1], batch)
                    assert_array_equal(
                        mae.masked_logits(x, vs).data, mae.masked_logits_np(x, vs)
                    )

    def test_relu_maps_nan_to_zero_like_the_tape(self):
        cfg = small_config(activation="relu", blocks=1)
        mae = MaeParams(cfg)
        randomize(mae, seed=12)
        x = sample_inputs(cfg, 6, seed=3)
        x[2:4, 1] = np.nan
        plain = mae.trunk_np(x)
        assert_array_equal(plain[2:4], 0.0)
        assert_array_equal(mae.trunk(x).data, plain)

    def test_empty_rows_read_the_marginal_head(self):
        cfg = small_config()
        mae = MaeParams(cfg)
        randomize(mae, seed=5)
        mae.marginals.data = np.array([0.5, -1.0, 2.0, 0.0])
        x = sample_inputs(cfg, 4, seed=3, empty_rows=2)
        vs = np.array([1, 2, 0, 3])
        out = mae.masked_logits(x, vs).data
        assert out[0] == mae.marginals.data[1]
        assert out[1] == mae.marginals.data[2]
        assert out[3] != mae.marginals.data[3]

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("cond", [(), (1, 3)], ids=["plain", "cond"])
    def test_full_network_gradcheck(self, activation, blocks, cond):
        cfg = small_config(activation=activation, blocks=blocks, cond_vars=cond)
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
            return float(tape.mul(mae.masked_logits(xs, vs), weights).sum().data)

        flat0 = mae.pack()
        mae.zero_grad()
        tape.backward(tape.mul(mae.masked_logits(xs, vs), weights).sum())
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

    def test_flow_head_gradcheck(self):
        cfg = small_config(flow_head=True, blocks=1)
        mae = MaeParams(cfg)
        randomize(mae, seed=17)
        x = sample_inputs(cfg, 3, seed=6)
        weights = np.random.default_rng(7).normal(size=3)

        def loss_value(flat: np.ndarray) -> float:
            mae.unpack(flat)
            return float(tape.mul(mae.flow(mae.trunk(x)), weights).sum().data)

        flat0 = mae.pack()
        mae.zero_grad()
        tape.backward(tape.mul(mae.flow(mae.trunk(x)), weights).sum())
        analytic = np.concatenate(
            [
                (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
                for p in mae.params
            ]
        )
        numeric = central_diff(loss_value, flat0, h=1e-4)
        mae.unpack(flat0)
        err = relative_error(analytic, numeric, floor=1e-3)
        assert err.max() < 1e-4

    def test_flow_without_head_raises(self):
        mae = MaeParams(small_config())
        x = sample_inputs(mae.cfg, 2, seed=8)
        with pytest.raises(ShapeMismatch):
            mae.flow(mae.trunk(x))

    def test_shapes(self):
        cfg = small_config(flow_head=True, cond_vars=(0,))
        mae = MaeParams(cfg)
        x = np.zeros((5, cfg.input_width))
        x[:, -1] = 1.0
        h = mae.trunk(x)
        assert h.shape == (5, cfg.width)
        assert mae.logits(h, np.arange(5) % 4).shape == (5,)
        assert mae.flow(h).shape == (5,)

    def test_exactly_one_aux_group(self):
        mae = MaeParams(small_config())
        assert mae.groups.count("aux") == 1
        assert mae.names[mae.groups.index("aux")] == "marginals"


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = small_config(flow_head=True, cond_vars=(2, 3), activation="elu")
        mae = MaeParams(cfg)
        randomize(mae, seed=21)
        path = os.fspath(tmp_path / "net.dmae")
        save_checkpoint(mae, path)
        loaded, blob = load_checkpoint(path)
        assert blob is None
        assert loaded.cfg.num_vars == cfg.num_vars
        assert loaded.cfg.width == cfg.width
        assert loaded.cfg.blocks == cfg.blocks
        assert loaded.cfg.activation == "elu"
        assert loaded.cfg.cond_vars == (2, 3)
        assert loaded.cfg.flow_head
        assert_array_equal(loaded.pack(), mae.pack())
        x = sample_inputs(cfg, 4, seed=9)
        vs = np.arange(4)
        assert_array_equal(loaded.masked_logits(x, vs).data, mae.masked_logits(x, vs).data)

    def test_float32_storage(self, tmp_path):
        # a hand-built file storing its parameters at 32 bits still loads
        cfg = small_config(cond_vars=(2,), activation="elu")
        mae = MaeParams(cfg)
        randomize(mae, seed=22)
        flat32 = mae.pack().astype("<f4")

        def write(float_bits: int) -> str:
            path = os.fspath(tmp_path / f"net{float_bits}.dmae")
            header = struct.pack("<4sIIIIIII", b"DMAE", 1, 4, 8, 2, float_bits, 4, 1)
            body = struct.pack("<I", 2) + struct.pack("<Q", flat32.size) + flat32.tobytes()
            open(path, "wb").write(header + body)
            return path

        loaded, blob = load_checkpoint(write(32), init_seed=cfg.init_seed)
        assert blob is None
        assert loaded.cfg == cfg
        assert_array_equal(loaded.pack(), flat32.astype(np.float64))
        # saving writes 64 bits, and the widened values survive exactly
        path = os.fspath(tmp_path / "net64.dmae")
        save_checkpoint(loaded, path)
        assert struct.unpack_from("<I", open(path, "rb").read(), 20) == (64,)
        assert_array_equal(load_checkpoint(path)[0].pack(), loaded.pack())
        with pytest.raises(CorruptFile, match="float width"):
            load_checkpoint(write(16))

    def test_optimizer_state_round_trip(self, tmp_path):
        cfg = small_config()
        mae = MaeParams(cfg)
        randomize(mae, seed=23)
        adam = AdamState(mae.params, lr=1e-3, total_steps=100)
        x = sample_inputs(cfg, 3, seed=10)
        for _ in range(3):
            adam.zero_grad()
            tape.backward(mae.masked_logits(x, np.arange(3)).square().sum())
            adam.step()
        path = os.fspath(tmp_path / "opt.dmae")
        save_checkpoint(mae, path, adam=adam)
        loaded, blob = load_checkpoint(path)
        assert blob is not None
        step_count, base_lr, moments = blob
        assert step_count == 3
        assert base_lr == 1e-3
        restored = AdamState(loaded.params, lr=base_lr, total_steps=100)
        restored.unpack_moments(moments)
        restored.step_count = step_count
        assert_array_equal(restored.pack_moments(), adam.pack_moments())

    def test_every_truncation_names_the_file(self, tmp_path):
        cfg = small_config(cond_vars=(1,))
        mae = MaeParams(cfg)
        adam = AdamState(mae.params, lr=1e-3, total_steps=10)
        path = os.fspath(tmp_path / "cut.dmae")
        save_checkpoint(mae, path, adam=adam)
        raw = open(path, "rb").read()
        # every cut through the header, the conditioning block and the counts,
        # then a spread of cuts through the parameters and the Adam block
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
        adam = AdamState(
            [p], lr=1.0, total_steps=10, milestones=(0.2, 0.5), decay=0.5
        )
        observed = []
        for _ in range(6):
            observed.append(adam.lr)
            p.grad = np.zeros(1)
            adam.step()
        # decays once two steps are done, again after five
        assert observed == [1.0, 1.0, 0.5, 0.5, 0.5, 0.25]

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
        assert not adam.pack_moments().any()
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

    def test_moment_pack_unpack(self):
        p = tape.param(np.zeros((2, 2)))
        adam = AdamState([p], lr=1e-3, total_steps=10)
        p.grad = np.arange(4.0).reshape(2, 2)
        adam.step()
        blob = adam.pack_moments()
        fresh = AdamState([tape.param(np.zeros((2, 2)))], lr=1e-3, total_steps=10)
        fresh.unpack_moments(blob)
        assert_array_equal(fresh.m[0], adam.m[0])
        assert_array_equal(fresh.v[0], adam.v[0])
        with pytest.raises(ShapeMismatch):
            fresh.unpack_moments(blob[:-1])
