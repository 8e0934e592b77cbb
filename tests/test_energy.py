"""Energy-model tests: factor evaluation, flip ratios, enumeration oracle, IO."""

import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from flipmatch.energy import (
    ConditionalFactor,
    EnergyModel,
    FactorGraphModel,
    IsingModel,
    MlpFactor,
    TabularBayesNetModel,
    all_states,
    ebm_param_grad,
    enumerate_exact,
    random_factor_lattice,
    random_ising,
    read_model,
    write_model,
)
from flipmatch.errors import (
    CorruptFile,
    EmptyBatch,
    FlipmatchError,
    ShapeMismatch,
    TooLarge,
)
from flipmatch.graph import Imap, chain_graph, grid_graph, ladder_graph, random_graph, sample_imap
from flipmatch.sampler import _scan_levels, gibbs_chain
from oracles import (
    DenseIsingModel,
    central_diff,
    delta_log_reward,
    energy,
    exact_marginals,
    exact_sample,
    factors_touching,
    partial_reward,
    product_marginals,
    relative_error,
    sequential_flip_logits,
    state_prob,
    table_conditional,
    with_value,
)


# any JSON value, and model documents whose fields are either plausible or any
# JSON value: read_model must build a model from each or raise FlipmatchError
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_small = st.integers(-2, 5)
_model_docs = _json | st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["ising", "bayesnet", "factor_graph", "other"]) | _json,
        "num_vars": _small | _json,
        "sigma": st.floats(-1, 2) | _json,
        "edges": st.lists(st.lists(_small | st.floats(-1, 1), max_size=4), max_size=4) | _json,
        "bias": st.lists(st.floats(-1, 1), max_size=5) | _json,
        "arcs": st.lists(st.lists(_small, max_size=3), max_size=4) | _json,
        "topo_order": st.lists(_small, max_size=5) | _json,
        "tables": st.dictionaries(
            st.sampled_from(["0", "1", "2", "-1", "x"]),
            st.lists(st.floats(-2, 2), max_size=4),
            max_size=3,
        )
        | _json,
        "scopes": st.lists(st.lists(_small, max_size=5), max_size=3) | _json,
        "hidden": st.just(MlpFactor.HIDDEN) | _json,
        "weights_file": st.sampled_from(["m.json.bin", "m.json", ""]) | _json,
    }
)


def two_var_ising():
    """sigma=1, J01=0.5, b=0: the hand-computable reference model."""
    J = np.array([[0.0, 0.5], [0.5, 0.0]])
    return IsingModel(J, np.zeros(2), sigma=1.0)


class TestEnergy:
    def test_zero_model_is_flat(self):
        m = IsingModel(np.zeros((3, 3)), np.zeros(3), sigma=1.0)
        for x in all_states(3):
            assert energy(m, x) == 0.0

    def test_two_var_reference_values(self):
        m = two_var_ising()
        assert_allclose(energy(m, np.array([1, 1])), -1.0)
        assert_allclose(energy(m, np.array([1, -1])), 1.0)

    def test_ising_validation(self):
        with pytest.raises(ValueError):
            IsingModel(np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros(2))  # asymmetric
        with pytest.raises(ValueError):
            # within allclose of symmetric, but flip ratios read row u only
            IsingModel(np.array([[0.0, 1.0], [1.0 + 5e-9, 0.0]]), np.zeros(2))
        with pytest.raises(ValueError):
            IsingModel(np.eye(2), np.zeros(2))  # nonzero diagonal
        with pytest.raises(ValueError):
            IsingModel(np.zeros((2, 2)), np.zeros(2), sigma=0.0)
        with pytest.raises(ShapeMismatch):
            IsingModel(np.zeros((3, 3)), np.zeros(2))

    def test_batch_accepts_a_sequence_of_rows(self):
        rng = np.random.default_rng(1)
        m = random_ising(random_graph(6, 0.5, 2), sigma=0.7, seed=3)
        X = rng.choice([-1, 1], size=(5, 6)).astype(np.int8)
        assert_array_equal(m.log_reward_batch([list(row) for row in X]), m.log_reward_batch(X))
        with pytest.raises(EmptyBatch):
            m.log_reward_batch([])

    def test_fast_batch_matches_factor_sum(self):
        rng = np.random.default_rng(0)
        m = random_ising(random_graph(7, 0.4, 1), sigma=0.7, seed=2)
        X = rng.choice([-1, 1], size=(50, 7)).astype(np.int8)
        slow = np.zeros(50)
        for f in m.factors:
            slow += f.log_value(X[:, f.scope])
        assert_allclose(m.log_reward_batch(X), slow, rtol=1e-12)


class TestFactorsTouching:
    def test_chain_ising_counts(self):
        m = random_ising(chain_graph(4), seed=0)
        assert len(factors_touching(m, 0)) == 2  # one pairwise + one unary
        assert len(factors_touching(m, 1)) == 3  # two pairwise + one unary

    def test_mlp_lattice_scope_scan(self):
        m = random_factor_lattice(2, 3, seed=0)
        # plaquette scopes: (0,1,3,4) and (1,2,4,5); variable 1 sits in both
        expected = [k for k, f in enumerate(m.factors) if 1 in f.scope]
        assert list(factors_touching(m, 1)) == expected
        assert len(expected) == 2


class TestDeltaLogReward:
    def test_two_var_reference(self):
        m = two_var_ising()
        x = np.array([1, 1])
        assert_allclose(delta_log_reward(m, x, 0, -1), 2.0)

    def test_ising_gibbs_logit_matches_factor_sum(self):
        # the neighbour-list field against the generic sum over touching factors,
        # one variable and whole Gibbs levels at a time, also after new
        # couplings arrive through set_params
        rng = np.random.default_rng(6)
        m = random_ising(random_graph(8, 0.4, 2), sigma=0.7, seed=1)
        X = rng.choice([-1, 1], size=(16, 8)).astype(np.int8)
        for _ in range(2):
            for u in range(8):
                assert_allclose(
                    m.local_flip_logits(u, X),
                    EnergyModel.local_flip_logits(m, u, X),
                    rtol=0, atol=1e-12,
                )
            for us in _scan_levels(m.graph):
                got = m.local_flip_logits(us, X)
                assert got.shape == (len(us), 16)
                assert_allclose(got, EnergyModel.local_flip_logits(m, us, X), rtol=0, atol=1e-12)
                # a variable's logit does not depend on which others share the
                # call, and is the one-variable field of a float state bit for bit
                for i, u in enumerate(us.tolist()):
                    assert np.array_equal(got[i], m.local_flip_logits(u, X))
                    assert np.array_equal(got[i], sequential_flip_logits(m, u, X.astype(float)))
            m.set_params(rng.normal(size=m.num_params()))

    def test_antisymmetric_under_flip_back(self):
        rng = np.random.default_rng(3)
        m = random_ising(random_graph(6, 0.5, 4), sigma=0.9, seed=5)
        for _ in range(20):
            x = rng.choice([-1, 1], size=6).astype(np.int8)
            u = int(rng.integers(6))
            new = int(-x[u])
            fwd = delta_log_reward(m, x, u, new)
            back = delta_log_reward(m, with_value(x, u, new), u, int(x[u]))
            assert_allclose(fwd, -back, atol=1e-12)

    def test_matches_full_energy_difference(self):
        """delta = energy(x') - energy(x) on 200 random (model, x, u) triples."""
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(2, 11))
            if trial % 2 == 0:
                m = random_ising(random_graph(n, 0.45, rng), sigma=0.6, seed=rng)
            else:
                scopes_src = random_graph(n, 0.4, rng)
                m = FactorGraphModel(
                    n,
                    [MlpFactor.random((u, v), rng) for u, v in sorted(scopes_src.edges)]
                    or [MlpFactor.random((0,), rng)],
                )
            x = rng.choice([-1, 1], size=n).astype(np.int8)
            u = int(rng.integers(n))
            new = int(-x[u])
            expected = energy(m, with_value(x, u, new)) - energy(m, x)
            assert_allclose(delta_log_reward(m, x, u, new), expected, atol=1e-10)

    def test_reads_only_local_variables(self):
        """Perturbing variables outside u's neighborhood never changes the delta."""
        rng = np.random.default_rng(7)
        m = random_ising(chain_graph(8), sigma=0.5, seed=2)
        x = rng.choice([-1, 1], size=8).astype(np.int8)
        u = 3
        base = delta_log_reward(m, x, u, int(-x[u]))
        for far in [0, 1, 6, 7]:  # outside {2,3,4}
            y = with_value(x, far, int(-x[far]))
            assert delta_log_reward(m, y, u, int(-y[u])) == base

    def test_batch_matches_one_row_calls(self):
        rng = np.random.default_rng(9)
        m = random_ising(random_graph(7, 0.5, 3), sigma=1.1, seed=8)
        X = rng.choice([-1, 1], size=(30, 7)).astype(np.int8)
        us = rng.integers(7, size=30)
        new = (-X[np.arange(30), us]).astype(np.int8)
        batch = m.delta_log_reward_batch(X, us, new)
        for i in range(30):
            assert_allclose(
                batch[i], delta_log_reward(m, X[i], int(us[i]), int(new[i]))
            )


class TestPartialReward:
    """The zero-masked reward of a partial assignment is ``log_reward_batch``
    on its row with 0 at the masked variables."""

    def test_full_mask_equals_log_reward(self):
        rng = np.random.default_rng(2)
        m = random_factor_lattice(2, 2, seed=3)
        x = rng.choice([-1, 1], size=4).astype(np.int8)
        assert_allclose(partial_reward(m, x), -energy(m, x), atol=1e-12)

    def test_zero_masked_kills_incomplete_bilinear_terms(self):
        m = random_ising(chain_graph(3), sigma=0.8, seed=4)
        x = np.array([1, -1, 0])
        expected = 2 * 0.8 * m.J[0, 1] * -1 + 0.8 * (m.b[0] - m.b[1])
        assert_allclose(partial_reward(m, x), expected)

    def test_zero_masked_mlp_evaluates_literally_at_zero(self):
        rng = np.random.default_rng(5)
        f = MlpFactor.random((0, 1), rng)
        m = FactorGraphModel(2, [f])
        x = np.array([1, 0])
        by_hand = float(np.tanh(np.array([1.0, 0.0]) @ f.w1.T + f.b1) @ f.w2 + f.b2)
        assert_allclose(partial_reward(m, x), by_hand)

    def test_growth_touches_only_containing_factors(self):
        """Zero-masked: instantiating v changes only factors whose scope has v."""
        rng = np.random.default_rng(6)
        m = random_ising(random_graph(6, 0.5, 7), sigma=0.4, seed=8)
        x = np.array([1, -1, 0, 0, 1, 0], dtype=np.int8)
        v = 2
        grown = with_value(x, v, 1)
        diff = partial_reward(m, grown) - partial_reward(m, x)
        local = 0.0
        for k in factors_touching(m, v):
            f = m.factors[k]
            local += float(
                f.log_value(grown[None, list(f.scope)])[0]
                - f.log_value(x[None, list(f.scope)])[0]
            )
        assert_allclose(diff, local, atol=1e-12)

    def test_ising_edge_table_matches_factor_loop(self):
        # rows with zeros through Ising's edge table and through the generic
        # sum over its factors
        m = random_ising(grid_graph(4, 4), sigma=0.7, seed=3)
        X = np.random.default_rng(4).choice([-1, 0, 1], size=(40, 16)).astype(np.int8)
        want = EnergyModel.log_reward_batch(m, X)
        assert np.abs(want).max() > 1.0
        assert_allclose(m.log_reward_batch(X), want, rtol=1e-12, atol=1e-12)


class TestConditionalFactor:
    def test_multilinear_extension_averages_completions(self):
        rng = np.random.default_rng(8)
        f = ConditionalFactor(2, (0, 1), rng.normal(size=4))
        partial = np.array([[1, 0, -1]], dtype=np.int8)
        completions = np.array([[1, -1, -1], [1, 1, -1]], dtype=np.int8)
        expected = f.log_value(completions).mean()
        assert_allclose(f.log_value(partial)[0], expected, atol=1e-12)

    def test_normalized_per_config(self):
        rng = np.random.default_rng(9)
        f = ConditionalFactor(1, (0,), rng.normal(size=2))
        for pa in (-1, 1):
            both = np.array([[pa, 1], [pa, -1]], dtype=np.int8)
            assert_allclose(np.exp(f.log_value(both)).sum(), 1.0, atol=1e-12)


class TestEnumerateExact:
    def test_uniform_model(self):
        m = IsingModel(np.zeros((3, 3)), np.zeros(3), sigma=1.0)
        t = enumerate_exact(m)
        assert_allclose(t.log_z, 3 * np.log(2), atol=1e-12)
        assert_allclose(t.marginals, 0.5, atol=1e-12)
        assert_allclose(t.entropy(), 3 * np.log(2), atol=1e-12)

    def test_two_var_reference(self):
        t = enumerate_exact(two_var_ising())
        e = np.exp(1.0)
        assert_allclose(np.exp(t.log_z), 2 * e + 2 / e, rtol=1e-12)
        cond = table_conditional(t, 0, np.array([0, 1]))
        assert_allclose(cond, e / (e + 1 / e), rtol=1e-12)
        assert round(cond, 4) == 0.8808

    def test_probs_sum_to_one(self):
        t = enumerate_exact(random_ising(random_graph(8, 0.4, 0), sigma=0.5, seed=1))
        assert_allclose(t.full_probs.sum(), 1.0, atol=1e-9)

    @pytest.mark.parametrize("sigma", [0.2, 1.0, 3.0])
    def test_marginals_match_the_exact_sum(self, sigma):
        m = random_ising(chain_graph(18), sigma=sigma, seed=18)
        t = enumerate_exact(m)
        exact = exact_marginals(t.full_probs, 18)
        assert np.abs(t.marginals - exact).max() <= 1e-15
        # the product with a float copy of the states sums 2^18 rows in one
        # BLAS pass and is off the exact sum by up to about 1.5e-13 here
        assert_allclose(t.marginals, product_marginals(t.full_probs, 18), rtol=0, atol=1e-12)

    def test_marginals_need_no_float_copy_of_the_states(self):
        n = 18
        m = random_ising(chain_graph(n), seed=0)
        tracemalloc.start()
        try:
            enumerate_exact(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int8 states and a few 2^n float vectors: a float64 copy of the
        # states alone would take 8 bytes per entry
        assert peak < 4 * (1 << n) * n

    def test_too_large_rejected(self):
        m = IsingModel(np.zeros((21, 21)), np.zeros(21), sigma=1.0)
        with pytest.raises(TooLarge):
            enumerate_exact(m)

    def test_conditional_ignores_non_blanket_variables(self):
        """P(x_u | blanket) is unchanged by conditioning extra far variables."""
        m = random_ising(chain_graph(6), sigma=0.7, seed=3)
        t = enumerate_exact(m)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.choice([-1, 1], size=6).astype(np.int8)
            u = 2
            blanket_only = np.zeros(6, dtype=np.int8)
            for w in (1, 3):  # chain neighborhood of 2
                blanket_only = with_value(blanket_only, w, int(x[w]))
            assert_allclose(
                table_conditional(t, u, x), table_conditional(t, u, blanket_only), atol=1e-12
            )

    def test_chained_conditionals_reproduce_joint(self):
        """Multiplying I-map conditionals recovers full_probs exactly."""
        m = random_ising(random_graph(6, 0.5, 5), sigma=0.6, seed=6)
        t = enumerate_exact(m)
        imap = sample_imap(m.graph, 0)
        rng = np.random.default_rng(7)
        for _ in range(15):
            x = rng.choice([-1, 1], size=6).astype(np.int8)
            logp = 0.0
            for v in imap.topo_order:
                pa = np.zeros(6, dtype=np.int8)
                for w in imap.parents[v]:
                    pa = with_value(pa, w, int(x[w]))
                p_plus = table_conditional(t, v, pa)
                logp += np.log(p_plus if x[v] == 1 else 1 - p_plus)
            assert_allclose(np.exp(logp), state_prob(t, x), rtol=1e-9)


class TestExactSample:
    def test_uniform_frequencies(self):
        m = IsingModel(np.zeros((2, 2)), np.zeros(2), sigma=1.0)
        t = enumerate_exact(m)
        X = t.sample_matrix(100_000, seed=0)
        for state in all_states(2):
            freq = np.mean(np.all(X == state, axis=1))
            assert abs(freq - 0.25) < 0.01

    def test_two_var_reference_three_sigma(self):
        t = enumerate_exact(two_var_ising())
        n = 50_000
        X = t.sample_matrix(n, seed=1)
        p = state_prob(t, np.array([1, 1]))
        freq = np.mean(np.all(X == 1, axis=1))
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_empty_draw(self):
        t = enumerate_exact(two_var_ising())
        assert exact_sample(t, 0, seed=0) == []


class TestEbmParamGrad:
    def test_identical_batches_cancel(self):
        m = random_ising(chain_graph(4), sigma=0.5, seed=0)
        X = enumerate_exact(m).sample_matrix(64, seed=1)
        assert_allclose(ebm_param_grad(m, X, X), 0.0, atol=1e-14)

    def test_empty_batch_rejected(self):
        m = two_var_ising()
        with pytest.raises(EmptyBatch):
            ebm_param_grad(m, [], [])

    def _fd_check(self, m, n, seed):
        t = enumerate_exact(m)
        data = t.sample_matrix(40, seed=seed)
        states = all_states(n)
        psi0 = m.get_params()

        def loglik(psi):
            m.set_params(psi)
            value = m.log_reward_batch(data).mean() - enumerate_exact(m).log_z
            m.set_params(psi0)
            return value

        analytic = ebm_param_grad(m, data, states, model_weights=t.full_probs)
        numeric = central_diff(loglik, psi0, h=1e-4)
        assert relative_error(analytic, numeric).max() < 1e-4

    def test_ising_gradient_matches_finite_differences(self):
        self._fd_check(random_ising(chain_graph(3), sigma=0.9, seed=2), 3, seed=3)

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        m = FactorGraphModel(
            3, [MlpFactor.random((0, 1), rng), MlpFactor.random((1, 2), rng)]
        )
        self._fd_check(m, 3, seed=5)

    def test_step_raises_loglik_of_single_point(self):
        m = random_ising(chain_graph(3), sigma=0.8, seed=6)
        t = enumerate_exact(m)
        x = t.sample_matrix(1, seed=7)
        grad = ebm_param_grad(m, x, all_states(3), model_weights=t.full_probs)
        before = m.log_reward_batch(x)[0] - t.log_z
        m.set_params(m.get_params() + 0.01 * grad)
        after = m.log_reward_batch(x)[0] - enumerate_exact(m).log_z
        assert after > before


class TestBayesNet:
    def make_net(self, seed=0):
        dag = Imap.from_parents(3, (0, 1, 2), ((), (0,), (1,)))
        rng = np.random.default_rng(seed)
        tables = {0: rng.normal(size=1), 1: rng.normal(size=2), 2: rng.normal(size=2)}
        return TabularBayesNetModel(dag, tables)

    def test_normalized(self):
        t = enumerate_exact(self.make_net())
        assert_allclose(t.log_z, 0.0, atol=1e-10)

    def test_sampler_matches_enumeration(self):
        m = self.make_net(1)
        t = enumerate_exact(m)
        X = m.sample(200_000, seed=2)
        emp = np.array([np.mean(np.all(X == s, axis=1)) for s in all_states(3)])
        assert np.abs(emp - t.full_probs).max() < 0.005

    def test_gradient_matches_finite_differences(self):
        m = self.make_net(3)
        data = m.sample(30, seed=4)
        psi0 = m.get_params()

        def loglik(psi):
            m.set_params(psi)
            value = m.log_reward_batch(data).mean()
            m.set_params(psi0)
            return value

        analytic = m.log_reward_grad_mean(data)
        numeric = central_diff(loglik, psi0)
        assert relative_error(analytic, numeric).max() < 1e-6


# a bayesnet document as write_model writes it; x1 has parents 0 and 2, so
# bit 0 of its table index is set when x0 = +1 and bit 1 when x2 = +1
_BAYESNET_DOC = """\
{
  "kind": "bayesnet",
  "num_vars": 3,
  "topo_order": [
    0,
    2,
    1
  ],
  "arcs": [
    [
      0,
      1
    ],
    [
      2,
      1
    ]
  ],
  "tables": {
    "0": [
      0.5
    ],
    "1": [
      0.25,
      -0.75,
      1.5,
      -2.0
    ],
    "2": [
      -1.0
    ]
  }
}
"""


def _log_sigmoid(z: float) -> float:
    return -math.log1p(math.exp(-z))


class TestBayesNetFile:
    """A bayesnet file keeps its meaning: what it reads to and writes back as."""

    def test_reads_to_hand_computed_log_rewards_and_writes_back(self, tmp_path):
        path = tmp_path / "bn.json"
        path.write_text(_BAYESNET_DOC)
        m = read_model(str(path))
        table1 = {(-1, -1): 0.25, (1, -1): -0.75, (-1, 1): 1.5, (1, 1): -2.0}
        X = all_states(3)
        want = [
            _log_sigmoid(0.5 * x0) + _log_sigmoid(-1.0 * x2) + _log_sigmoid(x1 * table1[x0, x2])
            for x0, x1, x2 in X.tolist()
        ]
        assert_allclose(m.log_reward_batch(X), want, rtol=1e-12, atol=0)
        again = tmp_path / "again.json"
        write_model(m, str(again))
        assert again.read_text() == _BAYESNET_DOC

    @pytest.mark.parametrize(
        "change",
        [
            lambda doc: doc.update(topo_order=[0, 1, 2]),
            lambda doc: doc["arcs"].append([0, 3]),
            lambda doc: doc.update(topo_order=[0, 2, 1, 2]),
            lambda doc: doc["tables"].pop("2"),
            lambda doc: doc.update(topo_order=["0", "2", "1"], arcs=[["0", "1"], ["2", "1"]]),
        ],
        ids=[
            "arc-against-order",
            "arc-to-vertex-outside",
            "repeated-vertex",
            "missing-table",
            "string-vertex-ids",
        ],
    )
    def test_corrupt_document_names_the_file(self, change, tmp_path):
        doc = json.loads(_BAYESNET_DOC)
        change(doc)
        path = tmp_path / "bad_bn.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptFile, match="bad_bn.json"):
            read_model(str(path))


class TestModelIO:
    def test_ising_roundtrip(self, tmp_path):
        m = random_ising(random_graph(6, 0.5, 0), sigma=0.3, seed=1)
        path = str(tmp_path / "m.json")
        write_model(m, path)
        back = read_model(path)
        assert isinstance(back, IsingModel)
        assert_allclose(back.J, m.J)
        assert_allclose(back.b, m.b)
        assert back.sigma == m.sigma

    def test_factor_graph_roundtrip_float32_payload(self, tmp_path):
        m = random_factor_lattice(2, 3, seed=2)
        path = str(tmp_path / "fg.json")
        write_model(m, path)
        back = read_model(path)
        X = all_states(6)
        assert_allclose(back.log_reward_batch(X), m.log_reward_batch(X), atol=1e-4)

    def test_bayesnet_roundtrip(self, tmp_path):
        dag = Imap.from_parents(3, (0, 1, 2), ((), (), (0, 1)))
        m = TabularBayesNetModel(
            dag, {0: np.array([0.3]), 1: np.array([-0.2]), 2: np.arange(4) / 3.0}
        )
        path = str(tmp_path / "bn.json")
        write_model(m, path)
        back = read_model(path)
        assert_allclose(
            back.log_reward_batch(all_states(3)), m.log_reward_batch(all_states(3))
        )

    def test_truncated_sidecar_names_the_file(self, tmp_path):
        m = random_factor_lattice(2, 2, seed=3)
        path = str(tmp_path / "fg.json")
        write_model(m, path)
        side = tmp_path / "fg.json.bin"
        payload = side.read_bytes()
        for k in (0, 10, 15, 16, len(payload) - 1):
            side.write_bytes(payload[:k])
            with pytest.raises(CorruptFile, match="fg.json.bin"):
                read_model(path)

    @given(doc=_model_docs)
    @settings(max_examples=300, deadline=None)
    def test_read_model_on_any_json_builds_a_model_or_raises_flipmatch_error(self, doc):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            try:
                m = read_model(path)
            except FlipmatchError:
                return
            assert isinstance(m, EnergyModel)

    def test_sidecar_magic_checked(self, tmp_path):
        m = random_factor_lattice(2, 2, seed=3)
        path = str(tmp_path / "fg.json")
        write_model(m, path)
        bad = tmp_path / "fg.json.bin"
        payload = bad.read_bytes()
        bad.write_bytes(b"XXXX" + payload[4:])
        with pytest.raises(ValueError):
            read_model(path)


def edge_table_pair(couplings: str, graph: str, seed: int):
    """An Ising model and its dense-J oracle on the same couplings: +-1
    couplings and biases as ``random_ising`` draws them, or normal ones."""
    g = random_graph(13, 0.35, seed) if graph == "random" else grid_graph(5, 6)
    if couplings == "pm1":
        m = random_ising(g, sigma=0.3, seed=seed)
        return m, DenseIsingModel(m.J, m.b, m.sigma)
    rng = np.random.default_rng(seed)
    J = np.zeros((g.num_vars, g.num_vars))
    for u, v in sorted(g.edges):
        J[u, v] = J[v, u] = rng.normal()
    b = rng.normal(size=g.num_vars)
    return IsingModel(J, b, 0.7), DenseIsingModel(J, b, 0.7)


def flip_batch(m, rows: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, m.num_vars))
    us = rng.integers(0, m.num_vars, rows)
    return X, us, -X[np.arange(rows), us]


class TestIsingEdgeTable:
    """The couplings sit in a table beside the neighbour table; every method
    that read the dense J gives what it gave, bit for bit where the sums are
    exact or laid out as before."""

    CASES = [(c, g) for c in ("pm1", "normal") for g in ("random", "grid")]

    @pytest.mark.parametrize("couplings,graph", CASES)
    def test_gibbs_and_flip_logits_are_the_dense_bits(self, couplings, graph):
        m, dense = edge_table_pair(couplings, graph, seed=4)
        for chains, sweeps in ((1, 3), (37, 4)):
            assert_array_equal(
                gibbs_chain(m, chains, sweeps, seed=9), gibbs_chain(dense, chains, sweeps, seed=9)
            )
        Xv = np.random.default_rng(5).choice([-1.0, 1.0], size=(m.num_vars, 40))
        everyone = np.arange(m.num_vars)
        assert_array_equal(
            m.local_flip_logits(everyone, Xv.T), dense.local_flip_logits(everyone, Xv.T)
        )
        assert_array_equal(m.local_flip_logits(3, Xv.T), dense.local_flip_logits(3, Xv.T))

    @pytest.mark.parametrize("couplings,graph", CASES)
    def test_rewards_and_deltas(self, couplings, graph):
        m, dense = edge_table_pair(couplings, graph, seed=6)
        X, us, new_vals = flip_batch(m, 300, seed=7)
        got = (m.log_reward_batch(X), m.delta_log_reward_batch(X, us, new_vals))
        want = (dense.log_reward_batch(X), dense.delta_log_reward_batch(X, us, new_vals))
        for g, w in zip(got, want):
            if couplings == "pm1":
                assert_array_equal(g, w)
            else:
                assert_allclose(g, w, rtol=1e-12, atol=0)
        # int8 states multiply exactly, as float64 ones do
        assert_array_equal(m.log_reward_batch(X.astype(np.float64)), got[0])
        # a delta reads u's neighbours alone: the others may hold anything
        far = X.copy()
        for i, u in enumerate(us):
            others = np.setdiff1d(np.arange(m.num_vars), [u, *m.graph.neighbors(u)])
            far[i, others] = 0
        assert_array_equal(m.delta_log_reward_batch(far, us, new_vals), got[1])

    @pytest.mark.parametrize("couplings", ["pm1", "normal"])
    def test_params_round_trip(self, couplings):
        m, dense = edge_table_pair(couplings, "random", seed=8)
        assert_array_equal(m.get_params(), dense.get_params())
        flat = np.random.default_rng(9).normal(size=m.num_params())
        m.set_params(flat)
        dense.set_params(flat)
        assert_array_equal(m.get_params(), flat)
        assert_array_equal(m.J, dense.dense_J)
        assert [f.weight for f in m.factors] == [f.weight for f in dense.factors]
        X, us, new_vals = flip_batch(m, 50, seed=10)
        assert_allclose(m.log_reward_batch(X), dense.log_reward_batch(X), rtol=1e-12, atol=0)
        everyone = np.arange(m.num_vars)
        assert_array_equal(m.local_flip_logits(everyone, X), dense.local_flip_logits(everyone, X))

    def test_J_is_the_constructors(self):
        rng = np.random.default_rng(11)
        J = np.triu(rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4), 1)
        J = J + J.T
        m = IsingModel(J, rng.normal(size=9))
        assert_array_equal(m.J, J)
        assert not m.J.flags.writeable
        assert m.edges == tuple(zip(*(a.tolist() for a in np.nonzero(np.triu(J, 1)))))
        assert_array_equal(m._coup[m._nbrs < 0], 0.0)

    @pytest.mark.parametrize("couplings", ["pm1", "normal"])
    def test_file_round_trip(self, couplings, tmp_path):
        m, _ = edge_table_pair(couplings, "random", seed=12)
        path = str(tmp_path / "m.json")
        write_model(m, path)
        back = read_model(path)
        assert back.edges == m.edges and back.sigma == m.sigma
        for name in ("_nbrs", "_coup", "b"):
            assert_array_equal(getattr(back, name), getattr(m, name))
        assert_array_equal(back.J, m.J)

    def test_from_edges_reads_an_edge_list_as_a_dense_J_would(self):
        # either way round, listed twice (the last weight wins), zero-weight
        # edges and zero-weight self-loops dropped
        edges = [(3, 1), (0, 2), (1, 3), (2, 4), (4, 4), (0, 4)]
        weights = [0.5, -1.0, 0.25, 0.0, 0.0, 2.0]
        b = np.arange(5) / 4.0
        m = IsingModel.from_edges(5, edges, weights, b, sigma=0.4)
        J = np.zeros((5, 5))
        for (u, v), w in zip(edges, weights):
            J[u, v] = J[v, u] = w
        want = DenseIsingModel(J, b, 0.4)
        assert m.edges == want.edges == ((0, 2), (0, 4), (1, 3))
        assert_array_equal(m.J, J)
        X = all_states(5)
        assert_array_equal(m.log_reward_batch(X), want.log_reward_batch(X))
        assert [f.weight for f in m.factors] == [f.weight for f in want.factors]
        empty = IsingModel.from_edges(3, [], [], np.zeros(3))
        assert empty.edges == () and empty._nbrs.shape == (3, 0)
        assert_array_equal(empty.log_reward_batch(all_states(3)), 0.0)

    @pytest.mark.parametrize(
        "edges,weights,error",
        [
            ([(1, 1)], [0.5], ValueError),
            ([(0, 5)], [1.0], ValueError),
            ([(-1, 2)], [1.0], ValueError),
            ([(0, 1)], [np.nan], ValueError),
            ([(0, 1)], [1.0, 2.0], ShapeMismatch),
            ([(0, 1, 2)], [1.0], ValueError),
            ([(0.0, 1.0)], [1.0], ValueError),
        ],
    )
    def test_from_edges_rejects(self, edges, weights, error):
        with pytest.raises(error):
            IsingModel.from_edges(5, edges, weights, np.zeros(5))

    @pytest.mark.parametrize(
        "edges",
        [
            [[1, 1, 0.5]],
            [[0, 3, 1.0]],
            [[-1, 0, 1.0]],
            [[0.0, 1, 1.0]],
            [[0, 1, None]],
            [[0, 1, "x"]],
        ],
        ids=["self-loop", "past-the-end", "negative", "float-id", "no-weight", "text-weight"],
    )
    def test_reader_rejects_bad_edges(self, edges, tmp_path):
        path = tmp_path / "bad_ising.json"
        doc = {"kind": "ising", "num_vars": 3, "sigma": 0.2, "edges": edges, "bias": [0, 0, 0]}
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptFile, match="bad_ising.json"):
            read_model(str(path))

    def test_random_ising_builds_no_dense_matrix(self):
        # 4,096 spins: a dense J is 134 MB; the tables, factors and graph of
        # the 8,189 edges trace 7.9 MB
        g = ladder_graph(2048)
        tracemalloc.start()
        try:
            random_ising(g, sigma=0.2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_read_model_builds_no_dense_matrix(self, tmp_path):
        # the model above as read from its file: 9.1 MB
        m = random_ising(ladder_graph(2048), sigma=0.2, seed=0)
        path = str(tmp_path / "ladder.json")
        write_model(m, path)
        tracemalloc.start()
        try:
            back = read_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.edges == m.edges
        assert peak < 16e6
