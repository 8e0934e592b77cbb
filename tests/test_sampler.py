"""Sampler tests: conditionals, ancestral draws, policies, Gibbs.

The recurring reference point is a network whose output head was solved (not
trained) to reproduce the exact conditionals of an enumerated model — see
oracles.fit_sampler_exactly.  Such a sampler must score every state exactly
like the target distribution, under every I-map it was fitted for.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from flipmatch.energy import (
    IsingModel,
    enumerate_exact,
    random_factor_lattice,
    random_ising,
)
from flipmatch.errors import ConfigError, PartialAssignment, ShapeMismatch
from flipmatch.graph import (
    UndirectedGraph,
    _elimination_imap,
    _mask_of,
    chain_graph,
    cycle_graph,
    grid_graph,
    ladder_graph,
    min_fill_chordalize,
    random_graph,
    sample_imap,
    sub_imap,
)
from flipmatch.harness import latent_imap
from flipmatch.nn import MaeConfig, MaeParams
from flipmatch.sampler import (
    AmortizedSampler,
    AnnealSchedule,
    Policy,
    _scan_levels,
    gibbs_chain,
    masked_parent_rows,
)

from oracles import (
    TabularSampler,
    all_states,
    conditional_logprob,
    dense_log_prob_batch,
    dense_parent_rows,
    dense_run_order,
    fit_sampler_exactly,
    imap_arcs,
    level_walk,
    log_marginal_at,
    log_prob,
    partial_sample,
    scatter_compact,
    sequential_flip_logits,
    sequential_gibbs,
    sequential_log_prob_batch,
    sequential_run_order,
    table_conditional,
)


def two_var_ising() -> IsingModel:
    J = np.array([[0.0, 0.5], [0.5, 0.0]])
    b = np.zeros(2)
    return IsingModel(J, b, sigma=1.0)


def fresh_sampler(num_vars: int, width: int = 8, seed: int = 0, **kw) -> AmortizedSampler:
    cfg = MaeConfig(num_vars=num_vars, width=width, blocks=2, activation="elu", init_seed=seed, **kw)
    return AmortizedSampler(MaeParams(cfg))


def randomized_sampler(num_vars: int, width: int = 16, seed: int = 0) -> AmortizedSampler:
    s = fresh_sampler(num_vars, width=width, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    flat = s.params.pack()
    s.params.unpack(flat + rng.normal(0, 0.4, flat.shape))
    return s


def fitted_sampler(model, imaps, width: int = 32, seed: int = 0):
    """A sampler whose conditionals exactly match the model, plus its table."""
    table = enumerate_exact(model)
    s = randomized_sampler(model.num_vars, width=width, seed=seed)
    residual = fit_sampler_exactly(s.params, imaps, table)
    assert residual < 1e-8
    return s, table


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Policy(kind="greedy")
        with pytest.raises(ConfigError):
            Policy.tempered(0.0)
        with pytest.raises(ConfigError):
            Policy.eps_uniform(1.5)

    def test_on_policy_is_identity(self):
        logits = np.array([-3.0, 0.0, 2.0])
        expected = 1.0 / (1.0 + np.exp(-logits))
        assert_allclose(Policy.on_policy().plus_probability(logits), expected)

    def test_tempered_divides_logits(self):
        logits = np.array([-4.0, 1.0, 7.0])
        got = Policy.tempered(2.0).plus_probability(logits)
        expected = 1.0 / (1.0 + np.exp(-logits / 2.0))
        assert_allclose(got, expected)

    def test_tempered_limit_is_uniform(self):
        logits = np.array([-500.0, 300.0, 12.0])
        got = Policy.tempered(1e9).plus_probability(logits)
        assert_allclose(got, 0.5, atol=1e-6)

    def test_eps_uniform_mixture(self):
        logits = np.array([-1.0, 5.0])
        p_on = 1.0 / (1.0 + np.exp(-logits))
        got = Policy.eps_uniform(0.1).plus_probability(logits)
        assert_allclose(got, 0.9 * p_on + 0.05)


class TestMaskedParentRows:
    def test_masks_to_exactly_the_parents(self):
        g = chain_graph(4)
        imap = sample_imap(g, seed=3)
        X = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
        vs = np.array([2, 2])
        rows = scatter_compact(*masked_parent_rows(imap.parent_table[imap.positions(vs)], X, vs), 4)
        ps = set(imap.parents[2])
        for j in range(4):
            if j in ps:
                assert_array_equal(rows[:, j], X[:, j])
            else:
                assert_array_equal(rows[:, j], 0.0)

    def test_compact_rows_stand_for_the_dense_rows(self):
        g = grid_graph(5, 5)
        rng = np.random.default_rng(4)
        X = rng.choice([-1.0, 1.0], size=(40, 25))
        for imap in [sample_imap(g, seed=1), sub_imap(g, 12, seed=2), sub_imap(g, 0, seed=3)]:
            # all but the variables with the most parents
            widest = imap.parent_table.shape[1]
            vs = rng.choice([v for v in imap.order if len(imap.parents[v]) < widest], size=len(X))
            parents = imap.parent_table[imap.positions(vs)]
            values, cols = masked_parent_rows(parents, X, vs)
            counts = (cols >= 0).sum(axis=1)
            assert_array_equal(counts, [len(imap.parents[v]) for v in vs])
            assert cols.shape[1] == counts.max() < widest  # trimmed to the batch's widest
            assert_array_equal(values[cols < 0], 0.0)
            assert_array_equal(scatter_compact(values, cols, 25), dense_parent_rows(imap, X, vs))
            # row i may read another row of X
            at = rng.permutation(len(X))
            moved = masked_parent_rows(parents, X, vs, at)
            assert_array_equal(moved[1], cols)
            assert_array_equal(scatter_compact(*moved, 25), dense_parent_rows(imap, X[at], vs))


class TestConditionalLogprob:
    def test_zero_params_gives_half(self):
        g = cycle_graph(5)
        imap = sample_imap(g, seed=0)
        s = fresh_sampler(5)
        x = np.ones(5, dtype=np.int8)
        for v in range(5):
            assert conditional_logprob(s, imap, v, x) == pytest.approx(np.log(0.5))

    def test_two_values_sum_to_one(self):
        g = chain_graph(4)
        imap = sample_imap(g, seed=1)
        s = randomized_sampler(4, seed=5)
        x = np.array([1, -1, 1, 1], dtype=np.int8)
        for v in range(4):
            x_plus = x.copy()
            x_plus[v] = 1
            x_minus = x.copy()
            x_minus[v] = -1
            total = np.exp(conditional_logprob(s, imap, v, x_plus)) + np.exp(
                conditional_logprob(s, imap, v, x_minus)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_fitted_sampler_matches_enumeration(self):
        m = two_var_ising()
        imap = sample_imap(m.graph, seed=0)
        s, table = fitted_sampler(m, [imap])
        for bits in all_states(2):
            x = bits
            for v in range(2):
                got = np.exp(conditional_logprob(s, imap, v, x))
                parents_only = bits.copy()
                keep = set(imap.parents[v]) | {v}
                for j in range(2):
                    if j not in keep:
                        parents_only[j] = 0
                want = table_conditional(table, v, parents_only)
                if bits[v] == -1:
                    want = 1.0 - want
                assert got == pytest.approx(want, abs=1e-3)

    def test_reads_only_parents(self):
        # changing a non-parent coordinate must not move the conditional
        g = chain_graph(5)
        imap = sample_imap(g, seed=7)
        s = randomized_sampler(5, seed=9)
        v = next(v for v in range(5) if imap.parents[v])
        outside = [w for w in range(5) if w != v and w not in imap.parents[v]]
        x = np.ones(5, dtype=np.int8)
        base = conditional_logprob(s, imap, v, x)
        for w in outside:
            y = x.copy()
            y[w] = -1
            assert conditional_logprob(s, imap, v, y) == base


class TestAncestralSample:
    def test_zero_params_is_uniform(self):
        g = chain_graph(4)
        imap = sample_imap(g, seed=0)
        s = fresh_sampler(4)
        X, logq = s.ancestral_sample(imap, Policy.on_policy(), 100_000, seed=1)
        freq = (X == 1).mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.005)
        assert_allclose(logq, -4 * np.log(2))

    def test_tempered_limit_ignores_params(self):
        g = chain_graph(3)
        imap = sample_imap(g, seed=1)
        s = randomized_sampler(3, seed=3)
        s.params.marginals.data += 50.0  # wildly biased marginals
        X, _ = s.ancestral_sample(imap, Policy.tempered(1e9), 50_000, seed=2)
        freq = (X == 1).mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.01)

    def test_fitted_sampler_matches_joint(self):
        m = two_var_ising()
        imap = sample_imap(m.graph, seed=0)
        s, table = fitted_sampler(m, [imap])
        n = 40_000
        X, _ = s.ancestral_sample(imap, Policy.on_policy(), n, seed=4)
        states = all_states(2)
        for i, state in enumerate(states):
            p = table.full_probs[i]
            emp = np.all(X == state, axis=1).mean()
            se = np.sqrt(p * (1 - p) / n)
            assert abs(emp - p) <= 3 * se

    def test_reported_logq_is_model_logq_under_any_policy(self):
        g = cycle_graph(4)
        imap = sample_imap(g, seed=2)
        s = randomized_sampler(4, seed=11)
        for policy in (Policy.on_policy(), Policy.eps_uniform(0.3), Policy.tempered(2.0)):
            X, logq = s.ancestral_sample(imap, policy, 64, seed=5)
            assert_allclose(logq, s.log_prob_batch(imap, X), atol=1e-12)

    def test_rejects_partial_imap(self):
        g = chain_graph(4)
        sub = sub_imap(g, 1, seed=0)
        s = fresh_sampler(4)
        with pytest.raises(ConfigError):
            s.ancestral_sample(sub, Policy.on_policy(), 4, seed=0)


class TestPartialSample:
    def test_chain_interior_blanket(self):
        g = chain_graph(4)
        sub = sub_imap(g, 1, seed=0)
        s = randomized_sampler(4, seed=1)
        x = partial_sample(s, sub, Policy.on_policy(), seed=9)
        assert tuple(np.flatnonzero(x)) == (0, 1, 2)

    def test_isolated_vertex(self):
        g = UndirectedGraph.from_edges(3, [(0, 1)])
        sub = sub_imap(g, 2, seed=0)
        s = randomized_sampler(3, seed=2)
        x = partial_sample(s, sub, Policy.on_policy(), seed=0)
        assert tuple(np.flatnonzero(x)) == (2,)

    def test_batch_instantiates_exactly_the_subset(self):
        g = grid_graph(3, 3)
        for u in range(9):
            sub = sub_imap(g, u, seed=u)
            s = randomized_sampler(9, seed=3)
            X = s.partial_sample_batch(sub, Policy.on_policy(), 8, seed=u)
            covered = sorted(sub.vertices)
            nonzero = np.flatnonzero(np.any(X != 0, axis=0))
            assert list(nonzero) == covered
            assert np.all(X[:, covered] != 0)

    def test_instantiation_cost_is_local(self):
        g = grid_graph(6, 6)
        chordal = min_fill_chordalize(g, 0)
        max_blanket = max(len(chordal.neighbors(v)) for v in range(36))
        for u in (0, 7, 14, 35):
            sub = sub_imap(g, u, seed=u)
            assert len(sub.vertices) <= 1 + max_blanket < 36


class TestLogProb:
    def test_zero_params_value(self):
        for n, g in ((3, chain_graph(3)), (6, cycle_graph(6))):
            imap = sample_imap(g, seed=0)
            s = fresh_sampler(n)
            x = np.ones(n, dtype=np.int8)
            assert log_prob(s, imap, x) == pytest.approx(-n * np.log(2))

    def test_normalization_over_all_states(self):
        g = cycle_graph(6)
        imap = sample_imap(g, seed=3)
        s = randomized_sampler(6, seed=21)
        total = np.exp(s.log_prob_batch(imap, all_states(6))).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_partial_assignment_rejected(self):
        g = chain_graph(3)
        imap = sample_imap(g, seed=0)
        s = fresh_sampler(3)
        x = np.array([1, 0, 1], dtype=np.int8)
        with pytest.raises(PartialAssignment):
            log_prob(s, imap, x)

    def test_cross_entropy_lower_bounded_by_entropy(self):
        m = random_ising(cycle_graph(4), sigma=0.4, seed=0)
        table = enumerate_exact(m)
        imap = sample_imap(m.graph, seed=1)
        s = randomized_sampler(4, seed=8)
        states = all_states(4)
        cross = -(table.full_probs * s.log_prob_batch(imap, states)).sum()
        assert cross >= table.entropy() - 1e-12

    def test_fitted_sampler_attains_entropy(self):
        m = two_var_ising()
        imap = sample_imap(m.graph, seed=0)
        s, table = fitted_sampler(m, [imap])
        states = all_states(2)
        cross = -(table.full_probs * s.log_prob_batch(imap, states)).sum()
        assert cross == pytest.approx(table.entropy(), abs=1e-9)

    def test_order_consistency_when_fitted_for_both(self):
        # one network, two different I-maps, identical full-sample scores:
        # the conditionals of p factorize p under any of its I-maps
        m = random_ising(chain_graph(4), sigma=0.3, seed=5)
        imap_a = sample_imap(m.graph, seed=0)
        imap_b = next(
            sample_imap(m.graph, seed=k)
            for k in range(1, 50)
            if imap_arcs(sample_imap(m.graph, seed=k)) != imap_arcs(imap_a)
        )
        s, table = fitted_sampler(m, [imap_a, imap_b], width=64)
        states = all_states(4)
        la = s.log_prob_batch(imap_a, states)
        lb = s.log_prob_batch(imap_b, states)
        assert np.abs(la - lb).max() < 1e-3
        assert_allclose(np.exp(la), table.full_probs, atol=1e-9)


def chain_posterior_map():
    """The map of the middle of a 5-chain given its ends: 1, 2 and 3 drawn,
    0 and 4 given."""
    imap = _elimination_imap(chain_graph(5), 0b01110, seed=0)
    assert imap.vertices == (1, 2, 3) and imap.given.tolist() == [0, 4]
    return imap


class TestGivenVariables:
    """A map's given variables are read from X, as parent columns, and never drawn."""

    def test_given_values_reach_the_conditionals(self):
        imap = chain_posterior_map()
        s = perturbed_sampler(5)
        first = imap.topo_order[0]
        assert set(imap.parents[first]) & {0, 4}
        x = np.ones(5, dtype=np.int8)
        flipped = x.copy()
        flipped[list(imap.parents[first])] = -1
        before = conditional_logprob(s, imap, first, x)
        assert conditional_logprob(s, imap, first, flipped) != before

    def test_draws_start_from_X_and_keep_its_other_columns(self):
        imap = chain_posterior_map()
        s = perturbed_sampler(5)
        X = np.random.default_rng(3).choice([-1, 1], size=(40, 5)).astype(np.int8)
        draws = s.partial_sample_batch(imap, Policy.on_policy(), 40, seed=2, X=X)
        assert_array_equal(draws[:, [0, 4]], X[:, [0, 4]])
        assert set(np.unique(draws[:, 1:4]).tolist()) == {-1, 1}
        # the draws depend on the given values
        X[:, 0] = -X[:, 0]
        moved = s.partial_sample_batch(imap, Policy.on_policy(), 40, seed=2, X=X)
        assert (moved[:, 1:4] != draws[:, 1:4]).any()
        # a map without given variables returns X's other columns too
        sub = sub_imap(chain_graph(5), 0, seed=0)
        out = s.partial_sample_batch(sub, Policy.on_policy(), 40, seed=2, X=X)
        assert_array_equal(out[:, 2:], X[:, 2:])

    def test_a_zero_in_a_given_column_is_rejected(self):
        imap = chain_posterior_map()
        s = perturbed_sampler(5)
        X = np.ones((4, 5))
        X[2, 4] = 0
        with pytest.raises(PartialAssignment, match="-1 or \\+1"):
            s.partial_sample_batch(imap, Policy.on_policy(), 4, seed=0, X=X)
        with pytest.raises(PartialAssignment, match="-1 or \\+1"):
            s.log_prob_batch(imap, X)
        with pytest.raises(PartialAssignment):
            s.partial_sample_batch(imap, Policy.on_policy(), 4, seed=0)
        X[2, 4] = 0.5
        with pytest.raises(PartialAssignment):
            s.partial_sample_batch(imap, Policy.on_policy(), 4, seed=0, X=X)
        # a drawn column may hold anything before the draw
        X[2, 4] = 1
        X[:, 2] = 0
        assert (s.partial_sample_batch(imap, Policy.on_policy(), 4, seed=0, X=X)[:, 2] != 0).all()

    def test_the_map_missing_a_value_is_named(self):
        imap = chain_posterior_map()
        s = perturbed_sampler(5)
        X = np.ones((6, 5))
        X[3, 0] = 0  # the second row of the second map
        with pytest.raises(PartialAssignment, match="map 1 "):
            s.partial_sample_batch([imap, imap, imap], Policy.on_policy(), 2, seed=0, X=X)

    def test_zero_rows(self):
        imap = chain_posterior_map()
        s = perturbed_sampler(5)
        out = s.partial_sample_batch(imap, Policy.on_policy(), 0, seed=0, X=np.ones((0, 5)))
        assert out.shape == (0, 5)
        assert s.log_prob_batch(imap, np.ones((0, 5))).shape == (0,)

    def test_X_needs_one_row_per_draw(self):
        imap = chain_posterior_map()
        s = perturbed_sampler(5)
        with pytest.raises(ShapeMismatch):
            s.partial_sample_batch(imap, Policy.on_policy(), 4, seed=0, X=np.ones((3, 5)))
        with pytest.raises(ShapeMismatch):
            s.partial_sample_batch([imap, imap], Policy.on_policy(), 4, seed=0, X=np.ones((4, 5)))
        with pytest.raises(ShapeMismatch):
            s.partial_sample_batch(imap, Policy.on_policy(), 4, seed=0, X=np.ones((4, 6)))


class TestLatentPosterior:
    """A network fitted to a latent map's conditionals is the exact posterior:
    it scores p(h | o) and draws from it."""

    @pytest.mark.parametrize("hidden", [(0, 4), (1, 2, 5), (0, 1, 3, 4, 5)])
    def test_fitted_network_scores_the_posterior(self, hidden):
        m = random_ising(grid_graph(2, 3), sigma=0.6, seed=4)
        imap = latent_imap(m, hidden, seed=1)
        s, table = fitted_sampler(m, [imap], width=64)
        states = all_states(6)
        log_p = np.log(table.full_probs)
        observed = [v for v in range(6) if v not in hidden]
        want = log_p - log_marginal_at(states, log_p, observed)
        assert_allclose(s.log_prob_batch(imap, states), want, rtol=0, atol=1e-8)

    def test_draws_follow_the_posterior_of_each_row(self):
        m = random_ising(grid_graph(2, 3), sigma=0.6, seed=4)
        hidden = (1, 2, 4)
        imap = latent_imap(m, hidden, seed=1)
        s, table = fitted_sampler(m, [imap], width=64)
        obs = np.array([[1, -1, 1]] * 4000 + [[-1, -1, 1]] * 4000)
        X = np.zeros((8000, 6), dtype=np.int8)
        X[:, [0, 3, 5]] = obs
        draws = s.partial_sample_batch(imap, Policy.on_policy(), 8000, seed=7, X=X)
        assert_array_equal(draws[:, [0, 3, 5]], obs)
        states = all_states(6)
        for rows in (slice(0, 4000), slice(4000, 8000)):
            o = obs[rows][0]
            match = (states[:, [0, 3, 5]] == o).all(axis=1)
            posterior = table.full_probs[match] / table.full_probs[match].sum()
            codes = (draws[rows][:, list(hidden)] > 0) @ [1, 2, 4]
            want = posterior[np.argsort((states[match][:, list(hidden)] > 0) @ [1, 2, 4])]
            freq = np.bincount(codes, minlength=8) / 4000
            assert 0.5 * np.abs(freq - want).sum() < 0.05


class TestLocalForwardMatchesDense:
    """Parent columns in, one logit out: the same draws and log q as the dense
    forward that feeds |V|-wide rows and computes every logit."""

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_draws_and_logprobs(self, activation):
        g = grid_graph(6, 6)
        imap = sample_imap(g, seed=0)
        cfg = MaeConfig(num_vars=36, width=16, blocks=3, activation=activation)
        s = AmortizedSampler(MaeParams(cfg))
        rng = np.random.default_rng(5)
        # a fresh head is all zeros, which would hide a wrong column or row
        flat = s.params.pack()
        s.params.unpack(flat + rng.normal(0, 0.5, flat.shape))
        assert np.all(s.params.w_out.data != 0)
        n = 128
        for policy in (Policy.on_policy(), Policy.tempered(2.0)):
            X_full, logq = s.ancestral_sample(imap, policy, n, seed=3)
            X_ref, logq_ref = dense_run_order(s, imap, policy, n, seed=3)
            assert_array_equal(X_full, X_ref)
            assert_allclose(logq, logq_ref, rtol=0, atol=1e-12)
            assert_allclose(
                s.log_prob_batch(imap, X_full),
                dense_log_prob_batch(s, imap, X_full),
                rtol=0, atol=1e-12,
            )
        for u in (0, 14, 35):
            sub = sub_imap(g, u, seed=u)
            X = s.partial_sample_batch(sub, Policy.on_policy(), n, seed=u)
            X_ref, _ = dense_run_order(s, sub, Policy.on_policy(), n, seed=u)
            assert_array_equal(X, X_ref)
        # one conditional at a time, on a full draw of the full map
        x = X_full[0]
        total = sum(conditional_logprob(s, imap, v, x) for v in imap.topo_order)
        assert abs(total - dense_log_prob_batch(s, imap, x[None, :])[0]) <= 1e-12

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_given_variables(self, activation):
        g = grid_graph(6, 6)
        hidden = (1, 7, 8, 13, 14, 15, 20, 27, 33)
        imap = _elimination_imap(g, _mask_of(hidden), seed=2)
        assert len(imap.given)
        s = perturbed_sampler(36, activation)
        n = 128
        X = np.random.default_rng(4).choice([-1, 1], size=(n, 36)).astype(np.int8)
        for policy in (Policy.on_policy(), Policy.tempered(2.0)):
            draws = s.partial_sample_batch(imap, policy, n, seed=3, X=X)
            X_ref, _ = dense_run_order(s, imap, policy, n, seed=3, X=X)
            assert_array_equal(draws, X_ref)
            assert_allclose(
                s.log_prob_batch(imap, draws),
                dense_log_prob_batch(s, imap, draws),
                rtol=0, atol=1e-12,
            )
        x = draws[0]
        total = sum(conditional_logprob(s, imap, v, x) for v in imap.topo_order)
        assert abs(total - dense_log_prob_batch(s, imap, x[None, :])[0]) <= 1e-12


def perturbed_sampler(num_vars: int, activation="relu", seed=5) -> AmortizedSampler:
    """A width-16, 3-block sampler whose every weight, head included, is nonzero."""
    cfg = MaeConfig(num_vars=num_vars, width=16, blocks=3, activation=activation)
    s = AmortizedSampler(MaeParams(cfg))
    flat = s.params.pack()
    s.params.unpack(flat + np.random.default_rng(seed).normal(0, 0.5, flat.shape))
    return s


class TestWavefrontMatchesSequential:
    """One network call per depth level, over one map or many, against the
    walk that calls the network once per variable in topological order."""

    POLICIES = (Policy.on_policy(), Policy.tempered(2.0), Policy.eps_uniform(0.2))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("given", [False, True], ids=["local", "given"])
    def test_many_maps_draw_like_a_per_map_loop(self, k, given):
        g = grid_graph(6, 6)
        if given:
            # each vertex's closed neighbourhood, drawn given its boundary
            maps = [
                _elimination_imap(g, g.adj_masks[u] | 1 << u, seed=u) for u in range(36)
            ]
            X0 = np.random.default_rng(8).choice([-1, 1], size=(36 * k, 36)).astype(np.int8)
        else:
            maps = [sub_imap(g, u, seed=u) for u in range(36)]
            X0 = None
        s = perturbed_sampler(36)
        policy = Policy.tempered(1.5)
        r_batch, r_loop, r_seq = (np.random.default_rng(9) for _ in range(3))
        X = s.partial_sample_batch(maps, policy, k, seed=r_batch, X=X0)
        assert X.shape == (36 * k, 36)
        for j, sub in enumerate(maps):
            x0 = None if X0 is None else X0[j * k : (j + 1) * k]
            block = X[j * k : (j + 1) * k]
            assert_array_equal(block, s.partial_sample_batch(sub, policy, k, r_loop, X=x0))
            assert_array_equal(block, sequential_run_order(s, sub, policy, k, r_seq, X=x0)[0])
            # exactly the variables of the map are drawn
            other = np.setdiff1d(np.arange(36), sub.vertices)
            assert_array_equal(block[:, other], 0 if x0 is None else x0[:, other])
            assert np.all(block[:, list(sub.vertices)] != 0)
        # the batched walk used exactly as many uniforms as the loops did
        assert r_batch.random() == r_loop.random() == r_seq.random()

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_ancestral_draws_and_log_q(self, activation):
        g = grid_graph(6, 6)
        imap = sample_imap(g, seed=4)
        assert imap.depth.max() + 1 < 36  # some level holds several variables
        s = perturbed_sampler(36, activation)
        n = 64
        for policy in self.POLICIES:
            X, logq = s.ancestral_sample(imap, policy, n, seed=3)
            X_ref, logq_ref = sequential_run_order(s, imap, policy, n, seed=3)
            assert_array_equal(X, X_ref)
            assert_allclose(logq, logq_ref, rtol=0, atol=1e-12)
            lp = s.log_prob_batch(imap, X)
            assert_allclose(lp, sequential_log_prob_batch(s, imap, X), rtol=0, atol=1e-12)
            # drawing and scoring share one schedule, so they agree bit for bit
            assert_array_equal(lp, logq)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_given_variables_draw_and_score_like_the_sequential_walk(self, activation):
        g = grid_graph(6, 6)
        hidden = tuple(range(0, 36, 2))
        imap = _elimination_imap(g, _mask_of(hidden), seed=4)
        assert imap.depth.max() + 1 < len(hidden)
        s = perturbed_sampler(36, activation)
        n = 64
        X0 = np.random.default_rng(2).choice([-1, 1], size=(n, 36)).astype(np.int8)
        for policy in self.POLICIES:
            r_walk, r_seq = np.random.default_rng(3), np.random.default_rng(3)
            X = s.partial_sample_batch(imap, policy, n, seed=r_walk, X=X0)
            X_ref, logq_ref = sequential_run_order(s, imap, policy, n, r_seq, X=X0)
            assert_array_equal(X, X_ref)
            lp = s.log_prob_batch(imap, X)
            assert_allclose(lp, sequential_log_prob_batch(s, imap, X), rtol=0, atol=1e-12)
            assert_allclose(lp, logq_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "g",
        [
            UndirectedGraph(5, frozenset()),
            UndirectedGraph(1, frozenset()),
            UndirectedGraph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]),
        ],
        ids=["edgeless", "single-variable", "disconnected"],
    )
    def test_degenerate_graphs(self, g):
        n_vars = g.num_vars
        imap = sample_imap(g, seed=1)
        s = perturbed_sampler(n_vars)
        X, logq = s.ancestral_sample(imap, Policy.on_policy(), 32, seed=6)
        X_ref, logq_ref = sequential_run_order(s, imap, Policy.on_policy(), 32, seed=6)
        assert_array_equal(X, X_ref)
        assert_allclose(logq, logq_ref, rtol=0, atol=1e-12)
        assert_array_equal(s.log_prob_batch(imap, X), logq)
        maps = [sub_imap(g, u, seed=u) for u in range(n_vars)]
        r_batch, r_seq = np.random.default_rng(7), np.random.default_rng(7)
        Xs = s.partial_sample_batch(maps, Policy.on_policy(), 2, seed=r_batch)
        ref = [sequential_run_order(s, m, Policy.on_policy(), 2, r_seq)[0] for m in maps]
        assert_array_equal(Xs, np.concatenate(ref))
        x = X[0]
        total = sum(conditional_logprob(s, imap, v, x) for v in imap.topo_order)
        assert abs(total - logq[0]) <= 1e-12

    def test_empty_map_list_is_rejected(self):
        s = perturbed_sampler(4)
        with pytest.raises(ConfigError):
            s.partial_sample_batch([], Policy.on_policy(), 2, seed=0)


class TestTableMatchesLevelWalk:
    """Entries with few parents read their logits off one table per walk;
    draws, log q and scores stay bit for bit those of the walk that sends
    every depth level through the network."""

    POLICIES = (Policy.on_policy(), Policy.tempered(2.0), Policy.eps_uniform(0.2))

    @staticmethod
    def maps_of(g):
        return sample_imap(g, seed=4), [sub_imap(g, u, seed=u) for u in range(0, g.num_vars, 5)]

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("g", [grid_graph(6, 6), ladder_graph(8)], ids=["grid", "ladder"])
    def test_draws_and_log_q_are_bit_equal(self, n, activation, g):
        imap, subs = self.maps_of(g)
        s = perturbed_sampler(g.num_vars, activation=activation)
        for policy in self.POLICIES:
            X, logq = s.ancestral_sample(imap, policy, n, seed=3)
            rng = np.random.default_rng(3)
            X_ref, logq_ref = level_walk(s, [imap], n, policy=policy, rng=rng)
            assert_array_equal(X, X_ref)
            assert_array_equal(logq, logq_ref)
            assert_array_equal(s.log_prob_batch(imap, X), level_walk(s, [imap], n, X=X)[1])
            Xs = s.partial_sample_batch(subs, policy, n, seed=5)
            rng = np.random.default_rng(5)
            assert_array_equal(Xs, level_walk(s, subs, n, policy=policy, rng=rng)[0])

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_given_draws_and_log_q_are_bit_equal(self, n, activation):
        g = grid_graph(6, 6)
        imap = _elimination_imap(g, _mask_of(range(3, 36, 3)), seed=5)
        s = perturbed_sampler(36, activation=activation)
        X0 = np.random.default_rng(n).choice([-1, 1], size=(n, 36)).astype(np.int8)
        for policy in self.POLICIES:
            X = s.partial_sample_batch(imap, policy, n, seed=3, X=X0)
            rng = np.random.default_rng(3)
            X_ref, logq_ref = level_walk(s, [imap], n, X0, policy=policy, rng=rng)
            assert_array_equal(X, X_ref)
            assert_array_equal(s.log_prob_batch(imap, X), logq_ref)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_given_parents_are_tabulated_too(self, monkeypatch, n):
        g = grid_graph(6, 6)
        imap = _elimination_imap(g, _mask_of(range(0, 36, 2)), seed=1)
        counts = (imap.parent_table >= 0).sum(axis=1)
        s = perturbed_sampler(36)
        seen = []
        entry_logits = AmortizedSampler._entry_logits

        def counted(self, work, rows, vs, parents):
            seen.extend(vs.tolist())
            return entry_logits(self, work, rows, vs, parents)

        monkeypatch.setattr(AmortizedSampler, "_entry_logits", counted)
        X0 = np.random.default_rng(0).choice([-1, 1], size=(n, 36)).astype(np.int8)
        X = s.partial_sample_batch(imap, Policy.on_policy(), n, seed=1, X=X0)
        # only the entries with more than log2(n) parents go through the network
        assert sorted(seen) == sorted(imap.order[(1 << counts) > n].tolist())
        rng = np.random.default_rng(1)
        X_ref, logq_ref = level_walk(s, [imap], n, X0, policy=Policy.on_policy(), rng=rng)
        assert_array_equal(X, X_ref)
        assert_array_equal(s.log_prob_batch(imap, X), logq_ref)
        assert_array_equal(s.log_prob_batch(imap, X), level_walk(s, [imap], n, X)[1])

    @pytest.mark.parametrize("g", [grid_graph(6, 6), ladder_graph(8)], ids=["grid", "ladder"])
    def test_the_table_sends_no_more_rows_than_the_level_walk(self, monkeypatch, g):
        imap, subs = self.maps_of(g)
        s = perturbed_sampler(g.num_vars)
        rows = [0]
        forward = MaeParams.masked_logits_np

        def counted(self, x, vs, cols=None):
            rows[0] += len(x)
            return forward(self, x, vs, cols)

        monkeypatch.setattr(MaeParams, "masked_logits_np", counted)
        fewer = False
        for n in (1, 2, 3, 4, 7, 8, 64):
            for maps in ([imap], subs):
                rows[0] = 0
                s.partial_sample_batch(maps, Policy.on_policy(), n, seed=0)
                table = rows[0]
                rows[0] = 0
                rng = np.random.default_rng(0)
                level_walk(s, maps, n, policy=Policy.on_policy(), rng=rng)
                assert table <= rows[0]
                fewer |= table < rows[0]
        assert fewer

    def test_log_prob_rejects_values_other_than_signs(self):
        g = ladder_graph(3)
        imap = sample_imap(g, seed=0)
        s = perturbed_sampler(6)
        X = np.ones((4, 6))
        X[2, imap.order[-1]] = 0.5
        with pytest.raises(PartialAssignment, match="-1 or \\+1"):
            s.log_prob_batch(imap, X)
        X[2, imap.order[-1]] = np.nan
        with pytest.raises(PartialAssignment):
            s.log_prob_batch(imap, X)


class TestTabularSampler:
    def test_matches_enumerated_conditionals(self):
        m = random_ising(cycle_graph(4), sigma=0.3, seed=2)
        table = enumerate_exact(m)
        imap = sample_imap(m.graph, seed=0)
        q = TabularSampler.from_exact_table(table, imap)
        states = all_states(4)
        assert_allclose(np.exp(q.log_prob_batch(imap, states)), table.full_probs, atol=1e-12)

    def test_two_orders_agree(self):
        m = random_ising(chain_graph(5), sigma=0.25, seed=3)
        table = enumerate_exact(m)
        ia, ib = sample_imap(m.graph, seed=0), sample_imap(m.graph, seed=17)
        qa = TabularSampler.from_exact_table(table, ia)
        qb = TabularSampler.from_exact_table(table, ib)
        states = all_states(5)
        assert_allclose(qa.log_prob_batch(ia, states), qb.log_prob_batch(ib, states), atol=1e-12)

    def test_sampling_matches_distribution(self):
        m = two_var_ising()
        table = enumerate_exact(m)
        imap = sample_imap(m.graph, seed=0)
        q = TabularSampler.from_exact_table(table, imap)
        n = 40_000
        X, logq = q.ancestral_sample(imap, Policy.on_policy(), n, seed=6)
        assert_allclose(logq, q.log_prob_batch(imap, X), atol=1e-12)
        for i, state in enumerate(all_states(2)):
            p = table.full_probs[i]
            emp = np.all(X == state, axis=1).mean()
            assert abs(emp - p) <= 3 * np.sqrt(p * (1 - p) / n)

class TestGibbs:
    def test_flat_model_is_uniform_after_one_sweep(self):
        m = IsingModel(np.zeros((3, 3)), np.zeros(3), sigma=0.2)
        X = gibbs_chain(m, n_chains=20_000, n_steps=1, seed=0)
        freq = (X == 1).mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.011)

    def test_marginals_match_enumeration(self):
        m = random_ising(cycle_graph(4), sigma=0.3, seed=1)
        table = enumerate_exact(m)
        n = 10_000
        X = gibbs_chain(m, n_chains=n, n_steps=100, seed=2)
        emp = (X == 1).mean(axis=0)
        se = np.sqrt(table.marginals * (1 - table.marginals) / n)
        assert np.all(np.abs(emp - table.marginals) <= 3 * se + 1e-9)

    def test_start_temperature_one_is_identity(self):
        m = random_ising(chain_graph(4), sigma=0.2, seed=3)
        a = gibbs_chain(m, 50, 5, anneal_schedule=None, seed=7)
        b = gibbs_chain(m, 50, 5, anneal_schedule=AnnealSchedule(1.0, 3), seed=7)
        assert_array_equal(a, b)

    def test_annealing_changes_trajectories(self):
        m = random_ising(chain_graph(4), sigma=1.5, seed=3)
        a = gibbs_chain(m, 200, 4, anneal_schedule=None, seed=7)
        b = gibbs_chain(m, 200, 4, anneal_schedule=AnnealSchedule(10.0, 4), seed=7)
        assert not np.array_equal(a, b)

    def test_schedule_values(self):
        sched = AnnealSchedule(4.0, 4)
        assert sched.beta(0) == pytest.approx(0.25)
        assert sched.beta(2) == pytest.approx(0.625)
        assert sched.beta(4) == 1.0
        assert sched.beta(100) == 1.0
        with pytest.raises(ConfigError):
            AnnealSchedule(0.0, 2)


def gaussian_ising(g: UndirectedGraph, seed: int) -> IsingModel:
    """Ising model on g with standard normal couplings and biases."""
    rng = np.random.default_rng(seed)
    J = np.zeros((g.num_vars, g.num_vars))
    for u, v in sorted(g.edges):
        J[u, v] = J[v, u] = rng.normal()
    return IsingModel(J, rng.normal(size=g.num_vars), sigma=0.3)


GIBBS_MODELS = {
    "grid8": lambda: random_ising(grid_graph(8, 8), sigma=0.4, seed=1),
    "grid32": lambda: random_ising(grid_graph(32, 32), sigma=0.4, seed=2),
    "random-200-0.1": lambda: gaussian_ising(random_graph(200, 0.1, 3), seed=4),
    "random-60-0.5": lambda: gaussian_ising(random_graph(60, 0.5, 5), seed=6),
    "factor-lattice-4x5": lambda: random_factor_lattice(4, 5, seed=7),
    # vertex 3 touches no edge, vertex 0 only a later one
    "isolated-vertex": lambda: gaussian_ising(
        UndirectedGraph.from_edges(6, [(0, 4), (1, 2), (2, 5), (4, 5)]), seed=8
    ),
}


class TestScanLevels:
    @pytest.mark.parametrize("name", sorted(GIBBS_MODELS))
    def test_levels_respect_the_index_order_scan(self, name):
        g = GIBBS_MODELS[name]().graph
        levels = _scan_levels(g)
        level_of = np.empty(g.num_vars, dtype=np.int64)
        for k, us in enumerate(levels):
            level_of[us] = k
        assert sorted(np.concatenate(levels).tolist()) == list(range(g.num_vars))
        for u, v in g.edges:
            # no edge inside a level, and the lower end is updated first
            assert level_of[u] < level_of[v]

    def test_level_counts(self):
        assert len(_scan_levels(grid_graph(32, 32))) == 63
        assert len(_scan_levels(UndirectedGraph(5, frozenset()))) == 1
        assert len(_scan_levels(chain_graph(7))) == 7


class TestGibbsMatchesSequentialScan:
    """A sweep by dependency levels draws what the one-variable scan draws."""

    @pytest.mark.parametrize("chains", [0, 1, 7, 256])
    @pytest.mark.parametrize("name", sorted(GIBBS_MODELS))
    def test_same_draws(self, name, chains):
        m = GIBBS_MODELS[name]()
        for n_steps in (0, 5):
            for schedule in (None, AnnealSchedule(3.0, 3)):
                got = gibbs_chain(m, chains, n_steps, anneal_schedule=schedule, seed=11)
                want = sequential_gibbs(m, chains, n_steps, anneal_schedule=schedule, seed=11)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(GIBBS_MODELS))
    def test_level_logits_are_the_per_variable_logits(self, name):
        # bit for bit, not only the draws: a field one ulp off rarely changes one
        m = GIBBS_MODELS[name]()
        Xv = np.random.default_rng(13).choice([-1.0, 1.0], size=(m.num_vars, 256))
        for us in _scan_levels(m.graph):
            got = m.local_flip_logits(us, Xv.T)
            want = [sequential_flip_logits(m, u, np.ascontiguousarray(Xv.T)) for u in us]
            assert_array_equal(got, np.reshape(want, got.shape))


class TestCountsAndSeeds:
    """Zero rows give empty results; negative counts and seeds raise ConfigError."""

    def test_zero_rows_give_empty_results(self):
        g = grid_graph(2, 2)
        s = fresh_sampler(4)
        imap = sample_imap(g, seed=0)
        X, logq = s.ancestral_sample(imap, Policy.on_policy(), 0, seed=0)
        assert X.shape == (0, 4) and X.dtype == np.int8 and logq.shape == (0,)
        assert s.log_prob_batch(imap, np.zeros((0, 4))).shape == (0,)
        maps = [sub_imap(g, 0, seed=1), sub_imap(g, 3, seed=2)]
        assert s.partial_sample_batch(maps, Policy.on_policy(), 0, seed=0).shape == (0, 4)
        m = random_ising(g, seed=0)
        assert gibbs_chain(m, n_chains=0, n_steps=3, seed=0).shape == (0, 4)

    def test_negative_counts_raise_config_error(self):
        g = grid_graph(2, 2)
        s = fresh_sampler(4)
        with pytest.raises(ConfigError):
            s.ancestral_sample(sample_imap(g, seed=0), Policy.on_policy(), -1, seed=0)
        with pytest.raises(ConfigError):
            s.partial_sample_batch(sub_imap(g, 0, seed=1), Policy.on_policy(), -1, seed=0)
        m = random_ising(g, seed=0)
        with pytest.raises(ConfigError):
            gibbs_chain(m, n_chains=-1, n_steps=3, seed=0)
        with pytest.raises(ConfigError):
            gibbs_chain(m, n_chains=4, n_steps=-1, seed=0)

    def test_negative_seed_raises_config_error(self):
        g = grid_graph(2, 2)
        s = fresh_sampler(4)
        with pytest.raises(ConfigError):
            sample_imap(g, seed=-1)
        with pytest.raises(ConfigError):
            sub_imap(g, 0, seed=0, chordal_seed=-1)
        with pytest.raises(ConfigError):
            s.ancestral_sample(sample_imap(g, seed=0), Policy.on_policy(), 2, seed=-1)
        with pytest.raises(ConfigError):
            gibbs_chain(random_ising(g, seed=0), n_chains=2, n_steps=1, seed=-1)
