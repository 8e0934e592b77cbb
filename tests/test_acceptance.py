"""Product-level verification: every guarantee the package makes, at its stated
tolerance, in one place.

Each class pins one guarantee end to end: the flip-matching zero set singles
out the target distribution, trained samplers hit documented NLL/MMD bounds on
small lattices, local updates stay local while full-trajectory objectives touch
everything, equal budgets preserve the documented convergence ordering, the
baselines are self-consistent against enumeration, the single-child gradient
estimator is exactly unbiased, every loss differentiates correctly, the graph
machinery honors its structural invariants, and both energy-model and
latent-variable training recover what they claim to recover.  Runtime limits
are asserted where the guarantee includes one.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.testing import assert_allclose

from flipmatch.energy import (
    IsingModel,
    TabularBayesNetModel,
    all_states,
    ebm_param_grad,
    enumerate_exact,
    logsumexp,
    random_ising,
)
from flipmatch.graph import (
    Imap,
    chain_graph,
    cycle_graph,
    grid_graph,
    ladder_graph,
    max_cardinality_search,
    min_fill_chordalize,
    random_graph,
    sample_imap,
)
from flipmatch.harness import (
    TrainConfig,
    data_marginal_loglik,
    interaction_graph,
    latent_imap,
    metric_mmd_linear,
    metric_nll,
    train_delta,
    train_ebm,
    train_em,
    train_gfn,
)
from flipmatch.losses import (
    FlowHead,
    LogZEstimate,
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
    ExactFlow,
    TabularSampler,
    check_chordal,
    chordal_brute_force,
    central_diff,
    exact_em,
    fit_sampler_exactly,
    fit_tables_by_flip_matching,
    full_rows,
    imap_arcs,
    junction_tree,
    relative_error,
    running_intersection_holds,
    verify_no_immoralities,
)


def fresh_sampler(num_vars: int, width: int = 24, seed: int = 0, **kw) -> AmortizedSampler:
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


def collect_grads(params, loss) -> list[np.ndarray]:
    for p in params:
        p.grad = None
    tape.backward(loss)
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


def pair_residuals(s: TabularSampler, imap: Imap, m, states: np.ndarray) -> np.ndarray:
    """Flip-identity residual for every (flip site, state), computed from parts.

    Composes the target side from log-reward differences and the model side
    from the sampler's own conditional log-probabilities, independently of the
    loss implementation; entry [u, k] squared is the flip loss at (x_k, u).
    """
    X = states.astype(np.float64)
    n_states, num_vars = X.shape
    base = m.log_reward_batch(states)
    out = np.zeros((num_vars, n_states))
    for u in range(num_vars):
        flipped = X.copy()
        flipped[:, u] = -X[:, u]
        target = m.log_reward_batch(flipped.astype(np.int8)) - base
        ratio = np.zeros(n_states)
        for v in [u, *imap.children[u]]:
            vs = np.full(n_states, v)
            ratio += s.logq_rows(full_rows(flipped), vs, flipped[:, v]).data
            ratio -= s.logq_rows(full_rows(X), vs, X[:, v]).data
        out[u] = target - ratio
    return out


def random_ising_instance(trial: int) -> tuple[IsingModel, Imap, int]:
    num_vars = 4 + trial % 5
    g = random_graph(num_vars, 0.45, seed=1000 + trial)
    m = random_ising(g, sigma=1.0, seed=2000 + trial)
    imap = sample_imap(interaction_graph(m), seed=trial)
    return m, imap, num_vars


class TestConditionalFixedPoint:
    """The flip-matching loss is zero at the target's conditionals and, when
    driven to zero by an independent solver, recovers the target exactly."""

    def test_exact_tables_and_refit_agree_with_the_target(self):
        t0 = time.perf_counter()
        worst_forward = worst_refit = worst_tv = 0.0
        for trial in range(50):
            m, imap, num_vars = random_ising_instance(trial)
            table = enumerate_exact(m)
            states = all_states(num_vars)

            exact = TabularSampler.from_exact_table(table, imap)
            res = pair_residuals(exact, imap, m, states)
            worst_forward = max(worst_forward, float((res**2).max()))

            fitted, _, _ = fit_tables_by_flip_matching(m, imap)
            res = pair_residuals(fitted, imap, m, states)
            worst_refit = max(worst_refit, float((res**2).max()))
            joint = np.exp(fitted.log_prob_batch(imap, states))
            worst_tv = max(worst_tv, 0.5 * float(np.abs(joint - table.full_probs).sum()))
        elapsed = time.perf_counter() - t0

        assert worst_forward < 1e-12
        assert worst_refit < 1e-12
        assert worst_tv < 1e-6
        assert elapsed < 120.0

    def test_residual_decomposition_matches_the_loss_function(self):
        # at uniform tables the residuals are O(1), so agreement is nontrivial
        m, imap, num_vars = random_ising_instance(3)
        states = all_states(num_vars)
        uniform = TabularSampler(
            imap, {v: np.full(1 << len(imap.parents[v]), 0.5) for v in imap.vertices}
        )
        res = pair_residuals(uniform, imap, m, states)
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = int(rng.integers(len(states)))
            u = int(rng.integers(num_vars))
            lib = delta_loss(uniform, imap, m, states[k], u, int(-states[k, u]))
            assert_allclose(float(lib.data), res[u, k] ** 2, rtol=1e-9)

    def test_library_loss_vanishes_for_every_flip_of_one_model(self):
        m, imap, num_vars = random_ising_instance(2)
        table = enumerate_exact(m)
        s = TabularSampler.from_exact_table(table, imap)
        for x in all_states(num_vars):
            for u in range(num_vars):
                val = delta_loss(s, imap, m, x, u, int(-x[u]))
                assert float(val.data) < 1e-12


class TestBaselineSelfConsistency:
    """Trajectory-balance training estimates the true partition function, and
    the balance residuals vanish at the exact conditionals and true flows."""

    def test_tb_partition_function_estimates(self):
        two = IsingModel(np.array([[0.0, 0.6], [0.6, 0.0]]), np.array([0.3, -0.2]))
        four = random_ising(cycle_graph(4), sigma=0.5, seed=5)
        for m, steps, width in ((two, 1500, 32), (four, 8000, 48)):
            truth = enumerate_exact(m).log_z
            s = fresh_sampler(m.num_vars, width=width)
            logZ = LogZEstimate()
            cfg = TrainConfig(
                objective="tb",
                total_steps=steps,
                batch_size=64,
                lr=1e-2,
                eval_period=steps,
                seed=2,
                policy_kind="eps-uniform",
                policy_eps=0.1,
                aux_lr_multiplier=10.0,
            )
            train_gfn(cfg, m, s, logZ=logZ)
            assert abs(float(logZ.value.data) - truth) < 0.05

    def test_db_and_subtb_vanish_at_the_exact_solution(self):
        g = cycle_graph(5)
        m = random_ising(g, sigma=0.7, seed=3)
        imap = sample_imap(g, seed=1)
        table = enumerate_exact(m)
        s = fresh_sampler(5, width=24)
        assert fit_sampler_exactly(s.params, [imap], table) < 1e-8
        flow = ExactFlow(table)
        X = table.sample_matrix(128, seed=3)
        assert float(db_trajectory_loss(s, imap, m, X, flow).data) < 1e-3
        assert float(subtb_loss_batch(s, imap, m, X, flow, 0.9).data) < 1e-3


class TestStochasticEstimatorIdentity:
    """Averaged over every admissible index choice, the single-child surrogate's
    gradient equals the full flip-loss gradient exactly."""

    @staticmethod
    def _star_problem(leaves: int) -> tuple[IsingModel, Imap]:
        num_vars = leaves + 1
        imap = Imap.from_parents(num_vars, range(num_vars), [()] + [(0,)] * leaves)
        J = np.zeros((num_vars, num_vars))
        for i in range(1, num_vars):
            J[0, i] = J[i, 0] = 0.4 + 0.1 * i
        b = np.linspace(-0.3, 0.5, num_vars)
        return IsingModel(J, b), imap

    def test_enumerated_pairs_average_to_the_full_gradient(self):
        t0 = time.perf_counter()
        for leaves in (2, 3, 4):
            m, imap = self._star_problem(leaves)
            s = randomized_sampler(leaves + 1, width=12, seed=5 + leaves)
            params = s.params.params
            rng = np.random.default_rng(leaves)
            for _ in range(4):
                x = rng.choice([-1, 1], size=leaves + 1).astype(np.int8)
                full = collect_grads(params, delta_loss(s, imap, m, x, 0, int(-x[0])))
                acc = [np.zeros_like(p.data) for p in params]
                count = 0
                for i in range(leaves):
                    for j in range(leaves):
                        if i == j:
                            continue
                        gs = collect_grads(
                            params,
                            delta_loss_stochastic_grad(
                                s, imap, m, x, 0, int(-x[0]), j=j, i=i
                            ),
                        )
                        for k, g in enumerate(gs):
                            acc[k] += g
                        count += 1
                for mean, reference in zip((a / count for a in acc), full):
                    assert np.max(np.abs(mean - reference)) < 1e-10
        assert time.perf_counter() - t0 < 60.0


class TestGradientChecks:
    """Backward passes of every loss agree with central finite differences on
    at least 50 randomly chosen coordinates each."""

    def setup_method(self):
        g = cycle_graph(6)
        self.m = random_ising(g, sigma=0.7, seed=3)
        self.imap = sample_imap(g, seed=1)
        self.table = enumerate_exact(self.m)

    def _check(self, make_loss, params, seed: int, need: int = 50):
        grads = collect_grads(params, make_loss())
        flat_grads = [g.reshape(-1) for g in grads]
        gmax = max(float(np.abs(g).max()) for g in flat_grads)
        assert gmax > 1e-3
        # finite differences on O(1e-9) gradients drown in rounding noise, so
        # sample among coordinates that carry numerically meaningful gradient
        floor = max(1e-4, 1e-3 * gmax)
        eligible = [
            (pi, int(k))
            for pi, g in enumerate(flat_grads)
            for k in np.flatnonzero(np.abs(g) > floor)
        ]
        assert len(eligible) >= need
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(eligible), size=need, replace=False)
        h = 1e-5
        for idx in picks:
            pi, k = eligible[int(idx)]
            flat = params[pi].data.reshape(-1)
            old = flat[k]
            flat[k] = old + h
            up = float(make_loss().data)
            flat[k] = old - h
            down = float(make_loss().data)
            flat[k] = old
            numeric = (up - down) / (2 * h)
            analytic = flat_grads[pi][k]
            assert abs(numeric - analytic) / max(abs(analytic), abs(numeric)) < 1e-4

    def test_flip_matching_loss(self):
        s = randomized_sampler(6, width=16, seed=7)
        rng = np.random.default_rng(0)
        X = self.table.sample_matrix(12, seed=rng).astype(np.float64)
        us = rng.integers(0, 6, size=12)
        new_vals = -X[np.arange(12), us]
        self._check(
            lambda: delta_loss_batch(s, self.imap, self.m, X, us, new_vals),
            s.params.params,
            seed=1,
        )

    def test_trajectory_balance_loss(self):
        s = randomized_sampler(6, width=16, seed=8)
        logZ = LogZEstimate()
        X = self.table.sample_matrix(8, seed=4)
        self._check(
            lambda: tb_loss_batch(s, self.imap, self.m, X, logZ),
            list(s.params.params) + [logZ.value],
            seed=2,
        )

    def test_detailed_balance_losses(self):
        X = self.table.sample_matrix(4, seed=5)
        for fl, seed in ((False, 3), (True, 4)):
            s = randomized_sampler(6, width=16, seed=9 + fl, flow_head=True)
            flow = FlowHead(s.params, forward_looking=fl)
            self._check(
                lambda: db_trajectory_loss(s, self.imap, self.m, X, flow),
                s.params.params,
                seed=seed,
            )

    def test_subtrajectory_losses(self):
        X = self.table.sample_matrix(4, seed=6)
        for fl, seed in ((False, 5), (True, 6)):
            s = randomized_sampler(6, width=16, seed=11 + fl, flow_head=True)
            flow = FlowHead(s.params, forward_looking=fl)
            self._check(
                lambda: subtb_loss_batch(s, self.imap, self.m, X, flow, 0.9),
                s.params.params,
                seed=seed,
            )


class TestLocalityOfUpdates:
    """Sub-DAG training instantiates at most one variable plus its blanket per
    update; full-trajectory objectives always instantiate every variable."""

    def test_counters_on_a_square_lattice(self):
        g = grid_graph(16, 16)
        m = random_ising(g, sigma=0.2, seed=0)
        imap = sample_imap(interaction_graph(m), seed=0)
        bound = 1 + max(len(imap.blanket[v]) for v in imap.vertices)
        assert bound < 256

        s = AmortizedSampler(
            MaeParams(
                MaeConfig(num_vars=256, width=32, blocks=1, activation="relu", init_seed=0)
            )
        )
        cfg = TrainConfig(
            objective="delta",
            total_steps=2,
            batch_size=1,
            lr=1e-3,
            eval_period=1,
            seed=0,
            sub_dags_per_var=1,
        )
        _, rows = train_delta(cfg, m, s)
        assert rows
        assert all(r.instantiated <= bound for r in rows)

        for objective in ("tb", "db"):
            s2 = AmortizedSampler(
                MaeParams(
                    MaeConfig(
                        num_vars=256,
                        width=32,
                        blocks=1,
                        activation="relu",
                        init_seed=0,
                        flow_head=objective == "db",
                    )
                )
            )
            cfg2 = TrainConfig(
                objective=objective,
                total_steps=2,
                batch_size=8,
                lr=1e-3,
                eval_period=1,
                seed=0,
            )
            _, rows2 = train_gfn(cfg2, m, s2)
            assert rows2
            assert all(r.instantiated == 256 for r in rows2)


class TestGraphInvariants:
    """Every sampled orientation is an acyclic, immorality-free orientation of
    a chordal supergraph, and the clique trees satisfy running intersection."""

    def test_thousand_random_graphs(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        brute_checked = 0
        for trial in range(1000):
            n = int(rng.integers(2, 13))
            g = random_graph(n, float(rng.uniform(0.1, 0.65)), seed=rng)
            imap = sample_imap(g, seed=rng)

            pos = {v: i for i, v in enumerate(imap.topo_order)}
            assert len(pos) == n
            arcs = imap_arcs(imap)
            for a, b in arcs:
                assert pos[a] < pos[b]

            chordal = min_fill_chordalize(g, 0)
            completed = {frozenset(e) for e in chordal.edges}
            assert {frozenset(a) for a in arcs} == completed
            assert {frozenset(e) for e in g.edges} <= completed
            assert check_chordal(chordal)

            for v in imap.vertices:
                ps = imap.parents[v]
                for ia in range(len(ps)):
                    for ib in range(ia + 1, len(ps)):
                        assert frozenset((ps[ia], ps[ib])) in completed
            assert verify_no_immoralities(imap, chordal)

            if n <= 9 and brute_checked < 250:
                assert chordal_brute_force(chordal)
                assert check_chordal(g) == chordal_brute_force(g)
                brute_checked += 1

            tree_rng = np.random.default_rng(trial)
            _, cliques = max_cardinality_search(chordal, tree_rng)
            jt = junction_tree(cliques, tree_rng)
            assert running_intersection_holds(jt)
            adjacency = {i: set() for i in range(len(jt.cliques))}
            for i, parent in enumerate(jt.parent):
                if parent >= 0:
                    adjacency[i].add(parent)
                    adjacency[parent].add(i)
            for v in range(n):
                members = {i for i, c in enumerate(jt.cliques) if v in c}
                if len(members) <= 1:
                    continue
                start = next(iter(members))
                seen = {start}
                stack = [start]
                while stack:
                    cur = stack.pop()
                    for nb in adjacency[cur]:
                        if nb in members and nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
                assert seen == members
        assert brute_checked >= 100
        assert time.perf_counter() - t0 < 120.0


class TestEnergyModelLearning:
    """Maximum-likelihood coupling recovery with amortized negatives, and the
    gradient estimator against finite differences of the enumerated likelihood."""

    def test_recovers_couplings_from_samples(self):
        num_vars = 4
        true_edges = {(0, 1): 0.8, (1, 2): -0.6, (2, 3): 0.5, (0, 3): 0.4}
        J = np.zeros((num_vars, num_vars))
        for (i, j), w in true_edges.items():
            J[i, j] = J[j, i] = w
        table = enumerate_exact(IsingModel(J, np.array([0.3, -0.2, 0.0, 0.1])))
        data = table.sample_matrix(100_000, seed=11)

        J0 = np.zeros((num_vars, num_vars))
        for i, j in true_edges:
            J0[i, j] = J0[j, i] = 0.05
        m = IsingModel(J0, np.zeros(num_vars))
        s = AmortizedSampler(
            MaeParams(
                MaeConfig(num_vars=num_vars, width=32, blocks=2, activation="elu", init_seed=0)
            )
        )
        cfg = TrainConfig(
            objective="delta",
            total_steps=7000,
            batch_size=64,
            lr=5e-3,
            eval_period=7000,
            seed=7,
            policy_kind="on-policy",
        )
        m, _, _ = train_ebm(
            cfg,
            m,
            s,
            data,
            p_lr=0.05,
            p_updates=600,
            alternation=(100, 10),
            warmup=800,
            neg_batch=256,
        )
        learned = m.get_params()
        worst = max(abs(learned[k] - true_edges[e]) for k, e in enumerate(m.edges))
        assert worst < 0.1

    def test_gradient_matches_enumerated_likelihood(self):
        J = np.zeros((3, 3))
        for (i, j), w in {(0, 1): 0.7, (1, 2): -0.4, (0, 2): 0.3}.items():
            J[i, j] = J[j, i] = w
        b = np.array([0.2, -0.5, 0.1])
        m = IsingModel(J, b)
        table = enumerate_exact(m)
        data = table.sample_matrix(400, seed=5)
        analytic = ebm_param_grad(m, data, all_states(3), model_weights=table.full_probs)

        scratch = IsingModel(J.copy(), b.copy())

        def mean_loglik(theta: np.ndarray) -> float:
            scratch.set_params(theta)
            return float(
                scratch.log_reward_batch(data).mean() - enumerate_exact(scratch).log_z
            )

        numeric = central_diff(mean_loglik, m.get_params())
        assert (relative_error(analytic, numeric) < 1e-4).all()


class TestLatentVariableTraining:
    """Amortized EM reaches the exact-posterior EM's likelihood and posterior
    on a chain with two hidden variables."""

    @staticmethod
    def _problem():
        dag = Imap.from_parents(5, (0, 1, 2, 3, 4), ((), (0,), (1,), (2,), (3,)))
        p_true = TabularBayesNetModel(
            dag,
            {
                0: np.array([0.5]),
                1: np.array([-0.8, 0.9]),
                2: np.array([0.7, -0.6]),
                3: np.array([-1.0, 0.8]),
                4: np.array([0.6, -0.9]),
            },
        )
        data = p_true.sample(3000, 21)
        data[:, 1] = 0
        data[:, 3] = 0
        init = {
            0: np.array([0.0]),
            1: np.array([-0.4, 0.4]),
            2: np.array([0.3, -0.3]),
            3: np.array([-0.4, 0.3]),
            4: np.array([0.2, -0.3]),
        }
        return dag, data, init

    def test_reaches_exact_posterior_em(self):
        dag, data, init = self._problem()
        latent = [1, 3]
        oracle = exact_em(TabularBayesNetModel(dag, init), latent, data)
        oracle_nll = -data_marginal_loglik(oracle, latent, data)

        cfg = TrainConfig(
            objective="delta",
            total_steps=200,
            batch_size=64,
            lr=5e-3,
            eval_period=100,
            seed=8,
            imap_refresh_period=50,
        )
        p, s, rows = train_em(
            cfg, TabularBayesNetModel(dag, init), latent, data, rounds=5, m_steps=25, m_lr=0.25
        )
        assert rows[-1].nll - oracle_nll < 0.05

        # the amortized posterior tracks the learned model's exact posterior
        # for every observed pattern in the data
        imap = latent_imap(p, latent, seed=0)
        observed = [0, 2, 4]
        hidden = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)
        for pattern in np.unique(data[:, observed], axis=0):
            completions = np.zeros((4, 5), dtype=np.int8)
            completions[:, observed] = pattern
            completions[:, latent] = hidden
            lw = p.log_reward_batch(completions)
            posterior = np.exp(lw - logsumexp(lw))
            # the observed values reach the posterior as the map's given parents
            lq = s.log_prob_batch(imap, completions)
            amortized = np.exp(lq - logsumexp(lq))
            assert 0.5 * np.abs(amortized - posterior).sum() < 0.05


class TestSamplerQuality:
    """Trained samplers on 16-variable lattices score held-out exact samples
    within 0.05 nats of the entropy and keep the mean-embedding MMD^2 small."""

    @staticmethod
    def _train_and_eval(g) -> tuple[float, float, float]:
        m = random_ising(g, sigma=0.2, seed=3)
        table = enumerate_exact(m)
        s = AmortizedSampler(
            MaeParams(
                MaeConfig(num_vars=16, width=128, blocks=2, activation="relu", init_seed=0)
            )
        )
        cfg = TrainConfig(
            objective="delta",
            total_steps=6000,
            batch_size=128,
            lr=1e-2,
            eval_period=6000,
            seed=1,
            policy_kind="tempered",
            policy_temperature=2.0,
        )
        t0 = time.perf_counter()
        s, _ = train_delta(cfg, m, s)
        elapsed = time.perf_counter() - t0
        reference = table.sample_matrix(10_000, seed=7)
        imap = sample_imap(interaction_graph(m), seed=0)
        gap = metric_nll(s, imap, reference) - table.entropy()
        draws, _ = s.ancestral_sample(imap, Policy.on_policy(), 10_000, seed=500)
        return gap, metric_mmd_linear(draws, reference), elapsed

    def test_chain(self):
        gap, mmd, elapsed = self._train_and_eval(chain_graph(16))
        assert gap < 0.05
        assert mmd < 0.01
        assert elapsed < 900.0

    def test_ladder(self):
        gap, mmd, elapsed = self._train_and_eval(ladder_graph(8))
        assert gap < 0.05
        assert mmd < 0.01
        assert elapsed < 900.0


class TestRelativeConvergence:
    """Under one shared step budget and seed set, flip-matching training ends
    at a median NLL no worse than trajectory or detailed balance."""

    def test_median_nll_after_equal_budgets(self):
        g = ladder_graph(8)
        m = random_ising(g, sigma=0.2, seed=3)
        table = enumerate_exact(m)
        reference = table.sample_matrix(2000, seed=17)
        imap = sample_imap(interaction_graph(m), seed=0)

        def final_nll(objective: str, seed: int) -> float:
            s = AmortizedSampler(
                MaeParams(
                    MaeConfig(
                        num_vars=16,
                        width=48,
                        blocks=2,
                        activation="relu",
                        init_seed=seed,
                        flow_head=objective == "db",
                    )
                )
            )
            shared = dict(total_steps=1200, batch_size=64, lr=1e-2, eval_period=1200, seed=seed)
            if objective == "delta":
                cfg = TrainConfig(
                    objective=objective,
                    policy_kind="tempered",
                    policy_temperature=2.0,
                    **shared,
                )
                s, _ = train_delta(cfg, m, s)
            else:
                cfg = TrainConfig(
                    objective=objective, policy_kind="eps-uniform", policy_eps=0.1, **shared
                )
                s, _ = train_gfn(cfg, m, s)
            return metric_nll(s, imap, reference)

        medians = {
            objective: float(np.median([final_nll(objective, seed) for seed in range(5)]))
            for objective in ("delta", "tb", "db")
        }
        assert medians["delta"] <= medians["tb"]
        assert medians["delta"] <= medians["db"]


class TestScopeNotes:
    """What the desk-scale suite stands in for."""

    def test_large_scale_claims_have_small_scale_standins(self):
        """Wall-clock sampling comparisons at a thousand variables, image-model
        likelihood numbers, and absolute MCMC crossover timings all need
        hardware and days this suite does not assume, so they are exercised
        here through small-scale counterparts instead: locality counters on a
        256-variable lattice, equal-budget median-NLL ordering over seeds, and
        16-variable lattice NLL/MMD at fixed tolerances.  This test records
        that substitution so the coverage gap stays visible and deliberate."""
        for stand_in in ("TestLocalityOfUpdates", "TestRelativeConvergence", "TestSamplerQuality"):
            assert stand_in in globals()
