import numpy as np
import pytest

from coreglasso import (
    ConfigError,
    CoreScores,
    Hyperparams,
    InfeasibleError,
    InputError,
    compute_weights,
    empirical_covariance,
    fit,
    fit_graph_given_scores,
    joint_objective,
    kkt_residual,
    support,
    weighted_glasso,
)
from coreglasso.model import EPS_W, resolve_budget
from coreglasso.synth import planted_scores, sample_coordinates, sample_instance


@pytest.fixture(scope="module")
def instance20():
    return sample_instance(20, 1500, planted_scores(20), lam=60.0, seed=5)


def _zero_variance_features():
    x = np.random.default_rng(0).standard_normal((4, 30))
    x[2] = 1.0
    return x


ZERO_VARIANCE = ("covariance diagonal must be strictly positive: a node has "
                 "zero sample variance; add ridge or drop the node")


@pytest.mark.parametrize("call, message", [
    (lambda: kkt_residual(2 * np.eye(3), [[1.0]], np.ones((3, 3)), 0.1),
     "weight matrix shape (3, 3), covariance shape (1, 1)"),
    (lambda: joint_objective(np.eye(3), np.zeros(3), [[1.0]], Hyperparams(lam=0.1)),
     "weight matrix shape (3, 3), covariance shape (1, 1)"),
    (lambda: weighted_glasso(np.eye(3), np.ones((3, 3)), 0.1, warm_start=2 * np.eye(2)),
     "theta shape (2, 2), covariance shape (3, 3)"),
    (lambda: fit(_zero_variance_features(), hyper=Hyperparams(lam=0.1)), ZERO_VARIANCE),
    (lambda: fit_graph_given_scores(_zero_variance_features(),
                                    CoreScores(np.full(4, 0.125), budget=0.5),
                                    hyper=Hyperparams(lam=0.1)), ZERO_VARIANCE),
], ids=["kkt_residual", "joint_objective", "warm_start", "fit", "fit_graph_given_scores"])
def test_graph_step_entry_points_check_one_problem(call, message):
    # S, W and theta are checked together, so a mismatched S raises instead
    # of broadcasting, and both bca entry points share one positive-diagonal rule.
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


class TestFit:
    def test_huge_lambda_decouples(self, rng):
        # The score LP may push a pair's weight down to its floor EPS_W, so
        # theta is diagonal under every score vector when
        # lam * EPS_W > max_{i != j} |S_ij|.
        x = rng.standard_normal((8, 100))
        lam = 1e3
        off = ~np.eye(8, dtype=bool)
        assert lam * EPS_W > np.abs(empirical_covariance(x)[off]).max()
        res = fit(x, hyper=Hyperparams(lam=lam))
        assert np.abs(res.theta.values[off]).max() == 0.0
        assert res.converged
        assert res.outer_iterations == 1

    def test_isotropic_gaussian_properties(self, rng):
        x = rng.standard_normal((12, 600))
        res = fit(x, hyper=Hyperparams(lam=0.05))
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) >= -1e-8)
        from coreglasso import core_score_lp
        lp = core_score_lp(np.abs(res.theta.values), M=12 / 8)
        assert len(lp.active_constraints) <= 12

    def test_synthetic_convergence(self):
        inst = sample_instance(30, 2000, planted_scores(30), lam=100.0, seed=1)
        res = fit(inst.X, hyper=Hyperparams(lam=0.02))
        assert res.converged
        assert res.outer_iterations <= 15
        trace = np.array(res.objective_trace)
        assert trace.shape[0] == 2 * res.outer_iterations
        assert np.all(np.diff(trace) >= -1e-8)

    def test_fixed_point_terminates_immediately(self, instance20):
        hyper = Hyperparams(lam=0.03)
        first = fit(instance20.X, hyper=hyper)
        again = fit(instance20.X, hyper=hyper, c_init=first.c,
                    theta_init=first.theta)
        assert again.outer_iterations == 1
        assert again.converged

    def test_permutation_equivariance(self, instance20, rng):
        hyper = Hyperparams(lam=0.05, glasso_tol=1e-8)
        base = fit(instance20.X, hyper=hyper)
        perm = rng.permutation(20)
        permuted = fit(instance20.X.values[perm], hyper=hyper)
        np.testing.assert_allclose(
            permuted.theta.values, base.theta.values[np.ix_(perm, perm)],
            atol=1e-4,
        )
        np.testing.assert_allclose(permuted.c.values, base.c.values[perm],
                                   atol=1e-6)

    def test_tiny_budget_approaches_uniform_glasso(self, instance20):
        lam = 0.03
        res = fit(instance20.X, hyper=Hyperparams(lam=lam, M=1e-6))
        s = empirical_covariance(instance20.X)
        uniform = weighted_glasso(s, compute_weights(np.zeros(20)), lam=lam,
                                  tol=1e-5)
        iu = np.triu_indices(20, 1)
        diff = int(np.abs(support(res.theta) - support(uniform.theta))[iu].sum())
        assert diff <= 2

    def test_score_step_ignores_diagonal_pull(self, rng):
        # Node 0 has huge precision (tiny variance) but no edges; nodes
        # 1 and 2 share the only strong edge.  Mass must go to 1 and 2,
        # and the trace must stay monotone even though the literal
        # diagonal-inclusive gains would favor node 0.
        theta = np.diag([20.0, 1.0, 1.0, 1.0])
        theta[1, 2] = theta[2, 1] = 0.45
        sigma = np.linalg.inv(theta)
        x = np.linalg.cholesky(sigma) @ rng.standard_normal((4, 4000))
        res = fit(x, hyper=Hyperparams(lam=0.05, M=0.5))
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) >= -1e-8)
        c = res.c.values
        assert c[1] + c[2] == pytest.approx(0.5, abs=1e-8)
        assert c[0] == pytest.approx(0.0, abs=1e-8)

    def test_infeasible_budget_fails_before_iterating(self, rng):
        x = rng.standard_normal((6, 50))
        with pytest.raises(ConfigError, match="maximum feasible"):
            fit(x, hyper=Hyperparams(lam=0.1, M=5.9))

    def test_infeasible_budget_is_a_config_error(self, rng):
        # M <= N passes the budget rule; the pairwise bounds cap it at ~2.
        x = rng.standard_normal((4, 50))
        with pytest.raises(InfeasibleError, match="maximum feasible") as info:
            fit(x, hyper=Hyperparams(lam=0.1, M=3.0))
        assert isinstance(info.value, ConfigError)

    def test_requires_distances_when_coupled(self, rng):
        x = rng.standard_normal((6, 50))
        with pytest.raises(ConfigError, match="distances"):
            fit(x, hyper=Hyperparams(lam=0.1, e=0.09))

    def test_metadata_of_result(self, instance20):
        res = fit(instance20.X, hyper=Hyperparams(lam=0.05))
        assert abs(res.c.values.sum() - 20 / 8) <= 1e-8
        assert res.theta.n_nodes == 20


    def test_capped_graph_step_is_not_converged(self):
        # d < N without ridge: the first graph step stops at its 20-sweep
        # cap, so the fit stops there, unconverged, after one iteration.
        cases = [
            (sample_instance(30, 5, planted_scores(30), lam=100.0, seed=0).X,
             Hyperparams(lam=0.2, glasso_max_iter=20)),
            (np.random.default_rng(0).standard_normal((30, 10)),
             Hyperparams(lam=0.1, glasso_max_iter=20)),
        ]
        for x, hyper in cases:
            res = fit(x, hyper=hyper)
            assert res.outer_iterations == 1
            assert not res.converged

    @pytest.mark.parametrize("lam", [0.05, 0.1])
    @pytest.mark.parametrize("n, d", [(10, 200), (60, 1200)])
    def test_converged_is_a_partial_optimum(self, n, d, lam):
        # converged certifies that theta meets its KKT conditions under the
        # weights of the returned scores (the scores solve the LP for
        # |theta| by construction), so neither block solve would move.
        _, dist = sample_coordinates(n, seed=3)
        inst = sample_instance(n, d, planted_scores(n), lam=100.0, seed=3)
        hyper = Hyperparams(lam=lam, e=0.09)
        res = fit(inst.X, dist, hyper=hyper)
        assert res.converged
        w = compute_weights(res.c, dist, hyper.e)
        s = empirical_covariance(inst.X)
        assert kkt_residual(res.theta, s, w, lam) <= hyper.glasso_tol


class TestFitGraphGivenScores:
    def test_zero_scores_equal_uniform_glasso(self, instance20):
        hyper = Hyperparams(lam=0.05)
        c = CoreScores(np.zeros(20), budget=0.0)
        via_fit = fit_graph_given_scores(instance20.X, c, hyper=hyper)
        s = empirical_covariance(instance20.X)
        direct = weighted_glasso(s, compute_weights(np.zeros(20)), lam=0.05,
                                 tol=hyper.glasso_tol)
        np.testing.assert_allclose(via_fit.theta.values, direct.theta.values,
                                   atol=1e-12)

    def test_weights_reflect_scores(self):
        c = np.zeros(6)
        c[0] = c[1] = 0.45
        w = compute_weights(c).values
        assert w[0, 1] == pytest.approx(0.1)
        assert w[0, 2] == pytest.approx(0.55)
        assert w[2, 3] == pytest.approx(1.0)

    def test_matches_fit_half_step(self, instance20):
        n = 20
        _, dist = sample_coordinates(n, seed=3)
        s = empirical_covariance(instance20.X)
        for e in (0.0, 0.09):
            hyper = Hyperparams(lam=0.05, e=e, bca_max_iter=1)
            budget = resolve_budget(hyper.M, n)
            c0 = CoreScores(np.full(n, budget / n), budget=budget)
            half = fit_graph_given_scores(instance20.X, c0, dist, hyper=hyper)
            full = fit(instance20.X, dist, hyper=hyper)
            np.testing.assert_array_equal(full.theta.values, half.theta.values)
            # The trace comes from the half-step solvers; both entries are
            # the joint objective after the graph step and after the score step.
            first, second = full.objective_trace
            assert first == pytest.approx(
                joint_objective(half.theta, c0, s, hyper, dist), rel=1e-12, abs=1e-12)
            assert second == pytest.approx(
                joint_objective(full.theta, full.c, s, hyper, dist), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("entry", ["fit_graph_given_scores", "fit", "fit_budget"])
    def test_rejects_bound_violating_scores(self, instance20, entry):
        c = np.zeros(20)
        c[0] = c[1] = 0.75
        scores = CoreScores(c, budget=1.5)
        if entry == "fit_graph_given_scores":
            with pytest.raises(ConfigError, match="pairwise bound"):
                fit_graph_given_scores(instance20.X, scores,
                                       hyper=Hyperparams(lam=0.05))
        elif entry == "fit":
            with pytest.raises(ConfigError, match="pairwise bound"):
                fit(instance20.X, hyper=Hyperparams(lam=0.05, M=1.5), c_init=scores)
        else:
            # Within the bounds, but the fit's budget is N/8 = 2.5.
            uniform = CoreScores(np.full(20, 1.5 / 20), budget=1.5)
            with pytest.raises(ConfigError, match="budget"):
                fit(instance20.X, hyper=Hyperparams(lam=0.05), c_init=uniform)
