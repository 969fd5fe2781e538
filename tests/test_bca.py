from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from coreglasso import (
    ConfigError,
    CoreScores,
    Hyperparams,
    InfeasibleError,
    InputError,
    Precision,
    compute_weights,
    empirical_covariance,
    fit,
    fit_graph_given_scores,
    joint_objective,
    kkt_residual,
    max_core_mass,
    support,
    support_recovery,
    weighted_glasso,
)
from coreglasso import bca
from coreglasso.io import read_features_csv
from coreglasso.model import EPS_W, resolve_budget
from coreglasso.synth import planted_scores, sample_coordinates, sample_instance

from conftest import NEAR_PAIR8, lp_vertices, pair_bounds, rand_pd

FIXTURE30 = Path(__file__).parent / "data" / "fixture30" / "features.csv"
KARATE_EDGES = Path(__file__).parent / "data" / "karate" / "edges.csv"


@pytest.fixture(scope="module")
def instance20():
    return sample_instance(20, 1500, planted_scores(20), lam=60.0, seed=5)


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

    def test_fixed_point_terminates_immediately(self, instance20):
        hyper = Hyperparams(lam=0.03)
        first = fit(instance20.X, hyper=hyper)
        again = fit(instance20.X, hyper=hyper, c_init=first.c,
                    theta_init=first.theta)
        assert again.outer_iterations == 1
        assert again.converged
        # Both graph steps start certified and take no sweep, so nothing moves.
        np.testing.assert_array_equal(again.theta.values, first.theta.values)
        np.testing.assert_array_equal(again.c.values, first.c.values)

    def test_raw_c_init_is_core_scores_of_the_budget(self, rng):
        x, hyper = rng.standard_normal((6, 50)), Hyperparams(lam=0.1)
        raw = fit(x, hyper=hyper, c_init=np.full(6, 0.125))
        typed = fit(x, hyper=hyper, c_init=CoreScores(np.full(6, 0.125), budget=0.75))
        np.testing.assert_array_equal(raw.theta.values, typed.theta.values)
        np.testing.assert_array_equal(raw.c.values, typed.c.values)
        assert raw.objective_trace == typed.objective_trace
        with pytest.raises(InputError, match="^core scores sum to 0.6.*, budget is 0.75$"):
            fit(x, hyper=hyper, c_init=np.full(6, 0.1))

    def test_cap_counts_the_certifying_graph_step(self):
        # fixture30 at lam=0.05 certifies after k = 2 score steps, with a
        # zero-sweep third graph step; a cap of k stops before that step.
        x, _ = read_features_csv(FIXTURE30)
        full = fit(x, hyper=Hyperparams(lam=0.05))
        k = full.outer_iterations
        assert full.converged and k == 2
        capped = fit(x, hyper=Hyperparams(lam=0.05, bca_max_iter=k))
        assert not capped.converged
        np.testing.assert_array_equal(capped.theta.values, full.theta.values)
        np.testing.assert_array_equal(capped.c.values, full.c.values)
        assert capped.objective_trace == full.objective_trace
        assert fit(x, hyper=Hyperparams(lam=0.05, bca_max_iter=k + 1)).converged

    def test_graph_iterates_are_factored_once(self, monkeypatch, cholesky_calls):
        # The cold start and each sweep's iterate are factored once; a warm
        # start, the certifying zero-sweep step included, reuses its factor.
        x, _ = read_features_csv(FIXTURE30)
        sweeps = []
        real = bca.weighted_glasso

        def recorded(*args, **kwargs):
            res = real(*args, **kwargs)
            sweeps.append(res.iterations)
            return res

        monkeypatch.setattr(bca, "weighted_glasso", recorded)
        assert fit(x, hyper=Hyperparams(lam=0.05)).converged
        assert len(sweeps) == 3 and sweeps[-1] == 0
        assert len(cholesky_calls) == 1 + sum(sweeps)

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

    def test_default_start_must_respect_the_bounds(self, rng):
        # Nodes 0 and 1 sit 1e-4 apart, so their bound b_01 = 1 - EPS_W +
        # 0.09 log(1e-4) = 0.17 is below 2M/N = 0.25 of the uniform start; the
        # default start caps both at b_01 / 2, spreads the rest over the
        # other six nodes, and the fit converges from it.
        n = 8
        x = rng.standard_normal((n, 200))
        d = sample_coordinates(n, seed=0)[1].values.copy()
        d[0, 1] = d[1, 0] = 1e-4
        hyper = Hyperparams(lam=0.1, e=0.09)
        b01 = 1 - EPS_W + 0.09 * np.log(1e-4)
        start = bca._start(n, d, hyper.e, 1.0).values
        np.testing.assert_allclose(start, np.r_[b01 / 2, b01 / 2, np.full(n - 2, (1 - b01) / (n - 2))])
        res = fit(x, d, hyper=hyper)
        assert res.converged
        w = compute_weights(res.c, d, hyper.e)
        assert kkt_residual(res.theta, empirical_covariance(x), w, hyper.lam) <= hyper.glasso_tol

    def test_start_beyond_the_half_bounds_is_the_score_lp(self, rng):
        # M = 2.65 exceeds the mass the half bounds of the near pair hold, yet
        # scores of mass up to 2.699 exist: the start is the score LP's vertex
        # for the half bounds as gains, and the fit converges from it.
        x = rng.standard_normal((8, 200))
        d = NEAR_PAIR8
        hyper = Hyperparams(lam=0.1, e=0.09, M=2.65)
        start = bca._start(8, d, hyper.e, hyper.M)
        compute_weights(start, d, hyper.e)
        assert start.values.sum() == pytest.approx(2.65, abs=1e-9)
        res = fit(x, d, hyper=hyper)
        assert res.converged
        w = compute_weights(res.c, d, hyper.e)
        assert kkt_residual(res.theta, empirical_covariance(x), w, hyper.lam) <= hyper.glasso_tol

    def test_metadata_of_result(self, instance20):
        res = fit(instance20.X, hyper=Hyperparams(lam=0.05))
        assert abs(res.c.values.sum() - 20 / 8) <= 1e-8
        assert res.theta.values.shape == (20, 20)
        # One graph-step and one score-step entry per outer iteration.
        assert len(res.objective_trace) == 2 * res.outer_iterations


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


@st.composite
def near_pair_instances(draw):
    """``(n, dist, e, M)``: ``sample_coordinates`` distances with one pair moved
    to 10**u, u in [-4, -1], above the 1.5e-5 where a bound turns negative."""
    n = draw(st.integers(2, 25))
    d = sample_coordinates(n, seed=draw(st.integers(0, 2 ** 16)))[1].values.copy()
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    d[i, j] = d[j, i] = 10.0 ** draw(st.floats(-4, -1))
    M = n / 2 * draw(st.floats(0, 1, exclude_min=True))
    return n, d, draw(st.sampled_from([0.0, 0.09])), M


class TestStart:
    @settings(max_examples=200)
    @given(near_pair_instances())
    # The half bounds h hold less than M = 2.65 here, so every run reaches the LP.
    @example((8, NEAR_PAIR8, 0.09, 2.65))
    def test_water_filled_start(self, instance):
        # The start lies inside every pairwise bound; it is the uniform M/N
        # exactly when that meets the half bounds h, and it raises, only as
        # InfeasibleError, exactly when no scores hold M.
        n, d, e, M = instance
        h = np.minimum(1.0, pair_bounds(n, d, e, EPS_W).min(axis=1) / 2)
        feasible = M <= max_core_mass(n, d, e) + 1e-9
        try:
            c = bca._start(n, d, e, M).values
        except InfeasibleError:
            assert not feasible
            return
        assert feasible
        compute_weights(c, d, e)
        assert abs(c.sum() - M) <= 1e-9
        assert c.min() >= 0 and c.max() <= 1
        assert np.array_equal(c, np.full(n, M / n)) == (M / n <= h.min())


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
        w = compute_weights(c)
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


# The profile g(c) = max_theta f(theta, c) of the joint objective f is the
# graph step's optimum under W(c).  On the score polytope the weights are
# affine in c, so g is convex, with gradient lam * gains(theta*(c)).
PROFILE_TOL = 1e-10


def _gains(theta):
    """``gains_i = 2 sum_{j != i} |theta_ij|``, the score LP's gains."""
    a = np.abs(theta.values)
    np.fill_diagonal(a, 0.0)
    return 2.0 * a.sum(axis=1)


def _profile(s, c, lam):
    return weighted_glasso(s, compute_weights(c), lam, tol=PROFILE_TOL)


# A mass at which the pairwise rows bind (at N/8 every vertex is M e_i).
VERTEX_MASS = 1.5


@cache
def _vertices(n):
    """The distinct vertices of the e = 0 score polytope at ``VERTEX_MASS``."""
    found = lp_vertices(pair_bounds(n, None, 0.0, EPS_W), VERTEX_MASS)
    return np.unique(np.round(found, 12), axis=0)


class TestProfile:
    @settings(max_examples=20)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(4, 10), st.floats(0.01, 0.2))
    def test_score_entry_is_the_tangent_plane(self, seed, n, lam):
        # One graph step at c0 gives theta1, then the score step gives c1:
        # the trace's score entry is its graph entry plus
        # lam * gains(theta1) @ (c1 - c0), to roundoff of the entries.
        x = np.random.default_rng(seed).standard_normal((n, 50 * n))
        res = fit(x, hyper=Hyperparams(lam=lam, bca_max_iter=1))
        first, second = res.objective_trace
        c0 = np.full(n, resolve_budget(None, n) / n)
        tangent = lam * _gains(res.theta) @ (res.c.values - c0)
        assert second - first == pytest.approx(tangent, rel=0, abs=1e-12 * (1 + abs(first)))

    @settings(max_examples=20)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(3, 8), st.floats(0.01, 0.2))
    def test_envelope_gradient(self, seed, n, lam):
        # A central difference of g along a zero-sum direction v matches
        # lam * gains @ v.  Scores in [0.05, 0.45] keep c and c +- h v feasible.
        r = np.random.default_rng(seed)
        s, c, v = rand_pd(n, r), r.uniform(0.05, 0.45, n), r.standard_normal(n)
        v -= v.mean()
        v /= np.linalg.norm(v)
        h = 1e-4
        g = _profile(s, c, lam)
        diff = (_profile(s, c + h * v, lam).objective
                - _profile(s, c - h * v, lam).objective) / (2 * h)
        # The slope moves by O(lam h) over [c - h v, c + h v], even across a
        # support change; roundoff of g grows as 1/h; a KKT residual of
        # PROFILE_TOL moves g by O(PROFILE_TOL^2).  Measured gaps on such
        # draws stay below 1e-3 of this bound.
        bound = lam * h + 1e-12 * (1 + abs(g.objective)) / h
        assert abs(diff - lam * _gains(g.theta) @ v) <= bound

    @settings(max_examples=20)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(3, 8), st.floats(0.01, 0.2))
    def test_profile_is_midpoint_convex(self, seed, n, lam):
        r = np.random.default_rng(seed)
        s = rand_pd(n, r)
        a, b = r.uniform(0.0, 0.45, (2, n))
        ends = [_profile(s, c, lam) for c in (a, b)]
        mid = _profile(s, (a + b) / 2, lam)
        # A KKT residual of PROFILE_TOL leaves each g within PROFILE_TOL *
        # sum|theta| of its optimum (first order); the rest is roundoff.
        slack = PROFILE_TOL * sum(np.abs(p.theta.values).sum() for p in ends + [mid])
        slack += 1e-12 * (1 + abs(mid.objective))
        assert mid.objective <= (ends[0].objective + ends[1].objective) / 2 + slack

    @pytest.mark.parametrize("lam", [0.05, 0.1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [4, 5])
    def test_best_vertex_bounds_the_fit(self, n, seed, lam):
        # g is convex, so its maximum over the polytope is its best vertex
        # (8 vertices at n=4, 45 at n=5).  No certified fit exceeds it, and a
        # fit started there certifies with at least its g: the vertex solves
        # the score LP of its own theta, up to LP ties of equal g.  The
        # default start misses the best vertex in 2 of these 12 cells (n=5,
        # seed 0: by 2.8e-5 at lam=0.05 and 2.6e-4 at lam=0.1); not gated.
        r = np.random.default_rng(seed)
        x = np.linalg.cholesky(rand_pd(n, r)) @ r.standard_normal((n, 20 * n))
        hyper = Hyperparams(lam=lam, M=VERTEX_MASS)
        s, vertices = empirical_covariance(x), _vertices(n)
        profiles = [_profile(s, v, lam) for v in vertices]
        k = int(np.argmax([p.objective for p in profiles]))
        best, size = profiles[k].objective, np.abs(profiles[k].theta.values).sum()
        default = fit(x, hyper=hyper)
        assert default.converged
        # PROFILE_TOL leaves each g within PROFILE_TOL * sum|theta| of its optimum.
        assert default.objective_trace[-1] <= best + PROFILE_TOL * size + 1e-12 * (1 + abs(best))
        started = fit(x, hyper=hyper, c_init=CoreScores(vertices[k], budget=VERTEX_MASS))
        assert started.converged
        assert started.objective_trace[-1] >= best - hyper.glasso_tol * size


def _unit_variance(theta, d, rng):
    """(theta, X): the Precision ``theta`` rescaled to unit variances
    (theta -> D theta D, D = diag(theta^-1)^1/2) and d samples of it drawn
    from ``rng``.  The support is kept, and marginal variance no longer
    ranks the core."""
    s = np.sqrt(np.diag(theta.inverse))
    theta = s[:, None] * theta.values * s[None, :]
    x = np.linalg.cholesky(np.linalg.inv(theta)) @ rng.standard_normal((theta.shape[0], d))
    return theta, x


def _planted_instance(seed):
    """The sampler's model at N = 60 with 10% of the drawn entries kept."""
    planted = sample_instance(60, 1200, planted_scores(60), lam=100.0, keep=0.1,
                              seed=seed).theta_true
    return _unit_variance(planted, 1200, np.random.default_rng(seed))


def _karate_instance(seed):
    """Zachary's karate-club support (34 nodes, 78 edges) with Laplace(0, 1)
    edge weights and diagonal sum_j |theta_ij| + 0.1, at d = 680."""
    i, j = np.loadtxt(KARATE_EDGES, delimiter=",", dtype=int).T
    rng = np.random.default_rng(seed)
    w = np.triu(rng.laplace(size=(34, 34)), 1)
    theta = np.zeros((34, 34))
    theta[i, j] = theta[j, i] = w[i, j]
    theta[np.diag_indices(34)] = np.abs(theta).sum(axis=1) + 0.1
    return _unit_variance(Precision(theta), 680, rng)


def _edge_auc(truth, estimate):
    """Probability that a true edge ranks above a non-edge by |estimate|
    (Mann-Whitney, ties counted half), over pairs i < j."""
    iu = np.triu_indices(truth.shape[0], k=1)
    edge = truth[iu] != 0
    ranks = rankdata(np.abs(estimate[iu]))
    n_edge, n_other = edge.sum(), (~edge).sum()
    return (ranks[edge].sum() - n_edge * (n_edge + 1) / 2) / (n_edge * n_other)


class TestQuality:
    # The fit must beat the trivial estimators on instances that can tell
    # them apart.  Measured on planted seeds 0-2: support F1 0.55-0.67
    # against the complete graph's 0.18, and edge AUC 0.89-0.92 against
    # |S^-1|'s 0.80-0.84.  On karate seeds 0-2: F1 0.65-0.67 against 0.24,
    # but AUC beat |S^-1| by only 0.01-0.06, so the AUC test stays planted.
    # The bounds keep most of the smallest margins (0.36, 0.07).  Karate
    # seed 3 is left out: its fits stop unconverged at a graph step's cap.
    @pytest.fixture(scope="class", params=[0, 1, 2])
    def instance(self, request):
        return _planted_instance(request.param)

    def test_support_beats_the_complete_graph(self, instance):
        theta, x = instance
        f1 = support_recovery(theta, fit(x, hyper=Hyperparams(lam=0.1)).theta.values)[2]
        assert f1 >= support_recovery(theta, np.ones_like(theta))[2] + 0.3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_karate_support_beats_the_complete_graph(self, seed):
        self.test_support_beats_the_complete_graph(_karate_instance(seed))

    def test_edge_ranking_beats_the_inverse_covariance(self, instance):
        theta, x = instance
        auc = _edge_auc(theta, fit(x, hyper=Hyperparams(lam=0.05)).theta.values)
        assert auc >= _edge_auc(theta, np.linalg.inv(empirical_covariance(x))) + 0.05
