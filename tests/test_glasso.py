import numpy as np
import pytest

from coreglasso import (
    ConfigError,
    Hyperparams,
    InputError,
    NotPositiveDefiniteError,
    compute_weights,
    core_score_lp,
    empirical_covariance,
    kkt_residual,
    max_core_mass,
    minres_scores,
    support,
    weighted_glasso,
)

from conftest import rand_pd


def uniform_weights(n):
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    return w


class TestTrivialCases:
    def test_large_lambda_inverts_diagonal(self, rng):
        s = rand_pd(5, rng)
        res = weighted_glasso(s, uniform_weights(5), lam=50.0, tol=1e-8)
        assert res.converged
        expected = np.diag(1.0 / np.diag(s))
        np.testing.assert_allclose(res.theta.values, expected, atol=1e-12)

    def test_tiny_lambda_recovers_inverse(self, rng):
        s = rand_pd(10, rng)
        res = weighted_glasso(s, uniform_weights(10), lam=1e-10, tol=1e-9,
                              max_iter=3000)
        inv = np.linalg.inv(s)
        rel = np.abs(res.theta.values - inv).max() / np.abs(inv).max()
        assert rel <= 1e-6

    def test_zero_weights_give_exact_inverse(self, rng):
        s = rand_pd(6, rng)
        res = weighted_glasso(s, np.zeros((6, 6)), lam=0.5, tol=1e-10,
                              max_iter=3000)
        np.testing.assert_allclose(res.theta.values, np.linalg.inv(s), atol=1e-8)


def profiled_two_by_two(theta_offdiag, s_offdiag, lam, w):
    """Objective at off-diagonal value with the diagonal solved exactly.

    For S with unit diagonal the optimal symmetric diagonal a satisfies
    a^2 - theta^2 = a, giving log det = log(a); the ordered-pair penalty
    contributes 2*lam*w*|theta|.
    """
    a = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta_offdiag ** 2))
    return (
        np.log(a) - 2.0 * a - 2.0 * s_offdiag * theta_offdiag
        - 2.0 * lam * w * abs(theta_offdiag)
    )


def golden_section_max(fn, lo, hi, tol=1e-12):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while b - a > tol:
        if fn(c) > fn(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


class TestTwoByTwoOracle:
    # Oracle output (golden-section on the profiled objective) for
    # S = [[1, .6], [.6, 1]], w12 = 1, lam = 0.1; the profiled optimum
    # is exactly -2/3 with diagonal 4/3.
    FROZEN_OFFDIAG = -2.0 / 3.0
    FROZEN_DIAG = 4.0 / 3.0

    def test_oracle_agrees_with_frozen_value(self):
        theta = golden_section_max(
            lambda t: profiled_two_by_two(t, 0.6, 0.1, 1.0), -1.0, 1.0
        )
        assert theta == pytest.approx(self.FROZEN_OFFDIAG, abs=1e-6)

    def test_solver_matches_oracle(self):
        s = np.array([[1.0, 0.6], [0.6, 1.0]])
        res = weighted_glasso(s, uniform_weights(2), lam=0.1, tol=1e-9,
                              max_iter=2000)
        assert res.theta.values[0, 1] == pytest.approx(self.FROZEN_OFFDIAG, abs=1e-6)
        assert res.theta.values[0, 0] == pytest.approx(self.FROZEN_DIAG, abs=1e-6)


class TestCertificate:
    def test_kkt_recomputable_and_within_tol(self, rng):
        n = 8
        s = rand_pd(n, rng, n_samples=60)
        c = rng.uniform(0, 0.45, n)
        w = compute_weights(c)
        res = weighted_glasso(s, w, lam=0.1, tol=1e-6)
        assert res.converged
        recomputed = kkt_residual(res.theta, s, w, 0.1)
        assert recomputed == pytest.approx(res.kkt_residual, abs=1e-12)
        assert recomputed <= 1e-6

    def test_objective_nondecreasing_per_sweep(self, rng):
        s = rand_pd(12, rng, n_samples=40)
        res = weighted_glasso(s, uniform_weights(12), lam=0.05, tol=1e-8)
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs >= -1e-9)

    def test_iteration_cap_reports_unconverged(self, rng):
        s = rand_pd(10, rng)
        res = weighted_glasso(s, uniform_weights(10), lam=0.05, tol=1e-12,
                              max_iter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_rejects_nonpositive_diagonal(self):
        s = np.array([[0.0, 0.1], [0.1, 1.0]])
        with pytest.raises(InputError):
            weighted_glasso(s, uniform_weights(2), lam=0.1)

    def test_rejects_bad_scalars(self):
        # Every scalar setting is checked by one rule and named in the
        # error.  Unchecked, lam=inf "converged" at a NaN objective,
        # tol=nan ran to the cap, kkt_residual scored lam=nan and lam=-5,
        # ridge=nan was dropped and ridge=inf loaded an infinite diagonal,
        # a fractional iteration cap died in range(), a NaN or negative
        # eps_w gave a NaN mass cap or passed unnoticed, and minres_scores
        # ran a NaN or negative tol to its cap.
        s, w, theta = np.eye(6), uniform_weights(6), 2.0 * np.eye(6)
        adj = np.ones((3, 3)) - np.eye(3)
        for name, call in (
            ("lam", lambda: weighted_glasso(s, w, lam=np.inf)),
            ("lam", lambda: weighted_glasso(s, w, lam=np.nan)),
            ("lam", lambda: weighted_glasso(s, w, lam=0.0)),
            ("tol", lambda: weighted_glasso(s, w, lam=0.1, tol=np.nan)),
            ("tol", lambda: weighted_glasso(s, w, lam=0.1, tol=np.inf)),
            ("tol", lambda: weighted_glasso(s, w, lam=0.1, tol=0.0)),
            ("max_iter", lambda: weighted_glasso(s, w, lam=0.1, max_iter=2.5)),
            ("max_iter", lambda: weighted_glasso(s, w, lam=0.1, max_iter=np.nan)),
            ("lam", lambda: kkt_residual(theta, s, w, lam=np.nan)),
            ("lam", lambda: kkt_residual(theta, s, w, lam=np.inf)),
            ("lam", lambda: kkt_residual(theta, s, w, lam=-5.0)),
            ("ridge", lambda: empirical_covariance(s, ridge=np.nan)),
            ("ridge", lambda: empirical_covariance(s, ridge=np.inf)),
            ("bca_max_iter", lambda: Hyperparams(lam=0.1, bca_max_iter=2.5)),
            ("glasso_max_iter", lambda: Hyperparams(lam=0.1, glasso_max_iter=2.5)),
            ("eps_w", lambda: max_core_mass(5, eps_w=np.nan)),
            ("eps_w", lambda: compute_weights(np.zeros(6), eps_w=-0.5)),
            ("eps_w", lambda: core_score_lp(theta, M=1.0, eps_w=np.nan)),
            ("eps_w", lambda: core_score_lp(theta, M=1.0, eps_w=-0.5)),
            ("tol", lambda: minres_scores(adj, tol=np.nan)),
            ("tol", lambda: minres_scores(adj, tol=-1.0)),
            ("max_iter", lambda: minres_scores(adj, max_iter=2.5)),
        ):
            with pytest.raises(ConfigError, match=f"^{name} must be (finite and|a whole number)"):
                call()

    @pytest.mark.parametrize("lam", [0.01, 0.2, 1.0])
    def test_kkt_residual_entrywise_oracle(self, rng, lam):
        # The max over entries of |grad_ij - lam w_ij sign(T_ij)| where
        # T_ij != 0 (w_ii = 0) and of max(0, |grad_ij| - lam w_ij) where
        # T_ij = 0, with grad = T^-1 - S.
        n = 6
        s = rand_pd(n, rng, n_samples=20)
        theta = rand_pd(n, rng)
        theta[0, 1] = theta[1, 0] = theta[2, 4] = theta[4, 2] = 0.0
        theta += n * np.eye(n)
        w = rng.uniform(0.5, 1.5, (n, n))
        w = (w + w.T) / 2
        grad = np.linalg.inv(theta) - s
        expected = 0.0
        for i in range(n):
            for j in range(n):
                rho = 0.0 if i == j else lam * w[i, j]
                if theta[i, j] != 0.0:
                    entry = abs(grad[i, j] - rho * np.sign(theta[i, j]))
                else:
                    entry = abs(grad[i, j]) - rho
                expected = max(expected, entry)
        assert kkt_residual(theta, s, w, lam) == pytest.approx(expected, rel=1e-10)

    def test_kkt_residual_rejects_asymmetric_theta(self):
        # A raw theta is checked as a Precision before any residual.
        with pytest.raises(InputError, match="must be symmetric"):
            kkt_residual([[2, 1], [0, 2]], np.eye(2), np.ones((2, 2)), 0.1)

    def test_rejects_non_pd_warm_start(self, rng):
        s = rand_pd(3, rng)
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            weighted_glasso(s, uniform_weights(3), lam=0.1, warm_start=bad)


class TestInvariances:
    def test_scale_consistency(self, rng):
        s = rand_pd(7, rng)
        w = uniform_weights(7)
        a = weighted_glasso(s, w, lam=0.1, tol=1e-8)
        b = weighted_glasso(s, 0.5 * w, lam=0.2, tol=1e-8)
        np.testing.assert_allclose(a.theta.values, b.theta.values, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        n = 7
        s = rand_pd(n, rng, n_samples=50)
        c = rng.uniform(0, 0.45, n)
        w = compute_weights(c).values
        perm = rng.permutation(n)
        a = weighted_glasso(s, w, lam=0.1, tol=1e-9)
        b = weighted_glasso(
            s[np.ix_(perm, perm)], w[np.ix_(perm, perm)], lam=0.1, tol=1e-9
        )
        np.testing.assert_allclose(
            b.theta.values, a.theta.values[np.ix_(perm, perm)], atol=1e-6
        )

    def test_warm_start_same_solution(self, rng):
        n = 6
        s = rand_pd(n, rng)
        w = uniform_weights(n)
        tol = 1e-7
        cold = weighted_glasso(s, w, lam=0.1, tol=tol)
        warm = weighted_glasso(s, w, lam=0.1, tol=tol, warm_start=rand_pd(n, rng))
        assert np.abs(cold.theta.values - warm.theta.values).max() <= 10 * tol

    def test_warm_start_at_solution_converges_immediately(self, rng):
        s = rand_pd(6, rng)
        w = uniform_weights(6)
        first = weighted_glasso(s, w, lam=0.1, tol=1e-8)
        second = weighted_glasso(s, w, lam=0.1, tol=1e-8,
                                 warm_start=first.theta)
        assert second.iterations == 1


class TestSupport:
    def test_identity_has_empty_support(self):
        assert support(np.eye(4)).sum() == 0

    def test_single_edge(self):
        theta = np.eye(3)
        theta[0, 1] = theta[1, 0] = 0.5
        adj = support(theta, threshold=0.1)
        assert adj.sum() == 2
        assert adj[0, 1] == 1 and adj[1, 0] == 1

    def test_threshold_above_max_gives_empty(self):
        theta = np.eye(3)
        theta[0, 2] = theta[2, 0] = 0.3
        assert support(theta, threshold=0.5).sum() == 0

    def test_rejects_negative_threshold(self):
        for threshold in (-0.1, np.nan, np.inf):
            with pytest.raises(ConfigError, match="threshold must be finite and nonnegative"):
                support(np.eye(2), threshold=threshold)

    def test_solver_produces_exact_zeros(self, rng):
        s = rand_pd(10, rng, n_samples=30)
        res = weighted_glasso(s, uniform_weights(10), lam=0.3, tol=1e-7)
        off = ~np.eye(10, dtype=bool)
        assert np.any(res.theta.values[off] == 0.0)
