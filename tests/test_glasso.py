import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreglasso import (
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
    compute_weights,
    kkt_residual,
    support,
    weighted_glasso,
)
from coreglasso import glasso
from coreglasso.glasso import _pair_step

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


class TestPairStep:
    # Along T + t (E_ij + E_ji) the objective changes by
    # log D(t) - 2 s t - 2 rho |th + t|, D(t) = 1 + 2 b_ij t + a t^2 with
    # a = b_ij^2 - b_ii b_jj: strictly concave where D > 0, so a step is the
    # maximizer exactly when it meets the subgradient condition there.

    # |corr| <= 0.99 keeps the pair's 2x2 block of the inverse at condition
    # number <= 199; past that, D(t) itself cannot be evaluated to 1e-8.
    @settings(max_examples=200)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(-0.99, 0.99),
           st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), st.floats(-1e3, 1e3),
           st.floats(0.0, 1e3))
    # A root that cancels: c = s_ij + rho sgn is tiny against b_ij.
    @example(1.0, 1.0, 0.5, 0.0, 1e-12, 0.0)
    def test_step_meets_subgradient_condition(self, b_ii, b_jj, corr, th_ij, s_ij, rho):
        b_ij = corr * np.sqrt(b_ii * b_jj)
        t = _pair_step(th_ij, b_ii, b_jj, b_ij, s_ij, rho)
        a = b_ij * b_ij - b_ii * b_jj
        d = 1.0 + 2.0 * b_ij * t + a * t * t
        assert d > 0.0
        slope = 2.0 * (b_ij + a * t) / d - 2.0 * s_ij
        # Relative to the magnitudes of the slope's terms, with b_ij raised
        # to sqrt(b_ii b_jj) so that a zero slope still has a scale.
        scale = 2.0 * (np.sqrt(b_ii * b_jj) + abs(a * t)) / d + 2.0 * abs(s_ij) + 2.0 * rho
        tol = 1e-8 * scale
        if th_ij + t == 0.0:
            assert abs(slope) <= 2.0 * rho + tol
        else:
            assert abs(slope - 2.0 * rho * np.sign(th_ij + t)) <= tol

    def test_kink_outside_interval(self):
        # D > 0 on (-1, 1) and the kink is at -5, so the step stays on the
        # side of th_ij = 5: -2t / (1 - t^2) = 2 (s + rho) = 1 at 1 - sqrt(2).
        t = _pair_step(5.0, 1.0, 1.0, 0.0, 0.3, 0.2)
        assert t == pytest.approx(1.0 - np.sqrt(2.0), rel=1e-14)

    def test_root_rounded_onto_the_kink_gives_the_kink(self):
        # The slope at the kink exceeds 2 rho by 7e-16, so the root on its
        # side rounds onto the kink itself, which the step then returns.
        th_ij = -0.15922500991447772
        t = _pair_step(th_ij, 6.886865646358878, 6.5395468350513815, 2.276385154770425,
                       -6.084677734619267, 0.3889214239791038)
        assert t == -th_ij

    def test_tiny_penalty_reaches_the_inverse(self):
        # S_02 = 0 with lam = 1e-30 makes c = s_02 +- lam tiny against
        # b_02; a root formula that cancels there stalled this solve with
        # a KKT residual of 0.25.
        s = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        res = weighted_glasso(s, uniform_weights(3), lam=1e-30, tol=1e-9, max_iter=500)
        assert res.converged
        np.testing.assert_allclose(res.theta.values, np.linalg.inv(s), atol=1e-8)


def random_problem(seed, n):
    """A random PD covariance and the weights of random feasible scores
    (every ``c_i + c_j`` below ``1 - eps_w``)."""
    r = np.random.default_rng(seed)
    return rand_pd(n, r), compute_weights(r.uniform(0, 0.45, n))


class TestCertificate:
    @settings(max_examples=25)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.floats(0.01, 1.0))
    def test_kkt_recomputable_and_within_tol(self, seed, n, lam):
        s, w = random_problem(seed, n)
        res = weighted_glasso(s, w, lam=lam, tol=1e-6)
        assert res.converged
        recomputed = kkt_residual(res.theta, s, w, lam)
        assert recomputed == pytest.approx(res.kkt_residual, abs=1e-12)
        assert recomputed <= 1e-6
        # res.theta carries the inverse its own constructor computed; the
        # raw matrix is factored afresh, so this certificate is independent.
        assert kkt_residual(res.theta.values, s, w, lam) <= 1e-6

    @settings(max_examples=25)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.floats(0.01, 1.0))
    def test_objective_nondecreasing_per_sweep(self, seed, n, lam):
        s, w = random_problem(seed, n)
        res = weighted_glasso(s, w, lam=lam, tol=1e-8)
        # The start's objective, then one entry per sweep.
        assert len(res.objective_trace) == res.iterations + 1
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs >= -1e-9)
        # A converged result certifies itself: re-solving from it takes no sweep.
        assert res.converged
        again = weighted_glasso(s, w, lam=lam, tol=1e-8, warm_start=res.theta)
        assert again.iterations == 0
        np.testing.assert_array_equal(again.theta.values, res.theta.values)

    def test_iteration_cap_reports_unconverged(self, rng):
        s = rand_pd(10, rng)
        res = weighted_glasso(s, uniform_weights(10), lam=0.05, tol=1e-12,
                              max_iter=2)
        assert not res.converged
        assert res.iterations == 2

    @pytest.mark.parametrize("step, message", [
        (None, r"no admissible step for pair \(0, 1\)"),
        (10.0, "positive definiteness lost at sweep 1"),
    ], ids=["no-step", "not-pd"])
    def test_lost_invariant_is_numerical_error(self, monkeypatch, step, message):
        # A pair step the update cannot take, or one that leaves the cone,
        # stops the solve instead of returning a wrong theta.
        monkeypatch.setattr(glasso, "_pair_step", lambda *args: step)
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NumericalError, match=message):
            weighted_glasso(s, uniform_weights(2), lam=0.01)

    def test_rejects_nonpositive_diagonal(self):
        s = np.array([[0.0, 0.1], [0.1, 1.0]])
        with pytest.raises(InputError):
            weighted_glasso(s, uniform_weights(2), lam=0.1)

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
        w = compute_weights(c)
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
        # A start within tol is certified before any sweep and returned as is.
        assert second.iterations == 0
        assert second.converged
        np.testing.assert_array_equal(second.theta.values, first.theta.values)

    def test_diagonal_covariance_cold_start_is_optimal(self):
        # With S diagonal the cold start diag(1/S_ii) meets every KKT
        # condition: T^-1 - S = 0, so no sweep is needed.
        s = np.diag([0.5, 2.0, 1.0, 4.0])
        res = weighted_glasso(s, uniform_weights(4), lam=0.1, tol=1e-12)
        assert res.iterations == 0
        assert res.converged
        assert len(res.objective_trace) == 1
        np.testing.assert_array_equal(res.theta.values, np.diag(1.0 / np.diag(s)))


class TestFactorization:
    # A Precision is factored once, when it is built: a solve factors each
    # iterate it makes once and a given Precision never again.

    def test_certified_warm_start_is_not_refactored(self, rng, cholesky_calls):
        s, w = rand_pd(6, rng), uniform_weights(6)
        first = weighted_glasso(s, w, lam=0.1, tol=1e-8)
        cholesky_calls.clear()
        again = weighted_glasso(s, w, lam=0.1, tol=1e-8, warm_start=first.theta)
        assert again.iterations == 0
        assert again.theta is first.theta
        assert cholesky_calls == []

    def test_cold_solve_factors_each_iterate_once(self, rng, cholesky_calls):
        res = weighted_glasso(rand_pd(8, rng), uniform_weights(8), lam=0.1, tol=1e-8)
        assert res.iterations >= 2
        assert len(cholesky_calls) == res.iterations + 1


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

    def test_solver_produces_exact_zeros(self, rng):
        s = rand_pd(10, rng, n_samples=30)
        res = weighted_glasso(s, uniform_weights(10), lam=0.3, tol=1e-7)
        off = ~np.eye(10, dtype=bool)
        assert np.any(res.theta.values[off] == 0.0)
