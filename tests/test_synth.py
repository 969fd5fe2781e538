import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from coreglasso import (
    ConfigError,
    CoreScores,
    compute_weights,
    empirical_covariance,
)
from coreglasso.synth import planted_scores, sample_coordinates, sample_instance


def _drawn(n, c, lam, seed):
    """The Laplace draw of ``sample_instance`` over the pairs i < j, before
    any entry is zeroed (e = 0)."""
    scale = 1.0 / (lam * compute_weights(c)[np.triu_indices(n, k=1)])
    return np.random.default_rng(seed).laplace(loc=0.0, scale=scale)


class TestSampleInstance:
    def test_huge_lambda_gives_near_diagonal(self):
        c = CoreScores(np.zeros(6), budget=0.0)
        inst = sample_instance(6, 50, c, lam=1e6, keep=1.0,
                               pd_margin=0.1, seed=0)
        theta = inst.theta_true.values
        off = ~np.eye(6, dtype=bool)
        assert np.abs(theta[off]).max() < 1e-4
        np.testing.assert_allclose(np.diag(theta), 0.1, atol=1e-3)

    def test_core_pairs_have_larger_magnitudes(self):
        # Expected |theta_ij| is 1/(lam w); core pairs have small w.
        n = 16
        c = planted_scores(n, core_frac=0.25, core_value=0.49)
        mags_core, mags_per = [], []
        for seed in range(40):
            inst = sample_instance(n, 1, c, lam=10.0, keep=1.0,
                                   seed=seed)
            t = np.abs(inst.theta_true.values)
            mags_core.append(t[:4, :4][np.triu_indices(4, 1)].mean())
            mags_per.append(t[4:, 4:][np.triu_indices(12, 1)].mean())
        assert np.mean(mags_core) > np.mean(mags_per)

    def test_fixed_seed_reproducible(self):
        c = planted_scores(8)
        a = sample_instance(8, 20, c, lam=50.0, seed=11)
        b = sample_instance(8, 20, c, lam=50.0, seed=11)
        np.testing.assert_array_equal(a.theta_true.values, b.theta_true.values)
        np.testing.assert_array_equal(a.X.values, b.X.values)

    def test_pd_for_many_seeds(self):
        c = planted_scores(10)
        for seed in range(25):
            inst = sample_instance(10, 1, c, lam=30.0, seed=seed)
            np.linalg.cholesky(inst.theta_true.values)  # must not raise

    def test_laplace_scale_matches_prior(self):
        # Mean |theta_01| over 1e4 draws vs 1/(lam*w01), within 5%.
        c = CoreScores(np.array([0.3, 0.1, 0.1]), budget=0.5)
        lam = 2.0
        w01 = 1.0 - 0.3 - 0.1
        draws = np.empty(10_000)
        for seed in range(draws.size):
            inst = sample_instance(3, 1, c, lam=lam, keep=1.0,
                                   seed=seed)
            draws[seed] = abs(inst.theta_true.values[0, 1])
        expected = 1.0 / (lam * w01)
        assert abs(draws.mean() - expected) / expected < 0.05

    def test_covariance_converges_to_sigma(self):
        c = planted_scores(12)
        small = sample_instance(12, 1000, c, lam=60.0, seed=1)
        large = sample_instance(12, 4000, c, lam=60.0, seed=1)
        sigma = np.linalg.inv(small.theta_true.values)
        err_small = np.abs(empirical_covariance(small.X) - sigma).max()
        err_large = np.abs(empirical_covariance(large.X) - sigma).max()
        # On this seed the max-entry error about halves (1/sqrt(d) rate).
        assert err_large <= 0.6 * err_small

    def test_sparsify_threshold_zeroes_entries(self):
        c = planted_scores(10)
        inst = sample_instance(10, 1, c, lam=50.0, seed=3)
        off = inst.theta_true.values[np.triu_indices(10, 1)]
        assert np.any(off == 0.0)
        dense = sample_instance(10, 1, c, lam=50.0, keep=1.0, seed=3)
        off_dense = dense.theta_true.values[np.triu_indices(10, 1)]
        assert np.all(off_dense != 0.0)

    @pytest.mark.parametrize("n, seed", [(14, 0), (7, 1)])
    def test_default_keep_zeroes_below_the_30th_percentile(self, n, seed):
        # The draws before keep= zeroed below np.percentile(..., 30.0); at
        # these sizes 100 * (1 - 0.7), which is not 30.0, moves the support.
        c = planted_scores(n)
        offd = _drawn(n, c, 100.0, seed)
        offd[np.abs(offd) < np.percentile(np.abs(offd), 30.0)] = 0.0
        inst = sample_instance(n, 5, c, lam=100.0, seed=seed)
        np.testing.assert_array_equal(inst.theta_true.values[np.triu_indices(n, k=1)], offd)

    @settings(max_examples=60)
    @given(st.floats(0.0, 1.0, exclude_min=True), st.integers(2, 40),
           st.integers(0, 2 ** 31 - 1))
    def test_keep_is_the_kept_fraction(self, keep, n, seed):
        inst = sample_instance(n, 1, planted_scores(n), lam=100.0, keep=keep, seed=seed)
        kept = np.count_nonzero(inst.theta_true.values[np.triu_indices(n, k=1)])
        # |kept - keep * m| < 1, written so a subnormal keep cannot round it away.
        assert kept - 1 < keep * (n * (n - 1) // 2) < kept + 1

    def test_keep_one_keeps_every_drawn_entry(self):
        c = planted_scores(9)
        inst = sample_instance(9, 1, c, lam=100.0, keep=1.0, seed=5)
        np.testing.assert_array_equal(inst.theta_true.values[np.triu_indices(9, k=1)],
                                      _drawn(9, c, 100.0, 5))

    def test_validation(self):
        # The setting, node and score rules have their tables in test_model.py.
        with pytest.raises(ConfigError, match="^keep must be at most 1"):
            sample_instance(6, 10, planted_scores(6), lam=10.0, keep=1.5)
        for name in ("core_frac", "core_value"):
            with pytest.raises(ConfigError, match=f"^{name} must be at most 1"):
                planted_scores(8, **{name: 1.5})
        # The default core block breaks its bounds on unit-square distances at e > 0.
        with pytest.raises(ConfigError, match="violate the pairwise bound"):
            sample_instance(60, 10, planted_scores(60), lam=10.0, e=0.09,
                            dist=sample_coordinates(60, seed=0)[1])


class TestSampleCoordinates:
    def test_minimal_instance(self):
        pts, dist = sample_coordinates(2, seed=4)
        d = dist.values
        assert d.shape == (2, 2)
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0
        assert d[0, 1] == d[1, 0] > 0.0

    def test_triangle_inequality(self, rng):
        _, dist = sample_coordinates(12, seed=8)
        d = dist.values
        for _ in range(50):
            i, j, k = rng.choice(12, size=3, replace=False)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_fixed_seed_reproducible(self):
        a_pts, a_dist = sample_coordinates(9, seed=2)
        b_pts, b_dist = sample_coordinates(9, seed=2)
        np.testing.assert_array_equal(a_pts, b_pts)
        np.testing.assert_array_equal(a_dist.values, b_dist.values)


class TestPlantedScores:
    def test_two_level_structure(self):
        c = planted_scores(40)
        v = c.values
        assert np.all(v[:10] == 0.49)
        assert np.allclose(v[10:], (5.0 - 4.9) / 30)
        assert abs(v.sum() - 5.0) < 1e-12

    def test_no_core_block(self):
        c = planted_scores(2)
        np.testing.assert_allclose(c.values, [0.125, 0.125])

    @pytest.mark.parametrize("kwargs, message", [
        ({"budget": 9}, r"^core budget M=9 infeasible for 8 nodes \(M <= N\)$"),
        ({"core_frac": 0, "budget": 0}, "^M must be finite and positive, got 0$"),
    ], ids=["kwargs0", "kwargs1"])
    def test_budget_rule(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            planted_scores(8, **kwargs)

    def test_overfull_core_rejected(self):
        with pytest.raises(ConfigError):
            planted_scores(8, core_frac=1.0, core_value=0.49, budget=1.0)
