import numpy as np
import pytest

from coreglasso import InputError, kcore_scores, minres_residual, minres_scores

from conftest import STAR


def cycle(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def clique_plus_pendant():
    a = np.zeros((5, 5))
    a[:4, :4] = 1.0 - np.eye(4)
    a[3, 4] = a[4, 3] = 1.0
    return a


class TestKcores:
    def test_cycle_is_two_regular(self):
        res = kcore_scores(cycle(5))
        np.testing.assert_array_equal(res.raw, [2, 2, 2, 2, 2])
        np.testing.assert_array_equal(res.c, np.ones(5))

    def test_star_all_ones(self):
        res = kcore_scores(STAR)
        np.testing.assert_array_equal(res.raw, [1, 1, 1, 1, 1])
        np.testing.assert_array_equal(res.c, np.ones(5))

    def test_clique_plus_pendant(self):
        res = kcore_scores(clique_plus_pendant())
        np.testing.assert_array_equal(res.raw, [3, 3, 3, 3, 1])
        np.testing.assert_allclose(res.c, [1, 1, 1, 1, 1 / 3])

    def test_empty_graph(self):
        res = kcore_scores(np.zeros((4, 4)))
        np.testing.assert_array_equal(res.raw, np.zeros(4))
        np.testing.assert_array_equal(res.c, np.zeros(4))

    def test_permutation_invariance(self, rng):
        n = 12
        a = (rng.uniform(size=(n, n)) < 0.3).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        base = kcore_scores(a).raw
        perm = rng.permutation(n)
        permuted = kcore_scores(a[np.ix_(perm, perm)]).raw
        np.testing.assert_array_equal(permuted, base[perm])

    def test_monotone_under_edge_addition(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 12))
            a = (rng.uniform(size=(n, n)) < 0.3).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            before = kcore_scores(a).raw
            missing = [(i, j) for i in range(n) for j in range(i + 1, n)
                       if a[i, j] == 0]
            if not missing:
                continue
            i, j = missing[int(rng.integers(len(missing)))]
            a[i, j] = a[j, i] = 1.0
            after = kcore_scores(a).raw
            assert np.all(after >= before)

    def test_rejects_non_binary(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(InputError):
            kcore_scores(a)


class TestMinres:
    def test_complete_graph_fixed_point(self):
        a = 1.0 - np.eye(6)
        res = minres_scores(a)
        np.testing.assert_allclose(res.raw, np.ones(6), atol=1e-9)
        np.testing.assert_allclose(res.c, np.ones(6))
        assert minres_residual(a, res.raw) < 1e-12

    def test_empty_graph_warns_and_zeroes(self):
        with pytest.warns(UserWarning):
            res = minres_scores(np.zeros((4, 4)))
        np.testing.assert_array_equal(res.c, np.zeros(4))

    def test_residual_nonincreasing_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 10))
            a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.4)
            a = np.triu(a, 1)
            a = a + a.T
            res = minres_scores(a, max_iter=60)
            diffs = np.diff(res.residuals)
            assert np.all(diffs <= 1e-10)

    def test_weighted_adjacency_accepted(self):
        a = np.array([[0.0, 2.5], [2.5, 0.0]])
        res = minres_scores(a)
        assert res.raw[0] > 0

    def test_scaled_to_unit_interval(self, rng):
        n = 8
        a = (rng.uniform(size=(n, n)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        if a.sum() == 0:
            a[0, 1] = a[1, 0] = 1.0
        res = minres_scores(a)
        assert res.c.min() >= 0.0
        assert res.c.max() == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            minres_scores(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            minres_scores(np.eye(3))
