import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import coreglasso.metrics as metrics

from coreglasso import (
    InputError,
    compare_methods,
    group_compare,
    ideal_block_distance,
    order_by_scores,
    support,
    support_recovery,
)


class TestOrderByScores:
    def test_sorted_scores_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        m = m + m.T
        og = order_by_scores(m, np.array([3.0, 2.0, 1.0]))
        np.testing.assert_array_equal(og.permutation, [0, 1, 2])
        np.testing.assert_array_equal(og.matrix, m)

    def test_reversed_scores_reverse(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 1.0
        og = order_by_scores(m, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(og.permutation, [2, 1, 0])
        assert og.matrix[1, 2] == 1.0

    def test_ties_keep_index_order(self):
        og = order_by_scores(np.eye(4), np.ones(4))
        np.testing.assert_array_equal(og.permutation, [0, 1, 2, 3])


class TestIdealBlockDistance:
    def test_bounds(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = (rng.uniform(size=(n, n)) < 0.5).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            t = int(rng.integers(1, n + 1))
            d = ideal_block_distance(a, t=t)
            assert 0.0 <= d <= n * n

    def test_block_permutation_invariance(self, rng):
        # Permutations fixing the two blocks leave a block-constant
        # matrix's distance unchanged.
        n, t = 6, 3
        m = np.zeros((n, n))
        m[:t, :t] = 1.0
        m[t:, t:] = 0.4
        base = ideal_block_distance(m, t=t)
        perm = np.concatenate([rng.permutation(t), t + rng.permutation(n - t)])
        permuted = m[np.ix_(perm, perm)]
        assert ideal_block_distance(permuted, t=t) == pytest.approx(base)

    def test_t_out_of_range(self):
        with pytest.raises(InputError):
            ideal_block_distance(np.zeros((3, 3)), t=0)
        with pytest.raises(InputError):
            ideal_block_distance(np.zeros((3, 3)), t=4)


class TestCompareMethods:
    def test_identical_scores_identical_rows(self, rng):
        n = 8
        a = (rng.uniform(size=(n, n)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        theta = rng.standard_normal((n, n))
        theta = theta + theta.T
        scores = rng.uniform(0, 1, n)
        rows = compare_methods(a, theta, {"one": scores, "two": scores.copy()})
        assert rows[0]["dist_truth"] == rows[1]["dist_truth"]
        assert rows[0]["dist_estimate"] == rows[1]["dist_estimate"]

    def test_perfect_core_periphery_equal_columns(self):
        n, t = 8, 2
        a = np.zeros((n, n))
        a[:t, :t] = 1.0
        scores = np.linspace(1.0, 0.1, n)
        rows = compare_methods(a, a, {"m": scores}, t=t)
        assert rows[0]["dist_truth"] == pytest.approx(rows[0]["dist_estimate"])

    def test_composition_matches_manual(self, rng):
        n = 10
        theta = rng.standard_normal((n, n))
        theta = 0.5 * (theta + theta.T)
        truth = (rng.uniform(size=(n, n)) < 0.3).astype(float)
        truth = np.triu(truth, 1)
        truth = truth + truth.T
        scores = rng.uniform(0, 1, n)
        t = n // 4
        rows = compare_methods(truth, theta, {"m": scores}, t=t)
        manual_truth = ideal_block_distance(order_by_scores(truth, scores), t)
        manual_est = ideal_block_distance(
            order_by_scores(np.abs(theta), scores), t
        )
        assert rows[0]["dist_truth"] == manual_truth
        assert rows[0]["dist_estimate"] == manual_est

    def test_binarize_flag(self, rng):
        n = 6
        theta = np.eye(n)
        theta[0, 1] = theta[1, 0] = 0.7
        scores = np.linspace(1, 0, n)
        truth = np.zeros((n, n))
        raw = compare_methods(truth, theta, {"m": scores}, t=2)
        binary = compare_methods(truth, support(theta), {"m": scores}, t=2)
        assert raw[0]["dist_estimate"] != binary[0]["dist_estimate"]
        assert raw[0]["dist_truth"] == binary[0]["dist_truth"]

    def test_default_core_size(self, rng):
        n = 9
        a = np.zeros((n, n))
        scores = rng.uniform(0, 1, n)
        rows = compare_methods(a, a, {"m": scores})
        assert rows[0]["dist_truth"] == pytest.approx((n // 4) ** 2)
        assert rows[0]["dist_estimate"] == pytest.approx((n // 4) ** 2)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="estimate is 4x4, truth is 3x3"):
            compare_methods(np.zeros((3, 3)), np.eye(4), {"m": np.ones(3)})
        with pytest.raises(InputError, match="5 'm' scores for 3 nodes"):
            compare_methods(np.zeros((3, 3)), np.eye(3), {"m": np.ones(5)})
        with pytest.raises(InputError, match="no score vectors"):
            compare_methods(np.zeros((3, 3)), np.eye(3), {})

    @pytest.mark.parametrize("binarize", [False, True])
    @pytest.mark.parametrize("n_methods", [1, 3])
    def test_each_matrix_checked_once(self, rng, monkeypatch, n_methods, binarize):
        n, t = 9, 2
        truth = np.triu((rng.uniform(size=(n, n)) < 0.4).astype(float), 1)
        truth = truth + truth.T
        theta = rng.standard_normal((n, n))
        theta = theta + theta.T
        estimate = support(theta) if binarize else theta
        scores = {f"m{k}": rng.uniform(0, 1, n) for k in range(n_methods)}
        names = []
        rule = metrics._check_square_symmetric

        def counted(values, name):
            names.append(name)
            return rule(values, name)

        monkeypatch.setattr(metrics, "_check_square_symmetric", counted)
        rows = compare_methods(truth, estimate, scores, t=t)
        monkeypatch.undo()
        assert names == ["truth", "estimate"]
        est = np.abs(estimate)
        for row, c in zip(rows, scores.values(), strict=True):
            assert row["dist_truth"] == ideal_block_distance(order_by_scores(truth, c), t)
            assert row["dist_estimate"] == ideal_block_distance(order_by_scores(est, c), t)

    @pytest.mark.parametrize("truth, estimate", [(None, np.eye(3)), (np.eye(3), None)])
    def test_both_matrices_required(self, truth, estimate):
        with pytest.raises(InputError, match="must be square"):
            compare_methods(truth, estimate, {"m": np.ones(3)})


class TestSupportRecovery:
    def test_perfect_estimate(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1
        assert support_recovery(a, a) == (1.0, 1.0, 1.0)

    def test_empty_estimate(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1
        p, r, f1 = support_recovery(a, np.zeros((4, 4)))
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_complement_estimate(self):
        n = 5
        a = np.zeros((n, n))
        a[0, 1] = a[1, 0] = 1
        comp = 1.0 - a - np.eye(n)
        p, r, _ = support_recovery(a, comp)
        assert p == 0.0 and r == 0.0

    def test_counts(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1
        a[2, 3] = a[3, 2] = 1
        e = np.zeros((4, 4))
        e[0, 1] = e[1, 0] = 1
        e[1, 2] = e[2, 1] = 1
        p, r, f1 = support_recovery(a, e)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)
        assert f1 == pytest.approx(0.5)


class TestGroupCompare:
    def test_identical_groups_zero_diff(self, rng):
        group = [rng.uniform(0.1, 1, 6) for _ in range(3)]
        diff, top = group_compare(group, [g.copy() for g in group], k=2)
        np.testing.assert_allclose(diff, 0.0, atol=1e-15)
        np.testing.assert_array_equal(top, [0, 1])

    def test_single_coordinate_difference(self):
        a = np.array([0.2, 0.2, 0.2])
        b = np.array([0.2, 0.2, 0.6])
        diff, top = group_compare([a], [b], k=1)
        assert top[0] == 2

    def test_rescaling_invariance(self, rng):
        group_a = [rng.uniform(0.1, 1, 5) for _ in range(4)]
        group_b = [rng.uniform(0.1, 1, 5) for _ in range(4)]
        d1, _ = group_compare(group_a, group_b, k=3)
        d2, _ = group_compare([2.0 * g for g in group_a], group_b, k=3)
        np.testing.assert_allclose(d1, d2, atol=1e-15)

    def test_errors(self):
        with pytest.raises(InputError):
            group_compare([], [np.ones(3)], k=1)
        with pytest.raises(InputError):
            group_compare([np.ones(3)], [np.ones(4)], k=1)
        with pytest.raises(InputError):
            group_compare([np.zeros(3)], [np.ones(3)], k=1)
        with pytest.raises(InputError, match="group a has mismatched score lengths"):
            group_compare([np.ones(3), np.ones(4)], [np.ones(3)], k=1)

    def test_k_above_n_returns_every_index(self):
        # 3 indices in rank order: the CLI reports k = len(top).
        diff, top = group_compare([np.array([0.2, 0.2, 0.6])], [np.array([0.3, 0.5, 0.2])], k=9)
        np.testing.assert_array_equal(top, [2, 1, 0])
        np.testing.assert_allclose(diff, [0.1, 0.3, 0.4])

    @settings(max_examples=25)
    @given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
    def test_ties_break_by_index(self, n, seed):
        r = np.random.default_rng(seed)
        a = r.uniform(0.1, 1, n)
        diff, top = group_compare([a], [a], k=n)
        np.testing.assert_array_equal(top, np.arange(n))


@pytest.mark.parametrize("scores, message", [
    ([np.nan, 1.0, 2.0], "finite 1-D vector"),
    ([1.0, np.inf, 2.0], "finite 1-D vector"),
    ([[1.0, 2.0, 3.0]], "finite 1-D vector"),
    ([1.0, 2.0], "2 .*scores for 3 nodes|different score lengths"),
], ids=["nan", "inf", "2-D", "wrong-length"])
@pytest.mark.parametrize("call", [
    lambda s: order_by_scores(np.eye(3), s),
    lambda s: compare_methods(np.eye(3), np.eye(3), {"x": s}, t=1),
    lambda s: group_compare([s], [np.ones(3)], k=1),
], ids=["order_by_scores", "compare_methods", "group_compare"])
def test_raw_scores_checked_once(call, scores, message):
    # Every entry point that takes a raw score vector runs the one check:
    # 1-D, finite, and one value per node.
    with pytest.raises(InputError, match=message):
        call(np.array(scores))


_ASYMMETRIC = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize("bad, message", [
    (np.ones((2, 3)), "must be square"),
    (np.where(np.eye(3) > 0, np.nan, 0.0), "non-finite"),
    (np.where(np.eye(3) > 0, np.inf, 0.0), "non-finite"),
    (_ASYMMETRIC, "must be symmetric"),
], ids=["non-square", "nan", "inf", "asymmetric"])
@pytest.mark.parametrize("call", [
    lambda m: order_by_scores(m, np.ones(3)),
    lambda m: ideal_block_distance(m, t=1),
    lambda m: compare_methods(m, np.eye(3), {"x": np.ones(3)}, t=1),
    lambda m: compare_methods(np.eye(3), m, {"x": np.ones(3)}, t=1),
    lambda m: support_recovery(m, np.eye(3)),
    lambda m: support_recovery(np.eye(3), m),
], ids=["order_by_scores", "ideal_block_distance", "compare_methods_truth",
        "compare_methods_estimate", "support_recovery_truth", "support_recovery_estimate"])
def test_matrices_checked_by_model_rule(call, bad, message):
    # Every matrix argument runs the model's square/finite/symmetric check.
    with pytest.raises(InputError, match=message):
        call(bad)
