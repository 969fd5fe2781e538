import dataclasses
import math
import pickle
import types

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import coreglasso

from coreglasso import (
    CoreScores,
    DistanceMatrix,
    FeatureMatrix,
    Hyperparams,
    InputError,
    ConfigError,
    NotPositiveDefiniteError,
    Precision,
    compute_weights,
    empirical_covariance,
    joint_objective,
)
from coreglasso.model import EPS_W, pair_bounds, resolve_budget
from coreglasso.simplex import simplex_solve

from conftest import rand_pd


class TestTypes:
    def test_feature_matrix_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            FeatureMatrix(np.ones((1, 5)))
        with pytest.raises(InputError):
            FeatureMatrix(np.ones((3, 0)))
        with pytest.raises(InputError):
            FeatureMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
        for values in (np.ones(4), np.ones((2, 3, 4))):
            with pytest.raises(InputError, match="feature matrix must be 2-D"):
                FeatureMatrix(values)
        with pytest.raises(InputError, match="2 node labels for 3 nodes"):
            FeatureMatrix(np.ones((3, 4)), node_labels=("a", "b"))

    def test_feature_matrix_is_read_only(self):
        fm = FeatureMatrix(np.ones((3, 4)))
        with pytest.raises(ValueError):
            fm.values[0, 0] = 2.0

    def test_core_scores_budget(self):
        c = CoreScores(np.array([0.25, 0.25, 0.5]), budget=1.0)
        assert len(c) == 3
        with pytest.raises(InputError):
            CoreScores(np.array([0.5, 0.6]), budget=1.0)
        with pytest.raises(InputError):
            CoreScores(np.array([1.5, 0.0]), budget=1.5)
        with pytest.raises(InputError, match="core scores must be a vector"):
            CoreScores(np.full((2, 2), 0.25), budget=1.0)
        # abs(sum - nan) > tol is False, so the sum test must fail closed.
        with pytest.raises(InputError, match="budget is nan"):
            CoreScores(np.array([0.5, 0.5]), budget=float("nan"))

    def test_precision_requires_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            Precision(np.array([[1.0, 2.0], [2.0, 1.0]]))
        Precision(np.eye(3))

    def test_distance_matrix_symmetric(self):
        with pytest.raises(InputError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_hyperparams_validation(self):
        with pytest.raises(ConfigError):
            Hyperparams(lam=0.0)
        with pytest.raises(ConfigError):
            Hyperparams(lam=0.1, e=-1)
        with pytest.raises(ConfigError):
            Hyperparams(lam=0.1, bca_max_iter=0)
        h = Hyperparams(lam=0.1)
        assert resolve_budget(h.M, 16) == 2.0
        with pytest.raises(ConfigError):
            resolve_budget(Hyperparams(lam=0.1, M=10.0).M, 4)
        # Every field has a range rule.
        assert Hyperparams._RULES.keys() == {f.name for f in dataclasses.fields(Hyperparams)}

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(Hyperparams) if f.type in (float, float | None)
    ])
    def test_hyperparams_reject_infinite(self, name):
        fields = {"lam": 0.1, name: float("inf")}
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            Hyperparams(**fields)


@pytest.mark.parametrize("call, name", [
    (lambda: coreglasso.planted_scores(8.5), "n"),
    (lambda: coreglasso.sample_instance(4.0, 5, coreglasso.planted_scores(4), lam=1.0), "n"),
    (lambda: coreglasso.sample_instance(4, 2.5, coreglasso.planted_scores(4), lam=1.0), "d"),
    (lambda: coreglasso.sample_coordinates(3.5), "n"),
    (lambda: coreglasso.max_core_mass(3.5), "n"),
    (lambda: coreglasso.group_compare([np.ones(3)], [np.ones(3)], k=2.5), "k"),
    (lambda: coreglasso.ideal_block_distance(np.zeros((3, 3)), t=2.5), "t"),
    (lambda: coreglasso.compare_methods(np.zeros((4, 4)), np.eye(4), {"m": np.ones(4)}, t=2.5), "t"),
    (lambda: Hyperparams(lam=0.1, bca_max_iter=True), "bca_max_iter"),
    (lambda: coreglasso.group_compare([np.ones(3)], [np.ones(3)], k=True), "k"),
    (lambda: coreglasso.ideal_block_distance(np.zeros((3, 3)), t=True), "t"),
], ids=["planted_scores", "sample_instance", "sample_instance_d", "sample_coordinates",
        "max_core_mass", "group_compare", "ideal_block_distance", "compare_methods",
        "bool_bca_max_iter", "bool_group_compare", "bool_ideal_block_distance"])
def test_sizes_must_be_whole_numbers(call, name):
    with pytest.raises(ConfigError, match=f"^{name} must be a whole number >= 1"):
        call()


_EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize("call", [
    lambda: coreglasso.weighted_glasso(_EMPTY, _EMPTY, 0.1),
    lambda: coreglasso.kkt_residual(_EMPTY, _EMPTY, _EMPTY, 0.1),
    lambda: coreglasso.scores_from_graph(_EMPTY),
    lambda: coreglasso.minres_scores(_EMPTY),
    lambda: coreglasso.kcore_scores(_EMPTY),
    lambda: coreglasso.support(_EMPTY),
    lambda: coreglasso.support_recovery(_EMPTY, _EMPTY),
    lambda: coreglasso.order_by_scores(_EMPTY, np.ones(0)),
    lambda: coreglasso.ideal_block_distance(_EMPTY, t=1),
    lambda: coreglasso.compare_methods(_EMPTY, _EMPTY, {"m": np.ones(0)}),
    lambda: DistanceMatrix(_EMPTY),
    lambda: Precision(_EMPTY),
], ids=["weighted_glasso", "kkt_residual", "scores_from_graph", "minres_scores",
        "kcore_scores", "support", "support_recovery", "order_by_scores",
        "ideal_block_distance", "compare_methods", "DistanceMatrix", "Precision"])
def test_empty_matrix_rejected(call):
    # The matrix rule itself rejects a 0x0 matrix, for every entry point.
    with pytest.raises(InputError, match=r"must be non-empty, got shape \(0, 0\)"):
        call()


def test_package_all_lists_every_public_name():
    public = {name for name, value in vars(coreglasso).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(coreglasso.__all__), public - set(coreglasso.__all__)


def test_package_republishes_each_module_all():
    # A module's __all__ is the one list of its public names; the package
    # republishes those of its published modules and nothing else.
    published = [getattr(coreglasso, name) for name in (
        "baselines", "bca", "corescore", "errors", "glasso", "metrics", "model", "synth")]
    names = []
    for module in published:
        assert "__all__" in vars(module), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
        names += module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert coreglasso.__all__ == ["__version__", *names]
    for module in published:
        for name in module.__all__:
            assert getattr(coreglasso, name) is getattr(module, name), name


@pytest.mark.parametrize("value", [
    FeatureMatrix(np.ones((3, 4)), node_labels=("a", "b", "c")),
    DistanceMatrix(np.ones((3, 3)) - np.eye(3)),
    CoreScores(np.array([0.25, 0.25, 0.5]), budget=1.0),
    Precision(2.0 * np.eye(3)),
], ids=lambda value: type(value).__name__)
def test_pickle_round_trip_keeps_arrays_read_only(value):
    # grid --jobs pickles its DistanceMatrix to every worker.
    copy = pickle.loads(pickle.dumps(value))
    for f in dataclasses.fields(value):
        before, after = getattr(value, f.name), getattr(copy, f.name)
        if isinstance(before, np.ndarray):
            np.testing.assert_array_equal(after, before)
            assert not after.flags.writeable, f.name
        else:
            assert after == before, f.name


def test_unpickling_judges_the_values_again():
    bad = object.__new__(DistanceMatrix)
    object.__setattr__(bad, "values", np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(InputError, match="negative entries"):
        pickle.loads(pickle.dumps(bad))


_GRAPH4 = np.ones((4, 4)) - np.eye(4)


@pytest.mark.parametrize("build", [
    lambda: FeatureMatrix(np.ones((3, 4))),
    lambda: DistanceMatrix(_GRAPH4),
    lambda: coreglasso.planted_scores(8),
    lambda: Precision(np.eye(3)),
    lambda: coreglasso.weighted_glasso(np.eye(3), np.ones((3, 3)), 0.1),
    lambda: coreglasso.fit(np.random.default_rng(0).standard_normal((6, 40)),
                           hyper=Hyperparams(lam=0.1)),
    lambda: coreglasso.scores_from_graph(_GRAPH4),
    lambda: simplex_solve(np.array([1.0, -1.0]), a_eq=np.ones((1, 2)), b_eq=np.ones(1)),
    lambda: coreglasso.sample_instance(8, 20, coreglasso.planted_scores(8), lam=10.0),
    lambda: coreglasso.kcore_scores(_GRAPH4),
    lambda: coreglasso.order_by_scores(np.eye(3), np.array([0.1, 0.2, 0.3])),
], ids=["FeatureMatrix", "DistanceMatrix", "CoreScores", "Precision", "GlassoResult",
        "FitResult", "LpResult", "SimplexResult", "SyntheticInstance", "BaselineScores",
        "OrderedGraph"])
def test_value_types_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and a in [a] and {a} == {a}
    assert hash(a) == hash(a)
    # Two builds from equal values are two values.
    assert a != b and b not in [a] and len({a, b}) == 2
    # Hyperparams holds only scalars and compares by value.
    assert Hyperparams(lam=0.1) == Hyperparams(lam=0.1)


class TestPrecision:
    def test_inverse_is_read_only_and_exactly_symmetric(self, rng):
        p = Precision(rand_pd(6, rng))
        assert np.array_equal(p.inverse, p.inverse.T)
        with pytest.raises(ValueError):
            p.inverse[0, 0] = 1.0

    def test_inverse_inverts_values(self, rng):
        p = Precision(rand_pd(8, rng))
        np.testing.assert_allclose(p.values @ p.inverse, np.eye(8), rtol=0, atol=1e-10)

    def test_logdet_matches_slogdet(self, rng):
        theta = rand_pd(7, rng)
        sign, logdet = np.linalg.slogdet(theta)
        assert sign == 1.0
        assert Precision(theta).logdet == pytest.approx(logdet, rel=1e-12, abs=1e-12)

    def test_replace_recomputes_the_factor(self, rng):
        theta = rand_pd(5, rng)
        p = dataclasses.replace(Precision(np.eye(5)), values=theta)
        np.testing.assert_allclose(p.inverse, np.linalg.inv(theta), rtol=0, atol=1e-10)
        assert p.logdet == pytest.approx(np.linalg.slogdet(theta)[1], rel=1e-12, abs=1e-12)
        # The derived fields come only from the factor of the values.
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(p, inverse=np.eye(5))


class TestEmpiricalCovariance:
    def test_constant_columns_give_zero(self):
        x = np.tile(np.array([[1.0], [2.0], [-3.0]]), (1, 7))
        s = empirical_covariance(x)
        assert np.abs(s).max() == 0.0

    def test_two_by_two_by_hand(self):
        x = np.array([[1.0, -1.0], [-1.0, 1.0]])
        s = empirical_covariance(x)
        np.testing.assert_allclose(s, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_matches_extended_precision_two_pass(self, rng):
        # Oracle: direct summation of (x_k - mean)(x_k - mean)^T in long double.
        x = rng.standard_normal((4, 100))
        xl = x.astype(np.longdouble)
        mean = xl.mean(axis=1)
        acc = np.zeros((4, 4), dtype=np.longdouble)
        for k in range(100):
            dev = xl[:, k] - mean
            acc += np.outer(dev, dev)
        expected = (acc / 100).astype(float)
        s = empirical_covariance(x)
        assert np.abs(s - expected).max() < 1e-12

    def test_symmetry_and_psd(self, rng):
        x = rng.standard_normal((6, 9))
        s = empirical_covariance(x)
        assert np.array_equal(s, s.T)
        assert np.linalg.eigvalsh(s).min() > -1e-10

    def test_ridge_makes_pd(self, rng):
        x = rng.standard_normal((8, 3))  # rank deficient
        s = empirical_covariance(x, ridge=0.1)
        assert np.linalg.eigvalsh(s).min() > 0

    def test_empty_data_errors(self):
        with pytest.raises(InputError):
            empirical_covariance(np.empty((3, 0)))


class TestComputeWeights:
    def test_zero_scores_give_unit_weights(self):
        w = compute_weights(np.zeros(4))
        off = ~np.eye(4, dtype=bool)
        assert np.all(w[off] == 1.0)
        assert np.all(np.diag(w) == 0.0)

    def test_formula(self):
        w = compute_weights(np.array([0.3, 0.4]))
        assert w[0, 1] == pytest.approx(0.3)

    def test_floor_active(self):
        w = compute_weights(np.array([0.5, 0.5]))
        assert w[0, 1] == 1e-3

    def test_unit_distance_log_vanishes(self):
        dist = DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        w = compute_weights(np.zeros(2), dist, e=0.09)
        assert w[0, 1] == pytest.approx(1.0)

    def test_pair_bounds_reject_bad_coupling(self):
        # A negative or non-finite e would silently solve the e = 0 program.
        dist = DistanceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        for e in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="e must be finite and nonnegative"):
                pair_bounds(2, dist, e)

    def test_wrong_size_distances(self):
        # Given distances must be N x N even when e = 0 leaves them unused.
        dist = DistanceMatrix(1.0 - np.eye(4))
        with pytest.raises(InputError, match="distance matrix is 4x4 for 5 nodes"):
            compute_weights(np.zeros(5), dist, e=0.0)

    def test_raw_inputs_checked_as_their_types(self):
        # Raw scores are CoreScores (in [0, 1]); raw distances a DistanceMatrix.
        with pytest.raises(InputError, match=r"outside \[0, 1\]"):
            compute_weights(np.array([2.0, 0, 0]))
        with pytest.raises(InputError, match="distance matrix must be symmetric"):
            pair_bounds(2, [[0, 1], [2, 0]], 0.09)

    def test_requires_distances_when_coupled(self):
        with pytest.raises(ConfigError):
            compute_weights(np.zeros(3), None, e=0.09)
        dist = DistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(ConfigError):
            compute_weights(np.zeros(3), dist, e=0.09)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1), st.booleans())
    def test_symmetric_and_floored(self, n, seed, spatial):
        r = np.random.default_rng(seed)
        c = r.uniform(0, 1, n)
        c = np.minimum(c, 1.0)
        dist = None
        e = 0.0
        if spatial:
            pts = r.uniform(0, 1, (n, 2))
            d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
            if d[~np.eye(n, dtype=bool)].min() <= 0:
                return
            dist = DistanceMatrix(d)
            e = 0.09
        w = compute_weights(c, dist, e=e)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(w, w.T)
        assert w[off].min() >= 1e-3
        assert np.all(np.diag(w) == 0.0)

    def test_exactly_symmetric_where_the_formula_rounds(self):
        # 1 - c_i - c_j and 1 - c_j - c_i differ in the last bit for many
        # pairs; the weights average the two, so W equals its transpose.
        c = np.random.default_rng(0).uniform(0, 0.45, 60)
        raw = 1.0 - c[:, None] - c[None, :]
        assert not np.array_equal(raw, raw.T)
        w = compute_weights(c)
        assert np.array_equal(w, w.T)


class TestJointObjective:
    def test_identity_case(self):
        n = 5
        h = Hyperparams(lam=0.3)
        c = CoreScores(np.full(n, 0.1), budget=0.5)
        val = joint_objective(np.eye(n), c, np.eye(n), h)
        assert val == pytest.approx(-n)

    def test_scaled_identity(self):
        h = Hyperparams(lam=0.3)
        val = joint_objective(2 * np.eye(2), np.zeros(2), np.eye(2), h)
        assert val == pytest.approx(2 * math.log(2) - 4)

    def test_matches_eigendecomposition_oracle(self, rng):
        n = 6
        theta = rand_pd(n, rng)
        s = rand_pd(n, rng)
        c = rng.uniform(0, 0.4, n)
        h = Hyperparams(lam=0.2)
        got = joint_objective(theta, c, s, h)
        # Oracle: log det via eigenvalues, penalty summed explicitly.
        logdet = float(np.log(np.linalg.eigvalsh(theta)).sum())
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    w[i, j] = max(EPS_W, 1 - c[i] - c[j])
        expected = logdet - np.trace(s @ theta) - h.lam * float(
            (w * np.abs(theta)).sum()
        )
        assert got == pytest.approx(expected, abs=1e-10)

    def test_rejects_non_pd(self):
        h = Hyperparams(lam=0.1)
        with pytest.raises(NotPositiveDefiniteError):
            joint_objective(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2), np.eye(2), h)

    def test_permutation_invariance(self, rng):
        n = 5
        theta = rand_pd(n, rng)
        s = rand_pd(n, rng)
        c = rng.uniform(0, 0.4, n)
        pts = rng.uniform(0, 1, (n, 2))
        dmat = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        dist = DistanceMatrix(dmat)
        h = Hyperparams(lam=0.15, e=0.09)
        perm = rng.permutation(n)
        base = joint_objective(theta, c, s, h, dist)
        permd = joint_objective(
            theta[np.ix_(perm, perm)], c[perm], s[np.ix_(perm, perm)], h,
            DistanceMatrix(dmat[np.ix_(perm, perm)]),
        )
        assert permd == pytest.approx(base, abs=1e-10)

    def test_reduces_to_plain_glasso_objective(self, rng):
        # c = 0, e = 0: uniform weights, diagonal unpenalized.
        n = 4
        theta = rand_pd(n, rng)
        s = rand_pd(n, rng)
        h = Hyperparams(lam=0.25)
        got = joint_objective(theta, np.zeros(n), s, h)
        l1_off = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
        sign, logdet = np.linalg.slogdet(theta)
        expected = logdet - np.trace(s @ theta) - h.lam * l1_off
        assert got == pytest.approx(expected, abs=1e-10)
