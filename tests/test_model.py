import dataclasses
import math
import pickle
import types

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import coreglasso

from coreglasso import (ConfigError, CoreScores, DistanceMatrix, FeatureMatrix, Hyperparams,
                        InputError, NotPositiveDefiniteError, Precision, compare_methods,
                        compute_weights, core_score_lp, empirical_covariance, fit,
                        fit_graph_given_scores, group_compare, ideal_block_distance,
                        joint_objective, kcore_scores, kkt_residual, max_core_mass,
                        minres_scores, order_by_scores, planted_scores, sample_coordinates,
                        sample_instance, scores_from_graph, support, support_recovery,
                        weighted_glasso)
from coreglasso.model import EPS_W, pair_bounds, resolve_budget
from coreglasso.simplex import simplex_solve

from conftest import STAR, rand_pd


class TestTypes:
    def test_feature_matrix_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            FeatureMatrix(np.ones((3, 0)))
        with pytest.raises(InputError):
            FeatureMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
        for values in (np.ones(4), np.ones((2, 3, 4))):
            with pytest.raises(InputError, match="feature matrix must be 2-D"):
                FeatureMatrix(values)

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
        with pytest.raises(InputError,
                           match=r"core scores must be a finite 1-D vector, got shape \(2, 2\)"):
            CoreScores(np.full((2, 2), 0.25), budget=1.0)
        with pytest.raises(InputError, match=r"core scores must be non-empty, got shape \(0,\)"):
            CoreScores(np.array([]), budget=0.0)
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
        h = Hyperparams(lam=0.1)
        assert resolve_budget(h.M, 16) == 2.0
        # Every field has a range rule.
        assert Hyperparams._RULES.keys() == {f.name for f in dataclasses.fields(Hyperparams)}

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(Hyperparams) if f.type in (float, float | None)
    ])
    def test_hyperparams_reject_infinite(self, name):
        fields = {"lam": 0.1, name: float("inf")}
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            Hyperparams(**fields)


# The input rules of ``model``, each with its table here: a row per public
# entry point that applies the rule.  A new entry point adds its row.

_EMPTY = np.zeros((0, 0))
_EMPTY_ROWS = {
    "weighted_glasso": lambda: weighted_glasso(_EMPTY, _EMPTY, 0.1),
    "kkt_residual": lambda: kkt_residual(_EMPTY, _EMPTY, _EMPTY, 0.1),
    "scores_from_graph": lambda: scores_from_graph(_EMPTY),
    "minres_scores": lambda: minres_scores(_EMPTY),
    "kcore_scores": lambda: kcore_scores(_EMPTY),
    "support": lambda: support(_EMPTY),
    "support_recovery": lambda: support_recovery(_EMPTY, _EMPTY),
    "order_by_scores": lambda: order_by_scores(_EMPTY, np.ones(0)),
    "ideal_block_distance": lambda: ideal_block_distance(_EMPTY, t=1),
    "compare_methods": lambda: compare_methods(_EMPTY, _EMPTY, {"m": np.ones(0)}),
    "DistanceMatrix": lambda: DistanceMatrix(_EMPTY),
    "Precision": lambda: Precision(_EMPTY),
}


@pytest.mark.parametrize("call", _EMPTY_ROWS.values(), ids=_EMPTY_ROWS)
def test_empty_matrix_rejected(call):
    # The matrix rule itself rejects a 0x0 matrix, for every entry point.
    with pytest.raises(InputError, match=r"must be non-empty, got shape \(0, 0\)"):
        call()


_S6, _W6, _C6 = np.eye(6), 1.0 - np.eye(6), planted_scores(6)
_X5 = np.random.default_rng(0).standard_normal((5, 40))


def _sample6(d=10, **kwargs):
    return sample_instance(6, d, _C6, **{"lam": 10.0, **kwargs})


# The count rule; below 2 nodes the node rule comes first, so an n row has no 0 or bool.
_COUNT_ROWS = {
    "planted_scores": (lambda: planted_scores(8.5), "n"),
    "sample_instance": (lambda: sample_instance(4.0, 5, planted_scores(4), lam=1.0), "n"),
    "sample_instance_d": (lambda: sample_instance(4, 2.5, planted_scores(4), lam=1.0), "d"),
    "zero_sample_instance_d": (lambda: _sample6(d=0), "d"),
    "sample_coordinates": (lambda: sample_coordinates(3.5), "n"),
    "max_core_mass": (lambda: max_core_mass(3.5), "n"),
    "group_compare": (lambda: group_compare([np.ones(3)], [np.ones(3)], k=2.5), "k"),
    "bool_group_compare": (lambda: group_compare([np.ones(3)], [np.ones(3)], k=True), "k"),
    "ideal_block_distance": (lambda: ideal_block_distance(np.zeros((3, 3)), t=2.5), "t"),
    "bool_ideal_block_distance": (lambda: ideal_block_distance(np.zeros((3, 3)), t=True), "t"),
    "compare_methods": (lambda: compare_methods(np.zeros((4, 4)), np.eye(4), {"m": np.ones(4)},
                                                t=2.5), "t"),
    "bca_max_iter": (lambda: Hyperparams(lam=0.1, bca_max_iter=2.5), "bca_max_iter"),
    "zero_bca_max_iter": (lambda: Hyperparams(lam=0.1, bca_max_iter=0), "bca_max_iter"),
    "bool_bca_max_iter": (lambda: Hyperparams(lam=0.1, bca_max_iter=True), "bca_max_iter"),
    "glasso_max_iter": (lambda: Hyperparams(lam=0.1, glasso_max_iter=2.5), "glasso_max_iter"),
    "weighted_glasso": (lambda: weighted_glasso(_S6, _W6, 0.1, max_iter=2.5), "max_iter"),
    "nan_weighted_glasso": (lambda: weighted_glasso(_S6, _W6, 0.1, max_iter=np.nan), "max_iter"),
    "minres_scores": (lambda: minres_scores(_W6, max_iter=2.5), "max_iter"),
}


@pytest.mark.parametrize("call, name", _COUNT_ROWS.values(), ids=_COUNT_ROWS)
def test_sizes_must_be_whole_numbers(call, name):
    with pytest.raises(ConfigError, match=f"^{name} must be a whole number >= 1"):
        call()


# The positive and nonnegative rules, keyed "<entry point>-<setting>".  Unchecked,
# lam=inf "converged" at a NaN objective, tol=nan ran to the cap, ridge=nan was
# dropped, eps_w=nan gave a NaN mass cap and a bad e silently solved e = 0.
_RANGE_ROWS = {
    "Hyperparams-lam": (lambda v: Hyperparams(lam=v), "positive"),
    "Hyperparams-e": (lambda v: Hyperparams(lam=0.1, e=v), "nonnegative"),
    "empirical_covariance-ridge": (lambda v: empirical_covariance(_S6, ridge=v), "nonnegative"),
    "pair_bounds-e": (lambda v: pair_bounds(2, 2.0 - 2.0 * np.eye(2), v), "nonnegative"),
    "weighted_glasso-lam": (lambda v: weighted_glasso(_S6, _W6, v), "positive"),
    "weighted_glasso-tol": (lambda v: weighted_glasso(_S6, _W6, 0.1, tol=v), "positive"),
    "kkt_residual-lam": (lambda v: kkt_residual(2.0 * _S6, _S6, _W6, v), "positive"),
    "support-threshold": (lambda v: support(np.eye(2), threshold=v), "nonnegative"),
    "max_core_mass-eps_w": (lambda v: max_core_mass(5, eps_w=v), "positive"),
    "core_score_lp-eps_w": (lambda v: core_score_lp(2.0 * _S6, M=1.0, eps_w=v), "positive"),
    "planted_scores-core_frac": (lambda v: planted_scores(8, core_frac=v), "nonnegative"),
    "planted_scores-core_value": (lambda v: planted_scores(8, core_value=v), "nonnegative"),
    "sample_instance-lam": (lambda v: _sample6(lam=v), "positive"),
    "sample_instance-pd_margin": (lambda v: _sample6(pd_margin=v), "positive"),
    "sample_instance-keep": (lambda v: _sample6(keep=v), "positive"),
    "sample_instance-e": (lambda v: _sample6(e=v), "nonnegative"),
}


@pytest.mark.parametrize("row", _RANGE_ROWS)
def test_settings_must_be_finite_and_in_range(row):
    (call, rule), name = _RANGE_ROWS[row], row.partition("-")[2]
    for value in (-0.5, np.nan, np.inf) + ((0.0,) if rule == "positive" else ()):
        with pytest.raises(ConfigError, match=f"^{name} must be finite and {rule}, got"):
            call(value)


# The node rule at each size below 2 an entry point can take (a 0x0 matrix meets
# the matrix rule first).
_NODE_ROWS = {
    "FeatureMatrix": (lambda n: FeatureMatrix(np.ones((n, 5))), (1, 0)),
    "fit": (lambda n: fit(np.ones((n, 5)), hyper=Hyperparams(lam=0.1)), (1, 0)),
    "planted_scores": (planted_scores, (1, 0, -2)),
    "sample_instance": (lambda n: sample_instance(n, 10, CoreScores([0.125], budget=0.125),
                                                  lam=10.0), (1, 0, -2)),
    "sample_coordinates": (sample_coordinates, (1, 0, -2)),
    "max_core_mass": (max_core_mass, (1, 0, -2)),
    "core_score_lp": (lambda n: core_score_lp(np.zeros((n, n))), (1,)),
    "scores_from_graph": (lambda n: scores_from_graph(np.zeros((n, n))), (1,)),
}


@pytest.mark.parametrize("call, sizes", _NODE_ROWS.values(), ids=_NODE_ROWS)
def test_fewer_than_two_nodes_rejected(call, sizes):
    for n in sizes:
        with pytest.raises(InputError, match=f"^need at least 2 nodes, got {n}$"):
            call(n)


# All-zero scores meet a budget up to the sum tolerance, and M = 1e-16 failed
# the LP certificate: the floor rejects both.
_BAD_BUDGETS = [
    *((M, f"M must be finite and positive, got {M}") for M in (0.0, -1.0, np.nan, np.inf)),
    (1e-16, "core budget M=1e-16 is at or below the floor 1e-08"),
    (1e-8, "core budget M=1e-08 is at or below the floor 1e-08"),
    (5.5, r"core budget M=5.5 infeasible for 5 nodes \(M <= N\)"),
]
_BUDGET_ROWS = {
    "resolve_budget": lambda M: resolve_budget(M, 5),
    "fit": lambda M: fit(_X5, hyper=Hyperparams(lam=0.1, M=M)),
    "core_score_lp": lambda M: core_score_lp(STAR, M=M),
    "scores_from_graph": lambda M: scores_from_graph(STAR, M=M),
    "planted_scores": lambda M: planted_scores(5, core_frac=0, budget=M),
}


@pytest.mark.parametrize("call", _BUDGET_ROWS.values(), ids=_BUDGET_ROWS)
def test_budget_rule(call):
    for M, message in _BAD_BUDGETS:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            call(M)


# pair_bounds owns the distance rules and the bounds' sign rule: given distances
# must be N x N even when e = 0 leaves them unused, and raw ones are judged as a
# DistanceMatrix.
_BAD_DISTANCES = {
    "wrong-size": (DistanceMatrix(1.0 - np.eye(4)), 0.0, InputError,
                   "distance matrix is 4x4 for 5 nodes"),
    "missing": (None, 0.09, ConfigError, "distance coupling e > 0 requires distances"),
    "zero-distance": (DistanceMatrix(np.zeros((5, 5))), 0.09, ConfigError,
                      "distance coupling e > 0 requires strictly positive off-diagonal distances"),
    "negative-bound": (DistanceMatrix(1e-9 * (1.0 - np.eye(5))), 0.09, ConfigError,
                       r"pairwise bound on \(c_0, c_1\) is negative \(-0\.86\d*\); "
                       "no feasible core scores exist"),
    "asymmetric": (np.triu(np.ones((5, 5)), 1) + 2.0 * np.tril(np.ones((5, 5)), -1), 0.09,
                   InputError, "distance matrix must be symmetric"),
}
_DISTANCE_ROWS = {
    "pair_bounds": lambda dist, e: pair_bounds(5, dist, e),
    "compute_weights": lambda dist, e: compute_weights(np.zeros(5), dist, e),
    "joint_objective": lambda dist, e: joint_objective(np.eye(5), np.zeros(5), np.eye(5),
                                                       Hyperparams(lam=0.1, e=e), dist),
    "max_core_mass": lambda dist, e: max_core_mass(5, dist, e),
    "core_score_lp": lambda dist, e: core_score_lp(STAR, dist, e, M=1.0),
    "scores_from_graph": lambda dist, e: scores_from_graph(STAR, dist, e),
    "fit": lambda dist, e: fit(_X5, dist, hyper=Hyperparams(lam=0.1, e=e)),
    "fit_graph_given_scores": lambda dist, e: fit_graph_given_scores(
        _X5, CoreScores(np.full(5, 0.125), budget=0.625), dist, hyper=Hyperparams(lam=0.1, e=e)),
    "sample_instance": lambda dist, e: sample_instance(5, 10, planted_scores(5), lam=10.0, e=e,
                                                       dist=dist),
}


@pytest.mark.parametrize("call", _DISTANCE_ROWS.values(), ids=_DISTANCE_ROWS)
@pytest.mark.parametrize("case", _BAD_DISTANCES)
def test_distance_and_bound_rules(call, case):
    dist, e, error, message = _BAD_DISTANCES[case]
    with pytest.raises(error, match=f"^{message}$"):
        call(dist, e)


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
    FeatureMatrix(np.ones((3, 4))),
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
        # c_0 + c_1 = 1 > 1 - EPS_W breaks the pair's bound; an excess of
        # 5e-10 is roundoff and snaps to the floor.
        with pytest.raises(ConfigError, match=r"pairwise bound on \(0, 1\)"):
            compute_weights(np.array([0.5, 0.5]))
        w = compute_weights(np.array([0.5, 0.5 - EPS_W + 5e-10]))
        assert w[0, 1] == EPS_W

    def test_unit_distance_log_vanishes(self):
        dist = DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        w = compute_weights(np.zeros(2), dist, e=0.09)
        assert w[0, 1] == pytest.approx(1.0)

    def test_raw_inputs_checked_as_their_types(self):
        # Raw scores are CoreScores (in [0, 1]); raw distances are a row of
        # test_distance_and_bound_rules.
        with pytest.raises(InputError, match=r"outside \[0, 1\]"):
            compute_weights(np.array([2.0, 0, 0]))

    @staticmethod
    def _scores_and_bounds(n, seed, spatial):
        """Uniform scores scaled so that no pair sum passes its bound, the
        bounds, the distances and e."""
        r = np.random.default_rng(seed)
        c = r.uniform(0, 1, n)
        dist, e = None, 0.0
        if spatial:
            pts = r.uniform(0, 1, (n, 2))
            dist = DistanceMatrix(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
            e = 0.09
        b = pair_bounds(n, dist, e)
        return c * min(1.0, (b / (c[:, None] + c[None, :])).min()), b, dist, e

    @settings(max_examples=40)
    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1), st.booleans())
    def test_symmetric_and_floored(self, n, seed, spatial):
        c, _, dist, e = self._scores_and_bounds(n, seed, spatial)
        w = compute_weights(c, dist, e=e)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(w, w.T)
        assert w[off].min() >= EPS_W
        assert np.all(np.diag(w) == 0.0)

    @settings(max_examples=40)
    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1), st.booleans())
    def test_scores_past_a_bound_raise(self, n, seed, spatial):
        # Split the tightest pair's bound plus 1e-6 evenly between its two
        # scores, so the pair passes its bound while both stay in [0, 1].
        c, b, dist, e = self._scores_and_bounds(n, seed, spatial)
        i, j = np.unravel_index(np.argmin(b - c[:, None] - c[None, :]), b.shape)
        c[[i, j]] = (b[i, j] + 1e-6) / 2
        with pytest.raises(ConfigError, match="violate the pairwise bound"):
            compute_weights(c, dist, e=e)

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

    def test_rejects_scores_outside_the_bounds(self):
        # The weights are undefined where c_i + c_j passes its bound.
        h = Hyperparams(lam=0.1)
        with pytest.raises(ConfigError, match=r"pairwise bound on \(1, 2\)"):
            joint_objective(np.eye(3), np.array([0.0, 0.6, 0.6]), np.eye(3), h)

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
