import numpy as np
import pytest

from scipy import sparse
from scipy.optimize import linprog

from coreglasso import NumericalError, simplex
from coreglasso.simplex import simplex_solve


class TestKnownPrograms:
    def test_simple_bounded(self):
        # min -x - y  s.t. x + y <= 1, x,y >= 0
        res = simplex_solve(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]),
                            np.array([1.0]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0)

    def test_equality_only(self):
        # The cheaper x fills its box side, y takes the rest.
        res = simplex_solve(np.array([1.0, 2.0]), a_eq=np.array([[1.0, 1.0]]),
                            b_eq=np.array([1.5]))
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [1.0, 0.5])

    def test_box_bounds_every_program(self):
        # Without rows, the box alone fixes the optimum at its corner.
        res = simplex_solve(np.array([-1.0, 0.5]))
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [1.0, 0.0])

    def test_infeasible(self):
        res = simplex_solve(
            np.array([1.0]),
            a_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -2.0]),
        )
        assert res.status == "infeasible"

    def test_other_highs_status_is_numerical_error(self, monkeypatch):
        # HiGHS stopping at its iteration limit (status 1) is neither an
        # optimum nor a certificate of infeasibility.
        def limited(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.status, res.message = 1, "Iteration limit reached."
            return res

        monkeypatch.setattr(simplex, "linprog", limited)
        with pytest.raises(NumericalError, match="HiGHS stopped with status 1"):
            simplex_solve(np.array([-1.0, 0.5]))

    def test_redundant_equalities(self):
        res = simplex_solve(
            np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0], [2.0, 2.0]]),
            b_eq=np.array([1.0, 2.0]),
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_negative_rhs(self):
        # x >= 0.5 written as -x <= -0.5
        res = simplex_solve(np.array([1.0]), a_ub=np.array([[-1.0]]),
                            b_ub=np.array([-0.5]))
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(0.5)

    def test_determinism(self):
        c = np.array([-1.0, -1.0, -1.0])
        a_ub = np.vstack([np.eye(3), np.array([[1.0, 1.0, 0.0]])])
        b_ub = np.array([1.0, 1.0, 1.0, 0.999])
        a_eq = np.ones((1, 3))
        b_eq = np.array([1.5])
        first = simplex_solve(c, a_ub, b_ub, a_eq, b_eq)
        second = simplex_solve(c, a_ub, b_ub, a_eq, b_eq)
        np.testing.assert_array_equal(first.x, second.x)
        assert first.pivots == second.pivots


class TestAgainstScipy:
    def test_random_instances(self, rng):
        mismatches = 0
        for _ in range(120):
            n = int(rng.integers(2, 7))
            m_ub = int(rng.integers(0, 6))
            m_eq = int(rng.integers(0, 3))
            c = rng.standard_normal(n)
            x0 = rng.uniform(0, 1, n)
            a_ub = rng.standard_normal((m_ub, n)) if m_ub else None
            b_ub = a_ub @ x0 + rng.uniform(0, 1, m_ub) if m_ub else None
            a_eq = rng.standard_normal((m_eq, n)) if m_eq else None
            b_eq = a_eq @ x0 if m_eq else None
            got = simplex_solve(c, a_ub, b_ub, a_eq, b_eq)
            ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=(0.0, 1.0), method="highs")
            if got.status == "optimal":
                assert ref.status == 0
                if abs(got.objective - ref.fun) > 1e-7 * max(1, abs(ref.fun)):
                    mismatches += 1
                assert got.dual_gap <= 1e-7
                if a_ub is not None:
                    assert np.all(a_ub @ got.x <= b_ub + 1e-8)
                assert got.x.min() >= -1e-12
                assert got.x.max() <= 1.0 + 1e-12
                if a_eq is not None:
                    assert np.abs(a_eq @ got.x - b_eq).max() <= 1e-8
            else:
                assert ref.status == 2
        assert mismatches == 0


class TestUniqueOptimum:
    def test_single_optimal_vertex(self):
        # min -2x - y  s.t. x + y <= 1: only (1, 0) is optimal
        res = simplex_solve(np.array([-2.0, -1.0]), np.array([[1.0, 1.0]]),
                            np.array([1.0]))
        np.testing.assert_allclose(res.x, [1.0, 0.0])
        assert res.unique

    def test_optimal_edge(self):
        # min -x - y  s.t. x + y <= 1: every point of x + y = 1 is optimal
        res = simplex_solve(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]),
                            np.array([1.0]))
        assert not res.unique

    def test_sparse_rows_equality_and_box(self):
        # max x0 + 2 x1 + 3 x2 with x0 + x1 + x2 == 1.5 and a box:
        # x2 = 1, x1 = 0.5 is the only optimum; equal gains tie.
        rows = sparse.csr_matrix(np.array([[1.0, 0.0, 1.0]]))
        kwargs = dict(a_ub=rows, b_ub=np.array([2.0]), a_eq=np.ones((1, 3)),
                      b_eq=np.array([1.5]))
        res = simplex_solve(-np.array([1.0, 2.0, 3.0]), **kwargs)
        np.testing.assert_allclose(res.x, [0.0, 0.5, 1.0])
        assert res.unique
        assert not simplex_solve(-np.array([1.0, 3.0, 3.0]), **kwargs).unique
