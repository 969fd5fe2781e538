import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from coreglasso import (
    InfeasibleError,
    InputError,
    NumericalError,
    core_score_lp,
    max_core_mass,
    scores_from_graph,
)
from coreglasso import corescore, model
from coreglasso.simplex import simplex_solve
from coreglasso.synth import sample_coordinates

from conftest import STAR, lp_vertex_oracle, pair_bounds


class TestTrivialCases:
    def test_dominant_gain_takes_all_mass(self):
        t = np.array([[2.0, 0.0], [0.0, 1.0]])
        res = core_score_lp(t, M=0.9)
        np.testing.assert_allclose(res.c.values, [0.9, 0.0])

    def test_equal_gains_lowest_index_first(self):
        t = np.eye(4)
        res = core_score_lp(t, M=0.9)
        np.testing.assert_allclose(res.c.values, [0.9, 0.0, 0.0, 0.0])
        assert res.objective == pytest.approx(2.0 * 0.9)

    def test_equal_gains_objective_is_mass_times_gain(self):
        t = np.eye(5)
        res = core_score_lp(t, M=1.7)
        assert res.objective == pytest.approx(2.0 * 1.7)

    @pytest.mark.parametrize("broken, change, message", [
        (2, {"status": "infeasible"}, "tie-break LP status infeasible"),
        (1, {"dual_gap": 1.0}, "LP relative duality gap .* above tolerance"),
    ], ids=["tie-break-not-optimal", "gap-above-tolerance"])
    def test_failed_certificate_is_numerical_error(self, monkeypatch, broken, change, message):
        # Equal gains need the tie-break solve; a solve that does not end
        # optimal, or a gap above LP_TOL, is never returned as scores.
        calls = []

        def solve(*args):
            calls.append(simplex_solve(*args))
            return dataclasses.replace(calls[-1], **change) if len(calls) == broken else calls[-1]

        monkeypatch.setattr(corescore, "simplex_solve", solve)
        with pytest.raises(NumericalError, match=message):
            core_score_lp(np.eye(4), M=0.9)
        assert len(calls) == 2

    def test_feasibility_invariants(self):
        t = np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.1], [0.1, 0.1, 1.0]])
        res = core_score_lp(t, M=1.0)
        c = res.c.values
        assert abs(c.sum() - 1.0) <= 1e-8
        assert c.min() >= 0 and c.max() <= 1
        bounds = pair_bounds(3, None, 0.0, 1e-3)
        for i in range(3):
            for j in range(i + 1, 3):
                assert c[i] + c[j] <= bounds[i, j] + 1e-9


class TestFrozenThreeNode:
    # Oracle (vertex enumeration) on |T| with T12=.5, T13=T23=.1, unit
    # diagonal, M=1: optimum 3.1992 at c = (0.998, 0.001, 0.001), capped
    # by the (0,1) and (0,2) pairwise bounds.
    T = np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.1], [0.1, 0.1, 1.0]])
    FROZEN_OBJECTIVE = 3.1992
    FROZEN_C = np.array([0.998, 0.001, 0.001])

    def test_oracle_agrees_with_frozen(self):
        gains = 2.0 * self.T.sum(axis=1)
        best, argmax = lp_vertex_oracle(gains, pair_bounds(3, None, 0.0, 1e-3), 1.0)
        assert best == pytest.approx(self.FROZEN_OBJECTIVE, abs=1e-8)
        np.testing.assert_allclose(argmax, self.FROZEN_C, atol=1e-8)

    def test_solver_matches_frozen(self):
        res = core_score_lp(self.T, M=1.0)
        assert res.objective == pytest.approx(self.FROZEN_OBJECTIVE, abs=1e-8)
        np.testing.assert_allclose(res.c.values, self.FROZEN_C, atol=1e-8)
        assert set(res.active_constraints) == {(0, 1), (0, 2)}


class TestInvariants:
    def test_gain_dominance(self, rng):
        # With symmetric constraints (e = 0), higher gain implies
        # at-least-as-high score.
        for trial in range(20):
            n = int(rng.integers(3, 8))
            t = np.abs(rng.standard_normal((n, n)))
            t = 0.5 * (t + t.T)
            gains = 2.0 * t.sum(axis=1)
            res = core_score_lp(t, M=float(n) / 4)
            c = res.c.values
            for i in range(n):
                for j in range(n):
                    if gains[i] > gains[j] + 1e-12:
                        assert c[i] >= c[j] - 1e-9

    def test_scaling_invariance(self, rng):
        n = 5
        t = np.abs(rng.standard_normal((n, n)))
        t = 0.5 * (t + t.T)
        a = core_score_lp(t, M=1.2)
        b = core_score_lp(3.7 * t, M=1.2)
        np.testing.assert_allclose(a.c.values, b.c.values, atol=1e-12)
        assert b.objective == pytest.approx(3.7 * a.objective, rel=1e-12)

    @settings(max_examples=60)
    @given(log_alpha=st.floats(-8.0, 8.0), e=st.sampled_from([0.0, 0.09]),
           seed=st.integers(0, 2**16))
    def test_scale_invariance_over_sixteen_decades(self, log_alpha, e, seed):
        # The gains carry the data's units; scores must not depend on them.
        n = 6
        rng = np.random.default_rng(seed)
        t = np.abs(rng.standard_normal((n, n)))
        t = 0.5 * (t + t.T)
        dist = sample_coordinates(n, seed=seed)[1] if e > 0 else None
        alpha = 10.0 ** log_alpha
        base = core_score_lp(t, dist=dist, e=e, M=1.0)
        scaled = core_score_lp(alpha * t, dist=dist, e=e, M=1.0)
        np.testing.assert_allclose(scaled.c.values, base.c.values, atol=1e-10)
        assert scaled.objective == pytest.approx(alpha * base.objective, rel=1e-10)

    @settings(max_examples=200)
    @given(n=st.integers(2, 30), kind=st.sampled_from(["gaussian", "adjacency", "rounded"]),
           u=st.floats(1e-6, 1), seed=st.integers(0, 2**16))
    def test_at_most_three_values_at_e0(self, n, kind, u, seed):
        """At e = 0 the scores take at most three values, and at most one
        node is above beta/2, beta = 1 - eps_w, for any gains and budget.

        The polytope is sum(c) = M, c_i >= 0 and c_i + c_j <= beta; beta < 1,
        so no c_i <= 1 is tight.  Two nodes above beta/2 would break their
        pair bound.  At a vertex the tight rows have rank n, so no direction
        keeps them all tight, and at most one node is in no tight row but
        the budget: two such nodes could trade mass.  If every node is at
        most beta/2, a tight pair puts both its nodes at beta/2: the values
        are 0, beta/2 and that one node's.  If node k is at x > beta/2,
        every pair without k sums below beta, so each tight pair puts its
        other node at beta - x.  Moving x by t and those nodes by -t keeps
        their pairs tight, so the budget must fix x, and any other node in
        no tight row could trade mass with that move: the values are x,
        beta - x and 0.  The tie-break solve moves along the optimal face,
        whose vertices are the polytope's, so its result is one too.
        """
        # u >= 1e-6: a budget at or below the floor model._SUM_TOL is a
        # ConfigError, and with tied gains a budget below about 2e-6 can fail
        # the LP certificate (see TestInfeasibility's floor property).
        beta = 1.0 - model.EPS_W
        rng = np.random.default_rng(seed)
        if kind == "adjacency":
            a = np.triu(rng.random((n, n)) < 0.3, 1).astype(float)
        else:
            a = np.abs(rng.standard_normal((n, n)))
        t = a + a.T
        if kind == "rounded":
            t = np.round(t, 1)  # ties among the gains
        c = core_score_lp(t, M=u * n * beta / 2).c.values
        assert len(np.unique(np.round(c, 9))) <= 3, c
        assert np.sum(c > beta / 2 + 1e-9) <= 1, c


class TestScoresFromGraph:
    def test_star_hub_dominates(self):
        res = scores_from_graph(STAR, M=1.0)
        c = res.c.values
        assert np.all(c[0] > c[1:])
        # Frozen from the vertex oracle: hub 2.996/3, leaves 1/3000.
        assert c[0] == pytest.approx(2.996 / 3.0, abs=1e-8)
        assert res.objective == pytest.approx(7.992, abs=1e-8)

    def test_star_matches_oracle(self):
        best, _ = lp_vertex_oracle(2.0 * STAR.sum(axis=1),
                                   pair_bounds(5, None, 0.0, 1e-3), 1.0)
        assert best == pytest.approx(7.992, abs=1e-8)

    def test_empty_graph_tie_break(self):
        res = scores_from_graph(np.zeros((4, 4)), M=0.9)
        np.testing.assert_allclose(res.c.values, [0.9, 0.0, 0.0, 0.0])
        assert res.objective == 0.0

    def test_complete_graph_deterministic(self):
        a = 1.0 - np.eye(4)
        first = scores_from_graph(a, M=1.0)
        second = scores_from_graph(a, M=1.0)
        np.testing.assert_array_equal(first.c.values, second.c.values)
        assert abs(first.c.values.sum() - 1.0) <= 1e-8
        assert first.objective == pytest.approx(6.0 * 1.0)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            scores_from_graph(np.eye(3), M=0.5)

    def test_rejects_negative_entries(self):
        with pytest.raises(InputError, match="adjacency must be nonnegative"):
            scores_from_graph(np.eye(3) - 1.0, M=0.5)
        with pytest.raises(InputError, match="abs_theta must be entrywise nonnegative"):
            core_score_lp(np.eye(3) - 1.0, M=0.5)


class TestInfeasibility:
    def test_budget_beyond_polytope(self):
        t = np.eye(3)
        with pytest.raises(InfeasibleError, match="maximum feasible core mass"):
            core_score_lp(t, M=2.9)

    @settings(max_examples=100)
    @given(n=st.integers(2, 30), e=st.sampled_from([0.0, 0.09]), u=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**16))
    def test_every_budget_above_the_floor_is_certified_or_infeasible(self, n, e, u, seed):
        # M runs log-evenly from just above the floor model._SUM_TOL up to N.
        # The gains have no ties: a tie-break solve meets its objective row
        # only to HiGHS's feasibility tolerance, so tied gains fail the
        # certificate up to about M = 2e-6 (the path 1-2 on 3 nodes at 1e-7).
        a = np.abs(np.random.default_rng(seed).standard_normal((n, n)))
        dist = sample_coordinates(n, seed=seed)[1] if e > 0 else None
        floor = model._SUM_TOL
        M = min(float(n), max(float(np.nextafter(floor, 1.0)), floor * (n / floor) ** u))
        try:
            assert core_score_lp(a + a.T, dist, e, M=M).c.budget == M
        except InfeasibleError:
            assert M > max_core_mass(n, dist, e)

    def test_default_budget_is_n_over_8(self):
        # Without M both entries use the N/8 of every other entry point.
        n = STAR.shape[0]
        for call in (scores_from_graph, core_score_lp):
            default, explicit = call(STAR), call(STAR, M=n / 8)
            np.testing.assert_array_equal(default.c.values, explicit.c.values)
            assert default.c.budget == n / 8

    def test_max_core_mass_closed_form(self):
        # For e = 0 the cap is N (1 - eps_w) / 2: all scores at b/2.  The
        # LP that computes it for every e must meet this oracle, with or
        # without (unused) distances.
        for n in (2, 3, 5, 6):
            assert max_core_mass(n) == pytest.approx(n * 0.999 / 2)
        dist = sample_coordinates(4, seed=0)[1]
        assert max_core_mass(4, dist, e=0.0) == pytest.approx(4 * 0.999 / 2)

    def test_diagonal_gain_flag(self):
        t = np.array([[5.0, 0.2], [0.2, 0.1]])
        with_diag = core_score_lp(t, M=0.5)
        without = core_score_lp(t, M=0.5, include_diagonal=False)
        assert with_diag.objective != pytest.approx(without.objective)
        # Equal off-diagonal rows: excluding the diagonal ties the gains.
        np.testing.assert_allclose(without.c.values, [0.5, 0.0])
