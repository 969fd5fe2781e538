"""Block coordinate ascent on the joint graph/core-score objective.

Alternates two exact convex solves: the weighted graphical lasso in the
precision matrix (weights fixed by the current core scores) and the
core-score linear program (edge magnitudes fixed by the current
precision matrix).  Each half-step maximizes the joint objective over
its own block, so the objective trace is nondecreasing up to solver
tolerance.  It stops converged when a graph step after a score step takes
zero sweeps, as theta is then KKT-optimal within ``glasso_tol`` under the
new weights (a partial optimum), and unconverged after a capped graph step
or ``bca_max_iter`` graph steps.  The weights are affine in c on the score
polytope, so g(c), the joint objective maximized over theta, is convex with gradient
``lam * gains``, ``gains_i = 2 sum_{j != i} |theta_ij|``; the score step maximizes
its tangent plane (successive linearization; Mangasarian 1996).  A certified fit
is a stationary point of g, yet g peaks at a vertex of the polytope (Rockafellar,
Convex Analysis, 1970, Thm 32.2), so a different start can reach a higher objective.
"""

import numpy as np

from dataclasses import dataclass

from .corescore import (
    core_score_lp,
    max_core_mass,  # unused here, but perfbench/bench.py wraps bca.max_core_mass
)
from .errors import ConfigError
from .glasso import GlassoResult, weighted_glasso
from .model import (
    CoreScores,
    DistanceMatrix,
    Hyperparams,
    Precision,
    _scores,
    compute_weights,
    empirical_covariance,
    joint_objective,  # unused here, but perfbench/bench.py wraps bca.joint_objective
    pair_bounds,
    resolve_budget,
)

__all__ = ["FitResult", "fit", "fit_graph_given_scores"]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Joint solution with the half-step objective trace.

    ``objective_trace`` holds the joint objective after every half-step
    (two entries per outer iteration), so monotone ascent is checkable
    at half-step granularity.  Both entries come from the half-step
    solvers: the graph step's ``GlassoResult.objective``, then that value
    plus the change of the penalty term under the new core scores.  The
    zero-sweep graph step that certifies convergence adds no entry.
    """

    theta: Precision
    c: CoreScores
    objective_trace: tuple[float, ...]
    converged: bool

    @property
    def outer_iterations(self) -> int:
        return len(self.objective_trace) // 2


def fit(X, dist: DistanceMatrix | None = None, *,
        hyper: Hyperparams,
        c_init: CoreScores | None = None,
        theta_init=None) -> FitResult:
    """Jointly learn a sparse precision matrix and core scores.

    Parameters
    ----------
    X : FeatureMatrix or (N, d) array of node attributes.
    dist : N x N distances, required when ``hyper.e > 0``.
    hyper : solver hyperparameters (budget None resolves to N/8).
    c_init : optional initial core scores summing to the resolved budget, as
        :class:`CoreScores` or a raw vector judged as CoreScores of that budget;
        their bounds are judged by :func:`compute_weights` alone (default: uniform M/N,
        water-filled under half of each node's tightest pairwise bound; where
        those halves cannot hold M, the score LP's vertex for them as gains).
    theta_init : optional PD warm start for the first graph step.

    Returns
    -------
    FitResult; ``converged`` certifies a partial optimum: ``theta`` is
    KKT-optimal within ``glasso_tol`` for the weights of ``c``, which
    solves the score LP for ``|theta|``.  Hitting either cap leaves it False.
    """
    s = empirical_covariance(X, hyper.ridge)
    n = s.shape[0]
    budget = resolve_budget(hyper.M, n)
    if c_init is None:
        c = _start(n, dist, hyper.e, budget)
    else:
        _scores(c_init, "core scores", n)
        if not isinstance(c_init, CoreScores):
            c_init = CoreScores(c_init, budget=budget)
        if abs(c_init.budget - budget) > 1e-9:
            raise ConfigError(
                f"c_init has budget {c_init.budget:.6g}, the fit has M={budget:.6g}"
            )
        c = c_init
    theta = theta_init  # weighted_glasso checks it as a Precision

    w = compute_weights(c, dist, hyper.e)
    trace: list[float] = []
    converged = False
    for _ in range(hyper.bca_max_iter):
        gres = weighted_glasso(
            s, w, hyper.lam,
            tol=hyper.glasso_tol,
            max_iter=hyper.glasso_max_iter,
            warm_start=theta,
        )
        # Zero sweeps after a score step certify a partial optimum.
        if trace and gres.iterations == 0:
            converged = True
            break
        theta = gres.theta
        trace.append(gres.objective)

        # Diagonal gains are excluded here: the joint objective never
        # penalizes the diagonal, so including them would let the score
        # step decrease it.
        abs_theta = np.abs(theta.values)
        lp = core_score_lp(
            abs_theta, dist, hyper.e, budget, include_diagonal=False,
        )
        c = lp.c
        # Only the penalty term depends on c; the new weights are the
        # next graph step's.
        w_new = compute_weights(c, dist, hyper.e)
        obj = gres.objective + hyper.lam * float(((w - w_new) * abs_theta).sum())
        trace.append(obj)
        w = w_new

        # A capped graph step is not a fixed point: stop unconverged.
        if not gres.converged:
            break

    return FitResult(
        theta=theta,
        c=c,
        objective_trace=tuple(trace),
        converged=converged,
    )


def _start(n: int, dist, e: float, budget: float) -> CoreScores:
    """Uniform ``M/N`` water-filled under the caps ``h_i = min(1, min_j b_ij / 2)``
    of the :func:`pair_bounds` ``b``, so ``c_i + c_j <= h_i + h_j <= b_ij``; it is
    ``M/N`` bit for bit where ``M/N <= min h``.  Where ``sum(h) < M`` it is the score
    LP's vertex for gains ``2h``, which raises :class:`InfeasibleError` only if no scores hold M."""
    h = np.minimum(1.0, pair_bounds(n, dist, e).min(axis=1) / 2)
    hs = np.sort(h)
    levels = (budget - np.r_[0.0, np.cumsum(hs[:-1])]) / np.arange(n, 0, -1)
    fits = np.flatnonzero(levels <= hs)
    if fits.size:
        return CoreScores(np.minimum(h, levels[fits[0]]), budget=budget)
    return core_score_lp(np.diag(h), dist, e, budget).c


def fit_graph_given_scores(X, c: CoreScores,
                           dist: DistanceMatrix | None = None, *,
                           hyper: Hyperparams) -> GlassoResult:
    """Single graph step for fixed core scores.

    Convenience entry point: one weighted graphical lasso solve with the
    weights implied by ``c``, which :func:`compute_weights` checks against
    the pairwise bounds.
    """
    s = empirical_covariance(X, hyper.ridge)
    _scores(c, "core scores", s.shape[0])
    w = compute_weights(c, dist, hyper.e)
    return weighted_glasso(
        s, w, hyper.lam, tol=hyper.glasso_tol, max_iter=hyper.glasso_max_iter
    )
