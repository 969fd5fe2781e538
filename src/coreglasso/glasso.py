"""Weighted graphical lasso solver.

Maximizes ``log det T - tr(S T) - lam * sum_{i!=j} w_ij |T_ij|`` over
symmetric positive-definite T by exact coordinate ascent: each sweep
maximizes the objective along every diagonal entry and every symmetric
off-diagonal pair in closed form, keeping an incrementally updated
inverse via Sherman-Morrison-Woodbury rank-one/rank-two corrections.
The per-pair subproblem is one-dimensional and strictly concave, so each
step has an exact solution and the objective never decreases.  The step
is the kink (an exact zero of the entry) when the smooth slope there lies
within the penalty; otherwise it is the one root of a quadratic on the
side the slope points to, computed in a form that does not cancel.

Convergence is certified by the stationarity system of the objective,
measured in max-norm:

    (T^-1 - S)_ii = 0
    (T^-1 - S)_ij = lam * w_ij * sign(T_ij)      where T_ij != 0
    |(T^-1 - S)_ij| <= lam * w_ij                where T_ij = 0

Every iterate, the start included, is a ``Precision``: its one Cholesky
factor guards positive definiteness and gives the inverse and log det behind
its KKT residual and objective.  A start within ``tol`` takes no sweep and is returned.
"""

import numpy as np

from dataclasses import dataclass

from .errors import InputError, NotPositiveDefiniteError, NumericalError
from .model import (Hyperparams, Precision, _check_setting, _check_square_symmetric,
                    _graph_problem, _objective)

__all__ = ["GlassoResult", "weighted_glasso", "kkt_residual", "support"]


@dataclass(frozen=True, eq=False)
class GlassoResult:
    """Converged (or capped) solution of the weighted graphical lasso.

    ``objective_trace`` holds the objective of the start and after every
    sweep (``iterations + 1`` entries), so the ascent property can be
    checked from the outside; ``objective`` is its last entry.
    """

    theta: Precision
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


def _pair_step(th_ij, b_ii, b_jj, b_ij, s_ij, rho):
    """Exact maximizer t of the 1-D pair objective, or None off the PD cone.

    Along ``T + t (E_ij + E_ji)`` the objective changes by
    ``log D(t) - 2 s_ij t - 2 rho |th_ij + t|`` with
    ``D(t) = 1 + 2 b_ij t + a t^2`` and ``a = b_ij^2 - b_ii b_jj < 0``.  It is
    strictly concave on the interval where D > 0,
    ``-1/(r + b_ij) < t < 1/(r - b_ij)`` with ``r = sqrt(b_ii b_jj)``.  The
    kink ``t = -th_ij`` is the maximizer when the smooth slope there,
    ``2 (b_ij + a t) / D(t) - 2 s_ij``, is within ``+-2 rho``.  Otherwise the
    maximizer lies on the side ``sgn`` the slope points to (the sign of
    ``th_ij`` when the kink is outside the interval), at the one root of
    ``c a t^2 + (2 c b_ij - a) t + (c - b_ij) = 0``, ``c = s_ij + rho sgn``,
    inside the interval.
    """
    root = np.sqrt(b_ii * b_jj)
    t_lo, t_hi = -1.0 / (root + b_ij), 1.0 / (root - b_ij)
    a = b_ij * b_ij - b_ii * b_jj
    kink = -th_ij
    kink_inside = t_lo < kink < t_hi
    if kink_inside:
        slope = 2.0 * (b_ij + a * kink) / (1.0 + 2.0 * b_ij * kink + a * kink * kink) - 2.0 * s_ij
        if abs(slope) <= 2.0 * rho:
            return kink
        sgn = 1.0 if slope > 0.0 else -1.0
    else:
        sgn = 1.0 if th_ij > 0.0 else -1.0
    # The root with +sqrt of the discriminant a^2 + 4 c^2 b_ii b_jj, in
    # whichever of its two equal forms adds terms of one sign.
    c = s_ij + rho * sgn
    qb = 2.0 * c * b_ij - a
    sq = np.sqrt(a * a + 4.0 * c * c * b_ii * b_jj)
    t = 2.0 * (c - b_ij) / (-qb - sq) if qb > 0.0 else (sq - qb) / (2.0 * c * a)
    if t_lo < t < t_hi and (th_ij + t) * sgn > 0.0:
        return t
    # A root within rounding of the kink can land on its far side.
    return kink if kink_inside else None


def weighted_glasso(S, W, lam: float, tol: float = Hyperparams.glasso_tol,
                    max_iter: int = Hyperparams.glasso_max_iter, warm_start=None) -> GlassoResult:
    """Solve the weighted graphical lasso to a certified KKT tolerance.

    Parameters
    ----------
    S : (N, N) symmetric PSD matrix with positive diagonal.
    W : (N, N) array
        Per-edge weights, square, finite, symmetric and nonnegative off the
        diagonal; the diagonal is never penalized.
    lam : float
        Penalty scale, finite and > 0; the effective penalty on the ordered
        pair (i, j) is ``lam * w_ij``, i.e. ``2 lam w_ij`` per undirected edge.
    tol : float
        Max-norm bound on the KKT residual at convergence, finite and > 0.
    max_iter : int
        Sweep cap, an integer >= 1; hitting it outside ``tol`` returns ``converged=False``.
    warm_start : optional Precision (an array is factored into one) of the
        shape of ``S``; the initial iterate, itself the result's ``theta`` if within ``tol``.

    Returns
    -------
    GlassoResult
    """
    s, rho, current = _graph_problem(S, W, lam, warm_start)
    _check_setting(tol, "tol", "positive")
    _check_setting(max_iter, "max_iter", "count")
    n = s.shape[0]
    diag_s = np.diag(s).copy()
    if diag_s.min() <= 0:
        raise InputError("covariance diagonal must be strictly positive: a node has "
                         "zero sample variance; add ridge or drop the node")
    current = Precision(np.diag(1.0 / diag_s)) if current is None else current

    trace: list[float] = []
    for sweeps in range(max_iter + 1):
        kkt = _kkt_from_inverse(current.values, current.inverse, s, rho)
        trace.append(_objective(current.values, current.logdet, s, rho))
        if kkt <= tol or sweeps == max_iter:
            break
        theta, inv = current.values.copy(), current.inverse.copy()

        # Diagonal pass: the unpenalized optimum solves (T^-1)_ii = S_ii.
        for i in range(n):
            b_ii = inv[i, i]
            t = 1.0 / diag_s[i] - 1.0 / b_ii
            if t == 0.0:
                continue
            theta[i, i] += t
            u = inv[:, i].copy()
            inv -= (t / (1.0 + t * b_ii)) * np.outer(u, u)

        # Off-diagonal pass over unordered pairs.
        for i in range(n - 1):
            for j in range(i + 1, n):
                th_ij = theta[i, j]
                b_ij = inv[i, j]
                r = rho[i, j]
                if th_ij == 0.0 and abs(b_ij - s[i, j]) <= r:
                    continue
                b_ii = inv[i, i]
                b_jj = inv[j, j]
                delta = _pair_step(th_ij, b_ii, b_jj, b_ij, s[i, j], r)
                if delta is None:
                    raise NumericalError(
                        f"no admissible step for pair ({i}, {j}); "
                        "inverse drifted off the PD cone"
                    )
                if delta == 0.0:
                    continue
                new_val = 0.0 if delta == -th_ij else th_ij + delta
                theta[i, j] = new_val
                theta[j, i] = new_val
                q = 1.0 + delta * b_ij
                d = q * q - delta * delta * b_ii * b_jj
                u1 = inv[:, i].copy()
                u2 = inv[:, j].copy()
                cross = np.outer(u1, u2)
                inv += (delta * delta * b_jj / d) * np.outer(u1, u1)
                inv += (delta * delta * b_ii / d) * np.outer(u2, u2)
                inv -= (delta * q / d) * (cross + cross.T)

        try:
            current = Precision(theta)
        except NotPositiveDefiniteError:
            raise NumericalError(f"positive definiteness lost at sweep {sweeps + 1}: "
                                 "Cholesky failed") from None

    return GlassoResult(
        theta=current,
        kkt_residual=kkt,
        iterations=sweeps,
        converged=bool(kkt <= tol),
        objective_trace=tuple(trace),
    )


def _kkt_from_inverse(theta, inv, s, rho) -> float:
    # One rule per entry; the diagonal needs none of its own, since
    # rho_ii = 0 and a PD theta has theta_ii != 0.
    grad = inv - s
    resid = np.where(theta != 0.0, np.abs(grad - rho * np.sign(theta)), np.abs(grad) - rho)
    return float(resid.max(initial=0.0))


def kkt_residual(theta, S, W, lam: float) -> float:
    """Recompute the KKT max-norm residual of a candidate solution.

    Independent of the solver state: reads the inverse that ``Precision``
    computed from ``theta``'s values (an array is factored afresh), so a
    returned ``GlassoResult`` can be certified from (theta, S, W, lam) alone.
    Inputs are checked as in :func:`weighted_glasso`, ``theta`` as the warm start.
    """
    s, rho, p = _graph_problem(S, W, lam, theta)
    return _kkt_from_inverse(p.values, p.inverse, s, rho)


def support(theta, threshold: float = 0.0) -> np.ndarray:
    """Binary adjacency of the off-diagonal entries with ``|T_ij| > threshold``.

    Any square, finite, symmetric ``theta`` is accepted.  The default
    threshold 0 relies on the solver producing exact zeros.
    """
    _check_setting(threshold, "threshold", "nonnegative")
    tv = theta.values if isinstance(theta, Precision) else _check_square_symmetric(theta, "matrix")
    adj = (np.abs(tv) > threshold).astype(np.int64)
    np.fill_diagonal(adj, 0)
    return adj
