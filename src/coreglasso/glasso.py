"""Weighted graphical lasso solver.

Maximizes ``log det T - tr(S T) - lam * sum_{i!=j} w_ij |T_ij|`` over
symmetric positive-definite T by exact coordinate ascent: each sweep
maximizes the objective along every diagonal entry and every symmetric
off-diagonal pair in closed form, keeping an incrementally updated
inverse via Sherman-Morrison-Woodbury rank-one/rank-two corrections.
The per-pair subproblem is one-dimensional and strictly concave, so each
step has an exact solution (possibly at the kink, which produces exact
zeros) and the objective never decreases.

Convergence is certified by the stationarity system of the objective,
measured in max-norm:

    (T^-1 - S)_ii = 0
    (T^-1 - S)_ij = lam * w_ij * sign(T_ij)      where T_ij != 0
    |(T^-1 - S)_ij| <= lam * w_ij                where T_ij = 0

The maintained inverse is refreshed from a Cholesky factorization once
per sweep, which also guards against loss of positive definiteness.
"""

import numpy as np

from dataclasses import dataclass

from .errors import InputError, NotPositiveDefiniteError, NumericalError
from .model import (Hyperparams, Precision, WeightMatrix, _check_setting,
                    _check_square_symmetric, _inverse_logdet)

__all__ = ["GlassoResult", "weighted_glasso", "kkt_residual", "support"]


@dataclass(frozen=True)
class GlassoResult:
    """Converged (or capped) solution of the weighted graphical lasso.

    ``objective_trace`` holds the objective after every sweep so the
    ascent property can be checked from the outside.
    """

    theta: Precision
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] = ()


def _weights_array(W, n: int) -> np.ndarray:
    if isinstance(W, WeightMatrix):
        wv = W.values
    else:
        wv = _check_square_symmetric(W, "weight matrix")
        if wv[~np.eye(wv.shape[0], dtype=bool)].min(initial=0.0) < 0:
            raise InputError("weights must be nonnegative")
    if wv.shape != (n, n):
        raise InputError(f"weight matrix shape {wv.shape}, expected {(n, n)}")
    return wv


def _refresh_inverse(theta: np.ndarray, sweep: int):
    """Exact inverse and log-determinant from a fresh Cholesky factor."""
    try:
        return _inverse_logdet(theta, "theta")
    except NotPositiveDefiniteError:
        raise NumericalError(
            f"positive definiteness lost at sweep {sweep}: Cholesky failed"
        ) from None


def _pair_candidates(th_ij, b_ii, b_jj, b_ij, s_ij, rho):
    """Stationary points of the 1-D pair objective, plus the kink.

    Along ``T + t (E_ij + E_ji)`` the objective changes by
    ``log D(t) - 2 s_ij t - 2 rho |th_ij + t|`` with
    ``D(t) = (1 + t b_ij)^2 - t^2 b_ii b_jj``, positive on an open
    interval around zero.  Returns candidate steps t inside that
    interval.
    """
    a = b_ij * b_ij - b_ii * b_jj  # < 0 for a PD inverse
    root = np.sqrt(b_ii * b_jj)
    t_a = (-b_ij - root) / a
    t_b = (-b_ij + root) / a
    t_lo, t_hi = (t_a, t_b) if t_a < t_b else (t_b, t_a)

    candidates = []
    kink = -th_ij
    if t_lo < kink < t_hi:
        candidates.append(kink)
    for sgn in (1.0, -1.0):
        cs = 2.0 * (s_ij + rho * sgn)
        if cs == 0.0:
            roots = (-b_ij / a,)
        else:
            qa = cs * a
            qb = 2.0 * (cs * b_ij - a)
            qc = cs - 2.0 * b_ij
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0.0:
                continue
            sq = np.sqrt(disc)
            roots = ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa))
        for t in roots:
            if t_lo < t < t_hi and (th_ij + t) * sgn > 0.0:
                candidates.append(t)
    return candidates


def _pair_value(t, th_ij, b_ii, b_jj, b_ij, s_ij, rho):
    d = (1.0 + t * b_ij) ** 2 - t * t * b_ii * b_jj
    if d <= 0.0:
        return -np.inf
    return np.log(d) - 2.0 * s_ij * t - 2.0 * rho * abs(th_ij + t)


def weighted_glasso(S, W, lam: float, tol: float = Hyperparams.glasso_tol,
                    max_iter: int = Hyperparams.glasso_max_iter, warm_start=None) -> GlassoResult:
    """Solve the weighted graphical lasso to a certified KKT tolerance.

    Parameters
    ----------
    S : (N, N) symmetric PSD matrix with positive diagonal.
    W : WeightMatrix or (N, N) nonnegative symmetric array
        Per-edge weights; the diagonal is never penalized.
    lam : float
        Penalty scale, finite and > 0; the effective penalty on the ordered
        pair (i, j) is ``lam * w_ij``, i.e. ``2 lam w_ij`` per undirected edge.
    tol : float
        Max-norm bound on the KKT residual at convergence, finite and > 0.
    max_iter : int
        Sweep cap, an integer >= 1; hitting it returns ``converged=False``.
    warm_start : optional Precision (or array validated as one) used as
        the initial iterate.

    Returns
    -------
    GlassoResult
    """
    s = _check_square_symmetric(S, "covariance")
    n = s.shape[0]
    diag_s = np.diag(s).copy()
    if diag_s.min() <= 0:
        raise InputError("covariance diagonal must be strictly positive")
    _check_setting(lam, "lam", "positive")
    _check_setting(tol, "tol", "positive")
    _check_setting(max_iter, "max_iter", "count")
    rho = lam * _weights_array(W, n)
    np.fill_diagonal(rho, 0.0)

    if warm_start is not None:
        if not isinstance(warm_start, Precision):
            warm_start = Precision(warm_start)
        if warm_start.n_nodes != n:
            raise InputError("warm start shape mismatch")
        theta = warm_start.values.copy()
    else:
        theta = np.diag(1.0 / diag_s)

    inv, _ = _refresh_inverse(theta, 0)
    trace: list[float] = []
    converged = False
    kkt = np.inf
    sweeps = 0

    for sweep in range(1, max_iter + 1):
        sweeps = sweep
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
                cands = _pair_candidates(th_ij, b_ii, b_jj, b_ij, s[i, j], r)
                if not cands:
                    raise NumericalError(
                        f"no admissible step for pair ({i}, {j}); "
                        "inverse drifted off the PD cone"
                    )
                best = max(
                    cands,
                    key=lambda t: _pair_value(t, th_ij, b_ii, b_jj, b_ij, s[i, j], r),
                )
                if best == 0.0:
                    continue
                delta = best
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

        inv, logdet = _refresh_inverse(theta, sweep)
        kkt = _kkt_from_inverse(theta, inv, s, rho)
        objective = logdet - float((s * theta).sum()) - float((rho * np.abs(theta)).sum())
        trace.append(objective)
        if kkt <= tol:
            converged = True
            break

    return GlassoResult(
        theta=Precision(theta),
        objective=trace[-1],
        kkt_residual=float(kkt),
        iterations=sweeps,
        converged=converged,
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

    Independent of the solver state: inverts ``theta`` afresh, so a
    returned ``GlassoResult`` can be certified from (theta, S, W, lam)
    alone.  A raw ``theta`` is checked as a :class:`Precision`.
    """
    _check_setting(lam, "lam", "positive")
    tv = (theta if isinstance(theta, Precision) else Precision(theta)).values
    n = tv.shape[0]
    s = _check_square_symmetric(S, "covariance")
    rho = lam * _weights_array(W, n)
    np.fill_diagonal(rho, 0.0)
    inv, _ = _inverse_logdet(tv, "theta")
    return _kkt_from_inverse(tv, inv, s, rho)


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
