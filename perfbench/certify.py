"""Certificates for solver results, independent of the solver that made them.

Graph step: the public ``kkt_residual`` recomputes the stationarity
residual from (theta, S, W, lam) and must not exceed the ``tol`` the
solve was asked for.  Score step: the full linear program, with all
pairwise rows, is solved again by HiGHS through ``scipy.optimize.linprog``
and the returned scores must be feasible and reach its optimum.
"""

import numpy as np

from scipy import sparse
from scipy.optimize import linprog

from coreglasso import core_score_lp, kkt_residual, max_core_mass, weighted_glasso

# Relative to |g|_inf * M, the largest objective any feasible score vector
# can reach.  Certified results agree with HiGHS to about 1e-16 of it on the
# benchmark's instances; 1e-7 is HiGHS's default feasibility tolerance.
LP_REL_GAP = 1e-7
PAIR_VIOLATION = 1e-8


def glasso_failures(span) -> list[str]:
    """Problems with one ``weighted_glasso`` call, empty when certified."""
    a = span.arguments(weighted_glasso)
    res = span.result
    out = []
    if not res.converged:
        out.append(f"glasso stopped unconverged after {res.iterations} sweeps")
    kkt = kkt_residual(res.theta, a["S"], a["W"], a["lam"])
    if not kkt <= a["tol"]:
        out.append(f"glasso KKT residual {kkt:.3e} above tol {a['tol']:.3e}")
    return out


def _values(x):
    return np.asarray(x.values if hasattr(x, "values") else x, dtype=float)


def _pair_rows(n, dist, e, eps_w):
    """Sparse rows of c_i + c_j <= b_ij over i < j, and b."""
    iu, ju = np.triu_indices(n, k=1)
    b = np.full(iu.size, 1.0 - eps_w)
    if e > 0:
        b += e * np.log(_values(dist)[iu, ju])
    k = np.arange(iu.size)
    a = sparse.coo_matrix(
        (np.ones(2 * iu.size), (np.concatenate([k, k]), np.concatenate([iu, ju]))),
        shape=(iu.size, n),
    ).tocsr()
    return a, b


def _highs_max(gains, n, dist, e, eps_w, mass):
    a_ub, b_ub = _pair_rows(n, dist, e, eps_w)
    eq = {} if mass is None else {"A_eq": np.ones((1, n)), "b_eq": [mass]}
    res = linprog(-gains, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0),
                  method="highs", **eq)
    best = -res.fun if res.status == 0 else np.nan
    return best, (a_ub, b_ub)


def lp_failures(span) -> list[str]:
    """Problems with one ``core_score_lp`` call, empty when certified."""
    a = span.arguments(core_score_lp)
    t = _values(a["abs_theta"])
    n = t.shape[0]
    gains = 2.0 * t.sum(axis=1)
    if not a["include_diagonal"]:
        gains -= 2.0 * np.diag(t)
    mass = float(a["M"])
    c = _values(span.result.c)
    best, (a_ub, b_ub) = _highs_max(gains, n, a["dist"], a["e"], a["eps_w"], mass)
    out = []
    violation = float((a_ub @ c - b_ub).max())
    if violation > PAIR_VIOLATION:
        out.append(f"scores violate a pairwise bound by {violation:.3e}")
    if abs(c.sum() - mass) > 1e-8 * max(1.0, mass) or c.min() < 0 or c.max() > 1:
        out.append("scores leave the budget or the box")
    scale = max(np.abs(gains).max(), 1e-300) * mass
    gap = (best - float(gains @ c)) / scale
    if not abs(gap) <= LP_REL_GAP:
        out.append(f"score LP relative gap {gap:.3e} against HiGHS")
    return out


def max_mass_failures(span) -> list[str]:
    """Problems with one ``max_core_mass`` call, empty when certified."""
    a = span.arguments(max_core_mass)
    n = int(a["n"])
    best, _ = _highs_max(np.ones(n), n, a["dist"], a["e"], a["eps_w"], None)
    gap = (best - float(span.result)) / n
    if not abs(gap) <= LP_REL_GAP:
        return [f"max_core_mass relative gap {gap:.3e} against HiGHS"]
    return []
