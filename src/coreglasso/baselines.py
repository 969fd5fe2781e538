"""Graph-input core-score baselines: MINRES and k-cores.

Both take a known adjacency matrix and produce per-node scores scaled
to [0, 1]; only the induced ordering matters for the block-model
comparison metric.
"""

import warnings

import numpy as np

from dataclasses import dataclass

from .errors import InputError
from .model import _check_adjacency, _check_setting

__all__ = ["BaselineScores", "minres_scores", "kcore_scores", "minres_residual"]


@dataclass(frozen=True)
class BaselineScores:
    """Baseline output: scaled scores plus the raw pre-scaling values.

    The function that returns it names the method.  For MINRES,
    ``residuals`` holds the fit residual after every sweep.
    """

    c: np.ndarray
    raw: np.ndarray
    residuals: tuple[float, ...] | None = None


def minres_residual(A, c) -> float:
    """Off-diagonal least-squares residual ``sum_{i!=j} (A_ij - c_i c_j)^2``."""
    a = np.asarray(A, dtype=float)
    cv = np.asarray(c, dtype=float)
    outer = np.outer(cv, cv)
    diff = a - outer
    np.fill_diagonal(diff, 0.0)
    return float((diff ** 2).sum())


def minres_scores(A, tol: float = 1e-6, max_iter: int = 500) -> BaselineScores:
    """Rank-one fit of the adjacency by cyclic coordinate descent.

    Each pass exactly minimizes the residual in one coordinate,
    ``c_i <- sum_{j!=i} A_ij c_j / sum_{j!=i} c_j^2``, so the residual is
    nonincreasing across sweeps.  Stops when the largest coordinate
    change falls below ``tol`` or at ``max_iter`` (the guard for graphs
    whose infimum is only approached, e.g. stars).  Raw scores are then
    min-max scaled to [0, 1].
    """
    _check_setting(tol, "tol", "positive")
    _check_setting(max_iter, "max_iter", "count")
    a = _check_adjacency(A)
    n = a.shape[0]
    degrees = a.sum(axis=1)
    if degrees.max() == 0:
        warnings.warn("all-zero adjacency: returning zero core scores")
        zeros = np.zeros(n)
        return BaselineScores(c=zeros, raw=zeros.copy(), residuals=(0.0,))
    c = degrees / degrees.max()
    residuals = [minres_residual(a, c)]
    for _ in range(max_iter):
        biggest = 0.0
        sumsq = float(c @ c)
        for i in range(n):
            denom = sumsq - c[i] * c[i]
            new = float(a[i] @ c) / denom if denom > 1e-30 else 0.0
            biggest = max(biggest, abs(new - c[i]))
            sumsq += new * new - c[i] * c[i]
            c[i] = new
        residuals.append(minres_residual(a, c))
        if biggest < tol:
            break
    lo, hi = c.min(), c.max()
    if hi > lo:
        scaled = (c - lo) / (hi - lo)
    else:
        scaled = np.ones(n) if hi > 0 else np.zeros(n)
    return BaselineScores(c=scaled, raw=c, residuals=tuple(residuals))


def kcore_scores(A) -> BaselineScores:
    """Core numbers by the standard peeling of minimum-degree vertices.

    The core number of a vertex is the largest k such that it survives
    in the k-core; scores are core numbers divided by their maximum.
    """
    a = _check_adjacency(A)
    if not np.isin(a, (0.0, 1.0)).all():
        raise InputError("adjacency must be binary")
    n = a.shape[0]
    degree = a.sum(axis=1).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    k = 0
    for _ in range(n):
        masked = np.where(alive, degree, np.iinfo(np.int64).max)
        v = int(np.argmin(masked))  # lowest index among ties
        k = max(k, int(degree[v]))
        core[v] = k
        alive[v] = False
        neighbors = np.flatnonzero((a[v] > 0) & alive)
        degree[neighbors] -= 1
    raw = core.astype(float)
    c = raw / raw.max() if raw.max() > 0 else np.zeros(n)
    return BaselineScores(c=c, raw=raw)
