"""Core-score assignment as a linear program.

For a fixed graph (or precision magnitudes) the core scores solve

    maximize    sum_ij |T_ij| (c_i + c_j)  =  g @ c,   g_i = 2 sum_j |T_ij|
    subject to  sum_i c_i = M,   0 <= c_i <= 1,
                c_i + c_j <= 1 + e*log(d_ij) - eps_w     for i < j

The pairwise bound closes the strict positivity requirement on the
penalty weights with the same floor ``eps_w`` the weight construction
uses, so the two subproblems stay consistent.

The full program, with all N(N-1)/2 pairwise rows in one sparse matrix,
goes to the HiGHS dual simplex with the gains divided by ``max|g|``, so
the step does not depend on the units of the data.  Unless the optimum
is unique, a second solve over the optimal face breaks ties towards the
lowest node index.  The returned scores are certified against the first
solve's dual bound, relative to ``max|g| * M``, to ``LP_TOL``.
"""

import numpy as np

from dataclasses import dataclass
from functools import lru_cache
from scipy import sparse

from .errors import InfeasibleError, InputError, NumericalError
from .model import (EPS_W, CoreScores, _check_adjacency, _check_nodes, _check_square_symmetric,
                    pair_bounds, resolve_budget)
from .simplex import simplex_solve

__all__ = ["LpResult", "core_score_lp", "scores_from_graph", "max_core_mass"]

# Largest accepted duality gap of the score LP, relative to max|g| * M.
LP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LpResult:
    """Vertex-optimal core scores with an optimality certificate.

    ``active_constraints`` lists the pairwise rows that are tight at the
    solution; ``iterations`` counts HiGHS simplex iterations over both
    solves (optimum and, unless the optimum is unique, lowest-index tie-break).
    """

    c: CoreScores
    objective: float
    active_constraints: tuple[tuple[int, int], ...]
    iterations: int


@lru_cache(maxsize=4)
def _pair_rows(n: int):
    """``(iu, ju, rows)``: the pairs i < j and the read-only CSR matrix of the
    N(N-1)/2 pairwise rows ``c_i + c_j``, built once per node count."""
    iu, ju = np.triu_indices(n, k=1)
    m = iu.size
    rows = sparse.csr_matrix(
        (np.ones(2 * m), np.column_stack([iu, ju]).ravel(), np.arange(0, 2 * m + 1, 2)),
        shape=(m, n),
    )
    for a in (iu, ju, rows.data, rows.indices, rows.indptr):
        a.setflags(write=False)
    return iu, ju, rows


def _solve(gains, bounds, mass):
    """Maximize ``gains @ c`` over the full program; returns (c, iterations).

    ``mass`` None drops the budget row and the tie-break re-solve.  Raises
    :class:`InfeasibleError` when the polytope is empty and
    :class:`NumericalError` when the certified relative gap exceeds ``LP_TOL``.
    """
    n = gains.shape[0]
    iu, ju, rows = _pair_rows(n)
    b_rows = bounds[iu, ju]
    a_eq = None if mass is None else np.ones((1, n))
    b_eq = None if mass is None else np.array([mass])
    scale = float(np.abs(gains).max())
    g = gains / scale if scale > 0 else np.zeros(n)

    first = simplex_solve(-g, rows, b_rows, a_eq, b_eq)
    if first.status != "optimal":
        raise InfeasibleError("core-score polytope is empty")
    c, iterations = first.x, first.pivots
    if mass is not None and not first.unique:
        # Among the optimal scores (g @ c = f*), prefer mass on low node indices.
        second = simplex_solve(-np.arange(n, 0, -1.0), rows, b_rows, np.vstack([a_eq, g]),
                               np.append(b_eq, -first.objective))
        if second.status != "optimal":
            raise NumericalError(f"tie-break LP status {second.status}")
        c, iterations = second.x, iterations + second.pivots
    # -objective + dual_gap bounds every feasible g @ c from above, whatever
    # the sign of the first solve's primal-dual difference.
    gap = (first.dual_gap - first.objective - g @ c) / (n if mass is None else mass)
    if not gap <= LP_TOL:
        raise NumericalError(
            f"LP relative duality gap {gap:.3e} above tolerance {LP_TOL:.3e}"
        )
    return c, iterations


def max_core_mass(n: int, dist=None, e: float = 0.0, eps_w: float = EPS_W) -> float:
    """Largest feasible total core mass under the bounds of :func:`pair_bounds`,
    from the one certified LP for every ``e``; ``eps_w`` stays a parameter
    only because ``perfbench/certify.py`` binds it."""
    _check_nodes(n)
    c, _ = _solve(np.ones(n), pair_bounds(n, dist, e, eps_w), None)
    return float(c.sum())


def core_score_lp(abs_theta, dist=None, e: float = 0.0, M: float | None = None,
                  eps_w: float = EPS_W, include_diagonal: bool = True) -> LpResult:
    """Solve the core-score linear program for given edge magnitudes.

    Parameters
    ----------
    abs_theta : (N, N) symmetric nonnegative matrix
        Entry magnitudes of the precision matrix (or graph weights).
    dist, e : N x N spatial distances and their coupling strength.
    M : total core mass in (0, N] and within the polytope; None means N/8.
    eps_w : slack closing the strict pairwise inequality; a parameter
        only because ``perfbench/certify.py`` binds it.
    include_diagonal : bool
        Whether |T_ii| contributes to the gain of node i (the literal
        double-sum reading).  Zero-diagonal inputs are unaffected.

    Returns
    -------
    LpResult with a feasible, vertex-optimal, deterministic ``c``.

    At ``e = 0``, with ``beta = 1 - eps_w``, every vertex of the polytope,
    and so every result (tie-break included), has at most three distinct
    values and at most one node above ``beta/2``.  It is either
    ``floor(2M/beta)`` nodes at ``beta/2``, one node holding the remainder
    and zeros, or one node at ``x > beta/2``, the others at ``beta - x`` or
    zero.  So M, not the data, sets the size of the fitted core.
    ``tests/test_corescore.py::TestInvariants::test_at_most_three_values_at_e0``
    carries the proof.
    """
    t = _check_square_symmetric(abs_theta, "abs_theta")
    n = t.shape[0]
    _check_nodes(n)
    if t.min() < 0:
        raise InputError("abs_theta must be entrywise nonnegative")
    M = resolve_budget(M, n)

    gains = 2.0 * t.sum(axis=1)
    if not include_diagonal:
        gains -= 2.0 * np.diag(t)
    bounds = pair_bounds(n, dist, e, eps_w)

    try:
        c, iterations = _solve(gains, bounds, M)
    except InfeasibleError:
        cap = max_core_mass(n, dist, e, eps_w)
        raise InfeasibleError(f"core budget M={M:.6g} exceeds the maximum feasible core mass "
                              f"{cap:.6g} under the pairwise bounds") from None

    iu, ju, _ = _pair_rows(n)
    tight = np.abs(c[iu] + c[ju] - bounds[iu, ju]) <= 1e-7
    active = tuple((int(i), int(j)) for i, j in zip(iu[tight], ju[tight]))
    scores = CoreScores(c, budget=M)
    return LpResult(
        c=scores,
        objective=float(gains @ scores.values),
        active_constraints=active,
        iterations=iterations,
    )


def scores_from_graph(adjacency, dist=None, e: float = 0.0, M: float | None = None) -> LpResult:
    """Estimate core scores for a known graph.

    Identical to :func:`core_score_lp` with the adjacency matrix playing
    the role of the edge magnitudes (so ``M`` None means N/8); requires a
    zero diagonal and nonnegative entries.
    """
    a = _check_adjacency(adjacency)
    return core_score_lp(a, dist=dist, e=e, M=M)
