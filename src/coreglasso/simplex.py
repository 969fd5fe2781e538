"""Linear programs through the HiGHS dual simplex.

Thin adapter over ``scipy.optimize.linprog(method="highs-ds")`` (Huangfu
& Hall, Math. Prog. Comp. 2018) for the core-score subproblem:

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                0 <= x <= 1

The box is fixed: core scores live in [0, 1], and the box keeps every
program bounded, so a solve ends optimal or infeasible.  The constraint
matrices may be dense or scipy-sparse.  HiGHS is deterministic, so equal
inputs give the same vertex on every run.  The result carries a
duality-gap certificate computed from the HiGHS marginals, and a flag
that certifies the optimum as unique.
"""

import numpy as np

from dataclasses import dataclass
from scipy import sparse
from scipy.optimize import linprog

from .errors import NumericalError

__all__ = ["SimplexResult", "simplex_solve"]


@dataclass(frozen=True, eq=False)
class SimplexResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float
    dual_gap: float
    pivots: int  # HiGHS simplex iterations
    unique: bool = False  # x is certified to be the only optimum


def simplex_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> SimplexResult:
    """Minimize ``c @ x`` subject to the rows and the box ``0 <= x <= 1``.

    The rows are ``A_ub x <= b_ub`` and ``A_eq x == b_eq``.  Raises
    :class:`NumericalError` when HiGHS stops for any reason other than
    optimality or infeasibility.
    """
    c = np.asarray(c, dtype=float)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0.0, 1.0), method="highs-ds")
    if res.status == 2:
        return SimplexResult("infeasible", None, np.nan, np.nan, int(res.nit))
    if res.status != 0:
        raise NumericalError(f"HiGHS stopped with status {res.status}: {res.message}")

    # Dual objective b^T y over the rows and the box; the lower side of the
    # box is 0, so only the upper side's marginals contribute.
    dual = float(res.upper.marginals.sum())
    if b_ub is not None:
        dual += float(np.asarray(b_ub, dtype=float).ravel() @ res.ineqlin.marginals)
    if b_eq is not None:
        dual += float(np.asarray(b_eq, dtype=float).ravel() @ res.eqlin.marginals)
    objective = float(c @ res.x)
    # Every optimum keeps the equalities and the constraints with duals above
    # 1e-6 * max|c| (10x HiGHS's tolerance) tight; full rank makes x unique.
    zero = 1e-6 * max(1.0, float(np.abs(c).max()))
    parts = [(np.eye(c.size), res.lower.marginals), (np.eye(c.size), res.upper.marginals),
             (a_ub, res.ineqlin.marginals), (a_eq, np.full(res.eqlin.marginals.size, np.inf))]
    tight = [sparse.csr_matrix(a)[np.abs(y) > zero].toarray() for a, y in parts if a is not None]
    unique = bool(np.linalg.matrix_rank(np.vstack(tight)) == c.size)
    return SimplexResult("optimal", res.x, objective, abs(objective - dual), int(res.nit), unique)
