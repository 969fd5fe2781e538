"""Domain types and the core quantities of the joint graph/core-score model.

The model couples a Gaussian graphical model over node attributes with
per-node core scores: a precision matrix carries the graph, and the core
scores (optionally together with spatial distances) set a per-edge l1
penalty weight ``w_ij = 1 - c_i - c_j + e*log(d_ij)``.  This module holds
the value types, the empirical covariance, the penalty-weight
construction, and the joint MAP objective that the block solver ascends.
The package's value and result types compare and hash by identity;
``Hyperparams``, which holds only scalars, compares by value.
"""

import numpy as np

from dataclasses import dataclass, field, fields
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigError, InputError, NotPositiveDefiniteError

__all__ = [
    "FeatureMatrix",
    "DistanceMatrix",
    "CoreScores",
    "Precision",
    "Hyperparams",
    "empirical_covariance",
    "compute_weights",
    "joint_objective",
]

_SUM_TOL = 1e-8
# Floor of the penalty weights and slack of the pairwise score bound.
EPS_W = 1e-3


def _frozen(values, dtype=float):
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


class _Judged:
    """Pickles through the constructor, so ``__post_init__`` judges and
    freezes the unpickled copy again."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _check_square_symmetric(values, name) -> np.ndarray:
    """The one square/non-empty/finite/symmetric check of the package.

    Symmetry is tested to 1e-10 relative to ``max(1, max|v|)``; returns
    the exactly symmetric average ``(v + v.T) / 2`` as a new array.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise InputError(f"{name} must be square, got shape {v.shape}")
    if v.size == 0:
        raise InputError(f"{name} must be non-empty, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite entries")
    scale = max(1.0, np.abs(v).max())
    if np.abs(v - v.T).max() > 1e-10 * scale:
        raise InputError(f"{name} must be symmetric")
    return 0.5 * (v + v.T)


def _check_adjacency(A) -> np.ndarray:
    """A graph: square/finite/symmetric, zero diagonal, nonnegative."""
    a = _check_square_symmetric(A, "adjacency")
    if np.abs(np.diag(a)).max() != 0:
        raise InputError("adjacency must have a zero diagonal")
    if a.min() < 0:
        raise InputError("adjacency must be nonnegative")
    return a


@dataclass(frozen=True, eq=False)
class FeatureMatrix(_Judged):
    """Node attributes: N rows (nodes) by d columns (i.i.d. samples)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise InputError(f"feature matrix must be 2-D, got {v.ndim}-D")
        n, d = v.shape
        _check_nodes(n)
        if d < 1:
            raise InputError("empty data: need at least one sample column")
        if not np.all(np.isfinite(v)):
            raise InputError("feature matrix contains non-finite entries")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class DistanceMatrix(_Judged):
    """Pairwise spatial distances; the diagonal is ignored by all consumers."""

    values: np.ndarray

    def __post_init__(self):
        v = _check_square_symmetric(self.values, "distance matrix")
        off = v[~np.eye(v.shape[0], dtype=bool)]
        if off.size and off.min() < 0:
            raise InputError("distance matrix has negative entries")
        object.__setattr__(self, "values", _frozen(v))


@dataclass(frozen=True, eq=False)
class CoreScores(_Judged):
    """Per-node core scores in [0, 1] summing to the mass budget."""

    values: np.ndarray
    budget: float

    def __post_init__(self):
        v = _scores(self.values, "core scores")
        if v.min() < -_SUM_TOL or v.max() > 1.0 + _SUM_TOL:
            raise InputError(
                f"core scores outside [0, 1]: min {v.min()}, max {v.max()}"
            )
        # Snap solver-level roundoff back onto the box.
        v = np.clip(v, 0.0, 1.0)
        # Written to fail closed: a NaN budget fails the test.
        if not abs(float(v.sum()) - float(self.budget)) <= _SUM_TOL:
            raise InputError(
                f"core scores sum to {v.sum()}, budget is {self.budget}"
            )
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "budget", float(self.budget))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Precision(_Judged):
    """Symmetric positive-definite precision matrix; its one Cholesky factor
    gives ``inverse`` (exactly symmetric, read-only) and ``logdet``."""

    values: np.ndarray
    inverse: np.ndarray = field(init=False)
    logdet: float = field(init=False)

    def __post_init__(self):
        v = _check_square_symmetric(self.values, "precision matrix")
        try:
            factor = cho_factor(v, lower=True)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                "precision matrix is not positive definite"
            ) from None
        inv = cho_solve(factor, np.eye(v.shape[0]))
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "inverse", _frozen(0.5 * (inv + inv.T)))
        object.__setattr__(self, "logdet", 2.0 * float(np.log(np.diag(factor[0])).sum()))


def _check_setting(value, name: str, rule: str) -> None:
    """The one range check of a scalar setting, under one of three rules:
    ``positive`` (finite, > 0), ``nonnegative`` (finite, >= 0) or ``count``
    (an integer >= 1, not a bool).  Raises :class:`ConfigError` naming the setting."""
    if rule == "count":
        whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        ok, want = whole and value >= 1, "a whole number >= 1"
    else:
        ok = bool(np.isfinite(value)) and (value > 0 if rule == "positive" else value >= 0)
        want = f"finite and {rule}"
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value}")


def _check_nodes(n) -> None:
    """The one node-count rule: a whole number >= 2.  Below 2 raises
    :class:`InputError`; a non-integer, the count rule's :class:`ConfigError`."""
    if n < 2:
        raise InputError(f"need at least 2 nodes, got {n}")
    _check_setting(n, "n", "count")


def _scores(c, name: str = "scores", n: int | None = None) -> np.ndarray:
    """The one check of a raw score vector: 1-D, finite, non-empty, length ``n`` if given."""
    cv = c.values if isinstance(c, CoreScores) else np.asarray(c, dtype=float)
    if cv.ndim != 1 or not np.isfinite(cv).all():
        raise InputError(f"{name} must be a finite 1-D vector, got shape {cv.shape}")
    if cv.size == 0:
        raise InputError(f"{name} must be non-empty, got shape {cv.shape}")
    if n is not None and cv.shape[0] != n:
        raise InputError(f"{cv.shape[0]} {name} for {n} nodes")
    return cv


def resolve_budget(M, n_nodes: int) -> float:
    """The one core-mass budget rule: None means N/8; otherwise ``M`` must
    be finite, above the floor ``_SUM_TOL`` and at most N.  All-zero scores
    meet a budget at or below the floor within the sum tolerance of
    :class:`CoreScores`, so such a budget constrains nothing.  Raises
    :class:`ConfigError`."""
    if M is None:
        return n_nodes / 8.0
    _check_setting(M, "M", "positive")
    if M <= _SUM_TOL:
        raise ConfigError(f"core budget M={M} is at or below the floor {_SUM_TOL:g}")
    if M > n_nodes:
        raise ConfigError(
            f"core budget M={M} infeasible for {n_nodes} nodes (M <= N)"
        )
    return float(M)


@dataclass(frozen=True)
class Hyperparams:
    """Solver hyperparameters; a field outside its rule in ``_RULES`` raises
    :class:`ConfigError` naming it.

    Attributes
    ----------
    lam : penalty scale (lambda > 0).
    e : distance coupling (>= 0); requires distances when positive.
    M : core-mass budget (> 0); :func:`resolve_budget` makes None N/8.
    glasso_tol : KKT max-norm tolerance of the graph step.
    bca_max_iter : cap on fit's graph steps, the certifying one included.
    glasso_max_iter : sweep cap of the graph subproblem.
    ridge : diagonal loading (>= 0) added to the empirical covariance.
    """

    lam: float
    e: float = 0.0
    M: float | None = None
    glasso_tol: float = 1e-5
    bca_max_iter: int = 50
    glasso_max_iter: int = 1000
    ridge: float = 0.0

    _RULES = {
        "lam": "positive", "e": "nonnegative", "M": "positive",
        "glasso_tol": "positive", "bca_max_iter": "count",
        "glasso_max_iter": "count", "ridge": "nonnegative",
    }

    def __post_init__(self):
        for name, rule in self._RULES.items():
            value = getattr(self, name)
            if value is not None:
                _check_setting(value, name, rule)


def empirical_covariance(X, ridge: float = 0.0) -> np.ndarray:
    """Maximum-likelihood covariance of the sample columns.

    Parameters
    ----------
    X : FeatureMatrix or array of shape (N, d)
        Nodes on rows, i.i.d. samples on columns; an array is validated
        as a :class:`FeatureMatrix`.
    ridge : float
        Nonnegative diagonal loading; makes the result positive definite
        when d < N.

    Returns
    -------
    ndarray of shape (N, N), exactly symmetric, PSD up to roundoff.
    """
    _check_setting(ridge, "ridge", "nonnegative")
    v = (X if isinstance(X, FeatureMatrix) else FeatureMatrix(X)).values
    n, d = v.shape
    centered = v - v.mean(axis=1, keepdims=True)
    s = centered @ centered.T / d
    s = 0.5 * (s + s.T)
    if ridge > 0:
        s[np.diag_indices(n)] += ridge
    return s


def pair_bounds(n: int, dist: DistanceMatrix | None = None, e: float = 0.0,
                eps_w: float = EPS_W) -> np.ndarray:
    """Upper bounds ``1 - eps_w + e*log(d_ij)`` on ``c_i + c_j``, as a matrix.

    The one home of the distance rules and of the bounds' sign rule: given
    distances must be N x N whatever ``e``; ``e > 0`` requires them,
    strictly positive off the diagonal so the log term is finite.  ``e``
    must be finite and nonnegative, ``eps_w`` finite and positive; raw
    distances are checked as a :class:`DistanceMatrix`.  The diagonal is
    ``inf`` (no bound); a negative bound leaves no feasible scores and
    raises :class:`ConfigError`.  ``eps_w`` is a parameter only for
    :func:`core_score_lp` and :func:`max_core_mass` to pass on, as
    ``perfbench/certify.py`` binds theirs.
    """
    _check_setting(e, "e", "nonnegative")
    _check_setting(eps_w, "eps_w", "positive")
    if dist is not None:
        dv = (dist if isinstance(dist, DistanceMatrix) else DistanceMatrix(dist)).values
        if dv.shape != (n, n):
            raise InputError(f"distance matrix is {'x'.join(map(str, dv.shape))} for {n} nodes")
    b = np.full((n, n), 1.0 - eps_w)
    if e > 0:
        if dist is None:
            raise ConfigError("distance coupling e > 0 requires distances")
        off = ~np.eye(n, dtype=bool)
        if dv[off].min() <= 0:
            raise ConfigError(
                "distance coupling e > 0 requires strictly positive "
                "off-diagonal distances"
            )
        b[off] += e * np.log(dv[off])
    np.fill_diagonal(b, np.inf)
    if b.min() < 0:
        i, j = np.unravel_index(np.argmin(b), b.shape)
        raise ConfigError(f"pairwise bound on (c_{i}, c_{j}) is negative ({b[i, j]:.6g}); "
                          "no feasible core scores exist")
    return b


def compute_weights(c, dist: DistanceMatrix | None = None, e: float = 0.0) -> np.ndarray:
    """Per-edge penalty weights ``1 - c_i - c_j + e*log(d_ij)``: the slack of
    the :func:`pair_bounds` bound plus ``EPS_W``, exactly symmetric, zero diagonal.

    The one membership test of the bounds: scores more than 1e-9 past one
    raise :class:`ConfigError` naming the worst pair; a smaller excess is
    roundoff, snapped to ``EPS_W``.  Raw scores are checked as :class:`CoreScores`.
    """
    cv = (c if isinstance(c, CoreScores) else CoreScores(c, budget=np.sum(c))).values
    bounds = pair_bounds(cv.shape[0], dist, e)
    raw = bounds + EPS_W - cv[:, None] - cv[None, :]
    if raw.min() < EPS_W - 1e-9:
        i, j = np.unravel_index(np.argmin(raw), raw.shape)
        raise ConfigError(
            f"core scores violate the pairwise bound on ({i}, {j}): "
            f"c_i + c_j = {cv[i] + cv[j]:.6g} > {bounds[i, j]:.6g}"
        )
    w = np.maximum(EPS_W, raw)
    np.fill_diagonal(w, 0.0)
    return 0.5 * (w + w.T)


def _graph_problem(S, W, lam, theta=None):
    """The one check of a graph-step problem; returns ``(S, lam * W, theta)``.

    ``lam`` must be positive and ``S`` square and symmetric.  The one weight
    rule: ``W`` is square, finite, symmetric, of ``S``'s shape and
    nonnegative off the diagonal; the diagonal is never penalized (the
    penalty gets a zero diagonal).  A given ``theta`` is returned as a
    :class:`Precision` of the same shape; None stays None.
    """
    _check_setting(lam, "lam", "positive")
    s = _check_square_symmetric(S, "covariance")
    wv = _check_square_symmetric(W, "weight matrix")
    if wv[~np.eye(wv.shape[0], dtype=bool)].min(initial=0.0) < 0:
        raise InputError("weights must be nonnegative")
    if theta is not None and not isinstance(theta, Precision):
        theta = Precision(theta)
    for name, v in (("weight matrix", wv), ("theta", None if theta is None else theta.values)):
        if v is not None and v.shape != s.shape:
            raise InputError(f"{name} shape {v.shape}, covariance shape {s.shape}")
    rho = lam * wv
    np.fill_diagonal(rho, 0.0)
    return s, rho, theta


def _objective(theta, logdet: float, S, rho) -> float:
    """The graph-step objective ``log det T - tr(S T) - sum_ij rho_ij |T_ij|``."""
    return logdet - float((S * theta).sum()) - float((rho * np.abs(theta)).sum())


def joint_objective(theta, c, S: np.ndarray, hyper: Hyperparams,
                    dist: DistanceMatrix | None = None) -> float:
    """Joint MAP objective ``log det T - tr(S T) - lam * sum_ij w_ij |T_ij|``.

    The penalty sums over all ordered pairs i != j, so each undirected
    edge is counted twice; weights come from :func:`compute_weights` at
    the given core scores.  ``theta``, ``S`` and the weights are checked
    together by :func:`_graph_problem`, so they must share one N x N shape.
    """
    s, rho, p = _graph_problem(S, compute_weights(c, dist, hyper.e), hyper.lam, theta)
    return _objective(p.values, p.logdet, s, rho)
