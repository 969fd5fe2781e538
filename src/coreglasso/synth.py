"""Generative sampler for planted core-periphery instances.

Draws a precision matrix whose off-diagonal entries follow the Laplace
prior implied by planted core scores (scale ``1/(lam * w_ij)``), keeps
the largest fraction ``keep`` of them in magnitude, makes it
positive definite by diagonal dominance, and samples Gaussian node
attributes from the implied covariance.  Used as the ground-truth oracle
in recovery tests.

Randomness comes from ``numpy.random.default_rng`` (PCG64) with an
explicit seed; the draw order (Laplace upper triangle, then the normal
block) is part of the determinism contract and must not change.

Node counts must be whole numbers >= 2, and planted scores need one value
per node within their pairwise bounds (at ``e > 0`` the default core block
usually breaks them); these rules live in :mod:`coreglasso.model`.
"""

import numpy as np

from dataclasses import dataclass

from .errors import ConfigError
from .model import (
    CoreScores,
    DistanceMatrix,
    FeatureMatrix,
    Precision,
    _check_nodes,
    _check_setting,
    _scores,
    compute_weights,
    resolve_budget,
)

__all__ = ["SyntheticInstance", "sample_instance", "sample_coordinates", "planted_scores"]


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    """Planted ground truth plus data sampled from it."""

    c_true: CoreScores
    theta_true: Precision
    X: FeatureMatrix


def planted_scores(n: int, core_frac: float = 0.25, core_value: float = 0.49,
                   budget: float | None = None) -> CoreScores:
    """Two-level planted core scores: a core block at ``core_value``.

    The first ``floor(core_frac * n)`` nodes form the core; the rest
    share the leftover mass uniformly so the total equals ``budget``
    (:func:`~coreglasso.model.resolve_budget`: None means ``n/8``).
    """
    _check_nodes(n)
    for name, value in (("core_frac", core_frac), ("core_value", core_value)):
        _check_setting(value, name, "nonnegative")
        if value > 1:
            raise ConfigError(f"{name} must be at most 1, got {value}")
    m = resolve_budget(budget, n)
    n_core = int(np.floor(core_frac * n))
    c = np.zeros(n)
    c[:n_core] = core_value
    leftover = m - core_value * n_core
    if leftover < -1e-12 or (n_core == n and abs(leftover) > 1e-12):
        raise ConfigError(
            f"core block mass {core_value * n_core} exceeds budget {m}"
        )
    if n_core < n:
        c[n_core:] = leftover / (n - n_core)
    return CoreScores(c, budget=m)


def sample_instance(n: int, d: int, c_true: CoreScores, lam: float,
                    e: float = 0.0, dist: DistanceMatrix | None = None,
                    keep: float = 0.7, pd_margin: float = 0.1,
                    seed: int = 0) -> SyntheticInstance:
    """Sample a planted instance of the generative model.

    Parameters
    ----------
    n, d : graph size and number of attribute samples.
    c_true : planted core scores, within the pairwise bounds of ``e, dist``.
    lam : finite, positive Laplace prior scale; entry (i, j) has expected
        magnitude ``1/(lam * w_ij)``.
    e, dist : distance coupling, as in the weight construction.
    keep : fraction of the drawn off-diagonal entries kept, in (0, 1]:
        entries below the ``100 - 100 * keep`` percentile of the drawn
        magnitudes are zeroed (the default zeroes below the 30th).
    pd_margin : diagonal-dominance margin added to the row sums; must be
        finite and positive.
    seed : RNG seed; fixed seed gives a byte-identical instance.
    """
    _check_nodes(n)
    _scores(c_true, "c_true scores", n)
    _check_setting(d, "d", "count")
    _check_setting(lam, "lam", "positive")
    _check_setting(pd_margin, "pd_margin", "positive")
    _check_setting(keep, "keep", "positive")
    if keep > 1:
        raise ConfigError(f"keep must be at most 1, got {keep}")

    rng = np.random.default_rng(seed)
    w = compute_weights(c_true, dist, e)
    iu = np.triu_indices(n, k=1)
    scale = 1.0 / (lam * w[iu])
    offd = rng.laplace(loc=0.0, scale=scale)
    # Not 100 * (1 - keep): only this form gives exactly 30.0 at 0.7.
    offd[np.abs(offd) < np.percentile(np.abs(offd), 100.0 - 100.0 * keep)] = 0.0

    theta = np.zeros((n, n))
    theta[iu] = offd
    theta += theta.T
    theta[np.diag_indices(n)] = np.abs(theta).sum(axis=1) + pd_margin

    theta_true = Precision(theta)
    chol = np.linalg.cholesky(theta_true.inverse)
    X = chol @ rng.standard_normal((n, d))

    return SyntheticInstance(
        c_true=c_true,
        theta_true=theta_true,
        X=FeatureMatrix(X),
    )


def sample_coordinates(n: int, seed: int = 0):
    """Uniform points in the unit square and their pairwise distances.

    Returns ``(coordinates, dist)`` where coordinates has shape (n, 2).
    Coincident points have probability zero; a zero distance would be
    rejected by :func:`~coreglasso.model.pair_bounds` when ``e > 0``.
    """
    _check_nodes(n)
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    return pts, DistanceMatrix(np.sqrt((diff ** 2).sum(axis=-1)))
