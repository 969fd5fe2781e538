"""Evaluation protocol: score-based ordering, ideal block-model distance,
method comparison tables, support recovery, and group comparison.
"""

import numpy as np

from dataclasses import dataclass

from .errors import InputError
from .glasso import support
from .model import CoreScores

__all__ = [
    "OrderedGraph",
    "order_by_scores",
    "ideal_block_distance",
    "compare_methods",
    "support_recovery",
    "group_compare",
]


@dataclass(frozen=True)
class OrderedGraph:
    """A matrix reordered by descending core score, with the permutation."""

    matrix: np.ndarray
    permutation: np.ndarray


def _square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"matrix must be square, got shape {m.shape}")
    return m


def order_by_scores(matrix, c) -> OrderedGraph:
    """Permute rows and columns by descending score, ties by index."""
    m = _square(matrix)
    cv = c.values if isinstance(c, CoreScores) else np.asarray(c, dtype=float)
    if cv.shape[0] != m.shape[0]:
        raise InputError(
            f"{cv.shape[0]} scores for a {m.shape[0]}-node matrix"
        )
    perm = np.argsort(-cv, kind="stable")
    return OrderedGraph(matrix=m[np.ix_(perm, perm)], permutation=perm)


def _ideal_block(n: int, t: int) -> np.ndarray:
    ideal = np.zeros((n, n))
    ideal[:t, :t] = 1.0
    return ideal


def ideal_block_distance(ordered, t: int) -> float:
    """Squared Frobenius distance to the ideal core-periphery block model.

    The ideal model is an all-ones t-by-t upper-left block (diagonal
    included) and zeros elsewhere.
    """
    m = _square(ordered.matrix if isinstance(ordered, OrderedGraph) else ordered)
    n = m.shape[0]
    if not 1 <= t <= n:
        raise InputError(f"core size t={t} outside [1, {n}]")
    return float(((m - _ideal_block(n, t)) ** 2).sum())


def compare_methods(A_truth, theta_est, scores_by_method: dict,
                    t: int | None = None, binarize_estimate: bool = False,
                    threshold: float = 0.0) -> list[dict]:
    """Block-model distances of the truth and the estimate per method.

    For every method the ground-truth matrix and the estimated entry
    magnitudes are each reordered by that method's scores and compared
    against the ideal block model with core size ``t`` (default
    ``floor(N/4)``).  Either matrix may be None, in which case its
    column is None.  ``binarize_estimate`` replaces the estimate by its
    :func:`~coreglasso.glasso.support` at ``threshold`` before measuring.

    Returns a list of row dicts ``{method, dist_truth, dist_estimate}``
    in insertion order of ``scores_by_method``.
    """
    if not scores_by_method:
        raise InputError("no score vectors supplied")
    truth = None if A_truth is None else np.asarray(A_truth, dtype=float)
    est = None
    if theta_est is not None:
        est = np.abs(np.asarray(
            theta_est.values if hasattr(theta_est, "values") else theta_est,
            dtype=float,
        ))
        if binarize_estimate:
            est = support(est, threshold)
    sizes = [m.shape[0] for m in (truth, est) if m is not None]
    if not sizes:
        raise InputError("need at least one of A_truth or theta_est")
    n = sizes[0]
    if any(sz != n for sz in sizes):
        raise InputError("truth and estimate dimensions differ")
    t_core = max(1, n // 4) if t is None else int(t)

    rows = []
    for method, scores in scores_by_method.items():
        cv = scores.values if isinstance(scores, CoreScores) else np.asarray(scores, float)
        if cv.shape[0] != n:
            raise InputError(f"scores for {method!r} have length {cv.shape[0]}, expected {n}")
        row = {"method": str(method), "dist_truth": None, "dist_estimate": None}
        if truth is not None:
            row["dist_truth"] = ideal_block_distance(order_by_scores(truth, cv), t_core)
        if est is not None:
            row["dist_estimate"] = ideal_block_distance(order_by_scores(est, cv), t_core)
        rows.append(row)
    return rows


def support_recovery(a_true, a_est) -> tuple[float, float, float]:
    """Precision, recall and F1 of the estimated edge set over pairs i < j.

    Empty denominators resolve to 0 by convention.
    """
    t = np.asarray(a_true)
    e = np.asarray(a_est)
    if t.shape != e.shape or t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InputError("supports must be square matrices of equal shape")
    iu = np.triu_indices(t.shape[0], k=1)
    tv = t[iu] != 0
    ev = e[iu] != 0
    tp = int(np.sum(tv & ev))
    fp = int(np.sum(~tv & ev))
    fn = int(np.sum(tv & ~ev))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def group_compare(scores_a, scores_b, k: int = 10):
    """Entrywise difference of the normalized mean score vectors.

    Every subject's scores are l1-normalized (divided by their sum, the
    subject's mass budget) before averaging within each group.  Returns
    ``(diff, top_k)`` where diff is ``|mean_a - mean_b|`` and top_k holds
    the indices of the k largest differences, ties broken by index.
    """
    def normalized_mean(group, name):
        if not group:
            raise InputError(f"group {name} is empty")
        vecs = []
        for s in group:
            v = s.values if isinstance(s, CoreScores) else np.asarray(s, dtype=float)
            total = float(v.sum())
            if total <= 0:
                raise InputError(f"group {name} contains a zero-mass score vector")
            vecs.append(v / total)
        lengths = {v.shape[0] for v in vecs}
        if len(lengths) != 1:
            raise InputError(f"group {name} has mismatched score lengths")
        return np.mean(vecs, axis=0)

    mean_a = normalized_mean(scores_a, "a")
    mean_b = normalized_mean(scores_b, "b")
    if mean_a.shape != mean_b.shape:
        raise InputError("groups have different score lengths")
    n = mean_a.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"k={k} outside [1, {n}]")
    diff = np.abs(mean_a - mean_b)
    top = np.argsort(-diff, kind="stable")[:k]
    return diff, top
