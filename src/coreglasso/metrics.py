"""Evaluation protocol: score-based ordering, ideal block-model distance,
method comparison tables, support recovery, and group comparison.

Inputs are checked by the rules of :mod:`coreglasso.model`: every matrix
must be square, non-empty, finite and symmetric, and every raw score
vector 1-D and finite with one value per node, else :class:`InputError`.
Each public function checks its inputs once; the private helpers below
take checked arrays.
"""

import numpy as np

from dataclasses import dataclass

from .errors import InputError
from .model import Precision, _check_setting, _check_square_symmetric, _scores

__all__ = [
    "OrderedGraph",
    "order_by_scores",
    "ideal_block_distance",
    "compare_methods",
    "support_recovery",
    "group_compare",
]


@dataclass(frozen=True, eq=False)
class OrderedGraph:
    """A matrix reordered by descending core score, with the permutation."""

    matrix: np.ndarray
    permutation: np.ndarray


def _truth_estimate(truth, estimate):
    """The one check of a (truth, estimate) pair: two matrices of one shape."""
    t = _check_square_symmetric(truth, "truth")
    e = _check_square_symmetric(estimate, "estimate")
    if e.shape != t.shape:
        raise InputError(f"estimate is {e.shape[0]}x{e.shape[0]}, "
                         f"truth is {t.shape[0]}x{t.shape[0]}")
    return t, e


def _core_size(t, n: int) -> int:
    """The one core-size rule: ``t`` None means floor(N/4), at least 1."""
    return max(1, n // 4) if t is None else t


def _order(v) -> np.ndarray:
    """The one ordering rule: indices by descending value, ties by index."""
    return np.argsort(-v, kind="stable")


def _block_distance(m, t) -> float:
    """The one ideal-block distance, of a checked matrix; ``t`` in [1, N]."""
    n = m.shape[0]
    if not 1 <= t <= n:
        raise InputError(f"core size t={t} outside [1, {n}]")
    _check_setting(t, "t", "count")
    ideal = np.zeros((n, n))
    ideal[:t, :t] = 1.0
    return float(((m - ideal) ** 2).sum())


def order_by_scores(matrix, c) -> OrderedGraph:
    """Permute rows and columns by descending score, ties by index."""
    m = _check_square_symmetric(matrix, "matrix")
    perm = _order(_scores(c, n=m.shape[0]))
    return OrderedGraph(matrix=m[np.ix_(perm, perm)], permutation=perm)


def ideal_block_distance(ordered, t: int) -> float:
    """Squared Frobenius distance to the ideal core-periphery block model.

    The ideal model is an all-ones t-by-t upper-left block (diagonal
    included) and zeros elsewhere.
    """
    return _block_distance(_check_square_symmetric(
        ordered.matrix if isinstance(ordered, OrderedGraph) else ordered, "matrix"), t)


def compare_methods(A_truth, theta_est, scores_by_method: dict,
                    t: int | None = None) -> list[dict]:
    """Block-model distances of the truth and the estimate per method.

    For every method the N x N ground-truth matrix and the estimated
    entry magnitudes (also N x N) are each reordered by that method's
    scores and compared against the ideal block model with core size
    ``t`` (default ``floor(N/4)``, at least 1).  The estimate is measured
    as given: pass its :func:`~coreglasso.glasso.support` to score the
    learnt graph rather than its weights.  Both matrices must have one shape,
    and every score vector must be finite, 1-D and of length N.  Each
    matrix and each score vector is checked once.

    Returns a list of row dicts ``{method, dist_truth, dist_estimate}``
    in insertion order of ``scores_by_method``.
    """
    if not scores_by_method:
        raise InputError("no score vectors supplied")
    truth, est = _truth_estimate(
        A_truth, theta_est.values if isinstance(theta_est, Precision) else theta_est)
    est = np.abs(est)
    n = truth.shape[0]
    t_core = _core_size(t, n)

    rows = []
    for method, scores in scores_by_method.items():
        perm = _order(_scores(scores, f"{method!r} scores", n))
        rows.append({
            "method": str(method),
            "dist_truth": _block_distance(truth[np.ix_(perm, perm)], t_core),
            "dist_estimate": _block_distance(est[np.ix_(perm, perm)], t_core),
        })
    return rows


def support_recovery(a_true, a_est) -> tuple[float, float, float]:
    """Precision, recall and F1 of the estimated edge set over pairs i < j.

    Both matrices must have one shape.  Empty denominators resolve to 0
    by convention.
    """
    t, e = _truth_estimate(a_true, a_est)
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

    Every subject's finite 1-D score vector is l1-normalized (divided by
    its sum, the subject's mass budget) before averaging within each group.
    Returns ``(diff, top_k)``: diff is ``|mean_a - mean_b|``, top_k the
    indices of the ``min(k, N)`` largest differences, ties by index.
    """
    def normalized_mean(group, name):
        if not group:
            raise InputError(f"group {name} is empty")
        vecs = []
        for s in group:
            v = _scores(s, f"group {name} scores")
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
    _check_setting(k, "k", "count")
    diff = np.abs(mean_a - mean_b)
    top = _order(diff)[:k]
    return diff, top
