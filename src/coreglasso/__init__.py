"""coreglasso: sparse Gaussian graphical models with core-periphery structure.

Jointly learns a sparse precision matrix and per-node core scores from
node attributes (and optional spatial distances) by block coordinate
ascent: a weighted graphical lasso step in the graph and a linear
program in the scores.  Includes a generative sampler, graph-input
baselines, and an evaluation harness.
"""

__version__ = "0.1.0"

from .baselines import BaselineScores, kcore_scores, minres_residual, minres_scores
from .bca import FitResult, fit, fit_graph_given_scores
from .corescore import LpResult, core_score_lp, max_core_mass, scores_from_graph
from .errors import (
    ConfigError,
    CoreglassoError,
    InfeasibleError,
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
)
from .glasso import GlassoResult, kkt_residual, support, weighted_glasso
from .metrics import (
    OrderedGraph,
    compare_methods,
    group_compare,
    ideal_block_distance,
    order_by_scores,
    support_recovery,
)
from .model import (
    CoreScores,
    DistanceMatrix,
    FeatureMatrix,
    Hyperparams,
    Precision,
    compute_weights,
    empirical_covariance,
    joint_objective,
)
from .synth import SyntheticInstance, planted_scores, sample_coordinates, sample_instance

__all__ = [
    "__version__",
    "BaselineScores",
    "ConfigError",
    "CoreScores",
    "CoreglassoError",
    "DistanceMatrix",
    "FeatureMatrix",
    "FitResult",
    "GlassoResult",
    "Hyperparams",
    "InfeasibleError",
    "InputError",
    "LpResult",
    "NotPositiveDefiniteError",
    "NumericalError",
    "OrderedGraph",
    "Precision",
    "SyntheticInstance",
    "compare_methods",
    "compute_weights",
    "core_score_lp",
    "empirical_covariance",
    "fit",
    "fit_graph_given_scores",
    "group_compare",
    "ideal_block_distance",
    "joint_objective",
    "kcore_scores",
    "kkt_residual",
    "max_core_mass",
    "minres_residual",
    "minres_scores",
    "order_by_scores",
    "planted_scores",
    "sample_coordinates",
    "sample_instance",
    "scores_from_graph",
    "support",
    "support_recovery",
    "weighted_glasso",
]
