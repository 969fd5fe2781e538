"""coreglasso: sparse Gaussian graphical models with core-periphery structure.

Jointly learns a sparse precision matrix and per-node core scores from
node attributes (and optional spatial distances) by block coordinate
ascent: a weighted graphical lasso step in the graph and a linear
program in the scores.  Includes a generative sampler, graph-input
baselines, and an evaluation harness.

Each module republished below states its public names once, in its own
``__all__``: a name listed there is a package name.  ``io``, ``simplex``
and ``cli`` are not republished.
"""

__version__ = "0.1.0"

from . import baselines, bca, corescore, errors, glasso, metrics, model, synth
from .baselines import *
from .bca import *
from .corescore import *
from .errors import *
from .glasso import *
from .metrics import *
from .model import *
from .synth import *

__all__ = ["__version__", *baselines.__all__, *bca.__all__, *corescore.__all__, *errors.__all__,
           *glasso.__all__, *metrics.__all__, *model.__all__, *synth.__all__]
