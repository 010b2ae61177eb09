"""Expected best-out-of-n performance estimation for stochastic training runs.

Training the same architecture twice gives two different scores, and the
best score out of an unreported number of runs is not a comparable quantity.
This package computes the expected test performance of the best-validation
model out of n runs, normalized to a stated n: empirically from pools of
(validation, test) results or through the closed form of a bivariate-normal
fit, with resampling-based confidence intervals throughout.
"""

from .distributions import *
from .errors import *
from .estimators import *
from .resampling import *

__version__ = "0.1.0"

# A public name is listed once, in its own module's __all__.
__all__ = ["__version__", *distributions.__all__, *estimators.__all__, *resampling.__all__,
           *errors.__all__]
