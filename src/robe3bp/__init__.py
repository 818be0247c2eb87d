"""Triangular equilibrium points of Robe's restricted three-body problem
with an oblate first primary: location, linear stability, and nonlinear
verification by direct integration.

The public names are those of each module's ``__all__``.
"""

from . import dynamics, equilibria, errors, model, stability
from .errors import *
from .model import *
from .equilibria import *
from .stability import *
from .dynamics import *

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (errors, model, equilibria, stability, dynamics) for name in module.__all__
)
