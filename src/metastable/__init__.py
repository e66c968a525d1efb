"""Transition times and capacities for gradient diffusions with degenerate saddles.

The package computes sharp mean-transition-time prefactors for the diffusion
``dx = -grad V(x) dt + sqrt(2 eps) dW`` across quadratic and degenerate
saddles, classifies the saddles, and cross-checks every closed form by
independent capacity quadrature and Monte Carlo first-passage sampling.
"""

from . import capacity, crossover, landscape, potentials, rates, sampling
from .potentials import *
from .crossover import *
from .landscape import *
from .rates import *
from .capacity import *
from .sampling import *

# each module's __all__ is the one declaration of what it exports
__all__ = [
    name
    for module in (potentials, crossover, landscape, rates, capacity, sampling)
    for name in module.__all__
]

__version__ = "0.1.0"
