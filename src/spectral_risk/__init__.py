"""Spectral risk measures built from risk-aversion weight functions.

A spectral risk measure averages loss quantiles with a non-negative,
normalised, non-decreasing weight over cumulative probability, so the
weight function is exactly where a user's risk aversion enters.  The
package provides the standard weight families, quantile sources, the
quadrature engines that join them, and sweep and validation utilities.

Each module's __all__ is its public surface, and the package re-exports
exactly those names.
"""

from . import analysis, distributions, errors, measures, quadrature, risk_aversion
from .analysis import *
from .distributions import *
from .errors import *
from .measures import *
from .quadrature import *
from .risk_aversion import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, distributions, errors, measures, quadrature, risk_aversion)
    for name in module.__all__
]
