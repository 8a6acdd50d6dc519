"""Risk measures over loss distributions.

Value at risk reads a single quantile.  Expected shortfall and the general
spectral measures are weight-averaged quantile integrals; the weight family
decides how strongly the bad tail is emphasised.  Lower partial moments
summarise shortfall below a target on raw samples.
"""

from __future__ import annotations

import numpy as np

from .distributions import QuantileSource, quantile
from .quadrature import QuadratureConfig, _replication, srm_converged, srm_replication
from .errors import _real
from .risk_aversion import WeightSpec

__all__ = ["var", "es", "srm", "exponential_srm", "power_srm", "lpm"]

# expected shortfall's default: one certified value instead of a grid
_ES_CONFIG = QuadratureConfig(scheme="converged", rel_tol=1e-9)


def var(source: QuantileSource, alpha: float) -> float:
    """Value at risk: the loss quantile at confidence alpha."""
    if not 0.0 < _real("alpha", alpha) < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return quantile(source, alpha)


def srm(source: QuantileSource, spec: WeightSpec, config: QuadratureConfig | None = None) -> float:
    """Spectral risk measure: the weight-averaged quantile integral.

    Defaults to the replication scheme on its standard grid; pass a config
    with scheme converged for a value certified to its rel_tol.
    """
    return _srm_values([source], spec, config)[0]


def _srm_values(sources, spec: WeightSpec, config: QuadratureConfig | None = None) -> list[float]:
    """srm of each source in a list, with the scheme chosen once: a
    converged config takes one srm_converged per source, and a replication
    config one pass for all of them, srm_replication's for a single source.
    Raises what the first failing source raises on its own."""
    config = config or QuadratureConfig()
    if config.scheme == "converged":
        return [srm_converged(source, spec, rel_tol=config.rel_tol).value for source in sources]
    if len(sources) == 1:
        return [srm_replication(sources[0], spec, config).value]
    return _replication(sources, spec, config)


def es(source: QuantileSource, alpha: float, config: QuadratureConfig | None = None) -> float:
    """Expected shortfall at confidence alpha: the average loss beyond VaR.

    The config defaults to _ES_CONFIG, the converged scheme at a tighter
    rel_tol than QuadratureConfig's, which is exact up to rounding for
    piecewise-linear sources.  A config passed in is used as it is.
    """
    return srm(source, WeightSpec.es(alpha), config or _ES_CONFIG)


def exponential_srm(source: QuantileSource, a: float, config: QuadratureConfig | None = None) -> float:
    """Spectral risk measure under the exponential weight family."""
    return srm(source, WeightSpec.exponential(a=a), config)


def power_srm(source: QuantileSource, c: float, config: QuadratureConfig | None = None) -> float:
    """Spectral risk measure under the power weight family."""
    return srm(source, WeightSpec.power(c), config)


def lpm(sample, target: float, order: float) -> float:
    """Lower partial moment: mean of max(0, target - x) ** order.

    order 0 counts the fraction of strict shortfalls (0 ** 0 counts as 0),
    order 1 is the mean shortfall, order 2 its second moment, and so on.
    """
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sample must be a flat sequence of losses")
    if arr.size == 0:
        raise ValueError("sample must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample values must be finite")
    target, order = _real("target", target), _real("order", order)
    if np.isnan(target):
        raise ValueError("target must not be nan")
    if not order >= 0:
        raise ValueError("order must be non-negative")
    short = np.maximum(target - arr, 0.0)
    if order == 0:
        return float(np.mean(short > 0.0))
    return float(np.mean(short**order))
