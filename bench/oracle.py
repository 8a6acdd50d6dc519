"""Fixed references the benchmark checks answers against.

Nothing here imports the package under test.  Standard normal references
are pinned numbers; a normal(mean, sd) source shifts and scales them,
because every weight integrates to one.  Empirical sources are checked
against an exact evaluator for piecewise-linear quantile functions.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Replication grid values at n = 10,000,001 for the standard normal, with
# the absolute tolerances the acceptance suite pins them at (criteria 1-2).
REPLICATION_EXPONENTIAL = {1.0: 0.2781, 5.0: 1.0816, 25.0: 1.9549, 100.0: 2.5055}
REPLICATION_EXPONENTIAL_TOL = 1e-3
REPLICATION_POWER = {0.5: (0.7026, 1e-2), 0.9: (0.0968, 2e-3)}
REPLICATION_ES_TOL = 1e-3

# Converged values for the standard normal, independent of the package's
# own quadrature; the converged scheme must land within CONVERGED_TOL of
# them per unit of scale, as the unit tests require at rel_tol 1e-9.
CONVERGED_EXPONENTIAL = {
    1.0: 0.278064026759,
    5.0: 1.081568672554,
    25.0: 1.954911588653,
    100.0: 2.505578999399,
}
CONVERGED_POWER = {0.1: 3.263930690230, 0.5: 0.704307219811, 0.9: 0.096791160789}
CONVERGED_TOL = 5e-9

# Monte Carlo must agree with the converged value within this many of its
# own standard errors, as in the unit tests.
MC_Z_LIMIT = 5.0

# Monte Carlo clips p at 1 - 1e-16, which rounds to 1 - 2**-53: every draw
# in the top MC_CLIP_TAIL of p is evaluated at the clip point.
MC_CLIP_TAIL = 2.0 ** -53

# Subadditivity slack, as in acceptance criterion 7.
SUBADDITIVITY_SLACK = 1e-9


def normal_es(alpha: float) -> float:
    """Expected shortfall of the standard normal: phi(z_alpha) / (1 - alpha)."""
    z = NormalDist().inv_cdf(alpha)
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / (1.0 - alpha)


def power_clip_bias(c: float, panels: int = 2000) -> float:
    """How far the clip at p = 1 - MC_CLIP_TAIL pulls the power-weight
    measure of the standard normal down, a known defect of the package's
    Monte Carlo.

    With u = 1 - p and z(u) the upper-tail quantile, the loss is the
    integral over u < eps of (z(u) - z(eps)) c u^(c-1).  Substituting
    u = eps exp(-s / c) turns it into eps^c times the integral over s > 0
    of (z(eps exp(-s / c)) - z(eps)) exp(-s), whose integrand is smooth;
    composite Simpson runs until exp(-s) or the double range ends.
    """
    inv_cdf = NormalDist().inv_cdf
    eps = MC_CLIP_TAIL
    z_eps = -inv_cdf(eps)
    s_max = min(60.0, c * math.log(eps / 1e-300))
    h = s_max / panels

    def f(s):
        return (-inv_cdf(eps * math.exp(-s / c)) - z_eps) * math.exp(-s)

    total = f(0.0) + f(s_max) + sum((4.0 if i % 2 else 2.0) * f(i * h) for i in range(1, panels))
    return eps ** c * total * h / 3.0


def exponential_srm_exact(sorted_samples, a: float) -> float:
    """Exponential-weight spectral measure of an empirical source, exactly.

    The quantile interpolates linearly between order statistics x_k at
    p_k = k / (n - 1), so integrating by parts against the weight mass M
    gives x_max - sum_k (x_{k+1} - x_k) * mean of M over [p_k, p_{k+1}],
    and M has an elementary integral.  The segment means use expm1 so the
    short segments of large samples do not cancel.
    """
    x = np.asarray(sorted_samples, dtype=float)
    n = x.size
    if n == 1:
        return float(x[0])
    dp = 1.0 / (n - 1)
    one_minus_lo = (n - 1 - np.arange(n - 1)) * dp
    grow = math.expm1(a * dp) / (a * dp)
    mean_mass = (np.exp(-a * one_minus_lo) * grow - math.exp(-a)) / -math.expm1(-a)
    return float(x[-1] - np.diff(x) @ mean_mass)
