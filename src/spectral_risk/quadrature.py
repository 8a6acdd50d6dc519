"""Quadrature engines for weight-averaged quantile integrals.

Two schemes are provided.  The replication scheme is a composite Simpson
rule on a uniform probability grid with an explicit endpoint policy; it is
simple, deterministic, and converges slowly from below when the integrand
is singular at p = 1.  It evaluates the two endpoints once, as scalars,
and the interior in one pass over the lower half of the grid, in
cache-sized chunks, with each node paired with its mirror 1 - p: a normal
source then needs one inverse-normal evaluation per pair.  The converged
scheme picks its evaluator by what the source is.  A piecewise-linear
source has an exact closed form in the integrated weight mass, so its
only error is float rounding, which it bounds.  A normal source is
integrated in weight-mass space, where the weight leaves the integrand
and every family's p = 1 singularity becomes a mild logarithmic one that
a tanh-sinh rule absorbs; its error is the measured difference between
successive levels.  A Monte Carlo estimator that draws the weight mass
uniformly through the same map gives an independent cross-check, biased
low where the weight holds mass beyond p = 1 - 1e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    QuantileSource,
    _limit_quantile,
    _linear_knots,
    _quantile_pair,
    _standard_form,
    _upper_quantile,
    quantile,
)
from .errors import ConvergenceError, NumericalError, SingularityError
from .risk_aversion import (
    WeightSpec,
    _log_tail_probability,
    _mass_integral,
    weight,
)

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "MonteCarloResult",
    "simpson_composite",
    "srm_replication",
    "srm_converged",
    "srm_monte_carlo",
    "convergence_study",
]

# lower-half nodes per replication chunk: a few arrays of this size stay in cache
_CHUNK = 1 << 16
# draws per Monte Carlo child stream; changing it changes every seeded result
_MC_CHUNK = 1 << 20
_ENDPOINT_POLICIES = ("zero_endpoints", "clip_epsilon")
_SCHEMES = ("replication", "converged")
_EPS = 2.0**-52
# rounding floor of a tanh-sinh level difference, relative to the integral of |f|
_ROUNDING = 8.0 * _EPS
# the tanh-sinh nodes run over s in [-_TS_SPAN, _TS_SPAN]; at the ends they
# lie within 1e-37 of 0 and round to 1
_TS_SPAN = 4.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for the quantile-integral engines.

    n_points must be odd so the grid closes a whole number of Simpson
    panels.  epsilon only matters under the clip_epsilon policy; rel_tol
    only matters under the converged scheme.
    """

    n_points: int = 10_000_001
    endpoint_policy: str = "zero_endpoints"
    epsilon: float = 1e-9
    scheme: str = "replication"
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and at least 3")
        if self.endpoint_policy not in _ENDPOINT_POLICIES:
            raise ValueError(f"unknown endpoint policy {self.endpoint_policy!r}")
        if not 2.0**-54 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (2**-54, 0.5), where 1 - epsilon stays below 1")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value plus how it was obtained.

    For the replication scheme n_points is the grid size and
    estimated_error is None.  For the converged scheme endpoint_policy
    reads open_interval, and estimated_error bounds the float rounding of
    the closed form on a piecewise-linear source (n_points knots) or is
    sd times the difference between the last two tanh-sinh levels on the
    standard normal, which overstates the error of the finer level, plus
    the rounding of mean + sd times it (n_points quantile evaluations).
    """

    value: float
    n_points: int
    scheme: str
    endpoint_policy: str
    estimated_error: float | None = None


@dataclass(frozen=True)
class MonteCarloResult:
    value: float
    stderr: float
    n_draws: int
    seed: int


def _not_finite(x: float) -> NumericalError:
    return NumericalError(f"integrand not finite at node x = {float(x)!r}")


def _chunked_simpson(eval_pair, y_lo: float, y_hi: float, lo: float, hi: float, n: int) -> float:
    """Composite Simpson over n grid points, folded about the midpoint.

    n is odd, so node k and its mirror n - 1 - k carry the same Simpson
    coefficient.  One pass runs over the lower half in cache-sized chunks:
    eval_pair(x, x_mirror) returns the integrand at a chunk's nodes and at
    their mirrors, and the middle node, its own mirror, is counted once.
    Chunks start at odd k, so a chunk's even and odd positions are the
    nodes of coefficient 4 and 2, summed as two strided sums.  The
    endpoint values y_lo and y_hi, at lo and hi, are passed in as scalars.
    """
    for x, y in ((lo, y_lo), (hi, y_hi)):
        if not math.isfinite(y):
            raise _not_finite(x)
    h = (hi - lo) / (n - 1)
    mid = (n - 1) // 2
    total = y_lo + y_hi
    for start in range(1, mid + 1, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, mid + 1), dtype=float)
        x = lo + k * h
        x_mirror = lo + (n - 1 - k) * h
        f, f_mirror = eval_pair(x, x_mirror)
        y = f + f_mirror
        if k[-1] == mid:
            y[-1] *= 0.5
        part = 4.0 * float(y[0::2].sum()) + 2.0 * float(y[1::2].sum())
        if not math.isfinite(part):
            for nodes, values in ((x, f), (x_mirror, f_mirror)):
                bad = ~np.isfinite(values)
                if np.any(bad):
                    raise _not_finite(nodes[np.argmax(bad)])
        total += part
    return total * h / 3.0


def simpson_composite(f, lo: float, hi: float, n_points: int) -> float:
    """Composite Simpson estimate of the integral of f over [lo, hi]."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("n_points must be odd and at least 3")
    if not lo < hi:
        raise ValueError("need lo < hi")

    def values(x):
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise NumericalError("integrand must return one value per node")
        return y

    y_lo, y_hi = (float(y) for y in values(np.array([lo, hi])))
    return _chunked_simpson(
        lambda x, x_mirror: (values(x), values(x_mirror)), y_lo, y_hi, lo, hi, n_points
    )


def _endpoint_integrand(source: QuantileSource, spec: WeightSpec, p: float) -> float:
    """Endpoint integrand under zero_endpoints: the limiting value of
    phi(p) q(p) where that limit is finite, else 0, as where the weight
    diverges (the power family at p = 1)."""
    try:
        v = weight(spec, p) * _limit_quantile(source, p)
    except SingularityError:
        return 0.0
    return v if math.isfinite(v) else 0.0


def srm_replication(
    source: QuantileSource, spec: WeightSpec, config: QuadratureConfig | None = None
) -> QuadratureResult:
    """Spectral risk measure by composite Simpson on a uniform p grid."""
    if config is None:
        config = QuadratureConfig()
    if config.scheme != "replication":
        raise ValueError("config.scheme must be 'replication'")
    n = config.n_points

    def integrand(p, p_mirror):
        q, q_mirror = _quantile_pair(source, p, p_mirror)
        return weight(spec, p) * q, weight(spec, p_mirror) * q_mirror

    if config.endpoint_policy == "clip_epsilon":
        eps = config.epsilon

        def eval_pair(p, p_mirror):
            return integrand(np.maximum(p, eps), np.minimum(p_mirror, 1.0 - eps))

        y_lo, y_hi = (weight(spec, p) * quantile(source, p) for p in (eps, 1.0 - eps))
    else:
        eval_pair = integrand
        y_lo = _endpoint_integrand(source, spec, 0.0)
        y_hi = _endpoint_integrand(source, spec, 1.0)

    value = _chunked_simpson(eval_pair, y_lo, y_hi, 0.0, 1.0, n)
    return QuadratureResult(
        value=value,
        n_points=n,
        scheme="replication",
        endpoint_policy=config.endpoint_policy,
        estimated_error=None,
    )


def _tanh_sinh(f, rel_tol: float, loc=0.0, scale=1.0, max_levels: int = 8) -> tuple[float, float, int]:
    """Integrate f over (0, 1) by the tanh-sinh rule (Takahasi & Mori 1974).

    The node x = 1 / (1 + exp(-pi sinh s)) crowds the nodes double
    exponentially toward both ends, which absorbs integrable endpoint
    singularities of logarithmic type.  Each level halves the step in s
    and evaluates only the new nodes, in one call of f on an array.  The
    rule stops once two successive levels differ by at most rel_tol times
    the integral of |f|.  It returns, and a ConvergenceError carries, loc +
    scale times the integral and scale times that difference plus the
    rounding of the shift; the return also counts the evaluations.
    Nodes that round to 1 are dropped: for an integrand in weight-mass
    space they hold less than 2**-53 of the mass, which the rounding floor
    of the difference covers.
    """
    h = 1.0
    s = np.arange(-_TS_SPAN, _TS_SPAN + 1.0)
    value = abs_value = 0.0
    evals = 0
    for level in range(max_levels + 1):
        u = np.pi * np.sinh(s)
        x = 1.0 / (1.0 + np.exp(-u))
        keep = x < 1.0
        x = x[keep]
        w = np.pi * np.cosh(s[keep]) / (4.0 * np.cosh(0.5 * u[keep]) ** 2)
        y = f(x)
        evals += x.size
        bad = ~np.isfinite(y)
        if np.any(bad):
            raise _not_finite(x[bad][0])
        prev = value
        value = 0.5 * value + h * float(w @ y)
        abs_value = 0.5 * abs_value + h * float(w @ np.abs(y))
        if level:
            err = max(abs(value - prev), _ROUNDING * abs_value)
            # the first two levels are too coarse to agree by anything but luck
            done = level >= 2 and err <= rel_tol * abs_value
            if done:
                break
        h *= 0.5
        s = h * np.arange(1.0 - _TS_SPAN / h, _TS_SPAN / h, 2.0)
    value, err = loc + scale * value, scale * err + _EPS * (abs(loc) + abs(scale * value))
    if not math.isfinite(value):
        raise NumericalError(f"spectral risk measure overflows: {value!r}")
    if done:
        return value, err, evals
    raise ConvergenceError(
        f"tanh-sinh rule did not converge after {max_levels} levels "
        f"(best estimate {value!r}, estimated remaining error {err!r})",
        best_estimate=value,
        error_bound=err,
    )


def _closed_form(x: np.ndarray, spec: WeightSpec, rel_tol: float) -> tuple[float, float]:
    """Spectral risk measure of the piecewise-linear quantile through
    (k / (n - 1), x_k), exactly up to float rounding.

    Integrating by parts against the weight mass M gives
    x_max - sum_k s_k [G(p_{k+1}) - G(p_k)], where s_k is the slope of
    segment k and G the integral of M: each term is the rise of segment k
    times the mean of M over it.  Returns the value and a bound on its
    rounding error, which must lie within rel_tol times the largest |x_k|.
    Each mean is good to a few ulps of 1, the terms are non-negative
    because the x_k are sorted, and np.sum's pairwise tree loses at most a
    few ulps of the total per level; the last term of the bound covers sums
    that fall into the subnormal range.
    """
    n = x.size
    size = max(abs(float(x[0])), abs(float(x[-1])))
    value = float(x[-1])
    err = 0.0
    if n > 1:
        dp = 1.0 / (n - 1)
        # segment k spans upper-tail probabilities [(n - 2 - k) dp, (n - 1 - k) dp]
        mean_mass = _mass_integral(spec, np.arange(n - 2, -1, -1) * dp, dp) / dp
        value -= float(np.sum(np.diff(x) * mean_mass))
        spread = float(x[-1] - x[0])
        err = _EPS * (2.0 * size + (math.log2(n) + 32.0) * spread) + min(spread, n * 2.0**-1073)
    if not err <= rel_tol * size:
        raise ConvergenceError(
            f"closed form rounding bound {err!r} exceeds the tolerance (best estimate {value!r})",
            best_estimate=value,
            error_bound=err,
        )
    return value, err


def srm_converged(
    source: QuantileSource, spec: WeightSpec, rel_tol: float = 1e-6
) -> QuadratureResult:
    """Spectral risk measure to a certified tolerance, chosen by source kind.

    A piecewise-linear source (empirical, uniform, constant) takes the
    exact closed form in the integrated weight mass: n_points is its
    number of knots, and estimated_error bounds the float rounding, which
    must lie within rel_tol times the largest |x_k|.  Every weight
    integrates to one, so normal(mean, sd) gives mean + sd times the
    measure of the standard normal, which is integrated over the remaining
    weight mass w, as the quantile at the upper-tail probability t(w) that
    holds it, by a tanh-sinh rule: n_points counts quantile evaluations,
    and estimated_error is sd times the difference between the last two
    levels, which must lie within rel_tol times sd times the integral of
    |z|, plus the rounding of mean + sd times the value.  Raises
    ConvergenceError, carrying the best estimate and its bound in the
    source's units, when rel_tol is below what either can certify.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    loc, scale, source = _standard_form(source)
    x = _linear_knots(source)
    if x is None:
        value, err, evals = _tanh_sinh(
            lambda w: _upper_quantile(source, _log_tail_probability(spec, w)), rel_tol, loc, scale
        )
    else:
        value, err = _closed_form(x, spec, rel_tol)
        evals = x.size
    return QuadratureResult(
        value=value,
        n_points=evals,
        scheme="converged",
        endpoint_policy="open_interval",
        estimated_error=err,
    )


def srm_monte_carlo(
    source: QuantileSource, spec: WeightSpec, n_draws: int = 1_000_000, seed: int = 0
) -> MonteCarloResult:
    """Monte Carlo spectral risk measure: draw the remaining weight mass w
    uniformly and average the quantiles at p = 1 - t(w), which samples p
    from the weight density.  p is clipped to [1e-16, 1 - 1e-16], which
    biases power weights low by their mass beyond the clip, 2**(-53 c):
    about -12 standard errors at c = 0.1 and a million draws.

    Draws are generated in fixed-size chunks with one child stream per
    chunk, so results are reproducible for a given (seed, n_draws).
    """
    if n_draws < 2:
        raise ValueError("n_draws must be at least 2")
    total = 0.0
    total_sq = 0.0
    done = 0
    stream = 0
    while done < n_draws:
        take = min(_MC_CHUNK, n_draws - done)
        rng = np.random.default_rng([seed, stream])
        p = -np.expm1(_log_tail_probability(spec, rng.random(take)))
        x = quantile(source, np.clip(p, 1e-16, 1.0 - 1e-16))
        total += float(x.sum())
        total_sq += float((x * x).sum())
        done += take
        stream += 1
    mean = total / n_draws
    var = max(total_sq - n_draws * mean * mean, 0.0) / (n_draws - 1)
    return MonteCarloResult(
        value=mean, stderr=math.sqrt(var / n_draws), n_draws=n_draws, seed=seed
    )


def convergence_study(
    source: QuantileSource,
    spec: WeightSpec,
    n_list,
    endpoint_policy: str = "zero_endpoints",
    epsilon: float = 1e-9,
) -> list[tuple[int, float]]:
    """Replication values across grid sizes, for studying convergence."""
    ns = [int(n) for n in n_list]
    if not ns:
        raise ValueError("n_list must not be empty")
    rows = []
    for n in ns:
        config = QuadratureConfig(n_points=n, endpoint_policy=endpoint_policy, epsilon=epsilon)
        rows.append((n, srm_replication(source, spec, config).value))
    return rows
