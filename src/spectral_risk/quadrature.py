"""Quadrature engines for weight-averaged quantile integrals.

Two schemes are provided.  The replication scheme, srm_replication, is
the package's one composite Simpson rule, on a uniform probability grid
with an explicit endpoint policy; it is simple, deterministic, and
converges slowly from below when the integrand is singular at p = 1.  It
evaluates the two endpoints once, as scalars, and the interior in one
pass over the lower half of the grid, with each node paired with its
mirror 1 - p: a normal source then needs one inverse-normal evaluation
per pair.  Each chunk of the pass is held in rows of the thread's
scratch, distributions._SCRATCH, and weighed without the weight's range
check, and the pass stops where the weight turns zero for good.  One pass
serves several sources, as the subadditivity stress's three positions:
each chunk's nodes and weights, and the knot lookup of samples of one
size, are formed once, and only the quantile gathers and the Simpson sums
run per source, so each value keeps the bits of its own pass.  The
converged scheme picks its evaluator by what the source is.  A
piecewise-linear source has an exact closed form in the integrated
weight mass, so its only error is float rounding, which it bounds.  A
normal source is integrated in weight-mass space, where the weight
leaves the integrand and every family's p = 1 singularity becomes a mild
logarithmic one that a tanh-sinh rule absorbs; its error is the measured
difference between successive levels.  Monte Carlo draws the weight
mass uniformly through the same map, integrates the standard law by the
same _upper_quantile and rescales: a cross-check, biased low where the
weight holds mass beyond t = 2**-53.  It draws one seeded stream in
pieces of the replication chunk size and adds their sums in draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    _BLOCK,
    _SCRATCH,
    QuantileSource,
    _limit_quantile,
    _quantile_pair,
    _standard_form,
    _upper_quantile,
    quantile,
)
from .errors import ConvergenceError, NumericalError, _instance, _integer, _real, _seed
from .risk_aversion import WeightSpec, _log_tail_probability, _mass_integral, _weight, _zero_below

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "MonteCarloResult",
    "srm_replication",
    "srm_converged",
    "srm_monte_carlo",
    "convergence_study",
]

# integer-valued offsets 0 .. _BLOCK - 1, from which each replication chunk's
# node indices are formed exactly, as np.arange would form them
_OFFSETS = np.arange(_BLOCK, dtype=float)
_OFFSETS.flags.writeable = False
_ENDPOINT_POLICIES = ("zero_endpoints", "clip_epsilon")
_SCHEMES = ("replication", "converged")
_EPS = 2.0**-52
# rounding floor of a tanh-sinh level difference, relative to the integral of |f|
_ROUNDING = 8.0 * _EPS
# the tanh-sinh nodes run over s in [-_TS_SPAN, _TS_SPAN]; at the ends they
# lie within 1e-37 of 0 and round to 1
_TS_SPAN = 4.0
_TS_DEPTH = 8  # the tanh-sinh rule's finest level
_LOG_T_FLOOR = math.log(2.0**-53)  # Monte Carlo's floor on log t, whose bias bench pins


def _rel_tol(rel_tol):
    """rel_tol as a float, for a positive real number."""
    rel_tol = _real("rel_tol", rel_tol)
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    return rel_tol


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
        object.__setattr__(self, "n_points", _integer("n_points", self.n_points))
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and at least 3")
        if self.endpoint_policy not in _ENDPOINT_POLICIES:
            raise ValueError(f"unknown endpoint policy {self.endpoint_policy!r}")
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon))
        if not 2.0**-54 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (2**-54, 0.5), where 1 - epsilon stays below 1")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "rel_tol", _rel_tol(self.rel_tol))


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value plus how it was obtained.

    For the replication scheme n_points is the grid size and
    estimated_error is None.  For the converged scheme endpoint_policy
    reads open_interval, and estimated_error bounds the float rounding of
    the closed form on a piecewise-linear source (n_points knots) or is
    sd times the difference between the last two tanh-sinh levels on the
    standard normal, which overstates the error of the finer level, plus
    the rounding of mean + sd times it (n_points nodes in the levels summed).
    """

    value: float
    n_points: int
    scheme: str
    endpoint_policy: str
    estimated_error: float | None = None


@dataclass(frozen=True)
class MonteCarloResult:
    """A Monte Carlo estimate; value and stderr are in the source's units."""

    value: float
    stderr: float
    n_draws: int
    seed: int


def _not_finite(x: float) -> NumericalError:
    return NumericalError(f"integrand not finite at node x = {float(x)!r}")


def _endpoint_integrand(source: QuantileSource, w: float, p: float) -> float:
    """The integrand at an end p of the grid, for the weight w there: w q(p)
    for p inside (0, 1), where clip_epsilon puts the ends, and at p = 0 or
    1 the limit of phi(p) q(p) where it is finite, else 0, as where the
    weight diverges (the power family at p = 1, where the unchecked weight
    is +inf)."""
    if 0.0 < p < 1.0:
        return w * quantile(source, p)
    v = w * _limit_quantile(source, p)
    return v if math.isfinite(v) else 0.0


def srm_replication(
    source: QuantileSource, spec: WeightSpec, config: QuadratureConfig | None = None
) -> QuadratureResult:
    """Spectral risk measure by composite Simpson on a uniform p grid.

    The grid's n nodes are odd in number, so node k and its mirror
    n - 1 - k carry the same Simpson coefficient.  One pass runs over the
    lower half in chunks of _BLOCK nodes, which start at odd k, so a
    chunk's even and odd positions are the nodes of coefficient 4 and 2,
    summed as two strided sums; the middle node, its own mirror, is counted
    once.  Each special case has one rule.  Ends: the two ends, 0 and 1,
    or epsilon and 1 - epsilon under clip_epsilon, take
    _endpoint_integrand, and the policy otherwise only clips the nodes, in
    place, so that an error names the node evaluated.  Zero-weight stop:
    the pass stops at the first chunk whose largest mirror, clipped to the
    last end, lies below _zero_below(spec), where the weight is zero on and
    after it, and adds the +0.0 they sum to.  Failures: a grid whose first
    chunk would stop there weighs no interior node, and raises
    NumericalError before any source is evaluated; the pass raises at the
    first integrand value that is not finite, naming its node, and raises
    NumericalError as well when finite values sum past a double.
    This is the one-source case of _replication, which evaluates several
    sources in one pass.
    """
    config = config or QuadratureConfig()
    (value,) = _replication([source], spec, config)
    return QuadratureResult(
        value=value,
        n_points=config.n_points,
        scheme="replication",
        endpoint_policy=config.endpoint_policy,
        estimated_error=None,
    )


def _replication(sources, spec: WeightSpec, config: QuadratureConfig) -> list[float]:
    """srm_replication's value for each of a list of sources, from one pass.

    Each chunk's nodes, mirrors and weights are formed once for all the
    sources, and the knot lookup of empirical sources once for each run of
    them with one sample count; then each source gathers its quantiles,
    forms w q in its quantile rows, so that w serves the next source, and
    adds its chunk sum to its own total.  Every value therefore has the
    bits of the source's own pass.  The pass raises at the first failure
    it meets, at an end or a node of source k, but first runs each source
    before k alone, so that one which would fail later in the grid raises
    its own error: the error raised is the one that the first failing
    source raises on its own.
    """
    _instance("spec", spec, WeightSpec)
    if config.scheme != "replication":
        raise ValueError("config.scheme must be 'replication'")
    n = config.n_points
    zero_below = _zero_below(spec)
    clip = config.endpoint_policy == "clip_epsilon"
    eps = config.epsilon
    ends = (eps, 1.0 - eps) if clip else (0.0, 1.0)
    h = 1.0 / (n - 1)
    top = min((n - 2) * h, ends[1])  # the largest interior node the pass weighs
    if top < zero_below:
        raise NumericalError(
            f"the {n:,}-node grid weighs no interior node: its largest, p = {top!r}, lies "
            f"below {zero_below!r}, below which the weight is zero; try the converged scheme"
        )
    with np.errstate(divide="ignore"):  # the power weight's 0 ** (c - 1) at p = 1
        end_weights = [float(_weight(spec, np.array(p))) for p in ends]

    def fail(k, p):
        error = _not_finite(p)
        # these runs overwrite the scratch rows, as this pass never resumes
        for source in sources[:k]:
            _replication([source], spec, config)
        raise error

    totals = []
    for k, source in enumerate(sources):
        ys = [_endpoint_integrand(source, w, p) for p, w in zip(ends, end_weights)]
        for p, y in zip(ends, ys):
            if not math.isfinite(y):
                fail(k, p)
        totals.append(ys[0] + ys[1])
    mid = (n - 1) // 2
    for start in range(1, mid + 1, _BLOCK):
        if min((n - 1 - start) * h, ends[1]) < zero_below:
            totals = [total + 0.0 for total in totals]  # turns a total of -0.0 into +0.0
            break
        stop = min(start + _BLOCK, mid + 1)
        size = stop - start
        p, p_mirror, y, w, w_mirror, q, q_mirror = _SCRATCH.chunk[:, :size]
        np.add(_OFFSETS[:size], start, out=p)
        np.subtract(n - 1, p, out=p_mirror)
        p *= h
        p_mirror *= h
        if clip:
            np.maximum(p, eps, out=p)
            np.minimum(p_mirror, 1.0 - eps, out=p_mirror)
        _weight(spec, p, w)
        _weight(spec, p_mirror, w_mirror)
        looked_up = 0
        for k, source in enumerate(sources):
            looked_up = _quantile_pair(source, p, p_mirror, q, q_mirror, y, looked_up)
            with np.errstate(over="ignore"):  # an overflow is named or raised below
                np.multiply(w, q, out=q)
                np.multiply(w_mirror, q_mirror, out=q_mirror)
                np.add(q, q_mirror, out=y)
                if stop == mid + 1:
                    y[-1] *= 0.5
                part = 4.0 * float(y[0::2].sum()) + 2.0 * float(y[1::2].sum())
            if not math.isfinite(part):
                for nodes, values in ((p, q), (p_mirror, q_mirror)):
                    if not np.isfinite(values).all():
                        fail(k, nodes[np.argmax(~np.isfinite(values))])
            totals[k] += part
    values = []
    for total in totals:
        value = total * h / 3.0
        if not math.isfinite(value):
            raise NumericalError(
                f"the {n:,}-node Simpson sum overflows a double; try the converged scheme"
            )
        values.append(value)
    return values


def _tanh_sinh_table():
    """_tanh_sinh's nodes and weights, read-only, level after level, and
    the index at which each level's nodes end."""
    levels = [np.arange(-_TS_SPAN, _TS_SPAN + 1.0)] + [
        h * np.arange(1.0 - _TS_SPAN / h, _TS_SPAN / h, 2.0) for h in 0.5 ** np.arange(1.0, _TS_DEPTH + 1)
    ]
    s = np.concatenate(levels)
    u = np.pi * np.sinh(s)
    x = 1.0 / (1.0 + np.exp(-u))
    keep = x < 1.0
    w = np.pi * np.cosh(s) / (4.0 * np.cosh(0.5 * u) ** 2)
    ends = np.cumsum(keep)[np.cumsum([level.size for level in levels]) - 1]
    x, w = x[keep], w[keep]
    x.flags.writeable = w.flags.writeable = False
    return x, w, tuple(ends.tolist())


# levels 0 .. _TS_DEPTH, built once: 8, 7, 14, 29, 57, 114, 229, 458 and 916 nodes
_TS_NODES, _TS_WEIGHTS, _TS_ENDS = _tanh_sinh_table()


def _tanh_sinh(y, rel_tol: float, loc=0.0, scale=1.0) -> tuple[float, float, int]:
    """Integrate over (0, 1) by the tanh-sinh rule (Takahasi & Mori 1974),
    given y, the integrand's values at the nodes of _TS_NODES.

    The node x = 1 / (1 + exp(-pi sinh s)), of weight dx/ds, crowds the
    nodes double exponentially toward both ends, which absorbs integrable
    endpoint singularities of logarithmic type.  Level 0 steps s by 1 over
    [-_TS_SPAN, _TS_SPAN], and each later level halves the step in s and
    adds the nodes midway between the earlier ones.  The rule sums level
    after level and stops once two successive levels differ by at most
    rel_tol times the integral of |y|.  It returns, and a
    ConvergenceError carries, loc + scale times the integral and scale
    times that difference plus the rounding of the shift; the return also
    counts the nodes of the levels summed.  A value that is not finite
    raises NumericalError naming its node before any level is summed.
    Nodes that round to 1 are dropped: for an integrand in weight-mass
    space they hold less than 2**-53 of the mass, which the rounding floor
    of the difference covers.
    """
    finite = np.isfinite(y)
    if not finite.all():
        raise _not_finite(_TS_NODES[np.argmin(finite)])
    h = 1.0
    value = abs_value = 0.0
    start = 0
    for level, end in enumerate(_TS_ENDS):
        w = _TS_WEIGHTS[start:end]
        prev = value
        value = 0.5 * value + h * float(w @ y[start:end])
        abs_value = 0.5 * abs_value + h * float(w @ np.abs(y[start:end]))
        if level:
            err = max(abs(value - prev), _ROUNDING * abs_value)
            # the first two levels are too coarse to agree by anything but luck
            done = level >= 2 and err <= rel_tol * abs_value
            if done:
                break
        h *= 0.5
        start = end
    value, err = loc + scale * value, scale * err + _EPS * (abs(loc) + abs(scale * value))
    if not math.isfinite(value):
        raise NumericalError(f"spectral risk measure overflows: {value!r}")
    if done:
        return value, err, end
    raise ConvergenceError(
        f"tanh-sinh rule did not converge after {level} levels "
        f"(best estimate {value!r}, estimated remaining error {err!r})",
        best_estimate=value,
        error_bound=err,
    )


def _closed_form(x: np.ndarray, steps: np.ndarray, spec: WeightSpec,
                 rel_tol: float) -> tuple[float, float, int]:
    """Spectral risk measure of the piecewise-linear quantile through
    (k / (n - 1), x_k), whose rises x_{k+1} - x_k are steps, exactly up to
    float rounding.

    Integrating by parts against the weight mass M gives
    x_max - sum_k s_k [G(p_{k+1}) - G(p_k)], where s_k is the slope of
    segment k and G the integral of M: each term is the rise of segment k
    times the mean of M over it.  Returns the value, a bound on its
    rounding error, which must lie within rel_tol times the largest |x_k|,
    and n.
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
        value -= float(np.sum(steps * mean_mass))
        spread = float(x[-1] - x[0])
        # _EPS scales spread first: spread times the level count can overflow
        err = _EPS * 2.0 * size + (math.log2(n) + 32.0) * (_EPS * spread)
        err += min(spread, n * 2.0**-1073)
    if err > rel_tol * size:  # a zero bound passes, even at rel_tol = inf
        raise ConvergenceError(
            f"closed form rounding bound {err!r} exceeds the tolerance (best estimate {value!r})",
            best_estimate=value,
            error_bound=err,
        )
    return value, err, n


def srm_converged(
    source: QuantileSource, spec: WeightSpec, rel_tol: float = QuadratureConfig.rel_tol
) -> QuadratureResult:
    """Spectral risk measure to a certified tolerance, chosen by source kind.

    A piecewise-linear source (empirical, uniform, constant) takes the
    exact closed form in the integrated weight mass: n_points is its
    number of knots, and estimated_error bounds the float rounding, which
    must lie within rel_tol times the largest |x_k|.  Every weight
    integrates to one, so normal(mean, sd) gives mean + sd times the
    measure of the standard normal, which is integrated over the remaining
    weight mass w, as the quantile at the upper-tail probability t(w) that
    holds it, by a tanh-sinh rule, in one call of the quantile layer on all
    1,832 nodes of its table: n_points counts those of the levels summed,
    and estimated_error is sd times the difference between the last two
    levels, which must lie within rel_tol times sd times the integral of
    |z|, plus the rounding of mean + sd times the value.  Raises
    ConvergenceError, carrying the best estimate and its bound in the
    source's units, when rel_tol is below what either can certify.
    """
    _instance("spec", spec, WeightSpec)
    rel_tol = _rel_tol(rel_tol)
    loc, scale, knots = _standard_form(source)
    if knots is None:
        y = _upper_quantile(_log_tail_probability(spec, _TS_NODES))
        value, err, evals = _tanh_sinh(y, rel_tol, loc, scale)
    else:
        value, err, evals = _closed_form(knots, source.steps, spec, rel_tol)
    return QuadratureResult(value=value, n_points=evals, scheme="converged",
                            endpoint_policy="open_interval", estimated_error=err)


def srm_monte_carlo(
    source: QuantileSource, spec: WeightSpec, n_draws: int = 1_000_000, seed: int = 0
) -> MonteCarloResult:
    """Monte Carlo spectral risk measure: draw the remaining weight mass w
    uniformly and average the quantiles at p = 1 - t(w), which samples p
    from the weight density.  normal(mean, sd) is mean + sd times the
    standard normal, drawn at log t by distributions._upper_quantile as in
    srm_converged.  t is floored at 2**-53, so p = 1 - t at 1 - 2**-53,
    which biases low every weight with mass beyond it (ROADMAP item 1): on
    the standard normal, -12.7 standard errors at power c = 0.1 and -123
    at c = 0.05 with a million draws; with 100,000 draws, -48 at es(1 -
    1e-15), -771 at exponential a = 1e16 and -13,930 at power c = 1e-3,
    and power c = 1e-300 gives 8.21 against 1.25e150.

    The draws come from one generator, default_rng([seed]), so a result is
    reproducible for a given (seed, n_draws), and any seed but a
    non-negative integer, such as None or True, raises.  They are drawn
    and transformed in pieces of at most _BLOCK, and the pieces' sums and
    sums of squares are added in draw order.  Raises NumericalError when
    the sum of the draws or of their squares overflows a double, so the
    value or the stderr would not be finite.
    """
    _instance("spec", spec, WeightSpec)
    n_draws, seed = _integer("n_draws", n_draws), _seed(seed)
    if n_draws < 2:
        raise ValueError(f"n_draws must be an integer of at least 2, not {n_draws!r}")
    loc, scale, knots = _standard_form(source)
    loss = (_upper_quantile if knots is None
            else lambda log_t: quantile(source, -np.expm1(log_t)))

    rng = np.random.default_rng([seed])
    total = total_sq = 0.0
    for start in range(0, n_draws, _BLOCK):
        log_t = _log_tail_probability(spec, rng.random(min(_BLOCK, n_draws - start)))
        x = loss(np.maximum(log_t, _LOG_T_FLOOR, out=log_t))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is raised below
            total += float(x.sum())
            total_sq += float((x * x).sum())
    mean = total / n_draws
    var = max(total_sq - n_draws * mean * mean, 0.0) / (n_draws - 1)
    stderr = math.sqrt(var / n_draws)
    if not math.isfinite(mean):
        raise NumericalError(f"the sum of {n_draws:,} Monte Carlo draws overflows a double")
    if not math.isfinite(stderr):
        raise NumericalError(
            f"the sum of the squares of {n_draws:,} Monte Carlo draws overflows a double"
        )
    return MonteCarloResult(value=loc + scale * mean, stderr=scale * stderr, n_draws=n_draws, seed=seed)


def convergence_study(
    source: QuantileSource, spec: WeightSpec, n_list, config: QuadratureConfig | None = None
) -> list[tuple[int, float]]:
    """Replication values across grid sizes, for studying convergence.

    Each row is srm_replication under config (default QuadratureConfig())
    with n_points replaced by that row's n, so the config's endpoint
    policy and epsilon apply to every row.
    """
    config = config or QuadratureConfig()
    # every size is checked before the first pass
    configs = [replace(config, n_points=n) for n in n_list]
    if not configs:
        raise ValueError("n_list must not be empty")
    return [(c.n_points, srm_replication(source, spec, c).value) for c in configs]
