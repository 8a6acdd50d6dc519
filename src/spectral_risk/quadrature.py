"""Quadrature engines for weight-averaged quantile integrals.

Two schemes are provided.  The replication scheme is a composite Simpson
rule on a uniform probability grid with an explicit endpoint policy; it is
simple, deterministic, and converges slowly from below when the integrand
is singular at p = 1.  The converged scheme treats the endpoints as open,
shrinks the margins geometrically with adaptive refinement in between, and
completes each tail with its remaining weight mass times the quantile at
the clip point, so it resolves the singular families accurately.  A Monte
Carlo estimator driven by inverse weight-mass sampling gives an independent
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import QuantileSource, _limit_quantile, _upper_quantile, quantile
from .errors import ConvergenceError, NumericalError
from .risk_aversion import WeightSpec, weight, weight_mass

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

_CHUNK = 1 << 20
_ENDPOINT_POLICIES = ("zero_endpoints", "clip_epsilon")
_SCHEMES = ("replication", "converged")


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
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value plus how it was obtained.

    For the replication scheme n_points is the grid size and
    estimated_error is None.  For the converged scheme n_points counts
    integrand evaluations, endpoint_policy reads open_interval, and
    estimated_error bounds the remaining uncertainty.
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


def _chunked_simpson(eval_chunk, lo: float, hi: float, n: int) -> float:
    """Composite Simpson over n grid points, accumulated in fixed chunks so
    the grid never has to be materialised whole."""
    h = (hi - lo) / (n - 1)
    total = 0.0
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        idx = np.arange(start, stop)
        x = lo + idx * h
        if stop == n:
            x[-1] = hi
        y = eval_chunk(idx, x)
        bad = ~np.isfinite(y)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NumericalError(f"integrand not finite at node x = {x[j]!r}")
        coef = np.where(idx % 2 == 1, 4.0, 2.0)
        if start == 0:
            coef[0] = 1.0
        if stop == n:
            coef[-1] = 1.0
        total += float(coef @ y)
    return total * h / 3.0


def simpson_composite(f, lo: float, hi: float, n_points: int) -> float:
    """Composite Simpson estimate of the integral of f over [lo, hi]."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("n_points must be odd and at least 3")
    if not lo < hi:
        raise ValueError("need lo < hi")

    def eval_chunk(idx, x):
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise NumericalError("integrand must return one value per node")
        return y

    return _chunked_simpson(eval_chunk, lo, hi, n_points)


def _limit_weight(spec: WeightSpec, p: float) -> float:
    if spec.family == "power" and p == 1.0:
        return math.inf
    return weight(spec, p)


def _endpoint_integrand(source: QuantileSource, spec: WeightSpec, p: float) -> float:
    """Endpoint integrand under zero_endpoints: the limiting value of
    phi(p) q(p) where that limit is finite, else 0."""
    v = _limit_weight(spec, p) * _limit_quantile(source, p)
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

    if config.endpoint_policy == "clip_epsilon":
        eps = config.epsilon

        def eval_chunk(idx, p):
            pe = np.clip(p, eps, 1.0 - eps)
            return weight(spec, pe) * quantile(source, pe)

    else:

        def eval_chunk(idx, p):
            y = np.empty(p.shape)
            inner = (idx > 0) & (idx < n - 1)
            pi = p[inner]
            y[inner] = weight(spec, pi) * quantile(source, pi)
            for j in np.nonzero(~inner)[0]:
                y[j] = _endpoint_integrand(source, spec, float(p[j]))
            return y

    value = _chunked_simpson(eval_chunk, 0.0, 1.0, n)
    return QuadratureResult(
        value=value,
        n_points=n,
        scheme="replication",
        endpoint_policy=config.endpoint_policy,
        estimated_error=None,
    )


def _fixed_simpson(f, lo: float, hi: float, n: int = 129) -> float:
    h = (hi - lo) / (n - 1)
    total = f(lo) + f(hi)
    for i in range(1, n - 1):
        total += (4.0 if i % 2 else 2.0) * f(lo + i * h)
    return total * h / 3.0


def _adaptive(f, lo: float, hi: float, tol: float, max_depth: int = 60) -> float:
    flo = f(lo)
    fhi = f(hi)
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return _adaptive_step(f, lo, hi, flo, fmid, fhi, whole, tol, max_depth)


def _adaptive_step(f, lo, hi, flo, fmid, fhi, whole, tol, depth):
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    rm = 0.5 * (mid + hi)
    flm = f(lm)
    frm = f(rm)
    left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
    right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise NumericalError(f"integrand not finite inside ({lo!r}, {hi!r})")
    if abs(delta) <= 15.0 * tol or depth <= 0:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _adaptive_step(f, lo, mid, flo, flm, fmid, left, half, depth - 1) + _adaptive_step(
        f, mid, hi, fmid, frm, fhi, right, half, depth - 1
    )


def _integrate_open(
    f,
    lo: float,
    hi: float,
    rel_tol: float,
    lower_open: bool,
    upper_open: bool,
    tail_below,
    tail_above,
    max_rounds: int = 60,
) -> tuple[float, float]:
    """Integrate f over (lo, hi) with open endpoints handled by shrinking
    margins.  tail_below(edge) and tail_above(edge) estimate the integral
    still outside the current edges; successive margin halvings must agree
    to rel_tol twice in a row before the estimate counts as converged."""
    width = hi - lo
    m_lo = 0.25 * width if lower_open else 0.0
    m_hi = 0.25 * width if upper_open else 0.0
    lo_edge = lo + m_lo
    hi_edge = hi - m_hi

    # The tolerance scale blends the core integral, the mass still outside
    # the margins, and the edge values, so that neither a cancelling
    # integrand (zero-mean quantiles) nor one whose mass sits entirely in a
    # tail margin gets a degenerate target.
    rough = abs(_fixed_simpson(f, lo_edge, hi_edge))
    if lower_open:
        rough += abs(tail_below(lo_edge))
    if upper_open:
        rough += abs(tail_above(hi_edge))
    scale = max(rough, 0.25 * width * (abs(f(lo_edge)) + abs(f(hi_edge))), 1e-8)
    # The panel tolerance is clamped at float noise: a tighter request
    # cannot be certified anyway and must fail in the round budget below,
    # not by driving the adaptive recursion into exhaustive splitting.
    tol = 0.125 * max(rel_tol, 1e-15) * scale

    acc = _adaptive(f, lo_edge, hi_edge, tol)
    est = math.inf
    est_prev = math.inf
    delta_prev = math.inf
    remainder = math.inf
    quiet = 0
    for _ in range(max_rounds):
        if lower_open:
            new_edge = lo + 0.5 * m_lo
            if lo < new_edge < lo_edge:
                acc += _adaptive(f, new_edge, lo_edge, 0.25 * tol)
                lo_edge = new_edge
                m_lo *= 0.5
        if upper_open:
            new_edge = hi - 0.5 * m_hi
            if hi_edge < new_edge < hi:
                acc += _adaptive(f, hi_edge, new_edge, 0.25 * tol)
                hi_edge = new_edge
                m_hi *= 0.5
        est = acc
        if lower_open:
            est += tail_below(lo_edge)
        if upper_open:
            est += tail_above(hi_edge)
        delta = abs(est - est_prev)
        # Remaining error is the geometric sum of future deltas, estimated
        # from the measured decay ratio; a plain last-delta test understates
        # it badly when the deltas shrink slowly.
        floor = 1e-14 * max(abs(est), scale)
        if delta <= floor:
            # deltas at float noise certify nothing below the noise itself,
            # so the remainder never reports smaller than that
            remainder = max(delta, 4e-16 * max(abs(est), scale))
        elif math.isfinite(delta_prev) and delta < delta_prev:
            ratio = delta / delta_prev
            remainder = delta * ratio / (1.0 - ratio) if ratio < 0.99 else math.inf
        else:
            # one delta alone supports no extrapolation
            remainder = math.inf
        target = rel_tol * max(abs(est), scale)
        if remainder <= target:
            quiet += 1
            if quiet >= 2:
                return est, max(remainder, target)
        else:
            quiet = 0
        delta_prev = delta
        est_prev = est
    # the extrapolated remainder can slightly under-cover, so the reported
    # bound also keeps the last measured correction
    bound = max(remainder, delta_prev)
    raise ConvergenceError(
        f"tail refinement did not converge after {max_rounds} rounds "
        f"(best estimate {est!r}, estimated remaining error {bound!r})",
        best_estimate=est,
        error_bound=bound,
    )


def srm_converged(
    source: QuantileSource, spec: WeightSpec, rel_tol: float = 1e-6
) -> QuadratureResult:
    """Spectral risk measure by singularity-aware adaptive quadrature.

    The power family is transformed so its weight becomes the integration
    measure (substituting u for the remaining weight mass), which turns the
    p = 1 singularity into a bounded integrand evaluated directly at small
    upper-tail probabilities.  The other families integrate in p with open
    endpoints.  Raises ConvergenceError, carrying the best estimate, if the
    refinement budget runs out.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    evals = [0]

    if spec.family == "power":
        inv_c = 1.0 / spec.c

        def f(u):
            evals[0] += 1
            return _upper_quantile(source, u**inv_c)

        value, err = _integrate_open(
            f,
            0.0,
            1.0,
            rel_tol,
            lower_open=True,
            upper_open=True,
            tail_below=lambda u: u * f(u),
            tail_above=lambda u: (1.0 - u) * f(u),
        )
    else:

        def f(p):
            evals[0] += 1
            return weight(spec, p) * quantile(source, p)

        lo = spec.alpha if spec.family == "es" else 0.0
        value, err = _integrate_open(
            f,
            lo,
            1.0,
            rel_tol,
            lower_open=spec.family != "es",
            upper_open=True,
            tail_below=lambda p: weight_mass(spec, p) * quantile(source, p),
            tail_above=lambda p: (1.0 - weight_mass(spec, p)) * quantile(source, p),
        )

    return QuadratureResult(
        value=value,
        n_points=evals[0],
        scheme="converged",
        endpoint_policy="open_interval",
        estimated_error=err,
    )


def _weight_mass_inverse(spec: WeightSpec, v: np.ndarray) -> np.ndarray:
    """Solve weight_mass(spec, p) = v for p, vectorised over v in [0, 1)."""
    fam = spec.family
    if fam == "exponential":
        a = spec.a
        return 1.0 + np.log(v * -math.expm1(-a) + math.exp(-a)) / a
    if fam == "power":
        return 1.0 - (1.0 - v) ** (1.0 / spec.c)
    if fam == "es":
        return spec.alpha + (1.0 - spec.alpha) * v
    return v.copy()


def srm_monte_carlo(
    source: QuantileSource, spec: WeightSpec, n_draws: int = 1_000_000, seed: int = 0
) -> MonteCarloResult:
    """Monte Carlo spectral risk measure: draw p from the weight density by
    inverting its cumulative mass, then average the quantiles.

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
        take = min(_CHUNK, n_draws - done)
        rng = np.random.default_rng([seed, stream])
        v = rng.random(take)
        p = _weight_mass_inverse(spec, v)
        p = np.clip(p, 1e-16, 1.0 - 1e-16)
        x = quantile(source, p)
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
