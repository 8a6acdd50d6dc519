"""Parameter sweeps, subadditivity experiments, and tabular export.

Sweeps evaluate a weight family across a parameter grid against one loss
source.  The subadditivity check stresses a measure on random loss sample
pairs, since spectral measures must never charge a merged position more
than the sum of its parts; a constructed two-point counterexample shows
how value at risk breaks that rule.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .distributions import QuantileSource, load_empirical
from .measures import srm, var
from .quadrature import QuadratureConfig, _seed
from .risk_aversion import _PARAMETER, WeightSpec, _integer, weight

__all__ = [
    "SweepResult",
    "SubadditivityReport",
    "sweep_srm",
    "find_peak",
    "weight_curve",
    "subadditivity_check",
    "var_subadditivity_counterexample",
    "sweep_to_csv",
    "curve_to_csv",
    "convergence_to_csv",
]

# the replication grid of sweeps and stress runs, which evaluate the measure
# many times and so take a lighter grid than a single value
_LIGHT_CONFIG = QuadratureConfig(n_points=100_001)


@dataclass(frozen=True)
class SweepResult:
    """Measure values across a strictly increasing parameter grid."""

    family: str
    params: tuple[float, ...]
    values: tuple[float, ...]

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.params, self.values))


@dataclass(frozen=True)
class SubadditivityReport:
    """Outcome of a subadditivity stress run.

    A gap is measure(joint) - measure(a) - measure(b); positive gaps are
    violations, and worst_gap is the largest gap seen (negative when every
    trial kept a comfortable margin).
    """

    trials: int
    violations: int
    worst_gap: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def sweep_srm(family: str, param_grid, source: QuantileSource,
              config: QuadratureConfig | None = None) -> SweepResult:
    """Evaluate the measure for one weight family across a parameter grid.

    The grid must be strictly increasing.  The default config uses a
    lighter replication grid than single-value computation, since a sweep
    multiplies the work by the grid length.  That grid misses weight mass
    near p = 1, the more the smaller a power c: on the standard normal its
    power sweep peaks near c = 0.15, though the measure, which a converged
    config computes, falls strictly as c rises.
    """
    key = _PARAMETER.get(family)
    if key is None:
        raise ValueError(f"cannot sweep family {family!r}")
    params = [float(x) for x in param_grid]
    if not params:
        raise ValueError("param_grid must not be empty")
    if any(not b > a for a, b in zip(params, params[1:])):
        raise ValueError("param_grid must be strictly increasing")
    config = config or _LIGHT_CONFIG
    values = tuple(srm(source, WeightSpec(family=family, **{key: x}), config) for x in params)
    return SweepResult(family=family, params=tuple(params), values=values)


def find_peak(result: SweepResult) -> tuple[float, float]:
    """The (param, value) row with the largest value; first wins on ties."""
    if len(result.params) < 3:
        raise ValueError("need at least 3 sweep points to call anything a peak")
    k = int(np.argmax(result.values))
    return result.params[k], result.values[k]


def weight_curve(spec: WeightSpec, n_points: int = 1001, p_max: float = 0.999) -> list[tuple[float, float]]:
    """Sample the weight function on [0, p_max] for plotting or export."""
    if _integer("n_points", n_points) < 2:
        raise ValueError("n_points must be at least 2")
    if not 0.0 < p_max < 1.0:
        raise ValueError("p_max must lie in (0, 1)")
    ps = np.linspace(0.0, p_max, n_points)
    ws = weight(spec, ps)
    return [(float(p), float(w)) for p, w in zip(ps, ws)]


def _draw_pair(rng: np.random.Generator, size: int, shape: int) -> tuple[np.ndarray, np.ndarray]:
    """Two samples of shape 0 (normal), 1 (lognormal) or 2 (Student t),
    each with parameters of its own, drawn in turn."""
    draw = (lambda: rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), size),
            lambda: rng.lognormal(0.0, rng.uniform(0.3, 1.0), size),
            lambda: rng.standard_t(4, size) * rng.uniform(0.5, 1.5))[shape]
    return draw(), draw()


def subadditivity_check(measure: WeightSpec, sample_size: int = 500, trials: int = 1000,
                        seed: int = 0, config: QuadratureConfig | None = None) -> SubadditivityReport:
    """Stress a spectral measure on random loss sample pairs.

    measure is a WeightSpec, evaluated as its spectral measure on each
    empirical sample under config (default _LIGHT_CONFIG).  Each trial
    draws paired samples a and b, treats a + b as the merged position, and
    flags measure(a + b) > measure(a) + measure(b) beyond rounding slack
    as a violation.
    """
    if _integer("sample_size", sample_size) < 2:
        raise ValueError("sample_size must be at least 2")
    if _integer("trials", trials) < 1:
        raise ValueError("trials must be at least 1")
    seed = _seed(seed)
    if not isinstance(measure, WeightSpec):
        raise TypeError(f"measure must be a WeightSpec, not {type(measure).__name__}")
    config = config or _LIGHT_CONFIG

    def evaluate(samples: np.ndarray) -> float:
        return srm(load_empirical(samples), measure, config)

    violations = 0
    worst_gap = -math.inf
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        a, b = _draw_pair(rng, sample_size, trial % 3)
        ra = evaluate(a)
        rb = evaluate(b)
        rc = evaluate(a + b)
        gap = rc - ra - rb
        if gap > 1e-9 * max(1.0, abs(ra) + abs(rb)):
            violations += 1
        worst_gap = max(worst_gap, gap)
    return SubadditivityReport(
        trials=int(trials), violations=violations, worst_gap=float(worst_gap), seed=seed
    )


def var_subadditivity_counterexample(alpha: float = 0.95, loss: float = 10.0,
                                     tail_prob: float = 0.04) -> dict:
    """Two independent positions that each look riskless to VaR but not
    to VaR of their sum.

    Each position loses `loss` with probability tail_prob (rounded to a
    multiple of 1/1000) and nothing otherwise, represented by exhaustive
    samples, so a positive gap is a genuine VaR subadditivity violation.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < tail_prob < 1.0:
        raise ValueError("tail_prob must lie in (0, 1)")
    if not math.isfinite(2.0 * float(loss)):
        raise ValueError(f"loss must be a number whose double is finite, not {loss!r}")
    n = 1000
    k = int(round(tail_prob * n))
    if k == 0 or k == n:
        raise ValueError("tail_prob too extreme for the sample resolution")
    marginal = np.concatenate([np.zeros(n - k), np.full(k, float(loss))])
    joint = np.add.outer(marginal, marginal).ravel()
    var_a = var(load_empirical(marginal), alpha)
    var_b = var_a
    var_sum = var(load_empirical(joint), alpha)
    gap = var_sum - var_a - var_b
    return {
        "alpha": alpha,
        "loss": float(loss),
        "tail_prob": k / n,
        "var_a": var_a,
        "var_b": var_b,
        "var_sum": var_sum,
        "gap": gap,
        "violated": gap > 0.0,
    }


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_rows(path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def sweep_to_csv(result: SweepResult, path) -> None:
    """Write a sweep as CSV with columns param,value."""
    _write_rows(path, "param,value", result.rows())


def curve_to_csv(rows, path) -> None:
    """Write weight curve samples as CSV with columns p,weight."""
    _write_rows(path, "p,weight", rows)


def convergence_to_csv(rows, path) -> None:
    """Write a convergence study as CSV with columns n,value."""
    _write_rows(path, "n,value", rows)
