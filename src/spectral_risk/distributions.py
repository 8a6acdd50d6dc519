"""Loss-quantile sources for analytic and empirical distributions.

Losses carry a positive sign throughout the package: a loss is a positive
number and larger quantiles mean worse outcomes.  Every source answers
quantile queries for probabilities strictly inside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri, ndtri_exp

from .errors import DataError

__all__ = [
    "QuantileSource",
    "standard_normal",
    "normal",
    "constant",
    "uniform",
    "load_empirical",
    "read_loss_csv",
    "quantile",
    "inverse_normal_cdf",
]

_KINDS = ("normal", "empirical")
# Above |ndtri(5e-324)| = 38.47: no probability a double can hold puts a
# normal quantile further from the mean than this many sd.
_DEEPEST_Z = 38.5


def inverse_normal_cdf(p):
    """Standard normal quantile for p in (0, 1), scalar or array.

    Computed by scipy's ndtri on the lower half and exactly antisymmetric:
    the upper half reflects the lower half, and 1 - p is exact for p >= 0.5.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("probability must lie strictly inside (0, 1)")
    z = np.copysign(ndtri(np.minimum(arr, 1.0 - arr)), arr - 0.5)
    return float(z) if arr.ndim == 0 else z


@dataclass(frozen=True, eq=False)
class QuantileSource:
    """A loss distribution described by its quantile function.

    Two kinds exist.  A normal source maps p to mean + sd * z(p) through
    `inverse_normal_cdf`.  An empirical source holds sorted, read-only
    samples and interpolates linearly between order statistics (type 7 of
    Hyndman & Fan 1996); `uniform(lo, hi)` is the empirical source of
    [lo, hi] and `constant(v)` that of [v].  Use the module factories
    rather than constructing directly; they keep the per-kind parameter
    rules in one place.
    """

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "normal":
            if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
                raise ValueError("normal mean and sd must be finite")
            if not self.sd > 0.0:
                raise ValueError("sd must be positive")
            if not math.isfinite(abs(self.mean) + _DEEPEST_Z * self.sd):
                raise ValueError(f"normal quantiles must stay finite: |mean| + {_DEEPEST_Z} sd overflows")
        else:
            if self.samples is None or self.samples.size == 0:
                raise ValueError("empirical source needs at least one sample")
            if not math.isfinite(float(self.samples.max()) - float(self.samples.min())):
                raise ValueError("empirical samples must be finite, and so must their range")


def _empirical(samples: np.ndarray) -> QuantileSource:
    samples.flags.writeable = False
    return QuantileSource(kind="empirical", samples=samples)


def standard_normal() -> QuantileSource:
    return normal(0.0, 1.0)


def normal(mean: float, sd: float) -> QuantileSource:
    return QuantileSource(kind="normal", mean=float(mean), sd=float(sd))


def constant(value: float) -> QuantileSource:
    return _empirical(np.array([float(value)]))


def uniform(lo: float, hi: float) -> QuantileSource:
    if not lo < hi:
        raise ValueError("uniform support needs lo < hi")
    return _empirical(np.array([float(lo), float(hi)]))


def load_empirical(records) -> QuantileSource:
    """Build an empirical source from an iterable of losses.

    Samples are stored sorted; quantiles interpolate linearly between order
    statistics.  Rows are numbered from 1 in error messages.
    """
    if not isinstance(records, (np.ndarray, list, tuple)):
        records = list(records)  # a one-shot iterable, such as a generator
    arr = np.asarray(records, dtype=float)
    if arr.ndim != 1:
        raise DataError("expected a flat sequence of losses")
    if arr.size == 0:
        raise DataError("no loss values supplied")
    bad = ~np.isfinite(arr)
    if np.any(bad):
        row = int(np.argmax(bad)) + 1
        raise DataError(f"non-finite loss at row {row}")
    arr = np.sort(arr)
    if not math.isfinite(float(arr[-1]) - float(arr[0])):
        raise DataError("losses span more than the float range")
    return _empirical(arr)


def read_loss_csv(path) -> QuantileSource:
    """Read a loss file (one numeric loss per line, optional 'loss' header)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    start = 1 if lines and lines[0].strip().lower() == "loss" else 0
    losses = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        text_value = line.strip()
        if not text_value:
            continue
        try:
            value = float(text_value)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: not a number: {text_value!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{path}: line {lineno}: non-finite loss {text_value!r}")
        losses.append(value)
    if not losses:
        raise DataError(f"{path}: no loss values found")
    return load_empirical(losses)


def _interpolate(samples: np.ndarray, p):
    """Order-statistic interpolation at p in [0, 1]; a single sample is flat.

    The m samples are knots at the uniform p = j / (m - 1), so p falls in
    segment j = floor(p (m - 1)), and p = 1 ends the last segment.
    """
    m = samples.size
    if m == 1:
        return np.full(np.shape(p), samples[0])
    t = np.asarray(p, dtype=float) * (m - 1)
    j = np.minimum(t.astype(np.intp), m - 2)
    x = samples[j]
    # samples[1:][j] is samples[j + 1] without building j + 1
    return x + (t - j) * (samples[1:][j] - x)


def quantile(source: QuantileSource, p):
    """Quantile of `source` at probability p (scalar or array), p in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("probability must lie strictly inside (0, 1)")
    if source.kind == "normal":
        out = source.mean + source.sd * inverse_normal_cdf(arr)
    else:
        out = _interpolate(source.samples, arr)
    return float(out) if arr.ndim == 0 else out


def _limit_quantile(source: QuantileSource, p: float) -> float:
    """Limit of the quantile as p approaches 0 or 1; may be infinite."""
    if source.kind == "normal":
        # ndtri maps the closed endpoints to -inf and inf
        return source.mean + source.sd * float(ndtri(p))
    return float(source.samples[0] if p == 0.0 else source.samples[-1])


def _quantile_pair(source: QuantileSource, p, p_mirror):
    """Quantiles at the arrays p <= 1/2 and p_mirror, their mirrors 1 - p
    up to rounding.  A normal source evaluates the inverse normal once, at
    the lower-tail p where it is accurate, and reflects it for the mirror;
    an empirical source interpolates at both."""
    if source.kind == "normal":
        dz = source.sd * inverse_normal_cdf(p)
        return source.mean + dz, source.mean - dz
    return _interpolate(source.samples, p), _interpolate(source.samples, p_mirror)


def _upper_quantile(source: QuantileSource, log_t):
    """Quantile at p = 1 - t for an array of upper-tail probabilities given
    by their logs, so that tails too small to hold in a double stay
    accurate."""
    # t rounds to 1 at the bottom of the weight mass, and ndtri_exp(0) is inf
    log_t = np.minimum(log_t, -(2.0**-53))
    if source.kind == "normal":
        return source.mean - source.sd * ndtri_exp(log_t)
    return _interpolate(source.samples, -np.expm1(log_t))


def _standard_form(source: QuantileSource):
    """(loc, scale, standard) with source's quantile loc + scale times
    standard's: normal(mean, sd) gives (mean, sd, standard_normal())."""
    if source.kind == "normal":
        return source.mean, source.sd, standard_normal()
    return 0.0, 1.0, source


def _linear_knots(source: QuantileSource):
    """The values x_k that a piecewise-linear source interpolates at
    p_k = k / (n - 1), or None for a source with a smooth quantile."""
    return None if source.kind == "normal" else source.samples
