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
from scipy.special import ndtri

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
        else:
            if self.samples is None or self.samples.size == 0:
                raise ValueError("empirical source needs at least one sample")
            if not np.all(np.isfinite(self.samples)):
                raise ValueError("empirical samples must be finite")


def _empirical(samples: np.ndarray) -> QuantileSource:
    samples.flags.writeable = False
    return QuantileSource(kind="empirical", samples=samples)


def standard_normal() -> QuantileSource:
    return normal(0.0, 1.0)


def normal(mean: float, sd: float) -> QuantileSource:
    return QuantileSource(kind="normal", mean=float(mean), sd=float(sd))


def constant(value: float) -> QuantileSource:
    if not math.isfinite(value):
        raise ValueError("constant loss must be finite")
    return _empirical(np.array([float(value)]))


def uniform(lo: float, hi: float) -> QuantileSource:
    if not lo < hi:
        raise ValueError("uniform support needs lo < hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("uniform bounds must be finite")
    return _empirical(np.array([float(lo), float(hi)]))


def load_empirical(records) -> QuantileSource:
    """Build an empirical source from an iterable of losses.

    Samples are stored sorted; quantiles interpolate linearly between order
    statistics.  Rows are numbered from 1 in error messages.
    """
    arr = np.asarray(list(records), dtype=float)
    if arr.ndim != 1:
        raise DataError("expected a flat sequence of losses")
    if arr.size == 0:
        raise DataError("no loss values supplied")
    bad = ~np.isfinite(arr)
    if np.any(bad):
        row = int(np.argmax(bad)) + 1
        raise DataError(f"non-finite loss at row {row}")
    return _empirical(np.sort(arr))


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
    """Order-statistic interpolation at p in [0, 1]; a single sample is flat."""
    return np.interp(p, np.linspace(0.0, 1.0, samples.size), samples)


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
    return float(_interpolate(source.samples, p))


def _upper_quantile(source: QuantileSource, t: float) -> float:
    """Quantile at p = 1 - t, evaluated through the upper-tail probability t
    so that tails too small to resolve inside 1 - p stay accurate."""
    if source.kind == "normal":
        # t = u**(1/c) underflows to 0 for small c; the clamp keeps it in
        # the open interval the inverse normal accepts
        return source.mean - source.sd * inverse_normal_cdf(max(t, 1e-300))
    return float(_interpolate(source.samples, 1.0 - t))
