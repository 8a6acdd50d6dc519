"""Loss-quantile sources for analytic and empirical distributions.

Losses carry a positive sign throughout the package: a loss is a positive
number and larger quantiles mean worse outcomes.  Every source answers
quantile queries for probabilities strictly inside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
# loss files are UTF-8; a leading byte-order mark, as Excel writes, is dropped
_ENCODING = "utf-8-sig"
# Above |ndtri(5e-324)| = 38.47: no probability a double can hold puts a
# normal quantile further from the mean than this many sd.
_DEEPEST_Z = 38.5


def inverse_normal_cdf(p, out=None):
    """Standard normal quantile for p in (0, 1), scalar or array.

    Computed by scipy's ndtri on the lower half and exactly antisymmetric:
    the upper half reflects the lower half, and 1 - p is exact for p >= 0.5.
    Input that lies wholly in the lower half, as the replication kernel's
    does, goes to ndtri as it is, which is the reflection bit for bit.  An
    array result is written into out when it is given.  scipy.special, two
    thirds of the time a fresh `import spectral_risk` would otherwise take,
    is imported on the first call, here and in _upper_quantile, the only
    other place that uses it, so a process that evaluates only sample
    sources never loads it.
    """
    from scipy.special import ndtri

    arr = np.asarray(p, dtype=float)
    # the initial value lets an empty array pass; a nan fails both tests
    lo, hi = arr.min(initial=0.5), arr.max(initial=0.5)
    if not (lo > 0.0 and hi < 1.0):
        raise ValueError("probability must lie strictly inside (0, 1)")
    if hi <= 0.5:
        z = ndtri(arr, out=out)
    else:
        z = np.copysign(ndtri(np.minimum(arr, 1.0 - arr)), arr - 0.5, out=out)
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
            # np.diff's own subtraction, without its argument handling
            steps = np.subtract(self.samples[1:], self.samples[:-1])
            steps.flags.writeable = False
            object.__setattr__(self, "steps", steps)


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
    """Read a loss file: UTF-8, with or without a byte-order mark, one
    numeric loss per line and an optional 'loss' header line.

    The file is read once, so a pipe or FIFO works as well as a file.  Every
    line is read by Python's float, which numpy applies to the non-empty lines
    in C; a body it refuses, or reads as non-finite or empty, is parsed again
    line by line, which skips whitespace-only lines and names the bad line.
    """
    try:
        text = Path(path).read_text(encoding=_ENCODING)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    start = 1 if lines and lines[0].strip().lower() == "loss" else 0
    try:
        losses = np.array(list(filter(None, lines[start:])), dtype=np.float64)
    except ValueError:
        losses = None
    if losses is None or losses.size == 0 or not np.all(np.isfinite(losses)):
        losses = _parse_lines(path, lines, start)
    return load_empirical(losses)


def _parse_lines(path, lines: list, start: int) -> list:
    """Losses in lines[start:], one per non-blank line; raises a DataError
    naming the first bad line, numbered from 1 in the whole file."""
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
    return losses


def _interpolate(source: QuantileSource, p, out=None, work=None):
    """Order-statistic interpolation at the array p in [0, 1]; a single
    sample is flat.

    The m samples are knots at the uniform p = j / (m - 1), so p falls in
    segment j = floor(p (m - 1)), and p = 1 ends the last segment; the value
    is samples[j] + steps[j] (p (m - 1) - j).  It is written into out, and
    work, a float and an intp array shaped like p, holds the intermediates;
    each is allocated when not given.
    """
    samples, m = source.samples, source.samples.size
    if out is None:
        out = np.empty(np.shape(p))
    if m == 1:
        out.fill(samples[0])
        return out
    step, j = (np.empty(np.shape(p)), np.empty(np.shape(p), dtype=np.intp)) if work is None else work
    t = np.multiply(p, m - 1, out=out)
    # the segment is found as a float and then copied to j, since t -= j would
    # cast j to float through a temporary
    np.floor(t, out=step)
    np.minimum(step, m - 2, out=step)
    np.copyto(j, step, casting="unsafe")
    t -= step
    # j lies in [0, m - 2], so clip changes nothing, and lets take write out directly
    np.take(source.steps, j, out=step, mode="clip")
    step *= t
    np.take(samples, j, out=out, mode="clip")
    out += step
    return out


def quantile(source: QuantileSource, p):
    """Quantile of `source` at probability p (scalar or array), p in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if source.kind == "normal":
        # inverse_normal_cdf checks p
        out = source.mean + source.sd * inverse_normal_cdf(arr)
    else:
        if not (arr.min(initial=0.5) > 0.0 and arr.max(initial=0.5) < 1.0):
            raise ValueError("probability must lie strictly inside (0, 1)")
        out = _interpolate(source, arr)
    return float(out) if arr.ndim == 0 else out


def _limit_quantile(source: QuantileSource, p: float) -> float:
    """Limit of the quantile as p approaches 0 or 1, infinite for a normal
    source."""
    if source.kind == "normal":
        return -math.inf if p == 0.0 else math.inf
    return float(source.samples[0] if p == 0.0 else source.samples[-1])


def _quantile_pair(source: QuantileSource, p, p_mirror, out=(None, None), work=None):
    """Quantiles at the arrays p <= 1/2 and p_mirror, their mirrors 1 - p
    up to rounding, written into the pair of arrays out when it is given.
    A normal source evaluates the inverse normal once, at the lower-tail p
    where it is accurate, and reflects it for the mirror; an empirical
    source interpolates at both, with work as _interpolate's."""
    q, q_mirror = out
    if source.kind == "normal":
        dz = inverse_normal_cdf(p, out=q)
        dz *= source.sd
        q_mirror = np.subtract(source.mean, dz, out=q_mirror)
        dz += source.mean
        return dz, q_mirror
    return _interpolate(source, p, q, work), _interpolate(source, p_mirror, q_mirror, work)


def _upper_quantile(source: QuantileSource, log_t):
    """Quantile of a normal source at p = 1 - t for an array of upper-tail
    probabilities given by their logs, so that tails too small to hold in a
    double stay accurate."""
    from scipy.special import ndtri_exp

    # t rounds to 1 at the bottom of the weight mass, and ndtri_exp(0) is inf
    log_t = np.minimum(log_t, -(2.0**-53))
    return source.mean - source.sd * ndtri_exp(log_t)


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
