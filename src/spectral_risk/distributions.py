"""Loss-quantile sources for analytic and empirical distributions.

Losses carry a positive sign throughout the package: a loss is a positive
number and larger quantiles mean worse outcomes.  Every source answers
quantile queries for probabilities strictly inside (0, 1).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, _real

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
# Above |inverse_normal_cdf(5e-324)| = 38.47: no probability a double can
# hold puts a normal quantile further from the mean than this many sd.
_DEEPEST_Z = 38.5

# Wichura's AS241 (Applied Statistics 37, 1988, 477-484), the algorithm of
# statistics.NormalDist.inv_cdf: three rational functions whose numerator
# and denominator are both of degree 7.  The central branch takes
# r = 0.180625 - q**2 for |q| = |p - 1/2| <= 0.425; the tail branches take
# r = sqrt(-log p) at the smaller of p and 1 - p, less 1.6 up to r = 5 and
# less 5 beyond.


def _stacked(num, den):
    """The coefficients of a numerator and a denominator, highest power
    first, side by side: row k holds the two coefficients of power 7 - k as
    a column, which broadcasts against a row of nodes."""
    return np.array([num, den]).T[:, :, np.newaxis]


_CENTRAL = _stacked(
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_NEAR = _stacked(
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_FAR = _stacked(
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)
# the tail branches' shifts, and the r = sqrt(-log p) where each ends:
# AS241's far branch is fitted up to r = 27, p = exp(-729)
_NEAR_SHIFT, _FAR_SHIFT = 1.6, 5.0
_NEAR_END, _FAR_END = 5.0, 27.0
# the asymptotic Mills ratio z Q(z) / phi(z), Q the upper tail, as a
# polynomial in u = 1 / z**2, highest power first: 1 - u + 3 u**2 - ...;
# at z = 38 (r = 27) the first term left out is below 1e-15
_MILLS = (-945.0, 105.0, -15.0, 3.0, -1.0, 1.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# elements per block: a row of 8,192 doubles is 64 KiB, under glibc's 128 KiB
# mmap threshold, so a freed one is reused from the heap.  A quantile block, a
# replication chunk and a Monte Carlo piece are one block each; changing it
# changes how every replication and Monte Carlo sum is grouped.
_BLOCK = 1 << 13


class _Scratch(threading.local):
    """The package's block-sized rows, made once per thread: floats and masks
    are the inverse normal's, fraction and segment interpolation's knot
    lookups, one for a node row and one for its mirrors, and chunk
    srm_replication's seven.  Temporaries freed on every block were faulted
    in afresh whenever glibc trimmed its heap: a traced stress-batch query
    took about 11,600 faults without these rows, and 3 with them.  Each
    thread has its own; within one, no user of a row may re-enter itself."""

    def __init__(self):
        self.floats = np.empty((9, _BLOCK))
        self.masks = np.empty((2, _BLOCK), dtype=bool)
        self.fraction = np.empty((2, _BLOCK))
        self.segment = np.empty((2, _BLOCK), dtype=np.intp)
        self.chunk = np.empty((7, _BLOCK))


_SCRATCH = _Scratch()


def _rational(x, coefficients, acc, out, factor=None):
    """AS241's rational function at x, times factor when given, into out.
    The numerator and the denominator are summed side by side in acc, a
    (2, n) array, by Horner's rule in statistics.NormalDist's order."""
    np.multiply(x, coefficients[0], out=acc)
    for c in coefficients[1:-1]:
        acc += c
        acc *= x
    acc += coefficients[-1]
    num, den = acc
    if factor is not None:
        num *= factor
    return np.divide(num, den, out=out)


def _mills_tail(neg_log_p):
    """|z| at the tail probabilities p = exp(-neg_log_p) beyond AS241's
    fitted range: the asymptotic inversion z**2 = 2 L - log(4 pi L),
    L = -log p, refined by two Newton steps on log Q(z) = log p, with Q(z)
    taken as phi(z) / z times the asymptotic Mills ratio S, so that the
    derivative of log Q is -z / S.  z**2 / 2 is formed as (z / 2) z, which
    stays finite for every finite L, and L = inf gives z = inf.  It
    allocates: only the converged engine and subnormal p reach it."""
    L = neg_log_p
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        z = math.sqrt(2.0) * np.sqrt(L - 0.5 * np.log(4.0 * math.pi * L))
        for _ in range(2):
            u = 1.0 / (z * z)
            s = np.full_like(u, _MILLS[0])
            for c in _MILLS[1:]:
                s = s * u + c
            z = z + s * (L - (0.5 * z) * z - np.log(z) - _HALF_LOG_2PI + np.log(s)) / z
    z[np.isinf(L)] = np.inf
    return z


def _tail(neg_log_p, out, var, acc, alt, mask):
    """|z| at the tail probabilities p = exp(-neg_log_p), into out, with
    var and alt arrays like out, acc as _rational's and mask as scratch;
    neg_log_p is overwritten with r = sqrt(-log p).  The near branch runs
    over every element when some element needs it, and the far branch over
    its own elements alone, gathered into alt, when some element needs it.
    _mills_tail's values replace both's where it runs; there the rational
    branches may overflow, which is why their warnings are off."""
    r_lo, r_hi = math.sqrt(neg_log_p.min()), math.sqrt(neg_log_p.max())
    deep = _mills_tail(neg_log_p) if r_hi > _FAR_END else None
    r = np.sqrt(neg_log_p, out=neg_log_p)
    with np.errstate(over="ignore", invalid="ignore"):
        if r_lo <= _NEAR_END:
            _rational(np.subtract(r, _NEAR_SHIFT, out=var), _NEAR, acc, out)
        if r_hi > _NEAR_END and r_lo <= _FAR_END:
            lanes = np.flatnonzero(np.greater(r, _NEAR_END, out=mask))
            k = lanes.size
            rs = np.take(r, lanes, out=alt[:k])
            out[lanes] = _rational(np.subtract(rs, _FAR_SHIFT, out=var[:k]), _FAR, acc[:, :k], alt[:k])
    if deep is not None:
        np.putmask(out, np.greater(r, _FAR_END, out=mask), deep)
    return out


def _central(q, out, f):
    """AS241's central branch at q = p - 1/2, into out, with the rows
    f[1:4] of a slice of the scratch as work."""
    r = np.subtract(0.180625, np.multiply(q, q, out=f[1]), out=f[1])
    return _rational(r, _CENTRAL, f[2:4], out, factor=q)


def _signed_tail(x, q, tail_log, out, f, mask):
    """AS241's tail branches at the block input x, with the sign of q, into
    out, with the rows f[1:6] of a slice of the scratch and mask as work."""
    _tail(tail_log(x, f[1]), out, f[2], f[3:5], f[5], mask)
    return np.copysign(out, q, out=out)


def _standard_quantile(x, q, q_lo, q_hi, tail_log, out):
    """The standard normal quantile at p = 1/2 + q for a block q in
    (-1/2, 1/2) within [q_lo, q_hi], into out; q is the scratch's first
    row.  tail_log(x, row) writes -log min(p, 1 - p) into row for x, the
    block input or a gathered part of it, and returns it; the tail branches
    run only where some |q| > 0.425, and take the sign of q.  The central
    branch is exactly odd in q."""
    n = q.size
    f, (mask, work_mask) = _SCRATCH.floats[:, :n], _SCRATCH.masks[:, :n]
    if not (q_lo < -0.425 or q_hi > 0.425):
        return _central(q, out, f)
    if not (q_lo <= 0.425 and q_hi >= -0.425):
        return _signed_tail(x, q, tail_log, out, f, work_mask)
    # Both: the branch that more elements take runs over the whole block,
    # and the other over its own elements alone, gathered into the
    # scratch's last rows through one index array and put back.  In a Monte
    # Carlo piece, whose draws are unsorted, this costs less than running
    # both over all.
    central = np.less_equal(np.abs(q, out=f[1]), 0.425, out=mask)
    if 2 * np.count_nonzero(central) >= n:
        # gathered before out, which may be x itself, is written
        lanes = np.flatnonzero(np.logical_not(central, out=mask))
        g = _SCRATCH.floats[:, :lanes.size]
        xs, qs = np.take(x, lanes, out=g[6]), np.take(q, lanes, out=g[7])
        _central(q, out, f)
        zs = _signed_tail(xs, qs, tail_log, g[8], g, work_mask[:lanes.size])
    else:
        _signed_tail(x, q, tail_log, out, f, work_mask)
        lanes = np.flatnonzero(central)
        g = _SCRATCH.floats[:, :lanes.size]
        zs = _central(np.take(q, lanes, out=g[6]), g[7], g)
    out[lanes] = zs
    return out


def _blockwise(x, evaluate, out):
    """evaluate(block, out_block) over blocks of _BLOCK elements of x, an
    array, and of out, a C-contiguous array shaped like x."""
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        evaluate(flat[start:start + _BLOCK], flat_out[start:start + _BLOCK])
    return out


def _ndtri_block(p, out):
    """inverse_normal_cdf of a non-empty block p, into out, once p is checked."""
    lo, hi = p.min(), p.max()
    if not (lo > 0.0 and hi < 1.0):
        raise ValueError("probability must lie strictly inside (0, 1)")

    def tail_log(p, row):
        low = np.minimum(p, np.subtract(1.0, p, out=row), out=row) if hi > 0.5 else p
        return np.negative(np.log(low, out=row), out=row)

    q = np.subtract(p, 0.5, out=_SCRATCH.floats[0, :p.size])
    _standard_quantile(p, q, lo - 0.5, hi - 0.5, tail_log, out)


def inverse_normal_cdf(p, out=None):
    """Standard normal quantile for p in (0, 1), scalar or array.

    Computed by AS241 (see _CENTRAL) in numpy, and exactly antisymmetric:
    the central branch is odd in q = p - 1/2, which is exact, and each tail
    takes min(p, 1 - p), where 1 - p is exact for p >= 0.5.  p is taken in
    blocks of _BLOCK elements, and only the branches that some element of a
    block needs are evaluated, in the thread's scratch, so a sorted block,
    such as a replication chunk, usually runs one branch and allocates
    nothing.  An array result is written into out, a C-contiguous float64
    array shaped like p, when it is given; each block checks its own p, so
    a p outside (0, 1) raises once the blocks before it are written.
    """
    arr = np.asarray(p, dtype=float)
    if out is None:
        out = np.empty(arr.shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == arr.shape and out.flags.c_contiguous):
        raise ValueError("out must be a float64, C-contiguous array shaped like p")
    z = _blockwise(arr, _ndtri_block, out)  # an empty array has no block to refuse
    return float(z) if arr.ndim == 0 else z


@dataclass(frozen=True, eq=False)
class QuantileSource:
    """A loss distribution described by its quantile function.

    Two kinds exist.  A normal source maps p to mean + sd * z(p) through
    `inverse_normal_cdf`.  An empirical source holds samples, a non-empty,
    sorted 1-d float64 array with a finite range, which it makes read-only,
    and interpolates linearly between order statistics (type 7 of
    Hyndman & Fan 1996); `uniform(lo, hi)` is the empirical source of
    [lo, hi] and `constant(v)` that of [v].  The source checks its own
    parameters, so the factories pass theirs straight in; `load_empirical`
    sorts raw losses and names the bad row of a sample it refuses.
    """

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "normal":
            object.__setattr__(self, "mean", float(_real("mean", self.mean)))
            object.__setattr__(self, "sd", float(_real("sd", self.sd)))
            if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
                raise ValueError("normal mean and sd must be finite")
            if not self.sd > 0.0:
                raise ValueError("sd must be positive")
            if not math.isfinite(abs(self.mean) + _DEEPEST_Z * self.sd):
                raise ValueError(f"normal quantiles must stay finite: |mean| + {_DEEPEST_Z} sd overflows")
        else:
            samples = self.samples
            if samples is None or np.size(samples) == 0:
                raise ValueError("empirical source needs at least one sample")
            if not (isinstance(samples, np.ndarray) and samples.ndim == 1 and samples.dtype == np.float64):
                raise ValueError("empirical samples must be a 1-d float64 array")
            if not math.isfinite(float(samples[-1]) - float(samples[0])):
                raise ValueError("empirical samples must be finite, and so must their range")
            # np.diff's own subtraction; with finite ends, rises >= 0 make every sample finite
            steps = np.subtract(samples[1:], samples[:-1])
            if not steps.min(initial=0.0) >= 0.0:
                raise ValueError("empirical samples must be sorted in ascending order")
            samples.flags.writeable = steps.flags.writeable = False
            object.__setattr__(self, "steps", steps)


def standard_normal() -> QuantileSource:
    return normal(0.0, 1.0)


def normal(mean: float, sd: float) -> QuantileSource:
    return QuantileSource(kind="normal", mean=mean, sd=sd)


def constant(value: float) -> QuantileSource:
    return QuantileSource(kind="empirical", samples=np.array([float(_real("value", value))]))


def uniform(lo: float, hi: float) -> QuantileSource:
    if not _real("lo", lo) < _real("hi", hi):
        raise ValueError("uniform support needs lo < hi")
    return QuantileSource(kind="empirical", samples=np.array([float(lo), float(hi)]))


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
    return QuantileSource(kind="empirical", samples=arr)


def read_loss_csv(path) -> QuantileSource:
    """Read a loss file: UTF-8, with or without a byte-order mark, one
    numeric loss per line and an optional 'loss' header line.

    The file is read once, so a pipe or FIFO works as well as a file.  Every
    line is read by Python's float, which numpy applies to the non-empty lines
    in C, and the array goes straight to load_empirical.  A body that numpy
    or load_empirical refuses is parsed again line by line, which skips
    whitespace-only lines and names the bad line.
    """
    try:
        text = Path(path).read_text(encoding=_ENCODING)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    start = 1 if lines and lines[0].strip().lower() == "loss" else 0
    try:
        return load_empirical(np.array(list(filter(None, lines[start:])), dtype=np.float64))
    except ValueError:  # DataError among them
        pass
    return load_empirical(_parse_lines(path, lines, start))


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


def _lookup(p, m, fraction, segment, work):
    """The knot lookup of order-statistic interpolation among m > 1 samples
    at p, a 1-d array in [0, 1], into fraction and segment, float and intp
    rows like p, with work a float row like p; it depends on p and m alone.

    The m samples are knots at the uniform p = j / (m - 1), so p falls in
    segment j = floor(p (m - 1)), which lies below m - 1 for every p < 1,
    at the fraction p (m - 1) - j of it.
    """
    t = np.multiply(p, m - 1, out=fraction)
    # the segment is found as a float and then copied to j, since t -= j would
    # cast j to float through a temporary
    np.floor(t, out=work)
    np.copyto(segment, work, casting="unsafe")
    t -= work


def _gather(source: QuantileSource, fraction, segment, out, work):
    """The interpolated quantile samples[j] + steps[j] fraction from a
    lookup for the source's sample count, into out, with work a float row
    like out; a single sample is flat and needs no lookup."""
    samples = source.samples
    if samples.size == 1:
        out.fill(samples[0])
        return out
    # j lies in [0, m - 2] for p < 1, where clip changes nothing and lets take
    # write out directly; at p = 1, j = m - 1 and t = 0 give samples[m - 1]
    np.take(source.steps, segment, out=work, mode="clip")
    work *= fraction
    np.take(samples, segment, out=out, mode="clip")
    out += work
    return out


def _interpolate(source: QuantileSource, p, out):
    """Order-statistic interpolation at p, a 1-d array in [0, 1] of at most
    _BLOCK elements, into out, an array like it: a lookup into the scratch's
    first knot rows, then a gather."""
    n = p.size
    fraction, segment = _SCRATCH.fraction[:, :n], _SCRATCH.segment[0, :n]
    if source.samples.size > 1:
        _lookup(p, source.samples.size, fraction[0], segment, out)
    return _gather(source, fraction[0], segment, out, fraction[1])


def quantile(source: QuantileSource, p):
    """Quantile of `source` at probability p (scalar or array), p in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if source.kind == "normal":
        # inverse_normal_cdf checks p
        out = source.mean + source.sd * inverse_normal_cdf(arr)
    else:
        if not (arr.min(initial=0.5) > 0.0 and arr.max(initial=0.5) < 1.0):
            raise ValueError("probability must lie strictly inside (0, 1)")
        out = _blockwise(arr, lambda block, out: _interpolate(source, block, out), np.empty(arr.shape))
    return float(out) if arr.ndim == 0 else out


def _limit_quantile(source: QuantileSource, p: float) -> float:
    """Limit of the quantile as p approaches 0 or 1, infinite for a normal
    source."""
    if source.kind == "normal":
        return -math.inf if p == 0.0 else math.inf
    return float(source.samples[0] if p == 0.0 else source.samples[-1])


def _quantile_pair(source: QuantileSource, p, p_mirror, q, q_mirror, work, looked_up=0):
    """Quantiles at the rows p <= 1/2 and p_mirror, their mirrors 1 - p up
    to rounding, written into the rows q and q_mirror, with work a row like
    them.  A normal source evaluates the inverse normal once, at the
    lower-tail p where it is accurate, and reflects it for the mirror.  An
    empirical source gathers at both from the lookups in the scratch's knot
    rows, which it makes first unless looked_up, the sample count whose
    lookups at these p the rows hold (0 for none), is its own.  Returns the
    sample count whose lookups the rows then hold."""
    if source.kind == "normal":
        inverse_normal_cdf(p, out=q)
        q *= source.sd
        np.subtract(source.mean, q, out=q_mirror)
        q += source.mean
        return looked_up
    n, m = p.size, source.samples.size
    fraction, segment = _SCRATCH.fraction[:, :n], _SCRATCH.segment[:, :n]
    if m > 1 and m != looked_up:
        _lookup(p, m, fraction[0], segment[0], q)
        _lookup(p_mirror, m, fraction[1], segment[1], q_mirror)
        looked_up = m
    _gather(source, fraction[0], segment[0], q, work)
    _gather(source, fraction[1], segment[1], q_mirror, work)
    return looked_up


def _upper_block(log_t, out):
    """The upper standard normal quantile z(1 - t) for a block of log t,
    into out."""
    q = _SCRATCH.floats[0, :log_t.size]
    np.subtract(0.5, np.exp(log_t, out=q), out=q)
    q_lo, q_hi = q.min(), q.max()

    def tail_log(log_t, row):
        # -log t, or -log(1 - t) = -log(-expm1(log t)) where t > 1/2
        if q_lo >= 0.0:
            return np.negative(log_t, out=row)
        np.log(np.negative(np.expm1(log_t, out=row), out=row), out=row)
        return np.negative(np.minimum(row, log_t, out=row), out=row)

    _standard_quantile(log_t, q, q_lo, q_hi, tail_log, out)


def _upper_quantile(log_t):
    """Standard normal quantile at p = 1 - t for an array of upper-tail
    probabilities t < 1 given by their logs, so that tails too small to
    hold in a double stay accurate: AS241's at the lower-tail probability
    t, negated.  Its tail branches take r = sqrt(-log t) straight from
    log t, and beyond log t = -729, past their fitted range, the asymptotic
    inversion of _mills_tail; log t = -inf gives z = +inf, without a
    warning."""
    return _blockwise(log_t, _upper_block, np.empty(log_t.shape))


def _standard_form(source: QuantileSource):
    """(loc, scale, knots): normal(mean, sd), whose quantile is mean + sd
    times the standard normal's, gives (mean, sd, None), and a
    piecewise-linear source (0, 1, x), the x_k it interpolates at k / (n - 1)."""
    if source.kind == "normal":
        return source.mean, source.sd, None
    return 0.0, 1.0, source.samples
