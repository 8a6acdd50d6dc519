"""Risk-aversion weight functions, utility helpers, and admissibility checks.

A weight function maps a cumulative probability p in [0, 1] to a
non-negative density over quantiles.  A weight function is admissible as a
spectral risk aversion function when it is non-negative, integrates to one,
and never decreases in p; a stricter variant additionally demands that it
actually rises somewhere, so that worse outcomes get strictly more weight
than some better ones.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError

__all__ = [
    "WeightSpec",
    "AdmissibilityReport",
    "weight",
    "weight_mass",
    "utility_exponential",
    "utility_power",
    "ara",
    "rra",
    "check_admissibility",
]

# the one parameter each weight family takes, None for a family without one
_PARAMETER = {"exponential": "a", "power": "c", "es": "alpha", "flat": None}


@dataclass(frozen=True)
class WeightSpec:
    """A parametric weight family plus its parameter values.

    Families:
      exponential  phi(p) = lambda * exp(-a * (1 - p)),  0 < a < inf
      power        phi(p) = c * (1 - p) ** (c - 1),      0 < c < 1
      es           phi(p) = 1 / (1 - alpha) for p >= alpha, else 0
      flat         phi(p) = 1
    """

    family: str
    a: float | None = None
    c: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _PARAMETER:
            raise ValueError(f"unknown weight family {self.family!r}")
        want = _PARAMETER[self.family]
        for name in ("a", "c", "alpha"):
            val = getattr(self, name)
            if name == want:
                if val is None:
                    raise ValueError(f"{self.family} family needs parameter {name}")
                if isinstance(val, bool) or not isinstance(val, numbers.Real):
                    raise ValueError(f"{self.family} parameter {name} must be a real number, not {val!r}")
            elif val is not None:
                raise ValueError(f"{self.family} family does not take parameter {name}")
        if self.family == "exponential" and not 0.0 < self.a < math.inf:
            raise ValueError("a must be positive and finite")
        if self.family == "power" and not 0.0 < self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")
        if self.family == "es" and not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def lambda_(self) -> float:
        """Normalising constant making the weight integrate to one."""
        if self.family == "exponential":
            # a / (1 - exp(-a)), stable for small a via expm1
            return self.a / -math.expm1(-self.a)
        if self.family == "power":
            return self.c
        if self.family == "es":
            return 1.0 / (1.0 - self.alpha)
        return 1.0

    @classmethod
    def exponential(cls, a: float | None = None, *, gamma: float | None = None) -> "WeightSpec":
        """Exponential family, parameterised by a or by its reciprocal gamma."""
        if (a is None) == (gamma is None):
            raise ValueError("give exactly one of a or gamma")
        if gamma is not None:
            if not gamma > 0.0:
                raise ValueError("gamma must be positive")
            a = 1.0 / gamma
        return cls(family="exponential", a=float(a))

    @classmethod
    def power(cls, c: float) -> "WeightSpec":
        return cls(family="power", c=float(c))

    @classmethod
    def es(cls, alpha: float) -> "WeightSpec":
        return cls(family="es", alpha=float(alpha))

    @classmethod
    def flat(cls) -> "WeightSpec":
        return cls(family="flat")

    def to_json(self) -> str:
        payload = {"family": self.family}
        for name in ("a", "c", "alpha"):
            val = getattr(self, name)
            if val is not None:
                payload[name] = val
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "WeightSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad weight spec JSON: {exc}") from exc
        if not isinstance(payload, dict) or "family" not in payload:
            raise ValueError("weight spec JSON must be an object with a 'family' key")
        extra = set(payload) - {"family", "a", "c", "alpha"}
        if extra:
            raise ValueError(f"unknown weight spec keys: {sorted(extra)}")
        return cls(
            family=payload["family"],
            a=payload.get("a"),
            c=payload.get("c"),
            alpha=payload.get("alpha"),
        )


def _check_unit_interval(arr: np.ndarray):
    if arr.size and not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("p must lie in [0, 1]")


def weight(spec: WeightSpec, p):
    """Evaluate the weight function at p (scalar or array), p in [0, 1].

    The power family diverges at p = 1 and raises there rather than
    returning inf.
    """
    arr = np.asarray(p, dtype=float)
    _check_unit_interval(arr)
    fam = spec.family
    if fam == "exponential":
        out = spec.lambda_ * np.exp(-spec.a * (1.0 - arr))
    elif fam == "power":
        if np.any(arr == 1.0):
            raise SingularityError("power weight diverges at p = 1")
        out = spec.lambda_ * (1.0 - arr) ** (spec.c - 1.0)
    elif fam == "es":
        out = np.where(arr >= spec.alpha, 1.0 / (1.0 - spec.alpha), 0.0)
    else:
        out = np.ones_like(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def weight_mass(spec: WeightSpec, p):
    """Cumulative weight on [0, p]: the integral of the weight up to p."""
    arr = np.asarray(p, dtype=float)
    _check_unit_interval(arr)
    fam = spec.family
    if fam == "exponential":
        # (exp(a p) - 1) / (exp(a) - 1) with exp(-a) taken out of both:
        # no difference of near-equal numbers and no overflow for any a
        a = spec.a
        out = np.exp(-a * (1.0 - arr)) * -np.expm1(-a * arr) / -math.expm1(-a)
    elif fam == "power":
        out = 1.0 - (1.0 - arr) ** spec.c
    elif fam == "es":
        out = np.clip((arr - spec.alpha) / (1.0 - spec.alpha), 0.0, 1.0)
    else:
        out = arr.copy()
    if arr.ndim == 0:
        return float(out)
    return out


def _mass_integral(spec: WeightSpec, t, d):
    """Integral of the weight mass over p in [1 - t - d, 1 - t], i.e.
    G(1 - t) - G(1 - t - d) with G(p) the integral of weight_mass from 0 to
    p, vectorised over upper-tail probabilities t >= 0, for a width
    0 < d <= 1 - t.

    Each form integrates over a segment of width exactly d and subtracts
    no two nearly equal numbers, so short segments keep their relative
    accuracy however many of them tile [0, 1].
    """
    fam = spec.family
    if fam == "exponential":
        a = spec.a
        if a >= 1.0:
            return (np.exp(-a * t) * -np.expm1(-a * d) / a - d * math.exp(-a)) / -math.expm1(-a)
        # For small a the two terms above nearly cancel, and the division by
        # 1 - exp(-a) amplifies what is lost.  Around the segment midpoint m
        # the integral is d [exp(-a) expm1(a (1 - m)) + exp(-a m) (sinh(x)/x - 1)]
        # / (1 - exp(-a)) with x = a d / 2 < 0.5, and sinh(x)/x - 1 is summed
        # as its series to relative accuracy.
        x2 = (0.5 * a * d) ** 2
        shc1 = x2 / 6.0 * (1 + x2 / 20 * (1 + x2 / 42 * (1 + x2 / 72 * (1 + x2 / 110 * (1 + x2 / 156)))))
        mid = t + 0.5 * d
        return d * (math.exp(-a) * np.expm1(a * (1.0 - mid)) + np.exp(-a * mid) * shc1) / -math.expm1(-a)
    if fam == "power":
        c1 = spec.c + 1.0
        top = t + d
        # (top - d)**c1 = top**c1 * exp(c1 * log1p(-d / top)); at t = 0 the
        # log is -inf and its expm1 exactly -1
        with np.errstate(divide="ignore"):
            drop = top**c1 * -np.expm1(c1 * np.log1p(-d / top))
        return d - drop / c1
    if fam == "es":
        beta = 1.0 - spec.alpha
        inside = np.clip(beta - t, 0.0, d)
        return inside * (1.0 - (t + 0.5 * inside) / beta)
    return d * (1.0 - t - 0.5 * d)


def _log_tail_probability(spec: WeightSpec, w):
    """Log of the upper-tail probability t that holds the top w of the
    weight mass, weight_mass(spec, 1 - t) = 1 - w, vectorised over w in
    [0, 1).  In logs, t = w**(1/c) keeps its value where it underflows."""
    w = np.asarray(w, dtype=float)
    fam = spec.family
    with np.errstate(divide="ignore"):
        if fam == "exponential":
            return np.log(-np.log1p(w * math.expm1(-spec.a))) - math.log(spec.a)
        log_w = np.log(w)
    if fam == "power":
        return log_w / spec.c
    if fam == "es":
        return log_w + math.log1p(-spec.alpha)
    return log_w


def utility_exponential(x, a: float):
    """Exponential utility -exp(-a x); constant absolute risk aversion a."""
    if not a > 0.0:
        raise ValueError("a must be positive")
    out = -np.exp(-a * np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def utility_power(x, c: float):
    """Power utility x**(1 - c) / (1 - c) for x > 0; constant relative risk aversion c."""
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("x must be positive")
    out = arr ** (1.0 - c) / (1.0 - c)
    return float(out) if np.ndim(x) == 0 else out


def ara(utility, x: float, step: float = 1e-4) -> float:
    """Absolute risk aversion -u''(x)/u'(x) by central differences."""
    if not step > 0.0:
        raise ValueError("step must be positive")
    up = utility(x + step)
    u0 = utility(x)
    um = utility(x - step)
    d1 = (up - um) / (2.0 * step)
    if abs(d1) < 1e-12:
        raise ValueError(f"utility derivative vanishes near x = {x}")
    d2 = (up - 2.0 * u0 + um) / (step * step)
    return -d2 / d1


def rra(utility, x: float, step: float = 1e-4) -> float:
    """Relative risk aversion -x u''(x)/u'(x) by central differences."""
    return x * ara(utility, x, step)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility checks for a candidate weight function.

    Evidence fields hold the worst case seen even when a check passes:
    positivity_worst is (p, value) at the minimum, increasingness_worst is
    (p_left, p_right, rise) for the most decreasing adjacent pair.
    """

    positivity: bool
    positivity_worst: tuple[float, float]
    normalisation: bool
    normalisation_integral: float
    increasingness: bool
    increasingness_worst: tuple[float, float, float]
    strict_rise: bool
    grid_size: int

    @property
    def admissible(self) -> bool:
        return self.positivity and self.normalisation and self.increasingness and self.strict_rise

    def to_dict(self) -> dict:
        return {
            "positivity": self.positivity,
            "positivity_worst_p": self.positivity_worst[0],
            "positivity_worst_value": self.positivity_worst[1],
            "normalisation": self.normalisation,
            "normalisation_integral": self.normalisation_integral,
            "increasingness": self.increasingness,
            "increasingness_worst_p_left": self.increasingness_worst[0],
            "increasingness_worst_p_right": self.increasingness_worst[1],
            "increasingness_worst_rise": self.increasingness_worst[2],
            "strict_rise": self.strict_rise,
            "grid_size": self.grid_size,
            "admissible": self.admissible,
        }


def _as_weight_fn(candidate):
    if isinstance(candidate, WeightSpec):
        return lambda p: weight(candidate, p)
    if callable(candidate):
        return candidate
    raise TypeError("candidate must be a WeightSpec or a callable of p")


def _eval_grid(fn, ps: np.ndarray) -> np.ndarray:
    """Evaluate fn on ps, tolerating callables that only accept scalars or
    that blow up at individual points (those points come back as nan)."""
    try:
        vals = np.asarray(fn(ps), dtype=float)
        if vals.shape == ps.shape:
            return vals
    except (ValueError, TypeError, ArithmeticError):
        pass
    out = np.empty_like(ps)
    for i, p in enumerate(ps):
        try:
            out[i] = float(fn(float(p)))
        except (ValueError, TypeError, ArithmeticError):
            out[i] = math.nan
    return out


# the admissibility integral's panels, and its check grid, end at p = 1 - 2**-k
# for k <= _DYADIC_DEPTH; below width 2**-39 a 65-point panel loses distinct nodes
_DYADIC_DEPTH = 39


def _panel_simpson(fn, lo: float, hi: float, n: int = 65) -> float:
    xs = np.linspace(lo, hi, n)
    ys = _eval_grid(fn, xs)
    coef = np.full(n, 2.0)
    coef[1::2] = 4.0
    coef[0] = coef[-1] = 1.0
    h = (hi - lo) / (n - 1)
    return float(coef @ ys) * h / 3.0


def _refine_panel(fn, lo, hi, whole, tol, depth=48):
    mid = 0.5 * (lo + hi)
    left = _panel_simpson(fn, lo, mid)
    right = _panel_simpson(fn, mid, hi)
    delta = left + right - whole
    if not math.isfinite(delta):
        return math.nan
    if abs(delta) <= 15.0 * tol or depth <= 0:
        return left + right + delta / 15.0
    return (
        _refine_panel(fn, lo, mid, left, 0.5 * tol, depth - 1)
        + _refine_panel(fn, mid, hi, right, 0.5 * tol, depth - 1)
    )


def _weight_integral(fn, tol: float = 1e-14) -> float:
    """Integrate a candidate weight over [0, 1].

    Panel k spans [1 - 2**(1 - k), 1 - 2**-k], so the widths halve toward
    p = 1 and integrable singularities there (the power family for small
    c) stay outside every evaluated panel.  The march ends at k =
    _DYADIC_DEPTH; the tail beyond is completed as a geometric sum with
    the ratio of the last two panels.  That completion is exact for a
    power-law tail, which is the singular case, and for a weight that is
    flat near p = 1, as a steep exponential is on the scale of the last
    panels.
    """
    total = part = rest = 0.0
    for k in range(1, _DYADIC_DEPTH + 1):
        lo, hi = 1.0 - 2.0 ** (1 - k), 1.0 - 2.0**-k
        prev, part = part, _refine_panel(fn, lo, hi, _panel_simpson(fn, lo, hi), tol)
        total += part
        if not math.isfinite(total):
            return total
        ratio = part / prev if prev != 0.0 else 0.0
        rest = 0.0
        if 0.0 < ratio < 1.0:
            rest = part * ratio / (1.0 - ratio)
            if abs(rest) < 1e-9:
                break
    return total + rest


def check_admissibility(candidate, grid_size: int = 1001) -> AdmissibilityReport:
    """Check a WeightSpec or callable against the admissibility conditions.

    Positivity, increasingness and the strict rise are checked on grid_size
    uniform points strictly inside (0, 1) and, beyond them, the ends
    1 - 2**-k of the integral's panels, up to 2**-39 from p = 1, so a weight
    held close to p = 1 still shows its rise.  Normalisation integrates the
    candidate over [0, 1]; non-finite values fail checks, never raise.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    fn = _as_weight_fn(candidate)
    ps = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    dyadic = 1.0 - 2.0 ** -np.arange(1.0, _DYADIC_DEPTH + 1)
    ps = np.concatenate((ps, dyadic[dyadic > ps[-1]]))
    vals = _eval_grid(fn, ps)

    finite = np.isfinite(vals)
    if np.all(finite):
        i = int(np.argmin(vals))
        positivity = bool(vals[i] >= 0.0)
    else:
        i = int(np.argmax(~finite))
        positivity = False
    positivity_worst = (float(ps[i]), float(vals[i]))

    rises = np.diff(vals)
    with np.errstate(invalid="ignore"):
        increasingness = bool(np.all(rises >= -1e-12))
        strict_rise = bool(np.any(rises > 0.0))
    if np.all(np.isnan(rises)):
        j = 0
    else:
        j = int(np.nanargmin(rises))
    increasingness_worst = (float(ps[j]), float(ps[j + 1]), float(rises[j]))

    integral = _weight_integral(fn)
    normalisation = bool(math.isfinite(integral) and abs(integral - 1.0) <= 1e-6)

    return AdmissibilityReport(
        positivity=positivity,
        positivity_worst=positivity_worst,
        normalisation=normalisation,
        normalisation_integral=float(integral),
        increasingness=increasingness,
        increasingness_worst=increasingness_worst,
        strict_rise=strict_rise,
        grid_size=grid_size,
    )
