"""Risk-aversion weight functions, utility helpers, and admissibility checks.

A weight function maps a cumulative probability p in [0, 1] to a
non-negative density over quantiles.  A weight function is admissible as a
spectral risk aversion function when it is non-negative, integrates to one,
and never decreases in p; a stricter variant additionally demands that it
actually rises somewhere, so that worse outcomes get strictly more weight
than some better ones.  A weight is a WeightSpec: each family is the
normalised marginal utility of an increasing, concave utility, so every
family is admissible by construction, and flat, whose utility is affine,
fails only the strict rise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import SingularityError, _instance, _integer, _real

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

    Families, each the normalised marginal utility
    phi(p) = U'(1 - p) / (U(1) - U(0)) of a utility U on [0, 1]:
      exponential  phi(p) = lambda * exp(-a * (1 - p)),  0 < a < inf   U(x) = -exp(-a x)
      power        phi(p) = c * (1 - p) ** (c - 1),      0 < c < 1     U(x) = x ** c
      es           phi(p) = 1 / (1 - alpha) for p >= alpha, else 0     U(x) = min(x, 1 - alpha)
      flat         phi(p) = 1                                          U(x) = x
    The exponential U has absolute risk aversion a, the power U relative
    risk aversion 1 - c.
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
                object.__setattr__(self, name, _real(name, val))
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
            if not _real("gamma", gamma) > 0.0:
                raise ValueError("gamma must be positive")
            a = 1.0 / gamma
        return cls(family="exponential", a=a)

    @classmethod
    def power(cls, c: float) -> "WeightSpec":
        return cls(family="power", c=c)

    @classmethod
    def es(cls, alpha: float) -> "WeightSpec":
        return cls(family="es", alpha=alpha)

    @classmethod
    def flat(cls) -> "WeightSpec":
        return cls(family="flat")

    def to_json(self) -> str:
        return json.dumps({name: val for name, val in asdict(self).items() if val is not None})

    @classmethod
    def from_json(cls, text: str) -> "WeightSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad weight spec JSON: {exc}") from exc
        if not isinstance(payload, dict) or "family" not in payload:
            raise ValueError("weight spec JSON must be an object with a 'family' key")
        extra = set(payload) - {field.name for field in fields(cls)}
        if extra:
            raise ValueError(f"unknown weight spec keys: {sorted(extra)}")
        return cls(**payload)


def _check_unit_interval(arr: np.ndarray):
    # one pass for each extreme; the initial value lets an empty array pass,
    # and a nan fails both tests
    if not (arr.min(initial=0.5) >= 0.0 and arr.max(initial=0.5) <= 1.0):
        raise ValueError("p must lie in [0, 1]")


def weight(spec: WeightSpec, p):
    """Evaluate the weight function at p (scalar or array), p in [0, 1].

    The power family diverges at p = 1 and raises there rather than
    returning inf.
    """
    _instance("spec", spec, WeightSpec)
    arr = np.asarray(p, dtype=float)
    _check_unit_interval(arr)
    if spec.family == "power" and np.any(arr == 1.0):
        raise SingularityError("power weight diverges at p = 1")
    out = _weight(spec, arr)
    return float(out) if arr.ndim == 0 else out


def _weight(spec: WeightSpec, p: np.ndarray, out=None) -> np.ndarray:
    """The weight at a float array p in [0, 1], below 1 for power, unchecked,
    written into out, a float array shaped like p, when it is given."""
    fam = spec.family
    # formed in place, in an out= array even at 0-d: np.exp(out=) refuses a numpy scalar
    if out is None:
        out = np.empty_like(p)
    if fam == "flat":
        out.fill(1.0)
        return out
    if fam == "es":
        # 1.0 or 0.0 at each node, times lambda: lambda or +0.0
        np.greater_equal(p, spec.alpha, out=out)
    else:
        np.subtract(1.0, p, out=out)
        if fam == "exponential":
            out *= -spec.a
            np.exp(out, out=out)
        else:
            np.power(out, spec.c - 1.0, out=out)
    out *= spec.lambda_
    return out


def _zero_below(spec: WeightSpec) -> float:
    """The p below which the weight is exactly zero: alpha for es, 0 for
    power and flat, and 1 - 746 / a for the exponential, where a (1 - p)
    exceeds 746 and exp(-a (1 - p)) is +0.0, as exp is below -745.14."""
    if spec.family == "exponential":
        return 1.0 - 746.0 / spec.a
    return spec.alpha if spec.family == "es" else 0.0


def weight_mass(spec: WeightSpec, p):
    """Cumulative weight on [0, p]: the integral of the weight up to p."""
    _instance("spec", spec, WeightSpec)
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
    return float(out) if arr.ndim == 0 else out


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
    [0, 1).  In logs, t = w**(1/c) keeps its value where it underflows.

    The exponential's t = -log1p(w e) / a, with e = expm1(-a), is taken as
    log(w log1p(w e) / (w e)) + log(-e / a): no two terms cancel, as
    log(-log1p(w e)) and log a do for a small a, and where w e underflows
    to 0 the ratio is its limit, 1, so t keeps its value.  Its rounding can
    carry t to 1 near w = 1, so its log t is held at or below -2**-53, where
    every other family's lies, and p = 1 - t stays above 0."""
    w = np.asarray(w, dtype=float)
    fam = spec.family
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if fam == "exponential":
            e = math.expm1(-spec.a)
            we = w * e
            # log1p(x) / x >= 1 for x in (-1, 0]; fmax turns the 0 / 0 at we = 0 into 1
            log_t = np.log(w * np.fmax(np.log1p(we) / we, 1.0)) + math.log(-e / spec.a)
            return np.minimum(log_t, -(2.0**-53))
        log_w = np.log(w)
        if fam == "power":
            # overflows to -inf for a tiny c; the engines name the node it reaches
            return log_w / spec.c
    if fam == "es":
        return log_w + math.log1p(-spec.alpha)
    return log_w


def utility_exponential(x, a: float):
    """Exponential utility -exp(-a x), constant absolute risk aversion a;
    its normalised marginal utility is the weight WeightSpec.exponential(a)."""
    a = _real("a", a)
    if not 0.0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    out = -np.exp(-a * np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def utility_power(x, c: float):
    """Power utility x**(1 - c) / (1 - c) for x > 0, constant relative risk
    aversion c; the weight WeightSpec.power(c) comes from utility_power(x,
    1 - c), that is from relative risk aversion 1 - c."""
    c = _real("c", c)
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("x must be positive")
    out = arr ** (1.0 - c) / (1.0 - c)
    return float(out) if np.ndim(x) == 0 else out


def ara(utility, x: float, step: float = 1e-4) -> float:
    """Absolute risk aversion -u''(x)/u'(x) by central differences."""
    x, step = _real("x", x), _real("step", step)
    if not step > 0.0:
        raise ValueError("step must be positive")
    up = utility(x + step)
    u0 = utility(x)
    um = utility(x - step)
    if not all(map(math.isfinite, (up, u0, um))):
        raise ValueError(f"utility is not finite near x = {x}")
    # the derivative vanishes only when the difference is lost in rounding;
    # a small derivative of a small utility is still measured
    if not abs(up - um) > 8.0 * np.finfo(float).eps * max(abs(up), abs(um)):
        raise ValueError(f"utility derivative vanishes near x = {x}")
    d1 = (up - um) / (2.0 * step)
    d2 = (up - 2.0 * u0 + um) / (step * step)
    return -d2 / d1


def rra(utility, x: float, step: float = 1e-4) -> float:
    """Relative risk aversion -x u''(x)/u'(x) by central differences."""
    return x * ara(utility, x, step)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility checks for a WeightSpec.

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


# the check grid ends with the points 1 - 2**-k beyond the uniform points, for
# k <= _DYADIC_DEPTH; `srm validate` reports the worst points of this grid,
# and its output is pinned, so the grid stays as it is
_DYADIC_DEPTH = 39


def check_admissibility(spec: WeightSpec, grid_size: int = 1001) -> AdmissibilityReport:
    """Check a WeightSpec against the admissibility conditions.

    Positivity and increasingness are checked on grid_size uniform points
    strictly inside (0, 1) and the points 1 - 2**-k beyond them, up to
    2**-39 from p = 1.  Unit mass and strict rise are fixed by the spec's
    construction: every family is normalised, and every family but flat
    rises.  weight refuses a spec that is not a WeightSpec.
    """
    if _integer("grid_size", grid_size) < 3:
        raise ValueError("grid_size must be at least 3")
    ps = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    dyadic = 1.0 - 2.0 ** -np.arange(1.0, _DYADIC_DEPTH + 1)
    ps = np.concatenate((ps, dyadic[dyadic > ps[-1]]))
    vals = weight(spec, ps)
    rises = np.diff(vals)
    i = int(np.argmin(vals))
    j = int(np.argmin(rises))
    return AdmissibilityReport(
        positivity=bool(vals[i] >= 0.0),
        positivity_worst=(float(ps[i]), float(vals[i])),
        normalisation=True,
        normalisation_integral=1.0,
        increasingness=bool(np.all(rises >= -1e-12)),
        increasingness_worst=(float(ps[j]), float(ps[j + 1]), float(rises[j])),
        strict_rise=spec.family != "flat",
        grid_size=int(grid_size),
    )
