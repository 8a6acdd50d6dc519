"""Write tests/normal_references.py: 30-digit spectral risk measures of the
standard normal, and standard normal quantiles at the smallest doubles.

    python tests/make_normal_references.py

Needs mpmath, which the package does not depend on; the tests read only the
numbers this writes.  Each measure is the integral over the weight mass w
in (0, 1) of the upper-tail normal quantile at the tail probability t(w)
that holds the top w of the mass, computed from log t(w) in closed form.
The quantile solves log Phi(-z) = log t by Newton's method where t <= 1/2,
and log Phi(z) = log(1 - t) elsewhere, so neither tail loses digits, and
mp.quad splits the integral at w = 1e-20, 1e-5 and 1/2.  A shifted and
scaled normal's measure is mean + sd times the standard one.  It takes
about a minute.
"""

from pathlib import Path

import mpmath as mp

mp.mp.dps = 45
DIGITS = 30

# (family, parameter) for each case; the parameters are the doubles the
# tests pass, which mpmath reads exactly
CASES = [
    ("exponential", 1e-300), ("exponential", 1e-12), ("exponential", 1e-3),
    ("exponential", 5.0), ("exponential", 1e300),
    ("power", 1e-4), ("power", 0.1), ("power", 0.5), ("power", 1.0 - 1e-9),
    ("es", 1e-9), ("es", 0.95), ("es", 1.0 - 1e-12),
    ("flat", None),
]
# probabilities at which the quantile is pinned
PROBABILITIES = [1e-300, 1e-308, 1e-320, 5e-324]


def log_tail(family, x, w):
    """log t(w), with t the upper-tail probability holding the top w of
    the weight mass."""
    if family == "exponential":
        return mp.log(-mp.log1p(w * mp.expm1(-x))) - mp.log(x)
    if family == "power":
        return mp.log(w) / x
    if family == "es":
        return mp.log(w) + mp.log1p(-x)
    return mp.log(w)


def newton(f, df, z):
    for _ in range(200):
        step = f(z) / df(z)
        z -= step
        if abs(step) <= mp.mpf(10) ** (-mp.mp.dps + 5) * max(1, abs(z)):
            return z
    raise ArithmeticError("Newton's method did not converge")


def upper_quantile(log_t):
    """z with Phi(-z) = t, from log t."""
    if log_t <= -mp.log(2):
        # Phi(-z) = t, z >= 0; start from the asymptotic inversion
        L = -log_t
        z0 = mp.sqrt(2 * L - mp.log(4 * mp.pi * L)) if L > 2 else mp.mpf(0.5)
        return newton(lambda z: mp.log(mp.ncdf(-z)) - log_t,
                      lambda z: -mp.npdf(z) / mp.ncdf(-z), z0)
    # Phi(z) = 1 - t, z < 0
    log_u = mp.log(-mp.expm1(log_t))
    L = -log_u
    z0 = -mp.sqrt(2 * L - mp.log(4 * mp.pi * L)) if L > 2 else mp.mpf(-0.5)
    return newton(lambda z: mp.log(mp.ncdf(z)) - log_u,
                  lambda z: mp.npdf(z) / mp.ncdf(z), z0)


def log_weight(family, x, z):
    """log phi(p) at p = Phi(z), with 1 - p = Phi(-z)."""
    if family == "exponential":
        return mp.log(x) - x * mp.ncdf(-z) - mp.log(-mp.expm1(-x))
    return mp.log(x) + (x - 1) * mp.log(mp.ncdf(-z))


def measure(family, x):
    """The spectral risk measure of the standard normal."""
    if family == "flat":
        return mp.mpf(0)  # the mean
    x = mp.mpf(x)
    if family == "es":
        # phi(z_alpha) / (1 - alpha), at the quantile z_alpha of alpha
        return mp.npdf(upper_quantile(mp.log1p(-x))) / (1 - x)
    if family == "exponential" and x < mp.mpf("1e-100"):
        # The weight's series in a is sum_n B_n(p) a**n / n!, B_n the
        # Bernoulli polynomials: B_0 = 1 gives the mean, 0, B_1 = p - 1/2 gives
        # E[Z Phi(Z)] = 1 / (2 sqrt(pi)), B_2 is even about 1/2 and gives 0,
        # and the rest are a**2 smaller
        return x / (2 * mp.sqrt(mp.pi))
    if (family == "exponential" and x < 1) or (family == "power" and x > 0.5):
        # a weight close to flat: E[Z (phi(Phi(Z)) - 1)] over z, which does
        # not subtract the flat measure, 0, from the value in floating point
        return mp.quad(lambda z: z * mp.expm1(log_weight(family, x, z)) * mp.npdf(z),
                       [-mp.inf, -10, 0, 10, mp.inf])
    return mp.quad(lambda w: upper_quantile(log_tail(family, x, w)),
                   [0, mp.mpf("1e-20"), mp.mpf("1e-5"), 0.5, 1])


def lower_quantile(p):
    """z with Phi(z) = p, for p <= 1/2."""
    return -upper_quantile(mp.log(mp.mpf(p)))


def main():
    lines = [
        '"""30-digit references for normal sources, written by',
        "make_normal_references.py; do not edit by hand.",
        "",
        "MEASURES maps (family, parameter) to the spectral risk measure of the",
        "standard normal; QUANTILES maps a probability to the standard normal",
        'quantile there."""',
        "",
        "MEASURES = {",
    ]
    for family, x in CASES:
        value = mp.nstr(measure(family, x), DIGITS)
        lines.append(f'    ("{family}", {x!r}): "{value}",')
        print(family, x, value, flush=True)
    lines += ["}", "", "QUANTILES = {"]
    for p in PROBABILITIES:
        value = mp.nstr(lower_quantile(p), DIGITS)
        lines.append(f'    {p!r}: "{value}",')
    lines += ["}", ""]
    Path(__file__).with_name("normal_references.py").write_text("\n".join(lines), encoding="utf-8")


if __name__ == "__main__":
    main()
