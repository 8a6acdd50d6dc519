"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately slow and simple: plain bisection against
the complementary error function for normal quantiles, a textbook Simpson
loop for integrals, and the direct order-statistic interpolation formula
for empirical quantiles, which the two combine into a segment-by-segment
spectral measure.  None of it shares code with the package.
"""

import math


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bisect_normal_quantile(p, lo=-40.0, hi=40.0):
    """Standard normal quantile by bisection on the erfc-based CDF.

    erfc quantises near 2, so the CDF cannot resolve upper-tail
    probabilities; reflecting through symmetry keeps the oracle on the
    accurate lower tail for every p.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if p > 0.5:
        return -bisect_normal_quantile(1.0 - p, lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simpson_slow(f, lo, hi, n):
    """Composite Simpson rule, one scalar call per node; n odd."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    h = (hi - lo) / (n - 1)
    total = f(lo) + f(hi)
    for i in range(1, n - 1):
        total += (4.0 if i % 2 else 2.0) * f(lo + i * h)
    return total * h / 3.0


def interp_quantile(sorted_samples, p):
    """Linear interpolation between order statistics at rank (n - 1) p + 1."""
    n = len(sorted_samples)
    if n == 1:
        return sorted_samples[0]
    h = (n - 1) * p
    k = min(int(math.floor(h)), n - 2)
    g = h - k
    return sorted_samples[k] + g * (sorted_samples[k + 1] - sorted_samples[k])


def segment_simpson_srm(sorted_samples, weight, panels=8):
    """Integral of weight(p) * q(p) over [0, 1] for the order-statistic
    interpolation q, by composite Simpson on each segment between adjacent
    order statistics, where q is linear; one scalar call per node."""
    n = len(sorted_samples)
    if n == 1:
        return sorted_samples[0] * simpson_slow(weight, 0.0, 1.0, 2 * panels + 1)
    total = 0.0
    for k in range(n - 1):
        lo, hi = k / (n - 1), (k + 1) / (n - 1)
        x0, x1 = sorted_samples[k], sorted_samples[k + 1]

        def f(p):
            return weight(p) * (x0 + (p - lo) * (n - 1) * (x1 - x0))

        total += simpson_slow(f, lo, hi, 2 * panels + 1)
    return total
