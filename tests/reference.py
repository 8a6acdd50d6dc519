"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately slow and simple: plain bisection against
the complementary error function for normal quantiles, a textbook Simpson
loop for integrals, a whole-grid Simpson dot product, and the direct
order-statistic interpolation formula for empirical quantiles, which the
two combine into a segment-by-segment spectral measure, and a seeded Monte
Carlo mean that draws, maps and sums all its uniforms as one array, taking
the map from uniforms to losses as an argument, and a folded replication loop
that evaluates the quantiles at every node, taking the quantile and weight
maps as arguments.  None of it shares code with the package.
"""

import math

import numpy as np


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


def simpson_grid(y, h):
    """Composite Simpson over the values y at every node of a uniform grid
    with step h: one dot product with the 1, 4, 2, ..., 2, 4, 1 weights."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of at least 3 values")
    coef = np.where(np.arange(n) % 2 == 1, 4.0, 2.0)
    coef[0] = coef[-1] = 1.0
    return float(coef @ y) * h / 3.0


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


def monte_carlo_one_array(loss, n_draws, seed):
    """Mean and standard error of loss(u) over the first n_draws uniforms of
    default_rng([seed]), drawn, mapped and summed by np.sum as one array,
    with the sums of |loss| and of its square that bound their rounding."""
    x = loss(np.random.default_rng([seed]).random(n_draws))
    total, total_sq = float(np.sum(x)), float(np.sum(x * x))
    mean = total / n_draws
    var = max(total_sq - n_draws * mean * mean, 0.0) / (n_draws - 1)
    return mean, math.sqrt(var / n_draws), float(np.sum(np.abs(x))), total_sq


def replication_every_node(quantile_pair, weight, n, policy, eps, ends, chunk=1 << 13):
    """Composite Simpson over the uniform n-point grid on [0, 1], folded:
    nodes k = 1 .. (n - 1) / 2 in chunks of chunk nodes, each paired with
    its mirror n - 1 - k, the middle node halved, and every chunk's
    quantiles evaluated whatever its weights.  quantile_pair(p, p_mirror)
    and weight(p) map arrays; ends holds the two endpoint integrand
    values, and clip_epsilon clips the other nodes to [eps, 1 - eps].
    Each chunk adds 4 times its even-position sum and 2 times its odd one.
    """
    h = 1.0 / (n - 1)
    mid = (n - 1) // 2
    total = ends[0] + ends[1]
    for start in range(1, mid + 1, chunk):
        k = np.arange(start, min(start + chunk, mid + 1), dtype=float)
        p, p_mirror = k * h, (n - 1 - k) * h
        if policy == "clip_epsilon":
            p, p_mirror = np.maximum(p, eps), np.minimum(p_mirror, 1.0 - eps)
        q, q_mirror = quantile_pair(p, p_mirror)
        y = weight(p) * q + weight(p_mirror) * q_mirror
        if k[-1] == mid:
            y[-1] *= 0.5
        total += 4.0 * float(y[0::2].sum()) + 2.0 * float(y[1::2].sum())
    return total * h / 3.0
