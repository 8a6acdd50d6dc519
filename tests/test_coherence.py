"""Coherence axioms of spectral measures on piecewise-linear sources.

A spectral risk measure is monotone, translation invariant, positively
homogeneous and comonotonically additive (Acerbi 2002).  On empirical
sources the converged scheme is the closed form, exact up to rounding, so
each axiom must hold to within the sum of the reported error bounds.
"""

import pytest
from hypothesis import given, strategies as st

from spectral_risk import WeightSpec, load_empirical, srm_converged

FAMILIES = {
    "exponential": st.floats(0.01, 200.0).map(lambda a: WeightSpec.exponential(a=a)),
    "power": st.floats(0.01, 0.99).map(WeightSpec.power),
    "es": st.floats(0.01, 0.99).map(WeightSpec.es),
    "flat": st.just(WeightSpec.flat()),
}


def _flush(v):
    return 0.0 if abs(v) < 1e-100 else v


# Losses, and the scales below, either vanish or stay far from the
# subnormal range, where the closed form rightly certifies nothing.
LOSS = st.floats(-1e6, 1e6).map(_flush)


def rho(values, spec):
    result = srm_converged(load_empirical(values), spec, rel_tol=1e-9)
    return result.value, result.estimated_error


def paired(size_from=1):
    """Two equal-size loss samples."""
    return st.integers(size_from, 40).flatmap(
        lambda n: st.tuples(st.lists(LOSS, min_size=n, max_size=n),
                            st.lists(LOSS, min_size=n, max_size=n)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
def test_comonotonic_additivity(family, data):
    spec = data.draw(FAMILIES[family])
    x, y = (sorted(v) for v in data.draw(paired()))
    rx, ex = rho(x, spec)
    ry, ey = rho(y, spec)
    # sorted together, x + y is comonotone: its quantile is the sum of theirs
    rxy, exy = rho([a + b for a, b in zip(x, y)], spec)
    assert abs(rxy - (rx + ry)) <= ex + ey + exy


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
def test_translation_invariance(family, data):
    spec = data.draw(FAMILIES[family])
    x = data.draw(st.lists(LOSS, min_size=1, max_size=40))
    k = data.draw(LOSS)
    rx, ex = rho(x, spec)
    rk, ek = rho([v + k for v in x], spec)
    assert abs(rk - (rx + k)) <= ex + ek


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
def test_positive_homogeneity(family, data):
    spec = data.draw(FAMILIES[family])
    x = data.draw(st.lists(LOSS, min_size=1, max_size=40))
    lam = data.draw(st.floats(0.0, 1e3).map(_flush))
    rx, ex = rho(x, spec)
    rl, el = rho([lam * v for v in x], spec)
    assert abs(rl - lam * rx) <= lam * ex + el


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
def test_monotonicity(family, data):
    spec = data.draw(FAMILIES[family])
    x, bumps = data.draw(paired())
    # y dominates x sample by sample, hence order statistic by order statistic
    y = [a + abs(b) for a, b in zip(x, bumps)]
    rx, ex = rho(x, spec)
    ry, ey = rho(y, spec)
    assert rx <= ry + ex + ey
