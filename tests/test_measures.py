"""Risk measure front ends: var, es, srm wrappers, lower partial moments."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import bisect_normal_quantile
from spectral_risk import (
    QuadratureConfig,
    WeightSpec,
    constant,
    es,
    exponential_srm,
    load_empirical,
    lpm,
    power_srm,
    quantile,
    srm,
    srm_converged,
    standard_normal,
    uniform,
    var,
)

ES_95_CLOSED_FORM = 2.0627128075074275


def test_var_is_the_loss_quantile():
    src = standard_normal()
    for alpha in (0.9, 0.95, 0.99):
        assert var(src, alpha) == quantile(src, alpha)
    assert var(src, 0.95) == pytest.approx(bisect_normal_quantile(0.95), abs=1e-9)
    assert var(uniform(1.0, 3.0), 0.75) == pytest.approx(2.5, abs=1e-15)


def test_var_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            var(standard_normal(), alpha)


def test_es_matches_the_normal_closed_form():
    # E[X | X > q_alpha] = pdf(q_alpha) / (1 - alpha) for a standard normal
    assert es(standard_normal(), 0.95) == pytest.approx(ES_95_CLOSED_FORM, abs=1e-6)

    alpha = 0.99
    z = bisect_normal_quantile(alpha)
    ref = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / (1.0 - alpha)
    assert es(standard_normal(), alpha) == pytest.approx(ref, abs=1e-6)


def test_es_with_vanishing_alpha_tends_to_the_mean():
    assert es(standard_normal(), 1e-6) == pytest.approx(0.0, abs=0.01)
    assert es(uniform(1.0, 3.0), 1e-6) == pytest.approx(2.0, abs=0.01)


def test_es_is_the_spectral_measure_of_the_jump_weight():
    src = standard_normal()
    config = QuadratureConfig(scheme="converged", rel_tol=1e-8)
    assert es(src, 0.95, config) == srm(src, WeightSpec.es(0.95), config)
    # default config path pins rel_tol at 1e-9
    default = es(src, 0.95)
    explicit = srm_converged(src, WeightSpec.es(0.95), rel_tol=1e-9).value
    assert default == explicit


def test_es_dominates_var():
    src = standard_normal()
    for alpha in (0.9, 0.95, 0.99):
        assert es(src, alpha) > var(src, alpha)


def test_measures_are_monotone_in_their_risk_parameters():
    src = standard_normal()
    config = QuadratureConfig(n_points=100_001)
    es_vals = [es(src, a, config) for a in (0.9, 0.95, 0.99)]
    assert es_vals[0] < es_vals[1] < es_vals[2]
    exp_vals = [exponential_srm(src, a, config) for a in (1.0, 5.0, 25.0)]
    assert exp_vals[0] < exp_vals[1] < exp_vals[2]
    var_vals = [var(src, a) for a in (0.9, 0.95, 0.99)]
    assert var_vals[0] < var_vals[1] < var_vals[2]


@pytest.mark.parametrize("source", [
    standard_normal(),
    load_empirical(np.random.default_rng(0).lognormal(size=200)),
], ids=["normal", "lognormal-200"])
def test_converged_power_measure_falls_strictly_as_c_rises(source):
    # the power mass 1 - (1 - p) ** c rises with c, so the exact measure falls:
    # each step is larger than the two bounds together
    results = [srm_converged(source, WeightSpec.power(float(c))) for c in np.linspace(0.01, 0.99, 25)]
    for left, right in zip(results, results[1:]):
        assert left.value - right.value > left.estimated_error + right.estimated_error


def test_srm_wrappers_agree_with_the_generic_entry_point():
    src = standard_normal()
    config = QuadratureConfig(n_points=10_001)
    assert exponential_srm(src, 5.0, config) == srm(src, WeightSpec.exponential(a=5.0), config)
    assert power_srm(src, 0.5, config) == srm(src, WeightSpec.power(0.5), config)


def test_srm_converged_config_routes_to_the_adaptive_engine():
    src = standard_normal()
    config = QuadratureConfig(scheme="converged", rel_tol=1e-8)
    direct = srm_converged(src, WeightSpec.power(0.5), rel_tol=1e-8).value
    assert srm(src, WeightSpec.power(0.5), config) == direct


def test_measures_respect_empirical_sample_bounds():
    rng = np.random.default_rng(23)
    x = rng.normal(2.0, 1.5, size=300)
    src = load_empirical(x)
    config = QuadratureConfig(n_points=10_001)
    for value in (
        srm(src, WeightSpec.exponential(a=5.0), config),
        srm(src, WeightSpec.power(0.5), config),
        srm_converged(src, WeightSpec.exponential(a=5.0), rel_tol=1e-8).value,
        es(src, 0.95),
        var(src, 0.95),
    ):
        assert x.min() <= value <= x.max()


def test_constant_losses_price_at_the_constant():
    src = constant(4.2)
    config = QuadratureConfig(n_points=1001)
    assert var(src, 0.95) == 4.2
    assert es(src, 0.95) == pytest.approx(4.2, abs=1e-9)
    assert exponential_srm(src, 25.0, config) == pytest.approx(4.2, abs=1e-6)
    assert power_srm(src, 0.3, QuadratureConfig(scheme="converged")) == pytest.approx(4.2, abs=1e-9)


def test_lpm_hand_computed_cases():
    sample = [1.0, 2.0, 3.0]
    assert lpm(sample, 2.0, 0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert lpm(sample, 2.0, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert lpm(sample, 2.0, 2) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert lpm(sample, 2.5, 1) == pytest.approx((1.5 + 0.5) / 3.0, rel=1e-15)
    assert lpm(sample, 2.5, 0.5) == pytest.approx((math.sqrt(1.5) + math.sqrt(0.5)) / 3.0, rel=1e-14)


def test_lpm_order_zero_counts_only_strict_shortfalls():
    # a sample exactly at the target is not a shortfall: 0 ** 0 counts as 0
    assert lpm([2.0], 2.0, 0) == 0.0
    assert lpm([2.0, 1.0], 2.0, 0) == 0.5
    assert lpm([3.0], 2.0, 0) == 0.0


def test_lpm_input_validation():
    with pytest.raises(ValueError, match="empty"):
        lpm([], 0.0, 1)
    with pytest.raises(ValueError, match="finite"):
        lpm([1.0, math.inf], 0.0, 1)
    with pytest.raises(ValueError, match="order"):
        lpm([1.0], 0.0, -1)
    with pytest.raises(ValueError, match="order"):
        lpm([1.0, 2.0, 3.0], 2.0, math.nan)
    with pytest.raises(ValueError, match="target"):
        lpm([1.0, 2.0, 3.0], math.nan, 1)
    # a 2-d sample would be flattened, a scalar read as one loss
    with pytest.raises(ValueError, match="sample must be a flat sequence of losses"):
        lpm([[1.0, 2.0], [3.0, 4.0]], 2.0, 1)
    with pytest.raises(ValueError, match="sample must be a flat sequence of losses"):
        lpm(1.0, 2.0, 1)


def test_lpm_refuses_a_sample_beyond_a_double_by_name():
    # numpy's float conversion raises OverflowError for an int past 2**1024
    with pytest.raises(ValueError, match="^sample values must lie within the range of a double$"):
        lpm([10**400], 0.0, 1)


def test_lpm_reads_a_fraction_target_and_order_as_their_floats():
    # a Fraction used to reach numpy, which raised a TypeError
    assert lpm([1.0, 2.0], Fraction(3, 2), 1) == lpm([1.0, 2.0], 1.5, 1) == 0.25
    assert lpm([1.0, 2.0], 2.0, Fraction(1, 2)) == lpm([1.0, 2.0], 2.0, 0.5)


@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=30),
       st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
       st.sampled_from([0, 0.5, 1, 2]))
def test_lpm_is_non_negative_and_monotone_in_target(values, t1, t2, order):
    lo, hi = sorted((t1, t2))
    low = lpm(values, lo, order)
    high = lpm(values, hi, order)
    assert low >= 0.0
    assert low <= high + 1e-12
