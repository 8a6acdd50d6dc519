"""Quadrature engines: replication grid, converged refinement, Monte Carlo."""

import math
from fractions import Fraction

import numpy as np
import pytest

from reference import segment_simpson_srm, simpson_grid, simpson_slow
from spectral_risk import (
    ConvergenceError,
    NumericalError,
    QuadratureConfig,
    WeightSpec,
    constant,
    convergence_study,
    load_empirical,
    normal,
    quantile,
    simpson_composite,
    srm_converged,
    srm_monte_carlo,
    srm_replication,
    standard_normal,
    uniform,
    weight,
    weight_mass,
)
from spectral_risk.distributions import _upper_quantile
from spectral_risk.quadrature import _CHUNK, _endpoint_integrand, _tanh_sinh
from spectral_risk.risk_aversion import _log_tail_probability

# high-precision values computed independently for these source and weight
# pairs; the converged scheme at rel_tol 1e-9 must land within 5e-9 of them
NORMAL_EXPONENTIAL_REFS = {
    1.0: 0.278064026759,
    5.0: 1.081568672554,
    25.0: 1.954911588653,
    100.0: 2.505578999399,
}
NORMAL_POWER_REFS = {
    0.1: 3.263930690230,
    0.5: 0.704307219811,
    0.9: 0.096791160789,
}
ES_95_CLOSED_FORM = 2.0627128075074275


def test_simpson_composite_is_exact_for_cubics():
    assert simpson_composite(lambda x: x * x, 0.0, 1.0, 11) == pytest.approx(1.0 / 3.0, abs=2e-15)
    assert simpson_composite(lambda x: x**3, 0.0, 1.0, 11) == pytest.approx(0.25, abs=2e-15)


def test_simpson_composite_converges_on_smooth_integrands():
    got = simpson_composite(np.exp, 0.0, 1.0, 1001)
    assert got == pytest.approx(math.e - 1.0, abs=1e-10)


def test_simpson_composite_matches_slow_oracle():
    f = lambda x: np.sin(3.0 * x) + x
    got = simpson_composite(f, 0.0, 2.0, 201)
    ref = simpson_slow(lambda x: math.sin(3.0 * x) + x, 0.0, 2.0, 201)
    assert got == pytest.approx(ref, rel=1e-13)


def test_simpson_composite_chunking_is_seamless():
    # grid larger than one evaluation chunk; exact for a linear integrand
    got = simpson_composite(lambda x: x, 0.0, 1.0, 2_097_153)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_simpson_composite_on_a_single_panel():
    f = lambda x: np.exp(x) * np.sin(x)
    ref = simpson_grid(f(np.array([0.0, 0.75, 1.5])), 0.75)
    assert simpson_composite(f, 0.0, 1.5, 3) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("n,node", [(3, 0.0), (3, 1.0), (5, 0.25), (5, 0.75), (7, 0.5)])
def test_simpson_composite_names_the_node_that_is_not_finite(n, node):
    # endpoints, a node of either half, and the middle node
    f = lambda x: np.where(x == node, np.nan, x)
    with pytest.raises(NumericalError, match="not finite") as exc_info:
        simpson_composite(f, 0.0, 1.0, n)
    message = str(exc_info.value)
    assert message.endswith(f"x = {node!r}")
    assert "np.float64" not in message


def test_simpson_composite_input_validation():
    with pytest.raises(ValueError, match="odd"):
        simpson_composite(np.exp, 0.0, 1.0, 10)
    with pytest.raises(ValueError, match="lo < hi"):
        simpson_composite(np.exp, 1.0, 1.0, 11)
    with pytest.raises(NumericalError, match="not finite") as exc_info, np.errstate(divide="ignore"):
        simpson_composite(lambda x: 1.0 / x, 0.0, 1.0, 11)
    assert "np.float64" not in str(exc_info.value)
    with pytest.raises(NumericalError, match="one value per node"):
        simpson_composite(lambda x: 1.0, 0.0, 1.0, 11)


def test_quadrature_config_validation():
    with pytest.raises(ValueError, match="odd"):
        QuadratureConfig(n_points=1000)
    with pytest.raises(ValueError, match="odd"):
        QuadratureConfig(n_points=1)
    with pytest.raises(ValueError, match="endpoint policy"):
        QuadratureConfig(endpoint_policy="reflect")
    with pytest.raises(ValueError, match="epsilon"):
        QuadratureConfig(epsilon=0.5)
    # at or below 2**-54 the clip point 1 - epsilon rounds to 1
    for epsilon in (2.0**-54, 1e-300):
        with pytest.raises(ValueError, match="epsilon"):
            QuadratureConfig(epsilon=epsilon)
    assert QuadratureConfig(epsilon=2.0**-53).epsilon == 2.0**-53
    with pytest.raises(ValueError, match="scheme"):
        QuadratureConfig(scheme="magic")
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureConfig(rel_tol=0.0)


def test_replication_recovers_a_constant_loss_with_a_steep_weight():
    config = QuadratureConfig(n_points=1001)
    result = srm_replication(constant(4.2), WeightSpec.exponential(a=25.0), config)
    assert result.value == pytest.approx(4.2, abs=1e-6)
    assert result.n_points == 1001
    assert result.scheme == "replication"
    assert result.endpoint_policy == "zero_endpoints"
    assert result.estimated_error is None


def test_replication_zero_and_clip_policies_agree_on_smooth_cases():
    spec = WeightSpec.exponential(a=5.0)
    src = standard_normal()
    zero = srm_replication(src, spec, QuadratureConfig(n_points=100_001))
    clip = srm_replication(
        src, spec, QuadratureConfig(n_points=100_001, endpoint_policy="clip_epsilon")
    )
    assert zero.value == pytest.approx(clip.value, abs=1e-3)
    assert clip.endpoint_policy == "clip_epsilon"


@pytest.mark.parametrize("policy", ["zero_endpoints", "clip_epsilon"])
def test_uniform_replication_is_the_two_sample_empirical_value(policy):
    config = QuadratureConfig(n_points=10_001, endpoint_policy=policy)
    for spec in (WeightSpec.exponential(a=5.0), WeightSpec.power(0.1), WeightSpec.es(0.95)):
        got = srm_replication(uniform(-1.5, 2.25), spec, config).value
        assert got == srm_replication(load_empirical([-1.5, 2.25]), spec, config).value


def test_replication_requires_its_own_scheme():
    with pytest.raises(ValueError, match="replication"):
        srm_replication(standard_normal(), WeightSpec.flat(), QuadratureConfig(scheme="converged"))


def test_replication_is_deterministic():
    config = QuadratureConfig(n_points=10_001)
    spec = WeightSpec.power(0.5)
    src = load_empirical(np.random.default_rng(5).normal(size=400))
    a = srm_replication(src, spec, config).value
    b = srm_replication(src, spec, config).value
    assert a == b


def test_replication_is_positively_homogeneous_on_samples():
    # the grid value is a weighted sum of interpolated order statistics, so
    # doubling every sample must exactly double the measure
    rng = np.random.default_rng(17)
    x = rng.normal(size=250)
    config = QuadratureConfig(n_points=10_001)
    spec = WeightSpec.exponential(a=5.0)
    one = srm_replication(load_empirical(x), spec, config).value
    two = srm_replication(load_empirical(2.0 * x), spec, config).value
    assert two == 2.0 * one


def _grid_reference(source, spec, n, policy, eps=1e-9):
    """Replication value from the integrand at every node of the grid,
    summed by the whole-grid Simpson dot product."""
    p = np.arange(n) * (1.0 / (n - 1))
    p[-1] = 1.0
    if policy == "clip_epsilon":
        pe = np.clip(p, eps, 1.0 - eps)
        y = weight(spec, pe) * quantile(source, pe)
    else:
        y = np.empty(n)
        y[1:-1] = weight(spec, p[1:-1]) * quantile(source, p[1:-1])
        y[0] = _endpoint_integrand(source, spec, 0.0)
        y[-1] = _endpoint_integrand(source, spec, 1.0)
    return simpson_grid(y, 1.0 / (n - 1))


# grid sizes whose folded lower half, nodes 1 to (n - 1) / 2, ends one node
# before, on, and one node after the end of the first chunk
_CHUNK_EDGE_SIZES = (2 * _CHUNK - 1, 2 * _CHUNK + 1, 2 * _CHUNK + 3)


@pytest.mark.parametrize("policy", ["zero_endpoints", "clip_epsilon"])
@pytest.mark.parametrize("spec", [
    WeightSpec.exponential(a=5.0), WeightSpec.power(0.5), WeightSpec.es(0.9), WeightSpec.flat(),
], ids=["exponential", "power", "es", "flat"])
@pytest.mark.parametrize("source", [
    normal(0.3, 1.2),
    load_empirical(np.random.default_rng(29).normal(0.3, 1.2, 500)),
    uniform(-1.5, 2.25),
    constant(4.2),
], ids=["normal", "empirical-500", "uniform", "constant"])
def test_replication_matches_the_whole_grid_simpson_reference(source, spec, policy):
    for n in (3, 5, 7, *_CHUNK_EDGE_SIZES):
        config = QuadratureConfig(n_points=n, endpoint_policy=policy)
        got = srm_replication(source, spec, config).value
        ref = _grid_reference(source, spec, n, policy)
        assert abs(got - ref) <= max(1e-12 * abs(ref), 1e-15), n


@pytest.mark.parametrize("a,ref", sorted(NORMAL_EXPONENTIAL_REFS.items()))
def test_converged_matches_independent_references_exponential(a, ref):
    result = srm_converged(standard_normal(), WeightSpec.exponential(a=a), rel_tol=1e-9)
    assert result.value == pytest.approx(ref, abs=5e-9)
    assert abs(result.value - ref) <= max(result.estimated_error, 5e-9)
    assert result.scheme == "converged"
    assert result.endpoint_policy == "open_interval"
    assert result.n_points > 0


@pytest.mark.parametrize("c,ref", sorted(NORMAL_POWER_REFS.items()))
def test_converged_matches_independent_references_power(c, ref):
    result = srm_converged(standard_normal(), WeightSpec.power(c), rel_tol=1e-9)
    assert result.value == pytest.approx(ref, abs=5e-9)


# 20-digit values of the integral over w of the upper-tail quantile at
# t = w**(1/c), by mpmath at 40 digits; t falls below 1e-300 for
# w < 1e-300**c, a thousandth of the mass at c = 0.01 and half at 0.001
@pytest.mark.parametrize("c,ref", [(0.01, 12.192169053533227246), (0.001, 39.483177811456409022)])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_converged_resolves_tails_a_double_cannot_hold(c, ref, rel_tol):
    result = srm_converged(standard_normal(), WeightSpec.power(c), rel_tol=rel_tol)
    assert abs(result.value - ref) <= result.estimated_error
    assert result.estimated_error <= rel_tol * ref


def test_converged_integrates_the_standard_normal_where_a_deep_tail_quantile_overflows():
    # at c = 0.05 the outermost tanh-sinh node has z = 58, and 58 sd
    # overflows a double at sd = 4e306; in standard units it does not
    got = srm_converged(normal(0.0, 4e306), WeightSpec.power(0.05), rel_tol=1e-6)
    assert got.value == pytest.approx(4e306 * 5.034351983089521, rel=1e-12)
    got = srm_converged(normal(0.0, 1e306), WeightSpec.power(0.05), rel_tol=1e-6)
    assert got.value == pytest.approx(1e306 * 5.034351983089521, rel=1e-12)
    # a measure beyond the float range still fails loudly
    with pytest.raises(NumericalError, match="overflows"):
        srm_converged(normal(0.0, 4.6e306), WeightSpec.power(0.001), rel_tol=1e-6)


@pytest.mark.parametrize("mean,sd", [(50.0, 0.5), (-3.0, 2.0)])
def test_converged_normal_is_the_rescaled_standard_normal(mean, sd):
    spec = WeightSpec.exponential(a=5.0)
    std = srm_converged(standard_normal(), spec, rel_tol=1e-10)
    got = srm_converged(normal(mean, sd), spec, rel_tol=1e-10)
    assert std.n_points == 115
    assert got.n_points == std.n_points
    assert got.value == mean + sd * std.value
    # the bound scales with sd, plus the rounding of mean + sd * value
    assert sd * std.estimated_error < got.estimated_error
    assert got.estimated_error <= sd * std.estimated_error + 2**-51 * (abs(mean) + sd * std.value)


def _distance_to_rescaled(value, mean, sd, std):
    """|value - (mean + sd * std.value)| without rounding."""
    return float(abs(Fraction(value) - Fraction(mean) - Fraction(sd) * Fraction(std.value)))


def test_converged_bound_covers_the_rounding_of_a_large_mean():
    # half an ulp of 1e10 is about 1e-6, far above sd times the level
    # difference on the standard normal
    spec = WeightSpec.exponential(a=5.0)
    std = srm_converged(standard_normal(), spec, rel_tol=1e-12)
    for mean in (1e10, 7e9, 123456789.0):
        got = srm_converged(normal(mean, 1e-6), spec, rel_tol=1e-6)
        assert _distance_to_rescaled(got.value, mean, 1e-6, std) <= (
            got.estimated_error + 1e-6 * std.estimated_error
        )


def test_unattainable_tolerance_reports_in_the_units_of_the_source():
    spec = WeightSpec.exponential(a=5.0)
    std = srm_converged(standard_normal(), spec, rel_tol=1e-12)
    with pytest.raises(ConvergenceError, match="did not converge") as exc_info:
        srm_converged(normal(50.0, 0.5), spec, rel_tol=1e-20)
    err = exc_info.value
    assert 0.0 < err.error_bound < math.inf
    assert _distance_to_rescaled(err.best_estimate, 50.0, 0.5, std) <= (
        err.error_bound + 0.5 * std.estimated_error
    )
    assert repr(err.best_estimate) in str(err)


def test_converged_handles_bounded_sources_exactly():
    got = srm_converged(constant(4.2), WeightSpec.power(0.3), rel_tol=1e-9)
    assert got.value == pytest.approx(4.2, abs=1e-9)

    # uniform(1, 3) under the es weight averages the top tail analytically
    es = srm_converged(uniform(1.0, 3.0), WeightSpec.es(0.9), rel_tol=1e-9)
    assert es.value == pytest.approx(2.9, abs=1e-8)


def test_converged_uniform_exponential_analytic_value():
    # lambda * (3 (1 - e^-a) / a - 2 (1 - (1 + a) e^-a) / a^2) for q = 1 + 2p
    a = 5.0
    lam = a / -math.expm1(-a)
    ref = lam * (3.0 * (1.0 - math.exp(-a)) / a
                 - 2.0 * (1.0 - (1.0 + a) * math.exp(-a)) / a**2)
    got = srm_converged(uniform(1.0, 3.0), WeightSpec.exponential(a=a), rel_tol=1e-9)
    assert got.value == pytest.approx(ref, abs=5e-9)


@pytest.mark.parametrize("a,ref", [
    (0.99, 0.58118305863661362728),
    (0.5, 0.54149408253679828413),
    (0.01, 0.50083333194444775131),
])
def test_converged_uniform_small_a_exponential_to_rounding(a, ref):
    # 1 - 1/a + 1/expm1(a) for q = p, evaluated to 20 digits; below a = 1
    # the segment integral takes its series form, which must be as exact
    got = srm_converged(uniform(0.0, 1.0), WeightSpec.exponential(a=a), rel_tol=1e-12)
    assert abs(got.value - ref) <= got.estimated_error


def test_converged_uniform_power_analytic_value():
    # uniform(0, 1) quantile is p itself, so the measure is 1 / (1 + c)
    for c in (0.3, 0.7):
        got = srm_converged(uniform(0.0, 1.0), WeightSpec.power(c), rel_tol=1e-9)
        assert got.value == pytest.approx(1.0 / (1.0 + c), abs=5e-9)


def test_converged_flat_weight_is_the_mean():
    got = srm_converged(standard_normal(), WeightSpec.flat(), rel_tol=1e-6)
    assert got.value == pytest.approx(0.0, abs=1e-6)


def test_converged_error_estimate_is_honest_here():
    for spec in (WeightSpec.exponential(a=5.0), WeightSpec.power(0.5)):
        loose = srm_converged(standard_normal(), spec, rel_tol=1e-4)
        tight = srm_converged(standard_normal(), spec, rel_tol=1e-10)
        assert abs(loose.value - tight.value) <= max(loose.estimated_error, 1e-12)
        assert loose.n_points < tight.n_points


def test_converged_rejects_bad_rel_tol():
    with pytest.raises(ValueError, match="rel_tol"):
        srm_converged(standard_normal(), WeightSpec.flat(), rel_tol=0.0)


def test_unattainable_tolerance_raises_instead_of_lying():
    # nothing below float noise can be certified; the failure still carries
    # a best estimate that is good to many digits
    with pytest.raises(ConvergenceError) as exc_info:
        srm_converged(standard_normal(), WeightSpec.exponential(a=5.0), rel_tol=1e-20)
    err = exc_info.value
    assert err.best_estimate == pytest.approx(NORMAL_EXPONENTIAL_REFS[5.0], abs=1e-6)
    assert err.error_bound > 0.0
    assert math.isfinite(err.error_bound)


def test_converged_error_estimate_is_measured_not_the_target():
    ref = NORMAL_EXPONENTIAL_REFS[5.0]
    result = srm_converged(standard_normal(), WeightSpec.exponential(a=5.0), rel_tol=1e-6)
    assert result.estimated_error < 1e-6 * result.value
    assert abs(result.value - ref) <= result.estimated_error


def test_exhausted_refinement_budget_reports_its_best_estimate():
    src = standard_normal()
    spec = WeightSpec.exponential(a=5.0)
    f = lambda w: _upper_quantile(src, _log_tail_probability(spec, w))
    with pytest.raises(ConvergenceError, match="did not converge") as exc_info:
        _tanh_sinh(f, 1e-9, max_levels=2)
    err = exc_info.value
    assert err.best_estimate == pytest.approx(NORMAL_EXPONENTIAL_REFS[5.0], abs=0.1)
    # the reported bound must be finite, positive, and honestly cover the
    # distance to the converged reference
    assert 0.0 < err.error_bound < math.inf
    assert abs(err.best_estimate - NORMAL_EXPONENTIAL_REFS[5.0]) <= err.error_bound
    assert isinstance(err, NumericalError)


def test_weight_mass_inverse_round_trips():
    w = np.linspace(0.001, 0.999, 23)
    for spec in (WeightSpec.exponential(a=5.0), WeightSpec.exponential(a=0.01),
                 WeightSpec.power(0.3), WeightSpec.es(0.9), WeightSpec.flat()):
        log_t = _log_tail_probability(spec, w)
        assert np.all((log_t > -math.inf) & (log_t < 0.0))
        assert np.allclose(weight_mass(spec, -np.expm1(log_t)), 1.0 - w, atol=1e-12)


def _exponential_weight(a):
    lam = a / -math.expm1(-a)
    return lambda p: lam * math.exp(-a * (1.0 - p))


@pytest.mark.parametrize("spec,phi", [
    (WeightSpec.exponential(a=5.0), _exponential_weight(5.0)),
    (WeightSpec.exponential(a=0.01), _exponential_weight(0.01)),
    (WeightSpec.flat(), lambda p: 1.0),
], ids=["exponential-5", "exponential-0.01", "flat"])
def test_closed_form_matches_a_per_segment_simpson_reference(spec, phi):
    samples = np.sort(np.random.default_rng(23).standard_t(3, 2000))
    ref = segment_simpson_srm(samples, phi)
    result = srm_converged(load_empirical(samples), spec, rel_tol=1e-9)
    assert result.n_points == 2000
    assert abs(result.value - ref) <= result.estimated_error + 1e-12


def test_closed_form_refuses_a_tolerance_below_its_rounding_bound():
    src = load_empirical(np.random.default_rng(3).normal(size=1000))
    spec = WeightSpec.exponential(a=5.0)
    certified = srm_converged(src, spec, rel_tol=1e-9)
    with pytest.raises(ConvergenceError) as exc_info:
        srm_converged(src, spec, rel_tol=1e-20)
    err = exc_info.value
    assert err.best_estimate == certified.value
    assert 0.0 < err.error_bound < math.inf
    assert err.error_bound == certified.estimated_error


def test_monte_carlo_is_reproducible_and_seed_sensitive():
    spec = WeightSpec.exponential(a=5.0)
    src = standard_normal()
    one = srm_monte_carlo(src, spec, n_draws=50_000, seed=3)
    two = srm_monte_carlo(src, spec, n_draws=50_000, seed=3)
    other = srm_monte_carlo(src, spec, n_draws=50_000, seed=4)
    assert one.value == two.value
    assert one.stderr == two.stderr
    assert one.value != other.value
    assert one.n_draws == 50_000 and one.seed == 3


def test_monte_carlo_seeded_value_is_pinned_across_two_chunks():
    # 2**20 + 3 draws take two child streams; a seeded value never moves
    mc = srm_monte_carlo(standard_normal(), WeightSpec.exponential(a=5.0),
                         n_draws=(1 << 20) + 3, seed=11)
    assert mc.value == 1.0809187093178463
    assert mc.stderr == 0.000753108248924372


def test_monte_carlo_agrees_with_quadrature():
    src = standard_normal()
    cases = [
        (WeightSpec.exponential(a=5.0), NORMAL_EXPONENTIAL_REFS[5.0]),
        (WeightSpec.power(0.5), NORMAL_POWER_REFS[0.5]),
        (WeightSpec.es(0.95), ES_95_CLOSED_FORM),
    ]
    for spec, ref in cases:
        mc = srm_monte_carlo(src, spec, n_draws=400_000, seed=7)
        assert mc.stderr > 0.0
        assert abs(mc.value - ref) <= 5.0 * mc.stderr


def test_monte_carlo_flat_weight_estimates_the_mean():
    mc = srm_monte_carlo(uniform(0.0, 1.0), WeightSpec.flat(), n_draws=200_000, seed=1)
    assert abs(mc.value - 0.5) <= 5.0 * mc.stderr


def test_monte_carlo_rejects_tiny_draw_counts():
    with pytest.raises(ValueError, match="n_draws"):
        srm_monte_carlo(standard_normal(), WeightSpec.flat(), n_draws=1)


def test_convergence_study_rises_toward_the_converged_value():
    spec = WeightSpec.exponential(a=5.0)
    src = standard_normal()
    rows = convergence_study(src, spec, [1001, 10_001, 100_001])
    ns = [n for n, _ in rows]
    vals = [v for _, v in rows]
    assert ns == [1001, 10_001, 100_001]
    assert vals[0] < vals[1] < vals[2]
    truth = NORMAL_EXPONENTIAL_REFS[5.0]
    assert vals[2] < truth
    assert abs(vals[2] - truth) < abs(vals[0] - truth)


def test_convergence_study_validates_input():
    with pytest.raises(ValueError, match="must not be empty"):
        convergence_study(standard_normal(), WeightSpec.flat(), [])
    with pytest.raises(ValueError, match="odd"):
        convergence_study(standard_normal(), WeightSpec.flat(), [1000])
