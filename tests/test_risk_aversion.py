"""Weight families, risk aversion coefficients, and admissibility checks."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import simpson_slow
from spectral_risk import (
    QuadratureConfig,
    SingularityError,
    WeightSpec,
    ara,
    check_admissibility,
    constant,
    es,
    lpm,
    normal,
    rra,
    srm,
    srm_converged,
    srm_monte_carlo,
    srm_replication,
    standard_normal,
    sweep_srm,
    uniform,
    utility_exponential,
    utility_power,
    var,
    var_subadditivity_counterexample,
    weight,
    weight_curve,
    weight_mass,
)
from spectral_risk.cli import main
from spectral_risk.errors import _real
from spectral_risk.risk_aversion import _log_tail_probability, _weight, _zero_below


def test_weight_spec_param_validation():
    with pytest.raises(ValueError, match="needs parameter a"):
        WeightSpec(family="exponential")
    with pytest.raises(ValueError, match="does not take"):
        WeightSpec(family="power", c=0.5, a=1.0)
    with pytest.raises(ValueError, match="does not take"):
        WeightSpec(family="flat", alpha=0.9)
    with pytest.raises(ValueError, match="unknown weight family"):
        WeightSpec(family="cubic")
    with pytest.raises(ValueError, match="a must be positive"):
        WeightSpec(family="exponential", a=0.0)
    with pytest.raises(ValueError, match="finite"):
        WeightSpec.exponential(a=math.inf)
    with pytest.raises(ValueError, match="c must lie"):
        WeightSpec(family="power", c=1.0)
    with pytest.raises(ValueError, match="alpha must lie"):
        WeightSpec(family="es", alpha=1.0)


def test_gamma_is_the_reciprocal_parameterisation():
    assert WeightSpec.exponential(gamma=0.2) == WeightSpec.exponential(a=5.0)
    with pytest.raises(ValueError, match="exactly one"):
        WeightSpec.exponential(a=5.0, gamma=0.2)
    with pytest.raises(ValueError, match="exactly one"):
        WeightSpec.exponential()
    with pytest.raises(ValueError, match="gamma must be positive"):
        WeightSpec.exponential(gamma=-1.0)


def test_normalising_constants():
    assert WeightSpec.exponential(a=5.0).lambda_ == pytest.approx(5.0 / (1.0 - math.exp(-5.0)), rel=1e-15)
    assert WeightSpec.power(0.5).lambda_ == pytest.approx(0.5, abs=1e-15)
    assert WeightSpec.es(0.95).lambda_ == pytest.approx(20.0, rel=1e-15)
    assert WeightSpec.flat().lambda_ == 1.0
    # small a must not cancel to zero in 1 - exp(-a)
    assert WeightSpec.exponential(a=1e-12).lambda_ == pytest.approx(1.0, rel=1e-9)


def test_weight_spot_values():
    assert weight(WeightSpec.exponential(a=5.0), 0.5) == pytest.approx(0.41320917463773893, rel=1e-15)
    assert weight(WeightSpec.power(0.5), 0.5) == pytest.approx(0.5 / math.sqrt(0.5), rel=1e-15)
    assert weight(WeightSpec.es(0.95), 0.94) == 0.0
    assert weight(WeightSpec.es(0.95), 0.95) == pytest.approx(20.0, rel=1e-15)
    assert weight(WeightSpec.flat(), 0.123) == 1.0


def test_weight_vector_matches_scalar():
    spec = WeightSpec.exponential(a=2.5)
    ps = np.linspace(0.0, 1.0, 7)
    ws = weight(spec, ps)
    for p, w in zip(ps, ws):
        assert w == weight(spec, float(p))


_OPEN_UNIT = {"min_value": 0.0, "max_value": 1.0, "exclude_min": True, "exclude_max": True}
_SPECS = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(WeightSpec.exponential),
    st.floats(**_OPEN_UNIT).map(WeightSpec.power),
    st.floats(**_OPEN_UNIT).map(WeightSpec.es),
    st.just(WeightSpec.flat()),
)
_PROBABILITIES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(np.array),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20).map(np.array),
)


@given(_SPECS, _PROBABILITIES)
def test_weight_is_the_unchecked_form_and_zero_only_where_stated(spec, p):
    if spec.family == "power":
        # the power weight diverges at p = 1
        p = np.minimum(p, np.nextafter(1.0, 0.0))
    w = np.asarray(weight(spec, p))
    unchecked = _weight(spec, p)
    assert unchecked.shape == p.shape
    assert unchecked.tobytes() == w.tobytes()
    zero = p < _zero_below(spec)
    assert np.all(w[zero] == 0.0)
    positive = ~zero & (p < 1.0)
    if spec.family == "exponential":
        # lambda >= 1, so the weight stays positive while exp(-a (1 - p)) does
        positive &= spec.a * (1.0 - p) < 700.0
    assert np.all(w[positive] > 0.0)


def test_power_weight_raises_at_one():
    with pytest.raises(SingularityError, match="diverges at p = 1"):
        weight(WeightSpec.power(0.3), 1.0)
    with pytest.raises(SingularityError):
        weight(WeightSpec.power(0.3), np.array([0.5, 1.0]))
    # the other families are finite there
    assert weight(WeightSpec.exponential(a=5.0), 1.0) == pytest.approx(
        WeightSpec.exponential(a=5.0).lambda_, rel=1e-15
    )
    assert weight(WeightSpec.flat(), 1.0) == 1.0


def test_weight_rejects_p_outside_unit_interval():
    with pytest.raises(ValueError, match="0, 1"):
        weight(WeightSpec.flat(), -0.1)
    with pytest.raises(ValueError, match="0, 1"):
        weight_mass(WeightSpec.flat(), 1.1)
    # a nan first, in the middle or last, an infinity or a value beyond [0, 1]
    bad_arrays = [
        [math.nan, 0.3, 0.4], [0.3, math.nan, 0.4], [0.3, 0.4, math.nan],
        [-math.inf, 0.3], [0.3, math.inf], [-0.1, 0.3], [0.3, 1.1, 0.4],
    ]
    for spec in (WeightSpec.exponential(a=5.0), WeightSpec.es(0.9), WeightSpec.flat()):
        for bad in bad_arrays:
            for fn in (weight, weight_mass):
                with pytest.raises(ValueError, match="0, 1"):
                    fn(spec, np.array(bad))
        # the closed interval's ends pass, and so does an empty array
        assert weight(spec, np.array([0.0, 1.0])).shape == (2,)
        assert weight(spec, np.array([])).shape == (0,)
        assert weight_mass(spec, np.array([])).shape == (0,)


@pytest.mark.parametrize("spec", [
    WeightSpec.exponential(a=0.5),
    WeightSpec.exponential(a=25.0),
    WeightSpec.power(0.3),
    WeightSpec.power(0.9),
])
def test_weight_mass_matches_simpson_oracle(spec):
    for p in (0.2, 0.5, 0.9):
        ref = simpson_slow(lambda t: weight(spec, t), 0.0, p, 20001)
        assert weight_mass(spec, p) == pytest.approx(ref, abs=1e-10)


def test_weight_mass_closed_form_for_jump_and_flat():
    es = WeightSpec.es(0.9)
    assert weight_mass(es, 0.5) == 0.0
    assert weight_mass(es, 0.95) == pytest.approx(0.5, rel=1e-12)
    assert weight_mass(WeightSpec.flat(), 0.25) == 0.25


def test_weight_mass_endpoints_and_small_a_stability():
    for spec in (WeightSpec.exponential(a=5.0), WeightSpec.power(0.3),
                 WeightSpec.es(0.9), WeightSpec.flat()):
        assert weight_mass(spec, 0.0) == 0.0
        assert weight_mass(spec, 1.0) == pytest.approx(1.0, rel=1e-12)
    # for a -> 0 the family tends to the flat weight
    assert weight_mass(WeightSpec.exponential(a=1e-8), 0.5) == pytest.approx(0.5, rel=1e-7)
    # large a p takes the direct-difference branch
    assert weight_mass(WeightSpec.exponential(a=100.0), 0.9) == pytest.approx(
        math.exp(-10.0), rel=1e-12
    )


@pytest.mark.parametrize("a", [5e-324, 1e-300, 1e-100, 1e-12])
def test_exponential_tail_map_keeps_its_digits_for_a_small_a(a):
    # t = -log1p(w expm1(-a)) / a = w (1 - a (1 - w) / 2) up to a**2; taken
    # as log(-log1p(w expm1(-a))) - log(a), log t lost ulp(log a) to the
    # cancellation, 3.6e-15 at a = 1e-12, and was -inf below a = 1e-287
    w = np.array([1e-300, 1e-20, 1e-5, 0.1, 0.5, 0.9, 0.999999])
    got = _log_tail_probability(WeightSpec.exponential(a=a), w)
    want = np.log(w) - a * (1.0 - w) / 2.0
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)) + 4e-16)


def test_tail_map_holds_t_below_one_at_the_bottom_of_the_weight_mass():
    # unheld, the exponential's log t rounds to +4e-17 at this a and the two
    # largest w below 1, where p = 1 - t would be negative; rng.random()
    # draws the first of them
    w = np.array([1.0 - 2.0**-53, 1.0 - 2.0**-52])
    for spec in (WeightSpec.exponential(a=0.031770915925610516), WeightSpec.flat(),
                 WeightSpec.power(1.0 - 1e-9), WeightSpec.es(1e-300)):
        log_t = _log_tail_probability(spec, w)
        assert np.all(log_t <= -(2.0**-53)), spec
        assert np.all(-np.expm1(log_t) > 0.0), spec


@given(st.floats(min_value=0.01, max_value=150.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_weight_mass_is_a_cdf_exponential(a, p1, p2):
    spec = WeightSpec.exponential(a=a)
    lo, hi = sorted((p1, p2))
    mlo = weight_mass(spec, lo)
    mhi = weight_mass(spec, hi)
    assert 0.0 <= mlo
    assert mlo <= mhi + 1e-12
    assert mhi <= 1.0 + 1e-12


@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_weight_mass_is_a_cdf_power(c, p1, p2):
    spec = WeightSpec.power(c)
    lo, hi = sorted((p1, p2))
    mlo = weight_mass(spec, lo)
    mhi = weight_mass(spec, hi)
    assert 0.0 <= mlo
    assert mlo <= mhi + 1e-12
    assert mhi <= 1.0 + 1e-12


@pytest.mark.parametrize("eps", [1e-3, 1e-7])
def test_power_partial_mass_identity(eps):
    # mass on [0, 1 - eps] must equal 1 - eps ** c to near machine precision;
    # compare at the eps the float grid actually represents, since 1 - eps
    # rounds and the identity holds at the rounded point
    for c in (0.1, 0.5, 0.9):
        p = 1.0 - eps
        eps_used = 1.0 - p
        got = weight_mass(WeightSpec.power(c), p)
        assert abs(got - (1.0 - eps_used**c)) <= 1e-12


def test_weight_spec_json_round_trip():
    for spec in (WeightSpec.exponential(a=5.0), WeightSpec.power(0.7),
                 WeightSpec.es(0.99), WeightSpec.flat()):
        assert WeightSpec.from_json(spec.to_json()) == spec


def test_weight_spec_json_rejects_junk():
    with pytest.raises(ValueError, match="bad weight spec JSON"):
        WeightSpec.from_json("{not json")
    with pytest.raises(ValueError, match="'family'"):
        WeightSpec.from_json('{"a": 5.0}')
    with pytest.raises(ValueError, match="unknown weight spec keys"):
        WeightSpec.from_json('{"family": "flat", "zeta": 1}')
    with pytest.raises(ValueError, match="needs parameter"):
        WeightSpec.from_json('{"family": "power"}')
    with pytest.raises(ValueError, match="real number"):
        WeightSpec.from_json('{"family": "power", "c": "0.5"}')
    with pytest.raises(ValueError, match="real number"):
        WeightSpec.from_json('{"family": "exponential", "a": true}')
    with pytest.raises(ValueError, match="unknown weight family"):
        WeightSpec.from_json('{"family": ["x"]}')


def test_weight_spec_accepts_numpy_scalars():
    spec = WeightSpec(family="power", c=np.float32(0.5))
    assert spec.c == 0.5
    assert WeightSpec(family="es", alpha=np.float64(0.9)).alpha == 0.9


@pytest.mark.parametrize("family,name,value,kind,text", [
    ("power", "c", np.float32(0.5), float, '{"family": "power", "c": 0.5}'),
    ("exponential", "a", np.int64(5), int, '{"family": "exponential", "a": 5}'),
], ids=["float32", "int64"])
def test_weight_spec_with_numpy_scalar_parameters_serialises(family, name, value, kind, text):
    # held as Python values, so the spec serialises and round-trips
    spec = WeightSpec(family=family, **{name: value})
    assert type(getattr(spec, name)) is kind
    assert spec.to_json() == text
    assert WeightSpec.from_json(text) == spec


@pytest.mark.parametrize("build,name", [
    (lambda: WeightSpec.power("0.5"), "c"),
    (lambda: WeightSpec.exponential(a=True), "a"),
    (lambda: WeightSpec.exponential(gamma="5"), "gamma"),
    (lambda: WeightSpec.es("0.95"), "alpha"),
    (lambda: es(standard_normal(), "0.95"), "alpha"),
    (lambda: var(standard_normal(), "0.95"), "alpha"),
    (lambda: normal("1", 1), "mean"),
    (lambda: normal(True, 1), "mean"),
    (lambda: normal(0, "1"), "sd"),
    (lambda: constant("4.2"), "value"),
    (lambda: uniform("0", "1"), "lo"),
    (lambda: uniform(1, "2"), "hi"),
], ids=["power-str", "exponential-bool", "gamma-str", "es-str", "es-measure-str",
        "var-str", "normal-mean-str", "normal-mean-bool", "normal-sd-str",
        "constant-str", "uniform-lo-str", "uniform-hi-str"])
def test_factories_take_real_numbers_only(build, name):
    # the rule of WeightSpec's own fields: a real number but a bool, named
    # when refused
    with pytest.raises(ValueError, match=f"^{name} must be a real number, not "):
        build()


@pytest.mark.parametrize("bad", ["0.5", True, None], ids=["str", "bool", "none"])
@pytest.mark.parametrize("call,name", [
    (lambda x: sweep_srm("power", [0.25, x], standard_normal()), "param_grid value"),
    (lambda x: var_subadditivity_counterexample(alpha=x), "alpha"),
    (lambda x: var_subadditivity_counterexample(loss=x), "loss"),
    (lambda x: var_subadditivity_counterexample(tail_prob=x), "tail_prob"),
    (lambda x: weight_curve(WeightSpec.flat(), p_max=x), "p_max"),
    (lambda x: lpm([1.0, 2.0], x, 1), "target"),
    (lambda x: lpm([1.0, 2.0], 1.5, x), "order"),
    (lambda x: utility_exponential(1.0, x), "a"),
    (lambda x: utility_power(1.0, x), "c"),
    (lambda x: ara(lambda t: utility_exponential(t, 1.0), x), "x"),
    (lambda x: ara(lambda t: utility_exponential(t, 1.0), 1.0, x), "step"),
    (lambda x: rra(lambda t: utility_power(t, 0.5), x), "x"),
    (lambda x: rra(lambda t: utility_power(t, 0.5), 1.0, x), "step"),
], ids=["sweep-param_grid", "counterexample-alpha", "counterexample-loss",
        "counterexample-tail_prob", "weight_curve-p_max", "lpm-target", "lpm-order",
        "utility_exponential-a", "utility_power-c", "ara-x", "ara-step", "rra-x", "rra-step"])
def test_public_functions_take_real_numbers_only(call, name, bad):
    # each would run on a string or a bool, or fail inside numpy or a
    # comparison with an error that names neither the argument nor its value
    with pytest.raises(ValueError, match=f"^{name} must be a real number, not {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("big", [10**400, -10**400, Fraction(10**400, 3)], ids=["int", "negative-int", "fraction"])
@pytest.mark.parametrize("call,name", [
    (lambda x: normal(x, 1), "mean"),
    (lambda x: WeightSpec.power(x), "c"),
    (lambda x: utility_exponential(1.0, x), "a"),
    (lambda x: lpm([1.0], x, 1), "target"),
    (lambda x: QuadratureConfig(rel_tol=x), "rel_tol"),
    (lambda x: var_subadditivity_counterexample(loss=x), "loss"),
], ids=["normal-mean", "power-c", "utility_exponential-a", "lpm-target", "config-rel_tol",
        "counterexample-loss"])
def test_real_numbers_beyond_a_double_are_refused_by_name(call, name, big):
    # float() of each overflows: an OverflowError, a TypeError inside numpy,
    # or, for rel_tol, a config that constructs
    with pytest.raises(ValueError, match=f"^{name} must be a real number within the range of a double$"):
        call(big)


def test_real_numbers_that_pass_keep_their_type():
    for x in (10**300, -7, Fraction(1, 3), 2.5, math.inf):
        assert type(_real("x", x)) is type(x) and _real("x", x) == x
    assert type(_real("x", np.float32(0.5))) is float


@pytest.mark.parametrize("spec", ["flat", lambda p: 2.0 * p], ids=["str", "function"])
@pytest.mark.parametrize("call", [
    lambda spec: weight(spec, 0.5),
    lambda spec: weight_mass(spec, 0.5),
    lambda spec: weight_curve(spec),
    lambda spec: srm(constant(1.0), spec),
    lambda spec: srm_replication(constant(1.0), spec, QuadratureConfig(n_points=3)),
    lambda spec: srm_converged(standard_normal(), spec),
    lambda spec: srm_monte_carlo(standard_normal(), spec, n_draws=10),
], ids=["weight", "weight_mass", "weight_curve", "srm", "srm_replication", "srm_converged",
        "srm_monte_carlo"])
def test_a_weight_is_a_weight_spec(call, spec):
    # as check_admissibility and subadditivity_check already refused them;
    # without the type rule, a str or a function fails on its missing .family
    with pytest.raises(TypeError, match=f"^spec must be a WeightSpec, not {type(spec).__name__}$"):
        call(spec)


def test_factories_store_numeric_parameters_as_floats():
    assert WeightSpec.power(np.float32(0.5)).to_json() == '{"family": "power", "c": 0.5}'
    assert WeightSpec.exponential(np.int64(5)).to_json() == '{"family": "exponential", "a": 5.0}'
    assert WeightSpec.exponential(gamma=np.float32(3.0)).a == float(np.float32(1.0) / np.float32(3.0))
    assert WeightSpec.es(np.float64(0.9)) == WeightSpec.es(0.9)
    src = normal(np.int64(1), 2)
    assert (src.mean, src.sd) == (1.0, 2.0) and type(src.mean) is float
    assert uniform(0, np.float32(0.3)).samples.tolist() == [0.0, float(np.float32(0.3))]
    # lo < hi is checked on the values stored, not in the float32 numpy would compare in
    assert uniform(0.3, np.float32(0.3)).samples.tolist() == [0.3, float(np.float32(0.3))]
    assert constant(np.int32(4)).samples.tolist() == [4.0]


def test_ara_recovers_the_exponential_parameter():
    # from x = 6 on, -exp(-a x) and its derivative are tiny, yet the two
    # values of the central difference stay many ulps apart
    for a in (0.5, 2.0, 5.0):
        for x in (0.5, 1.0, 2.0, 6.0, 10.0, 140.0):
            got = ara(lambda t: utility_exponential(t, a), x)
            assert got == pytest.approx(a, abs=1e-5)


def test_rra_recovers_the_power_parameter():
    for c in (0.1, 0.5, 0.9):
        for x in (0.5, 1.0, 2.0):
            got = rra(lambda t: utility_power(t, c), x)
            assert got == pytest.approx(c, abs=1e-5)


def test_ara_rejects_flat_utility_and_bad_step():
    with pytest.raises(ValueError, match="derivative vanishes"):
        ara(lambda t: 1.0, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        ara(lambda t: math.nan, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        ara(lambda t: math.log(t) if t > 0.0 else -math.inf, 1e-4)
    with pytest.raises(ValueError, match="step"):
        ara(lambda t: utility_exponential(t, 1.0), 1.0, step=0.0)


def test_utility_domain_checks():
    with pytest.raises(ValueError, match="positive"):
        utility_exponential(1.0, a=0.0)
    # -exp(-inf * 0) would be nan, with a RuntimeWarning
    with pytest.raises(ValueError, match="a must be positive and finite"):
        utility_exponential(0.0, math.inf)
    with pytest.raises(ValueError, match="c must lie"):
        utility_power(1.0, c=1.5)
    with pytest.raises(ValueError, match="x must be positive"):
        utility_power(-1.0, c=0.5)


def test_utilities_are_increasing_and_concave():
    xs = np.linspace(0.1, 3.0, 50)
    for u in (lambda t: utility_exponential(t, 2.0), lambda t: utility_power(t, 0.4)):
        vals = np.array([u(x) for x in xs])
        d = np.diff(vals)
        assert np.all(d > 0.0)
        assert np.all(np.diff(d) < 0.0)


# phi(p) = U'(1 - p) / (U(1) - U(0)): each family is a normalised marginal utility
_PS = np.linspace(0.01, 0.99, 99)


def _marginal(utility, x, h=1e-6):
    return (utility(x + h) - utility(x - h)) / (2.0 * h)


@pytest.mark.parametrize("a", [0.5, 5.0, 50.0])
def test_exponential_weight_is_the_normalised_marginal_exponential_utility(a):
    def u(x):
        return utility_exponential(x, a)
    phi = _marginal(u, 1.0 - _PS) / (u(1.0) - u(0.0))
    np.testing.assert_allclose(phi, weight(WeightSpec.exponential(a), _PS), rtol=1e-8)


@pytest.mark.parametrize("c", [0.1, 0.3, 0.9])
def test_power_weight_is_the_normalised_marginal_power_utility(c):
    # U(x) = x ** c, relative risk aversion 1 - c, and U(1) - U(0) = 1
    def u(x):
        return c * utility_power(x, 1.0 - c)
    phi = _marginal(u, 1.0 - _PS)
    np.testing.assert_allclose(phi, weight(WeightSpec.power(c), _PS), rtol=1e-8)


def _mass_at_most(smaller: WeightSpec, larger: WeightSpec, p: float):
    lo, hi = weight_mass(smaller, p), weight_mass(larger, p)
    assert lo <= hi + 4.0 * np.spacing(hi), (smaller, larger, p)


_UNIT = st.floats(0.0, 1.0)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


# within each family the mass is ordered in the parameter at every p, so the
# measure rises with a, falls with c and rises with alpha for every source
@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), _UNIT)
def test_exponential_mass_falls_as_a_rises(a1, a2, p):
    lo, hi = sorted((a1, a2))
    _mass_at_most(WeightSpec.exponential(hi), WeightSpec.exponential(lo), p)


@given(_OPEN_UNIT, _OPEN_UNIT, _UNIT)
def test_power_mass_rises_with_c(c1, c2, p):
    lo, hi = sorted((c1, c2))
    _mass_at_most(WeightSpec.power(lo), WeightSpec.power(hi), p)


@given(_OPEN_UNIT, _OPEN_UNIT, _UNIT)
def test_es_mass_falls_as_alpha_rises(alpha1, alpha2, p):
    lo, hi = sorted((alpha1, alpha2))
    _mass_at_most(WeightSpec.es(hi), WeightSpec.es(lo), p)


@pytest.mark.parametrize("spec", [
    WeightSpec.exponential(a=1.0),
    WeightSpec.exponential(a=100.0),
    WeightSpec.power(0.001),
    WeightSpec.power(0.01),
    WeightSpec.power(0.1),
    WeightSpec.power(0.9),
    # es 1e-9 and es 1e-17 are constant on every check point, es 1 - 1e-13
    # is 0 on all of them, and exponential 1e-17 rounds to the constant 1:
    # the grid shows none of their rises, the family still rises
    WeightSpec.es(1e-9),
    WeightSpec.es(1e-17),
    WeightSpec.es(1.0 - 1e-13),
    WeightSpec.exponential(a=1e-17),
    # its mass at p = 1/2 rounds to 1/2
    WeightSpec.power(1.0 - 2.0**-53),
])
def test_standard_families_are_admissible(spec):
    report = check_admissibility(spec)
    assert report.positivity
    assert report.normalisation
    assert report.normalisation_integral == 1.0
    assert report.increasingness
    assert report.strict_rise
    assert report.admissible


@pytest.mark.parametrize("a", [1e6, 1e7, 1e8, 1e9, 1e10, 1e300])
def test_steep_exponential_weights_are_admissible(a, capsys):
    # on the uniform grid these weights underflow to 0 everywhere, and from
    # a = 1e9 their mass lies beyond the last check point 1 - 2**-39
    report = check_admissibility(WeightSpec.exponential(a=a))
    assert report.admissible
    assert report.normalisation_integral == 1.0
    assert main(["validate", "--family", "exponential", "--a", str(a)]) == 0
    out = capsys.readouterr().out
    assert '"admissible": true' in out
    assert json.loads(out)["normalisation_integral"] == 1.0


# every valid spec: the families' own parameter ranges, up to the largest
# double below 1, and flat
_WEIGHT_SPECS = st.one_of(
    st.floats(0.0, 1e300, exclude_min=True).map(WeightSpec.exponential),
    st.floats(0.0, 1.0 - 2.0**-53, exclude_min=True).map(WeightSpec.power),
    st.floats(0.0, 1.0 - 2.0**-53, exclude_min=True).map(WeightSpec.es),
    st.just(WeightSpec.flat()),
)


@given(_WEIGHT_SPECS, st.integers(3, 3000))
def test_every_spec_but_flat_is_admissible_with_finite_evidence(spec, grid_size):
    # the weight is finite on every check point, so no check sees a nan
    report = check_admissibility(spec, grid_size)
    assert report.admissible == (spec.family != "flat")
    assert all(map(math.isfinite, report.positivity_worst + report.increasingness_worst))


def test_es_weight_is_admissible_despite_the_jump():
    report = check_admissibility(WeightSpec.es(0.95))
    assert report.positivity and report.normalisation
    assert report.increasingness and report.strict_rise
    assert report.admissible


def test_flat_weight_fails_only_the_strict_rise_check():
    report = check_admissibility(WeightSpec.flat())
    assert report.positivity
    assert report.normalisation
    assert report.normalisation_integral == 1.0
    assert report.increasingness
    assert not report.strict_rise
    assert not report.admissible


def test_admissibility_report_dict_fields():
    d = check_admissibility(WeightSpec.flat()).to_dict()
    assert d["admissible"] is False
    assert d["strict_rise"] is False
    assert d["normalisation"] is True
    assert set(d) == {
        "positivity", "positivity_worst_p", "positivity_worst_value",
        "normalisation", "normalisation_integral",
        "increasingness", "increasingness_worst_p_left",
        "increasingness_worst_p_right", "increasingness_worst_rise",
        "strict_rise", "grid_size", "admissible",
    }


def test_check_admissibility_rejects_tiny_grid():
    with pytest.raises(ValueError, match="grid_size"):
        check_admissibility(WeightSpec.flat(), grid_size=2)
    with pytest.raises(TypeError, match="must be a WeightSpec, not str"):
        check_admissibility("flat")
    with pytest.raises(TypeError, match="must be a WeightSpec, not function"):
        check_admissibility(lambda p: 2.0 * p)
