"""Weight families, risk aversion coefficients, and admissibility checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import simpson_slow
from spectral_risk import (
    SingularityError,
    WeightSpec,
    ara,
    check_admissibility,
    rra,
    utility_exponential,
    utility_power,
    weight,
    weight_mass,
)
from spectral_risk.cli import main


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


def test_ara_recovers_the_exponential_parameter():
    for a in (0.5, 2.0, 5.0):
        for x in (0.5, 1.0, 2.0):
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
    with pytest.raises(ValueError, match="step"):
        ara(lambda t: utility_exponential(t, 1.0), 1.0, step=0.0)


def test_utility_domain_checks():
    with pytest.raises(ValueError, match="positive"):
        utility_exponential(1.0, a=0.0)
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


@pytest.mark.parametrize("spec", [
    WeightSpec.exponential(a=1.0),
    WeightSpec.exponential(a=100.0),
    WeightSpec.power(0.001),
    WeightSpec.power(0.01),
    WeightSpec.power(0.1),
    WeightSpec.power(0.9),
])
def test_standard_families_are_admissible(spec):
    report = check_admissibility(spec)
    assert report.positivity
    assert report.normalisation
    assert report.normalisation_integral == pytest.approx(1.0, abs=1e-6)
    assert report.increasingness
    assert report.strict_rise
    assert report.admissible


@pytest.mark.parametrize("a", [1e6, 1e7, 1e8])
def test_steep_exponential_weights_are_admissible(a, capsys):
    # on the uniform grid these weights underflow to 0 everywhere; the
    # dyadic check points near p = 1 show their rise
    report = check_admissibility(WeightSpec.exponential(a=a))
    assert report.admissible
    assert abs(report.normalisation_integral - 1.0) <= 1e-6
    assert main(["validate", "--family", "exponential", "--a", str(a)]) == 0
    cli_report = json.loads(capsys.readouterr().out)
    assert cli_report["admissible"] is True
    assert abs(cli_report["normalisation_integral"] - 1.0) <= 1e-6


def test_es_weight_is_admissible_despite_the_jump():
    report = check_admissibility(WeightSpec.es(0.95))
    assert report.positivity and report.normalisation
    assert report.increasingness and report.strict_rise
    assert report.admissible


def test_flat_weight_fails_only_the_strict_rise_check():
    report = check_admissibility(WeightSpec.flat())
    assert report.positivity
    assert report.normalisation
    assert report.increasingness
    assert not report.strict_rise
    assert not report.admissible


def test_callable_candidates():
    ok = check_admissibility(lambda p: 2.0 * p)
    assert ok.admissible
    assert ok.normalisation_integral == pytest.approx(1.0, abs=1e-8)

    decreasing = check_admissibility(lambda p: 2.0 * (1.0 - p))
    assert not decreasing.increasingness
    assert decreasing.increasingness_worst[2] < 0.0
    assert not decreasing.admissible

    unnormalised = check_admissibility(lambda p: 3.0 * p)
    assert not unnormalised.normalisation
    assert unnormalised.normalisation_integral == pytest.approx(1.5, abs=1e-6)

    negative = check_admissibility(lambda p: p - 0.5)
    assert not negative.positivity
    assert negative.positivity_worst[1] < 0.0


def test_non_finite_candidate_fails_without_raising():
    report = check_admissibility(lambda p: math.nan if p > 0.5 else 2.0 * p)
    assert not report.positivity
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
    with pytest.raises(TypeError, match="WeightSpec or a callable"):
        check_admissibility("flat")
