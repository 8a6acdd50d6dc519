"""The converged engine and the inverse normal against 30-digit references.

tests/normal_references.py holds the numbers, written by the mpmath script
beside it.  Every converged value on a normal source must lie within its
own estimated_error of the reference, measured exactly in decimal.
"""

import decimal
from decimal import Decimal

import pytest

from normal_references import MEASURES, QUANTILES
from spectral_risk import WeightSpec, inverse_normal_cdf, normal, srm_converged

# the standard normal and one shifted and scaled normal, as (mean, sd)
SOURCES = [(0.0, 1.0), (0.3, 1.2)]
_SPEC = {
    "exponential": lambda x: WeightSpec.exponential(a=x),
    "power": WeightSpec.power,
    "es": WeightSpec.es,
    "flat": lambda x: WeightSpec.flat(),
}


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("mean,sd", SOURCES, ids=["standard", "shifted"])
@pytest.mark.parametrize("case", sorted(MEASURES, key=str), ids=lambda case: f"{case[0]}-{case[1]!r}")
def test_converged_normal_lies_within_its_bound_of_the_reference(case, mean, sd, rel_tol):
    family, x = case
    result = srm_converged(normal(mean, sd), _SPEC[family](x), rel_tol=rel_tol)
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        ref = Decimal(mean) + Decimal(sd) * Decimal(MEASURES[case])
        error = abs(Decimal(result.value) - ref)
    assert error <= Decimal(result.estimated_error), (result, float(ref))


@pytest.mark.parametrize("p", sorted(QUANTILES))
def test_inverse_normal_cdf_at_the_smallest_doubles(p):
    z = inverse_normal_cdf(p)
    ref = Decimal(QUANTILES[p])
    assert abs(Decimal(z) - ref) <= Decimal(3e-16) * abs(ref)
