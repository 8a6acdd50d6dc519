"""Inverse normal CDF accuracy and quantile source behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import bisect_normal_quantile, interp_quantile
from spectral_risk import (
    DataError,
    constant,
    inverse_normal_cdf,
    load_empirical,
    normal,
    quantile,
    read_loss_csv,
    standard_normal,
    uniform,
)

PROBES = [
    1e-300, 1e-100, 1e-20, 1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5,
    0.7, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12,
]


def test_inverse_normal_cdf_matches_bisection_oracle():
    for p in PROBES:
        assert inverse_normal_cdf(p) == pytest.approx(bisect_normal_quantile(p), abs=1e-12)


def test_inverse_normal_cdf_known_points():
    assert inverse_normal_cdf(0.5) == 0.0
    assert inverse_normal_cdf(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)


def test_inverse_normal_cdf_vector_matches_scalar():
    ps = np.array(PROBES)
    zs = inverse_normal_cdf(ps)
    assert zs.shape == ps.shape
    for p, z in zip(ps, zs):
        assert z == inverse_normal_cdf(float(p))


@given(st.floats(min_value=0.5, max_value=1.0, exclude_max=True))
def test_inverse_normal_cdf_exactly_antisymmetric(q):
    # 1 - q is exact for q in [0.5, 1), so the reflection must be exact too
    assert inverse_normal_cdf(1.0 - q) == -inverse_normal_cdf(q)


@given(
    st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)
def test_inverse_normal_cdf_monotone(p1, p2):
    lo, hi = sorted((p1, p2))
    assert inverse_normal_cdf(lo) <= inverse_normal_cdf(hi)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_inverse_normal_cdf_rejects_out_of_range(bad):
    with pytest.raises(ValueError, match="strictly inside"):
        inverse_normal_cdf(bad)


def test_normal_source_scales_standard_quantiles():
    src = normal(2.0, 3.0)
    for p in (0.1, 0.5, 0.975):
        assert quantile(src, p) == pytest.approx(2.0 + 3.0 * inverse_normal_cdf(p), rel=1e-15)


def test_constant_source_is_flat():
    src = constant(4.2)
    ps = np.linspace(0.001, 0.999, 11)
    assert np.all(quantile(src, ps) == 4.2)


def test_constant_source_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        constant(math.inf)


def test_uniform_source_is_linear_in_p():
    src = uniform(1.0, 3.0)
    assert quantile(src, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert quantile(src, 0.25) == pytest.approx(1.5, abs=1e-15)


def test_uniform_source_rejects_bad_support():
    with pytest.raises(ValueError, match="lo < hi"):
        uniform(3.0, 3.0)
    with pytest.raises(ValueError, match="finite"):
        uniform(-math.inf, math.inf)
    with pytest.raises(ValueError, match="range"):
        uniform(-1.7e308, 1.7e308)


def test_uniform_and_constant_are_piecewise_linear_sources():
    ps = np.random.default_rng(5).random(10_000)
    lo, hi = -1.5, 2.25
    assert np.array_equal(quantile(uniform(lo, hi), ps), lo + ps * (hi - lo))
    assert np.array_equal(quantile(constant(4.2), ps), np.full(ps.shape, 4.2))


def test_normal_source_rejects_bad_sd():
    with pytest.raises(ValueError, match="sd"):
        normal(0.0, 0.0)
    for mean, sd in [(math.nan, 1.0), (0.0, math.inf), (math.inf, 1.0)]:
        with pytest.raises(ValueError, match="finite"):
            normal(mean, sd)
    # quantiles as deep as any double probability reaches must stay finite
    for mean, sd in [(1e308, 1e308), (0.0, 1e307), (-1.7e308, 1e306)]:
        with pytest.raises(ValueError, match="finite"):
            normal(mean, sd)
    assert math.isfinite(quantile(normal(0.0, 4e306), 5e-324))


def test_empirical_quantile_matches_order_statistic_interpolation():
    rng = np.random.default_rng(11)
    samples = rng.normal(size=37)
    src = load_empirical(samples)
    ordered = sorted(samples)
    for p in (0.01, 0.2, 0.5, 0.77, 0.99):
        assert quantile(src, p) == pytest.approx(interp_quantile(ordered, p), rel=1e-14)


def test_empirical_quantile_hand_case():
    src = load_empirical([8.0, 1.0, 4.0, 2.0])
    # rank 3 * 0.5 + 1 = 2.5 lands midway between the 2nd and 3rd order stats
    assert quantile(src, 0.5) == pytest.approx(3.0, abs=1e-15)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_empirical_quantile_monotone_and_bounded(values, p1, p2):
    src = load_empirical(values)
    lo, hi = sorted((p1, p2))
    qlo = quantile(src, lo)
    qhi = quantile(src, hi)
    assert qlo <= qhi
    assert min(values) <= qlo and qhi <= max(values)


def test_empirical_samples_are_sorted_and_read_only():
    src = load_empirical([3.0, 1.0, 2.0])
    assert list(src.samples) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        src.samples[0] = 99.0


def test_load_empirical_rejects_empty_and_non_finite():
    with pytest.raises(DataError, match="no loss values"):
        load_empirical([])
    with pytest.raises(DataError, match="row 2"):
        load_empirical([1.0, math.nan, 3.0])
    with pytest.raises(DataError, match="flat sequence"):
        load_empirical([[1.0, 2.0]])
    # each loss is finite, but the range x_max - x_min overflows
    with pytest.raises(DataError, match="float range"):
        load_empirical([1.7e308, 0.0, -1.7e308])


@pytest.mark.parametrize("kind_src", [
    standard_normal(), normal(0.0, 1.0), constant(1.0),
    uniform(0.0, 1.0), load_empirical([1.0, 2.0]),
])
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
def test_quantile_rejects_boundary_probabilities(kind_src, bad):
    with pytest.raises(ValueError, match="strictly inside"):
        quantile(kind_src, bad)


def test_quantile_vector_round_trip_shape():
    ps = np.array([[0.1, 0.5], [0.9, 0.999]])
    out = quantile(standard_normal(), ps)
    assert out.shape == ps.shape
    assert quantile(standard_normal(), 0.999) == out[1, 1]


def test_read_loss_csv_plain_and_with_header(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("1.5\n-2.0\n\n3.25\n", encoding="utf-8")
    src = read_loss_csv(plain)
    assert list(src.samples) == [-2.0, 1.5, 3.25]

    headed = tmp_path / "headed.csv"
    headed.write_text("Loss\n1.0\n2.0\n", encoding="utf-8")
    assert list(read_loss_csv(headed).samples) == [1.0, 2.0]


def test_read_loss_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("loss\n1.0\nabc\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3.*abc"):
        read_loss_csv(path)


def test_read_loss_csv_rejects_non_finite_and_empty(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1.0\ninf\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        read_loss_csv(path)

    empty = tmp_path / "empty.csv"
    empty.write_text("loss\n\n", encoding="utf-8")
    with pytest.raises(DataError, match="no loss values"):
        read_loss_csv(empty)


def test_read_loss_csv_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_loss_csv(tmp_path / "nope.csv")
