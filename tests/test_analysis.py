"""Sweeps, subadditivity experiments, and CSV export."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from spectral_risk import (
    QuadratureConfig,
    SweepResult,
    WeightSpec,
    check_admissibility,
    convergence_study,
    convergence_to_csv,
    curve_to_csv,
    find_peak,
    load_empirical,
    srm,
    standard_normal,
    subadditivity_check,
    sweep_srm,
    sweep_to_csv,
    var,
    var_subadditivity_counterexample,
    srm_replication,
    weight,
    weight_curve,
)
from spectral_risk import quadrature
from spectral_risk.analysis import _LIGHT_CONFIG, _draw_pair
from spectral_risk.distributions import _BLOCK

FAST = QuadratureConfig(n_points=10_001)


def test_sweep_values_follow_the_parameter():
    src = standard_normal()
    result = sweep_srm("exponential", [1.0, 5.0, 25.0], src, FAST)
    assert result.family == "exponential"
    assert result.params == (1.0, 5.0, 25.0)
    assert result.values[0] < result.values[1] < result.values[2]
    assert result.rows() == list(zip(result.params, result.values))


def test_sweep_matches_pointwise_evaluation():
    src = standard_normal()
    result = sweep_srm("power", [0.3, 0.6], src, FAST)
    for c, v in result.rows():
        assert v == srm(src, WeightSpec.power(c), FAST)


def test_sweep_es_family_uses_alpha():
    src = standard_normal()
    result = sweep_srm("es", [0.9, 0.95], src, FAST)
    assert result.values[0] < result.values[1]


def test_sweep_input_validation():
    src = standard_normal()
    with pytest.raises(ValueError, match="cannot sweep"):
        sweep_srm("flat", [0.5], src, FAST)
    with pytest.raises(ValueError, match="empty"):
        sweep_srm("exponential", [], src, FAST)
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_srm("exponential", [2.0, 2.0], src, FAST)
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_srm("exponential", [3.0, 1.0], src, FAST)


def test_find_peak_returns_the_first_maximum():
    result = SweepResult(family="power", params=(0.1, 0.2, 0.3, 0.4),
                         values=(1.0, 3.0, 3.0, 2.0))
    assert find_peak(result) == (0.2, 3.0)
    with pytest.raises(ValueError, match="at least 3"):
        find_peak(SweepResult(family="power", params=(0.1, 0.2), values=(1.0, 2.0)))


def test_weight_curve_samples_the_weight_function():
    spec = WeightSpec.power(0.7)
    rows = weight_curve(spec, n_points=5, p_max=0.8)
    assert len(rows) == 5
    assert rows[0][0] == 0.0
    assert rows[-1][0] == pytest.approx(0.8, abs=1e-15)
    for p, w in rows:
        assert w == pytest.approx(weight(spec, p), rel=1e-15)
        assert np.isfinite(w)


def test_weight_curve_validation():
    with pytest.raises(ValueError, match="n_points"):
        weight_curve(WeightSpec.flat(), n_points=1)
    with pytest.raises(ValueError, match="p_max"):
        weight_curve(WeightSpec.flat(), p_max=1.0)


def test_spectral_measures_pass_the_subadditivity_stress():
    report = subadditivity_check(
        WeightSpec.exponential(a=5.0), sample_size=120, trials=30, seed=0, config=FAST
    )
    assert report.trials == 30
    assert report.violations == 0
    assert report.worst_gap <= 1e-9
    assert report.seed == 0


def test_subadditivity_check_is_deterministic():
    a = subadditivity_check(WeightSpec.power(0.5), sample_size=60, trials=10, seed=9, config=FAST)
    b = subadditivity_check(WeightSpec.power(0.5), sample_size=60, trials=10, seed=9, config=FAST)
    assert a == b
    assert a.to_dict() == {"trials": 10, "violations": a.violations,
                           "worst_gap": a.worst_gap, "seed": 9}
    assert list(a.to_dict()) == ["trials", "violations", "worst_gap", "seed"]


def subadditivity_reference(measure, sample_size, trials, seed, config):
    """subadditivity_check's report, from one srm_replication call per position."""
    violations, worst_gap = 0, -math.inf
    for trial in range(trials):
        a, b = _draw_pair(np.random.default_rng([seed, trial]), sample_size, trial % 3)
        ra, rb, rc = (srm_replication(load_empirical(x), measure, config).value for x in (a, b, a + b))
        gap = rc - ra - rb
        if gap > 1e-9 * max(1.0, abs(ra) + abs(rb)):
            violations += 1
        worst_gap = max(worst_gap, gap)
    return violations, worst_gap.hex()


@pytest.mark.parametrize("policy", ["zero_endpoints", "clip_epsilon"])
@pytest.mark.parametrize("sample_size", [2, 500])
@pytest.mark.parametrize("measure", [
    WeightSpec.exponential(a=5.0), WeightSpec.power(0.5), WeightSpec.es(0.95), WeightSpec.flat(),
], ids=["exponential", "power", "es", "flat"])
def test_subadditivity_check_gives_the_bits_of_one_pass_per_position(measure, sample_size, policy):
    # a trial's three positions share one replication pass; three trials
    # take the three draw shapes
    config = replace(_LIGHT_CONFIG, endpoint_policy=policy)
    report = subadditivity_check(measure, sample_size=sample_size, trials=3, seed=7, config=config)
    assert (report.violations, report.worst_gap.hex()) == subadditivity_reference(
        measure, sample_size, 3, 7, config)


def test_a_stress_trial_weighs_each_chunk_once(monkeypatch):
    weighed = []
    unchecked_weight = quadrature._weight

    def counted_weights(spec, p, out=None):
        weighed.append(np.size(p))
        return unchecked_weight(spec, p, out)

    monkeypatch.setattr(quadrature, "_weight", counted_weights)
    subadditivity_check(WeightSpec.exponential(a=5.0), trials=1)
    half = (_LIGHT_CONFIG.n_points - 1) // 2
    chunks = -(-half // _BLOCK)
    assert chunks == 7
    # the two endpoints, then each chunk's nodes and mirrors, once for the
    # three positions: 2 calls a chunk, where a pass per position makes 6
    assert len(weighed) == 2 + 2 * chunks
    assert weighed[:2] == [1, 1] and sum(weighed) == 2 + 2 * half


def test_subadditivity_check_validation():
    with pytest.raises(ValueError, match="sample_size"):
        subadditivity_check(WeightSpec.flat(), sample_size=1, trials=5)
    with pytest.raises(ValueError, match="trials"):
        subadditivity_check(WeightSpec.flat(), sample_size=10, trials=0)
    with pytest.raises(TypeError, match="must be a WeightSpec, not str"):
        subadditivity_check("var", sample_size=10, trials=5)
    with pytest.raises(TypeError, match="must be a WeightSpec, not function"):
        subadditivity_check(lambda src: var(src, 0.99), sample_size=10, trials=5)


@pytest.mark.parametrize("call,error,message", [
    # unchecked, True would run as seed 1, and None would fail inside numpy
    (lambda: subadditivity_check(WeightSpec.flat(), sample_size=2, trials=1, seed=True),
     TypeError, "seed must be a non-negative integer, not True"),
    (lambda: subadditivity_check(WeightSpec.flat(), sample_size=2, trials=1, seed=None),
     TypeError, "seed must be a non-negative integer, not None"),
    (lambda: subadditivity_check(WeightSpec.flat(), sample_size=2, trials=1, seed=-1),
     ValueError, "seed must be a non-negative integer, not -1"),
    # each would fail inside numpy or range() with a TypeError naming neither
    (lambda: subadditivity_check(WeightSpec.flat(), sample_size=2.5, trials=1),
     ValueError, "sample_size must be an integer, not 2.5"),
    (lambda: subadditivity_check(WeightSpec.flat(), sample_size=2, trials=1.5),
     ValueError, "trials must be an integer, not 1.5"),
    (lambda: check_admissibility(WeightSpec.flat(), grid_size=1001.0),
     ValueError, "grid_size must be an integer, not 1001.0"),
    (lambda: weight_curve(WeightSpec.flat(), n_points=2.5),
     ValueError, "n_points must be an integer, not 2.5"),
    # nan would be reported as a bad row 961 of the joint samples, and 1e308
    # doubles to inf with an overflow warning first
    (lambda: var_subadditivity_counterexample(loss=math.nan),
     ValueError, "loss must be a number whose double is finite, not nan"),
    (lambda: var_subadditivity_counterexample(loss=1e308),
     ValueError, "loss must be a number whose double is finite, not 1e+308"),
    (lambda: var_subadditivity_counterexample(loss=-math.inf),
     ValueError, "loss must be a number whose double is finite, not -inf"),
], ids=["seed-bool", "seed-none", "seed-negative", "sample_size-fraction", "trials-fraction",
        "grid_size-float", "weight_curve-n_points-fraction", "loss-nan", "loss-1e308", "loss-minus-inf"])
def test_analysis_and_admissibility_inputs_are_checked_where_they_enter(call, error, message):
    with pytest.raises(error, match=re.escape(message) + "$"):
        call()


def test_reports_hold_numpy_integers_as_python_ints():
    # a numpy integer in a report would make its to_dict unwritable by json
    got = subadditivity_check(WeightSpec.flat(), sample_size=np.int64(20), trials=np.int64(2),
                              seed=np.int64(3), config=FAST)
    assert (type(got.trials), type(got.seed)) == (int, int)
    assert got == subadditivity_check(WeightSpec.flat(), sample_size=20, trials=2, seed=3, config=FAST)
    assert json.loads(json.dumps(got.to_dict())) == got.to_dict()
    report = check_admissibility(WeightSpec.flat(), grid_size=np.int64(11))
    assert type(report.grid_size) is int
    assert json.loads(json.dumps(report.to_dict()))["grid_size"] == 11


def test_merging_a_position_with_itself_doubles_the_measure_exactly():
    # positive homogeneity of the sample measure makes this gap exactly zero
    rng = np.random.default_rng(31)
    x = rng.normal(size=200)
    spec = WeightSpec.exponential(a=5.0)
    single = srm(load_empirical(x), spec, FAST)
    merged = srm(load_empirical(x + x), spec, FAST)
    assert merged - 2.0 * single == 0.0


def test_var_counterexample_violates_subadditivity():
    result = var_subadditivity_counterexample()
    assert result["violated"] is True
    assert result["gap"] > 0.0
    assert result["var_a"] == 0.0
    assert result["var_b"] == 0.0
    assert result["var_sum"] == result["loss"]
    assert result["gap"] == result["loss"]
    assert result["tail_prob"] == pytest.approx(0.04, abs=1e-12)


def test_var_counterexample_validation():
    with pytest.raises(ValueError, match="alpha"):
        var_subadditivity_counterexample(alpha=1.0)
    with pytest.raises(ValueError, match="tail_prob"):
        var_subadditivity_counterexample(tail_prob=0.0)
    with pytest.raises(ValueError, match="too extreme"):
        var_subadditivity_counterexample(tail_prob=1e-9)


def test_sweep_to_csv_round_trips_floats_exactly(tmp_path):
    result = SweepResult(family="exponential", params=(0.5, 5.0),
                         values=(0.1234567890123456789, 2.0 / 3.0))
    path = tmp_path / "sweep.csv"
    sweep_to_csv(result, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "param,value"
    assert len(lines) == 3
    for line, (p, v) in zip(lines[1:], result.rows()):
        cp, cv = line.split(",")
        assert float(cp) == p
        assert float(cv) == v


def test_curve_and_convergence_csv_headers(tmp_path):
    curve_path = tmp_path / "curve.csv"
    curve_to_csv([(0.0, 1.0), (0.5, 2.0)], curve_path)
    curve_lines = curve_path.read_text(encoding="utf-8").splitlines()
    assert curve_lines[0] == "p,weight"
    assert curve_lines[1] == "0.0,1.0"

    rows = convergence_study(standard_normal(), WeightSpec.flat(), [101, 1001])
    conv_path = tmp_path / "conv.csv"
    convergence_to_csv(rows, conv_path)
    conv_lines = conv_path.read_text(encoding="utf-8").splitlines()
    assert conv_lines[0] == "n,value"
    assert conv_lines[1].startswith("101,")
    n_cell = conv_lines[2].split(",")[0]
    assert n_cell == "1001"
