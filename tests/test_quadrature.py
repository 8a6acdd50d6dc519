"""Quadrature engines: replication grid, converged refinement, Monte Carlo."""

import math
import platform
import re
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from normal_references import MEASURES
from reference import (
    monte_carlo_one_array,
    replication_every_node,
    segment_simpson_srm,
    simpson_grid,
)
from spectral_risk import (
    ConvergenceError,
    NumericalError,
    QuadratureConfig,
    WeightSpec,
    check_admissibility,
    constant,
    convergence_study,
    load_empirical,
    normal,
    quantile,
    srm_converged,
    srm_monte_carlo,
    srm_replication,
    standard_normal,
    subadditivity_check,
    sweep_srm,
    uniform,
    weight,
    weight_mass,
)
from spectral_risk import distributions, quadrature
from spectral_risk.distributions import _BLOCK, _quantile_pair, _standard_form, _upper_quantile
from spectral_risk.measures import _srm_values
from spectral_risk.quadrature import _TS_ENDS, _TS_NODES, _TS_WEIGHTS, _endpoint_integrand, _tanh_sinh
from spectral_risk.risk_aversion import _log_tail_probability, _weight

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


def _plant_nan(monkeypatch, node):
    """Make the weight nan at one node: _weight weighs the endpoints, one at
    a time, and the interior, nodes and mirrors in their own rows."""
    real = quadrature._weight

    def rows(spec, p, out=None):
        out = real(spec, p, out)
        out[p == node] = np.nan
        return out
    monkeypatch.setattr(quadrature, "_weight", rows)


@pytest.mark.parametrize("policy,eps,n,node", [
    ("clip_epsilon", 1e-9, 3, 1e-9),
    ("clip_epsilon", 1e-9, 3, 1.0 - 1e-9),
    ("zero_endpoints", 1e-9, 5, 0.25),
    ("zero_endpoints", 1e-9, 5, 0.75),
    ("zero_endpoints", 1e-9, 7, 0.5),
    # clipped in place: the error names the node the integrand saw
    ("clip_epsilon", 0.3, 5, 0.3),
    ("clip_epsilon", 0.3, 5, 1.0 - 0.3),
], ids=["clipped-lo", "clipped-hi", "lower-half", "upper-half", "middle", "clipped-node",
        "clipped-mirror"])
def test_replication_names_the_node_that_is_not_finite(monkeypatch, policy, eps, n, node):
    _plant_nan(monkeypatch, node)
    config = QuadratureConfig(n_points=n, endpoint_policy=policy, epsilon=eps)
    with pytest.raises(NumericalError, match="not finite") as exc_info:
        srm_replication(constant(1.0), WeightSpec.flat(), config)
    message = str(exc_info.value)
    assert message.endswith(f"x = {node!r}")
    assert "np.float64" not in message


def test_grid_sum_that_overflows_raises_instead_of_returning_inf():
    # every node is finite, but their weighted sum passes the largest double
    config = QuadratureConfig(n_points=100_001)
    with pytest.raises(NumericalError, match="overflows a double; try the converged scheme"):
        srm_replication(constant(1e306), WeightSpec.flat(), config)
    with pytest.raises(NumericalError, match="3-node Simpson sum overflows"):
        srm_replication(constant(1.7e308), WeightSpec.flat(), QuadratureConfig(n_points=3))
    # the converged scheme sums no grid, and a smaller level stays priced
    assert srm_converged(constant(1e306), WeightSpec.flat()).value == 1e306
    assert srm_replication(constant(1e300), WeightSpec.flat(), config).value == pytest.approx(1e300)


def test_quadrature_config_validation():
    with pytest.raises(ValueError, match="odd"):
        QuadratureConfig(n_points=1000)
    with pytest.raises(ValueError, match="odd"):
        QuadratureConfig(n_points=1)
    assert QuadratureConfig(n_points=np.int64(5)).n_points == 5
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


@pytest.mark.parametrize("n_points", [5.0, np.float64(5.0)], ids=["float", "numpy-float"])
def test_quadrature_config_refuses_a_point_count_that_is_not_an_integer(n_points):
    # either passes the odd-and-at-least-3 check, and would then fail later,
    # inside range(), rather than where the config is built
    with pytest.raises(ValueError, match=re.escape(f"n_points must be an integer, not {n_points!r}") + "$"):
        QuadratureConfig(n_points=n_points)


@pytest.mark.parametrize("make", [
    lambda: QuadratureConfig(rel_tol=True),
    lambda: QuadratureConfig(epsilon=True),
    lambda: QuadratureConfig(epsilon="x"),
    lambda: QuadratureConfig(rel_tol="x"),
    lambda: srm_converged(standard_normal(), WeightSpec.flat(), rel_tol="x"),
    lambda: srm_converged(standard_normal(), WeightSpec.flat(), rel_tol=None),
], ids=["config-rel_tol-bool", "config-epsilon-bool", "config-epsilon-str", "config-rel_tol-str",
        "converged-rel_tol-str", "converged-rel_tol-none"])
def test_tolerances_must_be_real_numbers_other_than_bool(make):
    # unchecked, True would compare as 1, and a string would fail inside a
    # comparison with a TypeError that names neither the argument nor its value
    with pytest.raises(ValueError, match=r"(epsilon|rel_tol) must be a real number, not (True|'x'|None)$"):
        make()


def test_tolerances_given_as_numpy_scalars_are_held_as_floats():
    config = QuadratureConfig(epsilon=np.float32(0.125), rel_tol=np.int64(1))
    assert (type(config.epsilon), config.epsilon) == (float, 0.125)
    assert (type(config.rel_tol), config.rel_tol) == (float, 1.0)


def test_replication_recovers_a_constant_loss_with_a_steep_weight():
    config = QuadratureConfig(n_points=1001)
    result = srm_replication(constant(4.2), WeightSpec.exponential(a=25.0), config)
    assert result.value == pytest.approx(4.2, abs=1e-6)
    assert result.n_points == 1001
    assert result.scheme == "replication"
    assert result.endpoint_policy == "zero_endpoints"
    assert result.estimated_error is None


def test_replication_defaults_to_the_standard_config():
    # es 0.95 weighs the top 5% of the 10,000,001-node grid alone, so the
    # pass stops early; the weight's jump costs Simpson one step's accuracy
    spec = WeightSpec.es(0.95)
    result = srm_replication(constant(2.5), spec)
    assert result == srm_replication(constant(2.5), spec, QuadratureConfig())
    assert result.n_points == 10_000_001
    assert result.value == pytest.approx(2.5, abs=1e-5)


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


def zero_endpoints(source, spec):
    """The two endpoint integrands under zero_endpoints."""
    with np.errstate(divide="ignore"):  # the power weight is +inf at p = 1
        return tuple(_endpoint_integrand(source, float(_weight(spec, np.array(p))), p) for p in (0.0, 1.0))


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
        y[0], y[-1] = zero_endpoints(source, spec)
    return simpson_grid(y, 1.0 / (n - 1))


def weighs_no_interior_node(spec, config):
    """True where the weight is zero at the grid's largest interior node,
    clipped to the last end, and so at every interior node."""
    n = config.n_points
    end = 1.0 - config.epsilon if config.endpoint_policy == "clip_epsilon" else 1.0
    return weight(spec, min((n - 2) * (1.0 / (n - 1)), end)) == 0.0


def assert_no_interior_node_is_weighed(source, spec, config):
    with pytest.raises(NumericalError, match=(
        f"^the {config.n_points:,}-node grid weighs no interior node: its largest, p = .*; "
        "try the converged scheme$"
    )):
        srm_replication(source, spec, config)


# grid sizes whose folded lower half, nodes 1 to (n - 1) / 2, ends one node
# before, on, and one node after the end of the first chunk
_CHUNK_EDGE_SIZES = (2 * _BLOCK - 1, 2 * _BLOCK + 1, 2 * _BLOCK + 3)


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
        if weighs_no_interior_node(spec, config):  # es(0.9) at n = 3, 5 and 7
            assert_no_interior_node_is_weighed(source, spec, config)
            continue
        got = srm_replication(source, spec, config).value
        ref = _grid_reference(source, spec, n, policy)
        assert abs(got - ref) <= max(1e-12 * abs(ref), 1e-15), n


def quantile_pair(source, p, p_mirror):
    """The quantiles that _quantile_pair writes into two new arrays."""
    q, q_mirror = np.empty_like(p), np.empty_like(p_mirror)
    _quantile_pair(source, p, p_mirror, q, q_mirror, np.empty_like(p))
    return q, q_mirror


@pytest.mark.parametrize("policy,eps", [
    ("zero_endpoints", QuadratureConfig.epsilon),
    ("clip_epsilon", QuadratureConfig.epsilon),
    # mirrors clipped to 0.9: es(0.95) weighs every node at zero, which raises
    ("clip_epsilon", 0.1),
], ids=["zero_endpoints", "clip_epsilon", "clip_epsilon-0.1"])
@pytest.mark.parametrize("source", [
    normal(0.3, 1.2),
    load_empirical(np.random.default_rng(29).normal(0.3, 1.2, 500)),
    constant(4.2),
    # every integrand value is a zero, whose sign the sum must keep
    constant(-0.0),
], ids=["normal", "empirical-500", "constant", "constant-negative-zero"])
def test_replication_matches_the_every_node_reference_bitwise(source, policy, eps):
    # the chunks from the first whose mirrors all lie below the p where the
    # weight turns zero (es's alpha, the exponential's 1 - 746 / a) are not
    # built, and the pass still gives the bits of the loop that evaluates
    # every node; a grid whose first chunk would be cut weighs no interior
    # node, and raises
    specs = [
        WeightSpec.exponential(a=5.0), WeightSpec.power(0.5), WeightSpec.flat(),
        # no chunk is cut at 0.3 and 0.5, every chunk after the first is cut
        # at 0.95 for n > 2 _BLOCK, and every grid raises at 1 - 1e-13
        WeightSpec.es(0.3), WeightSpec.es(0.5), WeightSpec.es(0.95), WeightSpec.es(1 - 1e-13),
        # at n = 100,001 the third chunk's mirrors run from 0.836 down to 0.754
        WeightSpec.es(0.8),
        # zero below 0.9254 and 0.999254: n = 3 raises, and at n = 100,001
        # every chunk after the first is cut
        WeightSpec.exponential(a=1e4), WeightSpec.exponential(a=1e6),
    ]
    for spec in specs:
        if policy == "clip_epsilon":
            ends = tuple(weight(spec, p) * quantile(source, p) for p in (eps, 1.0 - eps))
        else:
            ends = zero_endpoints(source, spec)
        for n in (3, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 100_001):
            config = QuadratureConfig(n_points=n, endpoint_policy=policy, epsilon=eps)
            if weighs_no_interior_node(spec, config):
                assert_no_interior_node_is_weighed(source, spec, config)
                continue
            got = srm_replication(source, spec, config).value
            ref = replication_every_node(
                lambda p, p_mirror: quantile_pair(source, p, p_mirror),
                lambda p: weight(spec, p), n, policy, eps, ends, _BLOCK,
            )
            assert got.hex() == ref.hex(), (spec, n)


def one_pass_per_source(sources, spec, config):
    """Each source's srm_replication value, or what the first to fail raises."""
    try:
        return [srm_replication(source, spec, config).value.hex() for source in sources]
    except NumericalError as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def one_pass(sources, spec, config):
    try:
        return [value.hex() for value in _srm_values(sources, spec, config)]
    except NumericalError as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


# sources of several sizes and kinds, and three that fail on some grids
_SOURCES = [
    normal(0.3, 1.2), standard_normal(), constant(4.2), constant(-0.0), uniform(-1.5, 2.25),
    load_empirical([0.1, -1000.0]),
    *(load_empirical(np.random.default_rng([41, k]).lognormal(size=size))
      for k, size in enumerate((3, 500, 500, 500, 20_000))),
]
_FAILING = [constant(1e307), constant(1e308), load_empirical([-1e308, -1e308, 0.0])]


def test_one_pass_over_many_sources_gives_each_its_own_bits_and_the_first_error():
    rng = np.random.default_rng(43)
    specs = [WeightSpec.exponential(a=5.0), WeightSpec.exponential(a=1e4), WeightSpec.power(0.5),
             WeightSpec.es(0.9), WeightSpec.flat()]
    for _ in range(200):
        sources = [_SOURCES[k] for k in rng.integers(len(_SOURCES), size=int(rng.integers(2, 6)))]
        if rng.random() < 0.3:
            sources[rng.integers(len(sources))] = _FAILING[rng.integers(len(_FAILING))]
        spec = specs[rng.integers(len(specs))]
        policy = ("zero_endpoints", "clip_epsilon")[rng.integers(2)]
        n = int((3, 2 * _BLOCK + 1, 2 * _BLOCK + 3, 100_001)[rng.integers(4)])
        config = QuadratureConfig(n_points=n, endpoint_policy=policy)
        assert one_pass(sources, spec, config) == one_pass_per_source(sources, spec, config)


@pytest.mark.parametrize("policy", ["zero_endpoints", "clip_epsilon"])
@pytest.mark.parametrize("first,later,spec", [
    # the first source fails in the second chunk, at 0.91011, and the later
    # one in the first, at 0.99999, or at its clipped endpoint
    (load_empirical([-1e308, -1e308, 0.0]), constant(1e308), WeightSpec.es(0.9)),
    # the first source's values are finite and only their sum overflows,
    # after the last chunk
    (constant(1e307), constant(1e308), WeightSpec.exponential(a=5.0)),
], ids=["node", "sum"])
def test_one_pass_raises_the_error_of_the_first_failing_source(first, later, spec, policy):
    config = QuadratureConfig(n_points=100_001, endpoint_policy=policy)
    with pytest.raises(NumericalError) as own:
        srm_replication(first, spec, config)
    with pytest.raises(NumericalError, match="not finite"):
        srm_replication(later, spec, config)
    for sources in ([first, later], [standard_normal(), first, later, first]):
        with pytest.raises(NumericalError) as joint:
            _srm_values(sources, spec, config)
        assert str(joint.value) == str(own.value)


def test_a_failure_runs_only_the_earlier_sources_again_each_alone_and_once(monkeypatch):
    calls = []
    quantile_pair = quadrature._quantile_pair

    def counted(source, *args):
        calls.append(source)
        return quantile_pair(source, *args)

    monkeypatch.setattr(quadrature, "_quantile_pair", counted)
    config = QuadratureConfig(n_points=100_001)  # 7 chunks, every one weighed
    spec = WeightSpec.exponential(a=5.0)
    first, later, failing = normal(0.3, 1.2), constant(4.2), constant(1e308)
    with pytest.raises(NumericalError) as own:
        srm_replication(failing, spec, config)
    assert len(calls) == 1  # w q overflows at the first chunk's largest mirror
    # a group that passes runs one pass: each chunk once per source
    calls.clear()
    _srm_values([first, later], spec, config)
    assert calls == [first, later] * 7
    # the second source fails in the first chunk, and only the first source
    # runs again, alone, through its 7 chunks, before the second's error
    calls.clear()
    with pytest.raises(NumericalError) as joint:
        _srm_values([first, failing, later], spec, config)
    assert str(joint.value) == str(own.value)
    assert calls == [first, failing] + [first] * 7


def test_clip_epsilon_wider_than_a_grid_step_keeps_the_nodes_above_the_zero_weight_edge():
    # epsilon 0.3 exceeds the step 0.25, and 1 - epsilon = 0.7 lies above
    # es(0.5)'s zero-weight edge, so the pass weighs its one chunk: the ends
    # give 0 + 2; node 1, clipped to 0.3, and its mirror, clipped to 0.7,
    # give 0 + 2 at coefficient 4; the middle node 0.5 gives 2 at coefficient 2
    spec = WeightSpec.es(0.5)
    config = QuadratureConfig(n_points=5, endpoint_policy="clip_epsilon", epsilon=0.3)
    assert srm_replication(constant(1.0), spec, config).value == (2.0 + 4.0 * 2.0 + 2.0 * 2.0) * 0.25 / 3.0
    source = normal(0.3, 1.2)
    ends = tuple(weight(spec, p) * quantile(source, p) for p in (0.3, 0.7))
    ref = replication_every_node(lambda p, p_mirror: quantile_pair(source, p, p_mirror),
                                 lambda p: weight(spec, p), 5, "clip_epsilon", 0.3, ends, _BLOCK)
    assert srm_replication(source, spec, config).value.hex() == ref.hex()


def test_replication_evaluates_the_quantiles_of_weighted_chunks_only(monkeypatch):
    nodes, weighed = [], []
    inverse_normal_cdf, unchecked_weight = distributions.inverse_normal_cdf, quadrature._weight

    def counted_quantiles(p, out=None):
        nodes.append(np.size(p))
        return inverse_normal_cdf(p, out=out)

    def counted_weights(spec, p, out=None):
        weighed.append(np.size(p))
        return unchecked_weight(spec, p, out)

    monkeypatch.setattr(distributions, "inverse_normal_cdf", counted_quantiles)
    monkeypatch.setattr(quadrature, "_weight", counted_weights)
    n = (1 << 17) + 1
    half = (n - 1) // 2
    chunks = half // _BLOCK

    def evaluated(spec, **policy):
        nodes.clear()
        weighed.clear()
        srm_replication(standard_normal(), spec, QuadratureConfig(n_points=n, **policy))
        return sum(nodes), weighed

    assert chunks == 8
    # the two endpoints are weighed first, one node each; the first chunk's
    # mirrors run down to 1 - _BLOCK / 2**17 = 0.9375 and reach 0.95; the
    # second chunk's start below 0.95, so the pass stops there, having
    # weighed the nodes and the mirrors of one chunk
    ends = [1, 1]
    assert evaluated(WeightSpec.es(0.95)) == (_BLOCK, ends + [_BLOCK] * 2)
    assert evaluated(WeightSpec.es(0.3)) == (half, ends + [_BLOCK] * 2 * chunks)
    assert evaluated(WeightSpec.exponential(a=5.0)) == (half, ends + [_BLOCK] * 2 * chunks)
    # exp(-a (1 - p)) is zero below 1 - 746 / a = 0.9254, which the third
    # chunk's mirrors, from 0.875 down, all lie below
    assert evaluated(WeightSpec.exponential(a=1e4)) == (2 * _BLOCK, ends + [_BLOCK] * 4)
    # clip_epsilon evaluates its two endpoints as scalars, and clips every
    # mirror to at most 1 - epsilon: at epsilon = 1e-9 the same chunks carry
    # weight, and at 0.1 none does, as 0.9 lies below 0.9254, so the pass
    # raises before it weighs or evaluates anything
    clip = {"endpoint_policy": "clip_epsilon"}
    assert evaluated(WeightSpec.exponential(a=1e4), **clip, epsilon=1e-9) == (2 + 2 * _BLOCK, ends + [_BLOCK] * 4)
    with pytest.raises(NumericalError, match="weighs no interior node"):
        evaluated(WeightSpec.exponential(a=1e4), **clip, epsilon=0.1)
    assert (sum(nodes), weighed) == (0, [])


@pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts are read from Linux getrusage")
def test_replication_reuses_heap_memory_instead_of_faulting_in_fresh_pages():
    import resource

    # temporaries above glibc's mmap threshold are mapped and faulted in
    # afresh on every call: 2**16-node chunks took about 846 faults per call
    def faults_per_call(call, calls):
        call()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(calls):
            call()
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls

    source = load_empirical(np.random.default_rng(31).normal(size=500))
    spec = WeightSpec.exponential(a=5.0)
    config = QuadratureConfig(n_points=100_001)
    assert faults_per_call(lambda: srm_replication(source, spec, config), 10) < 100

    def draws():
        return srm_monte_carlo(standard_normal(), spec, n_draws=1_000_000, seed=5)

    # a million draws summed as whole 2**20-draw streams took about 3,900
    assert faults_per_call(draws, 3) < 100


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the faults come from glibc's heap trimming, counted by Linux getrusage")
def test_replication_faults_in_no_pages_in_a_process_without_scipy(fresh_python):
    # Per-chunk temporaries freed at the top of glibc's heap are trimmed and
    # faulted in again on the next chunk unless live objects, such as those
    # scipy's import once left, happen to hold them down: about 8,600 faults
    # over these 30 passes in a process without scipy.  The kernel reuses
    # its thread's workspace instead, whatever was imported.
    out = fresh_python(
        "import resource, sys\n"
        "import numpy as np\n"
        "from spectral_risk import QuadratureConfig, WeightSpec, load_empirical, srm_replication\n"
        "source = load_empirical(np.random.default_rng(31).lognormal(size=500))\n"
        "spec, config = WeightSpec.exponential(a=5.0), QuadratureConfig(n_points=100_001)\n"
        "srm_replication(source, spec, config)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(30):\n"
        "    srm_replication(source, spec, config)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "assert 'scipy' not in sys.modules\n"
    )
    assert int(out) < 30


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the faults come from glibc's heap trimming, counted by Linux getrusage")
@pytest.mark.parametrize("calls", [
    "srm_replication(normal(0.3, 1.2), WeightSpec.exponential(a=5.0), QuadratureConfig(n_points=100_001))",
    "srm_monte_carlo(normal(0.3, 1.2), WeightSpec.power(0.1), n_draws=1_000_000, seed=0)",
], ids=["replication", "monte-carlo"])
def test_a_normal_source_faults_in_no_pages_in_a_fresh_process(calls, fresh_python):
    # The inverse normal evaluates its branches, and gathers the draws of a
    # Monte Carlo piece that take a minority branch, in its thread's scratch:
    # a scratch allocated per block, above glibc's mmap threshold, was mapped
    # and faulted in afresh on every replication chunk, 44 faults over these
    # 30 passes.  Monte Carlo runs 3 calls.
    repeats = 30 if calls.startswith("srm_replication") else 3
    out = fresh_python(
        "import resource, sys\n"
        "from spectral_risk import QuadratureConfig, WeightSpec, normal, srm_monte_carlo, srm_replication\n"
        f"{calls}\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"for _ in range({repeats}):\n"
        f"    {calls}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    assert int(out) < 30


def test_each_thread_replicates_in_its_own_workspace():
    # numpy releases the interpreter lock inside its loops, so passes in two
    # threads that shared a workspace would overwrite each other's chunks
    config = QuadratureConfig(n_points=100_001)
    cases = [
        (load_empirical(np.random.default_rng(37).lognormal(size=500)), WeightSpec.exponential(a=5.0)),
        (normal(0.3, 1.2), WeightSpec.es(0.95)),
    ] * 2  # more threads than the two cores of a small runner
    expected = [[srm_replication(source, spec, config).value.hex()] * 20 for source, spec in cases]
    start = threading.Barrier(len(cases))
    got = [[] for _ in cases]

    def replicate(source, spec, values):
        start.wait(timeout=60.0)
        for _ in range(20):
            values.append(srm_replication(source, spec, config).value.hex())

    threads = [threading.Thread(target=replicate, args=(*case, values), daemon=True)
               for case, values in zip(cases, got)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


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


def test_a_tail_map_that_overflows_names_its_node_without_a_warning():
    # log(w) / c overflows to -inf for c = 1e-307, where the quantile is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as exc_info:
            srm_converged(standard_normal(), WeightSpec.power(1e-307))
    assert str(exc_info.value) == "integrand not finite at node x = 5.838244487549328e-38"


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
    # a rel_tol below the rounding floor of a level difference, 8 ulps of
    # the integral of |y|: the rule runs out of levels before it meets it
    spec = WeightSpec.exponential(a=5.0)
    y = _upper_quantile(_log_tail_probability(spec, _TS_NODES))
    with pytest.raises(ConvergenceError, match="did not converge after 8 levels") as exc_info:
        _tanh_sinh(y, 1e-16)
    err = exc_info.value
    # the whole table's bound, 2.3e-15, lies below the 5e-13 rounding of the
    # 12-digit reference, so the 30-digit one measures the distance
    ref = Fraction(MEASURES["exponential", 5.0])
    assert err.best_estimate == pytest.approx(float(ref), abs=0.1)
    # the reported bound must be finite, positive, and honestly cover the
    # distance to the converged reference
    assert 0.0 < err.error_bound < math.inf
    assert abs(Fraction(err.best_estimate) - ref) <= err.error_bound
    assert isinstance(err, NumericalError)


def test_converged_answer_takes_one_quantile_layer_call(monkeypatch):
    # the rule's table is built once, at import: every node of every level
    # goes through the quantile layer in one call, and the answer counts
    # the nodes of the levels it summed
    assert np.diff((0,) + _TS_ENDS).tolist() == [8, 7, 14, 29, 57, 114, 229, 458, 916]
    for table in (_TS_NODES, _TS_WEIGHTS):
        assert table.shape == (1832,) and not table.flags.writeable
    assert np.all((_TS_NODES > 0.0) & (_TS_NODES < 1.0))
    calls = []
    original = quadrature._upper_quantile

    def counted(log_t):
        calls.append(log_t.size)
        return original(log_t)

    monkeypatch.setattr(quadrature, "_upper_quantile", counted)
    result = srm_converged(normal(0.3, 1.2), WeightSpec.exponential(a=5.0), rel_tol=1e-6)
    assert calls == [1832]
    assert result.n_points in _TS_ENDS and result.n_points < 1832


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


@pytest.mark.parametrize("source", [constant(0.0), load_empirical([0.0, 0.0])], ids=["constant", "two-samples"])
@pytest.mark.parametrize("rel_tol", [math.inf, 1e-9])
def test_closed_form_certifies_a_zero_source_at_any_tolerance(source, rel_tol):
    # the bound is 0, and rel_tol times a largest |x_k| of 0 is nan at rel_tol = inf
    result = srm_converged(source, WeightSpec.es(0.95), rel_tol=rel_tol)
    assert (result.value, result.estimated_error) == (0.0, 0.0)


def test_closed_form_rounding_bound_stays_finite_on_the_widest_samples():
    # spread times the level count would pass the largest double
    result = srm_converged(load_empirical([-8e307, 8e307]), WeightSpec.flat())
    assert result.value == 0.0
    assert 0.0 < result.estimated_error < math.inf


def _exact_type7_es(samples, alpha):
    """es at alpha (flat at 0) of the type-7 quantile of samples, as a
    Fraction: the mean over [alpha, 1] of the piecewise-linear quantile
    through (k / (n - 1), x_k), each segment's part its width times the
    mean of its end values."""
    x = sorted(Fraction(v) for v in samples)
    n, a = len(x), Fraction(alpha)
    if n == 1:
        return x[0]
    total = Fraction(0)
    for k in range(n - 1):
        lo, hi = Fraction(k, n - 1), Fraction(k + 1, n - 1)
        if hi > a:
            start = max(lo, a)
            at_start = x[k] + (start - lo) * (n - 1) * (x[k + 1] - x[k])
            total += (hi - start) * (at_start + x[k + 1]) / 2
    return total / (1 - a)


# small samples of dyadic values: edge cases, then seeded draws of 1 to 24
# multiples of 1/8, some offset by a large or a tiny power of two
RATIONAL_SAMPLES = [
    [0.0], [-3.5], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0, 0.0, 2.0], [2.0**-40, 1.0, 2.0**40],
    *([float(v) for v in np.random.default_rng(41 + i).integers(-64, 65, 1 + i % 24) / 8.0]
      for i in range(24)),
    *([float(v) + 2.0**20 for v in np.random.default_rng(71 + i).integers(-64, 65, 3 + i) / 8.0]
      for i in range(3)),
    *([float(v) * 2.0**-30 for v in np.random.default_rng(81 + i).integers(-64, 65, 5 + i)]
      for i in range(3)),
]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.75, 0.9375, 2.0**-10, 1.0 - 2.0**-12],
                         ids=["flat", "es-1/2", "es-3/4", "es-15/16", "es-2^-10", "es-1-2^-12"])
def test_closed_form_lies_within_its_bound_of_the_exact_rational_value(alpha):
    # dyadic samples and alpha make the type-7 value a rational number, which
    # Fraction computes exactly; the converged value's error is compared with
    # its bound without rounding
    spec = WeightSpec.flat() if alpha == 0.0 else WeightSpec.es(alpha)
    for samples in RATIONAL_SAMPLES:
        result = srm_converged(load_empirical(samples), spec, rel_tol=1e-9)
        error = abs(Fraction(result.value) - _exact_type7_es(samples, alpha))
        assert error <= Fraction(result.estimated_error), samples


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
    # a numpy integer seed draws the same stream, and the result holds an int
    numpy_seed = srm_monte_carlo(src, spec, n_draws=50_000, seed=np.int64(3))
    assert numpy_seed == one and type(numpy_seed.seed) is int


def test_monte_carlo_seeded_value_is_pinned_across_two_chunks():
    # 2**20 + 3 draws: 128 whole pieces and one of 3 draws
    mc = srm_monte_carlo(standard_normal(), WeightSpec.exponential(a=5.0),
                         n_draws=(1 << 20) + 3, seed=11)
    assert mc.value == 1.080920155440912
    assert mc.stderr == 0.0007531071120810793


def _one_array_reference(source, spec, n_draws, seed):
    """srm_monte_carlo's value and stderr from one array: the standard form
    of source, with log t floored at t = 2**-53, drawn, mapped and summed by
    monte_carlo_one_array, then rescaled; the standard draws' sums and the
    (loc, scale) of the rescaling follow, for _assert_within_rounding."""
    loc, scale, knots = _standard_form(source)

    def loss(u):
        log_t = np.maximum(_log_tail_probability(spec, u), math.log(2.0**-53))
        if knots is None:
            return _upper_quantile(log_t)
        return quantile(source, -np.expm1(log_t))

    mean, stderr, abs_sum, sq_sum = monte_carlo_one_array(loss, n_draws, seed)
    return loc + scale * mean, scale * stderr, (loc, scale, mean, stderr, abs_sum, sq_sum)


def _assert_within_rounding(mc, reference, n):
    """mc's value and stderr lie within what rounding alone can move them
    from the one-array reference's, a bound derived from the number of
    pieces and the sums of |x| and x**2 over the n standard draws x, and
    from the final rescaling.

    Both sum the same n terms.  np.sum adds a block of at most 128 terms in
    eight interleaved partial sums of up to 16 terms, joined by three
    additions, then up to seven leftover terms one by one: at most
    15 + 3 + 7 = 25 additions for any term.  A larger block is halved, one
    more addition per halving, at most ceil(log2 n) of them.  The pieces'
    sums are added to a running total, one more addition per later piece.
    A sum in which every term passes through at most k additions is within
    gamma(k) = k u / (1 - k u) of sum|x|, u = 2**-53, so the two totals are
    within gamma(k) of it for k the two depths added; dividing by n rounds
    once more on each side.  The variance numerator S2 - n m m, with
    S2 = sum x**2 and m the mean, differs by gamma(k) S2 in S2, by
    n dm (2 |m| + dm) in n m m, and by its six roundings, two products and
    a difference on each side, each within u S2, since n m m <= S2.  The
    stderr sqrt(N / (n (n - 1))) moves by at most dN / (n (n - 1)) over
    the stderr, plus u for each of the two divisions and the root on each
    side, five in all with the first-order slack.  Each side then takes
    loc + scale m and scale times the stderr: scale multiplies both
    distances, and each product and the sum round within u of their
    results, to first order, except that a product by 1 and a sum with 0
    are exact.
    """
    value, scaled_stderr, (loc, scale, mean, stderr, abs_sum, sq_sum) = reference
    pieces = -(-n // _BLOCK)
    u = 2.0**-53

    def gamma(k):
        return k * u / (1.0 - k * u)

    k = (25 + math.ceil(math.log2(n))) + (25 + math.ceil(math.log2(min(n, _BLOCK))) + pieces - 1)
    d_mean = gamma(k + 2) * abs_sum / n
    d_num = gamma(k + 6) * sq_sum + n * d_mean * (2.0 * abs(mean) + d_mean)
    d_stderr = d_num / (n * (n - 1) * stderr) + 5.0 * u * stderr
    rescaled, summed = scale != 1.0, loc != 0.0
    d_value = scale * d_mean + 2.0 * u * (rescaled * abs(scale * mean) + summed * abs(value))
    d_scaled = scale * d_stderr + 2.0 * u * rescaled * scaled_stderr
    assert abs(mc.value - value) <= d_value, (n, mc.value, value, d_value)
    assert abs(mc.stderr - scaled_stderr) <= d_scaled, (n, mc.stderr, scaled_stderr, d_scaled)


def test_monte_carlo_seeded_value_is_pinned_at_a_million_draws():
    source, spec, n = standard_normal(), WeightSpec.exponential(a=5.0), 1_000_000
    mc = srm_monte_carlo(source, spec, n_draws=n, seed=11)
    assert (mc.value, mc.stderr) == (1.0806853427113707, 0.0007713374313996144)
    # one np.sum over all the draws lies within the rounding bound of the pin
    reference = _one_array_reference(source, spec, n, 11)
    assert reference[:2] == (1.080685342711371, 0.0007713374313996143)
    _assert_within_rounding(mc, reference, n)


@pytest.mark.parametrize("spec", [
    WeightSpec.exponential(a=5.0),
    WeightSpec.power(0.1),
    WeightSpec.es(0.95),
    WeightSpec.flat(),
], ids=["exponential", "power", "es", "flat"])
@pytest.mark.parametrize("source", [
    normal(0.3, 1.2),
    load_empirical(np.random.default_rng(29).normal(0.3, 1.2, 500)),
], ids=["normal", "empirical-500"])
def test_monte_carlo_matches_the_one_array_reference_within_rounding(source, spec):
    # one piece gives the bits of one np.sum over the stream; more pieces,
    # summed in draw order, differ by rounding alone
    for n in (2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 1_000_000):
        mc = srm_monte_carlo(source, spec, n_draws=n, seed=13)
        reference = _one_array_reference(source, spec, n, 13)
        if n <= _BLOCK:
            assert (mc.value, mc.stderr) == reference[:2], n
        _assert_within_rounding(mc, reference, n)


def test_monte_carlo_continues_one_stream_past_2_20_draws():
    source = load_empirical(np.random.default_rng(29).normal(0.3, 1.2, 500))
    spec = WeightSpec.power(0.1)
    n = (1 << 20) + 3
    mc = srm_monte_carlo(source, spec, n_draws=n, seed=2)
    _assert_within_rounding(mc, _one_array_reference(source, spec, n, 2), n)


@pytest.mark.parametrize("spec", [WeightSpec.exponential(a=5.0), WeightSpec.power(0.1)],
                         ids=["exponential", "power"])
@pytest.mark.parametrize("mean,sd", [(0.3, 1.2), (-50.0, 1e-3), (1e8, 1.0)])
def test_monte_carlo_normal_is_the_rescaled_standard_normal(mean, sd, spec):
    # the draws are of the standard normal, so a large mean cannot cancel the
    # sum of squares: mapped to 1e8 + z, 20,000 draws reported stderr 0.0
    std = srm_monte_carlo(standard_normal(), spec, n_draws=20_000, seed=0)
    mc = srm_monte_carlo(normal(mean, sd), spec, n_draws=20_000, seed=0)
    assert (mc.value, mc.stderr) == (mean + sd * std.value, sd * std.stderr)


def test_monte_carlo_on_a_normal_source_draws_the_log_tail_quantile(monkeypatch):
    # a normal source's draws go straight from log t to the converged
    # engine's upper quantile, never through p = 1 - t; a sample source's
    # go to quantile, one call per piece
    calls = {"quantile": 0, "inverse_normal_cdf": 0, "_upper_quantile": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(quadrature, "quantile")
    counted(quadrature, "_upper_quantile")
    counted(distributions, "inverse_normal_cdf")
    n = 2 * _BLOCK + 1
    srm_monte_carlo(normal(0.3, 1.2), WeightSpec.power(0.1), n_draws=n, seed=1)
    assert calls == {"quantile": 0, "inverse_normal_cdf": 0, "_upper_quantile": 3}
    srm_monte_carlo(load_empirical([1.0, 2.0, 4.0]), WeightSpec.power(0.1), n_draws=n, seed=1)
    assert calls == {"quantile": 3, "inverse_normal_cdf": 0, "_upper_quantile": 3}


def test_monte_carlo_floor_is_the_clip_point_that_bench_pins():
    # bench/oracle.py's clip bias takes every draw beyond t = 2**-53 at
    # p = 1 - 1e-16, which rounds to 1 - 2**-53: the floor on log t gives
    # that p, and the upper quantile there is the inverse normal's to the bit
    floor = quadrature._LOG_T_FLOOR
    assert -math.expm1(floor) == 1.0 - 1e-16 == 1.0 - 2.0**-53
    z_clip = quantile(standard_normal(), 1.0 - 1e-16)
    assert _upper_quantile(np.array([floor]))[0] == z_clip
    # every draw of a tiny power c lies beyond the floor
    for source, want in ((standard_normal(), z_clip), (uniform(0.0, 1.0), 1.0 - 2.0**-53)):
        mc = srm_monte_carlo(source, WeightSpec.power(1e-300), n_draws=2, seed=0)
        assert (mc.value, mc.stderr) == (want, 0.0)


@pytest.mark.parametrize("seed,error", [
    (None, TypeError),
    (-1, ValueError),
    (1.5, TypeError),
    (True, TypeError),
], ids=["none", "negative", "fraction", "bool"])
def test_monte_carlo_refuses_a_seed_that_is_not_a_non_negative_integer(seed, error):
    # default_rng(None) would draw from fresh OS entropy, so no call could be
    # repeated, and True would draw as seed 1
    with pytest.raises(error, match=f"seed must be a non-negative integer, not {seed!r}$"):
        srm_monte_carlo(standard_normal(), WeightSpec.flat(), n_draws=10, seed=seed)


@pytest.mark.parametrize("source,overflowing", [
    (constant(1e306), r"the sum of 1,000 Monte Carlo draws"),
    # the mean is finite, but every square passes the largest double
    (constant(1e200), r"the sum of the squares of 1,000 Monte Carlo draws"),
    # partial sums overflow with both signs and meet as inf - inf
    (load_empirical([-8e307, 8e307]), r"the sum of 1,000 Monte Carlo draws"),
], ids=["1e306", "1e200", "both-signs"])
def test_monte_carlo_sum_that_overflows_raises_instead_of_returning_inf(source, overflowing):
    with pytest.raises(NumericalError, match=overflowing + " overflows a double"):
        srm_monte_carlo(source, WeightSpec.flat(), n_draws=1000)


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


def test_monte_carlo_reports_python_numbers_for_a_numpy_draw_count():
    spec = WeightSpec.power(0.5)
    got = srm_monte_carlo(standard_normal(), spec, n_draws=np.int64(10), seed=3)
    want = srm_monte_carlo(standard_normal(), spec, n_draws=10, seed=3)
    assert type(got.n_draws) is int and type(got.value) is float and type(got.stderr) is float
    assert (got.value.hex(), got.stderr.hex(), got.n_draws) == (want.value.hex(), want.stderr.hex(), 10)


def test_monte_carlo_rejects_tiny_draw_counts():
    for n_draws in (1, 2.5, True):
        with pytest.raises(ValueError, match="n_draws"):
            srm_monte_carlo(standard_normal(), WeightSpec.flat(), n_draws=n_draws)


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


def test_convergence_study_rows_take_the_config_with_their_n():
    src, spec = standard_normal(), WeightSpec.power(0.5)
    config = QuadratureConfig(endpoint_policy="clip_epsilon", epsilon=1e-6)
    rows = convergence_study(src, spec, [101, 1001], config)
    expected = [(n, srm_replication(src, spec, QuadratureConfig(
        n_points=n, endpoint_policy="clip_epsilon", epsilon=1e-6)).value) for n in (101, 1001)]
    assert rows == expected
    assert rows != convergence_study(src, spec, [101, 1001])


def test_convergence_study_validates_input():
    with pytest.raises(ValueError, match="must not be empty"):
        convergence_study(standard_normal(), WeightSpec.flat(), [])
    with pytest.raises(ValueError, match="odd"):
        convergence_study(standard_normal(), WeightSpec.flat(), [1000])


@pytest.mark.parametrize("n", [5.5, "7", np.float64(7.0)], ids=["fraction", "string", "numpy-float"])
def test_convergence_study_refuses_a_size_that_is_not_an_integer(n):
    # int(n) would turn 5.5 into a 5-point row and read "7" as 7
    with pytest.raises(ValueError, match=re.escape(f"n_points must be an integer, not {n!r}") + "$"):
        convergence_study(standard_normal(), WeightSpec.flat(), [101, n])


# Fraction parameters and their float twins: a Fraction used to reach numpy,
# which raised inside a ufunc, and to_json, which raised a TypeError
_FRACTION_TWINS = [
    ({"family": "power", "c": Fraction(1, 2)}, WeightSpec.power(0.5)),
    ({"family": "exponential", "a": Fraction(5)}, WeightSpec.exponential(a=5.0)),
    ({"family": "es", "alpha": Fraction(19, 20)}, WeightSpec.es(0.95)),
]


def _outcomes(spec, epsilon, source, config_n=1001):
    """What each engine gives for spec, as hex strings or reprs."""
    configs = [QuadratureConfig(n_points=config_n),
               QuadratureConfig(n_points=config_n, endpoint_policy="clip_epsilon", epsilon=epsilon)]
    report = subadditivity_check(spec, sample_size=20, trials=2, seed=3,
                                 config=QuadratureConfig(n_points=101))
    return [
        float(weight(spec, 0.97)).hex(), float(weight_mass(spec, 0.97)).hex(),
        repr(check_admissibility(spec)),
        *(srm_replication(source, spec, config).value.hex() for config in configs),
        srm_converged(source, spec).value.hex(),
        srm_monte_carlo(source, spec, n_draws=1000, seed=5).value.hex(),
        repr(report),
    ]


@pytest.mark.parametrize("fields,twin", _FRACTION_TWINS, ids=["power", "exponential", "es"])
def test_a_spec_of_fractions_gives_the_bits_of_its_float_twin(fields, twin):
    spec = WeightSpec(**fields)
    assert spec == twin and spec.to_json() == twin.to_json()
    assert WeightSpec.from_json(spec.to_json()) == twin
    for source in (normal(0.3, 1.2), load_empirical([0.5, -1.0, 2.0])):
        assert _outcomes(spec, Fraction(1, 32), source) == _outcomes(twin, 0.03125, source)


def test_a_sweep_over_fractions_gives_the_bits_of_its_float_twin():
    config = QuadratureConfig(n_points=1001)
    got = sweep_srm("power", [Fraction(1, 4), Fraction(1, 2)], normal(0.3, 1.2), config)
    assert got == sweep_srm("power", [0.25, 0.5], normal(0.3, 1.2), config)
    assert all(type(param) is float for param in got.params)
