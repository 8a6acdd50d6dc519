"""Tests for the benchmark itself: its oracle, its tail rule and its output.

Run with `python3 -m pytest bench -q` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import oracle
import run
from tracing import Tracer

run.import_package()  # puts this checkout's src first on the path
import spectral_risk as sr  # noqa: E402
from spectral_risk import distributions  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def slow_exponential_srm(sorted_samples, a, min_panels=10_000):
    """Order-statistic interpolation integrated by plain composite Simpson,
    one scalar evaluation per node.  The node count puts every order
    statistic on a panel edge, so the kinks cost no accuracy."""
    x = list(sorted_samples)
    n = len(x)
    lam = a / -math.expm1(-a)

    def q(p):
        if n == 1:
            return x[0]
        h = (n - 1) * p
        k = min(int(math.floor(h)), n - 2)
        return x[k] + (h - k) * (x[k + 1] - x[k])

    def f(p):
        return lam * math.exp(-a * (1.0 - p)) * q(p)

    segments = max(n - 1, 1)
    nodes = 2 * segments * math.ceil(min_panels / segments) + 1
    h = 1.0 / (nodes - 1)
    total = f(0.0) + f(1.0)
    for i in range(1, nodes - 1):
        total += (4.0 if i % 2 else 2.0) * f(i * h)
    return total * h / 3.0


@pytest.mark.parametrize("a", [0.5, 5.0, 40.0])
@pytest.mark.parametrize("samples", [
    [2.5],
    [-1.0, 3.0],
    [0.0, 0.0, 1.0],
    [-2.0, 0.5, 0.5, 0.5, 4.0],
    [1.0, 1.5, 2.25, 3.0, 3.0, 7.0, 12.0],
])
def test_exact_evaluator_matches_slow_reference(samples, a):
    got = oracle.exponential_srm_exact(np.sort(samples), a)
    want = slow_exponential_srm(sorted(samples), a)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("a", [1.0, 25.0, 100.0])
def test_exact_evaluator_does_not_cancel_on_large_samples(a):
    # evenly spaced samples on [0, 1] interpolate to q(p) = p for any size
    closed = (1.0 - 1.0 / a + math.exp(-a) / a) / -math.expm1(-a)
    got = oracle.exponential_srm_exact(np.linspace(0.0, 1.0, 1_000_001), a)
    assert got == pytest.approx(closed, abs=1e-12)


def test_normal_es_closed_form():
    assert oracle.normal_es(0.95) == pytest.approx(2.0627128075074275, abs=1e-13)


def test_clip_bias_of_the_flat_weight_has_a_closed_form():
    # c = 1 weighs p evenly, and the standard normal's upper tail beyond z
    # integrates to phi(z): the loss is phi(z_eps) - eps * z_eps
    eps = oracle.MC_CLIP_TAIL
    z = -NormalDist().inv_cdf(eps)
    assert oracle.power_clip_bias(1.0) == pytest.approx(NormalDist().pdf(z) - eps * z, rel=1e-8)


@pytest.mark.parametrize("seed", [1, 2])
def test_clip_bias_accounts_for_monte_carlo_at_small_c(seed):
    spec = sr.WeightSpec.power(0.1)
    mc = sr.srm_monte_carlo(sr.normal(0.0, 1.0), spec, n_draws=1_000_000, seed=seed)
    clipped = oracle.CONVERGED_POWER[0.1] - oracle.power_clip_bias(0.1)
    assert abs(mc.value - clipped) <= oracle.MC_Z_LIMIT * mc.stderr


@pytest.mark.parametrize("n,pct", [(9, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
                                   (1000, 99.0), (10_000, 99.9)])
def test_tail_takes_the_highest_percentile_with_ten_queries_beyond(n, pct):
    got, value = run.tail([float(i) for i in range(n)])
    assert got == pct
    if pct is not None:
        assert n - 1 - value >= run.TAIL_BEYOND


def test_tracer_sees_calls_made_inside_the_package_and_unbinds_on_exit():
    tracer = Tracer()
    original = distributions.inverse_normal_cdf
    config = sr.QuadratureConfig(n_points=101)
    with tracer:
        value = sr.srm(sr.normal(0.0, 1.0), sr.WeightSpec.es(0.9), config)
    assert value == sr.srm(sr.normal(0.0, 1.0), sr.WeightSpec.es(0.9), config)
    assert distributions.inverse_normal_cdf is original
    # measures.srm -> srm_replication -> quantile -> inverse_normal_cdf,
    # each reached through a name another module imported
    assert tracer.stats["measures.srm"].calls == 1
    assert tracer.stats["quadrature.srm_replication"].work == 101
    assert tracer.stats["distributions.inverse_normal_cdf"].work == 99
    assert tracer.stats["distributions.read_loss_csv"].calls == 0
    for stats in tracer.stats.values():
        assert 0 <= stats.self_ns <= stats.total_ns


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace, group):
    done = _bench("--workload=stress-batch", "--seed=3", "--seconds=1", f"--trace={trace}")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    extra = {"failed_share": "ratio"} | ({"query_tail_ms": "ms"} if trace == "0" else {})
    for name, unit in (wanted | extra).items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]), name


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = _bench("--workload=desk-grid", "--seconds=1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
