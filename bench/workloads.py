"""The benchmark's workloads: seeded inputs, the queries, and their answer checks.

A workload is built once from (seed, workdir) and then hands out cycles of
queries.  Cycle i draws its parameters from the stream (seed, i), so a
seed fixes every input, and the timing loop always runs whole cycles so
that each run sees the same mix of query kinds whatever its seed.

A query's call returns the package's output; its check returns a list of
problems.  A problem marked known is not a failure: the answer missed the
exact value by just what a documented defect of the package predicts, so
the query still checks the package as it stands, and stops showing the
defect once it is fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import spectral_risk as sr
from spectral_risk import cli


@dataclass
class Problem:
    message: str
    known: bool = False


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    cycle: Callable[[int], list]
    # package functions this workload must never reach; the traced run
    # fails when one is called
    must_not_call: tuple = ()


def run_cli(argv: list) -> str:
    """Run the srm command in-process and return what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"srm exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _close(expected: float, tol: float):
    def check(output: str) -> list:
        got = float(output)
        if abs(got - expected) <= tol:
            return []
        return [Problem(f"got {got!r}, want {expected!r} +- {tol:.1e}")]

    return check


def desk_grid(seed: int, workdir: Path) -> Workload:
    exps = sorted(oracle.REPLICATION_EXPONENTIAL)
    cs = sorted(oracle.REPLICATION_POWER)

    def cycle(i: int) -> list:
        rng = np.random.default_rng([seed, i])
        a = exps[i % len(exps)]
        c = cs[i % len(cs)]
        alpha = float(rng.uniform(0.9, 0.99))
        cases = [
            (["--family", "exponential", f"--a={a!r}"],
             oracle.REPLICATION_EXPONENTIAL[a], oracle.REPLICATION_EXPONENTIAL_TOL),
            (["--family", "power", f"--c={c!r}"], *oracle.REPLICATION_POWER[c]),
            (["--family", "es", f"--alpha={alpha!r}"], oracle.normal_es(alpha), oracle.REPLICATION_ES_TOL),
        ]
        queries = []
        for family_args, ref, tol in cases:
            mean, sd = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
            argv = ["compute", "--measure", "srm", "--dist", "normal", f"--mean={mean!r}", f"--sd={sd!r}",
                    *family_args]
            queries.append(Query(" ".join(family_args), lambda argv=argv: run_cli(argv),
                                 _close(mean + sd * ref, tol * sd)))
        return queries

    return Workload(cycle, must_not_call=(
        "quadrature.srm_converged", "quadrature.srm_monte_carlo", "distributions.read_loss_csv"))


DESK_FILE_ROWS = 300_000


def desk_file(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1 << 20])
    # a lognormal body with a seeded share of heavier t-distributed losses
    body = rng.lognormal(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.3, 1.0)), DESK_FILE_ROWS)
    heavy = rng.random(DESK_FILE_ROWS) < rng.uniform(0.01, 0.1)
    losses = np.where(heavy, 1.0 + 2.0 * np.abs(rng.standard_t(3, DESK_FILE_ROWS)), body)
    path = workdir / "losses.csv"
    path.write_text("loss\n" + "\n".join(map(repr, losses.tolist())) + "\n", encoding="utf-8")
    ordered = np.sort(losses)
    a_values = [float(a) for a in np.exp(rng.uniform(0.0, np.log(100.0), 4))]
    refs = {a: oracle.exponential_srm_exact(ordered, a) for a in a_values}

    def cycle(i: int) -> list:
        queries = []
        for a in a_values:
            argv = ["compute", "--measure", "srm", "--dist", "empirical", "--input", str(path),
                    "--family", "exponential", f"--a={a!r}"]
            ref = refs[a]
            queries.append(Query(f"--a={a:.4g}", lambda argv=argv: run_cli(argv),
                                 _close(ref, oracle.REPLICATION_EXPONENTIAL_TOL * max(1.0, abs(ref)))))
        return queries

    return Workload(cycle, must_not_call=(
        "distributions.inverse_normal_cdf", "quadrature.srm_converged", "quadrature.srm_monte_carlo"))


STRESS_TRIALS = 10


def _subadditive(output: str) -> list:
    report = json.loads(output)
    problems = []
    if report["trials"] != STRESS_TRIALS:
        problems.append(Problem(f"ran {report['trials']} trials, asked for {STRESS_TRIALS}"))
    if report["violations"] != 0:
        problems.append(Problem(f"{report['violations']} subadditivity violations"))
    if not report["worst_gap"] <= oracle.SUBADDITIVITY_SLACK:
        problems.append(Problem(f"worst gap {report['worst_gap']!r} exceeds the slack"))
    return problems


def stress_batch(seed: int, workdir: Path) -> Workload:
    def cycle(i: int) -> list:
        trial_seed = int(np.random.default_rng([seed, i]).integers(1 << 31))
        argv = ["subadd", "--family", "exponential", "--a=5", f"--trials={STRESS_TRIALS}",
                f"--seed={trial_seed}"]
        return [Query(f"--seed={trial_seed}", lambda: run_cli(argv), _subadditive)]

    return Workload(cycle, must_not_call=(
        "distributions.inverse_normal_cdf", "quadrature.srm_converged",
        "quadrature.srm_monte_carlo", "distributions.read_loss_csv"))


TIGHT_REL_TOL = 1e-10
MC_DRAWS = 1_000_000
# Monte Carlo's clip bias for each power weight, in standard normal units
CLIP_BIAS = {c: oracle.power_clip_bias(c) for c in oracle.CONVERGED_POWER}
TIGHT_SPECS = (
    [(sr.WeightSpec.exponential(a=a), ref) for a, ref in sorted(oracle.CONVERGED_EXPONENTIAL.items())]
    + [(sr.WeightSpec.power(c), ref) for c, ref in sorted(oracle.CONVERGED_POWER.items())]
    + [(sr.WeightSpec.es(alpha), oracle.normal_es(alpha)) for alpha in (0.95, 0.99)]
)


def tight_tol(seed: int, workdir: Path) -> Workload:
    # The sources are centred: the converged scheme's relative tolerance
    # makes its evaluation count independent of sd but not of mean / sd,
    # which moved a cycle's work by 25% from seed to seed.
    def query(spec, ref_z, sd, mc_seed) -> Query:
        source = sr.normal(0.0, sd)

        def call():
            report = sr.check_admissibility(spec)
            converged = sr.srm_converged(source, spec, rel_tol=TIGHT_REL_TOL)
            mc = sr.srm_monte_carlo(source, spec, n_draws=MC_DRAWS, seed=mc_seed)
            return report, converged, mc

        def check(out) -> list:
            report, converged, mc = out
            problems = []
            if not report.admissible:
                problems.append(Problem("admissible weight reported inadmissible"))
            want = sd * ref_z
            tol = oracle.CONVERGED_TOL * max(1.0, sd)
            if not abs(converged.value - want) <= tol:
                problems.append(Problem(f"converged {converged.value!r}, want {want!r} +- {tol:.1e}"))
            z = (mc.value - converged.value) / mc.stderr
            if not abs(z) <= oracle.MC_Z_LIMIT:
                # Monte Carlo clips p at 1 - 1e-16, beyond which (1e-16)**c of
                # the power weight's mass lives: 2.5% at c = 0.1, a bias of
                # about -12 standard errors at a million draws.  An estimate
                # that lands on the clipped value is that known defect.
                bias = sd * CLIP_BIAS[spec.c] if spec.family == "power" else 0.0
                z_clipped = (mc.value - (converged.value - bias)) / mc.stderr
                known = bias > 0.0 and abs(z_clipped) <= oracle.MC_Z_LIMIT
                problems.append(Problem(f"Monte Carlo off by {z:.1f} standard errors, "
                                        f"{z_clipped:.1f} from the clipped value", known=known))
            return problems

        return Query(spec.to_json(), call, check)

    def cycle(i: int) -> list:
        rng = np.random.default_rng([seed, i])
        return [query(spec, ref, float(rng.uniform(0.5, 2.0)), int(rng.integers(1 << 31)))
                for spec, ref in TIGHT_SPECS]

    return Workload(cycle, must_not_call=("distributions.read_loss_csv",))


WORKLOADS = {"desk-grid": desk_grid, "desk-file": desk_file, "stress-batch": stress_batch,
             "tight-tol": tight_tol}
