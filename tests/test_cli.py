"""Command line interface behaviour: outputs, defaults, exit codes."""

import json
import math
import shlex
import warnings
from pathlib import Path

import pytest

from spectral_risk import measures
from spectral_risk.analysis import subadditivity_check, sweep_srm
from spectral_risk.cli import main
from spectral_risk.distributions import standard_normal
from spectral_risk.quadrature import QuadratureConfig, convergence_study, srm_converged
from spectral_risk.risk_aversion import WeightSpec


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_es_default_matches_the_documented_value(capsys):
    code, out, err = run(["compute", "--measure", "es", "--alpha", "0.95"], capsys)
    assert code == 0
    assert out == "2.062713\n"
    assert err == ""


def test_compute_var(capsys):
    code, out, _ = run(["compute", "--measure", "var", "--alpha", "0.95"], capsys)
    assert code == 0
    assert out == "1.644854\n"


def test_compute_srm_exponential_on_an_explicit_grid(capsys):
    argv = ["compute", "--measure", "srm", "--family", "exponential",
            "--a", "5", "--n", "100001"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "1.081489\n"


def test_gamma_is_accepted_as_the_reciprocal_of_a(capsys):
    base = ["compute", "--measure", "srm", "--family", "exponential", "--n", "10001"]
    _, out_a, _ = run(base + ["--a", "5"], capsys)
    _, out_g, _ = run(base + ["--gamma", "0.2"], capsys)
    assert out_a == out_g

    code, _, err = run(base + ["--a", "5", "--gamma", "0.2"], capsys)
    assert code == 1
    assert "exactly one" in err


def test_precision_flag_controls_decimal_places(capsys):
    argv = ["compute", "--measure", "es", "--alpha", "0.95", "--precision", "2"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "2.06\n"


def test_compute_works_from_an_empirical_csv(tmp_path, capsys):
    path = tmp_path / "losses.csv"
    path.write_text("loss\n" + "\n".join(str(i) for i in range(1, 101)) + "\n", encoding="utf-8")
    argv = ["compute", "--measure", "var", "--alpha", "0.5",
            "--dist", "empirical", "--input", str(path)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "50.500000\n"


def test_constant_and_uniform_sources(capsys):
    argv = ["compute", "--measure", "srm", "--family", "flat",
            "--dist", "constant", "--value", "4.2", "--n", "1001"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "4.200000\n"

    argv = ["compute", "--measure", "es", "--alpha", "0.9",
            "--dist", "uniform", "--lo", "1", "--hi", "3"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "2.900000\n"


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["compute", "--measure", "srm", "--family", "power", "--c", "0.5", "--n", "10001"]
    outputs = {run(argv, capsys)[1] for _ in range(3)}
    assert len(outputs) == 1


def test_usage_errors_exit_with_code_1(capsys):
    cases = [
        ["compute", "--measure", "srm"],                                  # no family
        ["compute", "--measure", "srm", "--family", "power"],             # no c
        ["compute", "--measure", "srm", "--family", "es"],                # no alpha
        ["compute", "--measure", "srm", "--family", "exponential"],       # no a, no gamma
        ["compute", "--measure", "srm", "--family", "power", "--c", "2"], # bad c
        ["compute", "--measure", "es"],                                   # no alpha
        ["compute", "--measure", "var"],                                  # no alpha
        ["compute", "--measure", "srm", "--family", "flat", "--n", "10"], # even n
        ["compute", "--measure", "srm", "--family", "flat", "--n", "10001",
         "--precision", "-1"],
        ["compute", "--measure", "srm", "--dist", "empirical"],           # no input
        ["compute", "--measure", "srm", "--dist", "constant"],            # no value
        ["sweep", "--family", "exponential", "--grid", "5:1:3", "--out", "x.csv"],
        ["sweep", "--family", "exponential", "--grid", "oops", "--out", "x.csv"],
        ["convergence", "--family", "flat", "--n-list", "abc", "--out", "x.csv"],
        ["weights", "--family", "flat", "--points", "1", "--out", "x.csv"],
        ["validate", "--family", "flat", "--grid-size", "2"],
    ]
    for argv in cases:
        code, _, err = run(argv, capsys)
        assert code == 1, argv
        assert err != "", argv


def test_library_errors_reach_stderr_verbatim(capsys):
    base = ["compute", "--measure", "srm"]
    cases = [
        (["--family", "power", "--c", "2"], "error: c must lie in (0, 1)\n"),
        (["--family", "flat", "--dist", "normal", "--sd", "0"], "error: sd must be positive\n"),
        (["--family", "flat", "--n", "10"], "error: n_points must be odd and at least 3\n"),
        (["--family", "flat", "--dist", "uniform", "--lo", "2", "--hi", "1"],
         "error: uniform support needs lo < hi\n"),
        (["--family", "power", "--c", "0.5", "--endpoint-policy", "clip-epsilon",
          "--epsilon", "1e-300", "--n", "1001"],
         "error: epsilon must lie in (2**-54, 0.5), where 1 - epsilon stays below 1\n"),
    ]
    for extra, message in cases:
        code, out, err = run(base + extra, capsys)
        assert code == 1, extra
        assert out == "", extra
        assert err == message, extra


def test_size_rules_are_the_librarys(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    cases = [
        (["weights", "--family", "flat", "--points", "1", "--out", out],
         "error: n_points must be at least 2\n"),
        (["validate", "--family", "flat", "--grid-size", "2"],
         "error: grid_size must be at least 3\n"),
        (["convergence", "--family", "flat", "--n-list", ",", "--out", out],
         "error: n_list must not be empty\n"),
    ]
    for argv, message in cases:
        code, stdout, err = run(argv, capsys)
        assert code == 1, argv
        assert stdout == "", argv
        assert err == message, argv
    assert not (tmp_path / "x.csv").exists()


def test_non_finite_parameters_are_usage_errors(capsys):
    base = ["compute", "--measure", "srm", "--n", "1001"]
    cases = [
        ["--family", "flat", "--dist", "normal", "--mean", "nan"],
        ["--family", "flat", "--dist", "normal", "--sd", "inf"],
        ["--family", "flat", "--dist", "normal", "--mean", "inf"],
        ["--family", "flat", "--dist", "uniform", "--lo=-inf", "--hi", "inf"],
        ["--family", "exponential", "--a", "inf"],
        # finite parameters whose quantiles overflow
        ["--family", "flat", "--dist", "normal", "--mean", "1e308", "--sd", "1e308"],
        ["--family", "flat", "--dist", "uniform", "--lo=-1.7e308", "--hi", "1.7e308"],
    ]
    for extra in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(base + extra, capsys)
        assert code == 1, extra
        assert "finite" in err, extra
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], extra
        assert "RuntimeWarning" not in err, extra


def test_precision_is_checked_before_computing(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("measure computed before --precision was checked")

    monkeypatch.setattr(measures, "srm", fail)
    argv = ["compute", "--measure", "srm", "--family", "exponential", "--a", "5",
            "--precision", "-1"]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --precision must be non-negative\n"


def test_unknown_family_choice_exits_1(capsys):
    argv = ["compute", "--measure", "srm", "--family", "cubic", "--n", "101"]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "invalid choice" in err


def test_data_errors_exit_with_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("loss\n1.0\nabc\n", encoding="utf-8")
    argv = ["compute", "--measure", "var", "--alpha", "0.5",
            "--dist", "empirical", "--input", str(bad)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "line 3" in err

    argv[-1] = str(tmp_path / "missing.csv")
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "cannot read" in err

    wide = tmp_path / "wide.csv"
    wide.write_text("-1.7e308\n1.7e308\n", encoding="utf-8")
    argv[-1] = str(wide)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "float range" in err


def test_numeric_failures_exit_with_code_3(capsys):
    # a tolerance below anything float arithmetic can certify
    argv = ["compute", "--measure", "es", "--alpha", "0.95",
            "--scheme", "converged", "--rel-tol", "1e-300"]
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "converge" in err


def test_sweep_writes_the_grid_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", "exponential", "--grid", "1:9:3",
            "--n", "10001", "--out", str(out)]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert stdout.strip() == str(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "param,value"
    params = [float(line.split(",")[0]) for line in lines[1:]]
    assert params == [1.0, 5.0, 9.0]
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] < values[1] < values[2]


def test_sweep_without_n_uses_the_library_default_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", "exponential", "--grid", "1:5:2", "--out", str(out)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    expected = sweep_srm("exponential", [1.0, 5.0], standard_normal(), config=None)
    assert [(float(p), float(v)) for p, v in rows] == expected.rows()


def test_sweep_log_grid_spaces_parameters_geometrically(tmp_path, capsys):
    out = tmp_path / "logsweep.csv"
    argv = ["sweep", "--family", "exponential", "--grid", "0.5:8:3",
            "--log-grid", "--n", "10001", "--out", str(out)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    params = [float(line.split(",")[0]) for line in lines[1:]]
    assert params == pytest.approx([0.5, 2.0, 8.0], rel=1e-12)


def test_weights_command_exports_the_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = ["weights", "--family", "power", "--c", "0.7",
            "--points", "5", "--p-max", "0.8", "--out", str(out)]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert stdout.strip() == str(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,weight"
    assert len(lines) == 6
    first_p, first_w = lines[1].split(",")
    assert float(first_p) == 0.0
    assert float(first_w) == pytest.approx(0.7, rel=1e-12)


def test_validate_reports_admissibility_json(capsys):
    code, out, _ = run(["validate", "--family", "exponential", "--a", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["admissible"] is True

    code, out, _ = run(["validate", "--family", "flat"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["strict_rise"] is False
    assert report["admissible"] is False
    assert report["normalisation_integral"] == pytest.approx(1.0, abs=1e-9)


def test_validate_can_write_to_a_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(["validate", "--family", "es", "--alpha", "0.95",
                           "--out", str(out)], capsys)
    assert code == 0
    assert stdout.strip() == str(out)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["admissible"] is True


def test_convergence_command_reports_the_gap(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--family", "power", "--c", "0.5",
            "--n-list", "1001,10001", "--out", str(out)]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == str(out)
    assert lines[1].startswith("converged ")
    assert lines[2].startswith("gap ")
    converged = float(lines[1].split()[1])
    gap = float(lines[2].split()[1])
    assert converged == pytest.approx(0.704307, abs=1e-5)
    assert gap < 0.0  # the replication grid approaches from below

    csv_lines = out.read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "n,value"
    vals = [float(line.split(",")[1]) for line in csv_lines[1:]]
    assert vals[0] < vals[1] < converged
    # both printed lines carry six decimals, so the identity between them
    # holds to the rounding granularity only
    assert math.isclose(vals[1] - converged, gap, abs_tol=2e-6)


def test_convergence_command_passes_its_tolerance_flags_on(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--family", "power", "--c", "0.5", "--n-list", "101,1001",
            "--endpoint-policy", "clip-epsilon", "--epsilon", "1e-6", "--rel-tol", "1e-8",
            "--out", str(out)]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    source, spec = standard_normal(), WeightSpec.power(0.5)
    expected = convergence_study(source, spec, [101, 1001], "clip_epsilon", 1e-6)
    assert expected != convergence_study(source, spec, [101, 1001])
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(int(n), float(v)) for n, v in rows] == expected
    converged = srm_converged(source, spec, rel_tol=1e-8).value
    assert stdout.splitlines()[1] == f"converged {converged:.6f}"

    # a tolerance nothing can certify shows that --rel-tol reaches the engine
    code, _, err = run(argv[:-4] + ["--rel-tol", "1e-300", "--out", str(out)], capsys)
    assert code == 3
    assert "converge" in err


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("srm ")]
    assert lines
    (tmp_path / "losses.csv").write_text("loss\n" + "\n".join(str(i) for i in range(1, 51)) + "\n",
                                         encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run(shlex.split(line)[1:], capsys)
        assert code == 0, (line, err)


def test_subadd_command_reports_no_violations_for_spectral_weights(capsys):
    argv = ["subadd", "--family", "exponential", "--a", "5",
            "--trials", "5", "--sample-size", "50", "--n", "10001"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["trials"] == 5
    assert report["violations"] == 0
    assert report["worst_gap"] <= 1e-9


def test_subadd_passes_n_on(capsys):
    argv = ["subadd", "--family", "exponential", "--a", "5",
            "--trials", "2", "--sample-size", "20", "--n", "11"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    spec = WeightSpec.exponential(5.0)
    expected = subadditivity_check(spec, sample_size=20, trials=2,
                                   config=QuadratureConfig(n_points=11))
    assert expected != subadditivity_check(spec, sample_size=20, trials=2)
    assert json.loads(out) == expected.to_dict()


def test_subadd_can_write_to_a_file(tmp_path, capsys):
    out = tmp_path / "subadd.json"
    argv = ["subadd", "--family", "power", "--c", "0.5", "--trials", "3",
            "--sample-size", "40", "--n", "1001", "--out", str(out)]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert stdout.strip() == str(out)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["trials"] == 3


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert "compute" in out
