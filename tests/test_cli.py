"""Command line interface behaviour: outputs, defaults, exit codes."""

import functools
import json
import math
import shlex
import warnings
from pathlib import Path

import pytest

from spectral_risk import analysis, measures
from spectral_risk.analysis import SubadditivityReport, subadditivity_check, sweep_srm, weight_curve
from spectral_risk.cli import main
from spectral_risk.distributions import standard_normal
from spectral_risk.quadrature import QuadratureConfig, convergence_study, srm_converged
from spectral_risk.risk_aversion import WeightSpec, check_admissibility


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_es_default_matches_the_documented_value(capsys):
    code, out, err = run(["compute", "--measure", "es", "--alpha", "0.95"], capsys)
    assert code == 0
    assert out == "2.062713\n"
    assert err == ""


def test_es_flags_replace_fields_of_its_converged_default(capsys):
    base = ["compute", "--measure", "es", "--alpha", "0.95", "--precision", "12"]
    # a tighter tolerance keeps the converged scheme
    code, out, _ = run(base + ["--rel-tol", "1e-12"], capsys)
    assert (code, out) == (0, "2.062712807507\n")
    # n_points is read only by the replication scheme
    code, out, _ = run(base + ["--n", "1001"], capsys)
    assert (code, out) == (0, "2.062712807507\n")
    code, out, _ = run(base + ["--scheme", "replication", "--n", "1001"], capsys)
    assert (code, out) == (0, "2.048474580543\n")


def test_compute_var(capsys):
    code, out, _ = run(["compute", "--measure", "var", "--alpha", "0.95"], capsys)
    assert code == 0
    assert out == "1.644854\n"


def test_negative_values_follow_their_flags(tmp_path, capsys):
    # argparse reads a token such as -1e-3 as an option unless it is a plain decimal
    code, out, _ = run(["compute", "--measure", "var", "--alpha", "0.95",
                        "--dist", "normal", "--mean", "-1e-3"], capsys)
    assert (code, out) == (0, "1.643854\n")
    code, out, _ = run(["compute", "--measure", "srm", "--family", "flat",
                        "--dist", "constant", "--value", "-5E2", "--n", "101"], capsys)
    assert (code, out) == (0, "-500.000000\n")
    # values that reach the library and fail its own checks
    code, _, err = run(["compute", "--measure", "srm", "--family", "flat", "--n", "101",
                        "--dist", "uniform", "--lo", "-inf", "--hi", "1"], capsys)
    assert code == 1
    assert "must be finite" in err
    code, _, err = run(["sweep", "--family", "power", "--grid", "-1:2:3",
                        "--out", str(tmp_path / "sweep.csv")], capsys)
    assert (code, err) == (1, "error: c must lie in (0, 1)\n")


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
        ["compute", "--measure", "es", "--alpha", "0.95", "--dist", "uniform",
         "--lo", "1"],                                                    # no hi
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
        (["sweep", "--family", "exponential", "--grid", "5:1:3", "--out", out],
         "error: param_grid must be strictly increasing\n"),
    ]
    for argv, message in cases:
        code, stdout, err = run(argv, capsys)
        assert code == 1, argv
        assert stdout == "", argv
        assert err == message, argv
    assert not (tmp_path / "x.csv").exists()


def test_negative_grid_count_is_a_bad_grid_value(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--family", "exponential", "--grid", "1:5:-1", "--out", str(out)]
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert stdout == ""
    assert err == "error: bad --grid value: '1:5:-1'\n"
    assert not out.exists()


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

    cp1252 = tmp_path / "cp1252.csv"
    cp1252.write_bytes("loss\n1.0\n2,5 \u20ac\n".encode("cp1252"))
    argv[-1] = str(cp1252)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert f"cannot read {cp1252}" in err


@pytest.mark.parametrize("argv", [
    ["validate", "--family", "flat", "--out", "MISSING/r.json"],
    ["sweep", "--family", "exponential", "--grid", "1:5:2", "--n", "101", "--out", "DIR"],
], ids=["validate-into-a-missing-directory", "sweep-onto-a-directory"])
def test_an_output_path_that_cannot_be_written_exits_with_code_2(argv, tmp_path, capsys):
    paths = {"MISSING/r.json": str(tmp_path / "missing" / "r.json"), "DIR": str(tmp_path)}
    code, out, err = run([paths.get(arg, arg) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ")


def test_numeric_failures_exit_with_code_3(capsys):
    # a tolerance below anything float arithmetic can certify
    argv = ["compute", "--measure", "es", "--alpha", "0.95",
            "--scheme", "converged", "--rel-tol", "1e-300"]
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "converge" in err

    # finite nodes whose replication grid sum overflows: exit 3, not inf
    argv = ["compute", "--measure", "srm", "--family", "flat",
            "--dist", "constant", "--value", "1e306", "--n", "100001"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert "converged scheme" in err


@pytest.mark.parametrize("policy,node", [
    ("zero-endpoints", "0.999"),
    # the node evaluated is the clip point 1 - epsilon, not the grid end
    ("clip-epsilon", "0.999999999"),
])
def test_a_product_that_overflows_names_its_node_without_a_warning(tmp_path, capsys, policy, node):
    wide = tmp_path / "wide.csv"
    wide.write_text("-8e307\n8e307\n", encoding="utf-8")
    argv = ["compute", "--measure", "srm", "--family", "exponential", "--a", "5",
            "--dist", "empirical", "--input", str(wide), "--n", "1001",
            "--endpoint-policy", policy]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == f"error: integrand not finite at node x = {node}\n"


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


def test_log_grid_needs_positive_ends(capsys):
    for grid in ("0:5:3", "1:-5:3"):
        argv = ["sweep", "--family", "exponential", "--grid", grid, "--log-grid", "--out", "x.csv"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv, capsys)
        assert code == 1, grid
        assert err == "error: --log-grid needs min > 0 and max > 0\n", grid
        assert not caught, grid


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


def test_validate_and_weights_keep_the_library_defaults(tmp_path, capsys):
    code, out, _ = run(["validate", "--family", "exponential", "--a", "5"], capsys)
    assert code == 0
    assert json.loads(out) == check_admissibility(WeightSpec.exponential(5.0)).to_dict()
    assert json.loads(out)["grid_size"] == 1001

    path = tmp_path / "curve.csv"
    code, _, _ = run(["weights", "--family", "power", "--c", "0.7", "--out", str(path)], capsys)
    assert code == 0
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    expected = weight_curve(WeightSpec.power(0.7))
    assert [(float(p), float(w)) for p, w in rows] == expected


_VALIDATE_POWER_0_1 = """\
{
  "positivity": true,
  "positivity_worst_p": 0.000998003992015968,
  "positivity_worst_value": 0.10008990560054082,
  "normalisation": true,
  "normalisation_integral": 1.0,
  "increasingness": true,
  "increasingness_worst_p_left": 0.000998003992015968,
  "increasingness_worst_p_right": 0.001996007984031936,
  "increasingness_worst_rise": 9.007641264535682e-05,
  "strict_rise": true,
  "grid_size": 1001,
  "admissible": true
}
"""

_VALIDATE_ES_0_95 = """\
{
  "positivity": true,
  "positivity_worst_p": 0.000998003992015968,
  "positivity_worst_value": 0.0,
  "normalisation": true,
  "normalisation_integral": 1.0,
  "increasingness": true,
  "increasingness_worst_p_left": 0.000998003992015968,
  "increasingness_worst_p_right": 0.001996007984031936,
  "increasingness_worst_rise": 0.0,
  "strict_rise": true,
  "grid_size": 1001,
  "admissible": true
}
"""


@pytest.mark.parametrize("flags, expected", [
    (["--family", "power", "--c", "0.1"], _VALIDATE_POWER_0_1),
    (["--family", "es", "--alpha", "0.95"], _VALIDATE_ES_0_95),
])
def test_validate_output_is_pinned_byte_for_byte(flags, expected, capsys):
    code, out, err = run(["validate"] + flags, capsys)
    assert (code, out, err) == (0, expected, "")


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
    expected = convergence_study(source, spec, [101, 1001],
                                 QuadratureConfig(endpoint_policy="clip_epsilon", epsilon=1e-6))
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


def test_subadd_defaults_are_the_librarys(monkeypatch, capsys):
    seen = {}

    @functools.wraps(analysis.subadditivity_check)  # the help reads its signature
    def record(spec, **kwargs):
        seen.update(kwargs)
        return SubadditivityReport(trials=1, violations=0, worst_gap=-1.0, seed=0)

    monkeypatch.setattr(analysis, "subadditivity_check", record)
    code, _, _ = run(["subadd", "--family", "flat"], capsys)
    assert code == 0
    assert seen == {"config": analysis._LIGHT_CONFIG}

    seen.clear()
    argv = ["subadd", "--family", "flat", "--trials", "7", "--sample-size", "9", "--seed", "3"]
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert seen == {"config": analysis._LIGHT_CONFIG, "trials": 7, "sample_size": 9, "seed": 3}


def test_subadd_can_write_to_a_file(tmp_path, capsys):
    out = tmp_path / "subadd.json"
    argv = ["subadd", "--family", "power", "--c", "0.5", "--trials", "3",
            "--sample-size", "40", "--n", "1001", "--out", str(out)]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert stdout.strip() == str(out)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["trials"] == 3


@pytest.mark.parametrize("argv", [
    ["compute", "--measure", "srm", "--family", "exponential", "--a", "5", "--dist", "empirical",
     "--input", "LOSSES", "--n", "1001"],
    ["subadd", "--family", "exponential", "--a", "5", "--trials", "1"],
    ["compute", "--measure", "srm", "--family", "exponential", "--a", "5", "--dist", "normal",
     "--n", "1001"],
    ["compute", "--measure", "es", "--alpha", "0.95"],
], ids=["compute-empirical", "subadd", "compute-normal", "compute-es"])
def test_no_command_loads_scipy(argv, tmp_path, fresh_python):
    # the normal quantile is the package's own, and scipy.special would
    # take about 0.3 s and 24 MB to import
    losses = tmp_path / "losses.csv"
    losses.write_text("1.5\n-0.25\n3\n")
    argv = [str(losses) if arg == "LOSSES" else arg for arg in argv]
    out = fresh_python(
        "import sys\n"
        "from spectral_risk.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))\n"
    )
    assert out.splitlines()[-1] == "False"


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert "compute" in out
