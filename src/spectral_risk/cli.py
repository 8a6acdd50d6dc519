"""Command line entry point.

Subcommands: compute a single measure, sweep a weight family across a
parameter grid, export a weight curve, validate a weight function, run a
replication convergence study against the converged value, and stress
subadditivity on random sample pairs.

Exit codes: 0 success, 1 usage or parameter errors, 2 unreadable or
ill-formed input data, 3 numerical failure.  Output is deterministic for
a fixed command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, measures
from .distributions import constant, normal, read_loss_csv, standard_normal, uniform
from .errors import DataError, NumericalError
from .quadrature import QuadratureConfig, convergence_study, srm_converged
from .risk_aversion import _PARAMETER, WeightSpec, check_admissibility

__all__ = ["main", "build_parser"]


class _CliError(Exception):
    """Usage-level problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _add_source_args(sp):
    sp.add_argument(
        "--dist",
        default="standard-normal",
        choices=["standard-normal", "normal", "empirical", "constant", "uniform"],
        help="loss distribution (default standard-normal)",
    )
    sp.add_argument("--mean", type=float, default=0.0, help="mean for --dist normal")
    sp.add_argument("--sd", type=float, default=1.0, help="sd for --dist normal")
    sp.add_argument("--input", help="loss CSV for --dist empirical (one loss per line)")
    sp.add_argument("--value", type=float, help="loss level for --dist constant")
    sp.add_argument("--lo", type=float, help="lower bound for --dist uniform")
    sp.add_argument("--hi", type=float, help="upper bound for --dist uniform")


def _add_weight_args(sp):
    sp.add_argument("--family", choices=list(_PARAMETER), help="weight family")
    sp.add_argument("--a", type=float, help="exponential family parameter")
    sp.add_argument("--gamma", type=float, help="reciprocal of --a (give one of the two)")
    sp.add_argument("--c", type=float, help="power family parameter in (0, 1)")
    sp.add_argument("--alpha", type=float, help="confidence level for es / var")


def _add_quad_args(sp, base: QuadratureConfig, grid: bool = True):
    """Quadrature flags, whose help names base's values as the defaults;
    grid=False leaves out --n and --scheme."""
    if grid:
        sp.add_argument("--n", dest="n_points", metavar="N", type=int,
                        help=f"odd replication grid size (default {base.n_points:,})")
        sp.add_argument("--scheme", choices=["replication", "converged"])
    sp.add_argument("--endpoint-policy", choices=["zero-endpoints", "clip-epsilon"])
    sp.add_argument("--epsilon", type=float,
                    help=f"clip width for clip-epsilon (default {base.epsilon:g})")
    sp.add_argument("--rel-tol", type=float,
                    help=f"relative tolerance for the converged scheme (default {base.rel_tol:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="srm", description="Spectral risk measure toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("compute", help="compute one risk measure")
    sp.add_argument("--measure", required=True, choices=["var", "es", "srm"])
    _add_source_args(sp)
    _add_weight_args(sp)
    _add_quad_args(sp, QuadratureConfig())
    sp.add_argument("--precision", type=int, default=6, help="decimal places printed (default 6)")

    sp = sub.add_parser("sweep", help="sweep a weight family across a parameter grid")
    sp.add_argument("--family", required=True, choices=[f for f, key in _PARAMETER.items() if key])
    sp.add_argument("--grid", required=True, help="parameter grid as min:max:count")
    sp.add_argument("--log-grid", action="store_true", help="space the grid geometrically")
    _add_source_args(sp)
    _add_quad_args(sp, analysis._LIGHT_CONFIG)
    sp.add_argument("--out", required=True, help="CSV output path (param,value)")

    sp = sub.add_parser("weights", help="export weight function samples")
    _add_weight_args(sp)
    sp.add_argument("--points", type=int, default=1001, help="samples on [0, p-max] (default 1001)")
    sp.add_argument("--p-max", type=float, default=0.999, help="last probability sampled (default 0.999)")
    sp.add_argument("--out", required=True, help="CSV output path (p,weight)")

    sp = sub.add_parser("validate", help="check a weight function for admissibility")
    _add_weight_args(sp)
    sp.add_argument("--grid-size", type=int, default=2001, help="interior check points (default 2001)")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("convergence", help="replication values by grid size, against the converged value")
    _add_weight_args(sp)
    _add_source_args(sp)
    sp.add_argument("--n-list", required=True, help="comma-separated odd grid sizes")
    _add_quad_args(sp, QuadratureConfig(), grid=False)
    sp.add_argument("--out", required=True, help="CSV output path (n,value)")

    sp = sub.add_parser("subadd", help="stress subadditivity on random sample pairs")
    _add_weight_args(sp)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--sample-size", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", dest="n_points", metavar="N", type=int,
                    help=f"replication grid size per evaluation (default {analysis._LIGHT_CONFIG.n_points:,})")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")

    return parser


def _make_source(args):
    kind = args.dist
    if kind == "empirical":
        if not args.input:
            raise _CliError("--dist empirical needs --input")
        return read_loss_csv(args.input)
    if kind == "constant":
        if args.value is None:
            raise _CliError("--dist constant needs --value")
        return constant(args.value)
    if kind == "uniform":
        if args.lo is None or args.hi is None:
            raise _CliError("--dist uniform needs --lo and --hi")
        return uniform(args.lo, args.hi)
    if kind == "normal":
        return normal(args.mean, args.sd)
    return standard_normal()


def _make_spec(args) -> WeightSpec:
    family = args.family
    if family is None:
        raise _CliError("--family is required")
    if family == "exponential":
        return WeightSpec.exponential(a=args.a, gamma=args.gamma)
    key = _PARAMETER[family]
    if key is None:
        return WeightSpec(family)
    if getattr(args, key) is None:
        raise _CliError(f"--family {family} needs --{key}")
    return WeightSpec(family, **{key: getattr(args, key)})


def _make_config(args, base: QuadratureConfig | None) -> QuadratureConfig | None:
    """base with each quadrature flag given on the command line in its
    place.  A None base stands for the library call's own default: it
    stays None when no flag is given, and flags start from
    QuadratureConfig()."""
    given = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(QuadratureConfig)
        if getattr(args, field.name, None) is not None
    }
    if "endpoint_policy" in given:
        given["endpoint_policy"] = given["endpoint_policy"].replace("-", "_")
    if base is None and not given:
        return None
    return dataclasses.replace(base or QuadratureConfig(), **given)


def _emit_json(payload: dict, out) -> int:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(out)
    else:
        print(text, end="")
    return 0


def _cmd_compute(args) -> int:
    if args.precision < 0:
        raise _CliError("--precision must be non-negative")
    source = _make_source(args)
    if args.measure == "srm":
        value = measures.srm(source, _make_spec(args), _make_config(args, None))
    elif args.alpha is None:
        raise _CliError(f"--measure {args.measure} needs --alpha")
    elif args.measure == "var":
        value = measures.var(source, args.alpha)
    else:
        value = measures.es(source, args.alpha, _make_config(args, None))
    print(f"{value:.{args.precision}f}")
    return 0


def _parse_grid(text: str, log_grid: bool) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError("--grid must look like min:max:count")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise _CliError(f"bad --grid value: {text!r}") from None
    if count < 1:
        raise _CliError("--grid count must be at least 1")
    if count == 1:
        return [lo]
    if not lo < hi:
        raise _CliError("--grid needs min < max")
    if log_grid:
        if not lo > 0.0:
            raise _CliError("--log-grid needs min > 0")
        return [float(x) for x in np.geomspace(lo, hi, count)]
    return [float(x) for x in np.linspace(lo, hi, count)]


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid, args.log_grid)
    source = _make_source(args)
    config = _make_config(args, analysis._LIGHT_CONFIG)
    result = analysis.sweep_srm(args.family, grid, source, config)
    analysis.sweep_to_csv(result, args.out)
    print(args.out)
    return 0


def _cmd_weights(args) -> int:
    spec = _make_spec(args)
    rows = analysis.weight_curve(spec, n_points=args.points, p_max=args.p_max)
    analysis.curve_to_csv(rows, args.out)
    print(args.out)
    return 0


def _cmd_validate(args) -> int:
    spec = _make_spec(args)
    report = check_admissibility(spec, grid_size=args.grid_size)
    return _emit_json(report.to_dict(), args.out)


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _CliError(f"bad --n-list value: {text!r}") from None


def _cmd_convergence(args) -> int:
    spec = _make_spec(args)
    source = _make_source(args)
    ns = _parse_n_list(args.n_list)
    config = _make_config(args, QuadratureConfig())
    rows = convergence_study(source, spec, ns, config.endpoint_policy, config.epsilon)
    analysis.convergence_to_csv(rows, args.out)
    converged = srm_converged(source, spec, rel_tol=config.rel_tol)
    gap = rows[-1][1] - converged.value
    print(args.out)
    print(f"converged {converged.value:.6f}")
    print(f"gap {gap:.6f}")
    return 0


def _cmd_subadd(args) -> int:
    spec = _make_spec(args)
    report = analysis.subadditivity_check(
        spec,
        sample_size=args.sample_size,
        trials=args.trials,
        seed=args.seed,
        config=_make_config(args, analysis._LIGHT_CONFIG),
    )
    return _emit_json(report.to_dict(), args.out)


_COMMANDS = {
    "compute": _cmd_compute,
    "sweep": _cmd_sweep,
    "weights": _cmd_weights,
    "validate": _cmd_validate,
    "convergence": _cmd_convergence,
    "subadd": _cmd_subadd,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help exits through here
        code = exc.code
        return 0 if code in (0, None) else int(code)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
