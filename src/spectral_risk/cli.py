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
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, measures
from .distributions import constant, normal, read_loss_csv, standard_normal, uniform
from .errors import DataError, NumericalError
from .quadrature import QuadratureConfig, convergence_study, srm_converged
from .risk_aversion import _PARAMETER, WeightSpec, check_admissibility

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)

    def _parse_optional(self, arg_string):
        # a value such as -1e-3, -inf or -1:2:3, which argparse reads as an option
        if re.match(r"-[\d.in]", arg_string):
            return None
        return super()._parse_optional(arg_string)


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
        sp.add_argument("--scheme", choices=["replication", "converged"],
                        help=f"quadrature scheme (default {base.scheme})")
    sp.add_argument("--endpoint-policy", choices=["zero-endpoints", "clip-epsilon"])
    sp.add_argument("--epsilon", type=float,
                    help=f"clip width for clip-epsilon (default {base.epsilon:g})")
    sp.add_argument("--rel-tol", type=float,
                    help=f"relative tolerance for the converged scheme (default {base.rel_tol:g})")


def _add_library_arg(sp, flag: str, fn, name: str, what: str):
    """A flag for fn's keyword argument name.  It stays out of args unless
    given, so fn keeps its own default, which the help names."""
    default = inspect.signature(fn).parameters[name].default
    sp.add_argument(flag, dest=name, type=type(default), default=argparse.SUPPRESS,
                    help=f"{what} (default {default:g})")


def _given(args, *names) -> dict:
    """The library arguments among names that were given on the command line."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="srm", description="Spectral risk measure toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    es_base = measures._ES_CONFIG
    sp = sub.add_parser("compute", help="compute one risk measure",
                        description=f"--measure es starts from --scheme {es_base.scheme} "
                                    f"and --rel-tol {es_base.rel_tol:g}")
    sp.set_defaults(run=_cmd_compute)
    sp.add_argument("--measure", required=True, choices=["var", "es", "srm"])
    _add_source_args(sp)
    _add_weight_args(sp)
    _add_quad_args(sp, QuadratureConfig())
    sp.add_argument("--precision", type=int, default=6, help="decimal places printed (default 6)")

    sp = sub.add_parser("sweep", help="sweep a weight family across a parameter grid")
    sp.set_defaults(run=_cmd_sweep)
    sp.add_argument("--family", required=True, choices=[f for f, key in _PARAMETER.items() if key])
    sp.add_argument("--grid", required=True, help="parameter grid as min:max:count")
    sp.add_argument("--log-grid", action="store_true", help="space the grid geometrically")
    _add_source_args(sp)
    _add_quad_args(sp, analysis._LIGHT_CONFIG)
    sp.add_argument("--out", required=True, help="CSV output path (param,value)")

    sp = sub.add_parser("weights", help="export weight function samples")
    sp.set_defaults(run=_cmd_weights)
    _add_weight_args(sp)
    _add_library_arg(sp, "--points", analysis.weight_curve, "n_points", "samples on [0, p-max]")
    _add_library_arg(sp, "--p-max", analysis.weight_curve, "p_max", "last probability sampled")
    sp.add_argument("--out", required=True, help="CSV output path (p,weight)")

    sp = sub.add_parser("validate", help="check a weight function for admissibility")
    sp.set_defaults(run=_cmd_validate)
    _add_weight_args(sp)
    _add_library_arg(sp, "--grid-size", check_admissibility, "grid_size", "interior check points")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("convergence", help="replication values by grid size, against the converged value")
    sp.set_defaults(run=_cmd_convergence)
    _add_weight_args(sp)
    _add_source_args(sp)
    sp.add_argument("--n-list", required=True, help="comma-separated odd grid sizes")
    _add_quad_args(sp, QuadratureConfig(), grid=False)
    sp.add_argument("--out", required=True, help="CSV output path (n,value)")

    sp = sub.add_parser("subadd", help="stress subadditivity on random sample pairs")
    sp.set_defaults(run=_cmd_subadd)
    _add_weight_args(sp)
    _add_library_arg(sp, "--trials", analysis.subadditivity_check, "trials", "sample pairs drawn")
    _add_library_arg(sp, "--sample-size", analysis.subadditivity_check, "sample_size",
                     "losses per sample")
    _add_library_arg(sp, "--seed", analysis.subadditivity_check, "seed", "random seed")
    sp.add_argument("--n", dest="n_points", metavar="N", type=int,
                    help=f"replication grid size per evaluation (default {analysis._LIGHT_CONFIG.n_points:,})")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")

    return parser


def _make_source(args):
    kind = args.dist
    if kind == "empirical":
        if not args.input:
            raise ValueError("--dist empirical needs --input")
        return read_loss_csv(args.input)
    if kind == "constant":
        if args.value is None:
            raise ValueError("--dist constant needs --value")
        return constant(args.value)
    if kind == "uniform":
        if args.lo is None or args.hi is None:
            raise ValueError("--dist uniform needs --lo and --hi")
        return uniform(args.lo, args.hi)
    if kind == "normal":
        return normal(args.mean, args.sd)
    return standard_normal()


def _make_spec(args) -> WeightSpec:
    family = args.family
    if family is None:
        raise ValueError("--family is required")
    if family == "exponential":
        return WeightSpec.exponential(a=args.a, gamma=args.gamma)
    key = _PARAMETER[family]
    if key is None:
        return WeightSpec(family)
    if getattr(args, key) is None:
        raise ValueError(f"--family {family} needs --{key}")
    return WeightSpec(family, **{key: getattr(args, key)})


def _make_config(args, base: QuadratureConfig) -> QuadratureConfig:
    """base with each quadrature flag given on the command line in its place."""
    given = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(QuadratureConfig)
        if getattr(args, field.name, None) is not None
    }
    if "endpoint_policy" in given:
        given["endpoint_policy"] = given["endpoint_policy"].replace("-", "_")
    return dataclasses.replace(base, **given)


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
        raise ValueError("--precision must be non-negative")
    source = _make_source(args)
    if args.measure == "srm":
        value = measures.srm(source, _make_spec(args), _make_config(args, QuadratureConfig()))
    elif args.alpha is None:
        raise ValueError(f"--measure {args.measure} needs --alpha")
    elif args.measure == "var":
        value = measures.var(source, args.alpha)
    else:
        value = measures.es(source, args.alpha, _make_config(args, measures._ES_CONFIG))
    print(f"{value:.{args.precision}f}")
    return 0


def _parse_grid(text: str, log_grid: bool) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--grid must look like min:max:count")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2])
        if count < 0:  # as malformed as a non-integer count
            raise ValueError
    except ValueError:
        raise ValueError(f"bad --grid value: {text!r}") from None
    if log_grid:
        if not (lo > 0.0 and hi > 0.0):
            raise ValueError("--log-grid needs min > 0 and max > 0")
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
    rows = analysis.weight_curve(spec, **_given(args, "n_points", "p_max"))
    analysis.curve_to_csv(rows, args.out)
    print(args.out)
    return 0


def _cmd_validate(args) -> int:
    spec = _make_spec(args)
    report = check_admissibility(spec, **_given(args, "grid_size"))
    return _emit_json(report.to_dict(), args.out)


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad --n-list value: {text!r}") from None


def _cmd_convergence(args) -> int:
    spec = _make_spec(args)
    source = _make_source(args)
    ns = _parse_n_list(args.n_list)
    config = _make_config(args, QuadratureConfig())
    rows = convergence_study(source, spec, ns, config)
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
        config=_make_config(args, analysis._LIGHT_CONFIG),
        **_given(args, "sample_size", "trials", "seed"),
    )
    return _emit_json(report.to_dict(), args.out)


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.run(args)
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
