"""Command-line entry point.

    enkfkit run --config lorenz-small [--out runs/demo]
    enkfkit scale --config lorenz-small --sweep nobs=1000,2000,4000 [--fixed 16]
    enkfkit verify

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .experiment import emit_csv, load_config, run_experiment
from .scaling import emit_scaling_csv, run_scaling_study
from . import verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enkfkit",
        description="Ensemble Kalman filter twin experiments and solver benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an assimilation experiment")
    p_run.add_argument("--config", required=True,
                       help="config file path or preset name "
                            "(lorenz-small, lorenz-500, qg33-short)")
    p_run.add_argument("--out", default=None, help="output directory")

    p_scale = sub.add_parser("scale", help="time the solvers over a size sweep")
    p_scale.add_argument("--config", required=True,
                         help="config supplying the solver list")
    p_scale.add_argument("--sweep", required=True,
                         help="swept axis and values, e.g. nobs=1000,2000,4000")
    p_scale.add_argument("--fixed", type=int, default=None,
                         help="value of the non-swept dimension "
                              "(default: nens from the config, or 16)")
    p_scale.add_argument("--repeats", type=int, default=3)
    p_scale.add_argument("--out", default=None, help="output directory")

    sub.add_parser("verify", help="run the built-in oracle/property checks")
    return parser


def _parse_sweep(text: str):
    if "=" not in text:
        raise ConfigError("sweep must look like nobs=a,b,c or nens=a,b,c")
    axis, _, values = text.partition("=")
    axis = axis.strip()
    try:
        parsed = [int(v) for v in values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {values!r}: {exc}") from exc
    return axis, parsed


def _cmd_run(args) -> int:
    cfg = load_config(args.config, {"output_dir": args.out})
    manifest = run_experiment(cfg)
    written = emit_csv(manifest, cfg.output_dir)
    for run in manifest.runs:
        print(f"{run.solver:9s} rmse={run.rmse_analysis:.6e} "
              f"total={run.elapsed['total_s']:.3f}s")
    print(f"wrote {len(written)} files to {cfg.output_dir}")
    return EXIT_OK


def _cmd_scale(args) -> int:
    cfg = load_config(args.config)
    axis, values = _parse_sweep(args.sweep)
    solvers = [s for s in cfg.solvers if s != "free"]
    fixed = args.fixed
    if fixed is None:
        fixed = cfg.nens if axis == "nobs" else 16
    study = run_scaling_study(solvers, axis, values, fixed,
                              repeats=args.repeats)
    outdir = args.out if args.out is not None else cfg.output_dir
    path = emit_scaling_csv(study, outdir)
    for solver, slope in study.slopes.items():
        print(f"{solver:9s} log-log slope vs {axis}: {slope:.3f}")
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "scale":
            return _cmd_scale(args)
        return EXIT_OK if verify.run_all() else EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
