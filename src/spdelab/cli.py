"""Command-line front end for the simulation laboratory."""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .assumptions import check_all
from .brownian import uniform_grid
from .diagnostics import quotient_fn, quotient_fn_d1, quotient_fn_d2
from .integrator import BlowUpError, strong_convergence
from .runner import KINDS, build_system, export_csv, load_config, report_summary, run
from .systems import list_systems

#: the convergence study uses at most this many of the config's paths
CONVERGENCE_MAX_PATHS = 50


def _cmd_list_systems(args) -> int:
    for name, doc in list_systems():
        print(f"{name:20s} {doc}")
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    system = build_system(cfg)
    report = check_all(system.ops, system.basis, uniform_grid(cfg.T, cfg.dt))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config, kind=args.kind)
    try:
        manifest = run(cfg)
    except OSError as exc:  # a failed write of the run's outputs
        print(f"error: cannot write the run's outputs: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report_summary(manifest.run_dir), indent=2, sort_keys=True))
    return 0


def _cmd_convergence(args) -> int:
    """Strong-error slope of a scheme against a shared-noise fine reference."""
    if args.levels < 2:
        raise ValueError(f"--levels must be at least 2, got {args.levels}")
    cfg = load_config(args.config)
    system = build_system(cfg)
    result = strong_convergence(
        system, args.scheme, cfg.T, cfg.dt, cfg.master_seed,
        min(cfg.paths, CONVERGENCE_MAX_PATHS), args.levels,
    )
    print(json.dumps(result, indent=2))
    return 0


def _cmd_gradcheck(args) -> int:
    """Finite-difference validation of the quotient derivative kernels."""
    rng = np.random.Generator(np.random.Philox(key=[args.seed, 0x6D]))
    worst1 = worst2 = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(2, 9))
        c = rng.standard_normal((n, n))
        c = 0.5 * (c + c.T)
        eps = 10.0 ** rng.uniform(-3, 0)
        x = rng.standard_normal(n)
        h1 = rng.standard_normal(n)
        h2 = rng.standard_normal(n)
        step = 1e-5
        fd1 = (quotient_fn(c, eps, x + step * h1) - quotient_fn(c, eps, x - step * h1)) / (2 * step)
        d1 = quotient_fn_d1(c, eps, x, h1)
        worst1 = max(worst1, abs(fd1 - d1) / max(1.0, abs(d1)))
        fd2 = (
            quotient_fn_d1(c, eps, x + step * h2, h1)
            - quotient_fn_d1(c, eps, x - step * h2, h1)
        ) / (2 * step)
        d2 = quotient_fn_d2(c, eps, x, h1, h2)
        worst2 = max(worst2, abs(fd2 - d2) / max(1.0, abs(d2)))
    ok = worst1 < 1e-6 and worst2 < 1e-5
    print(json.dumps({
        "trials": args.trials, "max_rel_err_d1": worst1,
        "max_rel_err_d2": worst2, "pass": ok,
    }, indent=2))
    return 0 if ok else 1


def _cmd_report(args) -> int:
    print(json.dumps(report_summary(args.run_dir), indent=2, sort_keys=True))
    return 0


def _cmd_export(args) -> int:
    try:
        written = export_csv(args.run_dir)
    except FileNotFoundError:
        raise  # a missing manifest or table exits 2, naming it
    except OSError as exc:  # a failed write of a CSV
        print(f"error: cannot write the CSVs: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(written, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spdelab",
        description="Spectral-Galerkin laboratory for stochastic parabolic equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-systems", help="print the system registry")
    p.set_defaults(func=_cmd_list_systems)

    p = sub.add_parser("check", help="assumption certificates for a system")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_check)

    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True)
        p.set_defaults(func=_cmd_run, kind=kind)

    p = sub.add_parser("convergence", help="strong-order study of a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("gradcheck", help="finite-difference derivative check")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("export", help="write a run directory's tables as CSVs")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
