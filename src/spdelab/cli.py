"""Command-line front end for the simulation laboratory."""
from __future__ import annotations

import argparse
import json
import sys
from functools import partial

import numpy as np

from .assumptions import check_all
from .brownian import uniform_grid
from .diagnostics import quotient_fn, quotient_fn_d1, quotient_fn_d2
from .integrator import BlowUpError, strong_convergence
from .runner import KINDS, build_system, export_csv, load_config, report_summary, run
from .systems import list_systems

#: the convergence study uses at most this many of the config's paths
CONVERGENCE_MAX_PATHS = 50

#: errors of bad input, which exit 2; a blow-up or another OSError exits 1
BAD_INPUT = (ValueError, KeyError, FileNotFoundError)


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


def _cmd_run(kind, args) -> int:
    manifest = run(load_config(args.config, kind=kind))
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
    print(json.dumps(export_csv(args.run_dir), indent=2))
    return 0


_CONFIG = ("--config", {"required": True})

#: name -> (handler, help line, arguments as (name or flag, add_argument options))
COMMANDS = {
    "list-systems": (_cmd_list_systems, "print the system registry", ()),
    "check": (_cmd_check, "assumption certificates for a system", (_CONFIG,)),
    **{kind: (partial(_cmd_run, kind), f"run a {kind} experiment", (_CONFIG,))
       for kind in KINDS},
    "convergence": (_cmd_convergence, "strong-order study of a scheme", (
        ("--scheme", {"required": True}), _CONFIG,
        ("--levels", {"type": int, "default": 4}))),
    "gradcheck": (_cmd_gradcheck, "finite-difference derivative check", (
        ("--trials", {"type": int, "default": 100}),
        ("--seed", {"type": int, "default": 0}))),
    "report": (_cmd_report, "summarize a finished run directory", (("run_dir", {}),)),
    "export": (_cmd_export, "write a run directory's tables as CSVs", (("run_dir", {}),)),
}


def main(argv=None) -> int:
    """Run one command; the only place where an error becomes an exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:  # -h or a usage error, which exit here
        listing = argparse.ArgumentParser(
            prog="spdelab", usage="%(prog)s [-h] COMMAND ...",
            description="Spectral-Galerkin laboratory for stochastic parabolic equations",
            epilog="commands:\n" + "\n".join(f"  {n:20s}{c[1]}" for n, c in COMMANDS.items()),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        listing.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                             help="`spdelab COMMAND -h` lists its arguments")
        found, rest = listing.parse_known_args(argv)
        argv = [found.command, *rest]
    handler, _, arguments = COMMANDS[argv[0]]
    parser = argparse.ArgumentParser(prog=f"spdelab {argv[0]}")
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    args = parser.parse_args(argv[1:])
    try:
        return handler(args)
    except (*BAD_INPUT, BlowUpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, BAD_INPUT) else 1


if __name__ == "__main__":
    sys.exit(main())
