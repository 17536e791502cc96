"""Workload definitions and per-repetition correctness checks.

Each workload turns a seed into one spdelab config (the program sees only
that config) and knows how much work a repetition does and how to check a
repetition's outputs.  Checks use tolerances, not bytes, so rewrites that
reorder floating-point sums still pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: seed of the reference repetition that opens every run; its outputs are
#: compared with reference.json, recorded from this benchmark's first commit
REFERENCE_SEED = 0

#: relative and absolute tolerance for comparing report values
RTOL = 1e-6
ATOL = 1e-9

#: argv of the convergence study after "--config PATH" is appended
CONVERGENCE_ARGS = ["convergence", "--scheme", "milstein", "--levels", "4"]


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "runner" (runner.run) or "convergence" (cli.main)
    make_config: Callable[[int, bool], dict]  # (seed, tiny) -> config
    work: Callable[[dict], int]  # path-steps of one repetition
    check: Callable[[dict, dict], list]  # (config, outcome) -> problems
    oracle: bool = False  # the child reports DiagonalOracle.quotient_limit


def _steps(cfg: dict) -> int:
    return round(cfg["T"] / cfg["dt"])


def _ensemble_work(cfg: dict) -> int:
    return cfg["paths"] * _steps(cfg)


def _convergence_work(cfg: dict) -> int:
    # every path is integrated on the fine grid and on each coarser level
    levels = int(CONVERGENCE_ARGS[CONVERGENCE_ARGS.index("--levels") + 1])
    fine = _steps(cfg) * 2**levels
    return min(cfg["paths"], 50) * sum(fine >> lev for lev in range(levels + 1))


# -- configs ----------------------------------------------------------


def _diag_config(seed: int, tiny: bool) -> dict:
    return {
        "system": {"name": "diagonal"},
        "T": 0.2 if tiny else 1.0, "dt": 1e-3,
        "scheme": "drift-implicit", "kind": "simulate",
        "paths": 4 if tiny else 48, "master_seed": seed,
    }


def _nse_config(seed: int, tiny: bool) -> dict:
    return {
        "system": {"name": "nse-2d", "modes_per_dim": 2 if tiny else 4},
        "T": 0.05 if tiny else 0.4, "dt": 1e-3,
        "scheme": "drift-implicit", "kind": "simulate",
        "paths": 2 if tiny else 4, "master_seed": seed,
    }


def coupled_tables(n: int = 2, nodes: int = 11) -> tuple:
    """h[j,m] = 0.3(1+0.5 t_j) I + 0.2 t_j e_m e_{m+1}^T on `nodes` times in [0,1]."""
    times = [j / (nodes - 1) for j in range(nodes)]
    tables = []
    for t in times:
        per_noise = []
        for m in range(n):
            h = [[0.3 * (1.0 + 0.5 * t) if r == c else 0.0 for c in range(n)]
                 for r in range(n)]
            h[m][(m + 1) % n] += 0.2 * t
            per_noise.append(h)
        tables.append(per_noise)
    return tables, times


def _coupled_config(seed: int, tiny: bool) -> dict:
    tables, times = coupled_tables()
    modes = 8 if tiny else 16
    return {
        "system": {"name": "coupled-torus", "n_components": 2, "modes": modes,
                   "h_tables": tables, "h_time_grid": times},
        "T": 0.2 if tiny else 1.0, "dt": 1e-3,
        "scheme": "euler-maruyama", "kind": "simulate",
        "paths": 2 if tiny else 4, "master_seed": seed,
        "write_paths": True, "N_list": [4, 8, 12] if tiny else [8, 16, 24],
        "r_list": [0.5, 0.1],
    }


def _convergence_config(seed: int, tiny: bool) -> dict:
    return {
        "system": {"name": "diagonal"},
        "T": 1.0, "dt": 0.01,
        "paths": 4 if tiny else 30, "master_seed": seed,
    }


# -- checks -----------------------------------------------------------


def flatten(value, prefix: str = "") -> dict:
    """Leaves of a JSON value keyed by their path; histogram keys become floats."""
    out = {}
    if isinstance(value, dict):
        if prefix.endswith("histogram"):
            value = {repr(float(k)): v for k, v in value.items()}
        for key in sorted(value):
            out.update(flatten(value[key], f"{prefix}.{key}" if prefix else key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out.update(flatten(item, f"{prefix}.{i}"))
    else:
        out[prefix] = value
    return out


def compare(got, want, what: str) -> list:
    """Problems where `got` differs from `want` beyond RTOL/ATOL."""
    g, w = flatten(got), flatten(want)
    if set(g) != set(w):
        diff = sorted(set(g) ^ set(w))[:3]
        return [f"{what}: keys differ, e.g. {diff}"]
    problems = []
    for key, ref in w.items():
        val = g[key]
        both_numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in (val, ref))
        if both_numbers:
            ok = math.isclose(val, ref, rel_tol=RTOL, abs_tol=ATOL)
        else:
            ok = val == ref
        if not ok:
            problems.append(f"{what}: {key} is {val!r}, expected {ref!r}")
    return problems[:5]


def _nonfinite(value) -> list:
    return [k for k, v in flatten(value).items()
            if isinstance(v, float) and not math.isfinite(v)]


def _ensemble_problems(cfg: dict, out: dict) -> list:
    """Checks every ensemble repetition must pass, whatever the seed."""
    report, p = out["report"], cfg["paths"]
    problems = []
    if report["blowups"] or out["manifest_blowups"]:
        problems.append(f"blow-ups: {report['blowups']}")
    if report["spectral_limit"]["n_paths"] != p:
        problems.append("spectral-limit report does not cover every path")
    probe = report["backward_probe"]
    if not probe["all_positive"] or probe["n_underflow"]:
        problems.append(f"a path reached zero: margin {probe['margin']}")
    bad = _nonfinite(report)
    if bad:
        problems.append(f"non-finite report values: {bad[:3]}")
    expected_files = p * (2 if cfg.get("write_paths") else 1) + 2
    if out["files_written"] != expected_files:
        problems.append(f"{out['files_written']} files written, expected {expected_files}")
    return problems


def _check_diag(cfg: dict, out: dict) -> list:
    problems = _ensemble_problems(cfg, out)
    limit = out["oracle_limit"]
    for i, path in enumerate(out["report"]["spectral_limit"]["paths"]):
        matched = path["matched_eigenvalue"]
        if not path["settled"] or matched is None or abs(matched - limit) > ATOL:
            problems.append(f"path {i} did not settle on the oracle limit {limit}")
            break
    summary = out["summary"]
    if not summary["backward_margin"] > 0:
        problems.append(f"backward margin {summary['backward_margin']} is not positive")
    if not abs(summary["martingale_z"]) < 4:
        problems.append(f"martingale z-score {summary['martingale_z']} is not within 4")
    return problems


def _check_convergence(cfg: dict, out: dict) -> list:
    slope = out["report"]["slope"]
    if out["exit_code"] != 0:
        return [f"convergence exited with {out['exit_code']}"]
    if not (math.isfinite(slope) and slope > 0.8):
        return [f"strong-order slope {slope} is not above 0.8"]
    return []


# One line each on why the workload is here.  All stay off configs that the
# planned guard fixes will reject: no milstein on coupled-torus, a single
# eps_list entry, and nothing reads the manifest's `created` timestamp.
WORKLOADS = {
    w.name: w for w in (
        # per-path diagnostics and CSV writing dominate; stepping is ~2%; oracle-checked
        Workload("diag-ensemble", "runner", _diag_config, _ensemble_work,
                 _check_diag, oracle=True),
        # stepping through the NSE advection F hook dominates; heavy set-up, small diagnostics
        Workload("nse-advect", "runner", _nse_config, _ensemble_work,
                 _ensemble_problems),
        # time-dependent noise: no constant-family reuse; only user of gaps, hitting times, raw paths
        Workload("coupled-tdep", "runner", _coupled_config, _ensemble_work,
                 _ensemble_problems),
        # only user of single-path integrate, coarsening and Milstein; no diagnostics or files
        Workload("convergence-sweep", "convergence", _convergence_config,
                 _convergence_work, _check_convergence),
    )
}

