"""Experiment orchestration: config, ensemble runs, persistence, reporting.

A run turns one declarative config into a directory containing
manifest.json, report.json, optional paths/<idx>.npy, and per-path
diagnostics/<idx>.npy; the manifest names each table's columns, and
`export_csv` writes each table as a CSV beside it.  Every output byte is a
function of (config, master_seed): diagnostics never consume randomness,
and path p always uses stream p of the master seed.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import diagnostics as diag
from .assumptions import check_commutator_bound, k6_table
from .brownian import GridError, uniform_grid
from .integrator import SCHEMES, integrate_ensemble
from .operators import spectrum
from .systems import REGISTRY, SystemSpec, make_system

SCHEMA_VERSION = "1"

DIAG_COLUMNS = (
    "t", "norm_h", "norm_v", "norm_d2", "quotient", "quotient_full",
    "M", "psi", "residual", "S", "X",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad key."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def _seq_of(ok):
    return lambda x: isinstance(x, (list, tuple)) and all(ok(v) for v in x)


#: (key, check, description) of every config key but 'system'
_KEY_TYPES = (
    ("T", _is_real, "a finite number"),
    ("dt", _is_real, "a finite number"),
    ("kind", lambda x: isinstance(x, str), "a string"),
    ("scheme", lambda x: isinstance(x, str), "a string"),
    ("paths", _is_int, "an integer"),
    ("master_seed", _is_int, "an integer"),
    ("eps_list", _seq_of(_is_real), "a list of finite numbers"),
    ("delta", _is_real, "a finite number"),
    ("r_list", _seq_of(_is_real), "a list of finite numbers"),
    ("N_list", _seq_of(_is_int), "a list of integers"),
    ("output_dir", lambda x: x is None or isinstance(x, str), "a string"),
    ("write_paths", lambda x: isinstance(x, bool), "true or false"),
    ("u0", lambda x: x is None or _seq_of(_is_real)(x), "a list of finite numbers"),
)


def _check_system_params(system: dict) -> None:
    """The system table names a registered factory and only its parameters."""
    name = system["name"]
    if name not in REGISTRY:
        raise ConfigError(
            f"config key 'system': unknown system {name!r}; "
            f"available: {', '.join(sorted(REGISTRY))}"
        )
    params = {k: v for k, v in system.items() if k != "name"}
    try:
        inspect.signature(REGISTRY[name]).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"config key 'system': {name}: {exc}") from None


def build_system(cfg: "ExperimentConfig") -> SystemSpec:
    """The config's system with the config's u0 in place, if it gives one;
    its parameters and start are checked against it."""
    params = {k: v for k, v in cfg.system.items() if k != "name"}
    try:
        system = make_system(cfg.system["name"], **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key 'system': {cfg.system['name']}: {exc}") from exc
    dim = system.basis.dim
    if cfg.u0 is not None and len(cfg.u0) != dim:
        raise ConfigError(
            f"config key 'u0' has {len(cfg.u0)} entries; system "
            f"{system.name!r} has dimension {dim}"
        )
    if cfg.u0 is not None:
        system = replace(system, u0=np.asarray(cfg.u0, dtype=float))
    for key, values in (("delta", (cfg.delta,)), ("eps_list", cfg.eps_list)):
        if 0 in values and not np.any(system.u0):
            raise ConfigError(
                f"config key {key!r} is zero and so is the start u0: every path "
                f"stays at zero, where |u|^2 + {key} vanishes"
            )
    if any(not 0 < n <= dim for n in cfg.N_list):
        raise ConfigError(
            f"config key 'N_list': section sizes must lie in [1, {dim}], "
            f"got {list(cfg.N_list)}"
        )
    return system


#: the run kinds, one CLI command each
KINDS = ("simulate", "spectral-limit", "backward-probe")
#: the kinds whose report holds the backward probe and the hitting times
_PROBE_KINDS = ("simulate", "backward-probe")


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment."""

    system: dict
    T: float
    dt: float
    kind: str = "simulate"
    scheme: str = "drift-implicit"
    paths: int = 1
    master_seed: int = 0
    eps_list: tuple = (1e-8,)
    delta: float = 1e-6
    r_list: tuple = ()
    N_list: tuple = ()
    output_dir: Optional[str] = None
    write_paths: bool = False
    u0: Optional[tuple] = None

    def validate(self) -> None:
        if not isinstance(self.system, dict) or not isinstance(self.system.get("name"), str):
            raise ConfigError("config key 'system' must be a table with a 'name'")
        _check_system_params(self.system)
        for key, ok, what in _KEY_TYPES:
            value = getattr(self, key)
            if not ok(value):
                raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
        if self.kind not in KINDS:
            raise ConfigError(
                f"config key 'kind': unknown kind {self.kind!r}; choose from {KINDS}"
            )
        if self.scheme not in SCHEMES:
            raise ConfigError(f"config key 'scheme': unknown scheme {self.scheme!r}")
        if self.T <= 0 or self.dt <= 0:
            raise ConfigError("config keys 'T' and 'dt' must be positive")
        try:
            uniform_grid(self.T, self.dt)
        except GridError:
            raise ConfigError(
                f"config key 'dt': dt={self.dt} does not divide T={self.T}"
            ) from None
        if self.paths < 1:
            raise ConfigError("config key 'paths' must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("config key 'master_seed' must be >= 0")
        if any(r < 0 for r in self.r_list):
            raise ConfigError("config key 'r_list' must be nonnegative")
        if self.r_list and self.kind not in _PROBE_KINDS:
            raise ConfigError(
                f"config key 'r_list': kind {self.kind!r} reports no hitting times; "
                f"only {' and '.join(_PROBE_KINDS)} do"
            )
        if any(e < 0 for e in self.eps_list):
            raise ConfigError("config key 'eps_list' must be nonnegative")
        if self.delta < 0:
            raise ConfigError(f"config key 'delta' must be nonnegative, got {self.delta!r}")
        if len(self.eps_list) != 1:
            raise ConfigError(
                "config key 'eps_list' takes exactly one entry; a run computes "
                f"its diagnostics at a single eps, got {list(self.eps_list)}"
            )

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def load_config(path: str, kind: Optional[str] = None) -> ExperimentConfig:
    """Read and validate a JSON experiment config.

    With `kind`, the experiment a command runs: a config that names no kind
    takes it, and one that names another kind is rejected.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for req in ("system", "T", "dt"):
        if req not in raw:
            raise ConfigError(f"missing required config key {req!r}")
    if kind is not None and raw.setdefault("kind", kind) != kind:
        raise ConfigError(
            f"config key 'kind' is {raw['kind']!r}, but this command runs {kind!r}"
        )
    for key in ("eps_list", "r_list", "N_list", "u0"):
        if isinstance(raw.get(key), list):
            raw[key] = tuple(raw[key])
    cfg = ExperimentConfig(**raw)
    cfg.validate()
    return cfg


@dataclass
class RunManifest:
    """Provenance record of one run; re-running reproduces the outputs."""

    config: dict
    config_hash: str
    schema_version: str
    streams: list  # per-path (seed, stream_id)
    blowups: dict
    outputs: list
    columns: dict  # per table kind (its directory), the names of its columns
    run_dir: str

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "config_hash": self.config_hash,
            "streams": self.streams,
            "blowups": {str(k): v for k, v in self.blowups.items()},
            "outputs": sorted(self.outputs),
            "columns": self.columns,
        }


def _output_root() -> str:
    return os.environ.get("SPDELAB_OUTPUT_ROOT", "runs")


def _resolve_dir(cfg: ExperimentConfig) -> str:
    if cfg.output_dir:
        return cfg.output_dir
    return os.path.join(_output_root(), f"{cfg.kind}-{cfg.digest()[:12]}")


# the name is older than the .npy tables: bench/spans.py traces this
# function by it, as runner.persist
def _write_csv(jobs) -> None:
    """Write every (path, float64 table) job as a .npy file."""
    for path, rows in jobs:
        np.save(path, rows)


def export_csv(run_dir: str) -> list:
    """Write each table the manifest of `run_dir` lists as a CSV beside it,
    headed by its kind's columns, in np.savetxt's "%.18e" text; return the
    CSV paths.  A run directory can come from anywhere, so each table must
    lie in one of its table directories, none is unpickled, and each must
    be a float64 table of its columns.  The manifest is not rewritten."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    written = []
    for rel in manifest["outputs"]:
        if not rel.endswith(".npy"):
            continue
        kind = os.path.dirname(rel)
        if kind not in ("diagnostics", "paths"):
            raise ValueError(f"manifest output {rel!r} lies outside the table directories")
        columns = manifest["columns"][kind]
        path = os.path.join(run_dir, rel)
        try:
            rows = np.load(path, allow_pickle=False)
        except (ValueError, EOFError) as exc:  # not a whole .npy, or a pickled one
            raise ValueError(f"{path}: {exc}") from None
        if rows.dtype != np.float64 or rows.shape[1:] != (len(columns),):
            raise ValueError(f"{path}: expected a float64 table of {len(columns)} "
                             f"columns, got {rows.dtype} of shape {rows.shape}")
        csv = path[:-len(".npy")] + ".csv"
        np.savetxt(csv, rows, fmt="%.18e", delimiter=",", header=",".join(columns),
                   comments="")
        written.append(csv)
    return written


def _constants_for(system: SystemSpec, t_grid: np.ndarray):
    """K1 and the damping G on the run grid, which X and S read.  K1 and K2
    are the constants of ac4's record at the first time of each run of the
    family, as `spdelab check` prints them; K1 is held over the run, and G
    integrates n^2 + K2 + K6, with the K6 table and the nonlinearity witness n."""
    edges = system.ops.runs(t_grid)
    firsts = t_grid[edges[:-1]]
    ac4 = check_commutator_bound(system.ops.at(firsts), system.basis, firsts).constants
    k6 = k6_table(system.ops, system.basis, t_grid)
    n = system.ops.n_witness or 0.0
    return (np.repeat(ac4["K1"], np.diff(edges)),
            diag.damping(t_grid, n * n + ac4["K2"] + k6))


#: float64 scratch one diagnostics block may hold; a block takes as many
#: paths as fit, so memory stays bounded however large the ensemble
DIAG_BLOCK_BYTES = 2 * 2**20


def _paths_per_block(n_times: int, dim: int, n_noise: int) -> int:
    # per path and grid time: the state, Ã u, each B_k u and a few more
    # state-sized temporaries, plus the table row and its column temporaries
    floats = n_times * (dim * (n_noise + 4) + 3 * len(DIAG_COLUMNS))
    return max(1, DIAG_BLOCK_BYTES // (8 * floats))


def _diagnostic_blocks(system: SystemSpec, ens, eps: float, delta: float,
                       k1, big_g, paths_per_block: int):
    """Yield (first path, table, record) per block of paths.

    The table is (paths, J+1, DIAG_COLUMNS), and the record is the block's
    one PathForms, which every column reads.  The record's M, and so the M,
    psi, S and X columns, is at eps, or at delta when eps is zero.
    """
    basis = system.basis
    for lo in range(0, ens.n_paths, paths_per_block):
        block = ens.paths(lo, lo + paths_per_block)
        states = block.states
        forms = diag.PathForms(block, eps if eps > 0 else delta)
        m = diag.exp_martingale(forms)
        lam = diag.quotient_series(forms, eps)
        table = np.empty(states.shape[:-1] + (len(DIAG_COLUMNS),))
        table[..., 0] = block.times
        table[..., 1] = np.sqrt(forms.sq)
        table[..., 2] = basis.norm_v(states)
        table[..., 3] = basis.norm_d(states)
        table[..., 4] = lam
        table[..., 5] = diag.quotient_full(forms, eps)
        table[..., 6] = m
        table[..., 7] = diag.psi_series(forms, max(eps, 1e-300))
        table[..., 8] = diag.eigen_residual(states, forms.tu, lam)
        table[..., 9] = diag.envelope_series(forms, eps, big_g)
        table[..., 10], _ = diag.bound_process_X(forms, eps, k1, big_g)
        yield lo, table, forms


def run(cfg: ExperimentConfig) -> RunManifest:
    """Execute one experiment and persist all requested outputs."""
    cfg.validate()
    system = build_system(cfg)
    run_dir = _resolve_dir(cfg)
    grid = uniform_grid(cfg.T, cfg.dt)
    ens = integrate_ensemble(system, cfg.scheme, grid, cfg.master_seed, cfg.paths)
    eps = cfg.eps_list[0]
    # a zero eps or delta leaves |u|^2 alone under the weak-noise ratios
    # <B_k u, u>/(|u|^2 + eps) of the diagnostics, so no path may vanish
    for key in [k for k, v in (("eps_list", eps), ("delta", cfg.delta)) if v == 0]:
        low = np.sum(ens.states**2, axis=-1) <= diag.NORM_FLOOR**2
        if low.any():
            p, j = np.argwhere(low)[0]
            raise ConfigError(f"config key {key!r} is zero, and path {p} vanishes at "
                              f"t={ens.times[j]:g} (|u|^2 <= {diag.NORM_FLOOR**2:g}); "
                              f"give {key} a positive value")

    # only now, so a run that fails to integrate leaves no directory behind
    try:
        os.makedirs(run_dir, exist_ok=True)
    except OSError as exc:
        source = ("config key 'output_dir'" if cfg.output_dir
                  else "environment variable SPDELAB_OUTPUT_ROOT")
        raise ConfigError(f"{source}: cannot create the run directory: {exc}") from exc
    os.makedirs(os.path.join(run_dir, "diagnostics"), exist_ok=True)
    if cfg.write_paths:
        os.makedirs(os.path.join(run_dir, "paths"), exist_ok=True)
    outputs = []

    consts = _constants_for(system, grid)
    per_block = _paths_per_block(len(grid), system.basis.dim, system.ops.n_noise)
    # what the report reads, collected per path as the blocks pass
    quots, norms = np.empty((cfg.paths, len(grid))), np.empty((cfg.paths, len(grid)))
    finals, m_final = np.empty((cfg.paths, system.basis.dim)), np.empty(cfg.paths)
    n_gap = min(8, cfg.paths) if cfg.N_list else 0  # the gaps are means over 8 paths
    gaps = {key: {n: np.empty(n_gap) for n in cfg.N_list} for key in ("K3", "K4")}
    columns = {"diagnostics": list(DIAG_COLUMNS)}
    if cfg.write_paths:
        columns["paths"] = ["t"] + [f"u{i}" for i in range(system.basis.dim)]

    def write_blocks():
        """Each block's diagnostics, then its tables: the writing holds no
        diagnostics work.  A function, so the last block is freed before
        the report is built."""
        for lo, table, forms in _diagnostic_blocks(system, ens, eps, cfg.delta,
                                                   *consts, per_block):
            states, hi = forms.paths.states, lo + len(table)
            quots[lo:hi], norms[lo:hi] = table[..., 4], table[..., 1]
            finals[lo:hi] = states[:, -1]
            m_final[lo:hi] = diag.exp_martingale(forms, cfg.delta)[..., -1]
            if lo < n_gap:
                top = min(hi, n_gap)
                k3, k4 = diag.galerkin_gaps(forms, system.basis, eps, cfg.N_list)
                for key, per_n in (("K3", k3), ("K4", k4)):
                    for n, v in per_n.items():
                        gaps[key][n][lo:top] = v[:top - lo]
            jobs = []
            for p, rows in enumerate(table, start=lo):
                rel = os.path.join("diagnostics", f"{p}.npy")
                outputs.append(rel)
                jobs.append((os.path.join(run_dir, rel), rows))
                if cfg.write_paths:
                    rel = os.path.join("paths", f"{p}.npy")
                    outputs.append(rel)
                    jobs.append((os.path.join(run_dir, rel),
                                 np.column_stack([grid, states[p - lo]])))
            _write_csv(jobs)

    write_blocks()

    report = _build_report(cfg, system, ens, quots, norms, finals, m_final, gaps)
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("report.json")

    manifest = RunManifest(
        config=json.loads(cfg.canonical()),
        config_hash=cfg.digest(),
        schema_version=SCHEMA_VERSION,
        streams=[[cfg.master_seed, p] for p in range(cfg.paths)],
        blowups=ens.blowups,
        outputs=outputs + ["manifest.json"],
        columns=columns,
        run_dir=run_dir,
    )
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _build_report(cfg: ExperimentConfig, system: SystemSpec, ens,
                  quots: np.ndarray, norms: np.ndarray,
                  finals: np.ndarray, m_final: np.ndarray, gaps: dict) -> dict:
    """The report of a run from its ensemble's grid, blow-ups and segments and what
    its diagnostic blocks collected per path: the quotients and H-norms (P, J+1), the
    final states and final M at delta, and the first paths' K3/K4 gaps per size."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg.kind,
        "system": system.name,
        "scheme": cfg.scheme,
        "paths": cfg.paths,
        "blowups": {str(k): v for k, v in ens.blowups.items()},
    }
    if cfg.kind in ("simulate", "spectral-limit"):
        # sym(Ã(0)), first of the segment that holds grid index 0, as the diagnostics cached it
        tilde_sym = ens.segments.segments[0].tilde_sym
        tilde_sym = tilde_sym[0] if tilde_sym.ndim == 3 else tilde_sym
        eigs, _ = spectrum(tilde_sym)
        slr = diag.spectral_limit_report(quots, finals, tilde_sym, eigs)
        report["spectral_limit"] = slr.to_dict()

    if cfg.kind in _PROBE_KINDS:
        report["backward_probe"] = diag.backward_probe(norms)
        if cfg.r_list:
            report["hitting_times"] = {
                str(r): diag.hitting_time(norms, ens.times, r) for r in cfg.r_list
            }

    # ensemble martingale statistics at delta, collected block by block
    report["martingale"] = {
        "mean_final": float(np.mean(m_final)),
        "stderr_final": float(np.std(m_final) / np.sqrt(cfg.paths)),
        "delta": cfg.delta,
    }

    if cfg.N_list:
        report["galerkin_gaps"] = {
            key: {str(n): float(np.mean(v)) for n, v in per_n.items()}
            for key, per_n in gaps.items()
        }
    return report


def report_summary(run_dir: str) -> dict:
    """Aggregate a finished run directory into a console-friendly summary."""
    man_path = os.path.join(run_dir, "manifest.json")
    rep_path = os.path.join(run_dir, "report.json")
    for p in (man_path, rep_path):
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing run output: {p}")
    with open(man_path) as fh:
        manifest = json.load(fh)
    with open(rep_path) as fh:
        report = json.load(fh)
    if manifest["config"]["paths"] < 1:
        raise ValueError("manifest describes an empty ensemble")
    summary = {
        "run_dir": run_dir,
        "kind": report.get("kind"),
        "system": report.get("system"),
        "paths": manifest["config"]["paths"],
        "blowups": len(manifest.get("blowups", {})),
    }
    if "spectral_limit" in report:
        sl = report["spectral_limit"]
        summary["spectral_histogram"] = sl["histogram"]
        summary["n_settled"] = sl["n_settled"]
    if "backward_probe" in report:
        summary["backward_margin"] = report["backward_probe"]["margin"]
    if "martingale" in report:
        m = report["martingale"]
        summary["martingale_mean"] = m["mean_final"]
        summary["martingale_z"] = (
            (m["mean_final"] - 1.0) / m["stderr_final"]
            if m["stderr_final"] > 0 else 0.0
        )
    return summary
