"""Config handling, run orchestration, persistence, and the CLI."""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdelab import diagnostics as diag
from spdelab import runner
from spdelab.assumptions import check_all, check_commutator_bound, k6_table
from spdelab.brownian import GridError, uniform_grid
from spdelab.cli import main
from spdelab.operators import OperatorSegments
from spdelab.runner import (
    ConfigError,
    ExperimentConfig,
    build_system,
    load_config,
    report_summary,
    run,
)


def coupled_tables(nodes=11):
    """Two noises on two components, h[j,m] = 0.3(1 + 0.5 t_j) I + 0.2 t_j e_m e_{m+1}^T
    on the nodes t_j = j / (nodes - 1) of [0, 1]: constant between the nodes."""
    times = np.arange(nodes) / (nodes - 1)
    tables = np.zeros((nodes, 2, 2, 2))
    for j, t in enumerate(times):
        for m in range(2):
            tables[j, m] = 0.3 * (1.0 + 0.5 * t) * np.eye(2)
            tables[j, m, m, (m + 1) % 2] += 0.2 * t
    return tables, times


def minimal_config(tmp_path, **overrides):
    cfg = {
        "system": {"name": "diagonal", "tilde_eigs": [1.0, 4.0],
                   "noise_coeffs": [[0.3, 0.2]]},
        "T": 0.5,
        "dt": 0.01,
        "paths": 2,
        "master_seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_fills_defaults(tmp_path):
    cfg = load_config(minimal_config(tmp_path))
    assert cfg.scheme == "drift-implicit"
    assert cfg.eps_list == (1e-8,)
    assert cfg.kind == "simulate"


def test_load_rejects_nondividing_dt(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(minimal_config(tmp_path, dt=0.3))
    assert "0.3" in str(err.value) and "0.5" in str(err.value)


def test_one_rule_decides_that_dt_divides_T(tmp_path, capsys):
    """dt = 1e-3 (1 + 1e-10) misses T = 1 by 1e-7 of 1000 steps: the grid and
    the config both reject it, with the config's message."""
    dt = 1e-3 * (1 + 1e-10)
    with pytest.raises(GridError):
        uniform_grid(1.0, dt)
    path = minimal_config(tmp_path, T=1.0, dt=dt)
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config key 'dt': dt={dt} does not divide T=1.0")
    assert not os.path.exists(tmp_path / "out")


def test_load_rejects_unknown_keys_and_missing_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"system": {"name": "diagonal"}, "T": 1.0,
                                "dt": 0.1, "bogus": 1}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_load_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        load_config(minimal_config(tmp_path, paths=0))
    with pytest.raises(ConfigError):
        load_config(minimal_config(tmp_path, eps_list=[-1.0]))
    for eps_list in ([1e-8, 1e-4], []):
        with pytest.raises(ConfigError, match="'eps_list' takes exactly one entry"):
            load_config(minimal_config(tmp_path, eps_list=eps_list))
    with pytest.raises(ConfigError):
        load_config(minimal_config(tmp_path, scheme="runge-kutta"))
    with pytest.raises(ConfigError, match="'paths' must be an integer"):
        load_config(minimal_config(tmp_path, paths="4"))
    with pytest.raises(ConfigError, match="'T' must be a finite number"):
        load_config(minimal_config(tmp_path, T=float("nan")))
    with pytest.raises(ConfigError, match="'r_list'"):
        load_config(minimal_config(tmp_path, r_list=0.5))
    with pytest.raises(ConfigError, match="'write_paths'"):
        load_config(minimal_config(tmp_path, write_paths=1))
    with pytest.raises(ConfigError, match="'master_seed'"):
        load_config(minimal_config(tmp_path, master_seed=-1))
    with pytest.raises(ConfigError, match="'delta' must be nonnegative"):
        load_config(minimal_config(tmp_path, delta=-0.5))
    with pytest.raises(ConfigError, match="bogus"):
        load_config(minimal_config(tmp_path, system={"name": "diagonal", "bogus": 1}))
    with pytest.raises(ConfigError, match="unknown system"):
        load_config(minimal_config(tmp_path, system={"name": "not-a-system"}))
    for kind in ("convergence", "gradcheck"):  # commands, not run kinds
        with pytest.raises(ConfigError, match="'kind'"):
            load_config(minimal_config(tmp_path, kind=kind))
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"system": {"name": "diagonal"}, "T": 1.0, "dt": 0.1}]))
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path))


def test_run_rejects_values_that_do_not_fit_the_system(tmp_path):
    cfg = load_config(minimal_config(tmp_path, u0=[1.0, 1.0, 1.0]))
    with pytest.raises(ConfigError, match="'u0' has 3 entries.*dimension 2"):
        run(cfg)
    assert not os.path.exists(tmp_path / "out")
    cfg = load_config(minimal_config(tmp_path, N_list=[1, 3]))
    with pytest.raises(ConfigError, match="'N_list'.*\\[1, 2\\]"):
        run(cfg)
    assert not os.path.exists(tmp_path / "out")
    for key, value in (("delta", 0.0), ("eps_list", [0.0])):  # a path that stays at zero
        cfg = load_config(minimal_config(tmp_path, u0=[0.0, 0.0], **{key: value}))
        with pytest.raises(ConfigError, match=f"'{key}' is zero and so is the start u0"):
            run(cfg)
        assert not os.path.exists(tmp_path / "out")
    with pytest.raises(ConfigError, match="'r_list'"):
        load_config(minimal_config(tmp_path, r_list=[-0.5]))


def test_build_system_puts_the_config_start_in_place(tmp_path):
    """The config's u0 is the system's start, which every integration reads;
    without one the factory's default stands."""
    system = build_system(load_config(minimal_config(tmp_path, u0=[0.0, 2.0])))
    assert system.u0.dtype == float and system.u0.tolist() == [0.0, 2.0]
    assert build_system(load_config(minimal_config(tmp_path))).u0.tolist() == [1.0, 1.0]


def test_only_the_spectral_kinds_take_the_spectrum(tmp_path, monkeypatch):
    """The report's eigendecomposition of sym(Ã(0)) serves the spectral-limit
    report alone, so a backward-probe run never takes it."""
    calls = []
    spectrum = runner.spectrum

    def counted(matrix):
        calls.append(matrix.shape)
        return spectrum(matrix)

    monkeypatch.setattr(runner, "spectrum", counted)
    for kind, want in (("backward-probe", 0), ("simulate", 1), ("spectral-limit", 1)):
        calls.clear()
        run(load_config(minimal_config(tmp_path, kind=kind)))
        assert len(calls) == want, kind


def test_config_roundtrip(tmp_path):
    """The canonical form, which the manifest stores, loads back to the config."""
    cfg = load_config(minimal_config(tmp_path))
    out = tmp_path / "again.json"
    out.write_text(cfg.canonical())
    again = load_config(str(out))
    assert again == cfg
    assert again.digest() == cfg.digest()


@pytest.mark.parametrize("name", sorted(runner.REGISTRY) + ["coupled-torus-11"])
def test_run_holds_the_commutator_bound_of_each_run(name):
    """The run's K1 and K2 are the constants of ac4's record, as `spdelab
    check` prints them: K1 of each run held over it, and G integrating
    n^2 + K2 + K6.  On a family constant between its 11 nodes, the run's K1
    at each grid time is also ac4's K1 at that time: the bound is never
    interpolated across a jump."""
    if name == "coupled-torus-11":
        tables, times = coupled_tables()
        system = runner.make_system("coupled-torus", modes=8, h_tables=tables,
                                    h_time_grid=times)
    else:
        system = runner.make_system(name)
    grid = uniform_grid(1.0, 1e-3)
    k1, big_g = runner._constants_for(system, grid)
    report = check_all(system.ops, system.basis, grid)
    ac4 = report.records["ac4"].constants
    k6 = k6_table(system.ops, system.basis, grid)
    n = system.ops.n_witness or 0.0
    np.testing.assert_array_equal(big_g, diag.damping(grid, n * n + ac4["K2"] + k6))
    run_of = np.searchsorted(report.t_grid, grid, side="right") - 1
    np.testing.assert_array_equal(k1, ac4["K1"][run_of])
    if name == "coupled-torus-11":
        record = check_commutator_bound(system.ops.at(grid), system.basis, grid)
        np.testing.assert_array_equal(k1, record.constants["K1"])
        assert record.constants["K2"] == ac4["K2"]
        assert k1.max() > 0 and not np.any(k6)


def test_run_writes_expected_layout(tmp_path):
    cfg = load_config(minimal_config(tmp_path, write_paths=True))
    manifest = run(cfg)
    root = manifest.run_dir
    for rel in ("manifest.json", "report.json", "diagnostics/0.npy",
                "diagnostics/1.npy", "paths/0.npy"):
        assert os.path.exists(os.path.join(root, rel)), rel
    with open(os.path.join(root, "report.json")) as fh:
        report = json.load(fh)
    assert report["schema_version"] == "1"
    assert "spectral_limit" in report
    assert "martingale" in report
    with open(os.path.join(root, "manifest.json")) as fh:
        columns = json.load(fh)["columns"]
    assert columns == {
        "diagnostics": ["t", "norm_h", "norm_v", "norm_d2", "quotient", "quotient_full",
                        "M", "psi", "residual", "S", "X"],
        "paths": ["t", "u0", "u1"],
    }
    assert np.load(os.path.join(root, "diagnostics/0.npy")).shape == (51, 11)
    assert np.load(os.path.join(root, "paths/0.npy")).shape == (51, 3)


def test_each_diagnostics_block_applies_each_operator_once(tmp_path, monkeypatch):
    """All 11 columns and the report's final martingale read one record per
    block: one sym(Ã) application and one of the B_k per block."""
    calls = {"tilde": [], "noise": 0}
    tilde_applied = OperatorSegments.tilde_applied
    noise_applied = OperatorSegments.noise_applied

    def count_tilde(self, states, symmetric=False):
        calls["tilde"].append(symmetric)
        return tilde_applied(self, states, symmetric)

    def count_noise(self, states):
        calls["noise"] += 1
        return noise_applied(self, states)

    monkeypatch.setattr(OperatorSegments, "tilde_applied", count_tilde)
    monkeypatch.setattr(OperatorSegments, "noise_applied", count_noise)
    cfg = load_config(minimal_config(tmp_path, system={"name": "diagonal"}, T=1.0,
                                     dt=1e-3, paths=12))
    run(cfg)
    per_block = runner._paths_per_block(1001, 3, 1)
    blocks = -(-12 // per_block)
    assert blocks > 1
    assert calls == {"tilde": [True] * blocks, "noise": blocks}


def test_tables_are_written_after_their_block_diagnostics(tmp_path, monkeypatch):
    """runner._write_csv, the persistence span, writes each block's tables
    once they are made: no PathForms is built while it runs."""
    writing = []
    write_csv, path_forms = runner._write_csv, runner.diag.PathForms

    def traced_write(jobs):
        writing.append(True)
        try:
            write_csv(jobs)
        finally:
            writing.pop()

    def checked_forms(*args, **kwargs):
        assert not writing, "a PathForms was built while the tables were written"
        return path_forms(*args, **kwargs)

    monkeypatch.setattr(runner, "_write_csv", traced_write)
    monkeypatch.setattr(runner.diag, "PathForms", checked_forms)
    monkeypatch.setattr(runner, "DIAG_BLOCK_BYTES", 1)  # a block per path
    run(load_config(minimal_config(tmp_path, paths=3, write_paths=True)))
    assert len(os.listdir(tmp_path / "out" / "diagnostics")) == 3


def test_a_run_builds_its_segments_once(tmp_path, monkeypatch):
    """The steps, the diagnostics blocks and the gaps read the segments built
    for the ensemble; nothing evaluates the family on the grid again."""
    built = []
    init = OperatorSegments.__init__

    def count(self, ops, times):
        built.append(len(times))
        init(self, ops, times)

    monkeypatch.setattr(OperatorSegments, "__init__", count)
    run(load_config(minimal_config(tmp_path, paths=3, r_list=[0.5], N_list=[1, 2])))
    assert built == [51]


def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """One path per block, three (so the first 8 paths the gaps average end
    inside a block) and all ten in one: every file is byte-identical."""
    path = minimal_config(tmp_path, output_dir=None, paths=10, write_paths=True,
                          r_list=[0.5, 0.1], N_list=[1, 2])
    n_times, dim, n_noise = 51, 2, 1
    per_path = 8 * n_times * (dim * (n_noise + 4) + 3 * len(runner.DIAG_COLUMNS))
    dirs = []
    for per_block in (1, 3, 10):
        monkeypatch.setattr(runner, "DIAG_BLOCK_BYTES", per_block * per_path)
        assert runner._paths_per_block(n_times, dim, n_noise) == per_block
        monkeypatch.setenv("SPDELAB_OUTPUT_ROOT", str(tmp_path / f"blocks-of-{per_block}"))
        dirs.append(run(load_config(path)).run_dir)
    files = [sorted(os.path.relpath(os.path.join(d, f), run_dir)
                    for d, _, names in os.walk(run_dir) for f in names)
             for run_dir in dirs]
    assert files[0] == files[1] == files[2]
    assert len(files[0]) == 2 * 10 + 2
    for rel in files[0]:
        first, *rest = (pathlib.Path(d, rel).read_bytes() for d in dirs)
        assert all(other == first for other in rest), rel


@pytest.mark.parametrize("name, limit", [("torus-heat-gradient", 0.0),
                                         ("torus-heat-scalar", -0.25)])
def test_torus_paths_settle_on_their_repeated_eigenvalues(tmp_path, name, limit):
    """The torus spectra repeat each nonzero eigenvalue (cos and sin modes),
    which eigh splits by ~1e-15; every path still settles on the bottom one."""
    cfg = load_config(minimal_config(tmp_path, system={"name": name, "dim": 9}, T=8.0,
                                     paths=4, master_seed=0, kind="spectral-limit"))
    with open(os.path.join(run(cfg).run_dir, "report.json")) as fh:
        report = json.load(fh)["spectral_limit"]
    assert report["n_settled"] == 4
    for p in report["paths"]:
        assert p["matched_eigenvalue"] == pytest.approx(limit, abs=1e-12)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree_bytes(run_dir) -> dict:
    """Every file of a run directory by its relative path."""
    return {os.path.relpath(os.path.join(d, f), run_dir):
            pathlib.Path(d, f).read_bytes()
            for d, _, names in os.walk(run_dir) for f in names}


def assert_same_bits(got, want) -> None:
    """Equal as 64-bit patterns, so -0.0 and +0.0, or nans with other payloads, differ."""
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def format_loop_bytes(columns, rows) -> bytes:
    """The CSV text by its definition: a header line, then one "%" of "%.18e"
    fields per row."""
    line = ",".join(["%.18e"] * len(columns)) + "\n"
    return (",".join(columns) + "\n"
            + "".join(line % tuple(row) for row in rows.tolist())).encode()


def export_table(run_dir, rows) -> bytes:
    """A table written as a run writes it, by `runner._write_csv`, into a run
    directory whose manifest lists it, then exported: the CSV's bytes.  The
    .npy holds the table's bits."""
    rel = os.path.join("diagnostics", "0.npy")
    os.makedirs(run_dir / "diagnostics")
    runner._write_csv([(str(run_dir / rel), rows)])
    (run_dir / "manifest.json").write_text(json.dumps({
        "outputs": [rel, "manifest.json"],
        "columns": {"diagnostics": [f"c{i}" for i in range(rows.shape[1])]},
    }))
    assert runner.export_csv(str(run_dir)) == [str(run_dir / "diagnostics" / "0.csv")]
    assert_same_bits(np.load(run_dir / rel), rows)
    return (run_dir / "diagnostics" / "0.csv").read_bytes()


def _ties() -> list:
    """Binary fractions m 2^-s whose exact decimal expansion has 20
    significant digits, the last a 5: "%.18e" must round them half to even,
    and the list holds ties it rounds down and ties it rounds up."""
    out, kept = [], set()
    for s in range(5, 29):  # m < 2^53 and m 5^s < 10^20
        lo, hi = -(-10**19 // 5**s), min(10**20 // 5**s, 2**53)
        for m in range(lo | 1, hi, max(2, (hi - lo) // 9) & ~1):  # odd m
            assert len(str(m * 5**s)) == 20 and m * 5**s % 10 == 5
            x = np.ldexp(float(m), -s)
            kept.add(("%.18e" % x)[:20] == ("%.19e" % x)[:20])
            out += [x, -x]
    assert kept == {True, False}
    return out


def _near_ties() -> list:
    """Values whose exact x 10^(18-k) lies 2^-d from a rounding tie, above
    and below, for d up to 79: m 2^-(q+d) with m 5^q = 2^(d-1) +- 1 mod 2^d."""
    out = []
    for q in range(60):  # q = 18 - k
        for d in range(30, 80):
            for side in (1, -1):
                m = (((1 << d - 1) + side) * pow(5**q, -1, 1 << d)) % (1 << d)
                lo = -(-(10**18 << d) // 5**q)  # 10^18 <= m 5^q 2^-d < 10^19
                m += -(-(lo - m) >> d) << d
                if m < min((10**19 << d) // 5**q, 2**53):
                    out.append(np.ldexp(float(m), -(q + d)))
    return out


def _edges() -> list:
    """Signed zeros, signed nan and inf, the extremes of float64, subnormals,
    and d 10^k for d = 1..10 and k in [-300, 300] with both neighbours:
    powers of ten, values just below the next leading digit and 3-digit
    exponents."""
    out = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 5e-324, -5e-324,
           np.finfo(np.float64).max, -np.finfo(np.float64).max,
           np.finfo(np.float64).tiny, np.nextafter(np.finfo(np.float64).tiny, 0)]
    for k in range(-300, 301):
        for d in range(1, 11):
            x = float(f"{d}e{k}")
            out += [x, np.nextafter(x, 0), np.nextafter(x, np.inf), -x]
    return out


def _table(values, n_cols: int) -> np.ndarray:
    """The values as rows of n_cols, the last incomplete row dropped."""
    values = np.asarray(values, dtype=np.float64)
    return values[:len(values) - len(values) % n_cols].reshape(-1, n_cols)


_EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                -2.5e-300, 1e100, 1.0 / 3.0, -7.0]


@pytest.mark.parametrize("rows", [
    np.array(_EDGE_VALUES * 3).reshape(3, -1),
    np.array([_EDGE_VALUES]),
    np.array(_EDGE_VALUES)[:, None],
    np.random.default_rng(5).standard_normal((1001, 11)) * 1e-200,
    np.random.default_rng(6).standard_normal((300, 3)),
    _table(_edges(), 1),
    _table(_edges(), 11),
    _table(_ties(), 1),
    _table(np.random.default_rng(3).integers(0, 2**64, 22_000, dtype=np.uint64)
           .view(np.float64), 11),
    np.empty((0, 2)),
    _table(_near_ties(), 11),
    _table(np.random.default_rng(4).integers(0, 2**52, 20_000, dtype=np.uint64)
           .view(np.float64), 11),
    _table(np.random.default_rng(5).integers(-10**6, 10**6, 20_000).astype(float), 11),
    _table(np.arange(10_001) * 1e-3, 1),
], ids=["edge-values", "one-row", "one-column", "tiny-exponents", "300-rows",
        "edges", "edges-11-columns", "ties", "bit-patterns", "empty",
        "near-ties", "subnormals", "integers", "time-grid"])
def test_csv_text_is_savetxt_byte_for_byte(tmp_path, rows):
    """A table written as a .npy and exported has the text of the "%.18e"
    loop, which np.savetxt is defined by, across signed zeros and nans,
    infinities, subnormals, the extremes, powers of ten with their
    neighbours, exact rounding ties and values next to them, arbitrary bit
    patterns, integers and a time grid; a table of no rows is its header."""
    columns = [f"c{i}" for i in range(rows.shape[1])]
    assert export_table(tmp_path / "run", rows) == format_loop_bytes(columns, rows)


def assert_exports_as_the_loop(rows) -> None:
    """export_table in a directory of its own, for tests that draw many tables."""
    with tempfile.TemporaryDirectory() as tmp:
        columns = [f"c{i}" for i in range(rows.shape[1])]
        assert export_table(pathlib.Path(tmp), rows) == format_loop_bytes(columns, rows)


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_bit_pattern = st.integers(0, 2**64 - 1).map(
    lambda b: np.array([b], np.uint64).view(np.float64)[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_any_float, _bit_pattern), min_size=1, max_size=60),
       st.integers(1, 5))
def test_export_matches_the_loop_on_any_float64(values, n_cols):
    assert_exports_as_the_loop(_table(values, n_cols))


def _bits(b: int) -> float:
    return np.array([b], np.uint64).view(np.float64)[0]


#: constants whose bits a value-level comparison could merge or lose: signed
#: zeros, nans of either sign and with a payload, infinities, subnormals
_SPECIAL_CONSTANTS = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), _bits(0x7FF0_0000_0000_0001),
                      _bits(0xFFF8_0000_DEAD_BEEF), np.inf, -np.inf, 5e-324, -2.5e-310]


def _column(n_rows: int, value: float) -> np.ndarray:
    """n_rows copies of value's 64-bit pattern."""
    return np.full(n_rows, np.float64(value).view(np.uint64)).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(1, 6))
def test_constant_columns_export_as_the_loop(data, n_rows, n_cols):
    """Each column is drawn free or constant, so columns of one 64-bit
    pattern, signed zeros and nan payloads among them, sit beside free ones;
    the .npy keeps their bits and the CSV is the loop's text."""
    columns = []
    for _ in range(n_cols):
        if data.draw(st.booleans(), label="constant"):
            columns.append(_column(n_rows, data.draw(st.one_of(
                st.sampled_from(_SPECIAL_CONSTANTS), _bit_pattern, _any_float), label="value")))
        else:
            columns.append(np.array(data.draw(st.lists(
                st.one_of(_any_float, _bit_pattern), min_size=n_rows, max_size=n_rows),
                label="values"), np.float64))
    assert_exports_as_the_loop(np.column_stack(columns))


def _tables_with_constant_columns() -> dict:
    free = np.random.default_rng(7).standard_normal((3000, 3))
    last_differs, middle_differs = np.zeros(3000), np.zeros(3000)
    last_differs[-1] = 1.0
    middle_differs[2500] = -0.0  # by its sign alone
    coupled_path = np.zeros((3000, 33))  # t and 6 varying states, 26 zeros
    coupled_path[:, :7] = np.random.default_rng(6).standard_normal((3000, 7))
    return {
        "all-constant": np.column_stack([_column(3000, v) for v in _SPECIAL_CONSTANTS]),
        "one-row": np.array([_SPECIAL_CONSTANTS]),
        "one-column": _column(3000, 0.0).reshape(-1, 1),
        "signed-zeros": np.column_stack([free[:, 0], _column(3000, 0.0),
                                         _column(3000, -0.0), free[:, 1]]),
        "nan-payloads": np.column_stack([_column(3000, np.nan),
                                         _column(3000, _bits(0x7FF8_0000_0000_0001)), free[:, 2]]),
        "two-patterns-per-column": np.column_stack([
            free[:, 0], np.where(free[:, 1] > 0, 0.0, -0.0),
            np.where(free[:, 2] > 0, np.nan, _bits(0x7FF8_0000_0000_0001))]),
        "constant-but-one-row": np.column_stack([free[:, :2], np.zeros((3000, 3)),
                                                 last_differs, middle_differs]),
        "coupled-path": coupled_path,
    }


@pytest.mark.parametrize("name, rows", _tables_with_constant_columns().items())
def test_tables_with_constant_columns_export_as_the_loop(tmp_path, name, rows):
    """Tables whose columns hold one bit pattern, or two that compare equal
    (+0.0 and -0.0, nans with other payloads), keep every bit in the .npy
    and export as the loop's text."""
    columns = [f"c{i}" for i in range(rows.shape[1])]
    assert export_table(tmp_path / "run", rows) == format_loop_bytes(columns, rows)


def test_each_table_is_its_blocks_array_bit_for_bit(tmp_path, monkeypatch):
    """Each diagnostics .npy holds the bits of its row of its block's table,
    and each path .npy the grid beside the block's states; each exports as
    the "%.18e" loop's text under its manifest columns."""
    made = {}
    blocks = runner._diagnostic_blocks

    def recording(*args):
        for lo, table, forms in blocks(*args):
            states = forms.paths.states
            for p, rows in enumerate(table, start=lo):
                made[os.path.join("diagnostics", f"{p}.npy")] = rows.copy()
                made[os.path.join("paths", f"{p}.npy")] = np.column_stack(
                    [forms.paths.times, states[p - lo]])
            yield lo, table, forms

    monkeypatch.setattr(runner, "_diagnostic_blocks", recording)
    monkeypatch.setattr(runner, "DIAG_BLOCK_BYTES", 1)  # a block per path
    manifest = run(load_config(minimal_config(tmp_path, paths=3, write_paths=True)))
    tables = sorted(rel for rel in manifest.outputs if rel.endswith(".npy"))
    assert tables == sorted(made)
    for rel in tables:
        assert_same_bits(np.load(os.path.join(manifest.run_dir, rel)), made[rel])
    runner.export_csv(manifest.run_dir)
    for rel in tables:
        columns = manifest.columns[os.path.dirname(rel)]
        csv = pathlib.Path(manifest.run_dir, rel).with_suffix(".csv")
        assert csv.read_bytes() == format_loop_bytes(columns, made[rel]), rel


def test_export_adds_the_csvs_and_changes_no_file_of_the_run(tmp_path, capsys):
    """`spdelab export` prints the CSVs it writes as a JSON list; every file
    the run wrote, the manifest included, keeps its bytes."""
    run_dir = run(load_config(minimal_config(tmp_path, write_paths=True))).run_dir
    before = tree_bytes(run_dir)
    assert main(["export", run_dir]) == 0
    printed = json.loads(capsys.readouterr().out)
    after = tree_bytes(run_dir)
    csvs = sorted(rel for rel in after if rel.endswith(".csv"))
    assert csvs == sorted(rel[:-len(".npy")] + ".csv" for rel in before if rel.endswith(".npy"))
    assert sorted(printed) == sorted(os.path.join(run_dir, rel) for rel in csvs)
    assert {rel: after[rel] for rel in before} == before


def test_cli_export_of_a_bad_run_directory_exits_2_naming_it(tmp_path, capsys):
    """A directory without a manifest, a table the manifest lists but the
    directory lacks, a pickled table, a file that is no .npy, an empty one,
    a table of other columns and a table outside the run's table directories
    each exit 2 with one line naming the path; no table is unpickled, and no
    CSV is written outside the run directory."""
    def fails(run_dir, named):
        assert main(["export", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and err.count("\n") == 1, err

    fails(tmp_path / "nowhere", "manifest.json")
    run_dir = pathlib.Path(run(load_config(minimal_config(tmp_path))).run_dir)
    table = run_dir / "diagnostics" / "1.npy"
    table.unlink()
    fails(run_dir, "1.npy")

    class MakesADirectoryWhenUnpickled:
        def __reduce__(self):
            return os.mkdir, (str(tmp_path / "unpickled"),)

    np.save(table, np.array([[MakesADirectoryWhenUnpickled()]]), allow_pickle=True)
    fails(run_dir, "1.npy")
    assert not os.path.exists(tmp_path / "unpickled")
    for data in (b"t,norm_h\n", b""):
        table.write_bytes(data)
        fails(run_dir, "1.npy")
    np.save(table, np.zeros((51, 3)))
    fails(run_dir, "1.npy")
    np.save(tmp_path / "outside.npy", np.zeros((51, 11)))
    manifest = json.loads((run_dir / "manifest.json").read_text())
    outside = os.path.join("diagnostics", "..", "..")
    manifest["outputs"] = [os.path.join(outside, "outside.npy")]
    manifest["columns"][outside] = manifest["columns"]["diagnostics"]
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    fails(run_dir, "outside.npy")
    assert not os.path.exists(tmp_path / "outside.csv")


def test_rerun_into_another_directory_is_byte_identical(tmp_path, monkeypatch):
    """Every file of a run, the manifest included, repeats byte for byte."""
    path = minimal_config(tmp_path, output_dir=None, write_paths=True, r_list=[0.5],
                          N_list=[1, 2])
    dirs = []
    for root in ("first", "second"):
        monkeypatch.setenv("SPDELAB_OUTPUT_ROOT", str(tmp_path / root))
        dirs.append(run(load_config(path)).run_dir)
    assert dirs[0] != dirs[1]
    first, second = (tree_bytes(d) for d in dirs)
    assert len(first) == 2 * 2 + 2  # per path: diagnostics and raw states
    assert first == second


def test_rerun_is_byte_identical(tmp_path):
    cfg1 = load_config(minimal_config(tmp_path, output_dir=str(tmp_path / "a")))
    cfg2 = load_config(minimal_config(tmp_path, output_dir=str(tmp_path / "b")))
    run(cfg1)
    run(cfg2)
    for rel in ("diagnostics/0.npy", "diagnostics/1.npy", "report.json"):
        a = open(os.path.join(str(tmp_path / "a"), rel), "rb").read()
        b = open(os.path.join(str(tmp_path / "b"), rel), "rb").read()
        assert a == b, rel


def test_diagnostics_never_consume_randomness(tmp_path):
    """Adding eps values or diagnostics must not change trajectories."""
    cfg1 = load_config(minimal_config(tmp_path, output_dir=str(tmp_path / "a"),
                                      write_paths=True))
    cfg2 = load_config(minimal_config(tmp_path, output_dir=str(tmp_path / "b"),
                                      write_paths=True,
                                      eps_list=[1e-8], r_list=[0.5],
                                      N_list=[1, 2]))
    run(cfg1)
    run(cfg2)
    a = open(os.path.join(str(tmp_path / "a"), "paths/0.npy"), "rb").read()
    b = open(os.path.join(str(tmp_path / "b"), "paths/0.npy"), "rb").read()
    assert a == b


def test_a_master_seed_of_2_63_or_more_keys_its_own_streams(tmp_path):
    """A master_seed at or above 2**63 is a valid config; each path draws its own stream,
    and the neighbouring seed draws other ones (both seeds once keyed Philox as 2**63)."""
    runs = []
    for seed in (2**63, 2**63 + 1):
        out = tmp_path / str(seed)
        manifest = run(load_config(minimal_config(tmp_path, master_seed=seed, paths=3,
                                                  write_paths=True, output_dir=str(out))))
        assert manifest.streams == [[seed, p] for p in range(3)]
        runs.append([(out / "paths" / f"{p}.npy").read_bytes() for p in range(3)])
    for paths in runs:
        assert len(set(paths)) == 3
    assert not set(runs[0]) & set(runs[1])


def test_report_summary(tmp_path):
    cfg = load_config(minimal_config(tmp_path))
    manifest = run(cfg)
    summary = report_summary(manifest.run_dir)
    assert summary["paths"] == 2
    assert "martingale_mean" in summary
    with pytest.raises(FileNotFoundError):
        report_summary(str(tmp_path / "missing"))


def test_backward_probe_kind(tmp_path):
    """The report holds the probe's four entries as it computed them from the
    run's norm_h column, and the hitting times."""
    cfg = load_config(minimal_config(tmp_path, kind="backward-probe",
                                     r_list=[1e-6]))
    manifest = run(cfg)
    with open(os.path.join(manifest.run_dir, "report.json")) as fh:
        report = json.load(fh)
    assert report["backward_probe"]["all_positive"]
    assert "hitting_times" in report
    norms = np.stack([np.load(os.path.join(manifest.run_dir, "diagnostics", f"{p}.npy"))[:, 1]
                      for p in range(cfg.paths)])
    probe = diag.backward_probe(norms)
    assert set(probe) == {"margin", "all_positive", "n_underflow", "min_norm_per_path"}
    assert probe == report["backward_probe"]


# -- CLI --------------------------------------------------------------


def test_cli_list_systems(capsys):
    assert main(["list-systems"]) == 0
    out = capsys.readouterr().out
    assert "diagonal" in out and "nse-2d" in out


def test_cli_gradcheck(capsys):
    assert main(["gradcheck", "--trials", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"]


def test_cli_simulate_and_report(tmp_path, capsys):
    path = minimal_config(tmp_path)
    assert main(["simulate", "--config", path]) == 0
    out_dir = json.loads(capsys.readouterr().out)["run_dir"]
    assert main(["report", out_dir]) == 0


def test_cli_check(tmp_path, capsys):
    path = minimal_config(tmp_path)
    assert main(["check", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ac2"]["status"] == "certified"


def test_cli_check_of_a_generator_with_no_symmetric_part(tmp_path, capsys):
    """sym(Ã) = 0: ac7 has no sample with a nonzero form, nor with a nonzero
    mixed form, so its C1 is 0, with no note, and the check exits 0."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"system": {"name": "diagonal", "tilde_eigs": [0, 0, 0],
                                           "noise_coeffs": [[0, 0, 0]]}, "T": 1, "dt": 0.1}))
    assert main(["check", "--config", str(path)]) == 0
    ac7 = json.loads(capsys.readouterr().out)["ac7"]
    assert (ac7["status"], ac7["notes"], ac7["C1k"]) == ("empirical", "", [[0.0]])


def test_cli_check_reads_each_run_of_the_family(tmp_path, capsys):
    """A check on the config's grid evaluates the 11-node coupled family once
    per node interval, at its first time: every table has one entry per run."""
    tables, times = coupled_tables()
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps({
        "system": {"name": "coupled-torus", "modes": 8, "h_tables": tables.tolist(),
                   "h_time_grid": times.tolist()},
        "T": 1, "dt": 0.01}))
    assert main(["check", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(report["t_grid"], times, rtol=0, atol=1e-12)
    assert len(report["ac4"]["K1"]) == len(report["k6"]) == len(times)
    assert np.shape(report["ac7"]["C1k"]) == (2, len(times))
    assert all(report[f"ac{i}"]["status"] != "failed" for i in range(8))


def test_cli_convergence(tmp_path, capsys):
    path = minimal_config(tmp_path, paths=8, dt=0.005, scheme="euler-maruyama")
    assert main(["convergence", "--scheme", "euler-maruyama",
                 "--config", path, "--levels", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.2 < payload["slope"] < 1.6


def test_cli_convergence_starts_from_config_u0(tmp_path, capsys):
    """The diagonal system is linear, so doubling u0 doubles every error."""
    errors = []
    for u0 in ([1.0, 1.0], [2.0, 2.0]):
        path = minimal_config(tmp_path, paths=4, dt=0.05, scheme="euler-maruyama", u0=u0)
        assert main(["convergence", "--scheme", "euler-maruyama",
                     "--config", path, "--levels", "2"]) == 0
        errors.append(json.loads(capsys.readouterr().out)["mean_errors"])
    np.testing.assert_allclose(errors[1], 2.0 * np.array(errors[0]), rtol=1e-12)


@pytest.mark.parametrize("levels", ["-1", "0", "1"])
def test_cli_convergence_needs_two_levels(tmp_path, capsys, levels):
    path = minimal_config(tmp_path)
    assert main(["convergence", "--scheme", "euler-maruyama", "--config", path,
                 "--levels", levels]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --levels") and "Traceback" not in err


def test_cli_convergence_blow_up_exits_1(tmp_path, capsys):
    """Euler-Maruyama at dt=1 on the diagonal system blows up near t=342."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"system": {"name": "diagonal"}, "T": 400, "dt": 1}))
    assert main(["convergence", "--scheme", "euler-maruyama", "--config", str(path),
                 "--levels", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trajectory blew up at t=")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_run_rejects_a_config_of_another_kind(tmp_path, capsys):
    path = minimal_config(tmp_path, kind="backward-probe")
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: config key 'kind'")
    assert not os.path.exists(tmp_path / "out")


def test_cli_run_that_fails_to_integrate_leaves_no_directory(tmp_path, capsys):
    """The default coupled-torus noise does not commute, so Milstein fails
    inside the integration, before the run directory is made."""
    path = minimal_config(tmp_path, system={"name": "coupled-torus", "modes": 3},
                          scheme="milstein")
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: milstein requires")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("kind", ["spectral-limit"])
def test_cli_rejects_r_list_for_a_kind_without_hitting_times(tmp_path, capsys, kind):
    """Only simulate and backward-probe report hitting times, so any other kind
    with r_list levels exits 2 naming the key and the kind."""
    path = minimal_config(tmp_path, kind=kind, r_list=[0.5])
    assert main([kind, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'r_list'") and repr(kind) in err
    assert not os.path.exists(tmp_path / "out")


def test_every_run_kind_is_a_command_and_check_is_none(tmp_path, capsys):
    """Each of runner.KINDS is a CLI command that runs its kind; `check` is
    the certificates' command, so a config of kind "check" exits 2."""
    for kind in runner.KINDS:
        path = minimal_config(tmp_path, output_dir=str(tmp_path / kind))
        assert main([kind, "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == kind
    with pytest.raises(ConfigError, match="config key 'kind'"):
        load_config(minimal_config(tmp_path, kind="check"))
    assert main(["check", "--config", minimal_config(tmp_path, kind="check")]) == 2
    assert capsys.readouterr().err.startswith("error: config key 'kind'")


def test_cli_reports_a_failed_eigen_solver_in_one_line(tmp_path, capsys, monkeypatch):
    """numpy's LinAlgError is a ValueError, so a spectrum that does not
    converge exits 2 with one error line, not a traceback."""
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["simulate", "--config", minimal_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_run_gives_its_kind_to_a_config_without_one(tmp_path, capsys):
    path = minimal_config(tmp_path, r_list=[1e-6])
    assert main(["backward-probe", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "backward-probe"
    with open(tmp_path / "out" / "report.json") as fh:
        report = json.load(fh)
    assert report["kind"] == "backward-probe" and "spectral_limit" not in report


@pytest.mark.parametrize("blocker, code, named", [
    ("out", 2, "'output_dir'"),
    (os.path.join("out", "diagnostics", "0.npy"), 1, "0.npy"),
    (os.path.join("out", "diagnostics", "1.npy"), 1, "1.npy"),
    ("root", 2, "SPDELAB_OUTPUT_ROOT"),
    (os.path.join("out", "diagnostics", "0.csv"), 1, "0.csv"),
])
def test_cli_unwritable_output_exits_with_one_line(tmp_path, capsys, monkeypatch,
                                                   blocker, code, named):
    """A run directory that is a file is a config error naming where the
    directory came from; a table path that is a directory fails the write, of
    the first table (0.npy) or of a later one (1.npy), and so does a CSV path
    that is a directory fail the export of a finished run (0.csv).  None
    leaves a child process or a thread behind."""
    if blocker == "root":
        path = minimal_config(tmp_path, output_dir=None)
        monkeypatch.setenv("SPDELAB_OUTPUT_ROOT", str(tmp_path / blocker))
    else:
        path = minimal_config(tmp_path)
    argv = ["simulate", "--config", path]
    if blocker.endswith(".csv"):
        assert main(argv) == 0
        capsys.readouterr()
        argv = ["export", str(tmp_path / "out")]
    if code == 2:
        (tmp_path / blocker).write_text("")
    else:
        os.makedirs(tmp_path / blocker)
    threads = threading.active_count()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert_no_child_process()
    assert threading.active_count() == threads


NUMPY_ONLY = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
    import numpy as np
    import spdelab, spdelab.cli, spdelab.runner as runner
    from spdelab.assumptions import check_all

    system = runner.make_system("diagonal")
    report = check_all(system.ops, system.basis, np.linspace(0.0, 1.0, 5))
    assert report.records["ac7"].status == "certified"
    cfg = runner.ExperimentConfig(system={"name": "diagonal"}, T=0.05, dt=1e-2,
                                  paths=2, output_dir=sys.argv[1])
    runner.run(cfg)
""")


def test_spdelab_runs_without_scipy(tmp_path):
    """The package, its CLI, the certificates and a run need numpy alone."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(os.listdir(tmp_path / "out" / "diagnostics")) == 2


NO_MASKED_ARRAYS = textwrap.dedent("""
    import contextlib, io, json, sys
    from spdelab.cli import main

    h = [[[[0.3 + 0.1 * t, 0.2 * t], [0.0, 0.3]], [[0.3, 0.0], [0.1 * t, 0.3]]]
         for t in (0.0, 0.5, 1.0)]
    cfg = {"system": {"name": "coupled-torus", "modes": 4, "h_tables": h,
                      "h_time_grid": [0.0, 0.5, 1.0]},
           "T": 0.1, "dt": 0.01, "paths": 2, "write_paths": True,
           "N_list": [2, 4], "output_dir": sys.argv[1] + "/out"}
    path = sys.argv[1] + "/config.json"
    with open(path, "w") as f:
        json.dump(cfg, f)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", path]) == 0
        assert main(["check", "--config", path]) == 0
    print("numpy.ma" in sys.modules)
""")


def test_runs_and_checks_leave_numpy_ma_unloaded(tmp_path):
    """numpy.ma costs ~10 ms of import: a coupled-torus simulate with
    time-dependent noise tables (the family's nodes) and a check (ac6's beta
    grid) never load it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
    assert len(os.listdir(tmp_path / "out" / "paths")) == 2


def test_cli_bad_config_returns_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


#: every command, its help line and the arguments `spdelab COMMAND -h` shows
COMMAND_HELP = {
    "list-systems": ("print the system registry", []),
    "check": ("assumption certificates for a system", ["--config"]),
    "simulate": ("run a simulate experiment", ["--config"]),
    "spectral-limit": ("run a spectral-limit experiment", ["--config"]),
    "backward-probe": ("run a backward-probe experiment", ["--config"]),
    "convergence": ("strong-order study of a scheme", ["--scheme", "--config", "--levels"]),
    "gradcheck": ("finite-difference derivative check", ["--trials", "--seed"]),
    "report": ("summarize a finished run directory", ["run_dir"]),
    "export": ("write a run directory's tables as CSVs", ["run_dir"]),
}


def count_parsers(monkeypatch) -> list:
    """The prog of every ArgumentParser built from now on, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_cli_builds_only_the_parser_of_the_command_it_runs(tmp_path, capsys, monkeypatch):
    """A valid command line builds one argparse parser, its command's own,
    however many commands there are."""
    path = minimal_config(tmp_path, write_paths=True)
    run_dir = str(tmp_path / "out")
    built = count_parsers(monkeypatch)
    for argv in (["list-systems"], ["gradcheck", "--trials", "5"],
                 ["simulate", "--config", path], ["report", run_dir], ["export", run_dir],
                 ["check", "--config", path],
                 ["convergence", "--scheme", "euler-maruyama", "--config", path,
                  "--levels", "2"]):
        built.clear()
        assert main(argv) == 0, argv
        assert built == [f"spdelab {argv[0]}"], argv
    capsys.readouterr()


def test_cli_help_lists_every_command_and_a_bad_one_exits_2(capsys, monkeypatch):
    """`spdelab -h` names each command with its help line, building one
    parser; `spdelab COMMAND -h` shows the command's arguments; no command
    and an unknown one are usage errors, exit 2."""
    built = count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as done:
        main(["-h"])
    assert done.value.code == 0 and len(built) == 1
    lines = capsys.readouterr().out.splitlines()
    for name, (help_line, _) in COMMAND_HELP.items():
        assert any(line.split() == [name, *help_line.split()] for line in lines), name
    for name, (_, arguments) in COMMAND_HELP.items():
        with pytest.raises(SystemExit) as done:
            main([name, "-h"])
        out = capsys.readouterr().out
        assert done.value.code == 0 and out.startswith(f"usage: spdelab {name} [-h]"), name
        assert all(a in out for a in arguments), name
    for argv, named in (([], "COMMAND"), (["bogus"], "'bogus'"), (["-x"], "COMMAND")):
        with pytest.raises(SystemExit) as done:
            main(argv)
        err = capsys.readouterr().err
        assert done.value.code == 2 and "error:" in err and named in err, argv


@pytest.mark.parametrize("command", ["simulate", "check", "convergence"])
@pytest.mark.parametrize("what", ["a directory", "not UTF-8"])
def test_cli_unreadable_config_exits_2_naming_it(tmp_path, capsys, command, what):
    """A config path that cannot be read as text is bad input: one line
    that starts `error: config` and names the path, on every command."""
    path = tmp_path / "config.json"
    if what == "a directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"system": {"name": "diagonal"}, "T": 1, "dt": 0.1, "x": "\xff"}')
    argv = [command, "--config", str(path)]
    if command == "convergence":
        argv += ["--scheme", "euler-maruyama"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config") and str(path) in err, err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("eps_list", [0.0]), ("delta", 0.0)])
def test_zero_regulariser_on_a_vanishing_path_exits_2_before_the_run_directory(
        tmp_path, capsys, key, value):
    """The default diagonal paths fall below NORM_FLOOR in T = 400, where a
    zero eps or delta leaves the weak-noise ratios nothing to divide by: exit
    2 naming the key, the first such path and its first time there, as the
    same run with the default regularisers records them, and make no
    directory.  A zero value on paths that stay away from zero runs."""
    out = tmp_path / "out"
    vanishing = dict(system={"name": "diagonal"}, T=400, dt=0.1, paths=3)
    run(load_config(minimal_config(tmp_path, **vanishing)))
    tables = [np.load(out / "diagnostics" / f"{p}.npy") for p in range(3)]
    shutil.rmtree(out)
    low = [p for p, t in enumerate(tables) if (t[:, 1] <= diag.NORM_FLOOR).any()]
    first = tables[low[0]]
    t = first[np.argmax(first[:, 1] <= diag.NORM_FLOOR), 0]
    assert main(["simulate", "--config", minimal_config(tmp_path, **vanishing,
                                                        **{key: value})]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} is zero"), err
    assert f"path {low[0]} vanishes at t={t:g} " in err and err.count("\n") == 1, err
    assert not out.exists()
    assert main(["simulate", "--config", minimal_config(tmp_path, **{key: value})]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("name, body", [
    ("top-level list", [{"system": {"name": "diagonal"}, "T": 0.5, "dt": 0.01}]),
    ("string paths", {"system": {"name": "diagonal"}, "T": 0.5, "dt": 0.01, "paths": "4"}),
    ("unknown system param",
     {"system": {"name": "diagonal", "bogus": 1}, "T": 0.5, "dt": 0.01}),
    ("wrongly typed system param",
     {"system": {"name": "nse-2d", "modes_per_dim": "4"}, "T": 0.5, "dt": 0.01}),
    ("u0 of wrong length",
     {"system": {"name": "diagonal"}, "T": 0.5, "dt": 0.01, "u0": [1.0, 2.0]}),
    ("negative delta", {"system": {"name": "diagonal"}, "T": 0.5, "dt": 0.01, "delta": -0.5}),
    ("zero delta, zero start", {"system": {"name": "diagonal"}, "T": 0.5, "dt": 0.01,
                                "delta": 0.0, "u0": [0.0, 0.0, 0.0]}),
    ("zero eps, zero start", {"system": {"name": "diagonal"}, "T": 0.5, "dt": 0.01,
                              "eps_list": [0.0], "u0": [0.0, 0.0, 0.0]}),
    ("zero scalar-noise dim", {"system": {"name": "torus-heat-scalar", "dim": 0},
                               "T": 0.5, "dt": 0.01}),
    ("zero gradient-noise dim", {"system": {"name": "torus-heat-gradient", "dim": 0},
                                 "T": 0.5, "dt": 0.01}),
    ("system table with u0", {"system": {"name": "diagonal", "u0": [1.0, 1.0, 1.0]},
                              "T": 0.5, "dt": 0.01}),
    ("empty eps_list", {"system": {"name": "diagonal"}, "T": 0.5, "dt": 0.01,
                        "eps_list": []}),
])
@pytest.mark.parametrize("command", ["simulate", "check", "convergence"])
def test_cli_malformed_config_exits_2(tmp_path, capsys, name, body, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    argv = [command, "--config", str(path)]
    if command == "convergence":
        argv += ["--scheme", "euler-maruyama"]
    assert main(argv) == 2, name
    err = capsys.readouterr().err
    assert err.startswith("error: config") and "Traceback" not in err
    assert err.count("\n") == 1
    # the key each start case names: the start has one home, the top-level u0
    key = {"zero delta, zero start": "'delta'", "zero eps, zero start": "'eps_list'",
           "system table with u0": "'system'"}.get(name)
    if key is not None:
        assert err.startswith(f"error: config key {key}") and "u0" in err


IMPORT_COST = textwrap.dedent("""
    import json, sys
    import numpy as np
    import spdelab.runner

    print(json.dumps({
        "modules": [m for m in ("fractions", "decimal", "subprocess", "numpy.ma")
                    if m in sys.modules],
        "arrays": {f"{name}.{attr}": value.nbytes
                   for name, module in sorted(sys.modules.items())
                   if name.startswith("spdelab")
                   for attr, value in vars(module).items()
                   if isinstance(value, np.ndarray)},
    }))
""")


def test_importing_the_runner_stays_cheap():
    """A fresh import of the runner loads no fractions, decimal, subprocess or
    numpy.ma module, and no spdelab module holds a module-level array over 4 KB."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    done = subprocess.run([sys.executable, "-c", IMPORT_COST],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["modules"] == []
    assert all(n <= 4096 for n in found["arrays"].values()), found
