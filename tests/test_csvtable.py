"""The vectorised "%.18e" kernel of csvtable against the per-value loop it
replaced, byte for byte."""
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdelab import csvtable


def reference_bytes(values: np.ndarray, n_cols: int) -> bytes:
    """The loop the kernel replaced: one "%" per row of "%.18e" fields."""
    line = ",".join(["%.18e"] * n_cols) + "\n"
    return "".join(line % tuple(row) for row in values.reshape(-1, n_cols).tolist()).encode()


def kernel_bytes(values: np.ndarray, n_cols: int) -> bytes:
    """The rows csvtable.write_table writes under its header line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        csvtable.write_table(path, "h", values.reshape(-1, n_cols))
        with open(path, "rb") as fh:
            assert fh.readline() == b"h\n"
            return fh.read()


def assert_kernel_matches(values, n_cols: int = 1) -> None:
    values = np.asarray(values, dtype=np.float64)
    values = values[:len(values) - len(values) % n_cols]
    got, want = kernel_bytes(values, n_cols), reference_bytes(values, n_cols)
    if got != want:
        for g, w, v in zip(got.splitlines(), want.splitlines(), values.reshape(-1, n_cols)):
            assert g == w, f"row {v.tolist()!r}"
    assert got == want


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


@pytest.mark.parametrize("name, values", [
    ("edges", _edges()),
    ("ties", _ties()),
    ("near-ties", _near_ties()),
    ("bit-patterns", np.random.default_rng(3).integers(0, 2**64, 200_000, dtype=np.uint64)
     .view(np.float64)),
    ("subnormals", np.random.default_rng(4).integers(0, 2**52, 20_000, dtype=np.uint64)
     .view(np.float64)),
    ("integers", np.random.default_rng(5).integers(-10**6, 10**6, 20_000).astype(float)),
    ("time-grid", np.arange(10_001) * 1e-3),
])
def test_kernel_matches_the_loop_on_fixed_values(name, values):
    assert_kernel_matches(values, n_cols=1)
    assert_kernel_matches(values, n_cols=11)


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_bit_pattern = st.integers(0, 2**64 - 1).map(
    lambda b: np.array([b], np.uint64).view(np.float64)[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_any_float, _bit_pattern), min_size=1, max_size=60),
       st.integers(1, 5))
def test_kernel_matches_the_loop_on_any_float64(values, n_cols):
    assert_kernel_matches(values, n_cols)


# -- a column that holds one 64-bit pattern is formatted once --------------

def _bits(b: int) -> float:
    return np.array([b], np.uint64).view(np.float64)[0]


#: constants whose bits a value-level comparison could merge or lose: signed
#: zeros, nans of either sign and with a payload, infinities, subnormals
_SPECIAL_CONSTANTS = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), _bits(0x7FF0_0000_0000_0001),
                      _bits(0xFFF8_0000_DEAD_BEEF), np.inf, -np.inf, 5e-324, -2.5e-310]


def _column(n_rows: int, value: float) -> np.ndarray:
    """n_rows copies of value's 64-bit pattern."""
    return np.full(n_rows, np.float64(value).view(np.uint64)).view(np.float64)


def _coupled_path_rows(n_rows: int) -> np.ndarray:
    """The shape of a coupled-torus path table: t and 6 varying states, 26 zeros."""
    rows = np.zeros((n_rows, 33))
    rows[:, :7] = np.random.default_rng(6).standard_normal((n_rows, 7))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(1, 6), st.integers(1, 64))
def test_constant_columns_match_the_loop(data, n_rows, n_cols, block):
    """Each column is drawn free or constant, in blocks small enough that a
    table spans several, so constant columns sit beside free ones in every
    block and a free column may equal its first row in some blocks."""
    columns = []
    for _ in range(n_cols):
        if data.draw(st.booleans(), label="constant"):
            columns.append(_column(n_rows, data.draw(st.one_of(
                st.sampled_from(_SPECIAL_CONSTANTS), _bit_pattern, _any_float), label="value")))
        else:
            columns.append(np.array(data.draw(st.lists(
                st.one_of(_any_float, _bit_pattern), min_size=n_rows, max_size=n_rows),
                label="values"), np.float64))
    with mock.patch.object(csvtable, "BLOCK_VALUES", block):
        assert_kernel_matches(np.column_stack(columns).ravel(), n_cols)


def _tables_with_constant_columns() -> dict:
    free = np.random.default_rng(7).standard_normal((3000, 3))
    last_differs, middle_differs = np.zeros(3000), np.zeros(3000)
    last_differs[-1] = 1.0
    middle_differs[2500] = -0.0  # in a later block, and by its sign alone
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
        "coupled-path": _coupled_path_rows(3000),
    }


@pytest.mark.parametrize("name, rows", _tables_with_constant_columns().items())
def test_tables_with_constant_columns_match_the_loop(name, rows):
    assert_kernel_matches(rows.ravel(), rows.shape[1])


def test_a_constant_column_is_formatted_once(tmp_path):
    """The kernel formats the first row and the varying columns, nothing of
    the constant ones after the first row; an all-constant table its first
    row and first column, so no call is empty; a table without a constant
    column every value, as before."""
    tables = _tables_with_constant_columns()
    formatted = []

    def counting(values, seps):
        assert len(values), "the kernel is never called on no values"
        formatted.append(len(values))
        return slots(values, seps)

    slots = csvtable._slots
    for name, rows, want in [
            ("coupled-path", tables["coupled-path"], 33 + 3000 * 7),
            ("all-constant", tables["all-constant"], len(_SPECIAL_CONSTANTS) + 3000),
            ("constant-but-one-row", tables["constant-but-one-row"], 7 + 3000 * 4),
            ("free", tables["coupled-path"][:, :7], 3000 * 7)]:
        formatted.clear()
        with mock.patch.object(csvtable, "_slots", counting):
            csvtable.write_table(str(tmp_path / f"{name}.csv"), "h", rows)
        assert sum(formatted) == want, (name, formatted)


def test_an_empty_table_is_its_header(tmp_path):
    path = tmp_path / "empty.csv"
    csvtable.write_table(str(path), "a,b", np.empty((0, 2)))
    assert path.read_bytes() == b"a,b\n"


def test_a_table_is_formatted_in_memory_set_by_the_block(tmp_path):
    """write_table's peak allocation is set by BLOCK_VALUES, not by the
    table's length: ten times the rows peak within 10% of the same, and
    below 64 float64s per value of a block, with or without constant
    columns."""
    for rows in (np.random.default_rng(6).standard_normal((100_000, 11)),
                 _coupled_path_rows(100_000)):
        csvtable.write_table(str(tmp_path / "warm.csv"), "h", rows[:2])  # tables built
        peaks = []
        for n_rows in (10_000, 100_000):
            tracemalloc.start()
            try:
                csvtable.write_table(str(tmp_path / f"{n_rows}.csv"), "h", rows[:n_rows])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], (rows.shape, peaks)
        assert max(peaks) < 64 * 8 * csvtable.BLOCK_VALUES, (rows.shape, peaks)


IMPORT_COST = textwrap.dedent("""
    import json, sys
    import numpy as np
    import spdelab.runner
    from spdelab import csvtable

    print(json.dumps({
        "modules": [m for m in ("fractions", "decimal", "subprocess", "numpy.ma")
                    if m in sys.modules],
        "arrays": [value.nbytes for value in vars(csvtable).values()
                   if isinstance(value, np.ndarray)],
        "tables": [table.nbytes for table in csvtable._tables()[:4]],
    }))
""")


def test_importing_the_runner_stays_cheap():
    """A run that writes no CSV pays nothing for the kernel at import: no
    fractions, decimal or subprocess module, and no module-level array over
    4 KB; the kernel's tables, built on first use, are each at most 4 KB.
    Nor does importing the runner load numpy.ma."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(csvtable.__file__)))
    done = subprocess.run([sys.executable, "-c", IMPORT_COST],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["modules"] == []
    assert all(n <= 4096 for n in found["arrays"] + found["tables"]), found
