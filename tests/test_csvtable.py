"""The vectorised "%.18e" kernel of csvtable against the per-value loop it
replaced, byte for byte."""
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc

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


def test_an_empty_table_is_its_header(tmp_path):
    path = tmp_path / "empty.csv"
    csvtable.write_table(str(path), "a,b", np.empty((0, 2)))
    assert path.read_bytes() == b"a,b\n"


def test_a_table_is_formatted_in_memory_set_by_the_block(tmp_path):
    """write_table's peak allocation is set by BLOCK_VALUES, not by the
    table's length: ten times the rows peak within 10% of the same, and
    below 64 float64s per value of a block."""
    rows = np.random.default_rng(6).standard_normal((100_000, 11))
    csvtable.write_table(str(tmp_path / "warm.csv"), "h", rows[:2])  # tables built
    peaks = []
    for n_rows in (10_000, 100_000):
        tracemalloc.start()
        try:
            csvtable.write_table(str(tmp_path / f"{n_rows}.csv"), "h", rows[:n_rows])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
    assert max(peaks) < 64 * 8 * csvtable.BLOCK_VALUES, peaks


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
