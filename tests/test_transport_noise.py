"""Closed-form checks of constant transport noise, the gradient-noise application.

On torus-heat-gradient with constant sigma, B = sigma d/dx is skew and commutes
with A = -d^2/dx^2, so the Stratonovich solution is
u(t) = exp(-A t - sigma w(t) d/dx) u0: each (cos mx, sin mx) pair decays by
e^{-m^2 t} and rotates by the angle m sigma w(t).  Hence <u, B u> = 0, the
martingale M is exactly one, |u(t)| is deterministic, and the quotient settles
on the lowest active m^2 at Ghidaglia's rate e^{-2(lambda' - lambda) t}.  Each
check reads the tables and report of runner.run.
"""
import json
import os

import numpy as np
import pytest

from spdelab.runner import DIAG_COLUMNS, ExperimentConfig, run

SCHEMES = ("milstein", "euler-maruyama", "drift-implicit")

#: a start on the shells m = 1 and 2 (basis indices 1-4): |u(t)|^2 = 2 e^{-2t} + 2 e^{-8t}
SHELLS_1_2 = [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def exact_norm(t: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * np.exp(-2.0 * t) + 2.0 * np.exp(-8.0 * t))


def transport_run(tmp_path, scheme: str, dt: float, T: float, u0=None):
    """The diagnostics tables (8, J+1, columns) and the report of an 8-path run."""
    cfg = ExperimentConfig(system={"name": "torus-heat-gradient", "dim": 9,
                                   "sigma_fields": [0.5]},
                           T=T, dt=dt, scheme=scheme, paths=8, u0=u0,
                           output_dir=str(tmp_path / f"{scheme}-{dt}-{T}"))
    root = run(cfg).run_dir
    tables = np.stack([np.load(os.path.join(root, "diagnostics", f"{p}.npy"))
                       for p in range(cfg.paths)])
    with open(os.path.join(root, "report.json")) as fh:
        return tables, json.load(fh)


def column(tables: np.ndarray, name: str) -> np.ndarray:
    return tables[..., DIAG_COLUMNS.index(name)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_martingale_of_skew_noise_is_one(tmp_path, scheme):
    tables, _ = transport_run(tmp_path, scheme, 1e-3, 1.0)
    assert np.max(np.abs(column(tables, "M") - 1.0)) <= 1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_quotient_settles_on_1_at_ghidaglias_rate(tmp_path, scheme):
    """Lambda(t) - 1 = 3 e^{-6t} / (1 + e^{-6t}) up to eps, so log|Lambda - 1|
    falls at slope -2(4 - 1) = -6; at T = 3, |u|^2 is still far above eps,
    which a start on shell 2 alone at T = 4 is not."""
    tables, report = transport_run(tmp_path, scheme, 1e-3, 3.0, SHELLS_1_2)
    assert np.min(column(tables, "norm_h")) ** 2 > 1e5 * 1e-8
    section = report["spectral_limit"]
    assert section["n_settled"] == 8
    [(key, count)] = section["histogram"].items()
    assert float(key) == pytest.approx(1.0, abs=1e-12) and count == 8
    t = column(tables, "t")[0]
    window = (t >= 0.5) & (t <= 2.0)
    excess = np.abs(np.mean(column(tables, "quotient"), axis=0) - 1.0)
    slope = np.polyfit(t[window], np.log(excess[window]), 1)[0]
    assert slope == pytest.approx(-6.0, abs=0.1)


@pytest.mark.parametrize("scheme, order", [("milstein", 1.0), ("euler-maruyama", 0.5),
                                           ("drift-implicit", 0.5)])
def test_the_norm_is_deterministic_up_to_the_schemes_order(tmp_path, scheme, order):
    """|u(t)| matches the exact norm within 0.5 dt**order, and its largest
    relative spread across the paths, zero for the exact solution, shrinks at
    least at the scheme's strong order as dt halves three times."""
    dts = [1e-3 * 2.0**-k for k in range(4)]
    spreads = []
    for dt in dts:
        tables, _ = transport_run(tmp_path, scheme, dt, 1.0, SHELLS_1_2)
        norms = column(tables, "norm_h")
        exact = exact_norm(column(tables, "t")[0])
        assert np.max(np.abs(norms / exact - 1.0)) <= 0.5 * dt**order
        spreads.append(np.max(np.ptp(norms, axis=0) / np.mean(norms, axis=0)))
    assert np.polyfit(np.log(dts), np.log(spreads), 1)[0] >= 0.8 * order
