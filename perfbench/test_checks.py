"""Each benchmark check passes the program's real output and rejects a
corrupted copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from stochtame import cli, experiments  # noqa: E402
from stochtame.control import ControlEvent  # noqa: E402
from stochtame.integrators import StepperConfig, integrate_path  # noqa: E402
from stochtame.models import DriftOperator  # noqa: E402
from stochtame.noise import NoiseSpec, WienerPath  # noqa: E402
from stochtame.spectral import (  # noqa: E402
    GalerkinProjector,
    SpectralField,
    TorusGrid,
    galerkin_project,
    random_field,
)

LADDER = workloads.LADDER
CUTOFF = 8
T = 0.05


@pytest.fixture(scope="module")
def burgers_path():
    grid = TorusGrid(1, 64)
    x0 = SpectralField.from_physical(grid, np.sin(grid.coordinates()[0]))
    noise = NoiseSpec(theta=0.5, alpha=1.0, norm_space="F0", case_label="I")
    st = StepperConfig(dt=1e-3, t_end=T)
    drift = DriftOperator("Burgers1D")
    rec = integrate_path(x0, drift, noise, st, WienerPath(3, st.dt), cutoff=CUTOFF, seed=3)
    return rec, drift


def _fails(rec):
    return checks.check_field_path(rec, CUTOFF, LADDER, T)


def test_field_path_passes(burgers_path):
    assert _fails(burgers_path[0]) == []


def _corrupted(rec, edit):
    bad = copy.deepcopy(rec)
    edit(bad)
    return _fails(bad)


def test_coefficient_beyond_cutoff_rejected(burgers_path):
    def edit(r):
        r.final_state.coeffs[0, CUTOFF + 1] = 1e-3
        r.final_state.coeffs[0, -(CUTOFF + 1)] = 1e-3

    assert any("beyond the cutoff" in m for m in _corrupted(burgers_path[0], edit))


def test_non_hermitian_state_rejected(burgers_path):
    def edit(r):
        r.final_state.coeffs[0, 1] += 1e-3j

    assert any("Hermitian" in m for m in _corrupted(burgers_path[0], edit))


def test_wrong_last_norm_rejected(burgers_path):
    def edit(r):
        r.norm_F1[-1] *= 1.0 + 1e-6

    assert any("last-row norm F1" in m for m in _corrupted(burgers_path[0], edit))


def test_ladder_order_and_interpolation_rejected(burgers_path):
    def order(r):
        r.norm_G[2] = 2.0 * r.norm_F0[2]

    def interp(r):
        r.norm_F0[2] = 0.99 * r.norm_F1[2]

    assert any("G <= F0" in m for m in _corrupted(burgers_path[0], order))
    assert any("F1^m" in m for m in _corrupted(burgers_path[0], interp))


def test_monotone_columns_and_horizon_rejected(burgers_path):
    def qv(r):
        r.QV[-1] = r.QV[-2] - 1.0

    def horizon(r):
        r.times = r.times * 0.5

    assert any("QV decreases" in m for m in _corrupted(burgers_path[0], qv))
    assert any("times end" in m for m in _corrupted(burgers_path[0], horizon))


def test_blowup_status_rejected(burgers_path):
    def edit(r):
        r.status = "blowup"

    assert _corrupted(burgers_path[0], edit)


def test_convolution_drift_matches_closed_form():
    # u = sin x: -u u_x = -sin x cos x = -sin(2x)/2
    grid = TorusGrid(1, 32)
    x = grid.coordinates()[0]
    u = SpectralField.from_physical(grid, np.sin(x)).coeffs[0]
    want = SpectralField.from_physical(grid, -0.5 * np.sin(2 * x)).coeffs[0]
    assert np.max(np.abs(checks.burgers_drift(u, 8) - want)) < 1e-15


def test_burgers_drift_check(burgers_path):
    rec, drift = burgers_path
    state = rec.final_state
    a = galerkin_project(drift(state), GalerkinProjector(CUTOFF)).coeffs
    assert checks.check_burgers_drift(a, state.coeffs, CUTOFF) == []
    shifted = a.copy()
    shifted[0, 3] += 1e-6 * np.max(np.abs(a))
    assert any("differs" in m for m in checks.check_burgers_drift(shifted, state.coeffs, CUTOFF))
    # adding a multiple of the state keeps the modes plausible but pumps energy
    pumped = a + 1e-3 * state.coeffs
    assert any("pairing" in m for m in checks.check_burgers_drift(pumped, state.coeffs, CUTOFF))


def test_height_tendency_check():
    grid = TorusGrid(2, 16)
    state = random_field(grid, 3, 6.5, 0.4, 97)
    state.coeffs[2, 0, 0] = 1.0
    a = DriftOperator("RSW_Inviscid")(state).coeffs
    assert checks.check_height_tendency(a) == []
    a[2, 0, 0] += 1e-6 * np.max(np.abs(a))
    assert checks.check_height_tendency(a)


def _events(K, C):
    hi, lo = checks.switching_levels(K, C)
    return [
        ControlEvent("tau", 0, 0.0, hi + 1.0, hi + 1.0, hi, lo, K),
        ControlEvent("rho", 0, 0.1, lo - 0.01, lo + 0.01, hi, lo, K),
        ControlEvent("tau", 1, 0.2, hi + 0.01, hi - 0.01, hi, lo, K),
    ]


def test_schedule_check():
    K, C = 3.0, 4.0
    assert checks.check_schedule(_events(K, C), K, C) == []

    swapped = _events(K, C)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert checks.check_schedule(swapped, K, C)

    late = _events(K, C)
    late[2].time = 0.05
    assert any("decrease" in m for m in checks.check_schedule(late, K, C))

    unbracketed = _events(K, C)
    unbracketed[1].norm_before = unbracketed[1].norm
    assert any("bracket" in m for m in checks.check_schedule(unbracketed, K, C))

    wrong_level = _events(K, C)
    wrong_level[1].level_lo *= 1.001
    assert any("levels" in m for m in checks.check_schedule(wrong_level, K, C))


def test_tables_check(tmp_path, monkeypatch):
    records = []
    inner = experiments.integrate_path

    def keep(*args, **kwargs):
        rec = inner(*args, **kwargs)
        records.append((kwargs["cutoff"], rec))
        return rec

    monkeypatch.setattr(experiments, "integrate_path", keep)
    cfg = {
        "model": {"kind": "Burgers1D", "resolution": 32,
                  "initial": {"kind": "sine", "amplitude": 1.0, "space": "D"}},
        "noise": {"theta": 0.5, "alpha": 1.0, "case": "I"},
        "stepper": {"dt": 1e-3, "t_end": 0.1},
        "ensemble": {"d_list": [4, 8], "T": 0.1, "delta_grid": [0.004, 0.01, 0.04]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    cli.main(["ensemble", "--config", str(path), "--paths", "4", "--out", str(out), "--quiet"])
    assert len(records) == 8
    assert checks.check_tables(out, records, aldous=True) == []

    def rewrite(name, column, transform):
        lines = (out / name).read_text().splitlines()
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cols = lines[header_at].split(",")
        j = cols.index(column)
        for i in range(header_at + 1, len(lines)):
            cells = lines[i].split(",")
            cells[j] = repr(transform(i - header_at - 1, float(cells[j])))
            lines[i] = ",".join(cells)
        (out / name).write_text("\n".join(lines) + "\n")

    saved = {n: (out / n).read_text() for n in ("uniform_control.csv", "aldous.csv")}
    # p_hat rising with K, inside widened intervals so only the order is wrong
    rewrite("uniform_control.csv", "ci_lo", lambda i, v: 0.0)
    rewrite("uniform_control.csv", "ci_hi", lambda i, v: 1.0)
    rewrite("uniform_control.csv", "p_hat", lambda i, v: min(1.0, 0.01 * (i % 49)))
    assert any("increases with K" in m for m in checks.check_tables(out, records, aldous=True))
    (out / "uniform_control.csv").write_text(saved["uniform_control.csv"])

    rewrite("aldous.csv", "ci_lo", lambda i, v: 0.0)
    rewrite("aldous.csv", "ci_hi", lambda i, v: 1.0)
    rewrite("aldous.csv", "p_hat", lambda i, v: 1.0 - 0.1 * (i % 3))
    assert any("decreases with delta" in m for m in checks.check_tables(out, records, aldous=True))
    (out / "aldous.csv").write_text(saved["aldous.csv"])

    rewrite("uniform_control.csv", "ci_hi", lambda i, v: -1.0)
    assert any("outside its interval" in m for m in checks.check_tables(out, records, aldous=True))
    (out / "uniform_control.csv").write_text(saved["uniform_control.csv"])

    # p_hat = 0 everywhere is monotone and inside [0, ci_hi]; only the count
    # from the paths' own sup norms rejects it
    rewrite("uniform_control.csv", "ci_lo", lambda i, v: 0.0)
    rewrite("uniform_control.csv", "p_hat", lambda i, v: 0.0)
    fails = checks.check_tables(out, records, aldous=True)
    assert fails and all("counted" in m for m in fails)
    (out / "uniform_control.csv").write_text(saved["uniform_control.csv"])

    # one path fewer than the table's n
    assert any("paths ran" in m for m in checks.check_tables(out, records[1:], aldous=True))


def test_exp_law_check_needs_the_bridge():
    size = workloads.SCALAR.EXP
    good = experiments.exp_law_study(epsilon=1.0, seed=5, **size)
    assert checks.check_exp_law(good, 1.0) == []
    endpoints = experiments.exp_law_study(epsilon=1.0, seed=5, bridge=False, **size)
    assert any("KS" in m for m in checks.check_exp_law(endpoints, 1.0))


def test_revuz_yor_check():
    size = workloads.SCALAR.RY
    rows = experiments.revuz_yor_study(seed=5, **size)
    assert checks.check_revuz_yor(rows, size["n_paths"]) == []
    moved = [dict(r) for r in rows]
    moved[0]["p_hat"] += 0.05
    assert any("reflection" in m for m in checks.check_revuz_yor(moved, size["n_paths"]))
    above = [dict(r) for r in rows]
    above[-1]["ci_hi"] = above[-1]["bound"] * 1.01
    assert any("above the bound" in m for m in checks.check_revuz_yor(above, size["n_paths"]))


def test_order_check(monkeypatch):
    slope = workloads.gbm_order_fit(5, **workloads.SCALAR.GBM)
    assert checks.check_order(slope) == []

    from stochtame import _backend

    def biased(x, a, b, dw, h):
        # a step-size independent error: no convergence at all
        x *= math.exp((a - b * b / 2.0) * dw.shape[0] * h) * 1.01
        x *= np.exp(b * dw.sum(axis=0))

    monkeypatch.setattr(_backend, "tamed_gbm_chunk", biased)
    assert checks.check_order(workloads.gbm_order_fit(5, **workloads.SCALAR.GBM))
