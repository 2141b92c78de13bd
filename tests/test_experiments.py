import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from stochtame import experiments
from stochtame.cli import main
from stochtame.config import (
    build_drift,
    build_grid,
    build_noise,
    build_schedule,
    initial_state,
    parse_config,
)
from stochtame.control import control_run, validate_schedule
from stochtame.experiments import _aldous_increments, mann_kendall_pvalue
from stochtame.integrators import StepperConfig, integrate_path
from stochtame.models import DriftOperator
from stochtame.noise import NoiseSpec, WienerPath
from stochtame.spectral import (
    GalerkinProjector,
    SpectralField,
    TorusGrid,
    galerkin_project,
    sobolev_norm,
)

DELTAS = (0.004, 0.01, 0.04, 0.1, 0.25)


def aldous_oracle(record, delta_grid, seed, use_hitting, ladder):
    """Window suprema by a loop over snapshots, norms recomputed from the fields."""
    snaps = record.snapshots
    times = np.asarray([t for t, _ in snaps])
    latest = times[-1] - max(delta_grid)
    if use_hitting:
        norms = np.asarray([sobolev_norm(f, ladder.s_F0) for _, f in snaps])
        eligible = np.nonzero((norms >= np.median(norms)) & (times <= latest))[0]
        idx = int(eligible[0]) if len(eligible) else int(np.searchsorted(times, latest))
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7919)))
        target = rng.uniform(0.0, times[-1] / 2.0)
        idx = int(np.searchsorted(times, min(target, latest), side="right") - 1)
    idx = max(0, min(idx, len(times) - 2))
    out = {}
    for delta in delta_grid:
        sup = 0.0
        j = idx + 1
        while j < len(times) and times[j] <= times[idx] + delta + 1e-12:
            sup = max(sup, sobolev_norm(snaps[j][1] - snaps[idx][1], ladder.s_G))
            j += 1
        out[float(delta)] = sup
    return out


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("use_hitting", [True, False])
def test_aldous_increments_match_loop_oracle(seed, use_hitting):
    grid = TorusGrid(1, 64)
    drift = DriftOperator("Burgers1D")
    x0 = SpectralField.from_physical(grid, np.sin(grid.coordinates()[0]))
    st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.5)
    noise = NoiseSpec(1.0, 1.4, "F0", "I")
    rec = integrate_path(
        x0, drift, noise, st, WienerPath(seed, 1e-3), cutoff=16, seed=seed, field_stride=2
    )
    assert rec.status == "completed" and len(rec.snapshots) > 200
    got = _aldous_increments(rec, DELTAS, seed, use_hitting, drift.ladder)
    want = aldous_oracle(rec, DELTAS, seed, use_hitting, drift.ladder)
    assert got.keys() == want.keys()
    assert all(want[d] > 0.0 for d in want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=1e-12)


@pytest.mark.parametrize("seed", [1100, 1101, 1102])
def test_snapshot_distances_do_not_depend_on_the_stack_size(monkeypatch, seed):
    # a benchmark-size Burgers path (n = 256, d = 64, the advised noise of
    # the burgers_ensemble config): each distance to X_tau is a dot product
    # of its own, so the increments are the same bits at every stack size of
    # snapshots, and each window's supremum is sobolev_norm of a difference
    grid = TorusGrid(1, 256)
    drift = DriftOperator("Burgers1D")
    x0 = SpectralField.from_physical(grid, np.sin(grid.coordinates()[0]))
    st = StepperConfig(dt=1e-3, t_end=0.5, dt_min_exponent=40)
    noise = NoiseSpec(0.35497248460720465, 1.3789960798103702, "F0", "I")
    rec = integrate_path(
        x0, drift, noise, st, WienerPath(seed, 1e-3), cutoff=64, seed=seed, field_stride=2
    )
    got = {}
    for chunk in (32, 7, 1000):
        monkeypatch.setattr(experiments, "_WINDOW_CHUNK", chunk)
        got[chunk] = _aldous_increments(rec, DELTAS, seed, False, drift.ladder)
    assert got[32] == got[7] == got[1000]
    assert got[32] == aldous_oracle(rec, DELTAS, seed, False, drift.ladder)


class TestMannKendall:
    def test_exact_permutation_p(self):
        # four increasing values: S = 6 is attained by 1 of the 4! orders
        assert mann_kendall_pvalue([0.1, 0.2, 0.3, 0.4]) == 1 / 24
        # decreasing: every order has S >= -6
        assert mann_kendall_pvalue([4.0, 3.0, 2.0, 1.0]) == 1.0

    def test_tied_multiset(self):
        # {1, 1, 2} has three distinct orders with S = 2, 0, -2
        assert mann_kendall_pvalue([1.0, 1.0, 2.0]) == 1 / 3
        assert mann_kendall_pvalue([1.0, 2.0, 1.0]) == 2 / 3
        # {1, 2, 2, 3}: 12 distinct orders, only the sorted one reaches S = 5
        assert mann_kendall_pvalue([1.0, 2.0, 2.0, 3.0]) == 1 / 12

    def test_no_trend_evidence(self):
        assert mann_kendall_pvalue([0.3] * 5) == 1.0
        assert mann_kendall_pvalue([0.3] * 12) == 1.0
        assert mann_kendall_pvalue([0.3]) == 1.0

    def test_normal_branch_with_tie_correction(self):
        # n = 9 with one tied pair: S = 36 - 1 = 35, and the variance
        # (9*8*23 - 2*1*9) / 18 = 91; continuity-corrected z = 34 / sqrt(91)
        p = mann_kendall_pvalue([1, 2, 3, 4, 5, 6, 7, 8, 8])
        assert p == pytest.approx(0.5 * math.erfc(34 / math.sqrt(91) / math.sqrt(2)), rel=1e-9)
        # decreasing, no ties: S = -36, variance 92, z = -35 / sqrt(92)
        p = mann_kendall_pvalue(range(9, 0, -1))
        assert p == pytest.approx(0.5 * math.erfc(-35 / math.sqrt(92) / math.sqrt(2)), rel=1e-12)


def _ensemble_config(tmp_path, control: bool):
    """A small `stochtame ensemble` config: Burgers paths with increment
    windows, or shallow-water paths under the switching control."""
    if control:
        config = {
            "model": {
                "kind": "RSW_Inviscid",
                "resolution": 16,
                "initial": {"kind": "rest_height", "amplitude": 0.4, "space": "D", "seed": 97},
            },
            "noise": {"theta": 2.0, "alpha": 0.5, "case": "II"},
            "stepper": {"scheme": "EulerMaruyama", "dt": 2e-3, "t_end": 0.05, "stiff_cap": 0.1},
            "control": {"enabled": True, "K": 1.0, "C": 1.0},
            "ensemble": {"base_seed": 5, "d_list": [4, 5], "T": 0.05},
        }
    else:
        config = {
            "model": {"kind": "Burgers1D", "resolution": 64, "initial": {"kind": "sine"}},
            "noise": {"theta": 1.0, "alpha": 1.4, "case": "I"},
            "stepper": {"dt": 1e-3, "t_end": 0.1},
            "ensemble": {"base_seed": 11, "d_list": [8, 16], "T": 0.1, "delta_grid": [0.01, 0.04]},
        }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("control", [False, True])
def test_process_pool_matches_serial_run(tmp_path, monkeypatch, control):
    # the same outcomes, path by path, and the same table bytes with paths
    # spread over two worker processes as in one process
    path = _ensemble_config(tmp_path, control)
    stats = {}
    run = experiments.run_ensemble

    def keep(cfg, noise, jobs=1):
        stats[jobs] = run(cfg, noise, jobs)
        return stats[jobs]

    monkeypatch.setattr(experiments, "run_ensemble", keep)
    for jobs in (1, 2):
        argv = ["ensemble", "--config", str(path), "--paths", "3", "--jobs", str(jobs)]
        assert main(argv + ["--out", str(tmp_path / f"out{jobs}"), "--quiet"]) == 0
    assert stats[1] == stats[2]
    assert all(len(paths) == 3 for paths in stats[1].by_d.values())
    if control:
        assert any(p.n_switch_pairs > 0 for paths in stats[1].by_d.values() for p in paths)
    else:
        assert any(p.aldous for paths in stats[1].by_d.values() for p in paths)
    serial = sorted(p.name for p in (tmp_path / "out1").iterdir())
    assert serial == sorted(p.name for p in (tmp_path / "out2").iterdir())
    for name in serial:
        one, two = ((tmp_path / out / name).read_text() for out in ("out1", "out2"))
        if name == "paths.csv":
            # a path's wall time is measured, not computed: every other
            # column of paths.csv is the same
            one, two = (_without_last_column(text) for text in (one, two))
        assert one == two


def _without_last_column(text):
    assert text.splitlines()[2].endswith(",wall_s")
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


# the horizon ensemble.T differs from stepper.t_end, and the rows are saved
# every third step, so that the ensemble's own choices show
HAND_BUILT = {
    "plain": {
        "model": {"kind": "Burgers1D", "resolution": 64, "initial": {"kind": "sine"}},
        "noise": {"theta": 1.0, "alpha": 1.4, "case": "I"},
        "stepper": {"dt": 1e-3, "t_end": 1.0},
        "ensemble": {
            "base_seed": 11, "n_paths": 2, "d_list": [8, 16], "T": 0.1,
            "delta_grid": [0.01, 0.04],
        },
        "output": {"save_stride": 3},
    },
    "switching": {
        "model": {
            "kind": "RSW_Inviscid",
            "resolution": 16,
            "initial": {"kind": "rest_height", "amplitude": 0.4, "space": "D", "seed": 97},
        },
        "noise": {"theta": 2.0, "alpha": 0.5, "case": "II"},
        "stepper": {
            "scheme": "EulerMaruyama", "dt": 2e-3, "t_end": 1.0, "stiff_cap": 0.1,
            "growth_trigger": 1.0, "dt_min_exponent": 12,
        },
        "control": {"enabled": True, "K": 1.0, "C": 1.0},
        "ensemble": {"base_seed": 5, "n_paths": 2, "d_list": [4, 5], "T": 0.05},
        "output": {"save_stride": 3},
    },
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_run_ensemble_runs_the_paths_built_by_hand(name):
    # each outcome is that of the path built as test_paths_kept builds one:
    # the initial state projected to the cutoff, the Wiener path of seed
    # base_seed + j, the stepper to the horizon T, snapshots every
    # min(delta_grid) / (2 dt) = 5 steps
    cfg = parse_config(json.dumps(HAND_BUILT[name]))
    stats = experiments.run_ensemble(cfg, build_noise(cfg))
    grid, drift = build_grid(cfg), build_drift(cfg)
    noise = NoiseSpec.for_case(cfg.noise.theta, cfg.noise.alpha, cfg.noise.case)
    stepper = replace(cfg.stepper, t_end=cfg.ensemble.T)
    schedule = build_schedule(cfg)
    field_stride = 5 if cfg.ensemble.delta_grid else None
    for d in cfg.ensemble.d_list:
        assert [p.seed for p in stats.by_d[d]] == [cfg.ensemble.base_seed + j for j in range(2)]
        for j, outcome in enumerate(stats.by_d[d]):
            x0 = galerkin_project(initial_state(cfg.model, grid), GalerkinProjector(d))
            kw = dict(cutoff=d, seed=outcome.seed, save_stride=3, field_stride=field_stride)
            wiener = WienerPath(outcome.seed, stepper.dt)
            if schedule is None:
                rec = integrate_path(x0, drift, noise, stepper, wiener, **kw)
            else:
                rec = control_run(x0, drift, noise, schedule, stepper, wiener, **kw)
                report = validate_schedule(rec, schedule)
                assert (outcome.schedule_passed, outcome.n_switch_pairs) == (
                    report.passed, report.n_pairs
                )
            assert rec.times[-1] == pytest.approx(0.1 if schedule is None else 0.05)
            assert outcome.status == rec.status == "completed"
            assert outcome.sup_sq == rec.sup_norm_sq
            assert outcome.int_f1sq == rec.int_F1sq[-1]
            if field_stride:
                assert outcome.aldous == _aldous_increments(
                    rec, cfg.ensemble.delta_grid, outcome.seed, j % 2 == 0, drift.ladder
                )


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_run_path_is_the_path_the_ensemble_runs(tmp_path, monkeypatch, name):
    # stochtame ensemble hands each path's record to experiments'
    # integrate_path / control_run bindings, as the benchmark's capture reads
    # them; run_path at that (cutoff, seed) returns the same record, and for
    # a switching config the validation of its schedule
    captured = {}
    for binding in ("integrate_path", "control_run"):
        inner = getattr(experiments, binding)

        def capture(*args, _inner=inner, **kwargs):
            rec = _inner(*args, **kwargs)
            captured[kwargs["cutoff"], rec.seed] = rec
            return rec

        monkeypatch.setattr(experiments, binding, capture)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(HAND_BUILT[name]))
    assert main(["ensemble", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    monkeypatch.undo()
    cfg = parse_config(path.read_text())
    noise = NoiseSpec.for_case(cfg.noise.theta, cfg.noise.alpha, cfg.noise.case)
    stepper = replace(cfg.stepper, t_end=cfg.ensemble.T)
    schedule = build_schedule(cfg)
    field_stride = 5 if cfg.ensemble.delta_grid else None
    ens = cfg.ensemble
    assert sorted(captured) == [(d, ens.base_seed + j) for d in ens.d_list for j in range(2)]
    for d, seed in sorted(captured):
        ensemble_rec = captured[d, seed]
        rec, report = experiments.run_path(cfg, noise, stepper, seed, d, field_stride)
        assert list(rec.rows()) == list(ensemble_rec.rows())
        assert (rec.trials, rec.rejections, rec.level_steps) == (
            ensemble_rec.trials, ensemble_rec.rejections, ensemble_rec.level_steps
        )
        assert (rec.drift_evals, rec.wiener_draws, rec.sup_norms) == (
            ensemble_rec.drift_evals, ensemble_rec.wiener_draws, ensemble_rec.sup_norms
        )
        assert np.array_equal(rec.final_state.coeffs, ensemble_rec.final_state.coeffs)
        if schedule is None:
            assert report is None
        else:
            assert [asdict(e) for e in rec.events] == [asdict(e) for e in ensemble_rec.events]
            assert report == validate_schedule(ensemble_rec, schedule)


def test_audit_evaluates_one_drift_per_sample(monkeypatch):
    # the Lipschitz quotients reuse the drifts of the pairing reports
    calls = []
    inner = DriftOperator.__call__

    def counted(self, X):
        calls.append(X)
        return inner(self, X)

    monkeypatch.setattr(DriftOperator, "__call__", counted)
    experiments.assumption_audit(DriftOperator("Burgers1D"), n_samples=12)
    assert len(calls) == 12
