"""Four seeded paths, pinned: a refactor that keeps the stepping must keep
their step accounting, statuses and switching times exactly, and their
norms and last martingale pair (M, QV) and int_F1sq to 1e-12 relative.

Two are the benchmark's field workloads at fixed (theta, alpha): a tamed
Burgers path whose growth check refines it five levels deep, and a switching
shallow-water path with stiffness and crossing rejections and a tau/rho
pair.  A tamed 2D Burgers path on a 16 x 16 grid covers the two-dimensional
transforms every 2D drift shares, and a tamed case-I Burgers path with
stiffness rejections refines sixteen levels deep, so that most of its
Wiener increments are bridge draws below the base level.  Each is built
from a config the way ``stochtame ensemble`` builds its paths: the initial
state, its Galerkin projection, then the stepping loop.
"""

import json
import time

import pytest

from stochtame.config import (
    build_drift,
    build_grid,
    build_schedule,
    initial_state,
    parse_config,
)
from stochtame.control import control_run
from stochtame.integrators import integrate_path
from stochtame.noise import NoiseSpec, WienerPath
from stochtame.spectral import GalerkinProjector, galerkin_project

BURGERS = {
    "model": {
        "kind": "Burgers1D",
        "resolution": 256,
        "initial": {"kind": "sine", "amplitude": 1.0, "space": "D"},
    },
    "noise": {"theta": 1.2, "alpha": 1.38, "case": "I"},
    "stepper": {"scheme": "TamedEulerMaruyama", "dt": 1e-3, "t_end": 0.5, "dt_min_exponent": 40},
}

RSW = {
    "model": {
        "kind": "RSW_Inviscid",
        "resolution": 32,
        "initial": {
            "kind": "rest_height",
            "amplitude": 0.4,
            "space": "D",
            "seed": 97,
            "decay_exponent": 6.5,
            "mean_height": 1.0,
        },
    },
    "noise": {"theta": 0.534, "alpha": 0.3886, "case": "II"},
    "stepper": {
        "scheme": "EulerMaruyama",
        "dt": 2e-3,
        "t_end": 0.3,
        "dt_min_exponent": 20,
        "stiff_cap": 0.1,
        "growth_trigger": 1.0,
    },
    "control": {"enabled": True, "K": 3.0, "C": 4.0},
    "ensemble": {"d_list": [8]},
}

BURGERS2D = {
    "model": {
        "kind": "Burgers2D",
        "resolution": 16,
        "initial": {
            "kind": "random",
            "amplitude": 2.0,
            "space": "D",
            "seed": 3,
            "decay_exponent": 6.0,
        },
    },
    "noise": {"theta": 1.5, "alpha": 1.0, "case": "I"},
    "stepper": {"scheme": "TamedEulerMaruyama", "dt": 1e-3, "t_end": 0.2, "dt_min_exponent": 40},
    "ensemble": {"d_list": [5]},
}

STIFF = {
    "model": {
        "kind": "Burgers1D",
        "resolution": 64,
        "initial": {"kind": "sine", "amplitude": 2.0, "space": "D"},
    },
    "noise": {"theta": 3.0, "alpha": 1.38, "case": "I"},
    "stepper": {"scheme": "TamedEulerMaruyama", "dt": 1e-3, "t_end": 0.2, "dt_min_exponent": 40},
    "ensemble": {"d_list": [16]},
}

PINNED = {
    "burgers": dict(
        config=BURGERS,
        cutoff=16,
        seed=700009,
        level_steps=(461, 58, 30, 17, 4, 4),
        trials=598,
        rejections={"non_finite": 0, "stiffness": 0, "growth": 24, "crossing": 0},
        status="completed",
        events=[],
        final=(0.34407160268341946, 0.519997043573933, 2.5112214204636243, 12.957293830780795),
        sup=(2.0811432657165154, 2.9753343911211223, 6.608811784231777, 14.550885873338045),
        martingale=(-3.810248051153858, 44.73448016086914, 4.388860585909905),
    ),
    "rsw": dict(
        config=RSW,
        cutoff=8,
        seed=700003,
        level_steps=(112, 40, 59, 17, 11, 13) + (1,) * 14 + (2,),
        trials=315,
        rejections={"non_finite": 0, "stiffness": 28, "growth": 0, "crossing": 19},
        status="completed",
        events=[("tau", 0.0), ("rho", 0.07020836448669433)],
        final=(0.9386466442004368, 3.7865861145613864, 162.0317215520154, 1153.5218634269565),
        sup=(134.52023292079963, 655.9621202566686, 30640.82505392804, 228897.56716178608),
        martingale=(-241665.79865305504, 385710309584.8979, 1335025.3115023961),
    ),
    "burgers2d": dict(
        config=BURGERS2D,
        cutoff=5,
        seed=700001,
        level_steps=(112, 87, 95, 97, 112, 46, 10, 4),
        trials=653,
        rejections={"non_finite": 0, "stiffness": 23, "growth": 67, "crossing": 0},
        status="completed",
        events=[],
        final=(1.3630411086016354, 1.4197962548504677, 1.8032196369029416, 2.5202404689925624),
        sup=(7.550659696397139, 7.859585845755341, 9.822335257130769, 13.138966035857758),
        martingale=(-95.43805872227306, 9587.11716035905, 2.556994540514903),
    ),
    "stiff": dict(
        config=STIFF,
        cutoff=16,
        seed=700000,
        level_steps=(169, 25, 29, 46, 37, 45, 61, 46, 56, 64, 41, 55, 112, 116, 202, 136, 8),
        trials=1476,
        rejections={"non_finite": 0, "stiffness": 156, "growth": 72, "crossing": 0},
        status="completed",
        events=[],
        final=(0.24033024000293227, 0.34177661714643304, 0.7195578137308145, 1.1208673557261744),
        sup=(17.03600245302501, 24.09339598622042, 48.201679095574015, 68.20509527552159),
        martingale=(-511.15391618580634, 537316.4927058711, 1.0326559255326115),
    ),
}


def _run(config, cutoff, seed, **strides):
    cfg = parse_config(json.dumps(config))
    drift, grid = build_drift(cfg), build_grid(cfg)
    stepper = cfg.stepper
    noise = NoiseSpec.for_case(cfg.noise.theta, cfg.noise.alpha, cfg.noise.case)
    x0 = galerkin_project(initial_state(cfg.model, grid), GalerkinProjector(cutoff))
    wiener = WienerPath(seed, stepper.dt)
    schedule = build_schedule(cfg)
    kw = dict(cutoff=cutoff, seed=seed, save_stride=cfg.output.save_stride, **strides)
    if schedule is None:
        return integrate_path(x0, drift, noise, stepper, wiener, **kw)
    return control_run(x0, drift, noise, schedule, stepper, wiener, **kw)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_path_is_kept(name):
    want = PINNED[name]
    rec = _run(want["config"], want["cutoff"], want["seed"])
    assert rec.level_steps == want["level_steps"]
    assert rec.trials == want["trials"]
    assert rec.rejections == want["rejections"]
    assert rec.status == want["status"]
    assert [(e.kind, e.time) for e in rec.events] == want["events"]
    final = tuple(float(a[-1]) for a in (rec.norm_G, rec.norm_F0, rec.norm_F1, rec.norm_D))
    # the last row's M, QV and int_F1sq
    last = tuple(float(a[-1]) for a in (rec.M, rec.QV, rec.int_F1sq))
    kept = final + tuple(rec.sup_norms) + last
    for got, pinned in zip(kept, want["final"] + want["sup"] + want["martingale"], strict=True):
        assert got == pytest.approx(pinned, rel=1e-12, abs=0.0)


def test_counters_of_the_pinned_burgers_path():
    # one Wiener draw per trial, at the trial's level: the accepted steps
    # there plus the trials rejected there (counted at the parent commit by
    # wrapping WienerPath.increment); the wall time is the loop's own
    want = PINNED["burgers"]
    start = time.perf_counter()
    rec = _run(want["config"], want["cutoff"], want["seed"])
    elapsed = time.perf_counter() - start
    assert rec.wiener_draws == (473, 64, 34, 18, 5, 4)
    assert sum(rec.wiener_draws) == rec.trials
    assert 0.0 < rec.wall_s <= elapsed


@pytest.mark.parametrize("seed", [700009, 700000])
def test_snapshots_lie_on_the_fixed_time_grid(seed):
    # seed 700009 refines five levels deep and seed 700000 not at all; both
    # keep one snapshot at each time j * field_stride * dt, so at most
    # T / (field_stride * dt) + 1 of them, and the unrefined path keeps
    # one every field_stride accepted steps, as before
    want = PINNED["burgers"]
    stride, dt, horizon = 2, 1e-3, 0.5
    rec = _run(want["config"], want["cutoff"], seed, field_stride=stride)
    times = [t for t, _ in rec.snapshots]
    grid_times = [j * stride * dt for j in range(round(horizon / (stride * dt)) + 1)]
    assert times == pytest.approx(grid_times, rel=1e-12, abs=1e-15)
    assert rec.finest_level == (5 if seed == 700009 else 0)
    by_time = dict(zip(rec.times, rec.norm_F0))
    assert list(rec.snapshot_norm_F0) == [by_time[t] for t in times]
