"""Two seeded paths, pinned: a refactor that keeps the stepping must keep
their step accounting, statuses and switching times exactly, and their
norms to 1e-12 relative.

The paths are the benchmark's two field workloads at fixed (theta, alpha):
a tamed Burgers path whose growth check refines it five levels deep, and a
switching shallow-water path with stiffness and crossing rejections and a
tau/rho pair.  Each is built from a config the way ``stochtame ensemble``
builds its paths: the initial state, its Galerkin projection, then the
stepping loop.
"""

import json

import pytest

from stochtame.config import (
    InitialBuilder,
    build_drift,
    build_grid,
    build_schedule,
    build_stepper,
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
    ),
}


def _run(config, cutoff, seed):
    cfg = parse_config(json.dumps(config))
    drift, grid, stepper = build_drift(cfg), build_grid(cfg), build_stepper(cfg)
    noise = NoiseSpec.for_case(cfg.noise.theta, cfg.noise.alpha, cfg.noise.case)
    x0 = galerkin_project(InitialBuilder(cfg.model)(grid), GalerkinProjector(cutoff))
    wiener = WienerPath(seed, stepper.dt)
    schedule = build_schedule(cfg)
    if schedule is None:
        return integrate_path(x0, drift, noise, stepper, wiener, cutoff=cutoff, seed=seed)
    return control_run(x0, drift, noise, schedule, stepper, wiener, cutoff=cutoff, seed=seed)


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
    for got, pinned in zip(final + tuple(rec.sup_norms), want["final"] + want["sup"]):
        assert got == pytest.approx(pinned, rel=1e-12, abs=0.0)
