import json

import numpy as np
import pytest

from full_layout import hermitian_defect
from stochtame.config import (
    ConfigError,
    RunConfig,
    build_drift,
    build_grid,
    config_hash,
    initial_state,
    parse_config,
    serialize_config,
)
from stochtame.integrators import StepperConfig
from stochtame.models import CATALOGUE
from stochtame.noise import NOISE_CASES, NoiseSpec
from stochtame.spectral import LADDER_SPACES

RESOLUTION = {1: 32, 2: 16, 3: 8}


def _initial_kinds(kind):
    # a sine in the first component is not divergence free in 3D, and a rest
    # height needs the height component of shallow water
    kinds = ["random"]
    if CATALOGUE[kind].dim < 3:
        kinds.append("sine")
    if kind.startswith("RSW"):
        kinds.append("rest_height")
    return kinds


def _build(kind, initial):
    dim = CATALOGUE[kind].dim
    cfg = parse_config(
        json.dumps(
            {
                "model": {
                    "kind": kind,
                    "resolution": RESOLUTION[dim],
                    "initial": {"kind": initial, "amplitude": 0.5, "seed": 3},
                },
                "ensemble": {"d_list": [2]},
            }
        )
    )
    grid = build_grid(cfg)
    return grid, build_drift(cfg), initial_state(cfg.model, grid)


PAIRS = [(kind, initial) for kind in CATALOGUE for initial in _initial_kinds(kind)]


@pytest.mark.parametrize("kind, initial", PAIRS)
def test_every_kind_builds_grid_drift_and_initial_state(kind, initial):
    grid, drift, X = _build(kind, initial)
    dim = CATALOGUE[kind].dim
    assert (grid.dim, grid.n) == (dim, RESOLUTION[dim])
    assert (drift.dim, drift.components) == (dim, CATALOGUE[kind].components)
    assert X.components == drift.components
    assert X.is_half and drift(X).coeffs.shape == X.coeffs.shape
    out = drift(X.as_full())
    assert out.coeffs.shape == X.as_full().coeffs.shape
    assert hermitian_defect(out) == 0.0


@pytest.mark.parametrize("kind, initial", PAIRS)
def test_initial_state_is_hermitian(kind, initial):
    _, _, X = _build(kind, initial)
    assert hermitian_defect(X) <= 1e-14 * max(np.max(np.abs(X.coeffs)), 1.0)


@pytest.mark.parametrize("kind", list(CATALOGUE))
def test_catalogue_lists_the_initial_kinds_a_kind_can_take(kind):
    assert set(CATALOGUE[kind].initial_kinds) == set(_initial_kinds(kind))


@pytest.mark.parametrize(
    "kind, initial",
    [
        ("Vorticity3D", "sine"),
        ("Vorticity3D", "rest_height"),
        ("Burgers1D", "rest_height"),
        ("Burgers2D", "rest_height"),
        ("Vorticity2D", "rest_height"),
        ("RSW_Inviscid", "vortex"),
    ],
)
def test_initial_kind_the_model_cannot_take_is_rejected(kind, initial):
    # a sine is not divergence free in 3D, and a rest height needs the
    # height component of shallow water: both used to die in a traceback
    with pytest.raises(ConfigError, match=rf"model\.initial\.kind of {kind} must be one of"):
        _build(kind, initial)


@pytest.mark.parametrize("kind", list(CATALOGUE))
def test_unset_initial_kind_is_the_model_kinds_first(kind):
    # Vorticity3D takes random states only, so a config without
    # model.initial (as an audit config may be) must not default to a sine
    text = json.dumps({"model": {"kind": kind, "resolution": 8}, "ensemble": {"d_list": [2]}})
    cfg = parse_config(text)
    assert cfg.model.initial.kind == CATALOGUE[kind].initial_kinds[0]
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("case", list(NOISE_CASES))
@pytest.mark.parametrize("space", LADDER_SPACES)
def test_case_rule_is_admits_initial_space(case, space):
    text = json.dumps(
        {
            "model": {"kind": "Burgers1D", "resolution": 32, "initial": {"space": space}},
            "noise": {"theta": 0.5, "alpha": 1.0, "case": case},
            "ensemble": {"d_list": [8]},
        }
    )
    spec = NoiseSpec(0.5, 1.0, NOISE_CASES[case].noise_space, case)
    if spec.admits_initial_space(space):
        assert parse_config(text).model.initial.space == space
    else:
        with pytest.raises(ConfigError, match=f"noise.case {case} requires"):
            parse_config(text)


def test_stepper_save_stride_is_rejected():
    # output.save_stride is the one row stride of every command
    text = json.dumps({"stepper": {"save_stride": 5}, "ensemble": {"d_list": [8]}})
    with pytest.raises(ConfigError, match=r"unknown key stepper\.save_stride"):
        parse_config(text)


# --- every value a run would refuse is refused at parse time -----------------

RUNNABLE = {
    "model": {"kind": "Burgers1D", "resolution": 32},
    "noise": {"theta": 0.5, "alpha": 1.0, "case": "I"},
    "stepper": {"dt": 1e-3, "t_end": 0.01},
    "ensemble": {"d_list": [8], "n_paths": 1},
}


def _config(changes):
    """RUNNABLE with the dotted keys of ``changes`` set."""
    config = json.loads(json.dumps(RUNNABLE))
    for dotted, value in changes.items():
        section, key = dotted.split(".")
        config.setdefault(section, {})[key] = value
    return config


# (changes, command, the start of the message after the config's path)
REFUSED = [
    ({"model.rossby": -1}, "simulate", "model.rossby"),
    ({"model.kind": "RSW_Inviscid", "model.nu": 0.1}, "simulate", "model: inviscid"),
    ({"stepper.t_end": -1}, "simulate", "stepper.t_end"),
    ({"stepper.dt_min_exponent": 0}, "simulate", "stepper.dt_min_exponent"),
    ({"model.ladder": [0, 3, 2, 4]}, "simulate", "model.ladder"),
    ({"output.save_stride": 0}, "simulate", "output.save_stride"),
    ({"control.enabled": True, "control.C": -1}, "simulate", "control: scale offset C"),
    ({"ensemble.T": 1, "ensemble.delta_grid": [0.9]}, "ensemble", "ensemble.delta_grid"),
    ({"noise.advisor": True, "noise.advisor_epsilon": 0.7}, "simulate", "noise: epsilon"),
    ({"ensemble.T": -1}, "ensemble", "ensemble.T"),
    ({"ensemble.d_list": [0, 8]}, "ensemble", "ensemble.d_list"),
    ({"stepper.mart_epsilon": 0}, "simulate", "unknown key stepper.mart_epsilon"),
    ({"stepper.scheme": "RK4Deterministic"}, "simulate", "stepper.scheme RK4Deterministic"),
    ({"noise.theta": -1}, "simulate", "noise.theta"),
    ({"noise.case": "IV"}, "simulate", "noise: case_label"),
    ({"model.initial": {"kind": "random", "seed": -1}}, "simulate", "model.initial"),
    # the default initial state, sin x, has F0 = H^1 norm 1
    ({"stepper.blowup_threshold": 0.1}, "simulate", "stepper.blowup_threshold 0.1 must"),
    ({"stepper.blowup_threshold": 1}, "ensemble", "stepper.blowup_threshold 1 must"),
    # values of the wrong JSON type
    ({"stepper.stiff_cap": "0.5"}, "simulate", "stepper.stiff_cap must be a number"),
    ({"model.resolution": "64"}, "simulate", "model.resolution must be an integer"),
    ({"stepper.dt": "x"}, "simulate", "stepper.dt must be a number"),
    ({"stepper.dt": True}, "simulate", "stepper.dt must be a number"),
    ({"stepper.dt_min_exponent": 20.0}, "simulate", "stepper.dt_min_exponent must be an integer"),
    ({"stepper.adapt": 1}, "simulate", "stepper.adapt must be true or false"),
    ({"stepper.dt": None}, "simulate", "stepper.dt must be a number, got None"),
    ({"ensemble.d_list": [8.5]}, "ensemble", "ensemble.d_list[0] must be an integer"),
    ({"ensemble.delta_grid": ["a"]}, "ensemble", "ensemble.delta_grid[0] must be a number"),
    ({"ensemble.K_grid": 5}, "ensemble", "ensemble.K_grid must be a list"),
    ({"model.ladder": [0, 1, 2]}, "simulate", "model.ladder must hold 4 entries"),
    ({"model.initial": 3}, "simulate", "model.initial must be an object"),
]


@pytest.mark.parametrize(
    "changes, command, message", REFUSED, ids=[";".join(c) for c, _, _ in REFUSED]
)
def test_bad_setting_is_refused_before_any_work(tmp_path, monkeypatch, changes, command, message):
    # each of these ended a path command or ensemble in a traceback, some
    # after paths or the advisor's audit had run; now the command exits with
    # one line naming the key or its section, before any work
    from stochtame import control, experiments, integrators
    from stochtame.cli import main

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in (
        (integrators, "_adaptive_loop"),
        (control, "_adaptive_loop"),
        (experiments, "assumption_audit"),
    ):
        monkeypatch.setattr(module, name, no_work)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(changes)))
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    text = str(exit_.value.code)
    assert text.startswith(f"invalid config {path}: {message}") and "\n" not in text


def test_number_keys_take_integers_and_optional_keys_take_null():
    changes = {
        "stepper.dt": 1,
        "stepper.t_end": 2,
        "stepper.blowup_threshold": None,
        "ensemble.T": None,
        "control.K": 2,
    }
    cfg = parse_config(json.dumps(_config(changes)))
    assert (cfg.stepper.dt, cfg.stepper.t_end, cfg.control.K) == (1, 2, 2)
    assert cfg.stepper.blowup_threshold is None and cfg.ensemble.T is None
    assert parse_config(serialize_config(cfg)) == cfg


def test_stepper_section_is_the_stepper():
    cfg = parse_config(json.dumps(_config({"stepper.dt_min_exponent": 30})))
    assert type(cfg.stepper) is StepperConfig and cfg.stepper.dt_min_exponent == 30
    # names that are not its keys are refused
    for key in ("max_level", "resolved_dt_min"):
        with pytest.raises(ConfigError, match=rf"unknown key stepper\.{key}"):
            parse_config(json.dumps(_config({f"stepper.{key}": 1})))


def test_default_config_hash_is_kept():
    # the stepper section serialises key for key, so the hash of every
    # config, here the default one, moves only when a section's keys do
    assert config_hash(RunConfig()) == "60f03a7f1e13"
