import json

import numpy as np
import pytest

from full_layout import hermitian_defect
from stochtame.config import (
    ConfigError,
    InitialBuilder,
    build_drift,
    build_grid,
    parse_config,
    serialize_config,
)
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
    return grid, build_drift(cfg), InitialBuilder(cfg.model)(grid)


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
