"""The noise advisor's (theta, alpha) of the benchmark's two field configs,
pinned: the audit behind it (``build_noise`` of a config with ``"advisor":
true``, 200 samples at the config's base seed) must keep its value to 1e-12
relative.

The configs carry the benchmark workloads' model, noise and ensemble
sections.  A change that moves the advised noise on purpose, such as an
audit that computes its constants instead of sampling them, updates the
pinned values here and says why.
"""

import json

import pytest

from stochtame.config import build_noise, parse_config

BURGERS = {
    "model": {
        "kind": "Burgers1D",
        "resolution": 256,
        "initial": {"kind": "sine", "amplitude": 1.0, "space": "D"},
    },
    "noise": {"advisor": True, "case": "I", "advisor_epsilon": 0.25, "advisor_level": 2.0},
    "stepper": {"scheme": "TamedEulerMaruyama", "dt": 1e-3, "t_end": 0.5, "dt_min_exponent": 40},
    "ensemble": {"base_seed": 11, "d_list": [8, 16, 32, 64], "T": 0.5, "epsilon_target": 0.1},
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
    "noise": {"advisor": True, "case": "II", "advisor_epsilon": 0.25},
    "stepper": {
        "scheme": "EulerMaruyama",
        "dt": 2e-3,
        "t_end": 0.3,
        "dt_min_exponent": 20,
        "stiff_cap": 0.1,
        "growth_trigger": 1.0,
    },
    "control": {"enabled": True, "K": 3.0, "C": 4.0},
    "ensemble": {"base_seed": 5, "d_list": [8, 10], "T": 0.3, "epsilon_target": 0.1},
}

ADVISED = {
    "burgers": (BURGERS, "I", 0.35497248460720465, 1.3789960798103702),
    "rsw": (RSW, "II", 0.534022878301393, 0.3885569824990882),
}


@pytest.mark.parametrize("name", sorted(ADVISED))
def test_advised_noise_is_kept(name):
    config, case, theta, alpha = ADVISED[name]
    noise = build_noise(parse_config(json.dumps(config)))
    assert noise.case_label == case
    assert noise.theta == pytest.approx(theta, rel=1e-12, abs=0.0)
    assert noise.alpha == pytest.approx(alpha, rel=1e-12, abs=0.0)
