import csv
import json

import pytest

from stochtame.cli import main
from stochtame.config import ConfigError, parse_config


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_ensemble_without_completed_paths_writes_every_table(tmp_path):
    # every path crosses the blow-up threshold within its first steps, so no
    # path yields stopping-time increment samples
    config = {
        "model": {
            "kind": "Burgers1D",
            "resolution": 256,
            "initial": {"kind": "sine", "amplitude": 1.0, "space": "D"},
        },
        "noise": {"theta": 0.355, "alpha": 1.379, "case": "I"},
        "stepper": {
            "scheme": "TamedEulerMaruyama",
            "dt": 1e-3,
            "t_end": 0.05,
            "dt_min_exponent": 40,
            "blowup_threshold": 1.0001,
        },
        "ensemble": {
            "base_seed": 11,
            "d_list": [8, 16],
            "T": 0.05,
            "epsilon_target": 0.1,
            "delta_grid": [0.004, 0.01],
        },
        "output": {"save_stride": 1},
    }
    path = tmp_path / "burgers.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["ensemble", "--config", str(path), "--seed", "0", "--paths", "2", "--out", str(out)]
    assert main(argv + ["--quiet"]) == 0
    for name in ("uniform_control.csv", "time_integral.csv", "aldous.csv", "report.csv"):
        assert (out / name).is_file()
    aldous = read_rows(out / "aldous.csv")
    assert len(aldous) == 4
    for row in aldous:
        assert int(row["n"]) == 0
        assert float(row["p_hat"]) == 0.0
        assert (float(row["ci_lo"]), float(row["ci_hi"])) == (0.0, 1.0)
    assert all(int(r["n"]) == 2 for r in read_rows(out / "uniform_control.csv"))


def test_config_cutoff_limit_is_alias_free():
    # at resolution 24 the modes +-8 alias onto -+8, so the largest
    # alias-free cutoff is (24 - 1) // 3 = 7
    def config(d):
        return json.dumps(
            {"model": {"kind": "Burgers1D", "resolution": 24}, "ensemble": {"d_list": [d]}}
        )

    assert parse_config(config(7)).ensemble.d_list == (7,)
    with pytest.raises(ConfigError, match=r"\(resolution - 1\)//3 = 7"):
        parse_config(config(8))


def test_config_rejects_milstein_scheme():
    # the scalar Milstein step needs the diffusion derivative in closed form;
    # no field run can take it, so the config refuses it up front
    text = json.dumps(
        {
            "model": {"kind": "Burgers1D", "resolution": 32},
            "stepper": {"scheme": "Milstein1D"},
            "ensemble": {"d_list": [8]},
        }
    )
    with pytest.raises(ConfigError, match="stepper.scheme"):
        parse_config(text)
