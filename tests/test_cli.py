import csv
import json
from dataclasses import asdict

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


@pytest.mark.parametrize("threshold", [None, 3.0], ids=["completed", "blowup"])
def test_ensemble_writes_one_paths_row_per_record(tmp_path, monkeypatch, threshold):
    # paths.csv holds each path's fate and step accounting as its record
    # reads them; at the threshold 3.0 some paths blow up and some complete
    import stochtame.experiments as experiments

    records = []
    integrate = experiments.integrate_path

    def capture(*args, **kwargs):
        rec = integrate(*args, **kwargs)
        records.append((kwargs["cutoff"], rec))
        return rec

    monkeypatch.setattr(experiments, "integrate_path", capture)
    stepper = {"scheme": "TamedEulerMaruyama", "dt": 1e-3, "t_end": 0.05}
    if threshold is not None:
        stepper["blowup_threshold"] = threshold
    config = {
        "model": {
            "kind": "Burgers1D",
            "resolution": 64,
            "initial": {"kind": "sine", "amplitude": 2.0, "space": "D"},
        },
        "noise": {"theta": 1.5, "alpha": 1.38, "case": "I"},
        "stepper": stepper,
        "ensemble": {"d_list": [8, 16], "T": 0.05},
    }
    path = tmp_path / "burgers.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["ensemble", "--config", str(path), "--seed", "5", "--paths", "3", "--out", str(out)]
    assert main(argv + ["--quiet"]) == 0
    for name in ("uniform_control.csv", "time_integral.csv", "report.csv"):
        assert (out / name).is_file()
    rows = read_rows(out / "paths.csv")
    assert len(rows) == len(records) == 6
    by_path = {(d, rec.seed): rec for d, rec in records}
    assert [(int(r["d"]), int(r["seed"])) for r in rows] == sorted(by_path)
    for row in rows:
        rec = by_path[int(row["d"]), int(row["seed"])]
        assert row["status"] == rec.status
        assert row["blowup_reason"] == (rec.blowup[1] if rec.blowup else "")
        assert int(row["accepted_steps"]) == rec.accepted_steps > 0
        assert int(row["trials"]) == rec.trials
        for cause, n in rec.rejections.items():
            assert int(row[f"rejected_{cause}"]) == n
        assert int(row["finest_level"]) == rec.finest_level
        assert int(row["drift_evals"]) == rec.drift_evals
        assert int(row["wiener_draws"]) == sum(rec.wiener_draws)
        assert float(row["wall_s"]) == rec.wall_s > 0.0
    statuses = {row["status"] for row in rows}
    assert statuses == ({"completed"} if threshold is None else {"completed", "blowup"})


def test_config_cutoff_limit_is_alias_free():
    # at resolution 24 the modes +-8 alias onto -+8, so the largest
    # alias-free cutoff is (24 - 1) // 3 = 7
    def config(d):
        return json.dumps(
            {"model": {"kind": "Burgers1D", "resolution": 24}, "ensemble": {"d_list": [d]}}
        )

    assert parse_config(config(7)).ensemble.d_list == (7,)
    with pytest.raises(ConfigError, match=r"\(n - 1\)//3 = 7"):
        parse_config(config(8))


def test_config_rejects_empty_cutoff_list(tmp_path):
    # an ensemble needs a cutoff to run; without one the config is refused
    # before any path starts
    text = json.dumps(
        {"model": {"kind": "Burgers1D", "resolution": 32}, "ensemble": {"d_list": []}}
    )
    with pytest.raises(ConfigError, match=r"ensemble\.d_list"):
        parse_config(text)
    path = tmp_path / "empty.json"
    path.write_text(text)
    with pytest.raises(SystemExit, match=r"ensemble\.d_list"):
        main(["ensemble", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])


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


def test_simulate_writes_every_save_stride_row(tmp_path):
    # 20 base steps of a small deterministic Burgers path, no refinement:
    # output.save_stride 5 keeps t = 0 and every fifth step
    config = {
        "model": {"kind": "Burgers1D", "resolution": 32, "initial": {"amplitude": 0.1}},
        "stepper": {"scheme": "RK4Deterministic", "dt": 1e-3, "t_end": 0.02},
        "ensemble": {"d_list": [8]},
        "output": {"save_stride": 5},
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    times = [float(r["t"]) for r in read_rows(out / "trajectory.csv")]
    assert times == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02], abs=1e-15)


def test_verify_seed_resolution(monkeypatch):
    # --seed 0 is seed 0, not the suite seed
    import stochtame.acceptance

    seen = []
    monkeypatch.setattr(
        stochtame.acceptance,
        "run_acceptance",
        lambda names, seed=None, echo=None: seen.append(seed) or [],
    )
    assert main(["verify", "--suite", "trivial", "--quiet", "--seed", "0"]) == 0
    assert seen == [0]


ACCOUNTING = (
    r"^status=(\w+) trials=(\d+) rejections=non_finite:(\d+),stiffness:(\d+),growth:(\d+),"
    r"crossing:(\d+) finest_level=(\d+) drift_evals=(\d+) "
)


@pytest.mark.parametrize("control", [False, True], ids=["simulate", "control"])
def test_path_commands_print_the_step_accounting(tmp_path, capsys, control):
    # simulate of a tamed Burgers path whose noise refines some steps, plain
    # or under control.enabled; the switching run starts above L_hi, so tau
    # fires at t = 0, and the noise stays on: every step is a tamed step,
    # one drift evaluation per accepted step
    import re

    config = {
        "model": {"kind": "Burgers1D", "resolution": 64, "initial": {"amplitude": 3.0}},
        "noise": {"theta": 0.5, "alpha": 1.0, "case": "I"},
        "stepper": {"dt": 1e-3, "t_end": 0.05, "stiff_cap": 0.05, "growth_trigger": 0.05},
        "control": {"enabled": control, "K": 1.0, "C": 1.0},
        "ensemble": {"d_list": [8]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--seed", "3"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    match = re.match(ACCOUNTING, line)
    assert match, line
    status, trials, *rejections, finest, evals = match.groups()
    accepted = len(read_rows(out / "trajectory.csv")) - 1
    assert status == "completed"
    assert int(trials) == accepted + sum(map(int, rejections))
    assert int(rejections[1]) > 0 and int(rejections[2]) > 0 and int(finest) > 0
    assert int(evals) == accepted


@pytest.mark.parametrize("control", [False, True], ids=["simulate", "control"])
def test_step_accounting_prints_wiener_draws_and_wall_time(tmp_path, capsys, control):
    # simulate, plain or under control.enabled: the noise is on at every step
    # of both runs (the switching run starts above L_hi and stays there), so
    # each trial draws one Wiener increment at its level: the draws by level
    # sum to the trials, and a refined level draws
    import re

    config = {
        "model": {"kind": "Burgers1D", "resolution": 64, "initial": {"amplitude": 3.0}},
        "noise": {"theta": 0.5, "alpha": 1.0, "case": "I"},
        "stepper": {"dt": 1e-3, "t_end": 0.05, "stiff_cap": 0.05, "growth_trigger": 0.05},
        "control": {"enabled": control, "K": 1.0, "C": 1.0},
        "ensemble": {"d_list": [8]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "3"]
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[0]
    pattern = r" trials=(\d+) .* finest_level=(\d+) .* wiener_draws=([\d:,]+) wall_s=(\S+) "
    match = re.search(pattern, line)
    assert match, line
    trials, finest, draws, wall_s = match.groups()
    by_level = [tuple(map(int, item.split(":"))) for item in draws.split(",")]
    assert [level for level, _ in by_level] == list(range(int(finest) + 1))
    assert sum(n for _, n in by_level) == int(trials)
    assert all(n > 0 for _, n in by_level)
    assert 0.0 < float(wall_s) < 60.0


def test_refused_config_exits_with_one_line(tmp_path):
    # stepper.stiff_cap "0.5" parsed and then raised a TypeError at the first
    # trial step; the command now exits nonzero with one line on stderr
    import subprocess
    import sys

    config = {
        "model": {"kind": "Burgers1D", "resolution": 32},
        "noise": {"theta": 0.5, "alpha": 1.0, "case": "I"},
        "stepper": {"dt": 1e-3, "t_end": 0.01, "stiff_cap": "0.5"},
        "ensemble": {"d_list": [8]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-m", "stochtame.cli", *argv], capture_output=True, text=True
    )
    assert done.returncode != 0 and done.stdout == ""
    assert done.stderr.splitlines() == [
        f"invalid config {path}: stepper.stiff_cap must be a number, got '0.5'"
    ]
    assert not (tmp_path / "out").exists()


SWITCHING = {
    "model": {
        "kind": "RSW_Inviscid",
        "resolution": 16,
        "initial": {"kind": "rest_height", "amplitude": 0.4, "space": "D", "seed": 97},
    },
    "noise": {"theta": 2.0, "alpha": 0.5, "case": "II"},
    "stepper": {"scheme": "EulerMaruyama", "dt": 2e-3, "t_end": 0.05, "stiff_cap": 0.1},
    "control": {"enabled": True, "K": 1.0, "C": 1.0},
    "ensemble": {"d_list": [4, 5]},
    "output": {"save_stride": 2},
}


def test_simulate_follows_control_enabled(tmp_path, monkeypatch, capsys):
    # simulate of a switching config runs the config's schedule: it writes
    # the events beside the trajectory, prints the schedule's verdict, and
    # its record is control_run's on the config's own inputs
    import numpy as np

    import stochtame.experiments as experiments
    from stochtame.config import (
        build_drift,
        build_grid,
        build_noise,
        build_schedule,
        initial_state,
    )
    from stochtame.control import control_run, validate_schedule
    from stochtame.noise import WienerPath

    records = []
    run = experiments.control_run

    def capture(*args, **kwargs):
        records.append(run(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(experiments, "control_run", capture)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SWITCHING))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--seed", "7"]) == 0
    (rec,) = records
    cfg = parse_config(path.read_text())
    x0 = initial_state(cfg.model, build_grid(cfg))
    schedule = build_schedule(cfg)
    wiener = WienerPath(7, cfg.stepper.dt)
    ref = control_run(
        x0, build_drift(cfg), build_noise(cfg), schedule, cfg.stepper, wiener,
        seed=7, save_stride=2,
    )
    assert list(rec.rows()) == list(ref.rows())
    assert [asdict(e) for e in rec.events] == [asdict(e) for e in ref.events]
    assert (rec.trials, rec.rejections, rec.level_steps, rec.drift_evals, rec.wiener_draws) == (
        ref.trials, ref.rejections, ref.level_steps, ref.drift_evals, ref.wiener_draws
    )
    assert np.array_equal(rec.final_state.coeffs, ref.final_state.coeffs)
    events = read_rows(out / "events.csv")
    assert len(events) == len(rec.events) > 0
    assert [(e["kind"], float(e["time"])) for e in events] == [
        (e.kind, e.time) for e in rec.events
    ]
    report = validate_schedule(rec, schedule)
    assert report.passed
    first, second = capsys.readouterr().out.splitlines()
    assert first.endswith(f" events={len(rec.events)} valid=True dwell={report.alpha_dwell}")
    assert second == f"wrote {out}/trajectory.csv, {out}/events.csv"


def test_simulate_exits_one_when_the_schedule_fails(tmp_path, monkeypatch, capsys):
    # the failed check says why on stderr, also under --quiet
    import stochtame.experiments as experiments
    from stochtame.control import ValidationReport

    failure = "tau_0 at t=0.01: norm 1.5 does not bracket level 2.0"
    report = ValidationReport(False, [failure])
    monkeypatch.setattr(experiments, "validate_schedule", lambda record, schedule: report)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SWITCHING))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 1
    assert (out / "trajectory.csv").is_file() and (out / "events.csv").is_file()
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.splitlines() == [f"schedule check failed: {failure}"]


def test_gbm_prints_the_study_row(capsys):
    # the JSON is gbm_study's row for the same arguments; gbm has no --quiet,
    # which silenced nothing
    from stochtame.experiments import gbm_study
    from stochtame.noise import GbmSpec

    argv = ["gbm", "--a", "0.5", "--b", "1.5", "--f0", "2.0", "--T", "4.0"]
    argv += ["--threshold", "0.05", "--paths", "300", "--seed", "8"]
    assert main(argv) == 0
    (row,) = gbm_study([GbmSpec(0.5, 1.5, 2.0)], n_paths=300, T=4.0, seed=8, threshold=0.05)
    assert json.loads(capsys.readouterr().out) == asdict(row)
    with pytest.raises(SystemExit) as refused:
        main(argv + ["--quiet"])
    assert refused.value.code == 2


def test_scalefn_agrees_with_the_closed_form(capsys):
    # the quadrature of the scale function of mu = a x, sigma = b x matches
    # its closed form; scalefn has no --quiet, which silenced nothing
    from stochtame.noise import gbm_scale_closed_form

    argv = ["scalefn", "--a", "0.5", "--b", "1.5", "--c", "1.0", "--x", "2.0"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    closed = gbm_scale_closed_form(0.5, 1.5, 1.0, 2.0)
    assert printed["x"] == 2.0 and printed["closed_form"] == closed
    assert printed["scale"] == pytest.approx(closed, rel=1e-9, abs=0.0)
    with pytest.raises(SystemExit) as refused:
        main(argv + ["--quiet"])
    assert refused.value.code == 2


@pytest.mark.parametrize("paths", ["0", "-2"])
@pytest.mark.parametrize("command", ["gbm", "ensemble"])
def test_paths_below_one_are_refused_before_any_work(
    tmp_path, monkeypatch, capsys, command, paths
):
    # gbm --paths 0 ran 1000 paths and ensemble --paths 0 the config's
    # n_paths; argparse now refuses the count before any work
    import stochtame.experiments as experiments

    def ran(*args, **kwargs):
        raise AssertionError(f"{command} ran")

    monkeypatch.setattr(experiments, "gbm_study", ran)
    monkeypatch.setattr(experiments, "run_ensemble", ran)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"resolution": 32}, "ensemble": {"d_list": [8]}}))
    argv = [command, "--paths", paths]
    if command == "ensemble":
        argv += ["--config", str(path), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    assert f"argument --paths: must be at least 1, got {paths}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
