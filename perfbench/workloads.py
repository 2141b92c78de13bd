"""The three workloads: their inputs, one round of work, and its checks.

A round is the unit a run repeats until its measured time reaches
``--seconds``: one ``stochtame ensemble`` invocation for the field workloads,
one pass over the three scalar studies for ``scalar_lab``.  Every round of a
workload attempts the same operations (paths or studies); only the seeds
change, and they derive from the workload seed and the round index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

#: Sobolev exponents (G, F0, F1, D) of the Burgers and inviscid shallow-water
#: ladder, as the paper states them for these models
LADDER = (0.0, 1.0, 3.0, 4.0)


@dataclass
class RoundResult:
    interval: float  # seconds from the first path (or kernel call) to the return
    attempted: int
    failed: int
    paths: int
    steps: int
    messages: list = field(default_factory=list)
    s_steps: int = 0  # accepted steps in the stochastic regime
    events: int = 0
    written: int = 0  # bytes of the tables a traced round wrote


class FieldWorkload:
    """A ``stochtame ensemble`` run from a JSON config, checked path by path."""

    def __init__(self, name, config, paths_per_cutoff, capture):
        self.name = name
        self.config = config
        self.paths_per_cutoff = paths_per_cutoff
        self.capture = capture  # the experiments binding each path goes through

    @property
    def T(self) -> float:
        return float(self.config["ensemble"]["T"])

    @property
    def d_list(self):
        return self.config["ensemble"]["d_list"]

    def path_seed(self, seed: int, index: int) -> int:
        """First path seed of round ``index``; every cutoff runs the seeds
        ``path_seed ... path_seed + paths_per_cutoff - 1``."""
        return seed * 100_000 + index * self.paths_per_cutoff

    def write_config(self, run_dir: Path, config: dict, suffix: str = "") -> Path:
        path = run_dir / f"{self.name}{suffix}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True))
        return path

    def round_config(self, noise) -> dict:
        """The config with the advised noise written out, so that rounds
        run the advisor's (theta, alpha) without repeating its audit."""
        config = dict(self.config)
        config["noise"] = {"theta": noise.theta, "alpha": noise.alpha, "case": noise.case_label}
        return config

    def argv(self, config_path, seed, index, out_dir):
        return [
            "ensemble",
            "--config", str(config_path),
            "--seed", str(self.path_seed(seed, index)),
            "--paths", str(self.paths_per_cutoff),
            "--out", str(out_dir),
            "--jobs", "1",
            "--quiet",
        ]

    def failed_round(self, error) -> RoundResult:
        n = self.paths_per_cutoff * len(self.d_list)
        return RoundResult(0.0, n, n, 0, 0, [error])

    def check_round(self, records, out_dir, drift) -> RoundResult:
        """Per-path checks, then the round checks, which fail the whole round."""
        expected = self.paths_per_cutoff * len(self.d_list)
        result = RoundResult(0.0, expected, 0, 0, 0)
        failed_paths = expected - len(records)
        for cutoff, rec in records:
            fails = checks.check_field_path(rec, cutoff, LADDER, self.T)
            if not fails:
                fails = self.state_checks(rec, cutoff, drift)
            if fails:
                failed_paths += 1
                result.messages.extend(f"seed {rec.seed} d={cutoff}: {m}" for m in fails)
            result.paths += 1
            result.steps += rec.n_rows - 1  # save stride 1: one row per accepted step
            result.s_steps += int(np.sum(np.asarray(rec.regime[1:]) == "S"))
            result.events += len(rec.events)
        round_fails = self.round_checks(out_dir, records)
        if round_fails:
            result.messages.extend(round_fails)
            failed_paths = expected
        result.failed = failed_paths
        return result

    def state_checks(self, rec, cutoff, drift) -> list[str]:
        raise NotImplementedError

    def round_checks(self, out_dir, records) -> list[str]:
        return checks.check_tables(out_dir, records, aldous=False)


class BurgersEnsemble(FieldWorkload):
    def state_checks(self, rec, cutoff, drift):
        from stochtame.spectral import GalerkinProjector, galerkin_project

        state = rec.final_state
        a = galerkin_project(drift(state), GalerkinProjector(cutoff))
        return checks.check_burgers_drift(a.coeffs, state.coeffs, cutoff)

    def round_checks(self, out_dir, records):
        return checks.check_tables(out_dir, records, aldous=True)


class RswControl(FieldWorkload):
    def state_checks(self, rec, cutoff, drift):
        ctl = self.config["control"]
        return checks.check_height_tendency(drift(rec.final_state).coeffs) + checks.check_schedule(
            rec.events, ctl["K"], ctl["C"]
        )


BURGERS = BurgersEnsemble(
    "burgers_ensemble",
    {
        "model": {
            "kind": "Burgers1D",
            "resolution": 256,
            "initial": {"kind": "sine", "amplitude": 1.0, "space": "D"},
        },
        "noise": {"advisor": True, "case": "I", "advisor_epsilon": 0.25, "advisor_level": 2.0},
        # T = 0.5 stays clear of the deterministic shock at t = 1, where the
        # d = 64 paths make F0 excursions past 1000 and need up to 67000
        # steps; dt_min = dt * 2^-40 lets rare stiff paths finish instead of
        # ending as dt_underflow blow-ups
        "stepper": {
            "scheme": "TamedEulerMaruyama",
            "dt": 1e-3,
            "t_end": 0.5,
            "dt_min_exponent": 40,
        },
        "ensemble": {
            "base_seed": 11,
            "d_list": [8, 16, 32, 64],
            "T": 0.5,
            "epsilon_target": 0.1,
            "delta_grid": [0.004, 0.01, 0.04, 0.1, 0.25],
        },
        "output": {"save_stride": 1},
    },
    paths_per_cutoff=4,
    capture="integrate_path",
)

RSW = RswControl(
    "rsw_control",
    {
        # 32 x 32 rather than 64 x 64: the larger grid's rates did not repeat
        # from run to run (README, rsw_control)
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
        # stiff_cap 0.1 and a floor of dt * 2^-20: at stiff_cap 0.5 and
        # dt * 2^-12 about one path in a thousand made an Euler-Maruyama norm
        # excursion past 1e6 and ended as a dt_underflow blow-up
        "stepper": {
            "scheme": "EulerMaruyama",
            "dt": 2e-3,
            "t_end": 0.3,
            "dt_min_exponent": 20,
            "stiff_cap": 0.1,
            "growth_trigger": 1.0,
        },
        # L_hi = sqrt(e^6 - 4) = 19.99 lies below the initial F0 norms (20.6 at
        # d = 8, 28.1 at d = 10), so tau fires at t = 0; rho fires when the
        # noise brings the norm down to L_lo = sqrt(e^3 - 4) = 4.01.  No
        # escalation: each path is one short stochastic phase, then RK4.
        "control": {"enabled": True, "K": 3.0, "C": 4.0},
        "ensemble": {"base_seed": 5, "d_list": [8, 10], "T": 0.3, "epsilon_target": 0.1},
        "output": {"save_stride": 1},
    },
    paths_per_cutoff=2,
    capture="control_run",
)


class ScalarWorkload:
    """The 1D laboratory: exp-law record, Revuz-Yor tails, GBM strong order."""

    name = "scalar_lab"
    EPSILON = 1.0
    EXP = {"n_paths": 10_000, "dt": 0.01, "T": 30.0}
    RY = {"x_grid": (0.5, 1.0, 1.5, 2.0), "y_grid": (0.5, 1.0, 2.0), "n_paths": 100_000}
    GBM = {"a": 1.0, "b": 1.0, "n_paths": 10_000, "dt_base": 2.0**-6, "levels": (0, 1, 2, 3), "T": 1.0}
    STUDIES = 3

    def seeds(self, seed: int, index: int) -> tuple[int, int, int]:
        base = seed * 100_000 + index * self.STUDIES
        return base, base + 1, base + 2

    def counts(self) -> tuple[int, int]:
        """(paths, kernel steps x paths) of one round, from the study sizes."""
        e, r, g = self.EXP, self.RY, self.GBM
        n_exp = int(round(e["T"] / e["dt"]))
        gbm_steps = sum(int(round(g["T"] / (g["dt_base"] * 2.0**-lv))) for lv in g["levels"])
        paths = e["n_paths"] + r["n_paths"] + g["n_paths"] * len(g["levels"])
        steps = e["n_paths"] * n_exp + r["n_paths"] * len(r["y_grid"]) + g["n_paths"] * gbm_steps
        return paths, steps

    def run_round(self, seed: int, index: int):
        """The three studies; returns their outputs for the checks."""
        from stochtame import experiments

        s_exp, s_ry, s_gbm = self.seeds(seed, index)
        exp = experiments.exp_law_study(epsilon=self.EPSILON, seed=s_exp, **self.EXP)
        ry = experiments.revuz_yor_study(seed=s_ry, **self.RY)
        slope = gbm_order_fit(s_gbm, **self.GBM)
        return exp, ry, slope

    def failed_round(self, error) -> RoundResult:
        return RoundResult(0.0, self.STUDIES, self.STUDIES, 0, 0, [error])

    def check_round(self, outputs) -> RoundResult:
        exp, ry, slope = outputs
        paths, steps = self.counts()
        result = RoundResult(0.0, self.STUDIES, 0, paths, steps)
        for fails in (
            checks.check_exp_law(exp, self.EPSILON),
            checks.check_revuz_yor(ry, self.RY["n_paths"]),
            checks.check_order(slope),
        ):
            if fails:
                result.failed += 1
                result.messages.extend(fails)
        return result


def gbm_order_fit(seed, a, b, n_paths, dt_base, levels, T):
    """Least-squares slope of log2(mean relative terminal error) over levels.

    The finest Brownian increments are drawn here; coarser levels sum them
    pairwise, so every level runs on the same paths.  The program's tamed
    kernel advances each level and ``gbm_exact`` gives the reference at the
    path's own W_T.
    """
    from stochtame import _backend
    from stochtame.noise import GbmSpec, gbm_exact

    spec = GbmSpec(a, b, 1.0)
    top = max(levels)
    h_fine = dt_base * 2.0**-top
    n_fine = int(round(T / h_fine))
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((n_fine, n_paths)) * math.sqrt(h_fine)
    exact = gbm_exact(spec, dw.sum(axis=0), T)
    errs = {}
    for level in sorted(levels, reverse=True):
        x = np.full(n_paths, spec.f0)
        _backend.tamed_gbm_chunk(x, a, b, np.ascontiguousarray(dw), dt_base * 2.0**-level)
        errs[level] = float(np.mean(np.abs(x - exact) / exact))
        dw = dw[0::2] + dw[1::2]
    lv = np.asarray(sorted(errs))
    return float(-np.polyfit(lv, np.log2([errs[v] for v in lv]), 1)[0])


SCALAR = ScalarWorkload()

WORKLOADS = {w.name: w for w in (BURGERS, RSW, SCALAR)}
