"""The acceptance suite: eight numbered criteria, each with its stated sizes
and tolerances, runnable headlessly (``stochtame verify``) or through pytest.

Every criterion is deterministic given the suite seed.  Results carry the
measured quantities so a failing line is self-explanatory.

Experimental design notes (the choices are fixed here, not tuned per run):

* AC-4 uses three arms on the inviscid 1D Burgers model at n = 1024.  The
  deterministic arm runs with a blow-up detector at 10x the initial H1 norm,
  calibrated once against the characteristics oracle t* = 1 (the truncated
  system crosses during its post-shock thermalisation ramp).  The stochastic
  arms use the spec-default detector 1e8*(1+||X0||): the tamed norm is an
  (almost surely finite) heavy-tailed local martingale, so a tight detector
  would assert far more than the theory (which bounds P(sup >= K) only for
  large K).  The always-on arm takes the advised taming at the smallest
  admissible envelope level; the switching arm follows the compressible
  inviscid pairing (noise norm F1) per the case table, which the control
  design leaves to configuration for inviscid models.
* AC-5/AC-6 share one tamed-Burgers ensemble at cutoffs 8..64 plus a
  switching shallow-water ensemble at 32^2 for the top-norm report.
* Every ensemble, AC-4's noisy arms and AC-5's, is a run config with the
  advised (theta, alpha) written in, run by
  :func:`~stochtame.experiments.run_ensemble` as ``stochtame ensemble``
  runs it.  AC-4's noisy arms and AC-5's Burgers ensemble share one stepper
  section.  AC-8 validates the schedules of AC-4's switching arm and, when
  AC-5 ran, of its shallow-water ensemble.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .config import InitialSection, ModelSection, build_noise, initial_state, parse_config
from .experiments import (
    SummaryStats,
    advised_noise,
    exp_law_study,
    gbm_strong_error_order,
    gbm_study,
    revuz_yor_study,
    run_ensemble,
    uniform_control_report,
)
from .integrators import StepperConfig, integrate_path
from .models import DriftOperator, ModelParams
from .noise import (
    GbmSpec,
    NoiseSpec,
    ScaleFunctionSpec,
    WienerPath,
    gbm_scale_closed_form,
    scale_function,
)
from .spectral import (
    GalerkinProjector,
    SpaceLadder,
    SpectralField,
    TorusGrid,
    dealias,
    galerkin_project,
    interpolation_check,
    random_field,
    sobolev_norm,
)

SUITE_SEED = 20260809


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        core = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"{self.name} {status} ({self.runtime_s:.1f}s) {core}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return v


# --- shared Burgers experiment pieces ----------------------------------------


def burgers_advised_noise(case: str):
    """The (theta, alpha) advised for a case at epsilon 0.25 from an audit
    of the inviscid Burgers drift at seed 11.

    The level 1.45 is the smallest admissible envelope level (the formula
    needs level > sqrt(C/(1-2*eps)) = sqrt(2)), engaging the taming just
    above the unit initial norm scale.
    """
    return advised_noise(DriftOperator("Burgers1D"), case, 0.25, 1.45, seed=11)


def _noisy_burgers(
    advised, resolution, amplitude, ensemble, save_stride, **sections
) -> SummaryStats:
    """The ensemble of a tamed inviscid Burgers run config to T = 2 from a
    sine of ``amplitude``, with the advised noise written in: AC-4's noisy
    arms and AC-5's Burgers ensemble, which share this stepper section."""
    config = {
        "model": {
            "kind": "Burgers1D", "resolution": resolution,
            "initial": {"kind": "sine", "amplitude": amplitude},
        },
        "noise": {"theta": advised.theta, "alpha": advised.alpha, "case": advised.case_label},
        "stepper": {
            "scheme": "EulerMaruyama", "dt": 1e-3, "t_end": 2.0, "dt_min_exponent": 40,
            "stiff_cap": 0.02,
        },
        "ensemble": {"T": 2.0, **ensemble},
        "output": {"save_stride": save_stride},
        **sections,
    }
    cfg = parse_config(json.dumps(config))
    return run_ensemble(cfg, build_noise(cfg))


# --- the criteria -------------------------------------------------------------


#: AC-1's geometric Brownian motion: dX = X dt + 2 X dW from X_0 = 1
AC1_SPEC = GbmSpec(a=1.0, b=2.0, f0=1.0)
#: the motion whose tamed steps AC-1's order clause measures: b = 1
AC1_ORDER_SPEC = GbmSpec(a=1.0, b=1.0, f0=1.0)
#: the band of the fitted strong order, 1/2 within sampling noise
AC1_ORDER_BAND = (0.3, 0.7)


def ac1_decay_clause(seed: int = SUITE_SEED):
    """The fraction of 1000 exact GBM samples below 1e-2 at T = 10, the
    probability p the law gives it, and the band it must lie in.

    ``log X_T = (a - b^2/2) T + b W_T`` is normal with mean -10 and variance
    40 for AC-1's a = 1, b = 2, T = 10, so ``p = P(-10 + 2 W_10 < log 1e-2) =
    Phi((log 1e-2 + 10) / sqrt(40)) = Phi(0.853) = 0.803``.  The samples are
    independent, so the count below is Binomial(n, p): the fraction has
    standard deviation ``sqrt(p (1 - p) / n)``, 0.0126 at n = 1000, and the
    band is three of them, ``|fraction - p| <= 0.038``.  A correct sampler
    leaves it with probability about 0.003.  A sampler that drops the Ito
    term ``-b^2 T/2`` puts 0.01 of the suite seed's samples below, and one
    at b = 1 puts 0.001 (its law gives 0.0012).
    """
    a, b, T, n = AC1_SPEC.a, AC1_SPEC.b, 10.0, 1000
    rows = gbm_study([AC1_SPEC], n_paths=n, T=T, seed=seed, threshold=1e-2)
    p = float(sps.norm.cdf((math.log(1e-2) - (a - b * b / 2.0) * T) / (b * math.sqrt(T))))
    return rows[0].fraction_below, p, 3.0 * math.sqrt(p * (1.0 - p) / n)


def ac1_order_clause(seed: int = SUITE_SEED + 1) -> float:
    """The strong order of the tamed scheme on 1000 paths of dX = X dt + X dW
    to T = 1, fitted over the steps 2^-6 to 2^-9.

    The tamed Euler scheme has strong order 1/2 (Hutzenthaler, Jentzen and
    Kloeden, Ann. Appl. Probab. 22 (2012)); the fit reads 0.54-0.60 on nine
    seeds, and a kernel without the noise term reads about 0.  The decay
    clause's b = 2 would not do: there the noise taming denominator
    ``1 + h (bX)^2`` is far from 1 on the lognormal tail paths at every step
    down to 2^-13, so their error halves at a pre-asymptotic slope (the
    :mod:`~stochtame.integrators` docstring), and one halving at dt 2^-10
    read 0.20-0.54 across seeds.
    """
    return gbm_strong_error_order(AC1_ORDER_SPEC, 2.0**-6, 1.0, 1000, seed)["order"]


def ac1_gbm_stabilization(seed: int = SUITE_SEED) -> CriterionResult:
    """Noise-induced decay of the geometric Brownian motion plus the strong
    order of the tamed scheme under step halving."""
    t0 = time.time()
    frac, p, band = ac1_decay_clause(seed)
    order = ac1_order_clause(seed + 1)
    decay_ok = abs(frac - p) <= band
    order_ok = AC1_ORDER_BAND[0] <= order <= AC1_ORDER_BAND[1]
    return CriterionResult(
        name="AC-1",
        passed=decay_ok and order_ok,
        runtime_s=time.time() - t0,
        details={
            "decay_fraction": frac,
            "closed_form_prob": p,
            "band": band,
            "strong_order": order,
            "decay_ok": decay_ok,
            "order_ok": order_ok,
        },
    )


def ac2_exponential_law(seed: int = SUITE_SEED) -> CriterionResult:
    """Exp(1) law of the martingale record for a driftless Brownian integrand."""
    t0 = time.time()
    report = exp_law_study(epsilon=1.0, n_paths=10_000, dt=1e-3, T=50.0, seed=seed)
    survival_ok = abs(report.survival_at_1 - math.exp(-1.0)) <= 0.03
    ks_ok = report.ks_pvalue > 0.01
    return CriterionResult(
        name="AC-2",
        passed=survival_ok and ks_ok,
        runtime_s=time.time() - t0,
        details={
            "survival_at_1": report.survival_at_1,
            "target": math.exp(-1.0),
            "ks_pvalue": report.ks_pvalue,
        },
    )


def ac3_martingale_tail_bound(seed: int = SUITE_SEED) -> CriterionResult:
    """Brownian suprema against exp(-x^2/2y) and the reflection values.

    The 5x5 grid keeps x/sqrt(y) <= 2.9 so that even the smallest bound
    (1.8e-2) stays resolvable by a Wilson interval at 1e4 paths; the upper
    CI edge must sit below the bound at every point.
    """
    t0 = time.time()
    rows = revuz_yor_study(
        x_grid=(0.5, 0.75, 1.0, 1.5, 2.0),
        y_grid=(0.5, 1.0, 2.0, 4.0, 8.0),
        n_paths=10_000,
        seed=seed,
    )
    bound_ok = all(r["ci_hi"] <= r["bound"] for r in rows)
    exact_ok = all(r["ci_lo"] <= r["exact"] <= r["ci_hi"] for r in rows)
    worst = max(rows, key=lambda r: r["ci_hi"] - r["bound"])
    return CriterionResult(
        name="AC-3",
        passed=bound_ok and exact_ok,
        runtime_s=time.time() - t0,
        details={
            "grid_points": len(rows),
            "bound_respected": bound_ok,
            "exact_within_ci": exact_ok,
            "worst_margin": worst["bound"] - worst["ci_hi"],
        },
    )


def ac4_blowup_vs_taming(
    seed: int = SUITE_SEED, n_paths: int = 200
) -> tuple[CriterionResult, SummaryStats]:
    """Blow-up of the deterministic Burgers flow vs survival under taming;
    the result and the switching arm's ensemble, whose schedules AC-8 checks."""
    t0 = time.time()
    grid = TorusGrid(1, 1024)
    u0 = initial_state(ModelSection("Burgers1D", initial=InitialSection("sine")), grid)
    model = DriftOperator("Burgers1D")

    # (a) deterministic blow-up inside the characteristics window
    det_stepper = StepperConfig(
        scheme="RK4Deterministic",
        dt=1e-3,
        t_end=2.0,
        blowup_threshold=10.0 * sobolev_norm(u0, 1.0),
        dt_min_exponent=12,
    )
    det = integrate_path(u0, model, None, det_stepper, save_stride=10)
    det_ok = det.status == "blowup" and det.blowup is not None and 0.9 <= det.blowup[0] <= 1.1
    blowup_time = det.blowup[0] if det.blowup else None

    # the noisy arms run at the dealias cutoff of the grid
    d = grid.dealias_cutoff
    # (b) always-on taming, case I advised at the smallest admissible level
    advised = burgers_advised_noise("I")
    tamed = _noisy_burgers(
        advised, 1024, 1.0, {"n_paths": n_paths, "base_seed": seed, "d_list": [d]}, 25
    ).paths(d)
    tamed_fraction = sum(p.status == "completed" for p in tamed) / n_paths

    # (c) switching control from half amplitude, compressible-inviscid pairing
    advised2 = burgers_advised_noise("II")
    control = _noisy_burgers(
        advised2, 1024, 0.5, {"n_paths": n_paths, "base_seed": seed + 10_000, "d_list": [d]}, 25,
        control={"enabled": True, "K": math.log(1.0 + 0.9**2) / 2.0, "C": 1.0},
    )
    switching = control.paths(d)
    control_fraction = sum(p.status == "completed" for p in switching) / n_paths
    pair_fraction = (
        sum(p.status == "completed" and p.n_switch_pairs >= 1 for p in switching) / n_paths
    )

    passed = (
        det_ok
        and tamed_fraction >= 0.80
        and control_fraction >= 0.80
        and pair_fraction >= 0.80
    )
    result = CriterionResult(
        name="AC-4",
        passed=passed,
        runtime_s=time.time() - t0,
        details={
            "deterministic_blowup_t": blowup_time,
            "window": "[0.9, 1.1]",
            "tamed_survival": tamed_fraction,
            "control_survival": control_fraction,
            "control_pair_fraction": pair_fraction,
            "advised_theta_I": advised.theta,
            "advised_alpha_I": advised.alpha,
            "advised_theta_II": advised2.theta,
            "advised_alpha_II": advised2.alpha,
        },
    )
    return result, control


def ac5_uniform_control(
    seed: int = SUITE_SEED, n_paths: int = 200
) -> tuple[CriterionResult, SummaryStats, SummaryStats]:
    """Cutoff-uniform norm control for tamed Burgers ensembles plus the
    top-norm report for the switching shallow-water runs; the result, the
    Burgers ensemble AC-6 tabulates and the shallow-water ensemble whose
    schedules AC-8 checks."""
    t0 = time.time()
    advised = burgers_advised_noise("I")
    ensemble = {
        "n_paths": n_paths, "base_seed": seed, "d_list": [8, 16, 32, 64],
        "delta_grid": [0.004, 0.01, 0.04, 0.1, 0.4],
    }
    stats = _noisy_burgers(advised, 256, 1.0, ensemble, 5)
    report = uniform_control_report(stats, epsilon_target=0.1)
    trend_ok = report.trend_pvalue is None or report.trend_pvalue > 0.05

    # switching shallow-water ensemble, top-of-ladder report
    rsw = DriftOperator("RSW_Inviscid", ModelParams(f_coriolis=1.0, rossby=1.0, froude=1.0))
    rsw_adv = advised_noise(rsw, "II", 0.25, 2.0, seed + 5, n_samples=120)
    rsw_config = {
        "model": {
            "kind": "RSW_Inviscid", "resolution": 32,
            "initial": {"kind": "rest_height", "amplitude": 0.4, "seed": 97, "decay_exponent": 6.5},
        },
        "noise": {"theta": rsw_adv.theta, "alpha": rsw_adv.alpha, "case": "II"},
        "stepper": {
            "scheme": "EulerMaruyama", "dt": 2e-3, "t_end": 1.0, "dt_min_exponent": 30,
            "stiff_cap": 0.05,
        },
        "control": {
            "enabled": True, "K": math.log(1.0 + 1.35**2) / 2.0, "C": 1.0,
            "max_stochastic_duration": 0.5,
        },
        "ensemble": {"n_paths": 48, "base_seed": seed + 70_000, "d_list": [8, 10], "T": 1.0},
        "output": {"save_stride": 5},
    }
    rsw_cfg = parse_config(json.dumps(rsw_config))
    rsw_stats = run_ensemble(rsw_cfg, build_noise(rsw_cfg))
    rsw_d_report = uniform_control_report(rsw_stats, epsilon_target=0.1, space="D")

    passed = report.attained and trend_ok and rsw_d_report.K1 is not None
    result = CriterionResult(
        name="AC-5",
        passed=passed,
        runtime_s=time.time() - t0,
        details={
            "K1": report.K1,
            "K2": report.K2,
            "trend_pvalue": report.trend_pvalue,
            "per_d_at_K1": report.per_d_at_K1,
            "rsw_D_K1": rsw_d_report.K1,
        },
    )
    return result, stats, rsw_stats


def ac6_increment_statistics(stats: SummaryStats) -> CriterionResult:
    """Stopping-time increment table of AC-5's Burgers ensemble decreasing
    below target as delta -> 0."""
    t0 = time.time()
    table = stats.aldous_table()
    delta_min = min(stats.delta_grid)
    small = [r for r in table if r["delta"] == delta_min]
    small_ok = all(r["n"] > 0 and r["p_hat"] <= 0.1 for r in small)
    per_d = {r["d"]: r["p_hat"] for r in small}
    return CriterionResult(
        name="AC-6",
        passed=small_ok,
        runtime_s=time.time() - t0,
        details={
            "delta_min": delta_min,
            "p_at_delta_min": per_d,
            "eta": small[0]["eta"] if small else None,
        },
    )


def ac7_structural(seed: int = SUITE_SEED) -> CriterionResult:
    """Structural identities at their stated tolerances."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    failures: list[str] = []

    # interpolation inequality, C = 1, zero violations over 1e4 fields
    grid1 = TorusGrid(1, 64)
    grid2 = TorusGrid(2, 16)
    ladders = [SpaceLadder(0.0, 1.0, 3.0, 4.0), SpaceLadder(0.0, 2.0, 3.0, 4.0)]
    violations = 0
    for i in range(10_000):
        grid = grid1 if i % 2 == 0 else grid2
        lad = ladders[i % 2]
        f = random_field(grid, 1, 5.5 + (i % 3), 0.5 + (i % 5), seed + i)
        lhs, rhs = interpolation_check(f, lad)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    if violations:
        failures.append(f"interpolation violations: {violations}")

    # projection idempotence, support and contraction
    for i in range(50):
        f = random_field(grid1, 1, 5.0, 1.0, seed + 20_000 + i)
        p = GalerkinProjector(int(rng.integers(1, grid1.nyquist)))
        pf = galerkin_project(f, p)
        if not np.array_equal(pf.coeffs, galerkin_project(pf, p).coeffs):
            failures.append("projection not idempotent")
        if np.any(pf.coeffs[:, grid1.half.kinf > p.cutoff]):
            failures.append("projection keeps a mode beyond its cutoff")
        for s in (0.0, 1.0, 2.5):
            if sobolev_norm(pf, s) > sobolev_norm(f, s) * (1 + 1e-12):
                failures.append("projection not contracting")

    # Biot-Savart identities
    from .models import biot_savart, curl, divergence, rsw_drift

    for i in range(20):
        om = random_field(grid2, 1, 5.0, 1.0, seed + 30_000 + i, zero_mean=True)
        u = biot_savart(om)
        div_u = float(np.max(np.abs(divergence(u).coeffs)))
        curl_err = float(np.max(np.abs(curl(u).coeffs - om.coeffs)))
        scale = max(float(np.max(np.abs(om.coeffs))), 1e-30)
        if div_u > 1e-12 * scale or curl_err > 1e-12 * scale:
            failures.append(f"biot-savart identities: div {div_u}, curl {curl_err}")
            break

    # 2D enstrophy pairing
    from .spectral import inner_product

    vort = DriftOperator("Vorticity2D")
    for i in range(20):
        om = random_field(TorusGrid(2, 32), 1, 5.0, 1.0, seed + 40_000 + i, zero_mean=True)
        om = dealias(om)
        pairing = inner_product(om, vort(om), 0.0)
        if abs(pairing) > 1e-10 * sobolev_norm(om, 0.0) ** 2:
            failures.append(f"enstrophy pairing {pairing}")
            break

    # shallow-water mass conservation
    rsw_params = ModelParams(nu=0.05, eta=0.05)
    for i in range(20):
        state = random_field(TorusGrid(2, 32), 3, 5.0, 0.5, seed + 50_000 + i)
        state.coeffs[2, 0, 0] = 1.0
        tendency = rsw_drift(state, rsw_params, viscous=True)
        mean_h_dot = abs(complex(tendency.coeffs[2, 0, 0]))
        if mean_h_dot > 1e-12:
            failures.append(f"mass conservation {mean_h_dot}")
            break

    # scale function quadrature vs closed form
    worst_rel = 0.0
    for i in range(100):
        a = float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(0.5, 2.5))
        c = float(rng.uniform(0.5, 2.0))
        x = float(rng.uniform(0.2, 5.0))
        spec = ScaleFunctionSpec(lambda y, a=a: a * y, lambda y, b=b: b * y, c=c)
        got = scale_function(spec, x)
        want = gbm_scale_closed_form(a, b, c, x)
        if abs(want) > 1e-12:
            worst_rel = max(worst_rel, abs(got - want) / abs(want))
    if worst_rel > 1e-6:
        failures.append(f"scale function rel err {worst_rel}")

    # config round trip
    from .config import RunConfig, config_hash, parse_config, serialize_config

    cfg = RunConfig()
    if parse_config(serialize_config(cfg)) != cfg:
        failures.append("config round trip")
    _ = config_hash(cfg)

    # field snapshot round trip (bit exact)
    import io as _io

    from .spectral import load_field, save_field

    f = random_field(grid2, 2, 5.0, 1.0, seed + 60_000)
    buf = _io.BytesIO()
    save_field(buf, f)
    buf.seek(0)
    g = load_field(buf)
    if not np.array_equal(f.coeffs, g.coeffs):
        failures.append("snapshot round trip not bit exact")

    # bitwise seed reproducibility of a stochastic path
    lad = SpaceLadder(0.0, 1.0, 2.0, 3.0)
    from .models import FourierMultiplierDrift

    heat = FourierMultiplierDrift(lad, lambda ksq: -ksq)
    x0 = SpectralField.from_physical(grid1, np.sin(grid1.coordinates()[0]))
    noise = NoiseSpec(0.7, 1.0, "F0", "I")
    recs = []
    for _ in range(2):
        wiener = WienerPath(seed, 1e-3)
        st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.25)
        recs.append(integrate_path(x0, heat, noise, st, wiener, seed=seed))
    same = (
        np.array_equal(recs[0].norm_F0, recs[1].norm_F0)
        and np.array_equal(recs[0].M, recs[1].M)
        and np.array_equal(recs[0].times, recs[1].times)
    )
    if not same:
        failures.append("seeded path not bitwise reproducible")

    return CriterionResult(
        name="AC-7",
        passed=not failures,
        runtime_s=time.time() - t0,
        details={"failures": failures or "none", "interp_violations": violations,
                 "scale_fn_worst_rel": worst_rel},
    )


def ac8_schedule_validity(control: SummaryStats, rsw: SummaryStats | None) -> CriterionResult:
    """Every switching run passes schedule validation with positive dwell.

    The runs are AC-4's switching arm and, when AC-5 ran, its shallow-water
    ensemble.  The dwell is the switching arm's only: the shallow-water paths
    start above L_hi and fire tau at t = 0, so their dwell is 0.
    """
    t0 = time.time()
    runs = [p for d in control.by_d for p in control.paths(d)]
    bad = sum(not p.schedule_passed for p in runs)
    dwells = [p.alpha_dwell for p in runs if p.alpha_dwell is not None]
    dwell_ok = all(a > 0 for a in dwells)
    # None when AC-5 ran no shallow-water ensemble: nothing was checked
    rsw_ok = None if rsw is None else all(p.schedule_passed for d in rsw.by_d for p in rsw.paths(d))
    return CriterionResult(
        name="AC-8",
        passed=bad == 0 and dwell_ok and rsw_ok is not False,
        runtime_s=time.time() - t0,
        details={
            "validated_runs": len(runs),
            "failures": bad,
            "min_dwell": min(dwells) if dwells else None,
            "rsw_schedules_ok": rsw_ok,
        },
    )


ALL_CRITERIA = ("AC-1", "AC-2", "AC-3", "AC-4", "AC-5", "AC-6", "AC-7", "AC-8")
#: the criteria that run in seconds: CI's ``stochtame verify --suite trivial``
TRIVIAL_CRITERIA = ("AC-1", "AC-3", "AC-7")


def run_acceptance(names=None, seed: int = SUITE_SEED, echo=print) -> list[CriterionResult]:
    """Run the requested criteria (default: all), handing AC-4's switching
    ensemble to AC-8 and AC-5's ensembles to AC-6 and AC-8; prints one line
    per criterion as it finishes."""
    names = tuple(names) if names else ALL_CRITERIA
    results = []
    control = rsw = None

    def emit(res):
        results.append(res)
        if echo:
            echo(res.line())

    if "AC-1" in names:
        emit(ac1_gbm_stabilization(seed))
    if "AC-2" in names:
        emit(ac2_exponential_law(seed))
    if "AC-3" in names:
        emit(ac3_martingale_tail_bound(seed))
    if "AC-4" in names or "AC-8" in names:
        res4, control = ac4_blowup_vs_taming(seed)
        if "AC-4" in names:
            emit(res4)
    if "AC-5" in names or "AC-6" in names:
        res5, burgers, rsw = ac5_uniform_control(seed)
        if "AC-5" in names:
            emit(res5)
        if "AC-6" in names:
            emit(ac6_increment_statistics(burgers))
    if "AC-7" in names:
        emit(ac7_structural(seed))
    if "AC-8" in names:
        emit(ac8_schedule_validity(control, rsw))
    return results
