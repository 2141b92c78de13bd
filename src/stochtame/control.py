"""Deterministic/stochastic switching: run the PDE until the norm gets large,
tame it with noise until it comes back down, repeat.

The scale function of the controller is ``phi(m) = log(C + m^2)`` applied to
``m = ||X||_F0`` (offset C keeps it regular at m = 0).  With a threshold K the
switching levels are ``L_hi = phi^-1(2K)`` and ``L_lo = phi^-1(K)``, and the
stopping-time ladder is

    tau_i = inf{t >= rho_{i-1} : ||X_t|| >= L_hi},
    rho_i = inf{t >= tau_i    : ||X_t|| <= L_lo},    rho_{-1} = 0.

The system follows the deterministic drift on [rho_{i-1}, tau_i) and the
stochastically tamed equation on [tau_i, rho_i).  Crossings are localised by
dyadic step bisection down to ``dt_min``; the driving noise refines through
the Brownian bridge, so localisation never changes the path's law.

If a stochastic phase fails to come back down (the incompressible regime
admits this), a configurable maximum phase duration doubles K and continues,
recording the escalation.

During each stochastic phase the controller logs the envelope residual: the
observed excess of ``phi(||X_t||)`` over
``phi(||X_tau||) + (M_t - eps/2 <M>_t)`` per unit time, where M is the
phase's normalised martingale ``int 2<X, B(X)>_F0 / (C + ||X||_F0^2) dW``.
Only finiteness of the residual is asserted; its constants are model
dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .integrators import (
    SPACE_INDEX,
    StepperConfig,
    _RecordBuilder,
    _StateCache,
    _single_step,
    rk4_deterministic_step,
)
from .noise import MartingaleDiagnostics, NoiseSpec, WienerPath
from .spectral import GalerkinProjector, NonFiniteFieldError, SpectralField, galerkin_project


@dataclass(frozen=True)
class ControlSchedule:
    """Switching threshold K, scale offset C and the escalation policy."""

    K: float
    C: float = 1.0
    max_stochastic_duration: float | None = None

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("scale offset C must be positive")
        if math.isfinite(self.K) and math.exp(self.K) <= self.C:
            raise ValueError("K must satisfy exp(K) > C so that L_lo is real")

    def levels(self, K: float | None = None) -> tuple[float, float]:
        """(L_hi, L_lo) = (phi^-1(2K), phi^-1(K)) for the K in force."""
        K = self.K if K is None else K
        if math.isinf(K):
            return math.inf, math.inf
        return scale_inverse(2.0 * K, self), scale_inverse(K, self)


@dataclass
class ControlEvent:
    """One switching event; levels record the K in force when it fired."""

    kind: str  # "tau" | "rho" | "escalate"
    index: int
    time: float
    norm: float
    norm_before: float
    level_hi: float
    level_lo: float
    K: float

    def as_dict(self):
        return {
            "kind": self.kind,
            "index": self.index,
            "time": self.time,
            "norm": self.norm,
            "norm_before": self.norm_before,
            "level_hi": self.level_hi,
            "level_lo": self.level_lo,
            "K": self.K,
        }


@dataclass
class RegimeState:
    current: str = "D"  # "D" deterministic | "S" stochastic
    since: float = 0.0


def scale_value(m: float, sched: ControlSchedule) -> float:
    """phi(m) = log(C + m^2), strictly increasing on m >= 0."""
    if m < 0:
        raise ValueError("norms are nonnegative")
    return math.log(sched.C + m * m)


def scale_inverse(y: float, sched: ControlSchedule) -> float:
    """phi^-1(y) = sqrt(exp(y) - C); requires y >= log C."""
    if math.isinf(y):
        return math.inf
    if y < math.log(sched.C) - 1e-12:
        raise ValueError(f"y = {y} below the range minimum log(C) = {math.log(sched.C)}")
    return math.sqrt(max(math.exp(y) - sched.C, 0.0))


@dataclass
class ValidationReport:
    passed: bool
    failures: list = dataclass_field(default_factory=list)
    alpha_dwell: float | None = None
    n_pairs: int = 0
    residuals_finite: bool = True

    def __bool__(self):
        return self.passed


def control_run(
    X0: SpectralField,
    A,
    B: NoiseSpec | None,
    sched: ControlSchedule,
    stepper: StepperConfig,
    T: float,
    wiener: WienerPath | None = None,
    *,
    cutoff: int | None = None,
    seed: int | None = None,
    config_hash: str = "",
):
    """Run the switching strategy up to time T; returns a TrajectoryRecord.

    The deterministic phases use RK4; the stochastic phases use the stepper's
    scheme.  With ``theta = 0`` or ``K = inf`` this degenerates to a purely
    deterministic integration.
    """
    ladder = A.ladder
    noise_available = B is not None and B.theta > 0.0
    if noise_available and wiener is None:
        raise ValueError("a WienerPath is required when the noise is active")

    projector = GalerkinProjector(cutoff if cutoff is not None else X0.grid.dealias_cutoff)
    X = galerkin_project(X0, projector)
    cache = _StateCache(X, A, projector, ladder)
    norm = cache.norms()[1]
    noise_idx = SPACE_INDEX[B.norm_space] if noise_available else None
    threshold = (
        stepper.blowup_threshold if stepper.blowup_threshold is not None else 1e8 * (1.0 + norm)
    )

    current_K = sched.K
    L_hi, L_lo = sched.levels(current_K)
    diag = MartingaleDiagnostics(stepper.mart_epsilon)
    rec = _RecordBuilder(
        seed if seed is not None else (wiener.seed if wiener is not None else None),
        config_hash,
        keep_fields=stepper.field_stride is not None,
    )

    events: list[ControlEvent] = []
    residuals: list[float] = []
    regime = "D"
    pair_index = 0
    phase_start = 0.0
    env_ref = 0.0
    env_m = 0.0
    env_qv = 0.0
    env_residual = -math.inf

    def open_stochastic(t: float, norm_before: float, norm_now: float):
        nonlocal regime, phase_start, env_ref, env_m, env_qv, env_residual
        events.append(
            ControlEvent("tau", pair_index, t, norm_now, norm_before, L_hi, L_lo, current_K)
        )
        regime = "S"
        phase_start = t
        env_ref = scale_value(norm_now, sched)
        env_m = 0.0
        env_qv = 0.0
        env_residual = -math.inf

    def close_stochastic(t: float, norm_before: float, norm_now: float):
        nonlocal regime, pair_index, env_residual
        events.append(
            ControlEvent("rho", pair_index, t, norm_now, norm_before, L_hi, L_lo, current_K)
        )
        pair_index += 1
        regime = "D"
        if math.isfinite(env_residual):
            residuals.append(env_residual)

    int_f1 = 0.0
    t = 0.0
    rec.visit(cache.norms())
    rec.add(t, cache.norms(), int_f1, regime, diag.m, diag.qv, "")
    rec.snap(t, X, norm)

    if noise_available and norm >= L_hi:
        open_stochastic(0.0, norm, norm)
        rec.flags[-1] = "tau0_at_start"

    n_base = int(round(T / stepper.dt)) or (0 if T == 0 else 1)
    status, blowup = "completed", None
    level = 0
    pos = 0
    steps_done = 0
    accepted_since_refine = 0
    env_eps = stepper.mart_epsilon

    while pos < (n_base << level):
        h = stepper.dt * 2.0**-level
        stochastic = regime == "S" and noise_available
        dW = wiener.increment(pos, level) if stochastic else 0.0
        if stochastic:
            X_new, stiffness = _single_step(
                stepper.scheme, X, A, B, dW, h, projector, ladder, cache
            )
        else:
            X_new = rk4_deterministic_step(X, A, h, projector, k1=cache.drift())
            stiffness = 0.0

        trial = _StateCache(X_new, A, projector, ladder)
        can_halve = stepper.adapt and level < stepper.max_level
        try:
            norm_new = trial.norms()[1]
        except NonFiniteFieldError:
            if can_halve:
                level += 1
                pos <<= 1
                accepted_since_refine = 0
                continue
            status = "numeric_error"
            break
        if stepper.adapt and stiffness > stepper.stiff_cap:
            if can_halve:
                level += 1
                pos <<= 1
                accepted_since_refine = 0
                continue
            status, blowup = "blowup", (t, "dt_underflow")
            break
        grew = norm_new > (1.0 + stepper.growth_trigger) * max(norm, 1e-300)
        if grew and can_halve:
            level += 1
            pos <<= 1
            accepted_since_refine = 0
            continue

        crossing = (not stochastic and noise_available and norm_new >= L_hi) or (
            stochastic and norm_new <= L_lo
        )
        if crossing and can_halve and h > stepper.resolved_dt_min:
            level += 1
            pos <<= 1
            accepted_since_refine = 0
            continue

        # accept the step
        norms = cache.norms()
        int_f1 += norms[2] ** 2 * h
        if stochastic:
            b_pair = 2.0 * B.theta * norms[noise_idx] ** B.alpha * norm**2
            diag.update(b_pair * dW, b_pair**2 * h)
            env_m += b_pair / (sched.C + norm * norm) * dW
            env_qv += (b_pair / (sched.C + norm * norm)) ** 2 * h
        norm_before = norm
        X = X_new
        cache = trial
        rec.visit(cache.norms())
        norm = norm_new
        pos += 1
        t = pos * h
        steps_done += 1
        accepted_since_refine += 1

        if stochastic and t > phase_start:
            excess = scale_value(norm, sched) - env_ref - (env_m - 0.5 * env_eps * env_qv)
            env_residual = max(env_residual, excess / (t - phase_start))

        if crossing:
            if regime == "D":
                open_stochastic(t, norm_before, norm)
            else:
                close_stochastic(t, norm_before, norm)
            accepted_since_refine = 0

        flags = ";".join(A.check_state(X)) if hasattr(A, "check_state") else ""
        if steps_done % stepper.save_stride == 0 or pos == (n_base << level) or crossing:
            rec.add(t, cache.norms(), int_f1, regime, diag.m, diag.qv, flags)
        if stepper.field_stride is not None and steps_done % stepper.field_stride == 0:
            rec.snap(t, X, norm)

        if norm >= threshold:
            status, blowup = "blowup", (t, "norm_threshold")
            break

        if (
            regime == "S"
            and sched.max_stochastic_duration is not None
            and t - phase_start > sched.max_stochastic_duration
        ):
            current_K = 2.0 * current_K
            L_hi, L_lo = sched.levels(current_K)
            events.append(
                ControlEvent("escalate", pair_index, t, norm, norm, L_hi, L_lo, current_K)
            )
            phase_start = t

        if level > 0 and accepted_since_refine >= 4 and pos % 2 == 0:
            level -= 1
            pos >>= 1
            accepted_since_refine = 0

    if regime == "S" and math.isfinite(env_residual):
        residuals.append(env_residual)
    if rec.rows[-1][0] != t:
        rec.add(t, cache.norms(), int_f1, regime, diag.m, diag.qv, "")
    record = rec.build(status, blowup, diag, X)
    record.events = events
    record.envelope_residuals = residuals
    return record


def validate_schedule(record, sched: ControlSchedule, tol: float | None = None) -> ValidationReport:
    """Check the stopping-time ladder of a finalised control run.

    Verifies alternation (tau first, escalations transparent), nondecreasing
    times with ``rho_{i-1} <= tau_i <= rho_i``, that every crossing step
    straddles its level (the parameter-free form of "within one-step
    overshoot"; an explicit ``tol`` widens the bands instead), and reports the
    minimal deterministic dwell ``alpha = min_i (tau_i - rho_{i-1})`` with
    ``rho_{-1} = 0``.
    """
    failures: list[str] = []
    switching = [e for e in record.events if e.kind in ("tau", "rho")]

    expected = "tau"
    for j, e in enumerate(switching):
        if e.kind != expected:
            failures.append(f"event {j}: expected {expected}, got {e.kind}")
            break
        expected = "rho" if expected == "tau" else "tau"

    times = [e.time for e in record.events]
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        failures.append("event times decrease")

    prev_rho = 0.0
    dwells = []
    taus = [e for e in switching if e.kind == "tau"]
    rhos = [e for e in switching if e.kind == "rho"]
    for i, tau in enumerate(taus):
        if tau.time < prev_rho - 1e-12:
            failures.append(f"tau_{i} = {tau.time} precedes rho_{i-1} = {prev_rho}")
        dwells.append(tau.time - prev_rho)
        if i < len(rhos):
            rho = rhos[i]
            if rho.time < tau.time - 1e-12:
                failures.append(f"rho_{i} = {rho.time} precedes tau_{i} = {tau.time}")
            prev_rho = rho.time

    for e in switching:
        lvl = e.level_hi if e.kind == "tau" else e.level_lo
        if tol is not None:
            ok = abs(e.norm - lvl) <= tol or (e.kind == "tau" and e.time == 0.0)
        else:
            lo, hi = min(e.norm_before, e.norm), max(e.norm_before, e.norm)
            ok = (lo <= lvl <= hi) or (e.kind == "tau" and e.time == 0.0 and e.norm >= lvl)
        if not ok:
            failures.append(
                f"{e.kind}_{e.index} at t={e.time}: norm {e.norm} does not bracket level {lvl}"
            )

    residuals_finite = all(math.isfinite(r) for r in record.envelope_residuals)
    if not residuals_finite:
        failures.append("non-finite envelope residual")

    alpha = min(dwells) if len(dwells) >= 2 else (dwells[0] if dwells else None)
    return ValidationReport(
        passed=not failures,
        failures=failures,
        alpha_dwell=alpha,
        n_pairs=min(len(taus), len(rhos)),
        residuals_finite=residuals_finite,
    )
