"""Deterministic/stochastic switching: run the PDE until the norm gets large,
tame it with noise until it comes back down, repeat.

The scale function of the controller is ``phi(m) = log(C + m^2)`` applied to
``m = ||X||_F0`` (offset C keeps it regular at m = 0).  With a threshold K the
switching levels are ``L_hi = phi^-1(2K)`` and ``L_lo = phi^-1(K)``, and the
stopping-time ladder is

    tau_i = inf{t >= rho_{i-1} : ||X_t|| >= L_hi},
    rho_i = inf{t >= tau_i    : ||X_t|| <= L_lo},    rho_{-1} = 0.

The system follows the deterministic drift on [rho_{i-1}, tau_i) and the
stochastically tamed equation on [tau_i, rho_i).  Paths are stepped by the
adaptive loop of :mod:`stochtame.integrators` that also steps plain paths;
this module supplies the phases: which steps carry the noise, the crossing
rule and the events.  Crossings are localised by dyadic step bisection down
to the step floor; the driving noise refines through the Brownian bridge, so
localisation never changes the path's law.  Once the crossing step is
accepted the stepper climbs straight back to the step level that held before
the bisection began, so a crossing costs one bisection and at most one
accepted step per halving on the way back up.

If a stochastic phase fails to come back down (the incompressible regime
admits this), a configurable maximum phase duration doubles K and continues,
recording the escalation.  The levels then follow the K in force, so
``L_lo(t)`` jumps up at each escalation and

    rho_i = inf{t >= tau_i : ||X_t|| <= L_lo(t)}.

When the norm already lies at or below the raised L_lo, rho fires at the
escalation instant itself, with no crossing step to bisect, just as tau_0
fires at t = 0 when the start lies at or above L_hi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .integrators import StepperConfig, _adaptive_loop
from .noise import NoiseSpec, WienerPath
from .spectral import SpectralField


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


def control_run(
    X0: SpectralField,
    A,
    B: NoiseSpec | None,
    sched: ControlSchedule,
    stepper: StepperConfig,
    wiener: WienerPath | None = None,
    *,
    cutoff: int | None = None,
    seed: int | None = None,
    save_stride: int = 1,
    field_stride: int | None = None,
):
    """Run the switching strategy up to ``stepper.t_end``; returns a TrajectoryRecord.

    The deterministic phases use RK4; the stochastic phases use the stepper's
    scheme.  With ``theta = 0`` or ``K = inf`` this degenerates to a purely
    deterministic integration.  The strides are those of
    :func:`~stochtame.integrators.integrate_path`.
    """
    switch = _Switching(sched, B)
    record = _adaptive_loop(
        X0, A, B, stepper, wiener, cutoff, seed, save_stride, field_stride, switch
    )
    record.events = switch.events
    return record


class _Switching:
    """The phases of one switching path, as the shared stepping loop asks.

    Holds the regime, the K in force and its levels, the start of the open
    stochastic phase and the tau/rho/escalate events.
    """

    def __init__(self, sched: ControlSchedule, B: NoiseSpec | None):
        self.sched = sched
        self.noise = B is not None and B.theta > 0.0
        self.K = sched.K
        self.L_hi, self.L_lo = sched.levels(self.K)
        self.regime = "D"
        self.pair_index = 0
        self.events: list[ControlEvent] = []
        self.phase_start = 0.0

    @property
    def stochastic(self) -> bool:
        return self.regime == "S"

    def _event(self, kind, t, norm_before, norm):
        self.events.append(
            ControlEvent(kind, self.pair_index, t, norm, norm_before, self.L_hi, self.L_lo, self.K)
        )

    def start(self, norm: float) -> str:
        """Open the first stochastic phase at t = 0 if the start lies above L_hi."""
        if not self.crosses(norm):
            return ""
        self._open(0.0, norm, norm)
        return "tau0_at_start"

    def crosses(self, norm: float) -> bool:
        if self.regime == "S":
            return norm <= self.L_lo
        return self.noise and norm >= self.L_hi

    def _close(self, t, norm_before, norm):
        self._event("rho", t, norm_before, norm)
        self.pair_index += 1
        self.regime = "D"

    def _open(self, t, norm_before, norm):
        self._event("tau", t, norm_before, norm)
        self.regime = "S"
        self.phase_start = t

    def accept(self, t, norm, norm_new, crossing) -> str:
        """Switching and escalation events of an accepted step from F0 norm
        ``norm`` to ``norm_new``; its row's regime."""
        if crossing and self.regime == "D":
            self._open(t, norm, norm_new)
        elif crossing:
            self._close(t, norm, norm_new)
        limit = self.sched.max_stochastic_duration
        if self.regime == "S" and limit is not None and t - self.phase_start > limit:
            self._escalate(t, norm_new)
        return self.regime

    def _escalate(self, t: float, norm: float):
        """Double K when the stochastic phase outlasts its maximal duration;
        rho fires at once if the norm lies at or below the raised L_lo."""
        self.K = 2.0 * self.K
        self.L_hi, self.L_lo = self.sched.levels(self.K)
        self._event("escalate", t, norm, norm)
        self.phase_start = t
        if norm <= self.L_lo:
            self._close(t, norm, norm)


def validate_schedule(record, sched: ControlSchedule) -> ValidationReport:
    """Check the stopping-time ladder of a finalised control run against its
    schedule.

    Verifies alternation (tau first, escalations transparent), nondecreasing
    times with ``rho_{i-1} <= tau_i <= rho_i``, that every event carries the
    K in force and its levels ``sched.levels(K)`` (K starts at ``sched.K``
    and doubles at each escalation), and that every crossing step straddles
    its level (the parameter-free form of "within one-step overshoot"), and
    reports the minimal deterministic dwell ``alpha = min_i (tau_i -
    rho_{i-1})`` with ``rho_{-1} = 0``.

    Two events fire with no crossing step, at an instant where the stopping
    rule already holds, and need their norm on the stopped side of the level
    instead: tau_0 at t = 0 with ``||X_0|| >= L_hi``, and a rho at an
    escalation of its own phase (same index and time) with the norm at or
    below the raised L_lo (the infimum of the module docstring is attained
    at the escalation instant).
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

    K = sched.K
    for e in record.events:
        if e.kind == "escalate":
            K = 2.0 * K
        if e.K != K or (e.level_hi, e.level_lo) != sched.levels(K):
            failures.append(
                f"{e.kind}_{e.index} at t={e.time}: K {e.K} and levels "
                f"({e.level_hi}, {e.level_lo}) are not the K in force {K} and its levels"
            )

    escalations = {(e.index, e.time) for e in record.events if e.kind == "escalate"}
    for e in switching:
        lvl = e.level_hi if e.kind == "tau" else e.level_lo
        if e.kind == "tau":
            at_once = e.time == 0.0 and e.norm >= lvl
        else:
            at_once = (e.index, e.time) in escalations and e.norm <= lvl
        if not (min(e.norm_before, e.norm) <= lvl <= max(e.norm_before, e.norm) or at_once):
            failures.append(
                f"{e.kind}_{e.index} at t={e.time}: norm {e.norm} does not bracket level {lvl}"
            )

    alpha = min(dwells) if len(dwells) >= 2 else (dwells[0] if dwells else None)
    return ValidationReport(
        passed=not failures,
        failures=failures,
        alpha_dwell=alpha,
        n_pairs=min(len(taus), len(rhos)),
    )
