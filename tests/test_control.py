import math

import numpy as np
import pytest

from full_layout import hermitian_defect, kinf
from stochtame import control, integrators
from stochtame.control import (
    ControlEvent,
    ControlSchedule,
    control_run,
    scale_inverse,
    scale_value,
    validate_schedule,
)
from stochtame.integrators import StepperConfig, integrate_path
from stochtame.models import DriftOperator, FourierMultiplierDrift
from stochtame.noise import NoiseSpec, WienerPath
from stochtame.spectral import SpaceLadder, SpectralField, TorusGrid, random_field

LADDER = SpaceLadder(0.0, 1.0, 2.0, 3.0)


def heat_drift():
    return FourierMultiplierDrift(LADDER, lambda ksq: -ksq)


def sine_field(grid, amplitude=1.0):
    return SpectralField.from_physical(grid, amplitude * np.sin(grid.coordinates()[0]))


GROWING_SCHED = ControlSchedule(K=math.log(1.0 + 1.5**2) / 2.0)


def growing_mode_run(dt_min_exponent=30, save_stride=5):
    """dX = +X dt grows deterministically; taming noise pulls it back."""
    grid = TorusGrid(1, 32)
    growth = FourierMultiplierDrift(LADDER, lambda ksq: 1.0 + 0.0 * ksq)
    noise = NoiseSpec(theta=3.0, alpha=1.0, norm_space="F0", case_label="I")
    st = StepperConfig(
        scheme="EulerMaruyama",
        dt=1e-3,
        t_end=4.0,
        dt_min_exponent=dt_min_exponent,
        stiff_cap=0.02,
    )
    wiener = WienerPath(3, 1e-3)
    rec = control_run(
        sine_field(grid), growth, noise, GROWING_SCHED, st, wiener, seed=3, save_stride=save_stride
    )
    return rec, st


class TestScaleFunction:
    def test_value_at_zero(self):
        sched = ControlSchedule(K=1.0, C=1.0)
        assert scale_value(0.0, sched) == pytest.approx(math.log(1.0))

    def test_closed_form_value(self):
        sched = ControlSchedule(K=1.0, C=1.0)
        assert scale_value(math.sqrt(math.e - 1.0), sched) == pytest.approx(1.0)

    def test_round_trip(self):
        sched = ControlSchedule(K=1.0, C=1.0)
        rng = np.random.default_rng(0)
        for m in rng.uniform(0.0, 50.0, size=1000):
            y = scale_value(m, sched)
            assert scale_inverse(y, sched) == pytest.approx(m, abs=1e-12, rel=1e-12)

    def test_domain_error(self):
        sched = ControlSchedule(K=1.0, C=1.0)
        with pytest.raises(ValueError):
            scale_inverse(-1.0, sched)

    def test_levels(self):
        sched = ControlSchedule(K=0.5, C=1.0)
        hi, lo = sched.levels()
        assert lo < hi
        assert scale_value(hi, sched) == pytest.approx(1.0)
        assert scale_value(lo, sched) == pytest.approx(0.5)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ControlSchedule(K=-1.0, C=1.0)
        with pytest.raises(ValueError):
            ControlSchedule(K=1.0, C=0.0)


class TestControlRun:
    def test_heat_never_switches(self):
        grid = TorusGrid(1, 64)
        x0 = sine_field(grid)  # F0 norm 1, decaying
        sched = ControlSchedule(K=scale_value(3.0, ControlSchedule(K=1.0)) / 2.0)
        noise = NoiseSpec(1.0, 1.0, "F0", "I")
        st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.5)
        rec = control_run(x0, heat_drift(), noise, sched, st, WienerPath(1, 1e-3))
        assert rec.events == []
        assert set(rec.regime) == {"D"}
        report = validate_schedule(rec, sched)
        assert report.passed and report.alpha_dwell is None

    def test_initial_above_level_fires_tau_at_zero(self):
        grid = TorusGrid(1, 64)
        x0 = sine_field(grid, amplitude=5.0)
        sched = ControlSchedule(K=math.log(1.0 + 2.0**2) / 2.0)  # L_hi = 2
        noise = NoiseSpec(1.0, 1.0, "F0", "I")
        st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.05, stiff_cap=0.05)
        rec = control_run(x0, heat_drift(), noise, sched, st, WienerPath(2, 1e-3))
        assert rec.events[0].kind == "tau" and rec.events[0].time == 0.0
        # the row at t = 0 lies in [tau_0, rho_0)
        assert rec.regime[0] == "S" and rec.flags[0] == "tau0_at_start"

    def test_theta_zero_with_infinite_level_degenerates(self):
        grid = TorusGrid(1, 64)
        x0 = sine_field(grid)
        sched = ControlSchedule(K=math.inf)
        st = StepperConfig(scheme="RK4Deterministic", dt=1e-3, t_end=0.5, adapt=False)
        rec = control_run(x0, heat_drift(), None, sched, st, None)
        ref = integrate_path(x0, heat_drift(), None, st)
        assert rec.events == []
        assert set(rec.regime) == {"D"}
        assert rec.norm_F0[-1] == pytest.approx(ref.norm_F0[-1], rel=1e-13)

    def test_growing_mode_cycles_and_validates(self):
        # alternation with at least one full pair, all straddling their levels
        rec, _ = growing_mode_run()
        report = validate_schedule(rec, GROWING_SCHED)
        assert rec.status == "completed"
        assert report.passed, report.failures
        assert report.n_pairs >= 1
        assert report.alpha_dwell is not None and report.alpha_dwell > 0
        kinds = [e.kind for e in rec.events if e.kind != "escalate"]
        assert kinds[0] == "tau"
        assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))
        # regime labels: stochastic exactly on the half-open window [tau, rho)
        taus = [e.time for e in rec.events if e.kind == "tau"]
        rhos = [e.time for e in rec.events if e.kind == "rho"]
        for t, label in zip(rec.times, rec.regime):
            in_stoch = any(t0 <= t < t1 for t0, t1 in zip(taus, rhos + [math.inf]))
            assert label == ("S" if in_stoch else "D"), (t, label, taus, rhos)

    def test_escalation_on_stuck_phase(self):
        # noise too weak to bring the norm down: the phase escalates K
        grid = TorusGrid(1, 32)
        x0 = sine_field(grid)
        growth = FourierMultiplierDrift(LADDER, lambda ksq: 2.0 + 0.0 * ksq)
        noise = NoiseSpec(theta=0.05, alpha=0.2, norm_space="F0", case_label="I")
        sched = ControlSchedule(
            K=math.log(1.0 + 1.2**2) / 2.0, max_stochastic_duration=0.05
        )
        st = StepperConfig(scheme="EulerMaruyama", dt=1e-3, t_end=1.0, stiff_cap=0.05)
        rec = control_run(
            x0, growth, noise, sched, st, WienerPath(8, 1e-3), seed=8, save_stride=5
        )
        assert any(e.kind == "escalate" for e in rec.events)
        esc = [e for e in rec.events if e.kind == "escalate"]
        assert esc[0].K == pytest.approx(2.0 * sched.K)
        # the second escalation lifts L_lo above the norm: rho fires there
        report = validate_schedule(rec, sched)
        assert report.passed, report.failures
        rho = next(e for e in rec.events if e.kind == "rho")
        assert rho.time == esc[1].time and rho.norm == rho.norm_before <= rho.level_lo


class TestClimbBack:
    """A crossing costs one bisection: the stepper climbs straight back."""

    def test_climb_returns_to_the_pre_bisection_level(self, monkeypatch):
        # after each accepted crossing, at most dt_min_exponent - level_before
        # accepted steps lie finer than the level its bisection began at;
        # a refine during the climb ends it
        trials = []  # [level, crosses] of each trial step
        single_step, crosses = integrators._single_step, control._Switching.crosses

        def spy_step(scheme, state, B, dW, h):
            trials.append([round(math.log2(1e-3 / h)), False])
            return single_step(scheme, state, B, dW, h)

        def spy_crosses(self, norm):
            out = crosses(self, norm)
            if trials:
                trials[-1][1] = out
            return out

        monkeypatch.setattr(integrators, "_single_step", spy_step)
        monkeypatch.setattr(control._Switching, "crosses", spy_crosses)
        _, st = growing_mode_run(save_stride=1)
        climbs = []  # [level before the bisection, accepted steps finer than it]
        level_before = climb = None
        for i, (level, crossing) in enumerate(trials):
            # a refine is the only way to a finer level
            accepted = i + 1 == len(trials) or trials[i + 1][0] <= level
            if climb is not None and (not accepted or level <= climb[0]):
                climbs.append(climb)
                climb = None
            if not accepted:
                if crossing and level_before is None:
                    level_before = level
            elif crossing and level_before is not None:
                climb, level_before = [level_before, 0], None
            elif climb is not None:
                climb[1] += 1
        assert len(climbs) >= 10
        for before, steps in climbs:
            assert steps <= st.dt_min_exponent - before, climbs

    def test_step_accounting_on_a_switching_path(self):
        rec, st = growing_mode_run(save_stride=1)
        assert rec.trials == rec.accepted_steps + rec.rejected_steps
        assert rec.accepted_steps == rec.n_rows - 1
        assert rec.rejections["crossing"] > 0
        # every crossing is bisected down to the floor
        assert rec.finest_level == st.dt_min_exponent

    def test_step_floor_costs_about_one_step_per_halving(self):
        # dt_min from dt 2^-12 to dt 2^-30: every crossing is bisected 18
        # levels deeper, which may cost about one accepted step a level
        coarse, _ = growing_mode_run(12, save_stride=1)
        fine, _ = growing_mode_run(30, save_stride=1)
        crossings = [e for e in fine.events if e.kind in ("tau", "rho") and e.time > 0.0]
        assert len(crossings) >= 10
        assert fine.n_rows - coarse.n_rows <= 1.5 * 18 * len(crossings)


class TestSharedLoop:
    """``control_run`` and ``integrate_path`` step through one loop."""

    @pytest.mark.parametrize("t_end", [0.0025, 0.0105])
    def test_horizon_rounds_up_to_whole_base_steps(self, t_end):
        grid = TorusGrid(1, 32)
        st = StepperConfig(scheme="RK4Deterministic", dt=1e-3, t_end=t_end)
        sched = ControlSchedule(K=math.inf)
        rec = control_run(sine_field(grid), heat_drift(), None, sched, st, None)
        ref = integrate_path(sine_field(grid), heat_drift(), None, st)
        assert rec.times[-1] >= t_end
        assert rec.times[-1] == ref.times[-1]

    @pytest.mark.parametrize("case", ["I", "III"])
    def test_open_stochastic_phase_matches_plain_path(self, case):
        # tau fires at t = 0 and the norm never falls to L_lo = 0.1, so the
        # switching path is the plain tamed path, record martingale included
        # (case III keeps it in F1)
        grid = TorusGrid(1, 32)
        x = grid.coordinates()[0]
        x0 = SpectralField.from_physical(grid, 5.0 * np.sin(x) + 2.0 * np.cos(3.0 * x))
        noise = NoiseSpec(1.0, 1.0, "F0", case)
        sched = ControlSchedule(K=math.log(1.0 + 0.1**2))
        st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.05)
        rec = control_run(x0, heat_drift(), noise, sched, st, WienerPath(5, 1e-3), seed=5)
        ref = integrate_path(x0, heat_drift(), noise, st, WienerPath(5, 1e-3), seed=5)
        assert [e.kind for e in rec.events] == ["tau"] and rec.events[0].time == 0.0
        assert rec.n_rows == ref.n_rows > 10
        for column in ("times", "norm_G", "norm_F0", "norm_F1", "norm_D", "M", "QV"):
            np.testing.assert_array_equal(getattr(rec, column), getattr(ref, column))

    def test_threshold_at_or_below_initial_norm_raises(self):
        grid = TorusGrid(1, 32)
        x0 = sine_field(grid, amplitude=5.0)
        noise = NoiseSpec(1.0, 1.0, "F0", "I")
        st = StepperConfig(dt=1e-3, t_end=0.01, blowup_threshold=1.0)
        with pytest.raises(ValueError, match="blowup_threshold"):
            control_run(x0, heat_drift(), noise, ControlSchedule(K=1.0), st, WienerPath(1, 1e-3))
        with pytest.raises(ValueError, match="blowup_threshold"):
            integrate_path(x0, heat_drift(), noise, st, WienerPath(1, 1e-3))

    def test_closing_row_carries_state_flags(self):
        # a blow-up between saved rows closes the record with a row that
        # carries the model's state flags, as every saved row does
        class FlaggedGrowth(FourierMultiplierDrift):
            def check_state(self, X):
                return ["flagged"]

        grid = TorusGrid(1, 32)
        growth = FlaggedGrowth(LADDER, lambda ksq: 1.0 + 0.0 * ksq)
        st = StepperConfig(scheme="RK4Deterministic", dt=1e-3, t_end=1.0, blowup_threshold=1.5)
        rec = control_run(
            sine_field(grid), growth, None, ControlSchedule(K=math.inf), st, None, save_stride=1000
        )
        ref = integrate_path(sine_field(grid), growth, None, st, save_stride=1000)
        for r in (rec, ref):
            assert r.status == "blowup" and r.blowup[1] == "norm_threshold"
            assert r.n_rows == 2 and r.flags == ["", "flagged"]


SW_GRID, SW_CUTOFF = TorusGrid(2, 16), 4


def shallow_water_switching_run(**strides):
    """A seeded inviscid shallow-water switching path: tau at t = 0, rho once
    the noise brings the norm down, RK4 after."""
    x0 = random_field(SW_GRID, 3, 6.5, 4.0, 97)
    x0.coeffs[2, 0, 0] = 1.0
    st = StepperConfig(
        scheme="EulerMaruyama", dt=2e-3, t_end=0.1, stiff_cap=0.1, growth_trigger=1.0
    )
    noise = NoiseSpec(1.0, 1.0, "F1", "II")
    rec = control_run(
        x0, DriftOperator("RSW_Inviscid"), noise, ControlSchedule(K=1.0, C=1.0), st,
        WienerPath(1, 2e-3), cutoff=SW_CUTOFF, **strides,
    )
    assert rec.status == "completed"
    assert [e.kind for e in rec.events][:2] == ["tau", "rho"] and rec.regime[-1] == "D"
    return rec


def test_shallow_water_control_fields_are_hermitian_and_projected():
    # the snapshots of a switching path are the blocks the loop steps, its
    # final state the mirror of the last
    rec = shallow_water_switching_run(field_stride=1)
    final = rec.final_state
    assert not final.is_half and hermitian_defect(final) == 0.0
    assert np.all(final.coeffs[:, kinf(SW_GRID) > SW_CUTOFF] == 0.0)
    for _, field in rec.snapshots:
        assert field.block is SW_GRID.half.kernel(SW_CUTOFF)
        assert np.all(field.as_half().coeffs[:, SW_GRID.half.kinf > SW_CUTOFF] == 0.0)


def test_drift_evals_count_every_drift_call_of_a_switching_path(monkeypatch):
    # the record's count takes in the drifts of the loop states and the three
    # later stages of each RK4 step alike
    calls = []
    call = DriftOperator.__call__

    def counted(self, X):
        calls.append(X)
        return call(self, X)

    monkeypatch.setattr(DriftOperator, "__call__", counted)
    rec = shallow_water_switching_run()
    assert rec.drift_evals == len(calls) > rec.trials


class TestValidateSchedule:
    def synthetic_record(self, events):
        class R:
            pass

        r = R()
        r.events = events
        return r

    def test_empty_event_list_passes(self):
        sched = ControlSchedule(K=1.0)
        report = validate_schedule(self.synthetic_record([]), sched)
        assert report.passed and report.alpha_dwell is None

    def test_inverted_times_fail(self):
        sched = ControlSchedule(K=1.0)
        hi, lo = sched.levels()
        events = [
            ControlEvent("tau", 0, 1.0, hi, hi - 0.01, hi, lo, sched.K),
            ControlEvent("rho", 0, 0.5, lo, lo + 0.01, hi, lo, sched.K),
        ]
        report = validate_schedule(self.synthetic_record(events), sched)
        assert not report.passed
        assert any("precede" in f or "decrease" in f for f in report.failures)

    def test_wrong_alternation_fails(self):
        sched = ControlSchedule(K=1.0)
        hi, lo = sched.levels()
        events = [ControlEvent("rho", 0, 0.5, lo, lo + 0.1, hi, lo, sched.K)]
        report = validate_schedule(self.synthetic_record(events), sched)
        assert not report.passed

    def escalation_events(self, sched, rho_norm, rho_time=0.5):
        """tau, an escalation at t = 0.5 and a rho without a crossing step."""
        hi, lo = sched.levels()
        hi2, lo2 = sched.levels(2.0 * sched.K)
        return [
            ControlEvent("tau", 0, 0.1, hi + 0.01, hi - 0.01, hi, lo, sched.K),
            ControlEvent("escalate", 0, 0.5, 0.9 * lo2, 0.9 * lo2, hi2, lo2, 2.0 * sched.K),
            ControlEvent("rho", 0, rho_time, rho_norm, rho_norm, hi2, lo2, 2.0 * sched.K),
        ]

    def test_rho_at_escalation_needs_norm_at_or_below_level(self):
        sched = ControlSchedule(K=1.0)
        lo2 = sched.levels(2.0 * sched.K)[1]
        below = self.escalation_events(sched, 0.9 * lo2)
        assert validate_schedule(self.synthetic_record(below), sched).passed
        # the raised level lies below the norm: rho cannot fire there
        above = self.escalation_events(sched, 1.1 * lo2)
        report = validate_schedule(self.synthetic_record(above), sched)
        assert not report.passed and "bracket" in report.failures[0]

    def test_rho_away_from_escalation_must_bracket(self):
        sched = ControlSchedule(K=1.0)
        lo2 = sched.levels(2.0 * sched.K)[1]
        later = self.escalation_events(sched, 0.9 * lo2, rho_time=0.6)
        report = validate_schedule(self.synthetic_record(later), sched)
        assert not report.passed and "bracket" in report.failures[0]
        # an escalation of another phase does not count
        other = self.escalation_events(sched, 0.9 * lo2)
        other[1].index = 1
        assert not validate_schedule(self.synthetic_record(other), sched).passed

    def test_level_straddle_enforced(self):
        sched = ControlSchedule(K=1.0)
        hi, lo = sched.levels()
        events = [ControlEvent("tau", 0, 1.0, hi * 0.5, hi * 0.4, hi, lo, sched.K)]
        report = validate_schedule(self.synthetic_record(events), sched)
        assert not report.passed and "bracket" in report.failures[0]

    def test_events_carry_the_levels_of_the_k_in_force(self):
        # a tau/rho pair that brackets the levels of K = 5 is valid under a
        # K = 5 schedule and not under a K = 1 one
        wrong = ControlSchedule(K=5.0)
        hi, lo = wrong.levels()
        events = [
            ControlEvent("tau", 0, 0.1, hi + 0.01, hi - 0.01, hi, lo, wrong.K),
            ControlEvent("rho", 0, 0.5, lo - 0.01, lo + 0.01, hi, lo, wrong.K),
        ]
        assert validate_schedule(self.synthetic_record(events), wrong).passed
        report = validate_schedule(self.synthetic_record(events), ControlSchedule(K=1.0))
        assert not report.passed and "not the K in force" in report.failures[0]
        # an escalation doubles K: events that keep the old K and its levels fail
        sched = ControlSchedule(K=1.0)
        hi, lo = sched.levels()
        stale = [
            ControlEvent("tau", 0, 0.1, hi + 0.01, hi - 0.01, hi, lo, sched.K),
            ControlEvent("escalate", 0, 0.5, 0.9 * lo, 0.9 * lo, hi, lo, sched.K),
            ControlEvent("rho", 0, 0.5, 0.9 * lo, 0.9 * lo, hi, lo, sched.K),
        ]
        report = validate_schedule(self.synthetic_record(stale), sched)
        assert not report.passed and len(report.failures) == 2
