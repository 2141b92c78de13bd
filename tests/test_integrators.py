import math

import numpy as np
import pytest

from stochtame.integrators import (
    StepperConfig,
    _LoopDrift,
    _single_step,
    _StateCache,
    integrate_path,
)
from full_layout import hermitian_defect, kinf
from stochtame.models import DriftOperator, FourierMultiplierDrift
from stochtame.noise import GbmSpec, NoiseSpec, WienerPath, gbm_exact
from stochtame.spectral import (
    GalerkinProjector,
    SpaceLadder,
    SpectralField,
    TorusGrid,
    galerkin_project,
    random_field,
    sobolev_norm,
    weighted_norms,
)

LADDER = SpaceLadder(0.0, 1.0, 2.0, 3.0)


def heat_drift(nu=1.0):
    return FourierMultiplierDrift(LADDER, lambda ksq: -nu * ksq)


def linear_drift(rate):
    return FourierMultiplierDrift(LADDER, lambda ksq: rate + 0.0 * ksq)


def sine_field(grid, amplitude=1.0):
    return SpectralField.from_physical(grid, amplitude * np.sin(grid.coordinates()[0])).as_half()


def loop_state(X, A, projector):
    """The stepping loop's state of a half ``X`` outside the loop: ``X`` read
    into its block kernel's layout, its ladder norms and its projected drift,
    evaluated on first use."""
    kernel = X.grid.half.kernel(projector.cutoff)
    block = SpectralField(X.grid, kernel.read(X.coeffs), kernel)
    drift = _LoopDrift(A, kernel, len(X.coeffs))
    return _StateCache(block, drift, tuple(weighted_norms(block.coeffs, drift.ladder_weights)))


def one_step(scheme, X, A, B, dW, h, projector):
    """``_single_step`` from the loop state of ``X``, its new state written
    back to a half."""
    out, stiffness = _single_step(scheme, loop_state(X, A, projector), B, dW, h)
    return out.as_half(), stiffness


class TestSteps:
    def setup_method(self):
        self.grid = TorusGrid(1, 32)
        self.proj = GalerkinProjector(self.grid.dealias_cutoff)
        self.X = galerkin_project(sine_field(self.grid), self.proj)  # a loop state lies in V_d

    def test_zero_drift_theta_zero_fixed_point(self):
        zero = linear_drift(0.0)
        out, _ = one_step("EulerMaruyama", self.X, zero, None, 0.0, 0.1, self.proj)
        assert np.array_equal(out.coeffs, self.X.coeffs)

    def test_scalar_linear_drift(self):
        out, _ = one_step("EulerMaruyama", self.X, linear_drift(1.0), None, 0.0, 0.01, self.proj)
        assert np.allclose(out.coeffs, 1.01 * self.X.coeffs, rtol=1e-14)

    def test_tamed_matches_em_for_small_increments(self):
        # difference is O(dt^2 ||A||^2) by the algebraic expansion
        dt = 1e-4
        drift = heat_drift()
        a, _ = one_step("EulerMaruyama", self.X, drift, None, 0.0, dt, self.proj)
        b, _ = one_step("TamedEulerMaruyama", self.X, drift, None, 0.0, dt, self.proj)
        diff = np.max(np.abs(a.coeffs - b.coeffs))
        norm_a = sobolev_norm(drift(self.X), LADDER.s_G)
        assert diff <= dt**2 * norm_a**2 * 2

    def test_tamed_noise_increment_bounded(self):
        # huge ||B||: increment magnitude <= |dW| / (dt ||B||_G)
        spec = NoiseSpec(theta=1e6, alpha=0.0, norm_space="F0", case_label="I")
        dt, dW = 1e-3, 0.37
        out, _ = one_step("TamedEulerMaruyama", self.X, linear_drift(0.0), spec, dW, dt, self.proj)
        incr = sobolev_norm(out - self.X, LADDER.s_G)
        bound = abs(dW) / (dt * spec.theta * sobolev_norm(self.X, LADDER.s_G))
        assert incr <= bound * (1 + 1e-12)

    def test_zero_field_fixed_point(self):
        zero_field = SpectralField.zeros(self.grid)
        spec = NoiseSpec(2.0, 1.0, "F0", "I")
        out, _ = one_step(
            "TamedEulerMaruyama", zero_field, heat_drift(), spec, 0.5, 0.01, self.proj
        )
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_rk4_heat_single_mode_order(self):
        # exact exponential oracle exp(-k^2 dt) per mode, error O(dt^5)
        drift = heat_drift()
        for dt in (0.1, 0.05):
            out, _ = one_step("RK4Deterministic", self.X, drift, None, 0.0, dt, self.proj)
            exact = math.exp(-dt) * self.X
            err = np.max(np.abs(out.coeffs - exact.coeffs))
            assert err <= dt**5 / 10.0

    def test_rk4_steady_euler_state(self):
        # cos x + cos y is steady for the inviscid vorticity flow
        grid = TorusGrid(2, 32)
        X, Y = grid.coordinates()
        omega = SpectralField.from_physical(grid, np.cos(X) + np.cos(Y)).as_half()
        model = DriftOperator("Vorticity2D")
        proj = GalerkinProjector(grid.dealias_cutoff)
        state = omega
        for _ in range(1000):
            state, _ = one_step("RK4Deterministic", state, model, None, 0.0, 1e-3, proj)
        assert np.max(np.abs(state.coeffs - omega.coeffs)) <= 1e-10


class _BridgeLevel:
    """A WienerPath seen from a dyadic level: base increments of the view are
    the path's bridge-refined increments at ``shift`` levels down."""

    def __init__(self, wiener, shift):
        self.wiener, self.shift = wiener, shift
        self.seed = wiener.seed

    def increment(self, i, level=0):
        return self.wiener.increment(i, level + self.shift)


class TestGbmFieldOracle:
    def test_strong_error_halving_ratio(self):
        # A one-mode field with linear drift and alpha=0 noise IS the scalar
        # geometric Brownian motion.  Every resolution dt = 2^-6 * 2^-level
        # (levels 0-3) is driven by the same bridge-refined path and compared
        # with the exact solution at that path's W_T.  The strong order is the
        # least-squares slope of log2(mean relative terminal error) over the
        # four levels: one halving alone scatters wider than the band across
        # seed blocks, and the relative error keeps the lognormal tail paths
        # from dominating the mean.  theta = 1, not 2: at theta = 2 the noise
        # taming denominator 1 + dt ||B(X)||_G^2 is far from 1 on the tail
        # paths for every dt down to 2^-13, and their absolute error halves
        # at a pre-asymptotic slope of about 0.2-0.4, not at the order.
        grid = TorusGrid(1, 8)
        spec = GbmSpec(1.0, 1.0, 1.0)
        noise = NoiseSpec(theta=1.0, alpha=0.0, norm_space="F0", case_label="I")
        drift = linear_drift(1.0)
        dt_base, levels, n_paths = 2.0**-6, (0, 1, 2, 3), 96
        x0 = sine_field(grid)
        n0 = sobolev_norm(x0, LADDER.s_F0)
        rel_errs = np.zeros((len(levels), n_paths))
        for j in range(n_paths):
            wiener = WienerPath(j, dt_base)
            w_T = sum(wiener.increment(i, 0) for i in range(2**6))
            exact = gbm_exact(spec, w_T, 1.0) * n0
            for level in levels:
                st = StepperConfig(
                    scheme="TamedEulerMaruyama",
                    dt=dt_base * 2.0**-level,
                    t_end=1.0,
                    adapt=False,
                )
                rec = integrate_path(x0, drift, noise, st, _BridgeLevel(wiener, level), seed=j)
                rel_errs[level, j] = abs(rec.norm_F0[-1] - exact) / exact
        order = -np.polyfit(levels, np.log2(rel_errs.mean(axis=1)), 1)[0]
        assert 0.3 <= order <= 0.7  # strong order 1/2 within sampling noise


class TestIntegratePath:
    def test_heat_decay_oracle(self):
        grid = TorusGrid(1, 64)
        x0 = sine_field(grid)
        st = StepperConfig(scheme="RK4Deterministic", dt=1e-3, t_end=1.0, adapt=False)
        rec = integrate_path(x0, heat_drift(), None, st)
        expect = math.exp(-1.0) * sobolev_norm(x0, 0.0)
        assert abs(rec.norm_G[-1] - expect) <= 1e-8

    def test_t_end_zero_single_row(self):
        grid = TorusGrid(1, 32)
        st = StepperConfig(dt=0.1, t_end=0.0)
        rec = integrate_path(sine_field(grid), heat_drift(), None, st)
        assert rec.n_rows == 1 and rec.status == "completed"

    def test_burgers_blowup_window(self):
        # method of characteristics: t* = -1/min(u0') = 1 for u0 = sin x
        grid = TorusGrid(1, 1024)
        x0 = sine_field(grid)
        st = StepperConfig(
            scheme="RK4Deterministic",
            dt=1e-3,
            t_end=2.0,
            blowup_threshold=10.0,
            dt_min_exponent=12,
        )
        rec = integrate_path(x0, DriftOperator("Burgers1D"), None, st, save_stride=10)
        assert rec.status == "blowup"
        assert rec.blowup is not None and 0.9 <= rec.blowup[0] <= 1.1

    def test_blowup_threshold_monotone(self):
        grid = TorusGrid(1, 1024)
        x0 = sine_field(grid)
        times = []
        for thr in (5.0, 20.0):
            st = StepperConfig(
                scheme="RK4Deterministic",
                dt=1e-3,
                t_end=2.0,
                blowup_threshold=thr,
                dt_min_exponent=12,
            )
            rec = integrate_path(x0, DriftOperator("Burgers1D"), None, st, save_stride=10)
            assert rec.status == "blowup"
            times.append(rec.blowup[0])
        assert times[0] <= times[1]

    def test_reproducible_bitwise(self):
        grid = TorusGrid(1, 64)
        x0 = sine_field(grid)
        noise = NoiseSpec(0.6, 1.0, "F0", "I")
        recs = []
        for _ in range(2):
            st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.5)
            recs.append(
                integrate_path(x0, heat_drift(), noise, st, WienerPath(5, 1e-3), seed=5)
            )
        for attr in ("times", "norm_F0", "norm_F1", "M", "QV", "int_F1sq"):
            assert np.array_equal(getattr(recs[0], attr), getattr(recs[1], attr))

    def test_galerkin_closure_and_norm_bookkeeping(self):
        grid = TorusGrid(1, 64)
        x0 = random_field(grid, 1, 4.0, 1.0, 3)
        noise = NoiseSpec(0.4, 1.0, "F0", "I")
        st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.2)
        rec = integrate_path(
            x0, heat_drift(), noise, st, WienerPath(9, 1e-3), cutoff=8, seed=9,
            save_stride=20, field_stride=20,
        )
        ladder = LADDER
        by_time = dict(zip(rec.times, range(rec.n_rows)))
        for t_snap, field in rec.snapshots:
            assert np.max(np.abs(field.as_half().coeffs[:, grid.half.kinf > 8])) == 0.0
            if t_snap in by_time:
                i = by_time[t_snap]
                recomputed = sobolev_norm(field, ladder.s_F0)
                assert abs(recomputed - rec.norm_F0[i]) <= 1e-12 * max(recomputed, 1e-30)

    def test_norms_per_accepted_step(self, monkeypatch):
        # a step measures the new state's F0 norm and its drift's G norm; the
        # saved row reuses the F0 norm, and the next step reuses the row
        import stochtame.integrators as integrators

        calls = []

        def counting_norm(coeffs, weights):
            calls.extend([coeffs] * len(weights))
            return weighted_norms(coeffs, weights)

        monkeypatch.setattr(integrators, "weighted_norms", counting_norm)
        grid = TorusGrid(1, 64)
        drift = DriftOperator("Burgers1D")
        noise = NoiseSpec(0.5, 1.4, "F0", "I")
        st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.1)
        rec = integrate_path(
            sine_field(grid), drift, noise, st, WienerPath(2, 1e-3), seed=2, field_stride=1
        )
        steps = rec.n_rows - 1
        assert rec.status == "completed" and steps >= 100
        assert len(calls) <= 6 * steps
        lad = drift.ladder
        for i, (_, field) in enumerate(rec.snapshots):
            assert rec.norm_G[i] == sobolev_norm(field, lad.s_G)
            assert rec.norm_F0[i] == sobolev_norm(field, lad.s_F0)
            assert rec.norm_F1[i] == sobolev_norm(field, lad.s_F1)
            assert rec.norm_D[i] == sobolev_norm(field, lad.s_D)

    def test_one_ladder_pass_per_trial_state(self, monkeypatch):
        # the trial state's four norms are one pass, reused by the growth
        # check, the row and the next step; the only other norm is the
        # drift's G norm, once per state whose drift is evaluated
        import stochtame.integrators as integrators

        passes, norm_calls, trials = [], [], []
        single_step = integrators._single_step
        grid = TorusGrid(1, 64)
        drift = DriftOperator("Burgers1D")
        kernel = grid.half.kernel(grid.dealias_cutoff)  # the path's layout
        ladder_weights = kernel.weights(drift.ladder.exponents, 1)

        def counting_norms(coeffs, weights):
            if weights is ladder_weights:
                passes.append(coeffs)
            else:
                norm_calls.append(weights)
            return weighted_norms(coeffs, weights)

        def counting_step(scheme, state, B, dW, h):
            trials.append(state.X)
            return single_step(scheme, state, B, dW, h)

        monkeypatch.setattr(integrators, "weighted_norms", counting_norms)
        monkeypatch.setattr(integrators, "_single_step", counting_step)
        st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.3)
        noise = NoiseSpec(1.0, 1.4, "F0", "I")
        rec = integrate_path(sine_field(grid), drift, noise, st, WienerPath(1, 1e-3), seed=1)
        steps = rec.n_rows - 1
        assert rec.status == "completed" and len(trials) > steps  # some steps were halved
        assert len(passes) == len(trials) + 1  # the initial state, then each trial state
        assert len({id(f) for f in passes}) == len(passes)
        assert len(norm_calls) <= len(trials)
        g_weights = kernel.weights((drift.ladder.s_G,), 1)
        assert norm_calls and all(np.array_equal(w, g_weights) for w in norm_calls)

    @pytest.mark.parametrize("scheme", ["TamedEulerMaruyama", "EulerMaruyama"])
    def test_sup_norms_cover_every_accepted_step(self, scheme):
        grid = TorusGrid(1, 64)
        drift = DriftOperator("Burgers1D")
        noise = NoiseSpec(1.0, 1.4, "F0", "I")
        sups = []
        for stride in (1, 5, 25):
            st = StepperConfig(scheme=scheme, dt=1e-3, t_end=0.3)
            rec = integrate_path(
                sine_field(grid), drift, noise, st, WienerPath(1, 1e-3), seed=1, save_stride=stride
            )
            assert rec.status == "completed"
            sups.append(rec.sup_norm_sq)
            if stride == 1:
                rows = (rec.norm_G, rec.norm_F0, rec.norm_F1, rec.norm_D)
                assert sups[0] == {
                    space: float(np.max(col) ** 2) for space, col in zip(("G", "F0", "F1", "D"), rows)
                }
        assert sups[0] == sups[1] == sups[2]
        # the saved rows of the coarsest stride miss the supremum
        assert float(np.max(rec.norm_F0) ** 2) < sups[2]["F0"]

    def test_nan_drift_is_numeric_error_without_adaptation(self):
        class NanDrift:
            ladder = LADDER

            def __call__(self, X):
                return SpectralField(X.grid, np.full_like(X.coeffs, np.nan), X.block)

            def check_state(self, X):
                return []

        grid = TorusGrid(1, 32)
        st = StepperConfig(scheme="RK4Deterministic", dt=1e-2, t_end=0.1, adapt=False)
        rec = integrate_path(sine_field(grid), NanDrift(), None, st)
        assert rec.status == "numeric_error" and rec.blowup is None
        assert rec.n_rows == 1 and np.isfinite(rec.final_state.coeffs).all()
        # the trial that ends the path counts as rejected
        assert rec.trials == rec.rejections["non_finite"] == 1 and rec.accepted_steps == 0

    def test_step_accounting_on_a_refined_path(self):
        # trials split into accepted and rejected steps; at save stride 1
        # every accepted step is one row
        grid = TorusGrid(1, 32)
        x = grid.coordinates()[0]
        x0 = SpectralField.from_physical(grid, 5.0 * np.sin(x) + 2.0 * np.cos(3.0 * x))
        noise = NoiseSpec(2.0, 1.0, "F0", "I")
        st = StepperConfig(dt=1e-3, t_end=0.1, stiff_cap=0.05, growth_trigger=0.05)
        rec = integrate_path(x0, heat_drift(), noise, st, WienerPath(4, 1e-3))
        assert rec.status == "completed"
        assert rec.trials == rec.accepted_steps + rec.rejected_steps
        assert rec.accepted_steps == rec.n_rows - 1
        assert rec.rejections["stiffness"] > 0 and rec.rejections["growth"] > 0
        assert rec.rejections["crossing"] == rec.rejections["non_finite"] == 0
        assert len(rec.level_steps) == rec.finest_level + 1 and rec.finest_level > 0
        # a path that never refines stays at level 0
        plain = integrate_path(x0, heat_drift(), None, StepperConfig(dt=1e-3, t_end=0.01))
        assert plain.level_steps == (10,) and plain.trials == 10 and plain.rejected_steps == 0

    def test_drift_evals_on_a_refined_tamed_path(self):
        # a refined trial reuses its state's drift, and the last state's drift
        # is never needed: one evaluation per accepted step, as many as the
        # drift itself saw
        calls = []

        class CountedHeat(FourierMultiplierDrift):
            def __call__(self, X):
                calls.append(X)
                return super().__call__(X)

        grid = TorusGrid(1, 32)
        x = grid.coordinates()[0]
        x0 = SpectralField.from_physical(grid, 5.0 * np.sin(x) + 2.0 * np.cos(3.0 * x))
        drift = CountedHeat(LADDER, lambda ksq: -ksq)
        st = StepperConfig(dt=1e-3, t_end=0.1, stiff_cap=0.05, growth_trigger=0.05)
        rec = integrate_path(x0, drift, NoiseSpec(2.0, 1.0, "F0", "I"), st, WienerPath(4, 1e-3))
        assert rec.status == "completed" and rec.rejected_steps > 0
        assert rec.drift_evals == rec.accepted_steps == len(calls)

    def test_a_drift_that_takes_only_the_state_runs(self):
        # the loop calls A(X) and A.check_state(X) on its block field: a
        # drift takes its block from its input, with no cutoff argument
        seen = []

        class Decay:
            ladder = LADDER

            def __call__(self, X):
                seen.append(X.block)
                return -1.0 * X

            def check_state(self, X):
                seen.append(X.block)
                return []

        grid = TorusGrid(1, 32)
        st = StepperConfig(dt=1e-3, t_end=0.02)
        noise = NoiseSpec(0.5, 1.0, "F0", "I")
        rec = integrate_path(sine_field(grid), Decay(), noise, st, WienerPath(2, 1e-3), cutoff=8)
        assert rec.status == "completed" and rec.accepted_steps >= 20
        assert rec.drift_evals == rec.accepted_steps and rec.flags == [""] * rec.n_rows
        assert set(seen) == {grid.half.kernel(8)} and len(seen) > rec.drift_evals

    def test_drift_evals_on_an_rk4_path(self):
        # three stages per trial besides the cached drift of each state
        st = StepperConfig(scheme="RK4Deterministic", dt=0.1, t_end=1.0, growth_trigger=0.1)
        rec = integrate_path(sine_field(TorusGrid(1, 32)), linear_drift(5.0), None, st)
        assert rec.status == "completed" and rec.rejected_steps > 0
        assert rec.drift_evals == rec.accepted_steps + 3 * rec.trials

    def test_public_fields_are_hermitian_and_projected(self):
        # the loop steps the block of the path's kernel and keeps its
        # snapshots there; the final state is mirrored to the full layout
        grid = TorusGrid(1, 128)
        d = 16
        st = StepperConfig(dt=1e-3, t_end=0.2)
        noise = NoiseSpec(1.0, 1.4, "F0", "I")
        rec = integrate_path(
            sine_field(grid), DriftOperator("Burgers1D"), noise, st, WienerPath(6, 1e-3),
            cutoff=d, field_stride=3,
        )
        assert rec.status == "completed" and len(rec.snapshots) > 60
        final = rec.final_state
        assert not final.is_half and hermitian_defect(final) == 0.0
        assert np.all(final.coeffs[:, kinf(grid) > d] == 0.0)
        for _, field in rec.snapshots:
            assert field.block is grid.half.kernel(d)
            assert np.all(field.as_half().coeffs[:, grid.half.kinf > d] == 0.0)
        assert sobolev_norm(final.as_half(), LADDER.s_G) > 0.0

    def test_times_strictly_increasing_and_integral_monotone(self):
        grid = TorusGrid(1, 64)
        x0 = sine_field(grid)
        noise = NoiseSpec(1.5, 1.2, "F0", "I")
        st = StepperConfig(scheme="EulerMaruyama", dt=1e-3, t_end=0.5, stiff_cap=0.05)
        rec = integrate_path(x0, heat_drift(), noise, st, WienerPath(4, 1e-3), seed=4)
        assert np.all(np.diff(rec.times) > 0)
        assert np.all(np.diff(rec.int_F1sq) >= 0)

    def test_requires_wiener_with_noise(self):
        grid = TorusGrid(1, 32)
        noise = NoiseSpec(1.0, 1.0, "F0", "I")
        st = StepperConfig(dt=0.1, t_end=0.2)
        with pytest.raises(ValueError):
            integrate_path(sine_field(grid), heat_drift(), noise, st, None)

    def test_rows_cost_under_250_bytes_each(self):
        # the traced peak of a path grows by the memory of its rows: one flat
        # float buffer and two lists cost about 80 bytes a row, where a tuple
        # a row, copied at the end, peaked at about 420
        import tracemalloc

        x0 = sine_field(TorusGrid(1, 8))
        noise = NoiseSpec(0.2, 0.0, "F0", "I")
        peaks, rows = [], []
        for t_end in (1.0, 3.0):
            st = StepperConfig(dt=1e-3, t_end=t_end)
            tracemalloc.start()
            try:
                rec = integrate_path(x0, linear_drift(0.0), noise, st, WienerPath(1, 1e-3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rec.level_steps == (round(t_end / 1e-3),)
            rows.append(rec.n_rows)
        assert (peaks[1] - peaks[0]) / (rows[1] - rows[0]) <= 250.0

    def test_floor_is_an_exponent(self):
        # a drift too stiff for every step above the floor: the path halves
        # its step dt_min_exponent times and ends at the floor
        st = StepperConfig(dt=1e-3, t_end=0.01, dt_min_exponent=12)
        rec = integrate_path(sine_field(TorusGrid(1, 32)), linear_drift(1e9), None, st)
        assert rec.status == "blowup" and rec.blowup == (0.0, "dt_underflow")
        assert rec.finest_level == 12 and rec.trials == rec.rejections["stiffness"] == 13

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(scheme="Nope")
        with pytest.raises(ValueError, match="scheme must be one of"):
            StepperConfig(scheme="Milstein1D")
        with pytest.raises(ValueError):
            StepperConfig(dt=1e-3, dt_min_exponent=0)
        with pytest.raises(ValueError):
            st = StepperConfig(dt=1e-3, t_end=0.1, blowup_threshold=0.1)
            grid = TorusGrid(1, 32)
            integrate_path(sine_field(grid), heat_drift(), None, st)
