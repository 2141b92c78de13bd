"""Acceptance criteria that run in seconds: each passes on the program and
fails when the identity it checks is broken."""

import dataclasses

import numpy as np
import pytest

from stochtame import acceptance, experiments, models
from stochtame.noise import GbmSpec
from stochtame.spectral import SpectralField


def test_ac1_decay_fraction_lies_in_its_binomial_band():
    frac, p, band = acceptance.ac1_decay_clause()
    assert p == pytest.approx(0.803, abs=5e-4) and band == pytest.approx(0.038, abs=5e-4)
    assert abs(frac - p) <= band
    for seed in range(3):
        frac, p, band = acceptance.ac1_decay_clause(seed)
        assert abs(frac - p) <= band


@pytest.mark.parametrize(
    "broken",
    [
        # the Ito term -b^2 T/2 dropped: log X_T = a T + b W_T
        lambda spec: GbmSpec(spec.a + spec.b**2 / 2.0, spec.b, spec.f0),
        # the noise at b = 1
        lambda spec: GbmSpec(spec.a, 1.0, spec.f0),
    ],
)
def test_ac1_decay_clause_rejects_a_wrong_sampler(monkeypatch, broken):
    study = experiments.gbm_study
    monkeypatch.setattr(
        acceptance, "gbm_study", lambda specs, **kw: study([broken(s) for s in specs], **kw)
    )
    frac, p, band = acceptance.ac1_decay_clause()
    assert frac < 0.05 and abs(frac - p) > band


@pytest.mark.parametrize("seed", [acceptance.SUITE_SEED + 1, 0, 1, 2])
def test_ac1_order_lies_in_its_band(seed):
    lo, hi = acceptance.AC1_ORDER_BAND
    assert lo <= acceptance.ac1_order_clause(seed) <= hi


def test_ac1_order_clause_rejects_a_kernel_without_the_noise_term(monkeypatch):
    # the tamed drift step alone: its error against the GBM does not shrink
    # with the step, and the fitted slope is near 0
    def drift_only(x, a, b, dw, h):
        for _ in range(dw.shape[0]):
            m = a * x
            x += h * m / (1.0 + h * np.abs(m))

    monkeypatch.setattr(experiments, "tamed_gbm_chunk", drift_only)
    lo, hi = acceptance.AC1_ORDER_BAND
    assert not lo <= acceptance.ac1_order_clause() <= hi


def test_ac7_passes():
    result = acceptance.ac7_structural()
    assert result.passed, result.details


def test_ac7_rejects_a_broken_identity(monkeypatch):
    biot_savart = models.biot_savart

    def flipped(omega):
        u = biot_savart(omega)
        sign = np.ones((u.components,) + (1,) * omega.grid.dim)
        sign[0] = -1.0
        return SpectralField(u.grid, u.coeffs * sign)

    monkeypatch.setattr(models, "biot_savart", flipped)
    result = acceptance.ac7_structural()
    assert not result.passed
    assert any("biot-savart" in m for m in result.details["failures"])


def test_ac7_rejects_a_projection_that_keeps_a_mode_beyond_the_cutoff(monkeypatch):
    project = acceptance.galerkin_project

    def leaky(f, p):
        out = project(f, p)
        kept = f.grid.half.kinf == p.cutoff + 1
        out.coeffs[:, kept] = f.as_half().coeffs[:, kept]
        return out

    monkeypatch.setattr(acceptance, "galerkin_project", leaky)
    result = acceptance.ac7_structural()
    assert not result.passed
    assert any("beyond its cutoff" in m for m in result.details["failures"])


def test_ac8_without_a_shallow_water_ensemble_claims_no_check_of_it():
    # AC-5 ran no shallow-water ensemble: its schedules were not checked, so
    # the criterion reports None for them, not True, and passes on the
    # switching arm alone
    class NoRuns:
        by_d = ()

        def paths(self, d):
            return []

    result = acceptance.ac8_schedule_validity(NoRuns(), None)
    assert result.passed
    assert result.details["rsw_schedules_ok"] is None


def _outcome(seed, **fields):
    return experiments.PathOutcome(
        seed=seed, status="completed", sup_sq={}, int_f1sq=0.0, **fields
    )


def _switching_stats(corrupt=None):
    """Two cutoffs of four switching paths each, every schedule valid with a
    positive dwell; ``corrupt`` edits the last path's fields."""
    by_d = {
        d: [_outcome(10 * d + i, schedule_passed=True, alpha_dwell=0.5 + i) for i in range(4)]
        for d in (8, 10)
    }
    if corrupt:
        by_d[10][-1] = dataclasses.replace(by_d[10][-1], **corrupt)
    return experiments.SummaryStats(by_d=by_d, K_grid=(1.0,), delta_grid=None)


def test_ac8_passes_on_valid_schedules():
    result = acceptance.ac8_schedule_validity(_switching_stats(), _switching_stats())
    assert result.passed
    assert result.details["validated_runs"] == 8 and result.details["failures"] == 0
    assert result.details["min_dwell"] == 0.5 and result.details["rsw_schedules_ok"] is True


@pytest.mark.parametrize(
    "corrupt", [{"schedule_passed": False}, {"alpha_dwell": 0.0}], ids=["schedule", "dwell"]
)
def test_ac8_rejects_one_bad_switching_path(corrupt):
    result = acceptance.ac8_schedule_validity(_switching_stats(corrupt), None)
    assert not result.passed


def test_ac8_rejects_one_bad_shallow_water_schedule():
    bad = _switching_stats({"schedule_passed": False})
    result = acceptance.ac8_schedule_validity(_switching_stats(), bad)
    assert not result.passed and result.details["rsw_schedules_ok"] is False


DELTAS = (0.01, 0.1)


def _increment_stats(large_small_windows=0, empty_cutoff=False):
    """Ten paths at each of two cutoffs whose smallest-window increments lie
    far below the largest-window median, so p_hat is 0 there; the cutoff
    d = 16 gets ``large_small_windows`` paths with a large one, or no
    increment samples at all."""
    by_d = {}
    for d in (8, 16):
        paths = []
        for i in range(10):
            small = 5.0 if d == 16 and i < large_small_windows else 1e-3
            aldous = None if d == 16 and empty_cutoff else {0.01: small, 0.1: 1.0 + 0.01 * i}
            paths.append(_outcome(100 * d + i, aldous=aldous))
        by_d[d] = paths
    return experiments.SummaryStats(by_d=by_d, K_grid=(1.0,), delta_grid=DELTAS)


def test_ac6_passes_on_small_increments():
    result = acceptance.ac6_increment_statistics(_increment_stats())
    assert result.passed
    assert result.details["delta_min"] == 0.01
    assert result.details["p_at_delta_min"] == {8: 0.0, 16: 0.0}


@pytest.mark.parametrize(
    "stats",
    [
        pytest.param(lambda: _increment_stats(large_small_windows=2), id="p_hat_above_0.1"),
        pytest.param(lambda: _increment_stats(empty_cutoff=True), id="no_samples"),
    ],
)
def test_ac6_rejects_a_cutoff_with_large_or_missing_increments(stats):
    assert not acceptance.ac6_increment_statistics(stats()).passed
