import numpy as np
import pytest

from stochtame.experiments import _aldous_increments
from stochtame.integrators import StepperConfig, integrate_path
from stochtame.models import DriftOperator
from stochtame.noise import NoiseSpec, WienerPath
from stochtame.spectral import SpectralField, TorusGrid, sobolev_norm

DELTAS = (0.004, 0.01, 0.04, 0.1, 0.25)


def aldous_oracle(record, delta_grid, seed, use_hitting, ladder):
    """Window suprema by a loop over snapshots, norms recomputed from the fields."""
    snaps = record.snapshots
    times = np.asarray([t for t, _ in snaps])
    latest = times[-1] - max(delta_grid)
    if use_hitting:
        norms = np.asarray([sobolev_norm(f, ladder.s_F0) for _, f in snaps])
        eligible = np.nonzero((norms >= np.median(norms)) & (times <= latest))[0]
        idx = int(eligible[0]) if len(eligible) else int(np.searchsorted(times, latest))
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7919)))
        target = rng.uniform(0.0, times[-1] / 2.0)
        idx = int(np.searchsorted(times, min(target, latest), side="right") - 1)
    idx = max(0, min(idx, len(times) - 2))
    out = {}
    for delta in delta_grid:
        sup = 0.0
        j = idx + 1
        while j < len(times) and times[j] <= times[idx] + delta + 1e-12:
            sup = max(sup, sobolev_norm(snaps[j][1] - snaps[idx][1], ladder.s_G))
            j += 1
        out[float(delta)] = sup
    return out


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("use_hitting", [True, False])
def test_aldous_increments_match_loop_oracle(seed, use_hitting):
    grid = TorusGrid(1, 64)
    drift = DriftOperator("Burgers1D")
    x0 = SpectralField.from_physical(grid, np.sin(grid.coordinates()[0]))
    st = StepperConfig(scheme="TamedEulerMaruyama", dt=1e-3, t_end=0.5, field_stride=2)
    noise = NoiseSpec(1.0, 1.4, "F0", "I")
    rec = integrate_path(x0, drift, noise, st, WienerPath(seed, 1e-3), cutoff=16, seed=seed)
    assert rec.status == "completed" and len(rec.snapshots) > 200
    got = _aldous_increments(rec, DELTAS, seed, use_hitting, drift.ladder)
    want = aldous_oracle(rec, DELTAS, seed, use_hitting, drift.ladder)
    assert got.keys() == want.keys()
    assert all(want[d] > 0.0 for d in want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=1e-12)
