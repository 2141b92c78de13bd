"""A path's loop runs in its block kernel's layout: the drift of a block
field is the drift of its half read on the block, and the loop reads and
writes halves only at its boundary."""

import numpy as np
import pytest

from full_layout import hermitian_defect
from stochtame.models import CATALOGUE, DriftOperator, ModelParams
from stochtame.spectral import DenseKernel, FFTKernel, SpectralField, random_field
from test_models import KERNELS, _band_limited_state, _params, force_kernel
from test_paths_kept import BURGERS, PINNED, RSW, _run

KINDS = tuple(CATALOGUE)


def _drift_and_state(kind, seed, cutoff):
    """The drift operator of ``kind`` and a state of it in V_cutoff, on the
    grid of :func:`_band_limited_state`; the shallow-water topography has
    modes above the cutoff, which the drift reads on the block."""
    X = _band_limited_state(kind, seed, cutoff)
    params = _params(kind, X.grid)
    if kind == "RSW_Viscous":
        topography = random_field(X.grid, 1, 2.0, 0.2, 99)
        params = ModelParams(nu=0.3, eta=0.2, f_coriolis=1.3, topography=topography)
    return DriftOperator(kind, params), X


def _cutoffs(kind):
    """The grid's 2/3 cutoff and a smaller one."""
    dim = CATALOGUE[kind].dim
    return {1: (21, 12), 2: (5, 3), 3: (3, 2)}[dim]


@KERNELS
@pytest.mark.parametrize("kind", KINDS)
def test_block_drift_is_the_half_drift_read_on_the_block(monkeypatch, kind, kernel_class):
    force_kernel(monkeypatch, kernel_class)
    for cutoff in _cutoffs(kind):
        for seed in range(2):
            A, X = _drift_and_state(kind, seed, cutoff)
            kernel = X.grid.half.kernel(cutoff)
            block = SpectralField(X.grid, kernel.read(X.coeffs), kernel)
            out = A(block)
            assert out.block is kernel
            assert np.max(np.abs(out.coeffs)) > 0.0
            # written back, it lies in V_d, and its full layout is the
            # exactly Hermitian mirror
            half = out.as_half().coeffs
            outside = X.grid.half.kinf > cutoff
            assert np.max(np.abs(half[:, outside]), initial=0.0) == 0.0
            full = out.as_full()
            assert not full.is_half and hermitian_defect(full) == 0.0
            assert np.array_equal(full.coeffs, SpectralField(X.grid, half).as_full().coeffs)
            if cutoff == X.grid.dealias_cutoff:
                # a half's drift is formed on this block; the topography
                # above it acts on the half only
                assert np.array_equal(out.coeffs, kernel.read(A(X).coeffs))
                assert np.array_equal(A(X.as_full()).coeffs, A(X).as_full().coeffs)


def _boundary_calls(monkeypatch):
    """Spies on the kernels' reads and writes between halves and blocks."""
    calls = []
    for cls in (DenseKernel, FFTKernel):
        for name in ("read", "write"):
            method = getattr(cls, name, None)
            if method is None:
                continue

            def spy(self, array, name=name, method=method):
                calls.append(name)
                return method(self, array)

            monkeypatch.setattr(cls, name, spy)
    return calls


@pytest.mark.parametrize(
    "name, config, cutoff, kernel_class",
    [
        ("rsw", RSW, 8, DenseKernel),
        ("burgers", BURGERS, 16, DenseKernel),
        ("burgers", BURGERS, 64, FFTKernel),
    ],
)
def test_the_loop_reads_and_writes_halves_only_at_its_boundary(
    monkeypatch, name, config, cutoff, kernel_class
):
    # the initial projection reads the state into the block and the final
    # state writes it back; the drifts, the norms, the height checks of the
    # saved rows and the snapshots stay on the block
    grid_n = config["model"]["resolution"]
    calls = _boundary_calls(monkeypatch)
    rec = _run(config, cutoff, PINNED[name]["seed"], field_stride=2)
    assert rec.status == "completed" and rec.accepted_steps > 100
    assert rec.drift_evals >= rec.accepted_steps and len(rec.snapshots) > 10
    assert calls == ["read", "write"]
    _, field = rec.snapshots[-1]
    assert type(field.block) is kernel_class and field.grid.n == grid_n
