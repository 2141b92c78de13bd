"""The two drift kernels: their one block layout, the dense block products
against numpy's FFT, every drift on both against the mode-by-mode
convolution, the kernel each block gets and the cutoffs it refuses, and the
height check that goes through them."""

from dataclasses import replace

import numpy as np
import pytest

from stochtame.control import ControlSchedule, control_run
from stochtame.integrators import StepperConfig, integrate_path
from stochtame.models import DriftOperator, ModelParams, random_state
from stochtame.noise import NoiseSpec, WienerPath
from stochtame.spectral import (
    DenseKernel,
    FFTKernel,
    GalerkinProjector,
    SpectralField,
    TorusGrid,
    galerkin_project,
    random_field,
)
from test_models import (
    KERNELS,
    QUADRATIC_KINDS,
    _band_limited_state,
    _oracle_drift,
    _params,
    force_kernel,
)


def _block_state(grid, components, cutoff, seed):
    field = random_field(grid, components, 1.0, 1.0, seed)
    return galerkin_project(field, GalerkinProjector(cutoff))


def _block(dim, cutoff, points):
    """The index of the block ``|k|_inf <= cutoff`` into a stack of half
    arrays with ``points`` per axis."""
    rows = np.r_[0 : cutoff + 1, -cutoff:0] % points
    return (slice(None),) + np.ix_(*[rows] * (dim - 1), np.arange(cutoff + 1))


@pytest.mark.parametrize("dim, n, cutoff", [(1, 64, 12), (2, 16, 4), (2, 32, 10), (3, 10, 3)])
def test_dense_transforms_match_numpy_fft(dim, n, cutoff):
    # on random blocks: the grid values against irfftn of the block on
    # M = 3d + 1 points, and the tendency of random grid values against
    # minus their normalised rfftn, kept on the block
    grid = TorusGrid(dim, n)
    kernel = DenseKernel(grid.half, cutoff)
    M = kernel.points
    assert M == 3 * cutoff + 1
    axes = tuple(range(-dim, 0))
    on_model, on_points = _block(dim, cutoff, n), _block(dim, cutoff, M)
    for seed in range(3):
        half = _block_state(grid, 3, cutoff, seed).coeffs
        placed = np.zeros((3,) + (M,) * (dim - 1) + (M // 2 + 1,), complex)
        placed[on_points] = half[on_model]
        want = np.fft.irfftn(placed, s=(M,) * dim, axes=axes, norm="forward")
        values = kernel.to_physical(kernel.read(half))
        assert np.max(np.abs(values - want)) <= 1e-13 * np.max(np.abs(want))

        grid_values = np.random.default_rng(seed).standard_normal((2,) + (M,) * dim)
        want = np.zeros((2,) + grid.half.kinf.shape, complex)
        want[on_model] = (-np.fft.rfftn(grid_values, axes=axes) / M**dim)[on_points]
        tendency = kernel.write(kernel.tendency(grid_values))
        assert np.max(np.abs(tendency - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, n, cutoff", [(1, 64, 12), (2, 32, 8), (3, 10, 3)])
def test_dense_values_on_the_model_grid_are_the_inverse_fft(dim, n, cutoff):
    grid = TorusGrid(dim, n)
    kernel = DenseKernel(grid.half, cutoff)
    for seed in range(3):
        half = _block_state(grid, 2, cutoff, seed).coeffs
        want = grid.half.to_physical(half)
        values = kernel.grid_values(kernel.read(half))
        assert np.max(np.abs(values - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (2, 32), (3, 10)])
def test_both_kernels_share_one_block_layout(dim, n):
    # the block gathered, (2d + 1, ..., d + 1), at the 2/3 cutoff and a
    # smaller one: the same index, shape, per-mode arrays and ladder weights
    hs = TorusGrid(dim, n).half
    for cutoff in (hs.dealias_cutoff, 2):
        dense, fft = DenseKernel(hs, cutoff), FFTKernel(hs, cutoff)
        assert len(dense.index) == len(fft.index) == dim + 1
        for a, b in zip(dense.index, fft.index):
            assert a == b if not isinstance(a, np.ndarray) else np.array_equal(a, b)
        assert dense.shape == fft.shape == (2 * cutoff + 1,) * (dim - 1) + (cutoff + 1,)
        for a, b in zip(dense.k_axes + (dense.ksq,), fft.k_axes + (fft.ksq,)):
            assert np.array_equal(a, b)
        exponents = (0.0, 1.0, 3.0, 4.0)
        assert np.array_equal(dense.weights(exponents, 3), fft.weights(exponents, 3))
        assert np.max(dense.kinf) == cutoff


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_cutoffs_outside_the_two_thirds_range_are_refused(dim, n):
    # a kernel, a path and a switching path alike, with one message
    grid = TorusGrid(dim, n)
    hs = grid.half
    X0 = random_field(grid, 1, 2.0, 1.0, 0)
    st = StepperConfig(scheme="RK4Deterministic", dt=1e-3, t_end=0.01)
    drift = DriftOperator("Burgers1D" if dim == 1 else "Vorticity2D")
    for cutoff in (0, (n - 1) // 3 + 1):
        with pytest.raises(ValueError, match=r"\(n - 1\)//3"):
            hs.kernel(cutoff)
        with pytest.raises(ValueError, match=r"\(n - 1\)//3"):
            integrate_path(X0, drift, None, st, cutoff=cutoff)
        with pytest.raises(ValueError, match=r"\(n - 1\)//3"):
            control_run(X0, drift, None, ControlSchedule(K=1.0), st, cutoff=cutoff)
    assert hs.kernel() is hs.kernel(hs.dealias_cutoff)


@KERNELS
@pytest.mark.parametrize("kind", QUADRATIC_KINDS)
@pytest.mark.parametrize("at_cutoff", [False, True], ids=["two_thirds", "cutoff"])
def test_drift_on_each_kernel_matches_mode_convolution(monkeypatch, kind, kernel_class, at_cutoff):
    # of a half, at the 2/3 cutoff, and of a block field of a smaller cutoff
    # d, whose drift is the convolution kept on |k|_inf <= d
    force_kernel(monkeypatch, kernel_class)
    dim = {"Burgers1D": 1, "Vorticity3D": 3}.get(kind, 2)
    band = {1: 12, 2: 4, 3: 2}[dim] if at_cutoff else {1: 20, 2: 5, 3: 3}[dim]
    cutoff = band if at_cutoff else None
    for seed in range(3):
        X = _band_limited_state(kind, seed, band)
        params = _params(kind, X.grid)
        state = X.as_full()
        if at_cutoff:
            kernel = X.grid.half.kernel(cutoff)
            state = SpectralField(X.grid, kernel.read(X.coeffs), kernel)
        out = DriftOperator(kind, params)(state).as_full()
        expected = _oracle_drift(kind, X, params, band, cutoff)
        scale = np.max(np.abs(expected))
        assert scale > 0.0
        assert np.max(np.abs(out.coeffs - expected)) <= 1e-12 * scale


@KERNELS
def test_rsw_drift_of_a_block_state_lies_in_the_block(monkeypatch, kernel_class):
    # the topography is read on the block too: one with modes above the
    # cutoff acts as its projection, and nothing leaves the block
    force_kernel(monkeypatch, kernel_class)
    grid = TorusGrid(2, 32)
    topography = random_field(grid, 1, 2.0, 0.2, 99)
    params = ModelParams(nu=0.3, eta=0.2, topography=topography)
    projected = replace(params, topography=galerkin_project(topography, GalerkinProjector(6)))
    kernel = grid.half.kernel(6)
    X = random_state("RSW_Viscous", grid, 2.0, 1.0, 0)
    block = SpectralField(grid, kernel.read(X.coeffs), kernel)
    out = DriftOperator("RSW_Viscous", params)(block)
    assert out.block is kernel and np.max(np.abs(out.coeffs)) > 0.0
    assert np.array_equal(out.coeffs, DriftOperator("RSW_Viscous", projected)(block).coeffs)
    assert np.max(np.abs(out.as_half().coeffs[:, grid.half.kinf > 6])) == 0.0


@pytest.mark.parametrize(
    "dim, n, cutoff, kernel_class",
    [
        (1, 256, 8, DenseKernel),
        (1, 256, 16, DenseKernel),
        (1, 256, 32, DenseKernel),
        (2, 32, 8, DenseKernel),
        (2, 32, 10, DenseKernel),
        # the largest cutoff of the Burgers ensemble: about as fast either way
        (1, 256, 64, FFTKernel),
        (2, 64, 21, FFTKernel),
        (1, 1024, 341, FFTKernel),
    ],
)
def test_each_block_gets_the_faster_kernel(dim, n, cutoff, kernel_class):
    assert type(TorusGrid(dim, n).half.kernel(cutoff)) is kernel_class


def test_height_check_reads_the_model_grid():
    # h = c + cos(8 x) dips to c - 1 on the 32-point model grid, but stays
    # above c - 0.993 on the 25-point grid of the d = 8 dense kernel
    grid = TorusGrid(2, 32)
    x, _ = grid.coordinates()
    height = np.broadcast_to(0.995 + np.cos(8 * x), (32, 32))
    state = SpectralField.from_physical(grid, np.stack([0 * height, 0 * height, height])).as_half()
    A = DriftOperator("RSW_Inviscid")
    kernel = grid.half.kernel(8)
    assert type(kernel) is DenseKernel
    block = SpectralField(grid, kernel.read(state.coeffs), kernel)
    assert A.check_state(block) == A.check_state(state) == ["height_nonpositive"]
    state.coeffs[2, 0, 0] += 0.01
    block.coeffs[2, 0, 0] += 0.01
    assert A.check_state(block) == A.check_state(state) == []


def _fft_calls(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn"):
        function = getattr(np.fft, name)

        def spy(*args, function=function, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return calls


@pytest.mark.parametrize("kernel_class", [DenseKernel, FFTKernel], ids=["dense", "fft"])
def test_a_dense_side_path_makes_no_fft_call(monkeypatch, kernel_class):
    # a shallow-water path at 32 x 32, d = 8: its drifts and its height
    # check on every saved row run on the dense kernel; forced onto the FFT
    # kernel, both call pocketfft
    force_kernel(monkeypatch, kernel_class)
    grid = TorusGrid(2, 32)
    X0 = galerkin_project(random_state("RSW_Inviscid", grid, 4.0, 0.1, 3), GalerkinProjector(8))
    X0.coeffs[2, 0, 0] = 1.0
    calls = _fft_calls(monkeypatch)
    st = StepperConfig(scheme="EulerMaruyama", dt=1e-3, t_end=0.02)
    rec = integrate_path(
        X0, DriftOperator("RSW_Inviscid"), NoiseSpec.for_case(0.5, 0.4, "II"), st,
        WienerPath(1, 1e-3), cutoff=8,
    )
    assert rec.status == "completed" and rec.n_rows == 21
    if kernel_class is DenseKernel:
        assert calls == []
    else:
        assert len(calls) >= rec.drift_evals + rec.n_rows - 1
