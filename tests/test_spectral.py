import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from full_layout import hermitian_defect, kinf, ksq
from stochtame.spectral import (
    GalerkinProjector,
    GridMismatchError,
    NonFiniteFieldError,
    SpaceLadder,
    SpectralField,
    TorusGrid,
    dealias,
    galerkin_project,
    inner_product,
    interpolation_check,
    load_field,
    random_field,
    save_field,
    sobolev_norm,
)


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


@pytest.fixture
def sin_field(grid):
    return SpectralField.from_modes(grid, [((1,), 0, -0.5j)])


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(1, 3)
    with pytest.raises(ValueError):
        TorusGrid(1, 5)
    with pytest.raises(ValueError):
        TorusGrid(4, 8)


class TestSobolevNorm:
    def test_zero_field(self, grid):
        assert sobolev_norm(SpectralField.zeros(grid), 3.0) == 0.0

    def test_sin_l2_and_h1(self, sin_field):
        # two-term Fourier sum: |c|^2 = 1/4 at k = +-1
        assert sobolev_norm(sin_field, 0.0) == pytest.approx(np.sqrt(0.5), rel=1e-14)
        assert sobolev_norm(sin_field, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_single_pair_weighted(self, grid):
        # one Hermitian pair at |k| = 2 with total mass 1:
        # norm^2 = (1+4)^s, computed directly from the weighted sum
        f = SpectralField.from_modes(grid, [((2,), 0, np.sqrt(0.5) * np.exp(0.3j))])
        assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(5.0), rel=1e-13)
        assert sobolev_norm(f, 2.0) == pytest.approx(5.0, rel=1e-13)

    def test_nonfinite_raises(self, grid):
        f = SpectralField.zeros(grid)
        f.coeffs[0, 3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            sobolev_norm(f, 0.0)

    def test_matches_physical_space_quadrature(self, grid):
        # independent oracle: trapezoidal quadrature of f^2 and f'^2
        x = grid.coordinates()[0]
        vals = np.sin(3 * x) + 0.25 * np.cos(5 * x)
        f = SpectralField.from_physical(grid, vals).as_half()
        l2_sq = np.mean(vals**2)
        assert sobolev_norm(f, 0.0) ** 2 == pytest.approx(l2_sq, rel=1e-12)

    def test_monotone_in_exponent(self, grid):
        f = random_field(grid, 1, 4.0, 1.0, seed=5)
        norms = [sobolev_norm(f, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))


class TestLadderNorms:
    LADDER = SpaceLadder(-0.5, 1.0, 3.0, 4.0)

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 8)])
    @pytest.mark.parametrize("components", [1, 3])
    def test_bit_equal_to_sobolev_norm(self, dim, n, components):
        grid = TorusGrid(dim, n)
        lad = self.LADDER
        for seed in range(3):
            f = random_field(grid, components, 2.5, 10.0 ** (seed - 1), seed)
            want = tuple(sobolev_norm(f, s) for s in (lad.s_G, lad.s_F0, lad.s_F1, lad.s_D))
            assert lad.norms(f) == want
            assert want[0] < want[1] < want[2] < want[3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_nonfinite_coefficients_raise(self, bad):
        grid = TorusGrid(2, 16)
        f = random_field(grid, 3, 2.5, 1.0, 4)
        f.coeffs[1, 2, 5] = bad
        with pytest.raises(NonFiniteFieldError):
            self.LADDER.norms(f)
        for s in (0.0, 1.0, 4.0):
            with pytest.raises(NonFiniteFieldError):
                sobolev_norm(f, s)

    def test_overflowing_sum_of_finite_field_is_inf(self):
        grid = TorusGrid(1, 64)
        f = SpectralField.from_modes(grid, [((20,), 0, 1e153)])
        assert np.isfinite(f.coeffs).all()
        with np.errstate(over="ignore"):
            g, f0, f1, d = self.LADDER.norms(f)
            assert math.isfinite(g) and g == sobolev_norm(f, self.LADDER.s_G)
            assert f0 == f1 == d == math.inf
            assert sobolev_norm(f, 4.0) == math.inf


class TestHalfLayout:
    LADDER = SpaceLadder(-0.5, 1.0, 3.0, 4.0)

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 6)])
    @pytest.mark.parametrize("components", [1, 3])
    def test_half_norms_equal_the_full_sums(self, dim, n, components):
        # every mode is nonzero, on the planes k_last = 0 and k_last = n/2
        # too, where the half stores both k and -k: a wrong count of mirror
        # images there or elsewhere moves the sums
        grid = TorusGrid(dim, n)
        for seed in range(3):
            half = random_field(grid, components, 1.0, 1.0, seed)
            assert half.is_half and half.coeffs.shape[-1] == n // 2 + 1
            full = half.as_full()
            assert hermitian_defect(full) == 0.0 and np.min(np.abs(full.coeffs)) > 0.0
            power = np.abs(full.coeffs) ** 2
            for s, got in zip(self.LADDER.exponents, self.LADDER.norms(half)):
                want = math.sqrt(np.sum((1.0 + ksq(grid)) ** s * power))
                assert abs(got - want) <= 1e-14 * want
                assert sobolev_norm(half, s) == got

    def test_layouts_round_trip(self):
        grid = TorusGrid(2, 8)
        f = random_field(grid, 3, 2.0, 1.0, 5)
        full = f.as_full()
        assert np.array_equal(full.as_half().coeffs, f.coeffs)
        assert full.as_full() is full and f.as_half() is f
        values = np.real(np.fft.ifftn(full.coeffs, axes=(1, 2))) * grid.n**2
        assert np.allclose(f.to_physical(), values, atol=1e-14)
        p = GalerkinProjector(2)
        projected = galerkin_project(full, p)
        assert not projected.is_half
        assert np.array_equal(projected.coeffs, full.coeffs * (kinf(grid) <= 2))
        assert np.array_equal(projected.as_half().coeffs, galerkin_project(f, p).coeffs)
        with pytest.raises(GridMismatchError):
            f + full


class TestInnerProduct:
    def test_disjoint_support_orthogonal(self, grid):
        a = SpectralField.from_modes(grid, [((1,), 0, 1j)])
        b = SpectralField.from_modes(grid, [((3,), 0, 0.5)])
        assert inner_product(a, b, 1.0) == 0.0

    def test_self_pairing_is_norm_squared(self, sin_field):
        assert inner_product(sin_field, sin_field, 1.0) == pytest.approx(
            sobolev_norm(sin_field, 1.0) ** 2, rel=1e-14
        )

    def test_bilinear(self, grid):
        a = random_field(grid, 1, 4.0, 1.0, 1)
        b = random_field(grid, 1, 4.0, 1.0, 2)
        assert inner_product(2.0 * a, b, 0.5) == pytest.approx(
            2.0 * inner_product(a, b, 0.5), rel=1e-13
        )

    def test_grid_mismatch(self, grid):
        a = SpectralField.zeros(grid)
        b = SpectralField.zeros(TorusGrid(1, 32))
        with pytest.raises(GridMismatchError):
            inner_product(a, b, 0.0)

    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16)])
    def test_half_pairings_are_the_field_pairings(self, dim, n):
        # the half sums weight each stored mode by its mirror images; the
        # oracle sums every mode of the full array
        from stochtame.models import dissipation_term

        grid = TorusGrid(dim, n)
        a, b = (random_field(grid, 2, 2.0, 1.0, seed) for seed in (3, 4))
        k2 = ksq(grid)
        fa, fb = a.as_full().coeffs, b.as_full().coeffs
        for s in (0.0, 1.5):
            pair = inner_product(a.as_half(), b.as_half(), s)
            assert pair == inner_product(a, b, s)
            want = np.sum((1.0 + k2) ** s * (fa.conj() * fb).real)
            assert abs(pair - want) <= 1e-14 * np.sum((1.0 + k2) ** s * np.abs(fa * fb))
            dissipation = dissipation_term(a.as_half(), s)
            assert dissipation == dissipation_term(a, s)
            want = np.sum((1.0 + k2) ** s * k2 * np.abs(fa) ** 2)
            assert abs(dissipation - want) <= 1e-14 * want


class TestProjection:
    def test_idempotent_and_fixed_point(self, grid):
        f = random_field(grid, 1, 4.0, 1.0, 7)
        p = GalerkinProjector(8)
        pf = galerkin_project(f, p)
        assert np.array_equal(pf.coeffs, galerkin_project(pf, p).coeffs)
        low = SpectralField.from_modes(grid, [((2,), 0, 1.0 + 1j)])
        assert np.array_equal(galerkin_project(low, p).coeffs, low.coeffs)

    def test_norm_contraction(self, grid):
        f = random_field(grid, 1, 3.0, 1.0, 8)
        pf = galerkin_project(f, GalerkinProjector(5))
        for s in (0.0, 1.0, 2.0, 4.0):
            assert sobolev_norm(pf, s) <= sobolev_norm(f, s)

    def test_commutes_with_scaling(self, grid):
        f = random_field(grid, 1, 3.0, 1.0, 9)
        p = GalerkinProjector(6)
        assert np.allclose(
            galerkin_project(3.5 * f, p).coeffs, (3.5 * galerkin_project(f, p)).coeffs
        )

    def test_cutoff_beyond_nyquist(self, grid):
        with pytest.raises(ValueError):
            galerkin_project(SpectralField.zeros(grid), GalerkinProjector(64))


class TestDealias:
    def test_low_mode_unchanged_and_idempotent(self, grid):
        low = SpectralField.from_modes(grid, [((5,), 0, 2.0 - 1j)])
        d = dealias(low)
        assert np.array_equal(d.coeffs, low.coeffs)
        f = random_field(grid, 1, 3.0, 1.0, 11)
        assert np.array_equal(dealias(dealias(f)).coeffs, dealias(f).coeffs)

    def test_product_of_single_modes_exact(self):
        # hand convolution: sin(3x)*sin(4x) = (cos x - cos 7x)/2
        grid = TorusGrid(1, 64)
        x = grid.coordinates()[0]
        a = SpectralField.from_physical(grid, np.sin(3 * x))
        b = SpectralField.from_physical(grid, np.sin(4 * x))
        prod_phys = a.to_physical()[0] * b.to_physical()[0]
        prod = dealias(SpectralField.from_physical(grid, prod_phys))
        expected = dealias(
            SpectralField.from_physical(grid, 0.5 * (np.cos(x) - np.cos(7 * x)))
        )
        assert np.allclose(prod.coeffs, expected.coeffs, atol=1e-15)

    @pytest.mark.parametrize("dim, n, components", [(1, 64, 1), (2, 16, 2), (3, 8, 3)])
    def test_half_layout_matches_full(self, dim, n, components):
        grid = TorusGrid(dim, n)
        f = random_field(grid, components, 2.0, 1.0, 5)
        half = dealias(f)
        assert half.is_half
        # the 2/3 rule as a mask over the full array, multiplied in; equal
        # values, as the mirror conjugates masked modes, so a zero's sign may differ
        kept = kinf(grid) <= (n - 1) // 3
        assert np.array_equal(half.as_full().coeffs, f.as_full().coeffs * kept)
        assert np.array_equal(dealias(f.as_full()).coeffs, half.as_full().coeffs)


class TestLadder:
    def test_exponent_relation_enforced(self):
        with pytest.raises(ValueError):
            SpaceLadder(0.0, 3.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            SpaceLadder(0.0, 1.0, 3.0, 4.0, m=0.9)
        lad = SpaceLadder(0.0, 1.0, 3.0, 4.0)
        assert lad.m == pytest.approx(1.0 / 3.0)

    def test_interpolation_zero_field(self, grid):
        lad = SpaceLadder(0.0, 1.0, 2.0, 3.0)
        assert interpolation_check(SpectralField.zeros(grid), lad) == (0.0, 0.0)

    def test_interpolation_single_mode_equality(self, sin_field):
        # closed form: lhs = ||sin||_{H1} = 1, rhs = 2^(1/4) * (1/2)^(1/4) = 1
        lad = SpaceLadder(0.0, 1.0, 2.0, 3.0)
        lhs, rhs = interpolation_check(sin_field, lad)
        assert lhs == pytest.approx(1.0, rel=1e-14)
        assert rhs == pytest.approx(1.0, rel=1e-13)

    def test_interpolation_strict_for_multimode(self, grid):
        lad = SpaceLadder(0.0, 1.0, 2.0, 3.0)
        for seed in range(40):
            f = random_field(grid, 1, 4.0, 1.0, seed)
            lhs, rhs = interpolation_check(f, lad)
            assert lhs < rhs


class TestRandomField:
    def test_deterministic_given_seed(self, grid):
        a = random_field(grid, 2, 4.0, 1.0, 13)
        b = random_field(grid, 2, 4.0, 1.0, 13)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_zero_amplitude(self, grid):
        f = random_field(grid, 1, 4.0, 0.0, 1)
        assert sobolev_norm(f, 0.0) == 0.0

    def test_spectrum_slope(self):
        # log-log regression of the shell-mean modulus against (1+k^2)
        grid = TorusGrid(1, 256)
        decay = 3.0
        f = random_field(grid, 1, decay, 1.0, 17)
        k = np.abs(np.fft.fftfreq(grid.n, 1.0 / grid.n))
        mask = (k >= 2) & (k <= 60)
        amp = np.abs(f.as_full().coeffs[0])[mask]
        w = (1.0 + k[mask] ** 2)
        slope, _ = np.polyfit(np.log(w), np.log(amp + 1e-300), 1)
        assert abs((-2 * slope) - decay) / decay < 0.05

    def test_hermitian_and_real(self, grid):
        f = random_field(grid, 1, 4.0, 1.0, 19)
        assert hermitian_defect(f) < 1e-15
        phys = np.fft.ifft(f.as_full().coeffs[0]) * grid.n
        assert np.max(np.abs(phys.imag)) < 1e-12

    def test_tail_condition_checked(self, grid):
        lad = SpaceLadder(0.0, 1.0, 3.0, 4.0)
        with pytest.raises(ValueError):
            random_field(grid, 1, 3.0, 1.0, 1, ladder=lad)


class TestRoundTrips:
    def test_physical_round_trip(self):
        grid = TorusGrid(2, 32)
        f = random_field(grid, 2, 4.0, 1.0, 23)
        g = SpectralField.from_physical(grid, f.to_physical()).as_half()
        assert np.max(np.abs(f.coeffs - g.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_snapshot_bit_exact(self):
        grid = TorusGrid(2, 16)
        f = random_field(grid, 3, 4.0, 1.0, 29)
        buf = io.BytesIO()
        save_field(buf, f)
        buf.seek(0)
        g = load_field(buf)
        assert g.grid == f.grid
        assert np.array_equal(g.coeffs, f.coeffs)


@settings(max_examples=25, deadline=None)
@given(
    s1=st.floats(-2.0, 4.0),
    s2=st.floats(-2.0, 4.0),
    seed=st.integers(0, 1000),
)
def test_norm_monotone_property(s1, s2, seed):
    grid = TorusGrid(1, 32)
    f = random_field(grid, 1, 4.0, 1.0, seed)
    lo, hi = min(s1, s2), max(s1, s2)
    assert sobolev_norm(f, lo) <= sobolev_norm(f, hi) * (1 + 1e-12)
