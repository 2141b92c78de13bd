import numpy as np
import pytest

import stochtame.models
from full_layout import hermitian_defect, kinf, ksq, wavenumbers
from stochtame.models import (
    _leray_project,
    CATALOGUE,
    DriftOperator,
    FourierMultiplierDrift,
    ModelParams,
    biot_savart,
    burgers_drift,
    curl,
    dissipation_term,
    divergence,
    drift_pairing_report,
    lipschitz_quotient,
    random_state,
    rsw_drift,
    vorticity_drift,
)
from stochtame.spectral import (
    DenseKernel,
    FFTKernel,
    SpaceLadder,
    SpectralField,
    TorusGrid,
    dealias,
    galerkin_project,
    GalerkinProjector,
    inner_product,
    random_field,
    sobolev_norm,
)


#: both drift kernels, to parametrize over
KERNELS = pytest.mark.parametrize("kernel_class", (DenseKernel, FFTKernel), ids=("dense", "fft"))


def physical(grid, values):
    """The half of real grid values."""
    return SpectralField.from_physical(grid, values + np.zeros((grid.n,) * grid.dim)).as_half()


def sine_field(grid, amplitude=1.0):
    return physical(grid, amplitude * np.sin(grid.coordinates()[0]))


class TestBurgers:
    def test_constant_field_zero_drift(self):
        grid = TorusGrid(1, 32)
        c = SpectralField.zeros(grid)
        c.coeffs[0, 0] = 2.5
        out = burgers_drift(c, nu=0.3)
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_sin_closed_form(self):
        # -sin x cos x = -(1/2) sin 2x by symbolic differentiation
        grid = TorusGrid(1, 64)
        u = sine_field(grid)
        out = burgers_drift(u, nu=0.0)
        expected = physical(grid, -0.5 * np.sin(2 * grid.coordinates()[0]))
        assert np.max(np.abs(out.coeffs - expected.coeffs)) < 1e-14

    def test_energy_pairing_quadrature_oracle(self):
        # int u^2 u_x dx = 0 by periodic integration by parts; quadrature check
        grid = TorusGrid(1, 128)
        for seed in range(5):
            u = dealias(random_field(grid, 1, 3.5, 1.0, seed))
            out = burgers_drift(u, nu=0.0)
            pairing = inner_product(u, out, 0.0)
            uphys = u.to_physical()[0]
            ux = np.gradient(uphys, 2 * np.pi / grid.n, edge_order=2)
            quad = -np.mean(uphys**2 * ux)
            assert abs(pairing) <= max(1e-10, 10 * abs(quad) + 1e-10)
            assert abs(pairing) <= 1e-10 * sobolev_norm(u, 0.0) ** 2 + 1e-14

    def test_2d_burgers_components(self):
        grid = TorusGrid(2, 32)
        u = random_field(grid, 2, 4.5, 0.5, 3)
        out = burgers_drift(u, nu=0.1)
        assert out.components == 2
        assert np.isfinite(out.coeffs).all()


class TestBiotSavart:
    def test_zero(self):
        grid = TorusGrid(2, 16)
        u = biot_savart(SpectralField.zeros(grid))
        assert np.max(np.abs(u.coeffs)) == 0.0

    def test_sin_x_closed_form(self):
        # streamfunction psi = -sin x gives u = (0, -cos x)
        grid = TorusGrid(2, 32)
        X, _ = grid.coordinates()
        omega = physical(grid, np.sin(X))
        u = biot_savart(omega)
        uphys = u.to_physical()
        assert np.max(np.abs(uphys[0])) < 1e-13
        assert np.max(np.abs(uphys[1] + np.cos(X) + np.zeros((grid.n, grid.n)))) < 1e-13

    def test_divergence_free_and_curl_identity(self):
        grid = TorusGrid(2, 32)
        for seed in range(5):
            omega = random_field(grid, 1, 4.0, 1.0, seed, zero_mean=True)
            u = biot_savart(omega)
            scale = np.max(np.abs(omega.coeffs))
            assert np.max(np.abs(divergence(u).coeffs)) <= 1e-12 * scale
            assert np.max(np.abs(curl(u).coeffs - omega.coeffs)) <= 1e-12 * scale

    def test_3d_round_trip(self):
        grid = TorusGrid(3, 16)
        from stochtame.models import _leray_project

        omega = _leray_project(random_field(grid, 3, 5.0, 1.0, 7, zero_mean=True))
        omega.coeffs[:, 0, 0, 0] = 0.0
        u = biot_savart(omega)
        scale = np.max(np.abs(omega.coeffs))
        assert np.max(np.abs(divergence(u).coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(curl(u).coeffs - omega.coeffs)) <= 1e-11 * scale

    def test_3d_rejects_divergent_input(self):
        grid = TorusGrid(3, 8)
        bad = random_field(grid, 3, 5.0, 1.0, 9)
        with pytest.raises(ValueError):
            biot_savart(bad)


class TestVorticity:
    def test_zero(self):
        grid = TorusGrid(2, 16)
        assert np.max(np.abs(vorticity_drift(SpectralField.zeros(grid)).coeffs)) == 0.0

    def test_sin_x_advection_vanishes(self):
        # u = (0, -cos x) gives u . grad omega = 0; viscous part = -nu sin x
        grid = TorusGrid(2, 32)
        X, _ = grid.coordinates()
        omega = physical(grid, np.sin(X))
        out = vorticity_drift(omega, nu=0.7)
        expected = physical(grid, -0.7 * np.sin(X))
        assert np.max(np.abs(out.coeffs - expected.coeffs)) < 1e-13

    def test_laplacian_eigenfunction_is_steady_euler(self):
        # omega = cos x + cos y has psi proportional to omega: Jacobian vanishes
        grid = TorusGrid(2, 32)
        X, Y = grid.coordinates()
        omega = physical(grid, np.cos(X) + np.cos(Y))
        out = vorticity_drift(omega, nu=0.0)
        assert np.max(np.abs(out.coeffs)) < 1e-12

    def test_enstrophy_conservation(self):
        grid = TorusGrid(2, 32)
        for seed in range(5):
            omega = dealias(random_field(grid, 1, 4.0, 1.0, seed, zero_mean=True))
            pairing = inner_product(omega, vorticity_drift(omega, 0.0), 0.0)
            assert abs(pairing) <= 1e-10 * sobolev_norm(omega, 0.0) ** 2


class TestRsw:
    def make_state(self, grid, seed=0, amp=0.3):
        f = random_field(grid, 3, 5.0, amp, seed)
        f.coeffs[2, 0, 0] = 1.0
        return f

    def test_rest_state(self):
        grid = TorusGrid(2, 16)
        state = SpectralField.zeros(grid, 3)
        state.coeffs[2, 0, 0] = 1.0  # constant height
        out = rsw_drift(state, ModelParams(), viscous=False)
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_mass_conservation(self):
        grid = TorusGrid(2, 32)
        for seed in range(5):
            state = self.make_state(grid, seed)
            out = rsw_drift(state, ModelParams(nu=0.1, eta=0.1), viscous=True)
            assert abs(complex(out.coeffs[2, 0, 0])) <= 1e-12

    def test_geostrophic_balance(self):
        # constructed balanced state: f zhat x u = -grad p with div u = 0,
        # so the momentum tendency reduces to -(u.grad)u
        grid = TorusGrid(2, 32)
        params = ModelParams(f_coriolis=1.3, rossby=0.8, froude=1.1)
        psi = random_field(grid, 1, 5.0, 0.3, 21, zero_mean=True)
        k = grid.half.k_axes
        u_coeffs = np.stack([-1j * k[1] * psi.coeffs[0], 1j * k[0] * psi.coeffs[0]])
        # grad p = -f zhat x u => p_hat solves ik p = -f (-u2, u1)
        ksq = grid.half.ksq.copy()
        ksq[0, 0] = 1.0
        zc = np.stack([-u_coeffs[1], u_coeffs[0]])
        rhs = -params.f_coriolis * zc
        p_hat = (-1j) * (k[0] * rhs[0] + k[1] * rhs[1]) / ksq
        h_hat = p_hat * (params.rossby * params.froude)
        h_hat[0, 0] = 1.0
        state = SpectralField(grid, np.concatenate([u_coeffs, h_hat[np.newaxis]]))
        out = rsw_drift(state, params, viscous=False)
        u_field = SpectralField(grid, u_coeffs)
        from stochtame.models import advective_term

        expected_mom = -1.0 * advective_term(u_field, u_field)
        diff = np.max(np.abs(out.coeffs[0:2] - expected_mom.coeffs))
        assert diff <= 1e-10 * max(np.max(np.abs(out.coeffs)), 1.0)

    def test_height_positivity_warning(self):
        grid = TorusGrid(2, 16)
        state = SpectralField.zeros(grid, 3)
        state.coeffs[2, 0, 0] = -0.5
        model = DriftOperator("RSW_Inviscid")
        assert model.check_state(state) == ["height_nonpositive"]


class TestDriftOperator:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DriftOperator("NotAModel")
        with pytest.raises(ValueError):
            DriftOperator("RSW_Inviscid", ModelParams(nu=0.1))

    def test_default_ladders_follow_catalogue(self):
        assert DriftOperator("Burgers1D").ladder == SpaceLadder(0.0, 1.0, 3.0, 4.0)
        assert DriftOperator("RSW_Viscous").ladder == SpaceLadder(0.0, 1.0, 2.0, 3.0)
        assert DriftOperator("Vorticity3D", ModelParams(nu=1.0)).ladder == SpaceLadder(
            0.0, 2.0, 3.0, 4.0
        )
        euler = DriftOperator("Vorticity3D", ModelParams(nu=0.0, epsilon_sobolev=0.1)).ladder
        assert euler.s_F0 == pytest.approx(1.6)

    def test_component_checks(self):
        grid = TorusGrid(2, 16)
        model = DriftOperator("Burgers2D")
        with pytest.raises(Exception):
            model(SpectralField.zeros(grid, 1))

    def test_band_limited_closure(self):
        # the unprojected drift of a state on |k| <= 10 lives on |k| <= 20,
        # and nothing passes the 2/3 cutoff
        grid = TorusGrid(1, 128)
        model = DriftOperator("Burgers1D")
        u = galerkin_project(random_field(grid, 1, 3.5, 1.0, 31), GalerkinProjector(10))
        out = model(u).coeffs
        assert np.max(np.abs(out[:, grid.half.kinf > grid.dealias_cutoff])) == 0.0
        assert np.max(np.abs(out[:, grid.half.kinf > 20])) <= 1e-14 * np.max(np.abs(out))

    def test_viscosity_dissipation_decomposition(self):
        # exact algebra: adding nu shifts the F0 self-pairing by -nu * D(a)
        grid = TorusGrid(2, 32)
        base = DriftOperator("Vorticity2D")
        viscous = DriftOperator("Vorticity2D", ModelParams(nu=0.8), base.ladder)
        lad = viscous.ladder
        for seed in range(4):
            a = dealias(random_field(grid, 1, 4.5, 1.0, seed, zero_mean=True))
            p0 = inner_product(a, base(a), lad.s_F0)
            p1 = inner_product(a, viscous(a), lad.s_F0)
            expected = p0 - 0.8 * dissipation_term(a, lad.s_F0)
            assert p1 == pytest.approx(expected, rel=1e-10, abs=1e-12)
            assert dissipation_term(a, lad.s_F0) > 0


class TestReports:
    def test_zero_field_all_zero(self):
        model = DriftOperator("Burgers1D")
        grid = TorusGrid(1, 64)
        rep = drift_pairing_report(SpectralField.zeros(grid), model)
        assert rep.pair_F0 == 0.0 and rep.pair_D == 0.0 and rep.norm_A_G == 0.0

    def test_burgers_sine_energy_pairing_exact_zero(self):
        model = DriftOperator("Burgers1D")
        grid = TorusGrid(1, 64)
        rep = drift_pairing_report(sine_field(grid), model)
        assert abs(rep.pair_G) < 1e-14

    def test_lipschitz_quotient_finite(self):
        model = DriftOperator("Burgers1D")
        grid = TorusGrid(1, 64)
        a = random_field(grid, 1, 4.5, 1.0, 41)
        b = random_field(grid, 1, 4.5, 1.0, 42)
        q = lipschitz_quotient(model, a, b)
        assert np.isfinite(q) and q >= 0


def test_fourier_multiplier_linear_drift():
    grid = TorusGrid(1, 32)
    lad = SpaceLadder(0.0, 1.0, 2.0, 3.0)
    heat = FourierMultiplierDrift(lad, lambda ksq: -ksq)
    f = sine_field(grid)
    out = heat(f)
    # Laplacian of sin is -sin (k^2 weights amplify high-mode rounding)
    assert np.max(np.abs(out.coeffs + f.coeffs)) < 1e-13


# --- parity with a direct Fourier-mode convolution ----------------------------


def _convolve(a, b, grid, band, cutoff=None):
    """Coefficients of the product of two scalar fields supported on
    ``|k|_inf <= band``, summed mode pair by mode pair and kept on the
    modes ``|k|_inf <= cutoff``, by default the 2/3-rule modes."""
    n = grid.n
    modes = np.argwhere(np.ones((2 * band + 1,) * grid.dim)) - band
    idx = tuple((modes % n).T)
    k = modes[:, None, :] + modes[None, :, :]
    vals = a[idx][:, None] * b[idx][None, :]
    keep = np.abs(k).max(axis=-1) <= (grid.dealias_cutoff if cutoff is None else cutoff)
    out = np.zeros((n,) * grid.dim, dtype=complex)
    np.add.at(out, tuple((k[keep] % n).T), vals[keep])
    return out


def _oracle_advection(vel, f, grid, band, cutoff=None):
    """(vel . grad) f componentwise, by direct convolution."""
    ik = [1j * ka for ka in wavenumbers(grid)]
    return np.stack(
        [
            sum(_convolve(vel[a], ik[a] * fc, grid, band, cutoff) for a in range(grid.dim))
            for fc in f
        ]
    )


def _oracle_drift(kind, X, params, band, cutoff=None):
    """The drift of a half ``X`` on the full layout, by direct convolution,
    its products kept on ``|k|_inf <= cutoff`` (default: the 2/3 cutoff)."""
    grid = X.grid
    c, k2 = X.as_full().coeffs, ksq(grid)
    ik = [1j * ka for ka in wavenumbers(grid)]
    if kind.startswith("Burgers"):
        return -_oracle_advection(c, c, grid, band, cutoff) - params.nu * k2 * c
    if kind.startswith("Vorticity"):
        u = biot_savart(X).as_full().coeffs
        out = -_oracle_advection(u, c, grid, band, cutoff)
        if grid.dim == 3:
            out = SpectralField(grid, out + _oracle_advection(c, u, grid, band, cutoff)).as_half()
            out = _leray_project(out).as_full().coeffs
        return out - params.nu * k2 * c
    u, h = c[0:2], c[2]
    b = 0.0 if params.topography is None else params.topography.as_full().coeffs[0]
    p = (h - b) / (params.rossby * params.froude)
    f = params.f_coriolis
    mom = -_oracle_advection(u, u, grid, band, cutoff) - np.stack([-f * u[1], f * u[0]])
    mom = mom - np.stack([ik[0] * p, ik[1] * p]) - params.nu * k2 * u
    flux = [_convolve(h, u[a], grid, band, cutoff) for a in range(2)]
    hgt = -(ik[0] * flux[0] + ik[1] * flux[1]) - params.eta * k2 * h
    return np.concatenate([mom, hgt[np.newaxis]])


def _band_limited_state(kind, seed, band):
    """A Hermitian state with modes ``|k|_inf <= band`` for the given kind."""
    dim = {"Burgers1D": 1, "Vorticity3D": 3}.get(kind, 2)
    grid = TorusGrid(dim, {1: 64, 2: 16, 3: 10}[dim])
    comps = {"Burgers1D": 1, "Burgers2D": 2, "Vorticity2D": 1}.get(kind, 3)
    X = random_field(grid, comps, 2.0, 1.0, seed, zero_mean=kind.startswith("Vorticity"))
    if kind == "Vorticity3D":
        X = _leray_project(X)
    if kind.startswith("RSW"):
        X.coeffs[2, (0,) * dim] = 1.5
    return galerkin_project(X, GalerkinProjector(band))


QUADRATIC_KINDS = (
    "Burgers1D", "Burgers2D", "RSW_Viscous", "RSW_Inviscid", "Vorticity2D", "Vorticity3D"
)


def _params(kind, grid):
    if kind == "RSW_Viscous":
        topo = galerkin_project(random_field(grid, 1, 2.0, 0.2, 99), GalerkinProjector(3))
        return ModelParams(
            nu=0.3, eta=0.2, f_coriolis=1.3, rossby=0.8, froude=1.1, topography=topo
        )
    if kind == "RSW_Inviscid":
        return ModelParams(f_coriolis=0.7)
    return ModelParams(nu=0.25)


@pytest.mark.parametrize("kind", QUADRATIC_KINDS)
def test_drift_matches_mode_convolution(kind):
    band = {"Burgers1D": 20, "Vorticity3D": 3}.get(kind, 5)
    for seed in range(3):
        X = _band_limited_state(kind, seed, band)
        params = _params(kind, X.grid)
        out = DriftOperator(kind, params)(X.as_full())
        expected = _oracle_drift(kind, X, params, band)
        scale = np.max(np.abs(expected))
        assert scale > 0.0
        assert np.max(np.abs(out.coeffs - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [24, 48])
def test_burgers_drift_alias_free_when_three_divides_n(n):
    # with 3 | n, modes at +-n/3 would alias onto the kept modes -+n/3; the
    # cutoff (n - 1) // 3 keeps them out
    grid = TorusGrid(1, n)
    d = grid.dealias_cutoff
    assert 3 * d < n
    params = ModelParams(nu=0.25)
    for seed in range(3):
        X = galerkin_project(random_field(grid, 1, 1.0, 1.0, seed), GalerkinProjector(d))
        out = DriftOperator("Burgers1D", params)(X).as_full().coeffs
        expected = _oracle_drift("Burgers1D", X, params, d)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
    # cos(n x / 3) is not a kept mode, so it contributes no drift
    x = grid.coordinates()[0]
    top = DriftOperator("Burgers1D")(SpectralField.from_physical(grid, np.cos(n // 3 * x)))
    assert np.max(np.abs(top.coeffs[:, kinf(grid) <= d])) <= 1e-14


@pytest.mark.parametrize("kind", QUADRATIC_KINDS)
def test_drift_output_is_exactly_hermitian(kind):
    # the drift of a full state, of band-limited states and of raw ones
    # whose Nyquist modes the spectral derivatives leave non-Hermitian
    for seed in range(3):
        X = _band_limited_state(kind, seed, 3)
        raw = random_field(X.grid, X.components, 2.0, 1.0, seed, zero_mean=True)
        if kind == "Vorticity3D":
            raw = _leray_project(raw)
        for state in (X.as_full(), raw.as_full()):
            out = DriftOperator(kind, _params(kind, X.grid))(state)
            assert not out.is_half and hermitian_defect(out) == 0.0


@pytest.mark.parametrize("kind", ("Burgers2D", "RSW_Inviscid", "Vorticity2D", "Vorticity3D"))
def test_band_limited_closure_multidimensional(kind):
    # a quadratic drift of a state on |k|_inf <= K lives on |k|_inf <= 2K, and
    # nothing passes the 2/3 cutoff
    band = 2
    X = _band_limited_state(kind, 7, band)
    grid = X.grid
    out = DriftOperator(kind, ModelParams())(X).coeffs
    assert np.max(np.abs(out[:, grid.half.kinf > grid.dealias_cutoff])) == 0.0
    assert np.max(np.abs(out[:, grid.half.kinf > 2 * band])) <= 1e-14 * np.max(np.abs(out))


@pytest.mark.parametrize("kind", list(CATALOGUE))
def test_half_drift_mirrored_is_the_full_drift(kind):
    # the drift of a half-layout state is a half; mirrored, it is the drift
    # of the full state bit for bit
    dim = CATALOGUE[kind].dim
    grid = TorusGrid(dim, {1: 32, 2: 16, 3: 8}[dim])
    A = DriftOperator(kind, _params(kind, grid))
    for seed in range(2):
        X = random_state(kind, grid, 2.0, 1.0, seed)
        half = A(X)
        assert half.is_half
        assert np.array_equal(half.as_full().coeffs, A(X.as_full()).coeffs)


@pytest.mark.parametrize("kind", ("RSW_Viscous", "RSW_Inviscid"))
def test_rsw_drift_of_a_state_above_the_cutoff(kind):
    # only the quadratic terms are cut at 2/3: pressure, Coriolis, topography
    # and viscosity act on every mode.  Off the Nyquist planes, where the
    # half and the full layout read the derivative of the -n/2 mode alike
    grid = TorusGrid(2, 16)
    band = grid.dealias_cutoff
    off_nyquist = kinf(grid) < grid.nyquist
    params = _params(kind, grid)
    for seed in range(3):
        X = random_field(grid, 3, 2.0, 1.0, seed)
        X.coeffs[2, 0, 0] = 1.5
        assert np.max(np.abs(X.as_full().coeffs[:, kinf(grid) > band])) > 0.0
        out = DriftOperator(kind, params)(X).as_full().coeffs
        expected = _oracle_drift(kind, X, params, band)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out - expected)[:, off_nyquist]) <= 1e-13 * scale


def force_kernel(monkeypatch, kernel_class):
    """Make every drift compute on ``kernel_class`` at its cutoff."""
    from stochtame.spectral import HalfSpectrum

    def kernel(self, cutoff=None):
        return kernel_class(self, self.dealias_cutoff if cutoff is None else cutoff)

    monkeypatch.setattr(HalfSpectrum, "kernel", kernel)


def _field_counts(monkeypatch, kernel_class, drift, X):
    """The stacks a drift call transforms on ``kernel_class``, each as its
    number of fields: ``(inverse, forward)``."""
    force_kernel(monkeypatch, kernel_class)
    counts = {"to_physical": [], "tendency": []}
    for name in counts:
        method = getattr(kernel_class, name)

        def spy(self, stack, name=name, method=method):
            counts[name].append(int(np.prod(stack.shape[: -len(self.hs.axes)])))
            return method(self, stack)

        monkeypatch.setattr(kernel_class, name, spy)
    drift(X)
    return counts["to_physical"], counts["tendency"]


@KERNELS
@pytest.mark.parametrize("kind", ("RSW_Viscous", "RSW_Inviscid"))
def test_rsw_drift_transforms_four_fields_in_and_five_out(monkeypatch, kind, kernel_class):
    # [u1, u2, h, zeta] in; [zeta u2, zeta u1, |u|^2, h u1, h u2] out
    grid = TorusGrid(2, 16)
    X = random_state(kind, grid, 2.0, 1.0, 0)
    drift = DriftOperator(kind, _params(kind, grid))
    assert _field_counts(monkeypatch, kernel_class, drift, X) == ([4], [5])


@KERNELS
def test_burgers_1d_drift_transforms_two_fields_in_and_one_out(monkeypatch, kernel_class):
    # [u, u_x] in; [u u_x] out
    X = random_state("Burgers1D", TorusGrid(1, 32), 2.0, 1.0, 0)
    assert _field_counts(monkeypatch, kernel_class, DriftOperator("Burgers1D"), X) == ([2], [1])


def test_module_table_lists_the_catalogue():
    lines = stochtame.models.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    rows = [line.split() for line in lines[rules[1] + 1 : rules[2]]]
    assert [row[0] for row in rows] == list(CATALOGUE)
    for kind, dim, components, *_ in rows:
        assert (int(dim), int(components)) == (CATALOGUE[kind].dim, CATALOGUE[kind].components)
