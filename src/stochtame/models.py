"""Drift operators for the fluid models and the catalogue of their kinds.

The catalogue (:data:`CATALOGUE`) holds each kind's facts: its dimension and
components, its drift, its default ladder (G, F0, F1, D), its state check,
and how a random state of the kind is built.  Every other module reads them
from there; the default ladder through :class:`DriftOperator`, which takes it
when built without a ladder.

==============  ====  ============  =====================================
kind            dim   components    drift
==============  ====  ============  =====================================
Burgers1D       1     1             -u u_x            (+ nu u_xx)
Burgers2D       2     2             -(u.grad)u        (+ nu Lap u)
RSW_Viscous     2     3 (v1,v2,h)   rotating shallow water with viscosity
RSW_Inviscid    2     3             same without viscosity
Vorticity2D     2     1             -(u.grad)w        (+ nu Lap w)
Vorticity3D     3     3             -[(u.grad)w - (w.grad)u] (+ nu Lap w)
==============  ====  ============  =====================================

The velocity in the vorticity models comes from the Biot-Savart inversion
``u = -curl Lap^-1 w`` (zero-mean, divergence free).  All quadratic terms are
evaluated pseudo-spectrally on a Galerkin block ``|k|_inf <= d``: the inputs
are truncated to it and the products kept on it, on a grid that is alias-free
for it, which keeps the quadratic convolution exact on the block; that
exactness is what the enstrophy / energy conservation tests rely on.  A
drift takes its block from its input: a block field carries its kernel
(:meth:`~stochtame.spectral.HalfSpectrum.kernel`), and a half or a full
field is taken at the grid's 2/3 cutoff.  It transforms through that
kernel, dense matrix products on small blocks and real FFTs on the model
grid on large ones.

Each drift is written once as a quadratic part and a linear part.  The
quadratic part takes a stack in a kernel's layout and makes one round trip:
the fields and derivatives it needs are taken to grid values together, and
the products formed on the grid are transformed back together into their
tendencies, in the kernel's layout, the block (the kernel's
``tendency``).  A 1D Burgers drift transforms 2 + 1 fields (u and u_x in,
u u_x out), a shallow-water drift 4 + 5 (below), on either kernel.  The
linear part acts on every mode of the state, against the per-mode arrays
(``ik_stack``, ``ksq``, ``k_axes``) of the state's own layout, so the drift
of a state in the block lies in the block.  The layout is the state's:

* a block field (the stepping loop's state, see :mod:`stochtame.spectral`)
  is stepped in its kernel's layout: both parts are formed there, and the
  drift is a block field of the same kernel, with no read or write;
* a half has its block at the 2/3 cutoff read, the quadratic part formed
  on it and written back to a half, and the linear part added on the half.
  The drift of a half in that block is the drift of its block field written
  back, bit for bit;
* ``DriftOperator.__call__`` also takes a full field: it reads the field's
  half and mirrors the drift back to the full layout (``fhat_{-k} =
  conj(fhat_k)``, self-conjugate modes real), so that output is exactly
  Hermitian whatever the rounding of the transforms.

Shallow water note: the momentum state is used directly as the advected
velocity.  A rotation vector potential with ``curl R = f zhat`` and zero
gradient does not exist periodically, so the Coriolis force is applied in its
standard form ``-f zhat x u`` and the change of variables is regarded as a
diagnostic relabelling only.  The Rossby and Froude numbers enter through the
pressure ``p = (h - b) / (rossby * froude)``.  The advection is taken in
vector-invariant form, ``(u.grad)u = grad(|u|^2/2) + zeta zhat x u`` with
``zeta = d_0 u2 - d_1 u1``: the inverse transform makes ``[u1, u2, h,
zeta]``, the forward one ``[zeta u2, zeta u1, |u|^2, h u1, h u2]``, and the
Bernoulli term and the pressure share one gradient.  The pressure, the
Coriolis force, the viscosity and the topography act on every mode; folding
``f`` into the grid vorticity would cut the Coriolis force at 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import (
    GridMismatchError,
    SpaceLadder,
    SpectralField,
    TorusGrid,
    inner_product,
    random_field,
    sobolev_norm,
)

@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; unused entries are ignored by the other kinds.

    ``nu`` is the (momentum) viscosity, ``eta`` the height diffusivity of the
    shallow water model, ``f_coriolis`` the rotation rate, ``rossby`` and
    ``froude`` the dimensionless numbers entering the pressure, ``topography``
    an optional band-limited bottom profile, a half, and ``epsilon_sobolev``
    the free exponent offset of the inviscid-vorticity ladder (F0 =
    H^(3/2+eps)).
    """

    nu: float = 0.0
    eta: float = 0.0
    f_coriolis: float = 1.0
    rossby: float = 1.0
    froude: float = 1.0
    topography: SpectralField | None = None
    epsilon_sobolev: float = 0.1

    def __post_init__(self):
        if self.rossby <= 0 or self.froude <= 0:
            raise ValueError("rossby and froude numbers must be positive")
        if self.nu < 0 or self.eta < 0:
            raise ValueError("viscosities must be nonnegative")


# --- spectral calculus helpers ---------------------------------------------


def _dot_grad(vel: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Grid values of ``(vel . grad) f`` from ``vel[a]`` and ``grads[a] = d_a f``."""
    out = vel[0] * grads[0]
    for a in range(1, len(vel)):
        out += vel[a] * grads[a]
    return out


def _velocity_and_gradients(kernel, vel: np.ndarray, f: np.ndarray):
    """Truncated grid values of ``vel`` and ``grads[a, c] = d_a f_c`` from
    stacks in the kernel's layout, one inverse transform."""
    dim = len(vel)
    phys = kernel.to_physical(np.concatenate([vel, kernel.gradient(f)]))
    return phys[:dim], phys[dim:].reshape((dim, len(f)) + phys.shape[1:])


def advective_term(vel: SpectralField, f: SpectralField) -> SpectralField:
    """Dealiased (vel . grad) f, computed pseudo-spectrally.

    Inputs are truncated by the 2/3 rule before the physical-space product, so
    the retained output modes carry the exact convolution.
    """
    kernel = f.grid.half.kernel()
    v, grads = _velocity_and_gradients(kernel, kernel.read(vel.coeffs), kernel.read(f.coeffs))
    return SpectralField(f.grid, -kernel.write(kernel.tendency(_dot_grad(v, grads))))


def divergence(f: SpectralField) -> SpectralField:
    grid = f.grid
    if f.components != grid.dim:
        raise GridMismatchError("divergence needs one component per spatial axis")
    return SpectralField(grid, sum(ik * c for ik, c in zip(grid.half.ik, f.coeffs)))


def curl(f: SpectralField) -> SpectralField:
    """Curl: scalar in 2D (dx u2 - dy u1), vector in 3D."""
    grid = f.grid
    ik, c = grid.half.ik, f.coeffs
    if grid.dim == 2 and f.components == 2:
        return SpectralField(grid, ik[0] * c[1] - ik[1] * c[0])
    if grid.dim == 3 and f.components == 3:
        return SpectralField(
            grid, np.stack([ik[a] * c[b] - ik[b] * c[a] for a, b in ((1, 2), (2, 0), (0, 1))])
        )
    raise GridMismatchError("curl defined for 2D 2-component or 3D 3-component fields")


#: largest divergence, relative to the largest coefficient, of a 3D
#: vorticity that :func:`biot_savart` inverts
_DIV_TOL = 1e-8


def biot_savart(omega: SpectralField) -> SpectralField:
    """Velocity with ``curl u = omega``, ``div u = 0`` and zero mean.

    2D: scalar vorticity -> streamfunction ``psi`` with ``Lap psi = omega``,
    ``u = (-dy psi, dx psi)``.  3D: ``uhat = i k x what / |k|^2``.  The mean
    mode of omega is dropped (the inversion is defined on zero-mean fields)
    and the mean of u is zero.  A 3D input whose divergence is not negligible
    relative to its size is rejected.
    """
    return SpectralField(omega.grid, _biot_savart(omega.coeffs, omega.layout), omega.block)


def _biot_savart(w: np.ndarray, layout) -> np.ndarray:
    """:func:`biot_savart` of a vorticity stack in ``layout``."""
    k = layout.k_axes
    zero = (0,) * len(k)
    ksq = layout.ksq.copy()
    ksq[zero] = 1.0  # avoid 0/0; the k=0 mode is zeroed below
    if len(k) == 2:
        if len(w) != 1:
            raise GridMismatchError("2D vorticity must be scalar")
        psi = -w[0] / ksq  # Lap psi = omega
        u = np.stack([-1j * k[1] * psi, 1j * k[0] * psi])
    elif len(k) == 3:
        if len(w) != 3:
            raise GridMismatchError("3D vorticity must have three components")
        scale = float(np.max(np.abs(w))) or 1.0
        div = sum(1j * k[a] * w[a] for a in range(3))
        if float(np.max(np.abs(div))) > _DIV_TOL * scale:
            raise ValueError("3D vorticity input is not divergence free")
        cross = [k[1] * w[2] - k[2] * w[1], k[2] * w[0] - k[0] * w[2], k[0] * w[1] - k[1] * w[0]]
        u = 1j * np.stack(cross) / ksq
    else:
        raise GridMismatchError("Biot-Savart inversion is 2D or 3D")
    u[(slice(None),) + zero] = 0.0
    return u


def _leray_project(f: SpectralField) -> SpectralField:
    """Remove the compressible part, fhat -> fhat - k (k.fhat)/|k|^2, and the
    Nyquist planes.

    The fft order reads ``k_a = -n/2`` at both ends of a plane ``|k_a| = n/2``,
    so a mode there and its mirror image would be projected with wavevectors
    that are not negatives of each other, and the field would lose its
    conjugate symmetry.  Zeroing those modes keeps it Hermitian, and divergence
    free, since the divergence acts mode by mode.
    """
    hs = f.grid.half
    return SpectralField(f.grid, _leray(f.coeffs, hs) * (hs.kinf < f.grid.nyquist))


def _leray(f: np.ndarray, layout) -> np.ndarray:
    k = layout.k_axes
    ksq = layout.ksq.copy()
    ksq[(0,) * len(k)] = 1.0
    kdot = sum(k[a] * f[a] for a in range(len(k))) / ksq
    return np.stack([f[a] - k[a] * kdot for a in range(len(k))])


# --- the drifts -------------------------------------------------------------


def _quadratic(X: SpectralField, part) -> np.ndarray:
    """``part(block, kernel)``, the quadratic part of a drift formed on a
    stack in a kernel's layout, for ``X`` in ``X``'s own layout.

    A block field's part is formed on its block as it stands.  A half's
    block at the 2/3 cutoff is read, and the part formed on it is written
    back to a half, zero outside the block.
    """
    if X.block is not None:
        return part(X.coeffs, X.block)
    kernel = X.grid.half.kernel()
    return kernel.write(part(kernel.read(X.coeffs), kernel))


def _burgers_quadratic(u: np.ndarray, kernel) -> np.ndarray:
    phys = kernel.to_physical(kernel.with_gradient(u))  # u, d_0 u, d_1 u, ...
    return kernel.tendency(_dot_grad(phys[0], phys[1:]))


def burgers_drift(u: SpectralField, nu: float = 0.0) -> SpectralField:
    """-(u.grad)u + nu*Lap u with exact spectral derivatives, the product
    on ``u``'s block (module docstring)."""
    out = _quadratic(u, _burgers_quadratic)
    if nu > 0.0:
        out += nu * (-u.layout.ksq * u.coeffs)
    return SpectralField(u.grid, out, u.block)


def _vorticity_quadratic(w: np.ndarray, kernel) -> np.ndarray:
    u = _biot_savart(w, kernel)
    if len(kernel.shape) == 2:
        vel, grads = _velocity_and_gradients(kernel, u, w)
        return kernel.tendency(_dot_grad(vel, grads))
    # (u.grad)w and (w.grad)u share one round trip: u, grad u, w, grad w
    phys = kernel.to_physical(np.concatenate([kernel.with_gradient(u), kernel.with_gradient(w)]))
    nonlinear = _dot_grad(phys[0], phys[5:8]) - _dot_grad(phys[4], phys[1:4])
    return _leray(kernel.tendency(nonlinear), kernel)


def vorticity_drift(omega: SpectralField, nu: float = 0.0) -> SpectralField:
    """-[(u.grad)w - (w.grad)u] + nu*Lap w, velocity via Biot-Savart, the
    products on ``omega``'s block (module docstring).

    The stretching term drops in 2D.  In 3D the output is re-projected onto
    divergence-free fields to stop rounding drift of ``div w``.
    """
    out = _quadratic(omega, _vorticity_quadratic)
    if nu > 0.0:
        out += nu * (-omega.layout.ksq * omega.coeffs)
    return SpectralField(omega.grid, out, omega.block)


#: the grid products of the shallow-water drift from its grid fields
#: ``[u1, u2, h, zeta]``, pairwise: ``zeta u2, zeta u1, u1 u1, h u1, h u2`` and
#: ``u2 u2``, which is added to ``u1 u1``
_RSW_LEFT = np.array([3, 3, 0, 2, 2, 1])
_RSW_RIGHT = np.array([1, 0, 0, 0, 1, 1])


def _rsw_quadratic(state: np.ndarray, kernel) -> np.ndarray:
    """Minus the truncated ``[zeta u2, zeta u1, |u|^2, h u1, h u2]``."""
    phys = kernel.to_physical(kernel.with_curl(state))
    products = phys[_RSW_LEFT] * phys[_RSW_RIGHT]
    products[2] += products[5]
    return kernel.tendency(products[:5])


def rsw_drift(state: SpectralField, params: ModelParams, viscous: bool) -> SpectralField:
    """Rotating shallow water tendency for the state (v1, v2, h).

    Momentum: ``-(u.grad)u - f zhat x u - grad p (+ nu Lap u)`` with
    ``p = (h - b)/(rossby*froude)``; height: ``-div(h u) (+ eta Lap h)``.
    The height tendency has zero mean exactly (divergence on the torus).

    The advection is taken in vector-invariant form,
    ``grad(|u|^2/2) + zeta zhat x u``, exact for the dealiased inputs: 4 + 5
    field transforms (module docstring), one gradient of ``|u|^2/2 + p``, and
    the pressure, Coriolis force, viscosity and topography on every mode.
    The products are formed on the state's block (module docstring); a
    block field reads the topography on its block too, so its drift lies
    in the block.
    """
    if state.components != 3:
        raise GridMismatchError("shallow water state must be (v1, v2, h)")
    tend = _quadratic(state, _rsw_quadratic)
    layout = state.layout
    sh = state.coeffs
    u, h = sh[0:2], sh[2]

    if params.topography is None:
        p = h / (params.rossby * params.froude)
    else:
        b = params.topography.coeffs[0]
        if state.block is not None:
            b = state.block.read(b)
        p = (h - b) / (params.rossby * params.froude)
    out = np.empty_like(sh)
    np.multiply(layout.ik_stack, 0.5 * tend[2] - p, out=out[0:2])  # -grad(|u|^2/2 + p)
    # -(zeta + f) zhat x u, with zeta u dealiased and f u on every mode
    rot = params.f_coriolis * u[::-1] - tend[0:2]
    out[0] += rot[0]
    out[1] -= rot[1]
    flux = layout.ik_stack * tend[3:5]
    np.add(flux[0], flux[1], out=out[2])  # -div(h u)

    if viscous:
        out[0:2] += params.nu * (-layout.ksq * u)
        out[2] += params.eta * (-layout.ksq * h)
    return SpectralField(state.grid, out, state.block)


class FourierMultiplierDrift:
    """Linear drift ``A(X) = symbol(|k|^2) * X`` (heat equation, scalar tests).

    ``symbol`` maps the |k|^2 array to a multiplier array, e.g.
    ``lambda ksq: -ksq`` for the Laplacian or ``lambda ksq: a`` for the scalar
    exponential-growth equation.
    """

    def __init__(self, ladder: SpaceLadder, symbol: Callable[[np.ndarray], np.ndarray]):
        self.ladder = ladder
        self.symbol = symbol
        self.kind = "FourierMultiplier"

    def __call__(self, X: SpectralField) -> SpectralField:
        """``symbol * X``, mode by mode, so it lies in every block ``X`` lies
        in; in ``X``'s layout."""
        return SpectralField(X.grid, self.symbol(X.layout.ksq) * X.coeffs, X.block)

    def check_state(self, X: SpectralField) -> list[str]:
        return []


def _no_warnings(X: SpectralField) -> list[str]:
    return []


def _height_warnings(X: SpectralField) -> list[str]:
    """The flag of a height that is not positive at a point of the model
    grid; of a block field through its kernel."""
    h = X.coeffs[2]
    h_phys = X.grid.half.to_physical(h) if X.block is None else X.block.grid_values(h)
    return ["height_nonpositive"] if float(h_phys.min()) <= 0.0 else []


def _fixed_ladder(*exponents: float) -> Callable[[ModelParams], SpaceLadder]:
    return lambda params: SpaceLadder(*exponents)


def _vorticity_ladder(params: ModelParams) -> SpaceLadder:
    if params.nu > 0:
        return SpaceLadder(0.0, 2.0, 3.0, 4.0)
    return SpaceLadder(0.0, 1.5 + params.epsilon_sobolev, 3.0, 4.0)


@dataclass(frozen=True)
class ModelKind:
    """The facts of one model kind.

    ``drift(X, params)`` is its tendency, ``ladder(params)`` its default
    ladder and ``check_state(X)`` its state warnings; both take a half or a
    block field, and the drift returns a field in ``X``'s layout, its
    quadratic part formed on ``X``'s block (module docstring).
    A random state of the kind has zero mean when ``zero_mean`` holds and is
    Leray-projected when ``leray`` does.  ``initial_kinds`` are the initial
    states a config may ask for: a sine in the first component is not
    divergence free in 3D, and a rest height needs a height component.
    """

    dim: int
    components: int
    drift: Callable[[SpectralField, ModelParams], SpectralField]
    ladder: Callable[[ModelParams], SpaceLadder]
    check_state: Callable[[SpectralField], list[str]] = _no_warnings
    zero_mean: bool = False
    leray: bool = False
    initial_kinds: tuple[str, ...] = ("sine", "random")


_LADDER_0134 = _fixed_ladder(0.0, 1.0, 3.0, 4.0)
_RSW_INITIAL = ("sine", "random", "rest_height")

CATALOGUE = {
    "Burgers1D": ModelKind(1, 1, lambda X, p: burgers_drift(X, p.nu), _LADDER_0134),
    "Burgers2D": ModelKind(2, 2, lambda X, p: burgers_drift(X, p.nu), _LADDER_0134),
    "RSW_Viscous": ModelKind(
        2,
        3,
        lambda X, p: rsw_drift(X, p, True),
        _fixed_ladder(0.0, 1.0, 2.0, 3.0),
        _height_warnings,
        initial_kinds=_RSW_INITIAL,
    ),
    "RSW_Inviscid": ModelKind(
        2,
        3,
        lambda X, p: rsw_drift(X, p, False),
        _LADDER_0134,
        _height_warnings,
        initial_kinds=_RSW_INITIAL,
    ),
    "Vorticity2D": ModelKind(
        2, 1, lambda X, p: vorticity_drift(X, p.nu), _vorticity_ladder, zero_mean=True
    ),
    "Vorticity3D": ModelKind(
        3,
        3,
        lambda X, p: vorticity_drift(X, p.nu),
        _vorticity_ladder,
        zero_mean=True,
        leray=True,
        initial_kinds=("random",),
    ),
}

MODEL_KINDS = tuple(CATALOGUE)


def model_kind(kind: str) -> ModelKind:
    """The catalogue entry of ``kind``; ValueError for an unknown kind."""
    if kind not in CATALOGUE:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return CATALOGUE[kind]


def random_state(
    kind: str, grid: TorusGrid, decay_exponent: float, amplitude: float, seed
) -> SpectralField:
    """A :func:`random_field` state of ``kind``: its components, zero mean and
    Leray projection as the catalogue says."""
    facts = model_kind(kind)
    f = random_field(
        grid, facts.components, decay_exponent, amplitude, seed, zero_mean=facts.zero_mean
    )
    return _leray_project(f) if facts.leray else f


@dataclass(frozen=True)
class DriftOperator:
    """Tagged drift descriptor; immutable, shareable across ensemble workers.

    The kind's facts are read from :data:`CATALOGUE` by name, so the operator
    pickles as its kind, parameters and ladder.  Without a ``ladder`` it
    takes its kind's default ladder at its ``params``.
    """

    kind: str
    params: ModelParams = field(default_factory=ModelParams)
    ladder: SpaceLadder | None = None

    def __post_init__(self):
        facts = model_kind(self.kind)
        if self.kind == "RSW_Inviscid" and (self.params.nu != 0.0 or self.params.eta != 0.0):
            raise ValueError("inviscid shallow water requires nu = eta = 0")
        if self.ladder is None:
            object.__setattr__(self, "ladder", facts.ladder(self.params))

    @property
    def dim(self) -> int:
        return CATALOGUE[self.kind].dim

    @property
    def components(self) -> int:
        return CATALOGUE[self.kind].components

    def __call__(self, X: SpectralField) -> SpectralField:
        """The drift of ``X`` in ``X``'s layout: a half, a block field of
        ``X``'s kernel, or for a full ``X`` the full layout.

        A block field's drift is the projected ``A_d(X)`` of its block, which
        lies in the block too.  A half's or a full field's quadratic terms
        are formed at the grid's 2/3 cutoff and its linear terms act on
        every mode.
        """
        facts = CATALOGUE[self.kind]
        if X.grid.dim != facts.dim or len(X.coeffs) != facts.components:
            raise GridMismatchError(
                f"{self.kind} expects dim={facts.dim}, components={facts.components}; "
                f"got dim={X.grid.dim}, components={X.components}"
            )
        if X.block is not None or X.is_half:
            return facts.drift(X, self.params)
        return facts.drift(X.as_half(), self.params).as_full()

    def check_state(self, X: SpectralField) -> list[str]:
        """Model-specific state warnings, recorded on the trajectory, of a
        half or a block field."""
        return CATALOGUE[self.kind].check_state(X)


def dissipation_term(a: SpectralField, s: float) -> float:
    """The exact H^s pairing deficit of the Laplacian: -<a, Lap a>_{H^s} >= 0.

    Equals ``sum_k (1+|k|^2)^s |k|^2 |ahat_k|^2``, summed over the half as
    :func:`~stochtame.spectral.inner_product` sums; adding viscosity ``nu``
    to any drift changes the H^s self-pairing by exactly ``-nu`` times this.
    """
    hs = a.grid.half
    power = hs.power(a.coeffs).reshape(len(a.coeffs), -1, 2) * hs.ksq.reshape(-1, 1)
    return float(np.dot(hs.weight(s, len(a.coeffs)), power.reshape(-1)))


# --- assumption audits -------------------------------------------------------


@dataclass
class AssumptionConstants:
    """Fitted/audited constants of the drift growth assumptions.

    ``C1, gamma1, C2`` describe the F0 self-pairing split
    ``<a, A(a)>_F0 <= C1 ||a||_F0^gamma1 - C2 ||a||_F1^2``;
    ``gamma2`` the D-pairing exponent pair (with gamma1 on F1);
    ``C3, gamma_sup1, gamma_sup2`` the growth bound on ``||A(a)||_G``;
    ``gamma13`` the F1 self-pairing exponent on the F0 norm;
    ``alpha_emb, beta_emb`` the interpolation exponents of the ladder.
    Signs are recorded as fitted (C2 may be negative for inviscid kinds).
    """

    C1: float = 0.0
    C2: float = 0.0
    C3: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma_sup1: float = 0.0
    gamma_sup2: float = 0.0
    gamma13: float = 0.0
    alpha_emb: float = 0.0
    beta_emb: float = 0.0


@dataclass
class AssumptionReport:
    """All pairings and norms the audit reads for one sample field."""

    norm_G: float
    norm_F0: float
    norm_F1: float
    norm_D: float
    pair_G: float
    pair_F0: float
    pair_F1: float
    pair_D: float
    norm_A_G: float
    dissipation_F0: float


def drift_pairing_report(
    a: SpectralField, A: DriftOperator, Aa: SpectralField | None = None
) -> AssumptionReport:
    """Evaluate every pairing and growth functional entering the audits.

    ``Aa`` is the drift ``A(a)`` when the caller has it already.
    ``dissipation_F0`` is the exact viscous deficit ``nu * D_s(a)``.
    """
    lad = A.ladder
    if Aa is None:
        Aa = A(a)
    nG, n0, n1, nD = lad.norms(a)
    pG = inner_product(a, Aa, lad.s_G)
    p0 = inner_product(a, Aa, lad.s_F0)
    p1 = inner_product(a, Aa, lad.s_F1)
    pD = inner_product(a, Aa, lad.s_D)
    nAG = sobolev_norm(Aa, lad.s_G)
    return AssumptionReport(
        norm_G=nG,
        norm_F0=n0,
        norm_F1=n1,
        norm_D=nD,
        pair_G=pG,
        pair_F0=p0,
        pair_F1=p1,
        pair_D=pD,
        norm_A_G=nAG,
        dissipation_F0=A.params.nu * dissipation_term(a, lad.s_F0),
    )


def lipschitz_quotient(
    A: DriftOperator,
    a: SpectralField,
    b: SpectralField,
    Aa: SpectralField | None = None,
    Ab: SpectralField | None = None,
) -> float:
    """||A(a)-A(b)||_G / ((1 + ||a||_F1 + ||b||_F1) ||a-b||_F0).

    ``Aa`` and ``Ab`` are the drifts ``A(a)`` and ``A(b)`` when the caller
    has them already.
    """
    lad = A.ladder
    Aa = A(a) if Aa is None else Aa
    Ab = A(b) if Ab is None else Ab
    num = sobolev_norm(Aa - Ab, lad.s_G)
    den = (1.0 + sobolev_norm(a, lad.s_F1) + sobolev_norm(b, lad.s_F1)) * sobolev_norm(
        a - b, lad.s_F0
    )
    return num / max(den, np.finfo(float).tiny)
