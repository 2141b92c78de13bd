"""Fourier representation of periodic fields and the Sobolev space ladder.

Fields live on the torus ``[0, 2*pi)^dim`` and are stored as complex Fourier
coefficient arrays in numpy fft ordering.  The normalisation is

    fhat_k = (2*pi)^(-dim) * integral f(x) exp(-i k.x) dx,

so Parseval reads ``mean(|f|^2) = sum_k |fhat_k|^2`` and the Sobolev norms are

    ||f||_{H^s}^2 = sum_k (1 + |k|^2)^s |fhat_k|^2,

summed over vector components.  With this convention the ladder interpolation
inequality ``||f||_{F0} <= ||f||_{F1}^m ||f||_{G}^(1-m)`` holds with constant
exactly 1 whenever the exponent relation ``s_F0 = m*s_F1 + (1-m)*s_G`` does
(Hoelder on the coefficient sum), which is what the structural test suite
checks.

Real-valued fields are Hermitian-symmetric (``fhat_{-k} = conj(fhat_k)``), so
a field has two layouts (:class:`SpectralField`).  The full layout holds every
mode.  The half layout holds the non-redundant half, the modes
``0 <= k_last <= n/2`` of the last axis (the numpy ``rfftn`` layout,
:class:`HalfSpectrum`).  The stepping loop of :mod:`stochtame.integrators`
holds its state as a half; full arrays are built by mirroring
(:meth:`HalfSpectrum.to_full`) only at the public boundary: a drift of a full
field, and the final state and snapshots of a trajectory record.  Mirrored
arrays are exactly Hermitian, with real self-conjugate modes.  In 2D and 3D
the planes ``k_last = 0`` and ``k_last = n/2`` of a half store both ``k`` and
``-k``; a stepped half keeps them conjugate only to rounding, and the mirror
reads one of each pair.

Sobolev norms are weighted sums over the stored modes of the half: each mode
is counted once per mirror image, that is twice off the planes
``k_last = 0, n/2`` and once on them, where ``-k`` is stored too.  The power
(:meth:`HalfSpectrum.power`) is the squared real and imaginary parts of every
component at the stored modes; of a full array it is the mean of each mode's
squares and its mirror image's, which are the same bits when the array is
Hermitian.  ``||f||_{H^s}^2`` is one dot product of the power with the cached
weight, and :meth:`SpaceLadder.norms` forms the power once and takes one dot
product per ladder space, with the same arithmetic as :func:`sobolev_norm`, so
the two agree bit for bit.  A Hermitian field's norms are also bit for bit the
same in either layout.  They agree with the plain sum over the full array
only to rounding (a few ulps): the half sum adds each off-plane mode once
with weight 2, where the full sum adds it twice, in another order.
Finiteness is read off the weighted sum instead of scanning the
coefficients: every square is >= 0 and every weight is > 0, so a NaN or Inf
coefficient makes the sum NaN or Inf, and a sum of finite coefficients is
finite unless it overflows.  Only a non-finite sum is followed by an
``isfinite`` scan, which tells an overflow (the norm is inf) from a
non-finite field (:class:`NonFiniteFieldError`).

The quadratic drifts of :mod:`stochtame.models` work on the half spectrum and
return a half, mirrored only for a full input.  The 2/3 rule keeps the modes
``|k|_inf <= (n - 1) // 3`` (:func:`two_thirds_cutoff`): a product of two
kept modes has ``|k|_inf <= 2d`` and aliases onto a kept mode only when
``3d >= n``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class GridMismatchError(ValueError):
    """Two fields on incompatible grids / component counts."""


class NonFiniteFieldError(FloatingPointError):
    """A field contains NaN or Inf coefficients.

    Distinct from the blow-up flag of a trajectory: this signals a numerical
    failure of an operation, not a detected norm explosion.
    """


#: the ladder spaces G, F0, F1, D in their embedding order, which is also the
#: order of the norms :meth:`SpaceLadder.norms` returns
LADDER_SPACES = ("G", "F0", "F1", "D")


def two_thirds_cutoff(n: int) -> int:
    """The largest cutoff d with ``3d < n``: products of modes ``|k|_inf <= d``
    cannot alias onto them on an n-point grid."""
    return (n - 1) // 3


class _GridCache:
    """Shared per-(dim, n) wavenumber arrays, built once."""

    _store: dict[tuple[int, int], dict] = {}

    @classmethod
    def get(cls, dim: int, n: int) -> dict:
        key = (dim, n)
        if key not in cls._store:
            k1 = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, fft order
            axes = []
            for a in range(dim):
                shape = [1] * dim
                shape[a] = n
                axes.append(k1.reshape(shape))
            ksq = sum(ka**2 for ka in axes)
            kinf = np.maximum.reduce([np.broadcast_to(np.abs(ka), ksq.shape) for ka in axes])
            rev = np.ix_(*[(-np.arange(n)) % n for _ in range(dim)])
            cls._store[key] = {
                "axes": tuple(axes),
                "ksq": ksq,
                "kinf": kinf,
                "weight": 1.0 + ksq,
                "reverse": rev,
                # coefficient shapes of one component: full and half layout
                "layouts": ((n,) * dim, (n,) * (dim - 1) + (n // 2 + 1,)),
                "weight_powers": {},
                "project_masks": {},
            }
        return cls._store[key]


class HalfSpectrum:
    """The non-redundant half of a real field's spectrum on one grid.

    Half arrays hold the modes ``0 <= k_last <= n/2`` of the last spatial axis
    (the numpy ``rfftn`` layout); leading axes are batch axes.  Dealiased
    arrays keep only the columns ``k_last <= (n - 1) // 3`` that the 2/3 rule can leave
    nonzero, so the transforms skip the columns that are zero anyway.  The
    transforms use the module's normalisation, and :meth:`to_full` rebuilds
    the full coefficient array as an exactly Hermitian one.
    """

    def __init__(self, dim: int, n: int):
        m = n // 2 + 1
        cutoff = two_thirds_cutoff(n)
        kept = cutoff + 1
        k1 = np.fft.fftfreq(n, d=1.0 / n)
        axes = []
        for a in range(dim):
            shape = [1] * dim
            shape[a] = m if a == dim - 1 else n
            # the full grid's values, so k_last = -n/2 on the Nyquist plane
            axes.append((k1[:m] if a == dim - 1 else k1).reshape(shape))
        kinf = functools.reduce(np.maximum, [np.abs(ka) for ka in axes])
        self.n = n
        self.m = m
        self.kept = kept
        self.axes = tuple(range(-dim, 0))
        self.k_axes = tuple(axes)
        self.ik = tuple(1j * ka for ka in axes)
        self.ksq = sum(ka**2 for ka in axes)
        self.kinf = kinf
        # complex, so that masking complex coefficients needs no cast per call
        self._mask = (kinf <= cutoff)[..., :kept].astype(np.complex128)
        # stacked on a leading axis, so that one multiply makes every derivative
        self._ik_dealiased = np.stack([ik[..., :kept] * self._mask for ik in self.ik])[:, None]
        # the forward transforms are unnormalised and their 1/n per axis rides
        # on the mask; for n a power of two that scaling is exact, so the result
        # is bit for bit that of normalised transforms
        self._spectral_mask = self._mask / n**dim
        self._weights: dict[tuple[float, int], np.ndarray] = {}
        self._ladder_weights: dict[tuple, tuple[np.ndarray, ...]] = {}
        self._project_masks: dict[int, np.ndarray] = {}

        # each stored mode stands for itself and its mirror image -k, except
        # on the planes k_last = 0 and k_last = n/2, which store both
        images = np.full(m, 2.0)
        images[0] = images[-1] = 1.0
        self._images = np.broadcast_to(images, kinf.shape).ravel()
        # flat full-array indices of every stored mode k and of -k
        half = np.indices(kinf.shape).reshape(dim, -1)
        self._full_index = np.ravel_multi_index(half, (n,) * dim)
        self._mirror_index = np.ravel_multi_index((-half) % n, (n,) * dim)

        # Every full mode k is read from its half-spectrum representative:
        # itself when 0 < k_last < n/2, else -k (conjugated) when k_last >
        # n/2.  On the planes k_last in {0, n/2} both k and -k are in the half;
        # the one whose leading indices come first in row-major order is read
        # and the other is its conjugate.  Self-conjugate modes are made real.
        full = np.indices((n,) * dim).reshape(dim, -1)
        neg = (-full) % n
        last = full[-1]
        lead = np.ravel_multi_index(full[:-1], (n,) * (dim - 1)) if dim > 1 else 0
        lead_neg = np.ravel_multi_index(neg[:-1], (n,) * (dim - 1)) if dim > 1 else 0
        edge = (last == 0) | (last == n // 2)
        direct = ((0 < last) & (last < n // 2)) | (edge & (lead <= lead_neg))
        rep = np.where(direct, full, neg)
        src = np.ravel_multi_index(rep, (n,) * (dim - 1) + (m,))
        self._mirror_src = np.where(direct, src, src + n ** (dim - 1) * m)
        self._self_conjugate = np.flatnonzero((full == neg).all(axis=0))

    def take(self, coeffs: np.ndarray) -> np.ndarray:
        """The half of a full coefficient array (a view); a half array itself."""
        return coeffs[..., : self.m]

    def weight(self, s: float, components: int) -> np.ndarray:
        """The weights of :meth:`power`: ``(1+|k|^2)^s`` times the mirror
        images of each stored mode, once for the real and once for the
        imaginary part, for each component; cached per (s, components)."""
        key = (float(s), components)
        if key not in self._weights:
            w = self._images * (1.0 + self.ksq.ravel()) ** key[0]
            self._weights[key] = np.tile(np.repeat(w, 2), components)
        return self._weights[key]

    def ladder_weights(self, exponents: tuple[float, ...], components: int):
        """The :meth:`weight` arrays of several exponents; cached per tuple."""
        key = (exponents, components)
        if key not in self._ladder_weights:
            self._ladder_weights[key] = tuple(self.weight(s, components) for s in exponents)
        return self._ladder_weights[key]

    def projection_mask(self, cutoff: int) -> np.ndarray:
        """``|k|_inf <= cutoff`` on the half, as a complex 0/1 array; cached per cutoff."""
        if cutoff not in self._project_masks:
            self._project_masks[cutoff] = (self.kinf <= cutoff).astype(np.complex128)
        return self._project_masks[cutoff]

    def power(self, coeffs: np.ndarray) -> np.ndarray:
        """The squared real and imaginary parts at the stored modes, flattened.

        ``coeffs`` is a half or a full array of shape (components, ...).  Of
        a full array each stored mode gets the mean of its own squares and
        its mirror image's; these are its own squares bit for bit when the
        array is Hermitian, and the :meth:`weight` sums then equal the full
        sums for any array.
        """
        v = np.ascontiguousarray(coeffs).view(np.float64)
        q = v * v
        if coeffs.shape[-1] == self.m:
            return q.reshape(-1)
        q = q.reshape(len(q), -1, 2)
        own = np.take(q, self._full_index, axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf of an Inf coefficient: NaN
            own += 0.5 * (np.take(q, self._mirror_index, axis=1) - own)
        return own.reshape(-1)

    def dealiased(self, half: np.ndarray) -> np.ndarray:
        """2/3-rule truncation, on the kept columns."""
        return half[..., : self.kept] * self._mask

    def gradient(self, half: np.ndarray) -> np.ndarray:
        """Dealiased derivatives, stacked axis-major: ``[d_0 f, d_1 f, ...]``."""
        f = half[..., : self.kept]
        return (self._ik_dealiased * f).reshape((-1,) + f.shape[1:])

    def to_physical(self, half: np.ndarray) -> np.ndarray:
        """Grid values of a stack of half spectra, one batched inverse transform.

        The stack may hold only the first columns (as :meth:`dealiased` gives);
        the missing ones read as zero.
        """
        x = half
        for axis in self.axes[:-1]:
            x = np.fft.ifft(x, axis=axis, norm="forward")
        return np.fft.irfft(x, n=self.n, axis=-1, norm="forward")

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """2/3-dealiased half spectra of a stack of real grid arrays."""
        x = np.fft.rfft(values, axis=-1)[..., : self.kept]
        for axis in self.axes[:-1]:
            x = np.fft.fft(x, axis=axis)
        out = np.zeros(x.shape[:-1] + (self.m,), dtype=np.complex128)
        np.multiply(x, self._spectral_mask, out=out[..., : self.kept])
        return out

    def to_full(self, half: np.ndarray) -> np.ndarray:
        """The Hermitian full coefficient array of a stack of half spectra."""
        lead = half.shape[: -len(self.axes)]
        flat = half.reshape(lead + (-1,))
        full = np.concatenate([flat, flat.conj()], axis=-1).take(self._mirror_src, axis=-1)
        full.imag[..., self._self_conjugate] = 0.0
        return full.reshape(lead + (self.n,) * len(self.axes))


class TorusGrid:
    """Uniform collocation grid on ``[0, 2*pi)^dim`` with n modes per axis.

    ``n`` must be even and at least 4 (Hermitian symmetry and the 2/3
    dealiasing rule both need it).
    """

    __slots__ = ("dim", "n", "_arrays")

    def __init__(self, dim: int, n: int):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_per_axis must be even and >= 4, got {n}")
        self.dim = dim
        self.n = n
        self._arrays = _GridCache.get(dim, n)

    # wavenumber helpers -------------------------------------------------
    @property
    def k_axes(self) -> tuple[np.ndarray, ...]:
        return self._arrays["axes"]

    @property
    def ksq(self) -> np.ndarray:
        return self._arrays["ksq"]

    @property
    def kinf(self) -> np.ndarray:
        return self._arrays["kinf"]

    @property
    def dealias_cutoff(self) -> int:
        return two_thirds_cutoff(self.n)

    @property
    def nyquist(self) -> int:
        return self.n // 2

    @property
    def mode_count(self) -> int:
        return self.n**self.dim

    def sobolev_weight(self, s: float) -> np.ndarray:
        """(1+|k|^2)^s, cached per exponent."""
        powers = self._arrays["weight_powers"]
        key = float(s)
        if key not in powers:
            powers[key] = self._arrays["weight"] ** key
        return powers[key]

    def projection_mask(self, cutoff: int) -> np.ndarray:
        """``|k|_inf <= cutoff`` as a complex 0/1 array, cached per cutoff.

        Complex, so that masking complex coefficients needs no cast per call.
        """
        masks = self._arrays["project_masks"]
        if cutoff not in masks:
            masks[cutoff] = (self.kinf <= cutoff).astype(np.complex128)
        return masks[cutoff]

    def reverse_index(self):
        return self._arrays["reverse"]

    @property
    def half(self) -> HalfSpectrum:
        """Half-spectrum wavenumbers, mask, mirror index and transforms (built once)."""
        if "half" not in self._arrays:
            self._arrays["half"] = HalfSpectrum(self.dim, self.n)
        return self._arrays["half"]

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Collocation point coordinate arrays (sparse meshgrid)."""
        x = np.arange(self.n) * (2.0 * np.pi / self.n)
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij", sparse=True))

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and (self.dim, self.n) == (other.dim, other.n)

    def __hash__(self):
        return hash((self.dim, self.n))

    def __repr__(self):
        return f"TorusGrid(dim={self.dim}, n={self.n})"


class SpectralField:
    """A real field on the torus stored as complex Fourier coefficients.

    ``coeffs`` has shape ``(components, n, ..., n)`` with ``dim`` spatial axes
    in numpy fft ordering (the full layout), or ``(components, n, ..., m)``
    with ``m = n/2 + 1``, the non-redundant half of a Hermitian array (the
    :class:`HalfSpectrum` layout).  Norms, the Galerkin projection, the
    arithmetic and the drifts of :mod:`stochtame.models` take either layout
    and keep it; :meth:`as_full` and :meth:`as_half` convert.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[np.newaxis]
        if coeffs.shape[1:] not in grid._arrays["layouts"]:
            raise GridMismatchError(
                f"coefficient shape {coeffs.shape} incompatible with {grid!r}"
            )
        self.grid = grid
        self.coeffs = coeffs

    # constructors -------------------------------------------------------
    @classmethod
    def zeros(cls, grid: TorusGrid, components: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((components,) + (grid.n,) * grid.dim, dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == grid.dim:
            values = values[np.newaxis]
        spatial = tuple(range(1, grid.dim + 1))
        coeffs = np.fft.fftn(values, axes=spatial) / grid.mode_count
        return cls(grid, coeffs)

    @classmethod
    def from_modes(
        cls, grid: TorusGrid, modes: Iterable[tuple[tuple[int, ...], int, complex]]
    ) -> "SpectralField":
        """Build a field from (wavevector, component, coefficient) triples.

        The conjugate partner at ``-k`` is filled in automatically.
        """
        entries = list(modes)
        ncomp = max(c for _, c, _ in entries) + 1 if entries else 1
        f = cls.zeros(grid, ncomp)
        for k, comp, val in entries:
            k = tuple(int(ki) for ki in (k if isinstance(k, tuple) else (k,)))
            idx = tuple(ki % grid.n for ki in k)
            ridx = tuple((-ki) % grid.n for ki in k)
            f.coeffs[(comp,) + idx] = val
            f.coeffs[(comp,) + ridx] = np.conj(val)
        return f

    # basic queries --------------------------------------------------------
    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_half(self) -> bool:
        """True for the half layout."""
        return self.coeffs.shape[-1] != self.grid.n

    def as_full(self) -> "SpectralField":
        """The field in the full layout; a half is mirrored, exactly Hermitian."""
        if not self.is_half:
            return self
        return SpectralField(self.grid, self.grid.half.to_full(self.coeffs))

    def as_half(self) -> "SpectralField":
        """The field in the half layout (a view of a full field's coefficients)."""
        return SpectralField(self.grid, self.grid.half.take(self.coeffs))

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.coeffs).all())

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def to_physical(self) -> np.ndarray:
        if self.is_half:
            return self.grid.half.to_physical(self.coeffs)
        spatial = tuple(range(1, self.grid.dim + 1))
        return np.real(np.fft.ifftn(self.coeffs, axes=spatial)) * self.grid.mode_count

    def hermitian_defect(self) -> float:
        """Largest ``|fhat_k - conj(fhat_{-k})|`` of a full-layout field."""
        rev = self.grid.reverse_index()
        mirrored = np.conj(self.coeffs[(slice(None),) + rev])
        return float(np.max(np.abs(self.coeffs - mirrored))) if self.coeffs.size else 0.0

    def symmetrized(self) -> "SpectralField":
        """Project a full-layout field onto the Hermitian-symmetric (real-field) subspace."""
        rev = self.grid.reverse_index()
        mirrored = np.conj(self.coeffs[(slice(None),) + rev])
        return SpectralField(self.grid, 0.5 * (self.coeffs + mirrored))

    # arithmetic (value semantics) ----------------------------------------
    def _check_compatible(self, other: "SpectralField"):
        if self.grid != other.grid or self.coeffs.shape != other.coeffs.shape:
            raise GridMismatchError(
                f"incompatible fields: {self.grid!r}/{self.coeffs.shape} vs "
                f"{other.grid!r}/{other.coeffs.shape}"
            )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def __repr__(self):
        return f"SpectralField({self.grid!r}, components={self.components})"


@dataclass(frozen=True)
class SpaceLadder:
    """The four Sobolev exponents of the compactly embedded ladder G, F0, F1, D.

    The interpolation exponent ``m`` is tied to the ladder by
    ``s_F0 = m*s_F1 + (1-m)*s_G``; if omitted it is derived from the
    exponents, if given it is checked.
    """

    s_G: float
    s_F0: float
    s_F1: float
    s_D: float
    m: float | None = None

    @functools.cached_property
    def exponents(self) -> tuple[float, float, float, float]:
        return (float(self.s_G), float(self.s_F0), float(self.s_F1), float(self.s_D))

    def __post_init__(self):
        if not (self.s_G < self.s_F0 < self.s_F1 < self.s_D):
            raise ValueError(
                f"ladder exponents must increase strictly: "
                f"{self.s_G}, {self.s_F0}, {self.s_F1}, {self.s_D}"
            )
        m = (self.s_F0 - self.s_G) / (self.s_F1 - self.s_G)
        if self.m is None:
            object.__setattr__(self, "m", m)
        elif abs(self.m - m) > 1e-12:
            raise ValueError(
                f"interpolation exponent {self.m} violates the relation "
                f"s_F0 = m*s_F1 + (1-m)*s_G (expected m={m})"
            )

    def norms(self, f: "SpectralField") -> tuple[float, float, float, float]:
        """The (G, F0, F1, D) norms of ``f`` (either layout) from one power spectrum.

        Each equals ``sobolev_norm(f, s)`` for its exponent bit for bit: the
        same dot product of the power with the same weights.  NaN or Inf
        coefficients raise :class:`NonFiniteFieldError` as there.
        """
        hs = f.grid.half
        power = hs.power(f.coeffs)
        wg, w0, w1, wd = hs.ladder_weights(self.exponents, len(f.coeffs))
        g, f0, f1, d = np.dot(wg, power), np.dot(w0, power), np.dot(w1, power), np.dot(wd, power)
        if not math.isfinite(g + f0 + f1 + d):
            _check_finite(f)
        return math.sqrt(g), math.sqrt(f0), math.sqrt(f1), math.sqrt(d)


@dataclass(frozen=True)
class GalerkinProjector:
    """Truncation to the modes with ``|k|_inf <= cutoff``."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")

    def mask(self, f: SpectralField) -> np.ndarray:
        """The cached complex 0/1 mask of the kept modes, in ``f``'s layout."""
        grid = f.grid
        if self.cutoff > grid.nyquist:
            raise ValueError(
                f"cutoff {self.cutoff} exceeds the Nyquist limit {grid.nyquist} of {grid!r}"
            )
        if f.is_half:
            return grid.half.projection_mask(self.cutoff)
        return grid.projection_mask(self.cutoff)


def _check_finite(f: SpectralField) -> None:
    """Raise for NaN/Inf coefficients; called only when a norm sum is not finite."""
    if not f.is_finite():
        raise NonFiniteFieldError("field has non-finite coefficients")


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm, ``sqrt(sum_k (1+|k|^2)^s |fhat_k|^2)`` over all components.

    Summed over the stored modes of the half spectrum, each weighted by its
    mirror images (:meth:`HalfSpectrum.power`), for either layout.  Raises
    :class:`NonFiniteFieldError` on NaN/Inf coefficients; a finite field
    whose weighted sum overflows has norm inf.
    """
    hs = f.grid.half
    sq = np.dot(hs.weight(s, len(f.coeffs)), hs.power(f.coeffs))
    if not math.isfinite(sq):
        _check_finite(f)
    return math.sqrt(sq)


def inner_product(a: SpectralField, b: SpectralField, s: float) -> float:
    """Real H^s inner product of two full-layout fields.

    ``inner_product(a, a, s)`` and ``sobolev_norm(a, s)**2`` agree only to
    rounding: this sums the full array, the norm sums the half spectrum with
    mirror weights, in another order.
    """
    a._check_compatible(b)
    w = a.grid.sobolev_weight(s)
    return float(np.sum(w * (a.coeffs.real * b.coeffs.real + a.coeffs.imag * b.coeffs.imag)))


def galerkin_project(f: SpectralField, p: GalerkinProjector) -> SpectralField:
    """Zero every coefficient with ``|k|_inf > cutoff``. Idempotent, norm contracting."""
    return SpectralField(f.grid, f.coeffs * p.mask(f))


def dealias(f: SpectralField) -> SpectralField:
    """2/3-rule truncation of either layout: zero modes with ``|k|_inf > (n - 1) // 3``."""
    return galerkin_project(f, GalerkinProjector(two_thirds_cutoff(f.grid.n)))


def interpolation_check(f: SpectralField, ladder: SpaceLadder) -> tuple[float, float]:
    """Both sides of ``||f||_F0 <= ||f||_F1^m * ||f||_G^(1-m)``.

    Returns ``(lhs, rhs)`` for audit logging; with the exponent relation in
    force, ``lhs <= rhs`` up to rounding (the constant is exactly 1).
    """
    ng, lhs, n1, _ = ladder.norms(f)
    rhs = n1**ladder.m * ng ** (1.0 - ladder.m)
    return lhs, rhs


def random_field(
    grid: TorusGrid,
    components: int,
    decay_exponent: float,
    amplitude: float,
    seed,
    zero_mean: bool = False,
    ladder: SpaceLadder | None = None,
) -> SpectralField:
    """Hermitian random field with ``|fhat_k| ~ amplitude * (1+|k|^2)^(-decay/2)``.

    Phases are seeded and uniform; the same seed always produces the same
    field.  When a ladder is supplied the tail condition
    ``decay_exponent > dim/2 + s_D`` (coefficient-sum membership in D) is
    enforced.
    """
    if ladder is not None and decay_exponent <= grid.dim / 2.0 + ladder.s_D:
        raise ValueError(
            f"decay_exponent {decay_exponent} too small for membership in D: "
            f"need > dim/2 + s_D = {grid.dim / 2.0 + ladder.s_D}"
        )
    rng = np.random.default_rng(seed)
    shape = (components,) + (grid.n,) * grid.dim
    phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    envelope = amplitude * (1.0 + grid.ksq) ** (-decay_exponent / 2.0)
    f = SpectralField(grid, envelope * np.exp(1j * phases)).symmetrized()
    if zero_mean:
        f.coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    return f


# --- snapshot persistence -------------------------------------------------
#
# Layout (numpy .npz): "dim", "n_per_axis", "components" as scalar int arrays
# and "coeffs" as the complex coefficient array with shape
# (components, n, ..., n), or (components, n, ..., n/2 + 1) for a half,
# spatial axes in numpy fft ordering (row-major).  Round trips are bit-exact.


def save_field(path, f: SpectralField) -> None:
    np.savez(
        path,
        dim=np.int64(f.grid.dim),
        n_per_axis=np.int64(f.grid.n),
        components=np.int64(f.components),
        coeffs=f.coeffs,
    )


def load_field(path) -> SpectralField:
    with np.load(path) as data:
        grid = TorusGrid(int(data["dim"]), int(data["n_per_axis"]))
        coeffs = data["coeffs"]
        if coeffs.shape[0] != int(data["components"]):
            raise ValueError(f"snapshot corrupt: component mismatch in {path}")
        return SpectralField(grid, coeffs.copy())
