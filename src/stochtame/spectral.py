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
the program computes on the non-redundant half of the spectrum only: the
modes ``0 <= k_last <= n/2`` of the last axis (the numpy ``rfftn`` layout,
:class:`HalfSpectrum`).  The layouts follow one rule:

* the full layout, every mode in fft order, is a boundary format.  A full
  field enters a computation only through :meth:`SpectralField.as_half`, a
  view, at the entry of ``DriftOperator.__call__``,
  :func:`galerkin_project` and the stepping loop.  It is made only by
  :meth:`HalfSpectrum.to_full`, for :meth:`SpectralField.from_physical`, a
  trajectory's ``final_state`` and the results handed back to a full-layout
  caller;
* halves are the layout of the public operations: this module's and
  :mod:`stochtame.models`' functions take and return them;
* a path's stepping loop runs in its Galerkin block's layout (below), from
  its initial projection, one :meth:`_Kernel.read`, until its record is
  built, one :meth:`_Kernel.write`.  A :class:`SpectralField` with a
  ``block`` holds such coefficients, and the norms, pairings and drifts
  take it as they take a half, through its ``layout``.

Mirrored arrays are exactly Hermitian, with real self-conjugate modes.  In
2D and 3D the planes ``k_last = 0`` and ``k_last = n/2`` of a half store
both ``k`` and ``-k``; a stepped half keeps them conjugate only to
rounding, and the mirror reads one of each pair.

Sobolev norms and pairings are weighted sums over the stored modes of a
layout: each mode is counted once per mirror image, that is twice off the
planes ``k_last = 0, n/2`` and once on them, where ``-k`` is stored too.  The
power (:meth:`HalfSpectrum.power`) is the squared real and imaginary parts of
every component at the stored modes.  ``||f||_{H^s}^2`` is one dot product of
the power with the layout's cached weight (:meth:`_Layout.weight`).
:func:`weighted_norms` forms the power once and takes the dot products with
a stack of weights in one ``np.vecdot`` call, each row the same dot product
as alone, so :meth:`SpaceLadder.norms` and :func:`sobolev_norm` agree bit
for bit.  They agree with the plain sum over the full array, and a block's
sums with its half's, only to rounding (a few ulps): the half sum adds each
off-plane mode once with weight 2, where the full sum adds it twice, and the
block sum leaves out the zeros outside the block, each in another order.
Finiteness is read off the weighted sum instead of scanning the
coefficients: every square is >= 0 and every weight is > 0,
so a NaN or Inf coefficient makes the sum NaN or Inf, and a sum of finite
coefficients is finite unless it overflows.  Only a non-finite sum is
followed by an ``isfinite`` scan, which tells an overflow (the norm is inf)
from a non-finite field (:class:`NonFiniteFieldError`).

The 2/3 rule keeps the modes ``|k|_inf <= (n - 1) // 3``
(:func:`two_thirds_cutoff`): a product of two kept modes has
``|k|_inf <= 2d`` and aliases onto a kept mode only when ``3d >= n``.

The drifts form their quadratic terms through a kernel of the Galerkin
block ``|k|_inf <= d`` (:meth:`HalfSpectrum.kernel`), cached per cutoff on
the grid's half spectrum, for the cutoffs ``1 <= d <= (n - 1) // 3``.  Every
kernel has the one block layout: the block gathered, shape ``(2d + 1, ...,
d + 1)``, which holds V_d and nothing else, so reading a half into it is the
Galerkin projection.  Its per-mode arrays (wavenumbers, ``|k|^2``, mirror
images and ladder weights) are the half's read at the layout.  On stacks in
the layout a kernel makes derivatives, transforms them to grid values in one
batched call, and the products formed on the grid back to the layout in
another.  The same condition makes any grid of ``M > 3d`` points per axis
alias-free for the block (Orszag, J. Atmos. Sci. 28, 1971), so the two
kernels, which differ only in their transforms, compute the same products up
to rounding:

* :class:`DenseKernel` on ``M = 3d + 1`` points: one ``np.matmul`` of a
  real DFT matrix per axis for all fields at once, built from the exact
  integer phases ``k j mod M``;
* :class:`FFTKernel` on the model grid's ``n`` points: pocketfft real FFTs,
  the leading axes on the first ``d + 1`` columns only, the block scattered
  into their rows before and gathered from them after.

The dense kernel's work grows like ``d^(dim + 1)`` and does not depend on
``n``; the FFT's like ``n^dim log n`` plus a fixed cost per call.  A block
gets the dense kernel while :func:`dense_work_ratio`, the dense
multiply-adds over ``n^dim log2 n^dim``, is at most
:data:`DENSE_WORK_RATIO_LIMIT`.  The limit comes from this interleaved
timing of whole drift calls (2-vCPU VM, one BLAS thread, medians of nine
alternating rounds):

======  ====  ===  =====  ========  ======  ========================
kind    grid  d    ratio  dense us  FFT us  FFT/dense (range)
======  ====  ===  =====  ========  ======  ========================
B1D     256   8    0.22   28        41      1.48 (1.41-1.59)
B1D     256   32   3.13   31        41      1.31 (1.28-1.35)
B1D     256   48   6.94   36        41      1.15 (1.07-1.21)
B1D     256   64   12.25  29        25      0.89 (0.79-1.04)
B1D     1024  64   2.45   25        36      1.46 (1.40-2.31)
B1D     1024  128  9.70   71        38      0.55 (0.35-0.64)
B1D     1024  341  68.40  1015      58      0.06 (0.04-0.07)
RSW     32^2  8    3.57   130       219     1.66 (1.61-1.75)
RSW     32^2  10   6.74   104       147     1.37 (1.13-1.51)
RSW     64^2  16   5.46   378       605     1.60 (1.32-2.17)
RSW     64^2  21   12.09  470       437     0.91 (0.80-1.21)
V3D     16^3  5    5.30   1243      2059    1.67 (1.47-2.19)
======  ====  ===  =====  ========  ======  ========================

(B1D: Burgers1D, RSW: RSW_Inviscid, V3D: Vorticity3D; "ratio" is
:func:`dense_work_ratio`.)  The dense kernel wins up to a ratio of 6.94
and loses from 9.70, so the limit is 8.
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


class _Layout:
    """The per-mode arrays of a coefficient layout, whose last axes are the
    modes: the wavenumbers ``k_axes`` and ``ik``, ``ik_stack`` (every
    derivative from one multiply), ``ksq`` and ``kinf`` on every mode, the
    mirror images each stored mode stands for, and the ladder weights.
    ``layouts`` holds the coefficient shapes of one component it takes."""

    def _set_modes(self, k_axes, ik_stack, ksq, kinf, images):
        self.k_axes = k_axes
        self.ik_stack = ik_stack
        self.ik = tuple(ik_stack)
        self.ksq = ksq
        self.kinf = kinf
        self._images = np.broadcast_to(images, kinf.shape).ravel()
        self._weights: dict[tuple[float, int], np.ndarray] = {}
        self._stacked_weights: dict[tuple, np.ndarray] = {}

    def weight(self, s: float, components: int) -> np.ndarray:
        """The weights of :meth:`HalfSpectrum.power`: ``(1+|k|^2)^s`` times
        the mirror images of each stored mode, once for the real and once
        for the imaginary part, for each component; cached per (s, components)."""
        key = (float(s), components)
        if key not in self._weights:
            w = self._images * (1.0 + self.ksq.ravel()) ** key[0]
            self._weights[key] = np.tile(np.repeat(w, 2), components)
        return self._weights[key]

    def weights(self, exponents: tuple[float, ...], components: int) -> np.ndarray:
        """The :meth:`weight` arrays of several exponents, stacked, as
        :func:`weighted_norms` takes them; cached per tuple."""
        key = (exponents, components)
        weights = self._stacked_weights.get(key)
        if weights is None:
            stack = np.stack([self.weight(s, components) for s in exponents])
            weights = self._stacked_weights[key] = stack
        return weights


class HalfSpectrum(_Layout):
    """The non-redundant half of a real field's spectrum on one grid.

    Half arrays hold the modes ``0 <= k_last <= n/2`` of the last spatial axis
    (the numpy ``rfftn`` layout); leading axes are batch axes.  The
    transforms use the module's normalisation, and :meth:`to_full` rebuilds
    the full coefficient array as an exactly Hermitian one.  The drifts
    transform through :meth:`kernel`, one per Galerkin block.
    """

    def __init__(self, dim: int, n: int):
        m = n // 2 + 1
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
        self.dealias_cutoff = two_thirds_cutoff(n)
        # coefficient shapes of one component: the full and the half layout
        self.layouts = ((n,) * dim, kinf.shape)
        self.axes = tuple(range(-dim, 0))
        self._lead_axes = self.axes[:-1]
        # each stored mode stands for itself and its mirror image -k, except
        # on the planes k_last = 0 and k_last = n/2, which store both
        images = np.full(m, 2.0)
        images[0] = images[-1] = 1.0
        # ik on every mode, stacked, so that one multiply makes a gradient
        ik_stack = np.stack(np.broadcast_arrays(*[1j * ka for ka in axes]))
        self._set_modes(tuple(axes), ik_stack, sum(ka**2 for ka in axes), kinf, images)
        self._kernels: dict[int, DenseKernel | FFTKernel] = {}

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

    def from_physical(self, values: np.ndarray) -> np.ndarray:
        """Half spectra of a stack of real grid arrays (not dealiased)."""
        return np.fft.rfftn(values, axes=self.axes) / self.n ** len(self.axes)

    def kernel(self, cutoff: int | None = None) -> "DenseKernel | FFTKernel":
        """The drift transforms of the Galerkin block ``|k|_inf <= cutoff``
        (default: the 2/3 cutoff); cached per cutoff.  A cutoff outside ``1
        ... (n - 1)//3`` raises ValueError.

        The block gets the :class:`DenseKernel` when its
        :func:`dense_work_ratio` is at most :data:`DENSE_WORK_RATIO_LIMIT`,
        else the :class:`FFTKernel`.
        """
        d = self.dealias_cutoff if cutoff is None else cutoff
        kernel = self._kernels.get(d)
        if kernel is None:
            if dense_work_ratio(len(self.axes), self.n, d) <= DENSE_WORK_RATIO_LIMIT:
                kernel = DenseKernel(self, d)
            else:
                kernel = FFTKernel(self, d)
            self._kernels[d] = kernel
        return kernel

    @staticmethod
    def power(coeffs: np.ndarray) -> np.ndarray:
        """The squared real and imaginary parts of an array of shape
        (components, ...) in a layout, flattened in the order of its
        :meth:`_Layout.weight`."""
        v = np.ascontiguousarray(coeffs).view(np.float64)
        return (v * v).reshape(-1)

    def to_physical(self, half: np.ndarray) -> np.ndarray:
        """Grid values of a stack of half spectra, one batched inverse transform.

        The stack may hold only the first columns (as the FFT kernel
        scatters a block into them); the missing ones read as zero.
        """
        x = half
        for axis in self._lead_axes:
            x = np.fft.ifft(x, axis=axis, norm="forward")
        return np.fft.irfft(x, n=self.n, axis=-1, norm="forward")

    def to_full(self, half: np.ndarray) -> np.ndarray:
        """The Hermitian full coefficient array of a stack of half spectra."""
        lead = half.shape[: -len(self.axes)]
        flat = half.reshape(lead + (-1,))
        full = np.concatenate([flat, flat.conj()], axis=-1).take(self._mirror_src, axis=-1)
        full.imag[..., self._self_conjugate] = 0.0
        return full.reshape(lead + (self.n,) * len(self.axes))


#: the largest :func:`dense_work_ratio` of a block on the dense kernel;
#: above it the FFT kernel is the faster (the crossover table of the module
#: docstring)
DENSE_WORK_RATIO_LIMIT = 8.0


def dense_work_ratio(dim: int, n: int, cutoff: int) -> float:
    """The multiply-adds of one field's dense inverse transform on the block
    ``|k|_inf <= cutoff`` over the ``N log2 N`` of an FFT of the ``N =
    n^dim`` model-grid points.

    The dense work is the real matrix product of each axis, from the
    block's ``2d + 1`` (leading axes) and ``d + 1`` (last axis) complex
    modes to ``M = 3d + 1`` points, the last axis first; the forward
    transform costs about as much.
    """
    lead, last, points = 2 * cutoff + 1, cutoff + 1, 3 * cutoff + 1
    if dim == 1:
        work = 2 * last * points
    else:
        work = lead ** (dim - 1) * 2 * last * 2 * points
        for a in range(dim - 1, 0, -1):
            out = points if a == 1 else 2 * points
            work += lead ** (a - 1) * out * 2 * lead * points ** (dim - a)
    return work / (n**dim * math.log2(n**dim))


def _inverse_dft(modes: np.ndarray, points: int) -> np.ndarray:
    """The real matrix of ``y_j = sum_k c_k exp(i k x_j)`` from the complex
    coefficients at ``modes`` to ``points`` equispaced values.

    Rows are (real part, imaginary part) by point, the real parts first;
    columns are mode by (real part, imaginary part), interleaved as a complex
    array's float view.  Each angle is ``2 pi (k j mod points) / points``
    from the exact integer phase.
    """
    theta = (2.0 * np.pi / points) * (np.outer(np.arange(points), modes) % points)
    cos, sin = np.cos(theta), np.sin(theta)
    w = np.empty((2, points, len(modes), 2))
    w[0, ..., 0], w[0, ..., 1] = cos, -sin
    w[1, ..., 0], w[1, ..., 1] = sin, cos
    return w.reshape(2 * points, 2 * len(modes))


class _Kernel(_Layout):
    """The Galerkin block ``|k|_inf <= cutoff`` in a layout of its own, and
    its drift-facing transforms.

    The layout is the block gathered, shape ``(2d + 1, ..., d + 1)``: the
    ``2d + 1`` modes of each leading axis in fft order and the ``d + 1`` of
    the last, which hold every mode of V_d and no other.  ``self.index``
    takes it from a half: :meth:`read` takes the block of a stack of half
    spectra into the layout, which is the Galerkin projection, and
    :meth:`write` puts a stack in the layout back into zero-filled halves.
    The per-mode arrays of :class:`_Layout` are the half's, read at the
    layout.  The quadratic terms are formed on stacks in the layout: fields
    and derivatives, their grid values (a subclass's ``to_physical``), and
    the products formed on the grid back to stacks in the layout (its
    ``tendency``).  The cutoff must lie in ``1 ... (n - 1)//3``, where those
    products are exact on the block.
    """

    def __init__(self, hs: HalfSpectrum, cutoff: int):
        n, dim = hs.n, len(hs.axes)
        if not 1 <= cutoff <= hs.dealias_cutoff:
            raise ValueError(
                f"cutoff {cutoff} outside 1 ... (n - 1)//3 = {hs.dealias_cutoff} "
                f"of the {n}-point grid"
            )
        self.hs = hs
        self.cutoff = cutoff
        self._lead = np.r_[0 : cutoff + 1, -cutoff:0]  # fft order
        rows = np.ix_(*[self._lead % n] * (dim - 1))
        self.index = (Ellipsis,) + rows + (slice(None, cutoff + 1),)

        # C contiguous, as :meth:`read` makes the state: a shallow-water
        # drift on the strided arrays an index leaves costs about a sixth more
        def modes(a):
            full = np.broadcast_to(a, a.shape[:-dim] + hs.kinf.shape)
            return np.ascontiguousarray(full[self.index])

        self._set_modes(
            tuple(modes(ka) for ka in hs.k_axes),
            modes(hs.ik_stack),
            modes(hs.ksq),
            modes(hs.kinf),
            modes(hs._images.reshape(hs.kinf.shape)),
        )
        self.shape = self.kinf.shape
        self.layouts = (self.shape,)
        # stacked on a leading axis, so that one multiply makes every derivative
        self._ik = self.ik_stack[:, None]

    def read(self, half: np.ndarray) -> np.ndarray:
        """The block of a stack of half spectra, in the kernel's layout, C
        contiguous as every array the loop makes."""
        return np.ascontiguousarray(half[self.index])

    def write(self, stack: np.ndarray) -> np.ndarray:
        """The half spectra of a stack in the kernel's layout, zero elsewhere."""
        out = np.zeros(stack.shape[: -len(self.shape)] + self.hs.kinf.shape, np.complex128)
        out[self.index] = stack
        return out

    def gradient(self, stack: np.ndarray) -> np.ndarray:
        """Derivatives, stacked axis-major: ``[d_0 f, d_1 f, ...]``."""
        return (self._ik * stack).reshape((-1,) + stack.shape[1:])

    def with_gradient(self, stack: np.ndarray) -> np.ndarray:
        """The field and its derivatives, ``[f, d_0 f, d_1 f, ...]`` on a new
        leading axis."""
        return np.concatenate([stack[None], self._ik * stack])

    def with_curl(self, stack: np.ndarray) -> np.ndarray:
        """The stack ``[f_0, ..., f_last, d_0 f_1 - d_1 f_0]`` of a 2D stack
        whose first two fields are a velocity: the fields and the vorticity."""
        ik = self.ik
        return np.concatenate([stack, (ik[0] * stack[1] - ik[1] * stack[0])[None]])


class FFTKernel(_Kernel):
    """The block's transforms as pocketfft real FFTs on the model grid.

    The inverse transform scatters the block into the model grid's rows of
    its first ``cutoff + 1`` columns, and the forward one gathers it back
    from them; the leading axes are transformed on those columns only.  In
    1D the block is those columns, and neither moves anything.
    """

    def __init__(self, hs: HalfSpectrum, cutoff: int):
        super().__init__(hs, cutoff)
        self._rows = hs.kinf.shape[:-1] + (cutoff + 1,)
        # the forward transforms are unnormalised; their 1/n per axis and the
        # sign of a tendency are one multiply.  For n a power of two that
        # scaling is exact and a sign always is, so the result is bit for
        # bit that of normalised transforms negated
        self._tendency_scale = -1.0 / hs.n ** len(hs.axes)

    def to_physical(self, stack: np.ndarray) -> np.ndarray:
        """Model-grid values of a stack in the kernel's layout."""
        if len(self.shape) > 1:
            rows = np.zeros(stack.shape[: -len(self.shape)] + self._rows, np.complex128)
            rows[self.index] = stack
            stack = rows
        return self.hs.to_physical(stack)

    def tendency(self, values: np.ndarray) -> np.ndarray:
        """Minus a stack of real model-grid arrays in the kernel's layout: the
        tendency -N of a nonlinear term N formed on the grid."""
        x = np.fft.rfft(values, axis=-1)[..., : self.cutoff + 1]
        for axis in self.hs._lead_axes:
            x = np.fft.fft(x, axis=axis)
        x = x[self.index]
        x *= self._tendency_scale
        return x

    grid_values = to_physical


class DenseKernel(_Kernel):
    """The block's transforms as dense real matrix products.

    Its grid has ``points`` per axis, by default ``M = 3d + 1``: a product
    of two block fields has ``|k|_inf <= 2d`` and aliases onto the block
    only when ``3d >= M``, so the tendency is exact (Orszag's alias-free
    condition).  Each axis is one ``np.matmul`` over every field, of a real
    matrix of :func:`_inverse_dft` or its transpose.  The complex values
    between two axes are kept as an axis of two (real, imaginary) next to
    the modes or points of the axis to transform next, so that each product
    contracts two adjacent axes and every reshape is free.
    """

    def __init__(self, hs: HalfSpectrum, cutoff: int, points: int | None = None):
        super().__init__(hs, cutoff)
        dim = len(hs.axes)
        M = 3 * cutoff + 1 if points is None else points
        self.points = M
        self._model_grid = None
        w_lead = _inverse_dft(self._lead, M)
        w_last = _inverse_dft(np.arange(cutoff + 1), M)
        # a mode off the plane k_last = 0 stands for itself and its mirror
        # image; the real part of their sum is twice its own
        images = np.full((1, cutoff + 1, 1), 2.0)
        images[0, 0] = 1.0
        last = (w_last.reshape(2 * M, cutoff + 1, 2) * images).reshape(2 * M, -1).T
        # the forward transforms carry the normalisation and the sign of a tendency
        forward_last = -w_last / M**dim
        if dim == 1:
            # real values only
            self._inverse = [last[:, :M].copy()]
            self._forward = [forward_last[:M].copy()]
        else:
            # inverse: the last axis to (real, imaginary) parts by point, then
            # the leading axes from the innermost, the outermost to real values;
            # forward: the reverse
            inner = [w_lead] * (dim - 2)
            self._inverse = [last.copy()] + inner + [w_lead[:M].copy()]
            self._forward = [w_lead[:M].T.copy()] + [w.T.copy() for w in inner] + [forward_last]

    def to_physical(self, stack: np.ndarray) -> np.ndarray:
        """Grid values, ``points`` per axis, of a stack in the kernel's layout."""
        M, dim = self.points, len(self.shape)
        first, *lead = self._inverse
        x = stack.view(np.float64).reshape(-1, len(first)) @ first
        for a, w in enumerate(lead):
            x = np.matmul(w, x.reshape(-1, w.shape[1], M ** (a + 1)))
        return x.reshape(stack.shape[:-dim] + (M,) * dim)

    def tendency(self, values: np.ndarray) -> np.ndarray:
        """Minus a stack of real grid arrays, ``points`` per axis, in the
        kernel's layout: the tendency -N of a nonlinear term N formed on the
        grid."""
        M, dim = self.points, len(self.shape)
        batch = values.shape[:-dim]
        *lead, last = self._forward
        x = values
        for a, w in enumerate(lead):
            x = np.matmul(w, x.reshape(-1, w.shape[1], M ** (dim - 1 - a)))
        x = x.reshape(-1, len(last)) @ last
        return x.view(np.complex128).reshape(batch + self.shape)

    def grid_values(self, stack: np.ndarray) -> np.ndarray:
        """Model-grid values of a stack in the kernel's layout."""
        if self._model_grid is None:
            self._model_grid = DenseKernel(self.hs, self.cutoff, self.hs.n)
        return self._model_grid.to_physical(stack)


@functools.cache
def _half_spectrum(dim: int, n: int) -> HalfSpectrum:
    """One :class:`HalfSpectrum` per (dim, n), shared by every grid."""
    return HalfSpectrum(dim, n)


class TorusGrid:
    """Uniform collocation grid on ``[0, 2*pi)^dim`` with n modes per axis.

    ``n`` must be even and at least 4 (Hermitian symmetry and the 2/3
    dealiasing rule both need it).
    """

    __slots__ = ("dim", "n", "half")

    def __init__(self, dim: int, n: int):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_per_axis must be even and >= 4, got {n}")
        self.dim = dim
        self.n = n
        #: wavenumbers, masks, weights and transforms of the half spectrum
        self.half = _half_spectrum(dim, n)

    @property
    def dealias_cutoff(self) -> int:
        return two_thirds_cutoff(self.n)

    @property
    def nyquist(self) -> int:
        return self.n // 2

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

    ``coeffs`` has shape ``(components, n, ..., m)`` with ``dim`` spatial
    axes and ``m = n/2 + 1``: the non-redundant half of a Hermitian array
    (the :class:`HalfSpectrum` layout), which the public operations take and
    return.  Only the boundary holds the full layout, ``(components, n,
    ..., n)`` in numpy fft order: :meth:`from_physical` makes it,
    :meth:`as_full` mirrors a half into it, and :meth:`as_half` reads a full
    field as the real field it stands for, at the entry of the operations
    that take one (see the module docstring).  A field with a ``block``, the
    kernel of its Galerkin block, holds ``coeffs`` in that kernel's layout,
    as a path's stepping loop does; :meth:`as_half` writes it to a half.
    """

    __slots__ = ("grid", "coeffs", "block")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray, block: "_Kernel | None" = None):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[np.newaxis]
        if coeffs.shape[1:] not in (grid.half if block is None else block).layouts:
            raise GridMismatchError(
                f"coefficient shape {coeffs.shape} incompatible with {grid!r}"
            )
        self.grid = grid
        self.coeffs = coeffs
        self.block = block

    # constructors -------------------------------------------------------
    @classmethod
    def zeros(cls, grid: TorusGrid, components: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((components,) + grid.half.layouts[1], dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        """The full layout of real grid values, exactly Hermitian."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == grid.dim:
            values = values[np.newaxis]
        return cls(grid, grid.half.to_full(grid.half.from_physical(values)))

    @classmethod
    def from_modes(
        cls, grid: TorusGrid, modes: Iterable[tuple[tuple[int, ...], int, complex]]
    ) -> "SpectralField":
        """Build a half from (wavevector, component, coefficient) triples.

        The conjugate partner at ``-k`` is filled in automatically; each of
        ``k`` and ``-k`` is stored where the half holds it.
        """
        entries = list(modes)
        ncomp = max(c for _, c, _ in entries) + 1 if entries else 1
        f = cls.zeros(grid, ncomp)
        for k, comp, val in entries:
            k = tuple(int(ki) for ki in (k if isinstance(k, tuple) else (k,)))
            for kk, v in ((k, val), (tuple(-ki for ki in k), np.conj(val))):
                idx = tuple(ki % grid.n for ki in kk)
                if idx[-1] < grid.half.m:
                    f.coeffs[(comp,) + idx] = v
        return f

    # basic queries --------------------------------------------------------
    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_half(self) -> bool:
        """True for the half layout; False for the full boundary layout and
        for a block's layout."""
        return self.block is None and self.coeffs.shape[-1] != self.grid.n

    @property
    def layout(self) -> _Layout:
        """The per-mode arrays of the field's layout: its block's, else the half's."""
        return self.grid.half if self.block is None else self.block

    def as_full(self) -> "SpectralField":
        """The field in the full layout; a half or a block field is
        mirrored, exactly Hermitian."""
        if self.block is None and not self.is_half:
            return self
        return SpectralField(self.grid, self.grid.half.to_full(self.as_half().coeffs))

    def as_half(self) -> "SpectralField":
        """The field in the half layout: itself, a view of a full field's
        half, or a block's layout written to a half."""
        if self.block is not None:
            return SpectralField(self.grid, self.block.write(self.coeffs))
        if self.is_half:
            return self
        return SpectralField(self.grid, self.coeffs[..., : self.grid.half.m])

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.block)

    def to_physical(self) -> np.ndarray:
        """Grid values of a half or a block field."""
        return self.grid.half.to_physical(self.as_half().coeffs)

    # arithmetic (value semantics) ----------------------------------------
    def _check_compatible(self, other: "SpectralField"):
        if (
            self.grid != other.grid
            or self.coeffs.shape != other.coeffs.shape
            or self.block is not other.block
        ):
            raise GridMismatchError(
                f"incompatible fields: {self.grid!r}/{self.coeffs.shape} vs "
                f"{other.grid!r}/{other.coeffs.shape}"
            )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs, self.block)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs, self.block)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar), self.block)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs, self.block)

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
        """The (G, F0, F1, D) norms of a half or block field ``f`` from one
        power spectrum.

        Each equals ``sobolev_norm(f, s)`` for its exponent bit for bit
        (:func:`weighted_norms`).  NaN or Inf coefficients raise
        :class:`NonFiniteFieldError` as there.
        """
        weights = f.layout.weights(self.exponents, len(f.coeffs))
        return tuple(weighted_norms(f.coeffs, weights))


@dataclass(frozen=True)
class GalerkinProjector:
    """Truncation to the modes with ``|k|_inf <= cutoff``."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")

    def mask(self, grid: TorusGrid) -> np.ndarray:
        """The 0/1 mask of the kept modes on the half of ``grid``."""
        if self.cutoff > grid.nyquist:
            raise ValueError(
                f"cutoff {self.cutoff} exceeds the Nyquist limit {grid.nyquist} of {grid!r}"
            )
        return grid.half.kinf <= self.cutoff


def weighted_norms(coeffs: np.ndarray, weights: np.ndarray) -> list[float]:
    """The norms ``sqrt(w . power)`` of an array in a layout, one per row
    ``w`` of ``weights``, the layout's :meth:`_Layout.weights` (a half's, or
    a block's in the stepping loop), from one power spectrum.

    Each row is one ``np.vecdot`` dot product, the same sum whatever the
    other rows are.  Raises :class:`NonFiniteFieldError` on NaN/Inf
    coefficients, found by the finiteness of the sums (module docstring);
    a finite array whose weighted sum overflows has norm inf.
    """
    sums = np.vecdot(weights, HalfSpectrum.power(coeffs)).tolist()
    if not math.isfinite(sum(sums)) and not np.isfinite(coeffs).all():
        raise NonFiniteFieldError("field has non-finite coefficients")
    return list(map(math.sqrt, sums))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm, ``sqrt(sum_k (1+|k|^2)^s |fhat_k|^2)`` over all components.

    Summed over the stored modes of ``f``'s layout, each weighted by its
    mirror images (:meth:`HalfSpectrum.power`), as :func:`weighted_norms` sums.
    Raises :class:`NonFiniteFieldError` on NaN/Inf coefficients; a finite
    field whose weighted sum overflows has norm inf.
    """
    return weighted_norms(f.coeffs, f.layout.weights((s,), len(f.coeffs)))[0]


def inner_product(a: SpectralField, b: SpectralField, s: float) -> float:
    """Real H^s inner product of two fields in one layout, summed as :func:`sobolev_norm`
    sums, so ``inner_product(a, a, s) == sobolev_norm(a, s)**2`` bit for bit."""
    a._check_compatible(b)
    va = np.ascontiguousarray(a.coeffs).view(np.float64)
    vb = np.ascontiguousarray(b.coeffs).view(np.float64)
    return float(np.dot(a.layout.weight(s, len(a.coeffs)), (va * vb).reshape(-1)))


def galerkin_project(f: SpectralField, p: GalerkinProjector) -> SpectralField:
    """Zero every coefficient with ``|k|_inf > cutoff``. Idempotent, norm contracting.

    A full ``f`` is read through its half and its projection mirrored back.
    """
    out = SpectralField(f.grid, f.as_half().coeffs * p.mask(f.grid))
    return out if f.is_half else out.as_full()


def dealias(f: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero modes with ``|k|_inf > (n - 1) // 3``."""
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
    """Half of a random real field, ``|fhat_k| ~ amplitude * (1+|k|^2)^(-decay/2)``.

    Phases are seeded and uniform; the same seed always produces the same
    field.  A phase is drawn for every mode of the full grid, and the
    coefficient at k is the mean of the draw at k and the conjugate of the
    draw at -k.  When a ladder is supplied the tail condition
    ``decay_exponent > dim/2 + s_D`` (coefficient-sum membership in D) is
    enforced.
    """
    if ladder is not None and decay_exponent <= grid.dim / 2.0 + ladder.s_D:
        raise ValueError(
            f"decay_exponent {decay_exponent} too small for membership in D: "
            f"need > dim/2 + s_D = {grid.dim / 2.0 + ladder.s_D}"
        )
    rng = np.random.default_rng(seed)
    hs = grid.half
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(components,) + (grid.n,) * grid.dim)
    reverse = (-np.arange(grid.n)) % grid.n  # index of -k along one axis
    mirror = np.ix_(*[reverse] * (grid.dim - 1), reverse[: hs.m])
    envelope = amplitude * (1.0 + hs.ksq) ** (-decay_exponent / 2.0)
    own = envelope * np.exp(1j * phases[..., : hs.m])
    image = envelope * np.exp(1j * phases[(slice(None),) + mirror])
    f = SpectralField(grid, 0.5 * (own + np.conj(image)))
    if zero_mean:
        f.coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    return f


# --- snapshot persistence -------------------------------------------------
#
# Layout (numpy .npz): "dim", "n_per_axis", "components" as scalar int arrays
# and "coeffs" as the complex coefficient array as the field holds it: the
# half (components, n, ..., n/2 + 1) of every computed field, or the full
# boundary layout (components, n, ..., n), spatial axes in numpy fft ordering
# (row-major).  Round trips are bit-exact.


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
