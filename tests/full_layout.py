"""Oracles on the full coefficient layout for the tests: wavenumbers in
numpy fft order, and the Hermitian defect of a field in either layout."""

import numpy as np


def wavenumbers(grid):
    """Integer wavenumber arrays of the full layout, one per axis, broadcastable."""
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    return tuple(k.reshape((-1,) + (1,) * (grid.dim - 1 - a)) for a in range(grid.dim))


def ksq(grid):
    return sum(np.square(k) for k in wavenumbers(grid))


def kinf(grid):
    shape = (grid.n,) * grid.dim
    return np.maximum.reduce([np.broadcast_to(np.abs(k), shape) for k in wavenumbers(grid)])


def hermitian_defect(f):
    """Largest ``|fhat_k - conj(fhat_{-k})|`` over the pairs k, -k that ``f``
    stores: every mode of a full field, the planes k_last = 0, n/2 of a half."""
    n, dim = f.grid.n, f.grid.dim
    reverse = (-np.arange(n)) % n
    c, last = (f.coeffs[..., [0, n // 2]], [0, 1]) if f.is_half else (f.coeffs, reverse)
    mirrored = c[(slice(None),) + np.ix_(*[reverse] * (dim - 1), last)]
    return float(np.max(np.abs(c - np.conj(mirrored))))
