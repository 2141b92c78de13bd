"""The per-step kernels of the scalar path ensembles, in numpy.

Each kernel advances a chunk of steps for all paths at once.  A call
allocates its step temporaries once, as a few path-length (P,) scratch
arrays (two for the endpoint-only envelope, four with bridge uniforms, four
for the tamed GBM step), and every step fills them with ``out=`` ufuncs in
the order of the written-out expression, so the results are the
expression's bit for bit.
"""

from __future__ import annotations

import numpy as np

#: the kernels' implementation, reported by ``stochtame --version``
BACKEND = "python"


def envelope_chunk(z, rec, dw, u, h, c):
    """Advance the compensated processes z by one chunk of increments.

    ``z`` (P,) holds M_t - c*t per path, ``rec`` (P,) the running suprema,
    ``dw`` (S, P) the Brownian increments, ``u`` (S, P) bridge uniforms or
    None (then only step endpoints enter the record), ``h`` the step and
    ``c`` the compensation rate.  Updates ``z`` and ``rec`` in place.

    A step sets dz = dw - c h and z1 = z + dz; the record takes z1, or with
    ``u`` the bridge maximum 0.5 ((z + z1) + sqrt(dz^2 - 2h log u)).
    """
    ch = c * h
    two_h = 2.0 * h
    dz = np.empty_like(z)
    z1 = np.empty_like(z)
    if u is not None:
        disc = np.empty_like(z)
        seg = np.empty_like(z)
    for s in range(dw.shape[0]):
        np.subtract(dw[s], ch, out=dz)
        np.add(z, dz, out=z1)
        if u is None:
            np.maximum(rec, z1, out=rec)
        else:
            np.log(u[s], out=disc)
            np.multiply(two_h, disc, out=disc)
            np.multiply(dz, dz, out=seg)
            np.subtract(seg, disc, out=disc)
            np.sqrt(disc, out=disc)
            np.add(z, z1, out=seg)
            np.add(seg, disc, out=seg)
            np.multiply(0.5, seg, out=seg)
            np.maximum(rec, seg, out=rec)
        np.copyto(z, z1)


def tamed_gbm_chunk(x, a, b, dw, h):
    """Tamed Euler steps for dX = aX dt + bX dW on a chunk of increments.

    ``x`` (P,) is updated in place through ``dw`` (S, P).  Both increments are
    normalised exactly as in the field stepper: drift by ``1 + h|aX|``, noise
    by ``1 + h (bX)^2``.  A step is
    x += h m / (1 + h |m|) + dw g / (1 + h g g) with m = a x and g = b x.
    """
    m = np.empty_like(x)
    g = np.empty_like(x)
    den = np.empty_like(x)
    kick = np.empty_like(x)
    for s in range(dw.shape[0]):
        np.multiply(a, x, out=m)
        np.multiply(b, x, out=g)
        np.abs(m, out=den)
        np.multiply(h, den, out=den)
        np.add(1.0, den, out=den)
        np.multiply(h, m, out=m)
        np.divide(m, den, out=m)
        np.multiply(dw[s], g, out=kick)
        np.multiply(h, g, out=den)
        np.multiply(den, g, out=den)
        np.add(1.0, den, out=den)
        np.divide(kick, den, out=kick)
        np.add(m, kick, out=m)
        np.add(x, m, out=x)
