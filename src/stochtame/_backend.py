"""The per-step kernels of the scalar path ensembles, in numpy.

Each kernel advances a chunk of steps for all paths at once, one vectorised
update per step.
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
    """
    ch = c * h
    two_h = 2.0 * h
    steps = dw.shape[0]
    for s in range(steps):
        dz = dw[s] - ch
        z1 = z + dz
        if u is None:
            np.maximum(rec, z1, out=rec)
        else:
            disc = dz * dz - two_h * np.log(u[s])
            seg = 0.5 * ((z + z1) + np.sqrt(disc))
            np.maximum(rec, seg, out=rec)
        z[:] = z1


def tamed_gbm_chunk(x, a, b, dw, h):
    """Tamed Euler steps for dX = aX dt + bX dW on a chunk of increments.

    ``x`` (P,) is updated in place through ``dw`` (S, P).  Both increments are
    normalised exactly as in the field stepper: drift by ``1 + h|aX|``, noise
    by ``1 + h (bX)^2``.
    """
    steps = dw.shape[0]
    for s in range(steps):
        m = a * x
        g = b * x
        x += h * m / (1.0 + h * np.abs(m)) + dw[s] * g / (1.0 + h * g * g)
