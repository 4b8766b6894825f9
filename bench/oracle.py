"""30-digit reference values of wp and wp' through Jacobi theta functions.

For the lattice Z + Z*tau, with nome q = exp(i pi tau) and v = pi z,

    wp(z)  = C (theta4(v) / theta1(v))^2 - (pi^2 / 3) (theta2^4 + theta3^4),
    wp'(z) = 2 C g g',  g = theta4(v) / theta1(v),  C = (pi theta2 theta3)^2,

with theta2, theta3 taken at v = 0 (DLMF 23.6.2 and 20.2).  mpmath evaluates
the theta series itself, so this shares no code with the q-series of
toruslie.elliptic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DIGITS = 30
#: digits credited to a value that matches the reference exactly
MAX_DIGITS = 17.0


def wp_pair(z: complex, tau: complex) -> tuple[complex, complex]:
    """(wp(z), wp'(z)) for Z + Z*tau at 30 significant digits."""
    import mpmath  # here, so that importing this module stays cheap

    with mpmath.workdps(DIGITS):
        t = mpmath.mpc(tau.real, tau.imag)
        q = mpmath.exp(1j * mpmath.pi * t)
        v = mpmath.pi * mpmath.mpc(z.real, z.imag)
        t2 = mpmath.jtheta(2, 0, q)
        t3 = mpmath.jtheta(3, 0, q)
        t1 = mpmath.jtheta(1, v, q)
        t4 = mpmath.jtheta(4, v, q)
        t1d = mpmath.jtheta(1, v, q, 1)
        t4d = mpmath.jtheta(4, v, q, 1)
        c = (mpmath.pi * t2 * t3) ** 2
        g = t4 / t1
        gd = mpmath.pi * (t4d * t1 - t4 * t1d) / t1 ** 2
        wp = c * g ** 2 - mpmath.pi ** 2 / 3 * (t2 ** 4 + t3 ** 4)
        return complex(wp), complex(2 * c * g * gd)


@lru_cache(maxsize=None)
def _e_max(tau: complex) -> float:
    """Largest |e_i|: |wp| at the three half periods."""
    halves = (0.5, tau / 2.0, (1.0 + tau) / 2.0)
    return max(abs(wp_pair(h, tau)[0]) for h in halves)


class Reference:
    """Reference values at fixed points of one lattice.

    Errors are relative to max(|value|, scale) with scale the largest
    |e_i| (|e_i|^1.5 for wp'), so points near a zero of wp or wp' are
    judged on the function's own magnitude rather than on a vanishing one.
    """

    def __init__(self, tau: complex, z):
        self.tau = complex(tau)
        self.z = np.atleast_1d(np.asarray(z, dtype=complex))
        vals = [wp_pair(complex(p), self.tau) for p in self.z]
        self.wp = np.array([v[0] for v in vals])
        self.wpp = np.array([v[1] for v in vals])
        self.scale = _e_max(self.tau)
        self.scale_p = self.scale ** 1.5

    def error(self, wp, wpp) -> float:
        """Worst conditioned relative error of (wp, wp') at the points."""
        wp = np.atleast_1d(wp)
        wpp = np.atleast_1d(wpp)
        if wp.shape != self.wp.shape or wpp.shape != self.wpp.shape:
            return math.inf
        ea = np.abs(wp - self.wp) / np.maximum(np.abs(self.wp), self.scale)
        eb = np.abs(wpp - self.wpp) / np.maximum(np.abs(self.wpp), self.scale_p)
        worst = float(max(np.max(ea), np.max(eb)))
        return worst if math.isfinite(worst) else math.inf


def digits(err: float) -> float:
    """Correct relative digits for a conditioned error."""
    if err <= 10.0 ** -MAX_DIGITS:
        return MAX_DIGITS
    return -math.log10(err) if math.isfinite(err) else -math.inf
