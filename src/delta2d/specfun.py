"""Zeroth-order MacDonald function K0 and its small-argument logarithmic form.

K0 is scipy's `scipy.special.k0` behind a domain check.  The tests compare
it against high-accuracy quadrature of the integral representation

    K0(x) = int_0^inf exp(-x*cosh(t)) dt.
"""

import math

np = special = None  # bound by the first call that needs them, not on import

__all__ = ["EULER_GAMMA", "k0", "k0_log_form"]

# Fixed universal constant, stored as a literal (cross-checked by tests
# against the harmonic-sum limit).
EULER_GAMMA = 0.5772156649015328606


def k0(x):
    """K0(x) for x > 0; accepts a scalar or an ndarray.

    A scalar argument gives a float.  Relative error about 1e-15 against
    30-digit mpmath over [1e-8, 700] (the tests assert 1e-10 against the
    integral oracle); underflows cleanly to zero once exp(-x) leaves the
    normal range.
    """
    global np, special
    if special is None:
        import numpy as np
        from scipy import special
    arr = np.asarray(x, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("k0 requires a finite argument x > 0")
    out = special.k0(arr)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def k0_log_form(a, r):
    """-log((1/2)*e^gamma*a*r), the small-argument form of K0(a*r).

    Monotonically decreasing in r; exact up to floating-point rounding.
    """
    global np
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError("k0_log_form requires a > 0")
    if np is None:
        import numpy as np
    rr = np.asarray(r, dtype=float)
    if rr.size == 0 or not np.all(np.isfinite(rr)) or np.any(rr <= 0.0):
        raise ValueError("k0_log_form requires r > 0")
    out = -(np.log(0.5 * a * rr) + EULER_GAMMA)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out

