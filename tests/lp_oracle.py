"""The one-curve local polynomial solver, kept as a test oracle.

It fits a single curve's time vector at one target point with a
direct weighted least squares solve, written independently of the
batched kernels._window_lp_weights that the estimators run. Tests
compare the two solvers cell by cell.
"""

from dataclasses import dataclass

import numpy as np

from fdadapt.errors import ValidationError
from fdadapt.kernels import MAX_ORDER, SINGULAR_RTOL, get_kernel


@dataclass(frozen=True)
class LpWeights:
    """Weights of a local polynomial fit at one target point.

    ``indices`` are positions into the curve's time vector for which
    |T_m - t| <= h; both arrays are empty when the fit is degenerate
    (too few points in the window or a singular moment matrix).
    """

    target_t: float
    bandwidth: float
    order: int
    indices: np.ndarray
    weights: np.ndarray
    degenerate: bool
    in_window: int


def _window(times, t, h):
    z = (times - t) / h
    idx = np.nonzero(np.abs(z) <= 1.0)[0]
    return z, idx


_EMPTY_F = np.empty(0, dtype=float)
_EMPTY_I = np.empty(0, dtype=np.intp)


def _degenerate(t, h, order, n_in):
    return LpWeights(
        target_t=float(t),
        bandwidth=float(h),
        order=int(order),
        indices=_EMPTY_I,
        weights=_EMPTY_F,
        degenerate=True,
        in_window=int(n_in),
    )


def lp_coefficient_weights(times, t, h, order, kernel, k0, deriv=0):
    """Weights extracting the deriv-th fitted coefficient, scaled so that
    weights @ values estimates the deriv-th derivative of the curve at t.

    deriv=0 gives the ordinary LP value weights; order 0 is
    Nadaraya-Watson. Returns an LpWeights record.
    """
    if h <= 0.0:
        raise ValidationError("bandwidth h must be positive")
    if not 0 <= order <= MAX_ORDER:
        raise ValidationError(f"order must be in [0, {MAX_ORDER}]")
    if not 0 <= deriv <= order:
        raise ValidationError("deriv must satisfy 0 <= deriv <= order")
    if k0 < order + 1:
        raise ValidationError("k0 must be at least order + 1")
    kernel = get_kernel(kernel)

    times = np.asarray(times, dtype=float)
    n_obs = times.size
    z, idx = _window(times, t, h)
    if idx.size < k0:
        return _degenerate(t, h, order, idx.size)

    zw = z[idx]
    k = kernel(zw)

    if order == 0:
        s = k.sum()
        if s <= 0.0:
            return _degenerate(t, h, order, idx.size)
        w = k / s
    else:
        # rows of V are z^j / j! for j = 0..order
        V = np.empty((order + 1, idx.size))
        V[0] = 1.0
        for j in range(1, order + 1):
            V[j] = V[j - 1] * zw / j
        A = (V * k) @ V.T / (n_obs * h)
        eigs = np.linalg.eigvalsh(A)
        if eigs[0] <= SINGULAR_RTOL * eigs[-1] or eigs[-1] <= 0.0:
            return _degenerate(t, h, order, idx.size)
        e = np.zeros(order + 1)
        e[deriv] = 1.0
        row = np.linalg.solve(A, e)
        w = (row @ V) * k / (n_obs * h)

    if deriv > 0:
        w = w / h**deriv

    return LpWeights(
        target_t=float(t),
        bandwidth=float(h),
        order=int(order),
        indices=idx,
        weights=w,
        degenerate=False,
        in_window=int(idx.size),
    )


def lp_weights(curve, t, h, order, kernel, k0):
    """Local polynomial value weights for one curve at target t.

    Degenerate (empty) when fewer than k0 observation times fall in
    [t-h, t+h] or the moment matrix is numerically singular.
    """
    return lp_coefficient_weights(curve.times, t, h, order, kernel, k0, deriv=0)
