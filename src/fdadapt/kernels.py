"""Kernels and local polynomial weights on compact support [-1,1].

Order 0 weights are Nadaraya-Watson; higher orders solve the usual
weighted least squares normal equations with the polynomial basis
z^j / j!. A derivative variant returns the weights whose dot product
with the curve values estimates the d-th derivative at the target.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ValidationError

KERNEL_KINDS = ("uniform", "epanechnikov", "biweight")

# Relative eigenvalue threshold below which the LP moment matrix is
# treated as numerically singular and the fit as degenerate.
SINGULAR_RTOL = 1e-12

MAX_ORDER = 4


@dataclass(frozen=True)
class Kernel:
    """A nonnegative kernel supported on [-1,1] integrating to one."""

    kind: str

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(
                f"unknown kernel {self.kind!r}; choose from {KERNEL_KINDS}"
            )

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) <= 1.0
        if self.kind == "uniform":
            return np.where(inside, 0.5, 0.0)
        if self.kind == "epanechnikov":
            return np.where(inside, 0.75 * (1.0 - u * u), 0.0)
        # biweight
        sq = 1.0 - u * u
        return np.where(inside, 0.9375 * sq * sq, 0.0)


UNIFORM = Kernel("uniform")
EPANECHNIKOV = Kernel("epanechnikov")
BIWEIGHT = Kernel("biweight")


def get_kernel(kind):
    if isinstance(kind, Kernel):
        return kind
    return Kernel(str(kind))


def kernel_abs_moment(kernel, a):
    """Integral of |u|^a K(u) over the support.

    The biweight case has the closed form
    15/8 {(a+1)^-1 - 2(a+3)^-1 + (a+5)^-1}, which simplifies to
    15 / ((a+1)(a+3)(a+5)); other kernels are integrated numerically
    on [0,1] and doubled by symmetry.
    """
    kernel = get_kernel(kernel)
    if a < 0:
        raise ValidationError("moment exponent a must be nonnegative")
    if kernel.kind == "biweight":
        return 15.0 / ((a + 1.0) * (a + 3.0) * (a + 5.0))
    val, _ = quad(
        lambda u: u**a * float(kernel(u)), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12
    )
    return 2.0 * val


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

