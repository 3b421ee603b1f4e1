"""Kernels and local polynomial weights on compact support [-1,1].

Order 0 weights are Nadaraya-Watson; higher orders solve the usual
weighted least squares normal equations with the polynomial basis
z^j / j!. A derivative variant returns the weights whose dot product
with the curve values estimates the d-th derivative at the target.
lp_coefficient_weights fits one curve; _window_lp_weights fits every
curve of a dataset at once and is what the estimators call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# each kernel on [-1, 1] as a polynomial in z^2: K(z) = sum_j c_j z^(2j)
_Z2_COEFFS = {
    "uniform": (0.5,),
    "epanechnikov": (0.75, -0.75),
    "biweight": (0.9375, -1.875, 0.9375),
}
KERNEL_KINDS = tuple(_Z2_COEFFS)

# Relative eigenvalue threshold below which the LP moment matrix is
# treated as numerically singular and the fit as degenerate.
SINGULAR_RTOL = 1e-12

MAX_ORDER = 4

_FACTORIALS = np.array(
    [math.factorial(j) for j in range(MAX_ORDER + 1)], dtype=float
)
# per order p: the index j + k and the divisor j! k! of the entries of
# the (p+1) x (p+1) local polynomial moment matrix
_HANKEL = [np.add.outer(np.arange(p + 1), np.arange(p + 1))
           for p in range(MAX_ORDER + 1)]
_FACTORIAL_PAIRS = [np.outer(_FACTORIALS[: p + 1], _FACTORIALS[: p + 1])
                    for p in range(MAX_ORDER + 1)]


@dataclass(frozen=True)
class Kernel:
    """A nonnegative kernel supported on [-1,1] integrating to one."""

    kind: str

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(
                f"unknown kernel {self.kind!r}; choose from {KERNEL_KINDS}"
            )

    @property
    def z2_coeffs(self):
        """(c_0, c_1, ...) with K(z) = sum_j c_j z^(2j) on [-1, 1]."""
        return _Z2_COEFFS[self.kind]

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
    """Integral of |u|^a K(u) over the support, in closed form.

    Uniform 1/(a+1), Epanechnikov 3/((a+1)(a+3)) and biweight
    15/8 {(a+1)^-1 - 2(a+3)^-1 + (a+5)^-1} = 15/((a+1)(a+3)(a+5)).
    """
    kernel = get_kernel(kernel)
    if a < 0:
        raise ValidationError("moment exponent a must be nonnegative")
    if kernel.kind == "uniform":
        return 1.0 / (a + 1.0)
    if kernel.kind == "epanechnikov":
        return 3.0 / ((a + 1.0) * (a + 3.0))
    return 15.0 / ((a + 1.0) * (a + 3.0) * (a + 5.0))


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


def _window_lp_weights(dataset, t, h, order, kernel, k0, deriv=0):
    """Every curve's local polynomial fit at one (t, h), in one pass.

    The observations in [t-h, t+h] are a slice of the dataset's
    time-sorted layout. Per-curve kernel moments give each curve's
    system (scaled as in lp_coefficient_weights, with the same k0 count
    and SINGULAR_RTOL test); the non-degenerate systems are solved as
    one batch. Returns (w, cid, z, y, r, norm): w flags the curves with
    a non-degenerate fit; cid, z = (T - t) / h, y and r describe each
    in-window observation; r / norm[cid] are the weights of
    lp_coefficient_weights(..., deriv=deriv). r and norm are zero on
    curves where w is false.
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
    n = dataset.n_curves

    # the padded slice holds every observation of the window; z is
    # sorted in it, so the exact rule |z| <= 1 of _window keeps a
    # contiguous run of it
    pad = 1e-9 * (abs(t) + h)
    lo, hi = dataset.sorted_times.searchsorted((t - h - pad, t + h + pad))
    z = (dataset.sorted_times[lo:hi] - t) / h
    a, b = z.searchsorted(-1.0, "left"), z.searchsorted(1.0, "right")
    z = z[a:b]
    cid = dataset.sorted_curve[lo + a:lo + b]
    y = dataset.sorted_values[lo + a:lo + b]
    K = kernel(z)

    # M[j] = sum K z^j per curve, A[j, k] = M[j + k] / (j! k!) / (n_i h)
    kz = [K]
    for _ in range(2 * order):
        kz.append(kz[-1] * z)
    moments = np.array([np.bincount(cid, v, minlength=n) for v in kz])
    cand = np.flatnonzero(np.bincount(cid, minlength=n) >= k0)
    A = ((moments[:, cand] / (dataset.lengths[cand] * h)).T[:, _HANKEL[order]]
         / _FACTORIAL_PAIRS[order])
    if order:
        eigs = np.linalg.eigvalsh(A)
        low, high = eigs[:, 0], eigs[:, -1]
    else:
        # a 1 x 1 matrix is its own eigenvalue; the batched call would
        # cost about a tenth of an order-0 call
        low = high = A[:, 0, 0]
    good = (low > SINGULAR_RTOL * high) & (high > 0.0)
    included = cand[good]
    w = np.zeros(n, dtype=bool)
    w[included] = True

    # Scaled to x_deriv = 1, the solution of A x = lambda e_deriv solves
    # the system without row and column deriv, with right-hand side
    # -A[rest, deriv]. With coef[k] = x_k / k! and r = K sum_k coef[k] z^k
    # the weights are r / norm, norm = lambda n_i h^(deriv+1) =
    # sum_k coef[k] M[deriv + k] h^deriv / deriv!. At order 0 the system
    # is empty (a batched solve of empty systems costs as much as a
    # small real one) and the weights are exactly K / S. coef stays zero
    # on excluded curves, so they add nothing to r or norm.
    coef = np.zeros((order + 1, n))
    coef[deriv, included] = 1.0 / _FACTORIALS[deriv]
    if order:
        A = A[good]
        rest = np.arange(order + 1) != deriv
        x = np.linalg.solve(A[:, rest][:, :, rest],
                            -A[:, rest, deriv:deriv + 1])[:, :, 0]
        coef[np.ix_(rest, included)] = (x / _FACTORIALS[: order + 1][rest]).T
    norm = (coef * moments[deriv:deriv + order + 1]).sum(axis=0)
    if deriv:
        norm *= h**deriv / _FACTORIALS[deriv]
    g = coef[order][cid]
    for j in range(order - 1, -1, -1):
        g = g * z + coef[j][cid]
    return w, cid, z, y, K * g, norm
