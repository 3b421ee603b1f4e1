"""Kernels and local polynomial weights on compact support [-1,1].

Order 0 weights are Nadaraya-Watson; higher orders solve the usual
weighted least squares normal equations with the polynomial basis
z^j / j!. A derivative variant returns the weights whose dot product
with the curve values estimates the d-th derivative at the target.
_window_lp_weights fits every curve of a dataset at a batch of (t, h)
points at once. _lp_fits takes all of a caller's points, splits each
polynomial order's points into runs of at most _BLOCK_OBS windowed
observations (_point_blocks), makes one _window_lp_weights call per run
and writes each run's estimates into the (P, N) outputs.
A fit is degenerate with fewer than k0 times in [t-h, t+h] or a moment
matrix whose smallest eigenvalue is at most SINGULAR_RTOL times its
largest.
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
        if self.kind == "uniform":
            return 0.5 * (np.abs(u) <= 1.0)
        # 1 - u^2 is negative exactly where |u| > 1; fmax also maps NaN to 0
        sq = np.fmax(1.0 - u * u, 0.0)
        if self.kind == "epanechnikov":
            return 0.75 * sq
        return 0.9375 * sq * sq


UNIFORM = Kernel("uniform")
EPANECHNIKOV = Kernel("epanechnikov")
BIWEIGHT = Kernel("biweight")


def get_kernel(kind):
    if isinstance(kind, Kernel):
        return kind
    return Kernel(str(kind))


def kernel_abs_moment(kernel, a):
    """Integral of |u|^a K(u) in closed form, elementwise for an array a.

    Uniform 1/(a+1), Epanechnikov 3/((a+1)(a+3)) and biweight
    15/8 {(a+1)^-1 - 2(a+3)^-1 + (a+5)^-1} = 15/((a+1)(a+3)(a+5)).
    """
    kernel = get_kernel(kernel)
    if np.min(a) < 0:
        raise ValidationError("moment exponent a must be nonnegative")
    if kernel.kind == "uniform":
        return 1.0 / (a + 1.0)
    if kernel.kind == "epanechnikov":
        return 3.0 / ((a + 1.0) * (a + 3.0))
    return 15.0 / ((a + 1.0) * (a + 3.0) * (a + 5.0))


# windowed observations per batched call; each costs about 80 bytes
_BLOCK_OBS = 1 << 13


def _window_bounds(dataset, t, h):
    """(lo, hi): the slices of the time-sorted layout that hold the
    windows [t-h, t+h], padded against rounding."""
    pad = 1e-9 * (np.abs(t) + h)
    return dataset.sorted_times.searchsorted((t - h - pad, t + h + pad))


def _point_blocks(dataset, t, h):
    """Slices that split the points (t, h) into runs whose windows
    [t-h, t+h] hold at most _BLOCK_OBS observations together; a point
    holding more is a run of its own. No points make one empty run, so
    that a call still returns arrays of its shapes."""
    lo, hi = _window_bounds(dataset, t, h)
    ends = np.cumsum(hi - lo)
    i = 0
    while True:
        j = max(i + 1, int(ends.searchsorted(
            (ends[i - 1] if i else 0) + _BLOCK_OBS, "right")))
        yield slice(i, j)
        if j >= ends.size:
            return
        i = j


def _window_lp_weights(dataset, t, h, order, kernel, k0, deriv=0):
    """Every curve's local polynomial fit at P points (t, h) (scalars or
    arrays that broadcast to (P,)), in one pass.

    The P window slices of the time-sorted layout are gathered into one
    index array; per-(point, curve) moments give each cell's system, all
    solved in one batch. A cell is degenerate with fewer than k0
    observations at |z| <= 1, or when its moment matrix's largest
    eigenvalue is not positive or its smallest is at most SINGULAR_RTOL
    times the largest. Sums run in slice order, so a point's results are
    those of a call at that point alone. Returns (w, cell, z, y, r, norm):
    w (length P * N) flags the non-degenerate cells; cell = point * N +
    curve, z = (T - t) / h, y and r describe each windowed observation;
    r / norm[cell] are the weights whose dot product with y estimates the
    deriv-th derivative at t, zero where w is false.
    """
    t, h = (np.ravel(x) for x in np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(h, dtype=float)))
    if (h <= 0.0).any():
        raise ValidationError("bandwidth h must be positive")
    if not 0 <= order <= MAX_ORDER:
        raise ValidationError(f"order must be in [0, {MAX_ORDER}]")
    if not 0 <= deriv <= order:
        raise ValidationError("deriv must satisfy 0 <= deriv <= order")
    if k0 < order + 1:
        raise ValidationError("k0 must be at least order + 1")
    kernel = get_kernel(kernel)
    n, cells = dataset.n_curves, t.size * dataset.n_curves

    # gather the padded slices, then keep the exact rule |z| <= 1
    lo, hi = _window_bounds(dataset, t, h)
    count = hi - lo
    idx = np.arange(count.sum()) + np.repeat(hi - np.cumsum(count), count)
    t_obs, h_obs = np.repeat([t, h], count, axis=1)
    z = (dataset.sorted_times[idx] - t_obs) / h_obs
    cell = np.repeat(np.arange(0, cells, n), count)
    keep = (z >= -1.0) & (z <= 1.0)
    if not keep.all():
        z, idx, cell = z[keep], idx[keep], cell[keep]
    cell += dataset.sorted_curve[idx]
    y = dataset.sorted_values[idx]
    K = kernel(z)

    # M[j] = sum K z^j per cell, A[j, k] = M[j + k] / (j! k!) / (n_i h)
    kz = [K]
    for _ in range(2 * order):
        kz.append(kz[-1] * z)
    moments = np.array([np.bincount(cell, v, minlength=cells) for v in kz])
    cand = np.flatnonzero(np.bincount(cell, minlength=cells) >= k0)
    A = ((moments[:, cand] / (dataset.lengths[cand % n] * h[cand // n])).T
         [:, _HANKEL[order]] / _FACTORIAL_PAIRS[order])
    if order:
        eigs = np.linalg.eigvalsh(A)
        low, high = eigs[:, 0], eigs[:, -1]
    else:
        # a 1 x 1 matrix is its own eigenvalue; the batched call would
        # cost about a tenth of an order-0 call
        low = high = A[:, 0, 0]
    good = (low > SINGULAR_RTOL * high) & (high > 0.0)
    included = cand[good]
    w = np.zeros(cells, dtype=bool)
    w[included] = True

    # Scaled to x_deriv = 1, the solution of A x = lambda e_deriv solves
    # the system without row and column deriv, with right-hand side
    # -A[rest, deriv]. With coef[k] = x_k / k! and r = K sum_k coef[k] z^k
    # the weights are r / norm, norm = lambda n_i h^(deriv+1) =
    # sum_k coef[k] M[deriv + k] h^deriv / deriv!. At order 0 the system
    # is empty (a batched solve of empty systems costs as much as a
    # small real one) and the weights are exactly K / S. coef stays zero
    # on excluded cells, so they add nothing to r or norm.
    coef = np.zeros((order + 1, cells))
    coef[deriv, included] = 1.0 / _FACTORIALS[deriv]
    if order:
        A = A[good]
        rest = np.arange(order + 1) != deriv
        x = np.linalg.solve(A[:, rest][:, :, rest],
                            -A[:, rest, deriv:deriv + 1])[:, :, 0]
        coef[np.ix_(rest, included)] = (x / _FACTORIALS[: order + 1][rest]).T
    norm = (coef * moments[deriv:deriv + order + 1]).sum(axis=0)
    if deriv:
        # Python's float power, as a call at one point takes it
        norm *= np.repeat([x ** deriv / _FACTORIALS[deriv]
                           for x in h.tolist()], n)
    g = coef[order][cell]
    for j in range(order - 1, -1, -1):
        g = g * z + coef[j][cell]
    return w, cell, z, y, K * g, norm


def _lp_fits(dataset, t, h, order, kernel, k0, deriv=0, sums=None):
    """Every curve's local polynomial estimate of the deriv-th derivative
    at P points (t, h) whose polynomial order may differ per point (t, h
    and order broadcast to (P,)). Each order o's points are split into
    _point_blocks runs, one _window_lp_weights call each, with k0 raised
    to max(k0, o + 1), so each point's results are those of a call at it
    alone. Returns (w, xhat, extra): w, the non-degenerate flags, and
    xhat, the estimates (NaN where w is false), of shape (P, N).
    sums(at, cell, z, r, cells), if given, returns more per-cell sums of
    the weights of the call on the points at (an index array); extra
    holds them as (k, P, N), each divided by the cell's norm as xhat is,
    and is None without sums.
    """
    n = dataset.n_curves
    # no points: one empty call, at the lowest order deriv allows
    levels = np.unique(order).tolist() or [deriv]
    order, t, h = (np.ravel(x) for x in np.broadcast_arrays(order, t, h))
    w, out = np.empty((t.size, n), dtype=bool), None
    for o in levels:
        at = np.flatnonzero(order == o)
        for b in _point_blocks(dataset, t[at], h[at]):
            i = at[b]
            w_i, cell, z, y, r, norm = _window_lp_weights(
                dataset, t[i], h[i], o, kernel, max(k0, o + 1), deriv)
            part = [np.bincount(cell, r * y, minlength=w_i.size)]
            if sums is not None:
                part += sums(i, cell, z, r, w_i.size)
            if out is None:
                out = np.empty((len(part), t.size, n))
            w[i] = w_i.reshape(-1, n)
            # excluded cells: 1 added to their norm 0
            out[:, i] = (np.array(part) / (norm + ~w_i)).reshape(
                len(part), -1, n)
    out[0][~w] = np.nan
    return w, out[0], out[1:] if sums is not None else None
