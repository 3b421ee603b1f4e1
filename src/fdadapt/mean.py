"""Adaptive mean estimation with penalized-risk bandwidth selection.

The risk at a candidate bandwidth adds a squared-bias term driven by
the estimated local regularity, a noise variance term scaled by the
effective number of observations, and a penalty for curves dropped by
the inclusion rule. The bandwidth is solved at anchor points and
interpolated to the evaluation grid. The searches over a bandwidth grid,
here and in the covariance lattice, take the statistics of the whole
grid from inclusion_stats_over_grid as one record with a leading
bandwidth axis (at order 0 in one pass per anchor or lattice coordinate)
and score every grid value with the same array formulas that score a
single bandwidth. Fits at fixed bandwidths take their (t, h) points in
blocks, one _points_stats record per block; a block's points may sit at
different polynomial orders, one batched kernel call per order.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import EstimationError, InsufficientDataError, ValidationError
from .kernels import (
    BIWEIGHT,
    EPANECHNIKOV,
    MAX_ORDER,
    _point_blocks,
    _window_bounds,
    _window_lp_weights,
    get_kernel,
    kernel_abs_moment,
)
from .regularity import RegularitySchedule, presmooth_matrix

INFINITE_RISK = math.inf


@dataclass(frozen=True)
class BandwidthGrid:
    """Logarithmic bandwidth grid."""

    h_min: float
    h_max: float
    count: int = 151

    def __post_init__(self):
        if not 0.0 < self.h_min < self.h_max < 1.0:
            raise ValidationError("need 0 < h_min < h_max < 1")
        if self.count < 2:
            raise ValidationError("bandwidth grid needs at least 2 points")

    def values(self):
        return np.geomspace(self.h_min, self.h_max, self.count)

    @staticmethod
    def default_mean(m_hat):
        return BandwidthGrid(h_min=1.0 / m_hat, h_max=0.5, count=151)

    @staticmethod
    def default_cov():
        return BandwidthGrid(h_min=0.01, h_max=0.1, count=41)


@dataclass(frozen=True)
class InclusionStats:
    """Per-curve weight summaries at one (t, h), at every h of a grid, or
    at P points (t, h).

    w flags curves with a non-degenerate fit (enough points in the
    window and a solvable system); the c and N arrays are zero and xhat
    NaN where w is false. alpha_exponent is the exponent used for
    c_alpha (callers pass twice the regularity estimate). In a grid
    record (inclusion_stats_over_grid) h, W_N, N_mu and C_bar1 have
    shape (n_h,) and the per-curve arrays (n_h, N), row k at h[k]; it
    holds only what the bandwidth searches read, so its xhat is None. A
    point record (_points_stats) has the same point axis, and t, order
    and alpha_exponent may also be given per point.
    """

    t: float | np.ndarray
    h: float | np.ndarray
    order: int | np.ndarray
    alpha_exponent: float | np.ndarray
    w: np.ndarray
    W_N: int | np.ndarray
    c1: np.ndarray
    c_alpha: np.ndarray
    max_abs_w: np.ndarray
    N_i: np.ndarray
    N_mu: float | np.ndarray
    C_bar1: float | np.ndarray
    xhat: np.ndarray | None


def _points_stats(dataset, t, h, order, kernel, k0, alpha):
    """Curve-inclusion flags and weight summaries at P points (t, h).

    t, h, order and alpha are scalars or arrays that broadcast to (P,)
    and are kept as given; the other fields have a leading point axis
    unless all four are scalars. Every curve's local polynomial value
    weights come from one pass over the observations in [t-h, t+h]
    (kernels._window_lp_weights), one batched call per distinct order o
    with k0 raised to max(k0, o + 1), and are summed back per curve.
    Order 0 is Nadaraya-Watson. Each point's statistics are those of a
    call at it alone.
    """
    arrays = np.broadcast_arrays(order, t, h, alpha)
    shape = arrays[0].shape
    orders, ts, hs, alphas = (x.ravel() for x in arrays)
    n = dataset.n_curves
    levels = np.unique(orders).tolist() if np.ndim(order) else [int(order)]
    w = np.empty((orders.size, n), dtype=bool)
    sums = np.empty((4, orders.size, n))  # c1, c_alpha, max_abs_w, xhat
    for o in levels:
        # one order takes the whole arrays, without an index or copies
        at = slice(None) if len(levels) == 1 else np.flatnonzero(orders == o)
        w_o, cell, z, y, r, sum_r = _window_lp_weights(
            dataset, ts[at], hs[at], o, kernel, max(k0, o + 1))
        cells = w_o.size
        # a scalar alpha stays scalar, as in a call at one point
        a = alphas[at][cell // n] if np.ndim(alpha) else alpha
        ar = np.abs(r)
        maxw = np.zeros(cells)
        np.maximum.at(maxw, cell, ar)
        part = np.array([
            np.bincount(cell, ar, minlength=cells),
            np.bincount(cell, ar * np.abs(z) ** a, minlength=cells),
            maxw,
            np.bincount(cell, r * y, minlength=cells),
        ])
        part /= sum_r + ~w_o  # excluded cells: 1 added to a zero sum
        if len(levels) == 1:  # one order: its arrays are the record's
            w, sums = w_o.reshape(-1, n), part.reshape(4, -1, n)
        else:
            w[at], sums[:, at] = w_o.reshape(-1, n), part.reshape(4, -1, n)
    sums[3][~w] = np.nan
    return _stats(t, h, order, alpha, *(
        x.reshape(shape + (n,)) for x in (w, *sums)))


def _stats(t, h, order, alpha, w, c1, c_alpha, maxw, xhat):
    """The record at one (t, h) (per-curve arrays of shape (N,)) or at P
    points or grid bandwidths (per-curve arrays (P, N)); xhat may be
    None."""
    W_N = np.count_nonzero(w, axis=-1)
    # stacked dot products; each row equals its own c1 @ maxw bit for bit
    denom = (c1[..., None, :] @ maxw[..., :, None])[..., 0, 0]
    cross = (c1[..., None, :] @ c_alpha[..., :, None])[..., 0, 0]
    # both are zero where no curve is included
    N_mu = np.divide(W_N * W_N, denom, out=np.zeros(denom.shape),
                     where=denom > 0.0)
    C_bar1 = cross / np.maximum(W_N, 1)
    return InclusionStats(
        t=t if np.ndim(t) else float(t),
        h=h,
        order=order if np.ndim(order) else int(order),
        alpha_exponent=alpha if np.ndim(alpha) else float(alpha),
        w=w,
        W_N=W_N,
        c1=c1,
        c_alpha=c_alpha,
        max_abs_w=maxw,
        N_i=w / (maxw + ~w),
        N_mu=N_mu[()],
        C_bar1=C_bar1[()],
        xhat=xhat,
    )


# Each kernel is K(z) = c_0 (1 - z^2)^p, and its expanded polynomial in
# z^2 loses a factor ((1 + z^2) / (1 - z^2))^p to cancellation. The
# order-0 sweep reads K from cumulative sums only where that factor is at
# most _CANCELLATION (relative error about 512 eps = 1.1e-13).
_CANCELLATION = 512.0


def _core_bound(kernel):
    """The largest |z| at which kernel's polynomial form loses at most a
    factor _CANCELLATION: 1 for the uniform kernel, whose form is exact."""
    p = len(kernel.z2_coeffs) - 1
    if p == 0:
        return 1.0
    r = _CANCELLATION ** (1.0 / p)
    return math.sqrt((r - 1.0) / (r + 1.0))


def inclusion_stats_over_grid(dataset, t, hs, order, kernel, k0, alpha):
    """_points_stats(dataset, t, h, ...) for every h of an increasing
    bandwidth grid hs, as one InclusionStats whose fields have a leading
    bandwidth axis: row k holds the statistics at hs[k]. The record
    carries what the bandwidth searches read and no xhat (None).

    At order >= 1 the points (t, hs[k]) go through _points_stats in
    blocks. At order 0 the whole grid comes from one window slice at
    hs[-1]. With u = T - t and K(z) = sum_j c_j z^(2j), each per-curve
    sum is a combination over j of cumulative per-curve sums of |u|^(2j)
    and |u|^(2j+alpha), taken over the observations whose |u| / h is at
    most _core_bound(kernel). For the observations nearer the window edge
    (none for the uniform kernel), K is evaluated directly at each
    bandwidth that holds them. Window membership, the k0 counts and so w
    and W_N are exact; the other summaries match _points_stats to
    rounding.
    """
    hs = np.asarray(hs, dtype=float)
    if (hs.ndim != 1 or not hs.size or hs[0] <= 0.0
            or (np.diff(hs) <= 0.0).any()):
        raise ValidationError("bandwidth grid must be positive and increasing")
    kernel = get_kernel(kernel)
    if k0 < order + 1:
        raise ValidationError("k0 must be at least order + 1")
    if order != 0:
        blocks = [_points_stats(dataset, t, hs[b], order, kernel, k0, alpha)
                  for b in _point_blocks(dataset, hs, t)]
        return _stats(t, hs, order, alpha, *(
            np.concatenate([getattr(s, name) for s in blocks])
            for name in ("w", "c1", "c_alpha", "max_abs_w")), None)
    n, n_h = dataset.n_curves, hs.size

    # the slice of kernels._window_lp_weights at the widest bandwidth
    lo, hi = _window_bounds(dataset, t, hs[-1])
    T = dataset.sorted_times[lo:hi]
    d = np.abs(T - t)
    cid = dataset.sorted_curve[lo:hi]

    # entry: the first bandwidth holding each observation by the rule
    # |u / h| <= 1 of kernels._window_lp_weights (n_h when none does).
    # For positive floats the rounded d / h is at most 1 exactly when
    # d <= h, so a search on d itself applies that rule. core: the first
    # bandwidth with d <= _core_bound(kernel) h.
    split = T.searchsorted(t)
    entry = _v_searchsorted(hs, d, split)
    core = _v_searchsorted(_core_bound(kernel) * hs, d, split)

    # per-curve in-window counts at every bandwidth, exact integers
    into = entry < n_h
    counts = np.bincount(entry[into] * n + cid[into], minlength=n_h * n)
    counts = counts.reshape(n_h, n).cumsum(axis=0)

    # S, A: per-curve sums of K and K |z|^alpha at every bandwidth. Core
    # part: per j, the cumulative sums of |u|^(2j) and |u|^(2j+alpha),
    # scaled by c_j / h^(2j) and c_j / h^(2j+alpha)
    S, A = np.zeros((2, n_h, n))
    inner = core < n_h
    cells, di = core[inner] * n + cid[inner], d[inner]
    da, ha = d ** alpha, hs ** alpha
    dai = da[inner]
    dj, hj = np.ones(di.size), np.ones(n_h)  # |u|^(2j), h^(2j)
    for c in kernel.z2_coeffs:
        for total, v, hv in ((S, dj, hj), (A, dj * dai, hj * ha)):
            part = _bins(cells, v, n_h, n).cumsum(axis=0)
            part *= (c / hv)[:, None]
            total += part
        dj, hj = dj * di * di, hj * hs * hs
    # edge part: K itself at each (observation, bandwidth) pair with
    # _core_bound(kernel) < |z| <= 1, one bandwidth further into each run
    # per pass
    edge = np.flatnonzero(core > entry)
    k = entry[edge]
    while edge.size:
        K = kernel(d[edge] / hs[k])
        cells = k * n + cid[edge]
        S += _bins(cells, K, n_h, n)
        A += _bins(cells, K * da[edge] / ha[k], n_h, n)
        k += 1
        more = k < core[edge]
        edge, k = edge[more], k[more]

    # the largest weight sits at each curve's nearest observation
    near = np.full(n, np.inf)
    np.minimum.at(near, cid, d)
    w = (counts >= k0) & (S > 0.0)
    denom = np.where(w, S, 1.0)
    c_alpha = np.where(w, A, 0.0) / denom
    maxw = np.where(w, kernel(near / hs[:, None]), 0.0) / denom
    return _stats(t, hs, 0, alpha, w, w.astype(float), c_alpha, maxw, None)


def _v_searchsorted(grid, d, split):
    """grid.searchsorted(d) for a d that is non-increasing before split
    and non-decreasing from split on, as the distances |T - t| of a
    time-sorted slice T with split = T.searchsorted(t) are. Each sorted
    run is searched once for the grid values; the counts between
    consecutive grid values then give every observation's index in one
    np.repeat."""
    n = grid.size
    pos = np.empty((2, n + 2), dtype=np.intp)
    pos[:, 0] = 0
    pos[0, 1:-1] = d[:split][::-1].searchsorted(grid, "right")
    pos[1, 1:-1] = d[split:].searchsorted(grid, "right")
    pos[:, -1] = split, d.size - split
    counts = np.diff(pos)
    slots = np.arange(n + 1)
    # the run before split, read backwards, takes the slots in falling order
    return np.repeat(np.concatenate((slots[::-1], slots)),
                     np.concatenate((counts[0, ::-1], counts[1])))


def _bins(cells, weights, n_h, n):
    """weights summed into the cells k * n + i of a float (n_h, n) array
    (np.bincount returns int zeros when there are no cells)."""
    out = np.bincount(cells, weights, minlength=n_h * n).reshape(n_h, n)
    return out.astype(float, copy=False)


def mean_risk_terms(stats, reg, noise, var_X_t, N, c_bar1=None):
    """The three risk terms (bias, variance, dropout) at stats' (t, h),
    as arrays on a grid or point record (reg's alpha_hat and L2_hat and
    var_X_t then per point); infinite where no curve is included."""
    fact = np.vectorize(math.factorial, otypes=[float])(
        np.floor(reg.alpha_hat).astype(int))
    cb = stats.C_bar1 if c_bar1 is None else c_bar1
    q1_sq = cb * reg.L2_hat / (fact * fact)
    bias = q1_sq * stats.h ** (2.0 * reg.alpha_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = noise.sigma2_max / stats.N_mu
        dropout = var_X_t * (1.0 / stats.W_N - 1.0 / N)
    return tuple(np.where(stats.W_N == 0, INFINITE_RISK, x)[()]
                 for x in (bias, var, dropout))


@dataclass(frozen=True)
class RiskProfile:
    """Risk decomposition over a bandwidth grid and the selected h."""

    t: float
    bandwidths: np.ndarray
    term_bias: np.ndarray
    term_var: np.ndarray
    term_dropout: np.ndarray
    total: np.ndarray
    W_N: np.ndarray
    N_mu: np.ndarray
    h_star: float
    h_star_index: int
    q1_sq: float
    q2_sq: float
    q3_sq: float
    order: int
    k0: int


def select_mean_bandwidth(dataset, t, reg, noise, var_X_t, kernel, k0,
                          grid_spec=None, use_moment_approx=False):
    """Minimize the penalized risk over a log bandwidth grid.

    Ties break toward the smaller bandwidth. Raises when every grid
    bandwidth leaves all curves excluded.
    """
    kernel = get_kernel(kernel)
    if grid_spec is None:
        grid_spec = BandwidthGrid.default_mean(dataset.m_hat)
    hs = grid_spec.values()
    order = min(int(math.floor(reg.alpha_hat)), MAX_ORDER)
    alpha_exp = 2.0 * reg.alpha_hat
    k0 = max(k0, order + 1)
    cb = kernel_abs_moment(kernel, alpha_exp) if use_moment_approx else None

    grid = inclusion_stats_over_grid(dataset, t, hs, order, kernel, k0,
                                     alpha_exp)
    tb, tv, td = mean_risk_terms(grid, reg, noise, var_X_t, dataset.n_curves,
                                 c_bar1=cb)
    total = tb + tv + td
    if not np.any(np.isfinite(total)):
        raise InsufficientDataError(
            f"no admissible bandwidth at t={t}: every grid value leaves "
            "all curves excluded"
        )
    idx = int(np.argmin(total))
    h_star = float(hs[idx])
    return RiskProfile(
        t=float(t),
        bandwidths=hs,
        term_bias=tb,
        term_var=tv,
        term_dropout=td,
        total=total,
        W_N=grid.W_N,
        N_mu=grid.N_mu,
        h_star=h_star,
        h_star_index=idx,
        q1_sq=float(tb[idx] / h_star ** alpha_exp),
        q2_sq=float(noise.sigma2_max),
        q3_sq=float(var_X_t),
        order=order,
        k0=k0,
    )


def plugin_variance(values):
    """Empirical variance of the finite entries; zero when fewer than 2."""
    v = values[np.isfinite(values)]
    if v.size < 2:
        return 0.0
    return float(np.var(v, ddof=1))


@dataclass(frozen=True)
class MeanEstimate:
    """Adaptive mean values on a grid with per-point diagnostics."""

    points: np.ndarray
    values: np.ndarray
    h_star: np.ndarray
    W_N: np.ndarray
    risk_bias: np.ndarray
    risk_var: np.ndarray
    risk_dropout: np.ndarray
    anchor_t: np.ndarray
    anchor_h: np.ndarray
    anchor_alpha: np.ndarray


def estimate_mean(dataset, grid, reg_per_anchor, noise, kernel=BIWEIGHT,
                  k0=2, schedule=None, grid_spec=None,
                  use_moment_approx=False, presmooth_kernel=EPANECHNIKOV):
    """Adaptive mean on a grid.

    Bandwidths are solved at the regularity anchors and linearly
    interpolated to the grid; the regularity driving the polynomial
    order and the risk at each grid point comes from the nearest
    anchor. Grid points where every curve is excluded get NaN.
    """
    if not reg_per_anchor:
        raise ValidationError("need at least one anchor regularity estimate")
    kernel = get_kernel(kernel)
    if schedule is None:
        schedule = RegularitySchedule(m_hat=dataset.m_hat)
    regs = sorted(reg_per_anchor, key=lambda r: r.anchor_t2)
    anchor_ts = np.array([r.anchor_t2 for r in regs])
    pts = np.asarray(getattr(grid, "points", grid), dtype=float)
    N = dataset.n_curves

    # one presmoothing pass feeds every variance plug-in
    P = presmooth_matrix(dataset, np.concatenate([anchor_ts, pts]),
                         schedule.presmooth_bandwidth, presmooth_kernel)
    var_X = np.array([plugin_variance(col) for col in P.T])
    anchor_var, var_grid = np.split(var_X, [anchor_ts.size])

    anchor_h = np.full(anchor_ts.size, np.nan)
    for j, reg in enumerate(regs):
        try:
            prof = select_mean_bandwidth(
                dataset, anchor_ts[j], reg, noise, anchor_var[j], kernel,
                k0, grid_spec=grid_spec, use_moment_approx=use_moment_approx,
            )
        except InsufficientDataError:
            continue
        anchor_h[j] = prof.h_star
    ok = np.isfinite(anchor_h)
    if not ok.any():
        raise EstimationError(
            "bandwidth selection failed at every anchor point"
        )
    h_on_grid = np.interp(pts, anchor_ts[ok], anchor_h[ok])

    # each point takes the regularity of its nearest anchor
    near = np.abs(pts[:, None] - anchor_ts).argmin(axis=1)
    alpha, L2 = np.array([[r.alpha_hat, r.L2_hat] for r in regs])[near].T
    orders = np.minimum(np.floor(alpha), MAX_ORDER).astype(int)
    cb = kernel_abs_moment(kernel, 2.0 * alpha) if use_moment_approx else None
    values = np.full(pts.size, np.nan)
    W_out = np.zeros(pts.size, dtype=int)
    risk = np.full((3, pts.size), np.nan)
    for i in _point_blocks(dataset, h_on_grid, pts):
        stats = _points_stats(dataset, pts[i], h_on_grid[i], orders[i],
                              kernel, k0, 2.0 * alpha[i])
        W_out[i] = stats.W_N
        with np.errstate(invalid="ignore"):
            values[i] = (np.where(stats.w, stats.xhat, 0.0).sum(axis=-1)
                         / stats.W_N)
        risk[:, i] = mean_risk_terms(
            stats, SimpleNamespace(alpha_hat=alpha[i], L2_hat=L2[i]),
            noise, var_grid[i], N, c_bar1=None if cb is None else cb[i])
    risk[:, W_out == 0] = np.nan

    return MeanEstimate(
        points=pts,
        values=values,
        h_star=h_on_grid,
        W_N=W_out,
        risk_bias=risk[0],
        risk_var=risk[1],
        risk_dropout=risk[2],
        anchor_t=anchor_ts,
        anchor_h=anchor_h,
        anchor_alpha=np.array([r.alpha_hat for r in regs]),
    )
