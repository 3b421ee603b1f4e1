"""Adaptive mean estimation with penalized-risk bandwidth selection.

The risk at a candidate bandwidth adds a squared-bias term driven by
the estimated local regularity, a noise variance term scaled by the
effective number of observations, and a penalty for curves dropped by
the inclusion rule. The bandwidth is solved at anchor points and
interpolated to the evaluation grid. The regularity estimate alpha_hat
sets the local polynomial order (_fit_order) and the exponent
2 alpha_hat of the weight moments in the bias term. The searches over a
bandwidth grid, here and in the covariance lattice, take the statistics
of the whole grid from inclusion_stats_over_grid as one record with a
leading bandwidth axis (at order 0 in one pass per anchor or lattice
coordinate) and score every grid value with the same array formulas that
score a single bandwidth. Fits at fixed bandwidths hand all their (t, h)
points, whatever their polynomial orders, to kernels._lp_fits, which
splits them into batched kernel calls of bounded memory. The mean's
evaluation points take one _points_stats record, which adds the weight
summaries its risk reads to each curve's flag and fitted value.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EstimationError, InsufficientDataError, ValidationError
from .kernels import (
    BIWEIGHT,
    EPANECHNIKOV,
    MAX_ORDER,
    _lp_fits,
    _window_bounds,
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
        hs = np.geomspace(self.h_min, self.h_max, self.count)
        hs.flags.writeable = False
        object.__setattr__(self, "_values", hs)

    def values(self):
        """The grid's bandwidths: one read-only array per grid, computed
        when the grid is made."""
        return self._values

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
    NaN where w is false. The record reports the order and the exponent
    2 alpha_hat of c_alpha it derived from the regularity estimate
    alpha_hat. In a grid record (inclusion_stats_over_grid) h, W_N, N_mu
    and C_bar1 have shape (n_h,) and the per-curve arrays (n_h, N), row
    k at h[k]; it holds only what the bandwidth searches read, so its
    xhat is None. A point record (_points_stats) has the same point
    axis, and t, order and alpha_exponent may also be per point.
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
    N_mu: float | np.ndarray
    C_bar1: float | np.ndarray
    xhat: np.ndarray | None

    @property
    def N_i(self):
        """Per-curve effective sample sizes 1 / max |weight|, 0 if excluded."""
        return self.w / (self.max_abs_w + ~self.w)


def _fit_order(alpha_hat):
    """The local polynomial order min(floor(alpha_hat), MAX_ORDER) that
    the regularity estimate alpha_hat sets, elementwise for an array."""
    return np.minimum(np.floor(alpha_hat), MAX_ORDER).astype(int)


def _points_stats(dataset, t, h, alpha_hat, kernel, k0):
    """Curve-inclusion flags and weight summaries at P points (t, h).

    t, h and the regularity estimate alpha_hat are scalars or arrays that
    broadcast to (P,). The record keeps t, h, the order
    _fit_order(alpha_hat) and the exponent 2 alpha_hat in their given
    shapes; the other fields have a leading point axis unless all three
    are scalars. Every curve's local polynomial value weights come from
    kernels._lp_fits (one batched call per distinct order o, k0 raised
    to o + 1 if lower), which also gives w and xhat; the weights'
    summaries are summed back per curve. Order 0 is Nadaraya-Watson.
    Each point's statistics are those of a call at it alone.
    """
    order, alpha = _fit_order(alpha_hat), 2.0 * alpha_hat
    arrays = np.broadcast_arrays(order, t, h, alpha)
    shape = arrays[0].shape
    orders, ts, hs, alphas = (x.ravel() for x in arrays)
    n = dataset.n_curves

    def sums(at, cell, z, r, cells):
        # a scalar alpha stays scalar, as in a call at one point
        a = alphas[at][cell // n] if np.ndim(alpha) else alpha
        ar = np.abs(r)
        maxw = np.zeros(cells)
        np.maximum.at(maxw, cell, ar)
        return [np.bincount(cell, ar, minlength=cells),
                np.bincount(cell, ar * np.abs(z) ** a, minlength=cells),
                maxw]

    w, xhat, (c1, c_alpha, maxw) = _lp_fits(dataset, ts, hs, orders, kernel,
                                            k0, sums=sums)
    return _stats(t, h, order, alpha, *(
        x.reshape(shape + (n,)) for x in (w, c1, c_alpha, maxw, xhat)))


def _stats(t, h, order, alpha, w, c1, c_alpha, maxw, xhat):
    """The record at one (t, h) (per-curve arrays of shape (N,)) or at P
    points or grid bandwidths (per-curve arrays (P, N)); xhat may be
    None."""
    W_N = np.count_nonzero(w, axis=-1)
    # stacked dot products; each row equals its own c1 @ maxw bit for bit
    N_mu, C_bar1 = _effective_size(
        W_N, *((c1[..., None, :] @ x[..., :, None])[..., 0, 0]
               for x in (maxw, c_alpha)))
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
        N_mu=N_mu,
        C_bar1=C_bar1,
        xhat=xhat,
    )


def _effective_size(W, denom, cross):
    """The effective size W^2 / denom and C_bar1 = cross / max(W, 1) of W
    included curves, from the sums over them of c1 max|w| (denom) and of
    c1 c_alpha (cross); both are zero where no curve is included."""
    n_eff = np.divide(W * W, denom, out=np.zeros(denom.shape),
                      where=denom > 0.0)
    return n_eff[()], (cross / np.maximum(W, 1))[()]


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


def inclusion_stats_over_grid(dataset, t, hs, alpha_hat, kernel, k0):
    """_points_stats(dataset, t, h, ...) for every h of an increasing
    bandwidth grid hs, as one InclusionStats whose fields have a leading
    bandwidth axis: row k holds the statistics at hs[k]. The record
    carries what the bandwidth searches read and no xhat (None). k0 must
    be at least 1; below order + 1 it is raised as in _points_stats.

    At order >= 1 the points (t, hs[k]) go through one _points_stats
    call. At order 0 the whole grid comes from one window slice at
    hs[-1]. With u = T - t and K(z) = sum_j c_j z^(2j), each per-curve
    sum is a combination over j of cumulative per-curve sums of |u|^(2j)
    and |u|^(2j+alpha), alpha = 2 alpha_hat, taken over the observations
    whose |u| / h is at most _core_bound(kernel); one stacked matrix
    product forms those combinations at every bandwidth. For the
    observations nearer the window edge (none for the uniform kernel), K
    is evaluated directly at each bandwidth that holds them. Window
    membership, the k0 counts and so w and W_N are exact; the other
    summaries match _points_stats to rounding.
    """
    hs = np.asarray(hs, dtype=float)
    if (hs.ndim != 1 or not hs.size or hs[0] <= 0.0
            or (np.diff(hs) <= 0.0).any()):
        raise ValidationError("bandwidth grid must be positive and increasing")
    kernel = get_kernel(kernel)
    if k0 < 1:
        raise ValidationError("k0 must be at least 1")
    if _fit_order(alpha_hat):
        return replace(_points_stats(dataset, t, hs, alpha_hat, kernel, k0),
                       xhat=None)
    n, n_h, alpha = dataset.n_curves, hs.size, 2.0 * alpha_hat

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

    # B[k]: per curve, the number of observations with entry k and, per j,
    # the sums of |u|^(2j) and |u|^(2j+alpha) over those with core k. The
    # observations past the widest bandwidth (entry or core n_h) fall in
    # row n_h, which is sliced off. Adding up its rows, as cumsum does,
    # makes B[k] those at hs[k].
    q = len(kernel.z2_coeffs)
    size = (n_h + 1) * n
    B = np.empty((n_h + 1, 1 + 2 * q, n))
    B[:, 0] = np.bincount(entry * n + cid, minlength=size).reshape(-1, n)
    cells = core * n + cid
    da, ha = d ** alpha, hs ** alpha
    dj = np.ones(d.size)  # |u|^(2j)
    for j in range(q):
        B[:, 1 + 2 * j] = np.bincount(cells, dj, size).reshape(-1, n)
        B[:, 2 + 2 * j] = np.bincount(cells, dj * da, size).reshape(-1, n)
        dj = dj * d * d
    B = B[:n_h]
    for k in range(1, n_h):
        B[k] += B[k - 1]
    w = B[:, 0] >= k0
    # S, A = SA[:, 0], SA[:, 1]: per-curve sums of K and K |z|^alpha; core
    # part: F[k] @ B[k] adds the sums times c_j / h^(2j) and
    # c_j / h^(2j+alpha) at hs[k] (F is zero at the count row)
    F = np.zeros((n_h, 2, 1 + 2 * q))
    hj = np.ones(n_h)  # h^(2j)
    for j, c in enumerate(kernel.z2_coeffs):
        F[:, 0, 1 + 2 * j] = c / hj
        F[:, 1, 2 + 2 * j] = c / (hj * ha)
        hj = hj * hs * hs
    SA = F @ B
    del B
    # edge part: K itself at each (observation, bandwidth) pair with
    # _core_bound(kernel) < |z| <= 1, one bandwidth further into each run
    # per pass
    edge = np.flatnonzero(core > entry)
    k = entry[edge]
    while edge.size:
        K = kernel(d[edge] / hs[k])
        cells = k * (2 * n) + cid[edge]
        SA += np.bincount(np.concatenate((cells, cells + n)),
                          np.concatenate((K, K * da[edge] / ha[k])),
                          n_h * 2 * n).reshape(n_h, 2, n)
        k += 1
        more = k < core[edge]
        edge, k = edge[more], k[more]

    # the largest weight sits at each curve's nearest observation
    near = np.full(n, np.inf)
    np.minimum.at(near, cid, d)
    S, A = SA[:, 0], SA[:, 1]
    w &= S > 0.0
    denom = S + ~w  # excluded cells: 1 added, their numerators are zero
    c_alpha = A * w / denom
    maxw = kernel(near / hs[:, None]) * w / denom
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


def _floor_factorial(alpha):
    """floor(alpha)!, elementwise and as floats for an array alpha."""
    return np.vectorize(math.factorial, otypes=[float])(
        np.floor(alpha).astype(int))


def _nearest_regularity(regs, x):
    """alpha_hat and L2_hat of the anchor nearest each point x, as
    arrays; of two anchors equally near, the earlier one in regs (sorted
    by anchor)."""
    anchor, alpha, L2 = np.array(
        [[r.anchor_t2, r.alpha_hat, r.L2_hat] for r in regs]).T
    near = np.abs(np.asarray(x)[:, None] - anchor).argmin(axis=1)
    return alpha[near], L2[near]


def mean_risk_terms(h, W, n_eff, c_bar1, alpha, L2, sigma2, var_X, N):
    """The three risk terms (bias, variance, dropout) of W included curves
    of effective size n_eff at bandwidth h, over the shape the arguments
    broadcast to; infinite where W is 0. alpha and L2 are the regularity,
    sigma2 the noise variance, var_X the variance of the dropout term."""
    fact = _floor_factorial(alpha)
    bias = c_bar1 * L2 / (fact * fact) * h ** (2.0 * alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = sigma2 / n_eff
        dropout = var_X * (1.0 / W - 1.0 / N)
    return tuple(np.where(W == 0, INFINITE_RISK, x)[()]
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


def select_mean_bandwidth(dataset, reg, noise, var_X_t, kernel, k0,
                          bandwidths=None, use_moment_approx=False):
    """Minimize the penalized risk over a log bandwidth grid at the
    anchor reg.anchor_t2 of the regularity estimate reg.

    Ties break toward the smaller bandwidth. Raises when every grid
    bandwidth leaves all curves excluded.
    """
    kernel = get_kernel(kernel)
    if bandwidths is None:
        bandwidths = BandwidthGrid.default_mean(dataset.m_hat)
    hs, t = bandwidths.values(), reg.anchor_t2
    grid = inclusion_stats_over_grid(dataset, t, hs, reg.alpha_hat, kernel,
                                     k0)
    cb = (kernel_abs_moment(kernel, grid.alpha_exponent)
          if use_moment_approx else None)
    tb, tv, td = mean_risk_terms(
        hs, grid.W_N, grid.N_mu, grid.C_bar1 if cb is None else cb,
        reg.alpha_hat, reg.L2_hat, noise.sigma2_max, var_X_t, dataset.n_curves)
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
        q1_sq=float(tb[idx] / h_star ** grid.alpha_exponent),
        q2_sq=float(noise.sigma2_max),
        q3_sq=float(var_X_t),
        order=grid.order,
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
                  k0=2, schedule=None, bandwidths=None,
                  use_moment_approx=False, presmooth_kernel=EPANECHNIKOV):
    """Adaptive mean on a grid.

    Bandwidths are solved at the regularity anchors and linearly
    interpolated to the grid; the regularity driving the polynomial
    order and the risk at each grid point comes from the nearest
    anchor. Grid points where every curve is excluded get NaN.
    """
    if not reg_per_anchor:
        raise ValidationError("need at least one anchor regularity estimate")
    if k0 < 1:
        raise ValidationError("k0 must be at least 1")
    kernel = get_kernel(kernel)
    if schedule is None:
        schedule = RegularitySchedule(m_hat=dataset.m_hat)
    if bandwidths is None:  # one grid, and one geomspace, for every anchor
        bandwidths = BandwidthGrid.default_mean(dataset.m_hat)
    regs = sorted(reg_per_anchor, key=lambda r: r.anchor_t2)
    anchor_ts = np.array([r.anchor_t2 for r in regs])
    pts = np.asarray(grid, dtype=float)
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
                dataset, reg, noise, anchor_var[j], kernel, k0,
                bandwidths=bandwidths, use_moment_approx=use_moment_approx,
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

    alpha, L2 = _nearest_regularity(regs, pts)
    stats = _points_stats(dataset, pts, h_on_grid, alpha, kernel, k0)
    cb = (kernel_abs_moment(kernel, stats.alpha_exponent)
          if use_moment_approx else None)
    with np.errstate(invalid="ignore"):
        values = np.where(stats.w, stats.xhat, 0.0).sum(axis=-1) / stats.W_N
    risk = np.array(mean_risk_terms(
        h_on_grid, stats.W_N, stats.N_mu, stats.C_bar1 if cb is None else cb,
        alpha, L2, noise.sigma2_max, var_grid, N))
    risk[:, stats.W_N == 0] = np.nan

    return MeanEstimate(
        points=pts,
        values=values,
        h_star=h_on_grid,
        W_N=stats.W_N,
        risk_bias=risk[0],
        risk_var=risk[1],
        risk_dropout=risk[2],
        anchor_t=anchor_ts,
        anchor_h=anchor_h,
        anchor_alpha=np.array([r.alpha_hat for r in regs]),
    )
