"""Adaptive mean estimation with penalized-risk bandwidth selection.

The risk at a candidate bandwidth adds a squared-bias term driven by
the estimated local regularity, a noise variance term scaled by the
effective number of observations, and a penalty for curves dropped by
the inclusion rule. The bandwidth is solved at anchor points and
interpolated to the evaluation grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InsufficientDataError, ValidationError
from .kernels import (
    BIWEIGHT,
    EPANECHNIKOV,
    MAX_ORDER,
    SINGULAR_RTOL,
    get_kernel,
    kernel_abs_moment,
)
from .regularity import RegularitySchedule, presmooth_matrix

INFINITE_RISK = math.inf

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
    """Per-curve weight summaries at one (t, h).

    w flags curves with a non-degenerate fit (enough points in the
    window and a solvable system); the c and N arrays are zero and xhat
    NaN where w is false. alpha_exponent is the exponent used for
    c_alpha (callers pass twice the regularity estimate).
    """

    t: float
    h: float
    order: int
    alpha_exponent: float
    w: np.ndarray
    W_N: int
    c1: np.ndarray
    c_alpha: np.ndarray
    max_abs_w: np.ndarray
    N_i: np.ndarray
    N_mu: float
    C_bar1: float
    xhat: np.ndarray


def inclusion_stats(dataset, t, h, order, kernel, k0, alpha):
    """Curve-inclusion flags and weight summaries at one (t, h).

    One pass over the observations in [t-h, t+h], a slice of the
    dataset's time-sorted layout, serves every polynomial order:
    per-curve kernel moments give each curve's local polynomial system
    (scaled as in lp_coefficient_weights), the non-degenerate systems
    are solved as one batch and the weights are summed back per curve.
    Order 0 is Nadaraya-Watson.
    """
    if h <= 0.0:
        raise ValidationError("bandwidth h must be positive")
    if not 0 <= order <= MAX_ORDER:
        raise ValidationError(f"order must be in [0, {MAX_ORDER}]")
    if k0 < order + 1:
        raise ValidationError("k0 must be at least order + 1")
    kernel = get_kernel(kernel)
    n = dataset.n_curves

    # the padded slice holds every observation of the window; z is
    # sorted in it, so the exact rule |z| <= 1 of lp_coefficient_weights
    # keeps a contiguous run of it
    pad = 1e-9 * (abs(t) + h)
    lo, hi = dataset.sorted_times.searchsorted((t - h - pad, t + h + pad))
    z = (dataset.sorted_times[lo:hi] - t) / h
    a, b = z.searchsorted(-1.0, "left"), z.searchsorted(1.0, "right")
    z = z[a:b]
    cid = dataset.sorted_curve[lo + a:lo + b]
    y = dataset.sorted_values[lo + a:lo + b]
    K = kernel(z)

    # A[j, k] = sum K z^(j+k) / (j! k!) / (n_i h), j, k <= order
    kz = [K]
    for _ in range(2 * order):
        kz.append(kz[-1] * z)
    moments = np.array([np.bincount(cid, v, minlength=n) for v in kz])
    cand = np.flatnonzero(np.bincount(cid, minlength=n) >= k0)
    A = ((moments[:, cand] / (dataset.lengths[cand] * h)).T[:, _HANKEL[order]]
         / _FACTORIAL_PAIRS[order])
    eigs = np.linalg.eigvalsh(A)
    good = (eigs[:, 0] > SINGULAR_RTOL * eigs[:, -1]) & (eigs[:, -1] > 0.0)
    included = cand[good]
    w = np.zeros(n, dtype=bool)
    w[included] = True

    # The value weights are r / sum r with r = K g(z), g(z) = sum_j
    # coef[j] z^j, coef[j] = x_j / j!, x_0 = 1 and A[1:, 1:] x[1:] =
    # -A[1:, 0], so that A x is a multiple of e_0: the weights of
    # lp_coefficient_weights. At order 0 the system is empty (a batched
    # solve of empty systems costs as much as a small real one), g = 1
    # and the weights are exactly K / S, whose absolute sum is exactly
    # one. coef stays zero on excluded curves, so they add nothing below.
    coef = np.zeros((order + 1, n))
    coef[0, included] = 1.0
    if order:
        A = A[good]
        x = np.linalg.solve(A[:, 1:, 1:], -A[:, 1:, :1])[:, :, 0]
        coef[1:, included] = (x / _FACTORIALS[1 : order + 1]).T
    sum_r = (coef * moments[: order + 1]).sum(axis=0)
    g = coef[order][cid]
    for j in range(order - 1, -1, -1):
        g = g * z + coef[j][cid]
    r = K * g
    ar = np.abs(r)
    maxw = np.zeros(n)
    np.maximum.at(maxw, cid, ar)
    sums = np.array([
        np.bincount(cid, ar, minlength=n),
        np.bincount(cid, ar * np.abs(z) ** alpha, minlength=n),
        maxw,
        np.bincount(cid, r * y, minlength=n),
    ])
    excluded = ~w  # adds 1 to their zero denominators
    c1, c_alpha, maxw, xhat = sums / (sum_r + excluded)
    xhat[excluded] = np.nan
    W_N = int(included.size)
    N_mu = C_bar1 = 0.0
    if W_N:
        denom = float(c1 @ maxw)
        N_mu = W_N * W_N / denom if denom > 0.0 else 0.0
        C_bar1 = float(c1 @ c_alpha) / W_N
    return InclusionStats(
        t=float(t),
        h=float(h),
        order=int(order),
        alpha_exponent=float(alpha),
        w=w,
        W_N=W_N,
        c1=c1,
        c_alpha=c_alpha,
        max_abs_w=maxw,
        N_i=w / (maxw + excluded),
        N_mu=N_mu,
        C_bar1=C_bar1,
        xhat=xhat,
    )


def mean_risk_terms(stats, reg, noise, var_X_t, N, c_bar1=None):
    """The three risk terms (bias, variance, dropout) at stats' (t, h)."""
    if stats.W_N == 0:
        return INFINITE_RISK, INFINITE_RISK, INFINITE_RISK
    fact = math.factorial(int(math.floor(reg.alpha_hat)))
    cb = stats.C_bar1 if c_bar1 is None else c_bar1
    q1_sq = cb * reg.L2_hat / (fact * fact)
    bias = q1_sq * stats.h ** (2.0 * reg.alpha_hat)
    var = noise.sigma2_max / stats.N_mu
    dropout = var_X_t * (1.0 / stats.W_N - 1.0 / N)
    return bias, var, dropout


def mean_risk(stats, reg, noise, var_X_t, N, c_bar1=None):
    """Total penalized risk; infinite when no curve is included."""
    if stats.W_N == 0:
        return INFINITE_RISK
    b, v, d = mean_risk_terms(stats, reg, noise, var_X_t, N, c_bar1=c_bar1)
    return b + v + d


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
    c_bar1_override = (
        kernel_abs_moment(kernel, alpha_exp) if use_moment_approx else None
    )

    n_h = hs.size
    tb = np.full(n_h, INFINITE_RISK)
    tv = np.full(n_h, INFINITE_RISK)
    td = np.full(n_h, INFINITE_RISK)
    W_arr = np.zeros(n_h, dtype=int)
    Nmu_arr = np.zeros(n_h)
    for j, h in enumerate(hs):
        stats = inclusion_stats(dataset, t, h, order, kernel, k0, alpha_exp)
        W_arr[j] = stats.W_N
        Nmu_arr[j] = stats.N_mu
        if stats.W_N == 0:
            continue
        tb[j], tv[j], td[j] = mean_risk_terms(
            stats, reg, noise, var_X_t, dataset.n_curves,
            c_bar1=c_bar1_override,
        )
    total = tb + tv + td
    if not np.any(np.isfinite(total)):
        raise InsufficientDataError(
            f"no admissible bandwidth at t={t}: every grid value leaves "
            "all curves excluded"
        )
    idx = int(np.argmin(total))

    fact = math.factorial(int(math.floor(reg.alpha_hat)))
    h_star = float(hs[idx])
    if c_bar1_override is not None:
        q1_sq = c_bar1_override * reg.L2_hat / (fact * fact)
    else:
        q1_sq = (
            tb[idx] / h_star ** (2.0 * reg.alpha_hat)
            if np.isfinite(tb[idx])
            else math.nan
        )
    return RiskProfile(
        t=float(t),
        bandwidths=hs,
        term_bias=tb,
        term_var=tv,
        term_dropout=td,
        total=total,
        W_N=W_arr,
        N_mu=Nmu_arr,
        h_star=h_star,
        h_star_index=idx,
        q1_sq=float(q1_sq),
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
    P_anchor = presmooth_matrix(
        dataset, anchor_ts, schedule.presmooth_bandwidth, presmooth_kernel
    )
    anchor_var = np.array(
        [plugin_variance(P_anchor[:, j]) for j in range(anchor_ts.size)]
    )

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

    P_grid = presmooth_matrix(
        dataset, pts, schedule.presmooth_bandwidth, presmooth_kernel
    )

    values = np.full(pts.size, np.nan)
    W_out = np.zeros(pts.size, dtype=int)
    r_bias = np.full(pts.size, np.nan)
    r_var = np.full(pts.size, np.nan)
    r_drop = np.full(pts.size, np.nan)
    for j, t in enumerate(pts):
        reg = regs[int(np.argmin(np.abs(anchor_ts - t)))]
        order = min(int(math.floor(reg.alpha_hat)), MAX_ORDER)
        k0_eff = max(k0, order + 1)
        stats = inclusion_stats(
            dataset, t, h_on_grid[j], order, kernel, k0_eff,
            2.0 * reg.alpha_hat,
        )
        W_out[j] = stats.W_N
        if stats.W_N == 0:
            continue
        values[j] = float(
            np.where(stats.w, stats.xhat, 0.0).sum() / stats.W_N
        )
        var_t = plugin_variance(P_grid[:, j])
        cb = (
            kernel_abs_moment(kernel, 2.0 * reg.alpha_hat)
            if use_moment_approx
            else None
        )
        b, v, d = mean_risk_terms(stats, reg, noise, var_t, N, c_bar1=cb)
        r_bias[j], r_var[j], r_drop[j] = b, v, d

    return MeanEstimate(
        points=pts,
        values=values,
        h_star=h_on_grid,
        W_N=W_out,
        risk_bias=r_bias,
        risk_var=r_var,
        risk_dropout=r_drop,
        anchor_t=anchor_ts,
        anchor_h=anchor_h,
        anchor_alpha=np.array([r.alpha_hat for r in regs]),
    )
