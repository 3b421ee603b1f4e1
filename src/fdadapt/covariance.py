"""Adaptive covariance estimation away from the diagonal.

Pointwise products of smoothed curves estimate the raw second moment;
the bandwidth is selected by a penalized risk summed over the two
coordinate directions, with bandwidths large enough to make the two
smoothing windows overlap declared inadmissible. A band around the
diagonal, whose width shrinks with the sampling density at a rate
governed by the estimated regularity, is filled by extending the value
from the band boundary.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import dblquad

from .errors import EstimationError, InsufficientDataError, ValidationError
from .kernels import BIWEIGHT, EPANECHNIKOV, MAX_ORDER, get_kernel
from .mean import (
    BandwidthGrid,
    InclusionStats,
    inclusion_stats,
    inclusion_stats_over_grid,
    plugin_variance,
)
from .regularity import RegularitySchedule, presmooth_matrix

INFINITE_RISK = math.inf
LATTICE_SIZE = 10


@dataclass(frozen=True)
class PairInclusionStats:
    """Joint inclusion summaries for one coordinate pair at one h.

    A curve enters the pair estimate only when its fit is
    non-degenerate at both coordinates. The directional fields with
    suffix ts describe smoothing at t conditioned on inclusion at s,
    and st the reverse.
    """

    s: float
    t: float
    h: float
    w_pair: np.ndarray
    W_pair: int
    N_gamma_ts: float
    N_gamma_st: float
    C_bar1_ts: float
    C_bar1_st: float
    prod: np.ndarray
    gamma_hat: float


def combine_pair_stats(stats_s: InclusionStats, stats_t: InclusionStats):
    """Compose per-coordinate inclusion stats into pair-level stats."""
    if stats_s.h != stats_t.h:
        raise ValidationError("pair stats need a common bandwidth")
    w_pair = stats_s.w & stats_t.w
    W_pair = int(w_pair.sum())
    prod = np.where(w_pair, stats_s.xhat * stats_t.xhat, np.nan)
    if W_pair == 0:
        return PairInclusionStats(
            s=stats_s.t, t=stats_t.t, h=stats_s.h, w_pair=w_pair,
            W_pair=0, N_gamma_ts=0.0, N_gamma_st=0.0, C_bar1_ts=0.0,
            C_bar1_st=0.0, prod=prod, gamma_hat=math.nan,
        )

    def direction(stats):
        denom = float((stats.c1[w_pair] * stats.max_abs_w[w_pair]).sum())
        n_gamma = W_pair * W_pair / denom if denom > 0.0 else 0.0
        c_bar = float((stats.c1[w_pair] * stats.c_alpha[w_pair]).sum()) / W_pair
        return n_gamma, c_bar

    n_ts, cb_ts = direction(stats_t)
    n_st, cb_st = direction(stats_s)
    gamma_hat = float(prod[w_pair].sum()) / W_pair
    return PairInclusionStats(
        s=stats_s.t, t=stats_t.t, h=stats_s.h, w_pair=w_pair,
        W_pair=W_pair, N_gamma_ts=n_ts, N_gamma_st=n_st,
        C_bar1_ts=cb_ts, C_bar1_st=cb_st, prod=prod, gamma_hat=gamma_hat,
    )


def pair_inclusion_stats(dataset, s, t, h, order_s, order_t, kernel, k0,
                         alpha_s, alpha_t):
    kernel = get_kernel(kernel)
    st_s = inclusion_stats(dataset, s, h, order_s, kernel,
                           max(k0, order_s + 1), 2.0 * alpha_s)
    st_t = inclusion_stats(dataset, t, h, order_t, kernel,
                           max(k0, order_t + 1), 2.0 * alpha_t)
    return combine_pair_stats(st_s, st_t)


def bandwidth_admissible(s, t, h):
    """Windows of half-width h at s and t must not overlap."""
    return 2.0 * h < abs(t - s)


def covariance_risk_terms(pair_stats, reg_s, reg_t, noise, m2_s, m2_t,
                          var_XsXt, N):
    """Bias, variance and dropout terms summed over both directions."""
    ps = pair_stats
    if ps.W_pair == 0 or not bandwidth_admissible(ps.s, ps.t, ps.h):
        return INFINITE_RISK, INFINITE_RISK, INFINITE_RISK

    def one_direction(reg_b, m2_a, c_bar, n_gamma):
        fact = math.factorial(int(math.floor(reg_b.alpha_hat)))
        q1_sq = 2.0 * m2_a * c_bar * reg_b.L2_hat / (fact * fact)
        bias = q1_sq * ps.h ** (2.0 * reg_b.alpha_hat)
        q2_sq = noise.sigma2_max * m2_a
        var = q2_sq / n_gamma if n_gamma > 0.0 else INFINITE_RISK
        return bias, var

    bias_ts, var_ts = one_direction(reg_t, m2_s, ps.C_bar1_ts, ps.N_gamma_ts)
    bias_st, var_st = one_direction(reg_s, m2_t, ps.C_bar1_st, ps.N_gamma_st)
    dropout = var_XsXt * (1.0 / ps.W_pair - 1.0 / N)
    return bias_ts + bias_st, var_ts + var_st, dropout


def covariance_risk(pair_stats, reg_s, reg_t, noise, m2_s, m2_t,
                    var_XsXt, N):
    b, v, d = covariance_risk_terms(
        pair_stats, reg_s, reg_t, noise, m2_s, m2_t, var_XsXt, N
    )
    return b + v + d


@dataclass(frozen=True)
class CovRiskProfile:
    s: float
    t: float
    bandwidths: np.ndarray
    term_bias: np.ndarray
    term_var: np.ndarray
    term_dropout: np.ndarray
    total: np.ndarray
    W_pair: np.ndarray
    h_star: float
    h_star_index: int


def _pair_profile(s, t, hs, stats_s_per_h, stats_t_per_h, reg_s, reg_t,
                  noise, m2_s, m2_t, var_XsXt, N):
    n_h = hs.size
    tb = np.full(n_h, INFINITE_RISK)
    tv = np.full(n_h, INFINITE_RISK)
    td = np.full(n_h, INFINITE_RISK)
    W_arr = np.zeros(n_h, dtype=int)
    for j in range(n_h):
        ps = combine_pair_stats(stats_s_per_h[j], stats_t_per_h[j])
        W_arr[j] = ps.W_pair
        b, v, d = covariance_risk_terms(
            ps, reg_s, reg_t, noise, m2_s, m2_t, var_XsXt, N
        )
        tb[j], tv[j], td[j] = b, v, d
    total = tb + tv + td
    if not np.any(np.isfinite(total)):
        return None
    idx = int(np.argmin(total))
    return CovRiskProfile(
        s=float(s), t=float(t), bandwidths=hs, term_bias=tb, term_var=tv,
        term_dropout=td, total=total, W_pair=W_arr,
        h_star=float(hs[idx]), h_star_index=idx,
    )


def select_cov_bandwidth(dataset, s, t, reg_s, reg_t, noise, m2_s, m2_t,
                         var_XsXt, kernel, k0, grid_spec=None):
    """Minimize the two-direction risk over a log bandwidth grid.

    Raises when no grid bandwidth is admissible for the pair, which
    always happens when |t - s| is below twice the smallest grid value.
    """
    kernel = get_kernel(kernel)
    if grid_spec is None:
        grid_spec = BandwidthGrid.default_cov()
    hs = grid_spec.values()
    order_s = min(int(math.floor(reg_s.alpha_hat)), MAX_ORDER)
    order_t = min(int(math.floor(reg_t.alpha_hat)), MAX_ORDER)
    ss = inclusion_stats_over_grid(dataset, s, hs, order_s, kernel,
                                   max(k0, order_s + 1), 2.0 * reg_s.alpha_hat)
    st = inclusion_stats_over_grid(dataset, t, hs, order_t, kernel,
                                   max(k0, order_t + 1), 2.0 * reg_t.alpha_hat)
    prof = _pair_profile(s, t, hs, ss, st, reg_s, reg_t, noise, m2_s, m2_t,
                         var_XsXt, dataset.n_curves)
    if prof is None:
        raise InsufficientDataError(
            f"no admissible bandwidth for the pair ({s}, {t})"
        )
    return prof


def band_exponent(alpha_hat):
    """Exponent turning the mean reciprocal design size into the band width."""
    a = float(alpha_hat)
    return (2.0 * a + 0.5) / (2.0 * a + 1.0) ** 2


def diagonal_band_width(dataset, alpha_hat):
    """Width of the diagonal band excluded from direct estimation."""
    if alpha_hat <= 0.0:
        raise ValidationError("alpha_hat must be positive")
    inv = sum(1.0 / c.times.size for c in dataset.curves)
    base = inv / dataset.n_curves**2
    c = band_exponent(alpha_hat)
    return float(base**c)


def _nearest(regs, anchor_ts, u):
    return regs[int(np.argmin(np.abs(anchor_ts - u)))]


def _m2_plugin(col):
    v = col[np.isfinite(col)]
    if v.size == 0:
        return 0.0
    return float(np.mean(v * v))


def _pair_var_plugin(col_a, col_b):
    prod = col_a * col_b
    return plugin_variance(prod)


def _fill_lattice_nan(H):
    """Replace NaN lattice cells by the mean of defined neighbors."""
    n = H.shape[0]
    for _ in range(n * n):
        nan_idx = np.argwhere(np.isnan(H))
        if nan_idx.size == 0:
            return H
        progressed = False
        for k, l in nan_idx:
            vals = []
            for dk, dl in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                kk, ll = k + dk, l + dl
                if 0 <= kk < n and 0 <= ll < n and np.isfinite(H[kk, ll]):
                    vals.append(H[kk, ll])
            if vals:
                H[k, l] = float(np.mean(vals))
                progressed = True
        if not progressed:
            break
    if np.isnan(H).any():
        raise EstimationError(
            "bandwidth selection failed on the whole coordinate lattice"
        )
    return H


def _bilinear(lattice, H, a, b):
    lo, hi = lattice[0], lattice[-1]
    a = min(max(a, lo), hi)
    b = min(max(b, lo), hi)
    ia = int(np.clip(np.searchsorted(lattice, a) - 1, 0, lattice.size - 2))
    ib = int(np.clip(np.searchsorted(lattice, b) - 1, 0, lattice.size - 2))
    fa = (a - lattice[ia]) / (lattice[ia + 1] - lattice[ia])
    fb = (b - lattice[ib]) / (lattice[ib + 1] - lattice[ib])
    return float(
        H[ia, ib] * (1 - fa) * (1 - fb)
        + H[ia + 1, ib] * fa * (1 - fb)
        + H[ia, ib + 1] * (1 - fa) * fb
        + H[ia + 1, ib + 1] * fa * fb
    )


@dataclass(frozen=True)
class CovarianceSurface:
    """Adaptive covariance surface on a rectangular grid."""

    grid_s: np.ndarray
    grid_t: np.ndarray
    values: np.ndarray
    gamma_values: np.ndarray
    h_star: np.ndarray
    in_band: np.ndarray
    W_N_pair: np.ndarray
    undefined_mask: np.ndarray
    band_width_d: float
    band_exponent_c: float
    lattice: np.ndarray
    lattice_h: np.ndarray


def estimate_covariance(dataset, grid_s, grid_t, reg_anchors, noise,
                        mean_result, kernel=BIWEIGHT, k0=2, schedule=None,
                        grid_spec=None, presmooth_kernel=EPANECHNIKOV,
                        psd_project=False):
    """Adaptive covariance surface on grid_s x grid_t.

    Bandwidths are solved on a coarse coordinate lattice and
    interpolated bilinearly. Pairs inside the diagonal band take the
    value at the band boundary with the same midpoint. Cells where no
    curve pair survives inclusion are NaN; an entirely undefined row or
    column raises.
    """
    if not reg_anchors:
        raise ValidationError("need at least one anchor regularity estimate")
    kernel = get_kernel(kernel)
    if schedule is None:
        schedule = RegularitySchedule(m_hat=dataset.m_hat)
    if grid_spec is None:
        grid_spec = BandwidthGrid.default_cov()
    regs = sorted(reg_anchors, key=lambda r: r.anchor_t2)
    anchor_ts = np.array([r.anchor_t2 for r in regs])
    pts_s = np.asarray(getattr(grid_s, "points", grid_s), dtype=float)
    pts_t = np.asarray(getattr(grid_t, "points", grid_t), dtype=float)
    N = dataset.n_curves

    med_alpha = float(np.median([r.alpha_hat for r in regs]))
    d_band = diagonal_band_width(dataset, med_alpha)
    c_exp = band_exponent(med_alpha)

    lo = float(min(pts_s.min(), pts_t.min()))
    hi = float(max(pts_s.max(), pts_t.max()))
    if hi - lo < 1e-6:
        lo = max(1e-4, lo - 0.1)
        hi = min(1.0 - 1e-4, hi + 0.1)
    lattice = np.linspace(lo, hi, LATTICE_SIZE)
    hs = grid_spec.values()

    mean_pts = np.asarray(mean_result.points, dtype=float)
    mean_vals = np.asarray(mean_result.values, dtype=float)

    def mu_at(x):
        return float(np.interp(x, mean_pts, mean_vals))

    P_lat = presmooth_matrix(dataset, lattice, schedule.presmooth_bandwidth,
                             presmooth_kernel)

    lat_stats = []
    lat_m2 = np.zeros(LATTICE_SIZE)
    for k in range(LATTICE_SIZE):
        reg_k = _nearest(regs, anchor_ts, lattice[k])
        order_k = min(int(math.floor(reg_k.alpha_hat)), MAX_ORDER)
        lat_stats.append(inclusion_stats_over_grid(
            dataset, float(lattice[k]), hs, order_k, kernel,
            max(k0, order_k + 1), 2.0 * reg_k.alpha_hat,
        ))
        lat_m2[k] = _m2_plugin(P_lat[:, k])

    H_lat = np.full((LATTICE_SIZE, LATTICE_SIZE), np.nan)
    for k in range(LATTICE_SIZE):
        reg_k = _nearest(regs, anchor_ts, lattice[k])
        for l in range(k, LATTICE_SIZE):
            if lattice[l] - lattice[k] <= 0.0:
                continue
            reg_l = _nearest(regs, anchor_ts, lattice[l])
            var_kl = _pair_var_plugin(P_lat[:, k], P_lat[:, l])
            prof = _pair_profile(
                float(lattice[k]), float(lattice[l]), hs,
                lat_stats[k], lat_stats[l], reg_k, reg_l, noise,
                lat_m2[k], lat_m2[l], var_kl, N,
            )
            if prof is not None:
                H_lat[k, l] = prof.h_star
                H_lat[l, k] = prof.h_star
    H_lat = _fill_lattice_nan(H_lat)

    def eval_pair(a, b):
        """Off-band evaluation at the canonical pair a < b."""
        reg_a = _nearest(regs, anchor_ts, a)
        reg_b = _nearest(regs, anchor_ts, b)
        order_a = min(int(math.floor(reg_a.alpha_hat)), MAX_ORDER)
        order_b = min(int(math.floor(reg_b.alpha_hat)), MAX_ORDER)
        # interpolating lattice values that all sit on the bandwidth
        # grid cannot leave its range, so clamp away rounding noise
        h = min(max(_bilinear(lattice, H_lat, a, b), hs[0]), hs[-1])
        if not bandwidth_admissible(a, b, h):
            h = 0.5 * abs(b - a) * (1.0 - 1e-9)
            if h < hs[0]:
                return math.nan, math.nan, h, 0
        ps = pair_inclusion_stats(dataset, a, b, h, order_a, order_b, kernel,
                                  k0, reg_a.alpha_hat, reg_b.alpha_hat)
        if ps.W_pair == 0:
            return math.nan, math.nan, h, 0
        gamma = ps.gamma_hat
        value = gamma - mu_at(a) * mu_at(b)
        return gamma, value, h, ps.W_pair

    pair_cache = {}

    def eval_pair_cached(a, b):
        key = (round(float(a), 12), round(float(b), 12))
        if key not in pair_cache:
            pair_cache[key] = eval_pair(a, b)
        return pair_cache[key]

    def eval_in_band(s, t):
        """Value at the band boundary sharing the midpoint of (s, t)."""
        u = 0.5 * (s + t)
        margin = 0.5 * d_band + 1e-9
        u = min(max(u, margin), 1.0 - margin)
        gamma_b, value_b, h, W = eval_pair_cached(u - 0.5 * d_band,
                                                  u + 0.5 * d_band)
        if math.isnan(value_b):
            return math.nan, math.nan, h, W
        gamma = value_b + mu_at(s) * mu_at(t)
        return gamma, value_b, h, W

    n_s, n_t = pts_s.size, pts_t.size
    G = np.full((n_s, n_t), np.nan)
    Gamma = np.full((n_s, n_t), np.nan)
    H_out = np.full((n_s, n_t), np.nan)
    W_out = np.zeros((n_s, n_t), dtype=int)
    in_band = np.zeros((n_s, n_t), dtype=bool)
    for i, s in enumerate(pts_s):
        for j, t in enumerate(pts_t):
            a, b = (s, t) if s <= t else (t, s)
            if b - a <= d_band:
                in_band[i, j] = True
                gamma, value, h, W = eval_in_band(a, b)
            else:
                gamma, value, h, W = eval_pair_cached(a, b)
            G[i, j] = gamma
            Gamma[i, j] = value
            H_out[i, j] = h
            W_out[i, j] = W

    undefined = np.isnan(Gamma)
    if undefined.all(axis=1).any() or undefined.all(axis=0).any():
        raise EstimationError(
            "covariance surface undefined along an entire row or column"
        )

    if psd_project:
        if pts_s.size != pts_t.size or not np.allclose(pts_s, pts_t):
            raise ValidationError(
                "psd projection needs identical s and t grids"
            )
        M = np.where(undefined, 0.0, Gamma)
        M = 0.5 * (M + M.T)
        vals, vecs = np.linalg.eigh(M)
        M = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        Gamma = np.where(undefined, np.nan, 0.5 * (M + M.T))

    return CovarianceSurface(
        grid_s=pts_s,
        grid_t=pts_t,
        values=Gamma,
        gamma_values=G,
        h_star=H_out,
        in_band=in_band,
        W_N_pair=W_out,
        undefined_mask=undefined,
        band_width_d=float(d_band),
        band_exponent_c=float(c_exp),
        lattice=lattice,
        lattice_h=H_lat,
    )


def diagonal_fill_error(true_cov, d):
    """Band-averaged squared error of boundary extension into the band.

    For each midpoint u the band value is taken from the boundary pair
    (u - d/2, u + d/2); the squared gap to the true covariance at
    separations v in [0, d] is averaged over the band.
    """
    if not 0.0 < d < 1.0:
        raise ValidationError("band width d must lie in (0, 1)")

    def gap_sq(v, u):
        fill = true_cov(u - 0.5 * d, u + 0.5 * d)
        exact = true_cov(u - 0.5 * v, u + 0.5 * v)
        return (fill - exact) ** 2

    raw, _ = dblquad(gap_sq, 0.5 * d, 1.0 - 0.5 * d, 0.0, d,
                     epsabs=1e-13, epsrel=1e-11)
    return raw / (d * (1.0 - d))
