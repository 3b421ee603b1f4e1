"""Adaptive covariance estimation away from the diagonal.

Pointwise products of smoothed curves estimate the raw second moment;
the bandwidth is selected by a penalized risk summed over the two
coordinate directions, with bandwidths large enough to make the two
smoothing windows overlap declared inadmissible. A band around the
diagonal, whose width shrinks with the sampling density at a rate
governed by the estimated regularity, is filled by extending the value
from the band boundary. The risk is minimized on a coarse lattice of
coordinate pairs, each scored over the whole bandwidth grid from its two
coordinates' grid records, and the chosen bandwidths are interpolated to
the surface. The surface evaluates its distinct pairs, one per cell off
the band and one boundary pair per midpoint inside it, in blocks: one
point record (mean._points_stats) at each end of a block, whatever the
polynomial orders of the ends.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy  # subpackages load on first use; perfbench reads its version

from .errors import EstimationError, ValidationError
from .kernels import (BIWEIGHT, EPANECHNIKOV, MAX_ORDER, _point_blocks,
                      get_kernel)
from .mean import (
    INFINITE_RISK,
    BandwidthGrid,
    InclusionStats,
    _points_stats,
    inclusion_stats_over_grid,
    plugin_variance,
)
from .regularity import RegularitySchedule, presmooth_matrix

LATTICE_SIZE = 10


@dataclass(frozen=True)
class PairInclusionStats:
    """Joint inclusion summaries for one coordinate pair at one h, or at
    every h of a grid (a leading bandwidth axis, as in InclusionStats).

    A curve enters the pair estimate only when its fit is
    non-degenerate at both coordinates. The directional fields with
    suffix ts describe smoothing at t conditioned on inclusion at s,
    and st the reverse. gamma_hat is None when built from grid records,
    which carry no xhat.
    """

    s: float
    t: float
    h: float | np.ndarray
    w_pair: np.ndarray
    W_pair: int | np.ndarray
    N_gamma_ts: float | np.ndarray
    N_gamma_st: float | np.ndarray
    C_bar1_ts: float | np.ndarray
    C_bar1_st: float | np.ndarray
    gamma_hat: float | np.ndarray | None


def combine_pair_stats(stats_s: InclusionStats, stats_t: InclusionStats):
    """Compose per-coordinate inclusion stats into pair-level stats, at
    one h or over a grid (gamma_hat is NaN where no pair is included, and
    None when either record has no xhat)."""
    if not np.array_equal(stats_s.h, stats_t.h):
        raise ValidationError("pair stats need a common bandwidth")
    w_pair = stats_s.w & stats_t.w
    W_pair = np.count_nonzero(w_pair, axis=-1)
    per_pair = np.maximum(W_pair, 1)

    def included_sum(x):
        return np.where(w_pair, x, 0.0).sum(axis=-1)

    def direction(stats):
        denom = included_sum(stats.c1 * stats.max_abs_w)
        n_gamma = np.divide(W_pair * W_pair, denom,
                            out=np.zeros(denom.shape), where=denom > 0.0)
        c_bar = included_sum(stats.c1 * stats.c_alpha) / per_pair
        return n_gamma[()], c_bar[()]

    n_ts, cb_ts = direction(stats_t)
    n_st, cb_st = direction(stats_s)
    gamma_hat = None
    if stats_s.xhat is not None and stats_t.xhat is not None:
        prod_sum = included_sum(stats_s.xhat * stats_t.xhat)
        gamma_hat = np.where(W_pair > 0, prod_sum / per_pair, np.nan)[()]
    return PairInclusionStats(
        s=stats_s.t, t=stats_t.t, h=stats_s.h, w_pair=w_pair,
        W_pair=W_pair, N_gamma_ts=n_ts, N_gamma_st=n_st,
        C_bar1_ts=cb_ts, C_bar1_st=cb_st, gamma_hat=gamma_hat,
    )


def bandwidth_admissible(s, t, h):
    """Windows of half-width h at s and t must not overlap."""
    return 2.0 * h < abs(t - s)


def covariance_risk_terms(pair_stats, reg_s, reg_t, noise, m2_s, m2_t,
                          var_XsXt, N):
    """Bias, variance and dropout terms summed over both directions, as
    arrays on a grid record; infinite where no curve pair is included or
    the bandwidth is inadmissible."""
    ps = pair_stats

    def one_direction(reg_b, m2_a, c_bar, n_gamma):
        fact = math.factorial(int(math.floor(reg_b.alpha_hat)))
        q1_sq = 2.0 * m2_a * c_bar * reg_b.L2_hat / (fact * fact)
        bias = q1_sq * ps.h ** (2.0 * reg_b.alpha_hat)
        q2_sq = noise.sigma2_max * m2_a
        var = np.where(n_gamma > 0.0, q2_sq / n_gamma, INFINITE_RISK)
        return bias, var

    with np.errstate(divide="ignore", invalid="ignore"):
        bias_ts, var_ts = one_direction(reg_t, m2_s, ps.C_bar1_ts,
                                        ps.N_gamma_ts)
        bias_st, var_st = one_direction(reg_s, m2_t, ps.C_bar1_st,
                                        ps.N_gamma_st)
        dropout = var_XsXt * (1.0 / ps.W_pair - 1.0 / N)
    void = ~((ps.W_pair > 0) & bandwidth_admissible(ps.s, ps.t, ps.h))
    return tuple(np.where(void, INFINITE_RISK, x)[()]
                 for x in (bias_ts + bias_st, var_ts + var_st, dropout))


def _pair_h_star(stats_s, stats_t, reg_s, reg_t, noise, m2_s, m2_t,
                 var_XsXt, N):
    """The bandwidth of the pair's two grid records that minimizes its
    two-direction risk; None when every bandwidth is inadmissible or
    leaves no curve pair, as always for |t - s| below twice the smallest
    one."""
    ps = combine_pair_stats(stats_s, stats_t)
    total = sum(covariance_risk_terms(ps, reg_s, reg_t, noise, m2_s, m2_t,
                                      var_XsXt, N))
    if not np.isfinite(total).any():
        return None
    return float(ps.h[np.argmin(total)])


def band_exponent(alpha_hat):
    """Exponent turning the mean reciprocal design size into the band width."""
    a = float(alpha_hat)
    return (2.0 * a + 0.5) / (2.0 * a + 1.0) ** 2


def diagonal_band_width(dataset, alpha_hat):
    """Width of the diagonal band excluded from direct estimation."""
    if alpha_hat <= 0.0:
        raise ValidationError("alpha_hat must be positive")
    inv = sum((1.0 / dataset.lengths).tolist())
    base = inv / dataset.n_curves**2
    c = band_exponent(alpha_hat)
    return float(base**c)


def _nearest(regs, anchor_ts, x):
    """The regularity estimate of the anchor nearest to each point x."""
    return [regs[i] for i in np.abs(x[:, None] - anchor_ts).argmin(axis=1)]


def _m2_plugin(col):
    v = col[np.isfinite(col)]
    if v.size == 0:
        return 0.0
    return float(np.mean(v * v))


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
    """H interpolated bilinearly at (a, b), clamped to the lattice."""
    lo, hi = lattice[0], lattice[-1]
    a, b = np.clip(a, lo, hi), np.clip(b, lo, hi)
    ia = np.clip(lattice.searchsorted(a) - 1, 0, lattice.size - 2)
    ib = np.clip(lattice.searchsorted(b) - 1, 0, lattice.size - 2)
    fa = (a - lattice[ia]) / (lattice[ia + 1] - lattice[ia])
    fb = (b - lattice[ib]) / (lattice[ib + 1] - lattice[ib])
    return (H[ia, ib] * (1 - fa) * (1 - fb)
            + H[ia + 1, ib] * fa * (1 - fb)
            + H[ia, ib + 1] * (1 - fa) * fb
            + H[ia + 1, ib + 1] * fa * fb)


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

    def mu_at(x):
        return np.interp(x, mean_result.points, mean_result.values)

    P_lat = presmooth_matrix(dataset, lattice, schedule.presmooth_bandwidth,
                             presmooth_kernel)

    lat_regs = _nearest(regs, anchor_ts, lattice)
    lat_stats = []
    lat_m2 = np.zeros(LATTICE_SIZE)
    for k, reg_k in enumerate(lat_regs):
        order_k = min(int(math.floor(reg_k.alpha_hat)), MAX_ORDER)
        lat_stats.append(inclusion_stats_over_grid(
            dataset, float(lattice[k]), hs, order_k, kernel,
            max(k0, order_k + 1), 2.0 * reg_k.alpha_hat,
        ))
        lat_m2[k] = _m2_plugin(P_lat[:, k])

    H_lat = np.full((LATTICE_SIZE, LATTICE_SIZE), np.nan)
    for k in range(LATTICE_SIZE):
        for l in range(k, LATTICE_SIZE):
            if lattice[l] - lattice[k] <= 0.0:
                continue
            var_kl = plugin_variance(P_lat[:, k] * P_lat[:, l])
            h_star = _pair_h_star(lat_stats[k], lat_stats[l], lat_regs[k],
                                  lat_regs[l], noise, lat_m2[k], lat_m2[l],
                                  var_kl, N)
            if h_star is not None:
                H_lat[k, l] = H_lat[l, k] = h_star
    H_lat = _fill_lattice_nan(H_lat)

    # each cell's canonical pair a <= b; a cell inside the band takes the
    # band boundary pair that shares its midpoint
    S, T = np.meshgrid(pts_s, pts_t, indexing="ij")
    a, b = np.minimum(S, T).ravel(), np.maximum(S, T).ravel()
    in_band = b - a <= d_band
    margin = 0.5 * d_band + 1e-9
    u = np.clip(0.5 * (a + b), margin, 1.0 - margin)
    pa = np.where(in_band, u - 0.5 * d_band, a)
    pb = np.where(in_band, u + 0.5 * d_band, b)
    # pairs equal to 12 decimals share the estimate at the first of them
    first = {}
    rep = [first.setdefault((round(x, 12), round(y, 12)), k)
           for k, (x, y) in enumerate(zip(pa.tolist(), pb.tolist()))]
    uniq, k = np.unique(rep, return_inverse=True)
    pa, pb = pa[uniq], pb[uniq]

    alpha = np.array([[r.alpha_hat for r in _nearest(regs, anchor_ts, x)]
                      for x in (pa, pb)])
    orders = np.minimum(np.floor(alpha), MAX_ORDER).astype(int)
    # interpolating lattice values that all sit on the bandwidth grid
    # cannot leave its range, so clamp away rounding noise
    h = np.clip(_bilinear(lattice, H_lat, pa, pb), hs[0], hs[-1])
    h = np.where(bandwidth_admissible(pa, pb, h), h,
                 0.5 * np.abs(pb - pa) * (1.0 - 1e-9))
    gamma = np.full(pa.size, np.nan)
    W = np.zeros(pa.size, dtype=int)
    live = np.flatnonzero(h >= hs[0])
    for blk in _point_blocks(dataset, h[live], pa[live], pb[live]):
        i = live[blk]
        ps = combine_pair_stats(*(
            _points_stats(dataset, x[i], h[i], o[i], kernel, k0, 2.0 * a[i])
            for x, o, a in zip((pa, pb), orders, alpha)))
        gamma[i], W[i] = ps.gamma_hat, ps.W_pair
    # gamma_hat is NaN when no curve pair is included
    value = gamma - mu_at(pa) * mu_at(pb)

    Gamma = value[k]
    G = np.where(in_band, Gamma + mu_at(a) * mu_at(b), gamma[k])
    shape = (pts_s.size, pts_t.size)
    G, Gamma, H_out, W_out, in_band = (
        x.reshape(shape) for x in (G, Gamma, h[k], W[k], in_band))

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

    raw, _ = scipy.integrate.dblquad(gap_sq, 0.5 * d, 1.0 - 0.5 * d, 0.0,
                                     d, epsabs=1e-13, epsrel=1e-11)
    return raw / (d * (1.0 - d))
