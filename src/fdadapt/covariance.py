"""Adaptive covariance estimation away from the diagonal.

Pointwise products of smoothed curves estimate the raw second moment;
the bandwidth is selected by a penalized risk summed over the two
coordinate directions, with bandwidths large enough to make the two
smoothing windows overlap declared inadmissible. Each direction's risk
is the mean's (mean.mean_risk_terms) at one end of the pair, over the
curves included at both, with its bias constant and noise variance
scaled by the other end's second moment. A band around the
diagonal, whose width shrinks with the sampling density at a rate
governed by the estimated regularity, is filled by extending the value
from the band boundary. The risk is minimized on a coarse lattice of
coordinate pairs, all scored at once over the whole bandwidth grid from
the coordinates' grid records, and the chosen bandwidths are interpolated
to the surface. The surface is symmetric: it evaluates the distinct pairs
of its upper-triangle cells, one per cell off the band and one boundary
pair per midpoint inside it, and mirrors them. The pairs take one
kernels._lp_fits call at each end, whatever the polynomial orders of the
ends, which gives each curve's inclusion flag and smoothed value there
and nothing else the surface does not read.
"""

from dataclasses import dataclass

import numpy as np
import scipy  # subpackages load on first use; perfbench reads its version

from .errors import EstimationError, ValidationError
from .kernels import (
    BIWEIGHT,
    EPANECHNIKOV,
    _lp_fits,
    get_kernel,
)
from .mean import (
    INFINITE_RISK,
    BandwidthGrid,
    _effective_size,
    _fit_order,
    _nearest_regularity,
    inclusion_stats_over_grid,
    mean_risk_terms,
    plugin_variance,
)
from .regularity import RegularitySchedule, presmooth_matrix

LATTICE_SIZE = 10


def bandwidth_admissible(s, t, h):
    """Windows of half-width h at s and t must not overlap."""
    return 2.0 * h < abs(t - s)


def covariance_risk_terms(s, t, h, W_pair, N_gamma, C_bar1, alpha, L2, m2,
                          sigma2, var_XsXt, N):
    """Bias, variance and dropout terms of coordinate pairs (s, t) at
    bandwidth h, summed over the two directions, as arrays over whatever
    shape the arguments broadcast to; infinite where no curve pair is
    included or the bandwidth is inadmissible.

    W_pair counts the curves included at both ends. N_gamma, C_bar1,
    alpha, L2 and m2 each hold the value at s, then at t: the effective
    size and C_bar1 of smoothing at that end over those curves, its
    regularity and its second moment. Each direction is mean_risk_terms
    at one end, with C_bar1 and sigma2 scaled by the other end's m2.
    """
    (b_s, v_s, dropout), (b_t, v_t, _) = (
        mean_risk_terms(h, W_pair, N_gamma[a], 2.0 * m2[b] * C_bar1[a],
                        alpha[a], L2[a], sigma2 * m2[b], var_XsXt, N)
        for a, b in ((0, 1), (1, 0)))
    ok = bandwidth_admissible(s, t, h)
    return tuple(np.where(ok, x, INFINITE_RISK)[()]
                 for x in (b_s + b_t, v_s + v_t, dropout))


def _lattice_h_star(records, alpha, L2, noise, m2, var_pairs, N):
    """The risk-minimizing bandwidth of each pair of L grid records on one
    bandwidth grid, as a symmetric (L, L) array, NaN on the diagonal and
    where no bandwidth is admissible and leaves a curve pair. The arrays
    alpha and L2 (the regularity) and m2 are per record, var_pairs per
    pair k < l, in the order of np.triu_indices(L, 1). The arrays of a
    record are zero where its w is false, so every pair sum is a stacked
    matrix product over curves."""
    k, l = np.triu_indices(len(records), 1)
    n_h, n = records[0].w.shape
    M = np.empty((3, n_h, len(records), n))  # w, c1 max|w|, c1 c_alpha
    for a, r in enumerate(records):
        M[:, :, a] = r.w, r.c1 * r.max_abs_w, r.c1 * r.c_alpha
    # [h, a, b]: sums over the curves included at a and b of w at a times
    # the product at b
    W, denom, cross = (M[0] @ x.transpose(0, 2, 1) for x in M)
    W_pair = W[:, k, l].T
    ends = np.array((k, l))  # [end, pair]: the record at s, at t
    # [end, pair, h]: each end's sums over the curves included at both
    N_gamma, C_bar1 = _effective_size(W_pair, *(
        x[:, ends[::-1], ends].transpose(1, 2, 0) for x in (denom, cross)))
    x = np.array([r.t for r in records])
    hs = records[0].h
    total = sum(covariance_risk_terms(
        x[k, None], x[l, None], hs, W_pair, N_gamma, C_bar1,
        alpha[ends, None], L2[ends, None], m2[ends, None], noise.sigma2_max,
        np.asarray(var_pairs)[:, None], N))
    H = np.full((len(records),) * 2, np.nan)
    ok = np.isfinite(total).any(axis=1)
    H[k[ok], l[ok]] = H[l[ok], k[ok]] = hs[np.argmin(total[ok], axis=1)]
    return H


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
    """Adaptive covariance surface on the square of a grid."""

    grid: np.ndarray
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


def estimate_covariance(dataset, grid, reg_anchors, noise, mean_result,
                        kernel=BIWEIGHT, k0=2, schedule=None, bandwidths=None,
                        presmooth_kernel=EPANECHNIKOV, psd_project=False):
    """Adaptive covariance surface on grid x grid.

    Bandwidths are solved on a coarse coordinate lattice and
    interpolated bilinearly. Pairs inside the diagonal band take the
    value at the band boundary with the same midpoint. Cells where no
    curve pair survives inclusion are NaN; an entirely undefined row or
    column raises.
    """
    if not reg_anchors:
        raise ValidationError("need at least one anchor regularity estimate")
    if k0 < 1:
        raise ValidationError("k0 must be at least 1")
    kernel = get_kernel(kernel)
    if schedule is None:
        schedule = RegularitySchedule(m_hat=dataset.m_hat)
    if bandwidths is None:
        bandwidths = BandwidthGrid.default_cov()
    regs = sorted(reg_anchors, key=lambda r: r.anchor_t2)
    pts = np.asarray(grid, dtype=float)
    N = dataset.n_curves

    med_alpha = float(np.median([r.alpha_hat for r in regs]))
    d_band = diagonal_band_width(dataset, med_alpha)
    c_exp = band_exponent(med_alpha)

    # a lattice no wider than 2 hs[0] has no admissible pair, so widen it
    hs = bandwidths.values()
    lo, hi = float(pts.min()), float(pts.max())
    if hi - lo <= 2.0 * hs[0]:
        lo = max(1e-4, lo - 0.1)
        hi = min(1.0 - 1e-4, hi + 0.1)
    lattice = np.linspace(lo, hi, LATTICE_SIZE)

    # np.interp needs increasing sample points
    by_t = np.argsort(mean_result.points, kind="stable")
    mu_t, mu = mean_result.points[by_t], mean_result.values[by_t]

    def mu_at(x):
        return np.interp(x, mu_t, mu)

    P_lat = presmooth_matrix(dataset, lattice, schedule.presmooth_bandwidth,
                             presmooth_kernel)

    lat_alpha, lat_L2 = _nearest_regularity(regs, lattice)
    lat_stats = [inclusion_stats_over_grid(dataset, x, hs, al, kernel, k0)
                 for x, al in zip(lattice.tolist(), lat_alpha)]
    lat_m2 = np.array([_m2_plugin(col) for col in P_lat.T])
    var_lat = [plugin_variance(P_lat[:, k] * P_lat[:, l])
               for k, l in zip(*np.triu_indices(LATTICE_SIZE, 1))]
    H_lat = _lattice_h_star(lat_stats, lat_alpha, lat_L2, noise, lat_m2,
                            var_lat, N)
    H_lat = _fill_lattice_nan(H_lat)

    # each upper cell's canonical pair a <= b; a cell inside the band
    # takes the band boundary pair that shares its midpoint
    iu = np.triu_indices(pts.size)
    a = np.minimum(pts[iu[0]], pts[iu[1]])
    b = np.maximum(pts[iu[0]], pts[iu[1]])
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

    end_order = [_fit_order(_nearest_regularity(regs, x)[0])
                 for x in (pa, pb)]
    # interpolating lattice values that all sit on the bandwidth grid
    # cannot leave its range, so clamp away rounding noise
    h = np.clip(_bilinear(lattice, H_lat, pa, pb), hs[0], hs[-1])
    h = np.where(bandwidth_admissible(pa, pb, h), h,
                 0.5 * np.abs(pb - pa) * (1.0 - 1e-9))
    live = np.flatnonzero(h >= hs[0])
    (wa, xa, _), (wb, xb, _) = (
        _lp_fits(dataset, x[live], h[live], o[live], kernel, k0)
        for x, o in zip((pa, pb), end_order))
    # the mean product over the curves included at both ends, NaN where
    # no curve pair is
    both = wa & wb
    W = np.zeros(pa.size, dtype=int)
    W[live] = np.count_nonzero(both, axis=-1)
    gamma = np.full(pa.size, np.nan)
    with np.errstate(invalid="ignore"):
        gamma[live] = np.where(both, xa * xb, 0.0).sum(axis=-1) / W[live]
    value = gamma - mu_at(pa) * mu_at(pb)

    Gamma = value[k]
    G = np.where(in_band, Gamma + mu_at(a) * mu_at(b), gamma[k])

    def mirrored(x):
        out = np.empty((pts.size, pts.size), dtype=x.dtype)
        out[iu] = x
        out[iu[::-1]] = x
        return out

    G, Gamma, H_out, W_out, in_band = (
        mirrored(x) for x in (G, Gamma, h[k], W[k], in_band))

    undefined = np.isnan(Gamma)
    if undefined.all(axis=1).any():
        raise EstimationError(
            "covariance surface undefined along an entire row or column"
        )

    if psd_project:
        M = np.where(undefined, 0.0, Gamma)
        vals, vecs = np.linalg.eigh(M)
        M = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        Gamma = np.where(undefined, np.nan, 0.5 * (M + M.T))

    return CovarianceSurface(
        grid=pts,
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
