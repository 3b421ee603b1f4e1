"""Local regularity estimation from presmoothed increments.

The exponent is read off the ratio of mean squared increments of
presmoothed curves at two nested gaps around an anchor point. The gap
and threshold schedules shrink slowly with the average number of
observations per curve, so the procedure is fully data-driven.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, InsufficientDataError, ValidationError
from .kernels import _lp_fits

H_CLIP_LO = 0.05
H_CLIP_HI = 1.0


@dataclass(frozen=True)
class RegularitySchedule:
    """Gap, threshold, and presmoothing bandwidth as functions of the
    average observation count m_hat.

    delta_star is the outer increment gap, phi the threshold deciding
    how many derivatives to strip before reading the exponent. The
    default presmoothing bandwidth is the cube root of
    (inner gap) / m_hat^2, which keeps the smoothing window well below
    the probed gap while its expected point count still grows.
    """

    m_hat: float
    gamma: float = 0.5
    big_gamma: float = 2.0
    delta_max: int = 2
    presmooth_bandwidth: float = None
    delta_star: float = field(init=False)
    phi: float = field(init=False)

    def __post_init__(self):
        if self.m_hat < 3.0:
            raise ValidationError("schedule needs m_hat >= 3")
        if not 0.0 < self.gamma < 1.0:
            raise ValidationError("gamma must lie in (0,1)")
        if self.big_gamma <= 0.0:
            raise ValidationError("big_gamma must be positive")
        if self.delta_max < 0:
            raise ValidationError("delta_max must be nonnegative")
        lm = math.log(self.m_hat)
        object.__setattr__(self, "delta_star", 2.0 * math.exp(-(lm**self.gamma)))
        object.__setattr__(self, "phi", lm ** (-self.big_gamma))
        if self.presmooth_bandwidth is None:
            h = (self.delta_star / (4.0 * self.m_hat**2)) ** (1.0 / 3.0)
            object.__setattr__(self, "presmooth_bandwidth", h)
        if self.presmooth_bandwidth <= 0.0:
            raise ValidationError("presmooth bandwidth must be positive")


def presmooth_matrix(dataset, points, h, kernel, d=0):
    """Presmoothed curve values (or d-th derivatives) at given points.

    Returns an (N, P) array with NaN where a curve's estimate is
    undefined. d=0 is Nadaraya-Watson; d>=1 extracts the d-th
    derivative from an order-(d+1) local polynomial fit. Both take the
    window [p-h, p+h] of kernels._lp_fits; a curve with fewer than
    order + 1 points in it or a degenerate fit yields NaN.
    """
    order = d + 1 if d else 0
    return _lp_fits(dataset, np.asarray(points, dtype=float), h, order,
                    kernel, order + 1, deriv=d)[1].T


def estimate_H(theta_13, theta_12):
    """Exponent from the ratio of outer to inner mean squared increments,
    clipped to [0.05, 1.0]."""
    if not (0.0 < theta_13 < math.inf and 0.0 < theta_12 < math.inf):
        raise EstimationError(
            "degenerate increments: mean squared increments must be positive "
            "and finite"
        )
    raw = (math.log(theta_13) - math.log(theta_12)) / (2.0 * math.log(2.0))
    return min(max(raw, H_CLIP_LO), H_CLIP_HI)


def estimate_L2(theta_23, theta_12, t1, t2, t3, alpha_hat, delta_hat):
    """Plug-in scale constant of the local power law at the anchor."""
    if not t1 < t2 < t3:
        raise ValidationError("need t1 < t2 < t3")
    if not (theta_23 > 0.0 and theta_12 > 0.0):
        raise ValidationError("theta values must be positive")
    expo = 2.0 * (alpha_hat - delta_hat)
    return 0.5 * (
        theta_23 / abs(t3 - t2) ** expo + theta_12 / abs(t2 - t1) ** expo
    )


@dataclass(frozen=True)
class RegularityEstimate:
    """Local regularity at one anchor: derivative count delta_hat plus
    the exponent of that derivative, and the plug-in scale constant."""

    anchor_t2: float
    t1: float
    t3: float
    H_hat: tuple
    delta_hat: int
    alpha_hat: float
    L2_hat: float
    theta_hats: tuple  # per d: (theta_12, theta_23, theta_13)
    retained_curves: int


def estimate_regularity(dataset, anchor_t2, schedule, kernel="epanechnikov"):
    """Full regularity estimate at one anchor.

    For each derivative order d the three presmoothed values around the
    anchor are computed on the same retained-curve set, the exponent is
    read off the increment ratio, and d advances while the exponent
    stays above 1 - phi (up to delta_max).
    """
    gap = schedule.delta_star / 4.0
    t1 = anchor_t2 - gap
    t3 = anchor_t2 + gap
    if t1 <= 0.0 or t3 >= 1.0:
        raise ValidationError(
            f"anchor {anchor_t2} too close to the boundary for gap {gap}"
        )
    threshold = 1.0 - schedule.phi

    H_list = []
    theta_list = []
    retained_list = []
    delta_hat = schedule.delta_max
    for d in range(schedule.delta_max + 1):
        P = presmooth_matrix(
            dataset,
            [t1, anchor_t2, t3],
            schedule.presmooth_bandwidth,
            kernel,
            d=d,
        )
        ok = np.isfinite(P).all(axis=1)
        retained = int(ok.sum())
        if retained == 0:
            raise InsufficientDataError(
                f"no curve has defined order-{d} presmoothed values at the "
                f"anchor triple around {anchor_t2}",
                retained=0,
            )
        d12 = P[ok, 1] - P[ok, 0]
        d23 = P[ok, 2] - P[ok, 1]
        d13 = P[ok, 2] - P[ok, 0]
        # a square that overflows is inf, which estimate_H rejects
        with np.errstate(over="ignore"):
            th = (
                float(np.mean(d12 * d12)),
                float(np.mean(d23 * d23)),
                float(np.mean(d13 * d13)),
            )
        H_d = estimate_H(th[2], th[0])
        H_list.append(H_d)
        theta_list.append(th)
        retained_list.append(retained)
        if H_d < threshold:
            delta_hat = d
            break

    th12, th23, _ = theta_list[delta_hat]
    if not 0.0 < th23 < math.inf:
        raise EstimationError(
            "degenerate increments: the mean squared increment theta_23 "
            "must be positive and finite"
        )
    alpha_hat = delta_hat + H_list[delta_hat]
    L2_hat = estimate_L2(th23, th12, t1, anchor_t2, t3, alpha_hat, delta_hat)
    return RegularityEstimate(
        anchor_t2=float(anchor_t2),
        t1=float(t1),
        t3=float(t3),
        H_hat=tuple(H_list),
        delta_hat=int(delta_hat),
        alpha_hat=float(alpha_hat),
        L2_hat=float(L2_hat),
        theta_hats=tuple(theta_list),
        retained_curves=retained_list[delta_hat],
    )


def anchor_points(n, lo=0.05, hi=0.95):
    """n anchors spread over [lo, hi] (midpoint when n = 1)."""
    if n < 1:
        raise ValidationError("need at least one anchor")
    if not 0.0 < lo < hi < 1.0:
        raise ValidationError("anchor range must satisfy 0 < lo < hi < 1")
    if n == 1:
        return np.array([(lo + hi) / 2.0])
    return np.linspace(lo, hi, n)


def feasible_anchor_bounds(schedule, lo=0.05, hi=0.95):
    """Shrink an anchor range so the increment triple fits in (0, 1).

    The triple around an anchor spans delta_star / 4 on each side;
    anchors closer to a boundary than that cannot be evaluated.
    """
    margin = schedule.delta_star / 4.0 + 1e-9
    lo2, hi2 = max(lo, margin), min(hi, 1.0 - margin)
    if not lo2 < hi2:
        raise ValidationError(
            "no feasible anchor range: the increment gap "
            f"{schedule.delta_star} spans the whole domain"
        )
    return lo2, hi2


def regularity_at_anchors(dataset, schedule, n_anchors, lo=0.05, hi=0.95,
                          kernel="epanechnikov"):
    """Regularity at n_anchors points spread over the feasible part of
    [lo, hi].

    An anchor whose estimate raises EstimationError (too few curves
    with defined presmoothed values, degenerate increments) is dropped.
    Returns (estimates, dropped), dropped holding (anchor, error) pairs;
    raises EstimationError only when every anchor fails.
    """
    lo, hi = feasible_anchor_bounds(schedule, lo=lo, hi=hi)
    regs, dropped = [], []
    for t2 in anchor_points(n_anchors, lo=lo, hi=hi):
        try:
            regs.append(estimate_regularity(dataset, t2, schedule, kernel))
        except EstimationError as exc:
            dropped.append((float(t2), exc))
    if not regs:
        raise EstimationError(
            f"regularity estimation failed at all {len(dropped)} anchors; "
            f"first error: {dropped[0][1]}"
        )
    return tuple(regs), tuple(dropped)


def noise_k0(m_hat):
    """Window size for the time-varying noise estimator."""
    if m_hat < 3.0:
        raise ValidationError("noise window rule needs m_hat >= 3")
    return max(2, math.floor(
        m_hat * math.exp(-(math.log(math.log(m_hat)) ** 2))))


@dataclass(frozen=True)
class NoiseEstimate:
    """Noise variance on a grid plus its maximum and the window size."""

    sigma2_grid: np.ndarray
    sigma2_max: float
    K0: int


NOISE_CONSTANT = "constant"
NOISE_TIME_VARYING = "time_varying"


def estimate_noise(dataset, grid, mode=NOISE_CONSTANT):
    """Noise variance from halved squared first differences.

    Constant mode pools all consecutive differences of every curve;
    time-varying mode restricts, per grid point, to the K0 differences
    whose times are nearest.
    """
    mode = str(mode).replace("-", "_")
    if mode not in (NOISE_CONSTANT, NOISE_TIME_VARYING):
        raise ValidationError(f"unknown noise mode {mode!r}")
    if (dataset.lengths < 2).any():
        raise ValidationError("noise estimation needs at least 2 points per curve")
    pts = np.asarray(grid, dtype=float)
    K0 = noise_k0(dataset.m_hat)

    # each curve's squared differences: a slice of those of the flat
    # values, which skips the difference across each curve boundary.
    # Every slice is summed on its own, so each sum keeps its order.
    d2_flat = np.diff(dataset.values_flat) ** 2
    ends = np.cumsum(dataset.lengths)
    spans = list(zip((ends - dataset.lengths).tolist(), (ends - 1).tolist()))
    if mode == NOISE_CONSTANT:
        acc = 0.0
        for a, b in spans:
            d2 = d2_flat[a:b]
            acc += d2.sum() / (2.0 * d2.size)
        val = acc / dataset.n_curves
        grid_vals = np.full(pts.size, val)
        return NoiseEstimate(
            sigma2_grid=grid_vals, sigma2_max=float(val), K0=K0
        )

    acc = np.zeros(pts.size)
    for a, b in spans:
        d2 = d2_flat[a:b]
        dt = dataset.times_flat[a + 1:b + 1]
        kk = min(K0, d2.size)
        dist = np.abs(dt[None, :] - pts[:, None])
        sel = np.argsort(dist, axis=1, kind="stable")[:, :kk]
        acc += np.take(d2, sel).sum(axis=1) / (2.0 * kk)
    grid_vals = acc / dataset.n_curves
    return NoiseEstimate(
        sigma2_grid=grid_vals, sigma2_max=float(grid_vals.max()), K0=K0
    )
