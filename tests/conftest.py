from dataclasses import dataclass

import numpy as np
import pytest

from fdadapt import (
    CurveObservations,
    NoiseEstimate,
    RegularityEstimate,
    ValidationError,
    covariance_risk_terms,
    make_dataset,
    mean_risk_terms,
)
from fdadapt.mean import _effective_size


def random_curve(rng, curve_id, n_lo=5, n_hi=30):
    """A curve with sorted uniform times and standard normal values."""
    m = int(rng.integers(n_lo, n_hi + 1))
    times = np.sort(rng.uniform(0.02, 0.98, size=m))
    while np.any(np.diff(times) <= 0):
        times = np.sort(rng.uniform(0.02, 0.98, size=m))
    values = rng.standard_normal(m)
    return CurveObservations(curve_id, times, values)


def random_dataset(rng, n_curves=5, n_lo=5, n_hi=30):
    return make_dataset(
        [random_curve(rng, i, n_lo, n_hi) for i in range(n_curves)]
    )


def jittered_curves(rng, n_curves, m_lo, m_hi, first_id=0):
    """Curves on jittered regular grids: their windows hold enough evenly
    spread points for well-conditioned fits up to MAX_ORDER."""
    curves = []
    for i in range(n_curves):
        m = int(rng.integers(m_lo, m_hi + 1))
        times = (np.arange(m) + 0.5 + rng.uniform(-0.3, 0.3, m)) / m
        curves.append(
            CurveObservations(first_id + i, times, rng.standard_normal(m))
        )
    return curves


def constant_dataset(levels, times):
    """Noiseless curves that are constant in time."""
    times = np.asarray(times, dtype=float)
    curves = [
        CurveObservations(i, times.copy(), np.full(times.size, lev))
        for i, lev in enumerate(levels)
    ]
    return make_dataset(curves)


def reg_stub(t2, alpha, L2=1.0, gap=0.05):
    """A regularity estimate with prescribed alpha and scale."""
    delta = int(np.floor(alpha)) if alpha < 1.0 else int(alpha // 1)
    delta = min(delta, 2)
    H = alpha - delta
    return RegularityEstimate(
        anchor_t2=float(t2), t1=float(t2 - gap), t3=float(t2 + gap),
        H_hat=tuple([H] * (delta + 1)), delta_hat=delta,
        alpha_hat=float(alpha), L2_hat=float(L2),
        theta_hats=tuple([(1.0, 1.0, 1.0)] * (delta + 1)),
        retained_curves=1,
    )


def assert_same_risk(got, want):
    """Risk terms equal to rtol 1e-13 and infinite in the same cells."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=1e-13, atol=0)


def noise_stub(sigma2, n_grid=3):
    return NoiseEstimate(
        sigma2_grid=np.full(n_grid, float(sigma2)),
        sigma2_max=float(sigma2), K0=2,
    )


def mean_risk(stats, reg, noise, var_X, N, c_bar1=None):
    """mean_risk_terms of an inclusion record, with reg's regularity and
    noise's sigma2_max; c_bar1 replaces the record's C_bar1."""
    return mean_risk_terms(
        stats.h, stats.W_N, stats.N_mu,
        stats.C_bar1 if c_bar1 is None else c_bar1, reg.alpha_hat,
        reg.L2_hat, noise.sigma2_max, var_X, N)


@dataclass(frozen=True)
class PairStats:
    """Joint inclusion summaries of coordinate pairs (s, t), at one h or
    over a grid. A curve enters a pair only when its fit is
    non-degenerate at both coordinates. The fields with suffix ts
    describe smoothing at t over the included curves, and st smoothing
    at s. w_pair keeps the joint inclusion flags and gamma_hat the mean
    product of the two ends' fitted values."""

    s: float
    t: float
    h: float | np.ndarray
    W_pair: int | np.ndarray
    N_gamma_ts: float | np.ndarray
    N_gamma_st: float | np.ndarray
    C_bar1_ts: float | np.ndarray
    C_bar1_st: float | np.ndarray
    w_pair: np.ndarray
    gamma_hat: float | np.ndarray | None


def cov_risk(ps, reg_s, reg_t, noise, m2_s, m2_t, var_XsXt, N):
    """covariance_risk_terms of a PairStats, with the two ends'
    regularity estimates and noise's sigma2_max."""
    return covariance_risk_terms(
        ps.s, ps.t, ps.h, ps.W_pair, (ps.N_gamma_st, ps.N_gamma_ts),
        (ps.C_bar1_st, ps.C_bar1_ts), (reg_s.alpha_hat, reg_t.alpha_hat),
        (reg_s.L2_hat, reg_t.L2_hat), (m2_s, m2_t), noise.sigma2_max,
        var_XsXt, N)


def combine_pair_stats(stats_s, stats_t):
    """The per-pair reference: two inclusion records at s and t composed
    into the pair's record, at one h or over a grid (gamma_hat is NaN
    where no pair is included, and None when either record has no
    xhat). The package scores lattice pairs by matrix products and
    evaluates surface pairs from their point records."""
    if not np.array_equal(stats_s.h, stats_t.h):
        raise ValidationError("pair stats need a common bandwidth")
    w_pair = stats_s.w & stats_t.w
    W_pair = np.count_nonzero(w_pair, axis=-1)

    def included_sum(x):
        return np.where(w_pair, x, 0.0).sum(axis=-1)

    def direction(stats):
        return _effective_size(W_pair,
                               included_sum(stats.c1 * stats.max_abs_w),
                               included_sum(stats.c1 * stats.c_alpha))

    n_ts, cb_ts = direction(stats_t)
    n_st, cb_st = direction(stats_s)
    gamma_hat = None
    if stats_s.xhat is not None and stats_t.xhat is not None:
        prod_sum = included_sum(stats_s.xhat * stats_t.xhat)
        gamma_hat = np.where(W_pair > 0, prod_sum / np.maximum(W_pair, 1),
                             np.nan)[()]
    return PairStats(
        s=stats_s.t, t=stats_t.t, h=stats_s.h, w_pair=w_pair,
        W_pair=W_pair, N_gamma_ts=n_ts, N_gamma_st=n_st,
        C_bar1_ts=cb_ts, C_bar1_st=cb_st, gamma_hat=gamma_hat,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
