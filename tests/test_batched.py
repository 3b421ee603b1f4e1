"""Batched kernel calls against one call per point.

The fits evaluate their fixed-bandwidth points in blocks of one batched
kernels._window_lp_weights call each. Every sum keeps the order of a
call at one point, so the batched results must equal the per-point ones
bit for bit, whatever the block size.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import assert_same_risk, jittered_curves, noise_stub, reg_stub
from numpy.testing import assert_array_equal

from fdadapt import (
    BIWEIGHT,
    EPANECHNIKOV,
    CurveObservations,
    RegularitySchedule,
    estimate_covariance,
    estimate_mean,
    kernel_abs_moment,
    make_dataset,
    mean_risk_terms,
    presmooth_matrix,
)
from fdadapt import kernels
from fdadapt.kernels import MAX_ORDER
from fdadapt.mean import _points_stats, plugin_variance

POINT_FIELDS = ("t", "h", "alpha_exponent", "w", "W_N", "c1", "c_alpha",
                "max_abs_w", "N_i", "N_mu", "C_bar1", "xhat")


def batched_dataset(rng):
    """Jittered curves plus one curve with a gap around 0.3, so that
    some windows hold too few of its points for a fit."""
    curves = jittered_curves(rng, 7, 30, 70)
    times = np.concatenate([np.linspace(0.02, 0.28, 12),
                            np.linspace(0.33, 0.98, 30)])
    curves.append(CurveObservations(7, times,
                                    rng.standard_normal(times.size)))
    return make_dataset(curves)


class TestPointsStats:
    # one order for every point, or an order per point, all equal or
    # mixed; the mixed orders with k0 = 2 raise k0 to 3 at the order-2
    # points
    @pytest.mark.parametrize("order", [
        0, 1, 2, pytest.param(np.full(7, 1), id="uniform"),
        pytest.param(np.array([1, 0, 2, 0, 1, 2, 0]), id="mixed")])
    def test_equals_stacked_inclusion_stats(self, rng, order):
        ds = batched_dataset(rng)
        # an empty window (h below every gap at 0.305), a window whose
        # curves all hold fewer than k0 points (W = 0), windows that
        # reach past 0 and 1, and ordinary windows. The exponents avoid
        # 0.5, 1 and 2, where numpy's power takes a shortcut for a
        # scalar exponent that an array of exponents does not.
        t = np.array([0.305, 0.5, 0.03, 0.97, 0.41, 0.62, 0.2])
        h = np.array([1e-4, 0.004, 0.1, 0.08, 0.15, 0.05, 0.3])
        alpha = np.array([0.8, 1.3, 2.7, 1.7, 0.9, 3.1, 1.1])
        k0 = order + 2 if np.ndim(order) == 0 else 2
        orders = np.broadcast_to(order, t.shape)
        got = _points_stats(ds, t, h, order, BIWEIGHT, k0, alpha)
        want = [_points_stats(ds, *p, BIWEIGHT, k0, a)
                for *p, a in zip(t, h, orders.tolist(), alpha)]
        assert_array_equal(got.order, order)
        assert got.W_N[0] == 0 and got.W_N[1] == 0
        assert (got.W_N[2:] > 0).all()
        assert np.shape(got.w) == (t.size, ds.n_curves)
        for name in POINT_FIELDS:
            assert_array_equal(getattr(got, name),
                               [getattr(s, name) for s in want])


@pytest.mark.parametrize("d", [0, 1, 2])
def test_presmooth_matrix_equals_per_point_calls(rng, d):
    ds = batched_dataset(rng)
    points = np.array([0.01, 0.2, 0.305, 0.5, 0.77, 0.99])
    # too narrow at 0.305 for the order-(d + 1) fit of the gapped curve
    h = 0.02 * (d + 1)
    got = presmooth_matrix(ds, points, h, EPANECHNIKOV, d=d)
    want = np.column_stack([presmooth_matrix(ds, [p], h, EPANECHNIKOV,
                                             d=d)[:, 0] for p in points])
    assert np.isnan(got).any() and np.isfinite(got).any()
    assert_array_equal(got, want)


# anchors at polynomial orders 0 and 1
REGS = [reg_stub(0.25, 0.6, L2=0.8), reg_stub(0.5, 1.4, L2=1.5),
        reg_stub(0.75, 0.7, L2=0.5)]
GRID = np.linspace(0.05, 0.95, 13)


@pytest.mark.parametrize("approx", [False, True])
def test_estimate_mean_points_are_single_point_fits(rng, approx):
    """Each grid point against _points_stats and mean_risk_terms at its
    h_star, with the regularity of its nearest anchor."""
    ds = make_dataset(jittered_curves(rng, 12, 40, 80))
    noise = noise_stub(0.05)
    est = estimate_mean(ds, GRID, REGS, noise, use_moment_approx=approx)
    P = presmooth_matrix(ds, GRID, RegularitySchedule(
        m_hat=ds.m_hat).presmooth_bandwidth, EPANECHNIKOV)
    assert (est.W_N > 0).all()
    for j, t in enumerate(GRID):
        reg = min(REGS, key=lambda r: abs(r.anchor_t2 - t))
        order = min(math.floor(reg.alpha_hat), MAX_ORDER)
        stats = _points_stats(ds, t, est.h_star[j], order, BIWEIGHT, 2,
                              2.0 * reg.alpha_hat)
        assert est.W_N[j] == stats.W_N
        assert est.values[j] == (np.where(stats.w, stats.xhat, 0.0).sum()
                                 / stats.W_N)
        cb = kernel_abs_moment(BIWEIGHT, 2.0 * reg.alpha_hat)
        want = mean_risk_terms(stats, reg, noise, plugin_variance(P[:, j]),
                               ds.n_curves, c_bar1=cb if approx else None)
        assert_same_risk([est.risk_bias[j], est.risk_var[j],
                          est.risk_dropout[j]], want)


def fits(ds):
    """A mean, a covariance surface and a presmoothing matrix."""
    noise = noise_stub(0.05)
    mean = estimate_mean(ds, GRID, REGS, noise)
    cov = estimate_covariance(ds, GRID, GRID, REGS, noise, mean)
    return mean, cov, presmooth_matrix(ds, GRID, 0.05, EPANECHNIKOV, d=1)


def test_block_size_leaves_fits_unchanged(rng, monkeypatch):
    ds = make_dataset(jittered_curves(rng, 12, 40, 80))
    results = []
    for cap in (1, 10**9):
        monkeypatch.setattr(kernels, "_BLOCK_OBS", cap)
        results.append(fits(ds))
    for one, whole in zip(*results):
        if isinstance(one, np.ndarray):
            assert_array_equal(one, whole)
            continue
        for field in dataclasses.fields(one):
            assert_array_equal(getattr(one, field.name),
                               getattr(whole, field.name))
