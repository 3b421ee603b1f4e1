"""Batched kernel calls against one call per point.

kernels._lp_fits splits the fixed-bandwidth points of a fit into runs of
one batched kernels._window_lp_weights call each. Every sum keeps the
order of a call at one point, so the batched results must equal the
per-point ones bit for bit, whatever the run size.
"""

import dataclasses

import numpy as np
import pytest
from conftest import (
    assert_same_risk,
    jittered_curves,
    mean_risk,
    noise_stub,
    reg_stub,
)
from numpy.testing import assert_array_equal

from fdadapt import (
    BIWEIGHT,
    EPANECHNIKOV,
    BandwidthGrid,
    CurveObservations,
    RegularitySchedule,
    estimate_covariance,
    estimate_mean,
    inclusion_stats_over_grid,
    kernel_abs_moment,
    make_dataset,
    presmooth_matrix,
)
from fdadapt import kernels
from fdadapt.kernels import MAX_ORDER
from fdadapt.mean import (_fit_order, _nearest_regularity, _points_stats,
                          plugin_variance)

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
    # the regularity estimates order + frac set one order for every
    # point, or an order per point, all equal or mixed; with k0 = 2 the
    # mixed orders raise k0 to 3 at the order-2 points. "capped" mixes
    # regularities on both sides of 1 and 2 with one past MAX_ORDER + 1,
    # whose order is capped at MAX_ORDER.
    @pytest.mark.parametrize("order", [
        0, 1, 2, pytest.param(np.full(7, 1), id="uniform"),
        pytest.param(np.array([1, 0, 2, 0, 1, 2, 0]), id="mixed"),
        pytest.param(np.array([1, 0, MAX_ORDER + 1, 0, 1, 2, 1]),
                     id="capped")])
    def test_equals_stacked_inclusion_stats(self, rng, order):
        ds = batched_dataset(rng)
        # an empty window (h below every gap at 0.305), a window whose
        # curves all hold fewer than k0 points (W = 0), windows that
        # reach past 0 and 1, and ordinary windows. The exponents
        # 2 alpha_hat avoid 0.5, 1 and 2, where numpy's power takes a
        # shortcut for a scalar exponent that an array of exponents does
        # not.
        t = np.array([0.305, 0.5, 0.03, 0.97, 0.41, 0.62, 0.2])
        h = np.array([1e-4, 0.004, 0.1, 0.08, 0.15, 0.05, 0.3])
        alpha_hat = order + np.array([0.4, 0.65, 0.35, 0.85, 0.45, 0.55,
                                      0.15])
        if np.ndim(order) and order[2] > MAX_ORDER:
            alpha_hat[[1, 5, 6]] = (np.nextafter(1.0, 0.0), 2.0,
                                    np.nextafter(2.0, 0.0))
        k0 = order + 2 if np.ndim(order) == 0 else 2
        got = _points_stats(ds, t, h, alpha_hat, BIWEIGHT, k0)
        want = [_points_stats(ds, *p, BIWEIGHT, k0)
                for p in zip(t, h, alpha_hat)]
        assert_array_equal(got.order, np.minimum(order, MAX_ORDER))
        assert_array_equal(got.alpha_exponent, 2.0 * alpha_hat)
        assert got.W_N[0] == 0 and got.W_N[1] == 0
        assert (got.W_N[2:] > 0).all()
        assert np.shape(got.w) == (t.size, ds.n_curves)
        for name in POINT_FIELDS:
            assert_array_equal(getattr(got, name),
                               [getattr(s, name) for s in want])


def test_surface_fits_are_the_point_records(rng):
    """The covariance surface's kernels._lp_fits on a block that mixes
    orders 0 and 1 gives _points_stats' w and xhat bit for bit, both
    batched and at each point alone."""
    ds = batched_dataset(rng)
    t = np.array([0.305, 0.5, 0.03, 0.97, 0.41, 0.62, 0.2, 0.33])
    h = np.array([1e-4, 0.004, 0.1, 0.08, 0.15, 0.05, 0.3, 0.06])
    order = np.array([0, 1, 1, 0, 0, 1, 0, 1])
    w, xhat, extra = kernels._lp_fits(ds, t, h, order, BIWEIGHT, 2)
    got = _points_stats(ds, t, h, order + 0.65, BIWEIGHT, 2)
    alone = [_points_stats(ds, *p, BIWEIGHT, 2)
             for p in zip(t, h, order + 0.65)]
    assert extra is None
    assert w.any() and not w.all()
    assert np.isfinite(xhat[w]).all() and np.isnan(xhat[~w]).all()
    for want_w, want_x in ((got.w, got.xhat),
                           (np.array([s.w for s in alone]),
                            np.array([s.xhat for s in alone]))):
        assert_array_equal(w, want_w)
        assert_array_equal(xhat.view(np.int64), want_x.view(np.int64))


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
    h_star, with the regularity of its nearest anchor. The second anchor
    set caps an order at MAX_ORDER, and its two anchors sit equally near
    GRID[5] (exactly, in floats), which takes the earlier one."""
    ds = make_dataset(jittered_curves(rng, 12, 40, 80))
    noise = noise_stub(0.05)
    P = presmooth_matrix(ds, GRID, RegularitySchedule(
        m_hat=ds.m_hat).presmooth_bandwidth, EPANECHNIKOV)
    capped_tie = [reg_stub(GRID[1], 0.6, L2=0.8),
                  reg_stub(GRID[9], MAX_ORDER + 1.3, L2=1.5)]
    assert GRID[5] - GRID[1] == GRID[9] - GRID[5]
    for regs in (REGS, capped_tie):
        est = estimate_mean(ds, GRID, regs, noise, use_moment_approx=approx)
        assert (est.W_N > 0).all()
        for j, t in enumerate(GRID):
            # min keeps the first of equally near anchors, the earlier one
            reg = min(regs, key=lambda r: abs(r.anchor_t2 - t))
            stats = _points_stats(ds, t, est.h_star[j], reg.alpha_hat,
                                  BIWEIGHT, 2)
            assert est.W_N[j] == stats.W_N
            assert est.values[j] == (
                np.where(stats.w, stats.xhat, 0.0).sum() / stats.W_N)
            cb = kernel_abs_moment(BIWEIGHT, 2.0 * reg.alpha_hat)
            want = mean_risk(stats, reg, noise, plugin_variance(P[:, j]),
                             ds.n_curves, c_bar1=cb if approx else None)
            assert_same_risk([est.risk_bias[j], est.risk_var[j],
                              est.risk_dropout[j]], want)


def fits(ds):
    """A mean, a covariance surface whose pair ends mix orders 0 and 1,
    order-1 and order-2 grid records, a presmoothing matrix, and last
    the fits of calls with no points."""
    noise = noise_stub(0.05)
    mean = estimate_mean(ds, GRID, REGS, noise)
    hs = BandwidthGrid(0.01, 0.5, 41).values()
    none = np.array([])
    return [mean, estimate_covariance(ds, GRID, REGS, noise, mean),
            *(inclusion_stats_over_grid(ds, 0.5, hs, o + 0.25, BIWEIGHT, 2)
              for o in (1, 2)),
            presmooth_matrix(ds, GRID, 0.05, EPANECHNIKOV, d=1),
            *kernels._lp_fits(ds, none, none, 1, BIWEIGHT, 2)[:2],
            _points_stats(ds, none, none, 1.65, BIWEIGHT, 2),
            presmooth_matrix(ds, none, 0.05, EPANECHNIKOV)]


def test_block_size_leaves_fits_unchanged(rng, monkeypatch):
    ds = make_dataset(jittered_curves(rng, 12, 40, 80))
    assert set(_fit_order(_nearest_regularity(REGS, GRID)[0])) == {0, 1}
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
    *_, w, xhat, stats, P = results[0]
    assert w.shape == xhat.shape == stats.w.shape == (0, ds.n_curves)
    assert P.shape == (ds.n_curves, 0)
