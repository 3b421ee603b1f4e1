import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    assert_same_risk,
    constant_dataset,
    jittered_curves,
    mean_risk,
    noise_stub,
    random_dataset,
    reg_stub,
)
from lp_oracle import lp_coefficient_weights
from numpy.testing import assert_allclose, assert_array_equal
from one_pass_sweep import one_pass_sweep

from fdadapt import (
    BIWEIGHT,
    EPANECHNIKOV,
    UNIFORM,
    BandwidthGrid,
    CurveObservations,
    EstimationError,
    InsufficientDataError,
    RegularitySchedule,
    ValidationError,
    estimate_mean,
    estimate_noise,
    inclusion_stats_over_grid,
    ingest_long_csv,
    kernel_abs_moment,
    make_dataset,
    mean_risk_terms,
    presmooth_matrix,
    regularity_at_anchors,
    select_mean_bandwidth,
)
from fdadapt.kernels import MAX_ORDER, _window_lp_weights
from fdadapt.mean import (_FIRST_RUN, _core_bound, _fit_order, _grid_runs,
                          _points_stats, _v_searchsorted, plugin_variance)


def common_dataset(rng, n_curves, m):
    times = np.arange(1, m + 1) / (m + 1)
    curves = [
        CurveObservations(i, times, rng.standard_normal(m))
        for i in range(n_curves)
    ]
    return make_dataset(curves)


class TestBandwidthGrid:
    def test_values_are_geometric(self):
        g = BandwidthGrid(0.01, 0.16, count=5)
        assert_allclose(g.values(), [0.01, 0.02, 0.04, 0.08, 0.16],
                        rtol=1e-12)

    def test_defaults(self):
        gm = BandwidthGrid.default_mean(50)
        assert gm.h_min == 1.0 / 50
        assert gm.h_max == 0.5
        gc = BandwidthGrid.default_cov()
        assert (gc.h_min, gc.h_max, gc.count) == (0.01, 0.1, 41)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BandwidthGrid(0.2, 0.1)
        with pytest.raises(ValidationError):
            BandwidthGrid(0.0, 0.1)
        with pytest.raises(ValidationError):
            BandwidthGrid(0.01, 0.1, count=1)


class TestInclusionStats:
    def test_order0_matches_hand_weights(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n_curves=6)
            t = float(rng.uniform(0.2, 0.8))
            h = float(rng.uniform(0.05, 0.3))
            k0 = 2
            alpha = float(rng.uniform(0.5, 2.0))
            # alpha, the exponent of c_alpha, is twice the regularity
            stats = _points_stats(ds, t, h, alpha / 2, BIWEIGHT, k0)
            assert (stats.order, stats.alpha_exponent) == (0, alpha)
            for i, c in enumerate(ds.curves):
                u = (c.times - t) / h
                K = BIWEIGHT(u)
                S = K.sum()
                count = int((np.abs(u) <= 1.0).sum())
                want_in = count >= k0 and S > 0.0
                assert stats.w[i] == want_in
                if not want_in:
                    assert stats.c1[i] == 0.0
                    assert np.isnan(stats.xhat[i])
                    continue
                wts = K / S
                assert stats.c1[i] == 1.0
                assert_allclose(stats.c_alpha[i],
                                (wts * np.abs(u) ** alpha).sum(),
                                rtol=1e-12)
                assert_allclose(stats.max_abs_w[i], wts.max(), rtol=1e-12)
                assert_allclose(stats.N_i[i], 1.0 / wts.max(), rtol=1e-12)
                assert_allclose(stats.xhat[i], wts @ c.values, rtol=1e-12)
            inc = stats.w
            if stats.W_N:
                denom = (stats.c1[inc] * stats.max_abs_w[inc]).sum()
                assert_allclose(stats.N_mu, stats.W_N**2 / denom,
                                rtol=1e-12)
                assert_allclose(
                    stats.C_bar1,
                    (stats.c1[inc] * stats.c_alpha[inc]).sum() / stats.W_N,
                    rtol=1e-12,
                )

    def test_local_linear_matches_coefficient_weights(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, n_curves=4, n_lo=12, n_hi=25)
            t = float(rng.uniform(0.3, 0.7))
            h = float(rng.uniform(0.15, 0.3))
            stats = _points_stats(ds, t, h, 1.6, BIWEIGHT, 3)
            for i, c in enumerate(ds.curves):
                lw = lp_coefficient_weights(c.times, t, h, 1, BIWEIGHT, 3)
                assert stats.w[i] == (not lw.degenerate)
                if lw.degenerate:
                    continue
                aw = np.abs(lw.weights)
                assert_allclose(stats.c1[i], aw.sum(), rtol=1e-12)
                assert_allclose(stats.max_abs_w[i], aw.max(), rtol=1e-12)
                assert_allclose(stats.xhat[i],
                                lw.weights @ c.values[lw.indices],
                                rtol=1e-10)

    def test_sparse_window_excluded(self):
        times = np.array([0.1, 0.5, 0.9])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(3)) for i in range(2)]
        )
        stats = _points_stats(ds, 0.5, 0.05, 0.5, BIWEIGHT, 2)
        assert stats.W_N == 0
        assert not stats.w.any()
        assert stats.N_mu == 0.0

    def test_validation(self, rng):
        ds = random_dataset(rng)
        with pytest.raises(ValidationError):
            _points_stats(ds, 0.5, 0.0, 0.5, BIWEIGHT, 2)
        with pytest.raises(ValidationError):
            _window_lp_weights(ds, 0.5, 0.1, 1, BIWEIGHT, 1)
        # a negative regularity sets order -1
        with pytest.raises(ValidationError):
            _points_stats(ds, 0.5, 0.1, -0.5, BIWEIGHT, 2)
        # _fit_order caps the order, so only a direct kernel call can ask
        # for one above MAX_ORDER
        with pytest.raises(ValidationError):
            _window_lp_weights(ds, 0.5, 0.1, MAX_ORDER + 1, BIWEIGHT,
                               MAX_ORDER + 2)


BELOW_1, BELOW_2 = np.nextafter(1.0, 0.0), np.nextafter(2.0, 0.0)


def assert_same_record(got, want):
    """Two InclusionStats equal field by field, bit for bit."""
    for field in dataclasses.fields(got):
        assert_array_equal(getattr(got, field.name),
                           getattr(want, field.name))


class TestFitOrder:
    """The regularity estimate alpha_hat sets the polynomial order
    min(floor(alpha_hat), MAX_ORDER) and the exponent 2 alpha_hat of
    every record, on the grid path and on the point path."""

    @pytest.mark.parametrize("alpha_hat, order", [
        (BELOW_1, 0), (1.0, 1), (BELOW_2, 1), (2.0, 2)])
    def test_order_steps_at_each_integer(self, rng, alpha_hat, order):
        ds = make_dataset(jittered_curves(rng, 6, 40, 80))
        hs = BandwidthGrid(0.05, 0.4, 11).values()
        assert _fit_order(alpha_hat) == order
        for stats in (inclusion_stats_over_grid(ds, 0.5, hs, alpha_hat,
                                                BIWEIGHT, 2),
                      _points_stats(ds, 0.5, 0.2, alpha_hat, BIWEIGHT, 2)):
            assert stats.order == order
            assert stats.alpha_exponent == 2.0 * alpha_hat
            assert stats.W_N.all()

    @pytest.mark.parametrize("alpha_hat", [MAX_ORDER + 1.0, MAX_ORDER + 2.7])
    def test_order_is_capped_and_the_exponent_is_not(self, rng, alpha_hat):
        ds = make_dataset(jittered_curves(rng, 6, 40, 80))
        hs = BandwidthGrid(0.1, 0.4, 5).values()
        assert_array_equal(_fit_order([alpha_hat, MAX_ORDER + 0.5]),
                           [MAX_ORDER, MAX_ORDER])
        # c_alpha against a per-curve rebuild at the exponent 2 alpha_hat
        stats = TestInclusionStatsOracle.check(ds, 0.5, 0.3, alpha_hat,
                                               MAX_ORDER + 1)
        assert stats.W_N > 0
        # the fit is the one at MAX_ORDER; only c_alpha's exponent differs
        fit = _points_stats(ds, 0.5, 0.3, MAX_ORDER + 0.5, BIWEIGHT, 2)
        for name in ("w", "c1", "max_abs_w", "xhat"):
            assert_array_equal(getattr(stats, name), getattr(fit, name))
        grid = inclusion_stats_over_grid(ds, 0.5, hs, alpha_hat, BIWEIGHT, 2)
        assert grid.order == MAX_ORDER
        assert grid.alpha_exponent == 2.0 * alpha_hat

    @pytest.mark.parametrize("alpha_hat", [1.0, 1.65, BELOW_2, 2.0, 2.65])
    def test_low_k0_is_raised(self, rng, alpha_hat):
        # a k0 from 1 to order gives the record of k0 = order + 1
        ds = edge_dataset(rng)
        hs = BandwidthGrid(0.05, 0.4, 21).values()
        order = min(math.floor(alpha_hat), MAX_ORDER)
        for h, stats in ((hs, inclusion_stats_over_grid),
                         (hs[7], _points_stats)):
            want = stats(ds, 0.5, h, alpha_hat, BIWEIGHT, order + 1)
            assert np.any(want.W_N)
            for k0 in range(1, order + 1):
                assert_same_record(
                    stats(ds, 0.5, h, alpha_hat, BIWEIGHT, k0), want)


def edge_dataset(rng):
    """Curves for the window (0.5, 0.25) that hit the edge cases.

    Curve 0 has observations exactly at t - h and t + h. Curve 1 has
    three points in the window, two of them on its edges: they count
    toward k0 but carry zero biweight weight. Curve 2 has four points
    in the window, two on its edges, so its order-2 moment matrix has
    rank 2 and fails the singularity test while its order-1 fit does
    not. Curve 3 has an empty window and curve 4 a single point in it.
    """
    fixed = [
        np.linspace(0.25, 0.75, 11),
        np.array([0.25, 0.5, 0.75]),
        np.array([0.25, 0.5, 0.625, 0.75]),
        np.array([0.05, 0.1, 0.9, 0.95]),
        np.array([0.3, 0.9]),
    ]
    curves = [CurveObservations(i, ts, rng.standard_normal(ts.size))
              for i, ts in enumerate(fixed)]
    return make_dataset(curves + jittered_curves(rng, 6, 40, 80, 5))


class TestInclusionStatsOracle:
    """Every summary against a per-curve rebuild from
    lp_coefficient_weights, at every polynomial order."""

    @staticmethod
    def check(ds, t, h, alpha_hat, k0):
        order, alpha = min(math.floor(alpha_hat), MAX_ORDER), 2 * alpha_hat
        stats = _points_stats(ds, t, h, alpha_hat, BIWEIGHT, k0)
        assert (stats.order, stats.alpha_exponent) == (order, alpha)
        for i, c in enumerate(ds.curves):
            lw = lp_coefficient_weights(c.times, t, h, order, BIWEIGHT, k0)
            assert stats.w[i] == (not lw.degenerate)
            if lw.degenerate:
                assert stats.c1[i] == stats.c_alpha[i] == 0.0
                assert stats.max_abs_w[i] == 0.0
                assert np.isnan(stats.xhat[i])
                continue
            aw = np.abs(lw.weights)
            z = np.abs((c.times[lw.indices] - t) / h)
            assert_allclose(stats.c1[i], aw.sum(), rtol=1e-12)
            assert_allclose(stats.c_alpha[i], (aw * z**alpha).sum(),
                            rtol=1e-12)
            assert_allclose(stats.max_abs_w[i], aw.max(), rtol=1e-12)
            assert_allclose(stats.xhat[i],
                            lw.weights @ c.values[lw.indices], rtol=1e-10)
        return stats

    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_edge_cases(self, rng, order):
        ds = edge_dataset(rng)
        k0 = max(3, order + 1)
        stats = self.check(ds, 0.5, 0.25, order + 0.65, k0)
        assert stats.w[0] and stats.w[5:].all()
        assert stats.w[1] == (order == 0)
        assert stats.w[2] == (order <= 1)
        assert not stats.w[3] and not stats.w[4]
        if order == 2:
            lw = lp_coefficient_weights(ds.curves[2].times, 0.5, 0.25, 2,
                                        BIWEIGHT, k0)
            assert lw.degenerate and lw.in_window >= k0

    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_inner_and_clipped_windows(self, rng, order):
        for _ in range(4):
            ds = make_dataset(jittered_curves(rng, 8, 40, 80))
            # the last two windows stick out of (0, 1)
            for t, h in ((float(rng.uniform(0.3, 0.7)),
                          float(rng.uniform(0.15, 0.3))),
                         (0.1, 0.15), (0.9, 0.15)):
                self.check(ds, t, h, order + float(rng.uniform(0.0, 1.0)),
                           order + 1)

    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_common_design(self, rng, order):
        ds = common_dataset(rng, 6, 50)
        stats = self.check(ds, 0.5, 0.2, order + 0.55, order + 1)
        assert stats.W_N == 6


def lifted(curves):
    """The curves with values 1 + |y|."""
    return make_dataset([
        CurveObservations(c.curve_id, c.times, 1.0 + np.abs(c.values))
        for c in curves
    ])


def grid_row(grid, k):
    """Row k of a grid record of inclusion_stats_over_grid."""
    return dataclasses.replace(grid, **{
        name: getattr(grid, name)[k]
        for name in ("h", "w", "W_N", "c1", "c_alpha", "max_abs_w", "N_mu",
                     "C_bar1")})


class TestInclusionStatsOverGrid:
    """Every entry of the grid sweep against _points_stats at its h."""

    @staticmethod
    def check(ds, t, hs, alpha_hat, kernel, k0, rtol=1e-12):
        grid = inclusion_stats_over_grid(ds, t, hs, alpha_hat, kernel, k0)
        n_h, n = len(hs), ds.n_curves
        for name in ("h", "W_N", "N_mu", "C_bar1"):
            assert np.shape(getattr(grid, name)) == (n_h,)
        for name in ("w", "c1", "c_alpha", "max_abs_w", "N_i"):
            assert np.shape(getattr(grid, name)) == (n_h, n)
        for k, h in enumerate(hs):
            got = grid_row(grid, k)
            want = _points_stats(ds, t, h, alpha_hat, kernel, k0)
            assert (got.t, got.h, got.order, got.alpha_exponent) == (
                want.t, want.h, want.order, want.alpha_exponent)
            assert_array_equal(got.w, want.w)
            assert got.W_N == want.W_N
            assert_array_equal(got.c1, want.c1)
            for name in ("c_alpha", "max_abs_w", "N_i", "N_mu", "C_bar1"):
                if rtol == 0:
                    assert_array_equal(getattr(got, name),
                                       getattr(want, name))
                else:
                    assert_allclose(getattr(got, name), getattr(want, name),
                                    rtol=rtol, atol=0)
        return grid

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_kernels_inner_and_clipped_windows(self, rng, kernel):
        ds = lifted(jittered_curves(rng, 8, 40, 80))
        hs = BandwidthGrid(0.01, 0.3, 151).values()
        # the windows at 0.1 and 0.9 stick out of (0, 1) from h = 0.1 on
        for t in (0.1, float(rng.uniform(0.3, 0.7)), 0.9):
            grid = self.check(ds, t, hs, float(rng.uniform(0.25, 1.0)),
                              kernel, 2)
            assert grid.W_N[0] < grid.W_N[-1] == 8

    def test_common_design_tied_times(self, rng):
        ds = lifted(common_dataset(rng, 6, 50).curves)
        hs = BandwidthGrid(0.005, 0.4, 61).values()
        grid = self.check(ds, 0.43, hs, 0.55, BIWEIGHT, 2)
        assert set(grid.W_N) == {0, 6}

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_observations_on_window_edges(self, rng, kernel):
        # dyadic t and bandwidths, so |T - t| equals hs[k] exactly
        t, hs = 0.5, np.arange(1, 33) / 64.0
        edges = [
            # both edges of the windows k = 3, 8 and 15, and inner points
            t + np.array([-16, -9, -4, -1, 2, 4, 9, 16]) / 64.0,
            # its k0 = 2 in-window points at k = 4 sit on the edge, K = 0
            t + np.array([-5, 5, 20]) / 64.0,
            # at k = 0 an edge point and the centre: the edge point
            # counts toward k0
            np.array([t - 1 / 64.0, t]),
            # at k = 6 two points just inside the edges, where K is about
            # 4e-8 and its polynomial form in z^2 would cancel
            np.array([t - 7 / 64.0 * (1 - 2.0**-12),
                      t + 7 / 64.0 * (1 - 2.0**-12), 0.95]),
        ]
        curves = [CurveObservations(i, ts, rng.standard_normal(ts.size))
                  for i, ts in enumerate(edges)]
        ds = lifted(curves + jittered_curves(rng, 4, 30, 60, len(curves)))
        grid = self.check(ds, t, hs, 0.85, kernel, 2)
        on_edge = grid.w[4, 1]
        assert on_edge == (kernel is UNIFORM)
        assert grid.W_N[4] == 6 + on_edge
        assert grid.w[0, 2]
        assert grid.w[6, 3] and not grid.w[5, 3]

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_observations_at_core_bound(self, rng, kernel):
        # dyadic t and bandwidths; at hs[k] of k = 3, 10 and 20 points just
        # outside and just inside c hs[k], where the sweep switches from
        # evaluating K directly to cumulative sums, and points at
        # hs[k] (1 - 2^-12), where K is nearly zero
        t, hs = 0.5, np.arange(1, 33) / 64.0
        c = _core_bound(kernel)
        out, inside, edge = 1 + 2.0**-20, 1 - 2.0**-20, 1 - 2.0**-12
        near_core = [
            t + hs[3] * np.array([-c * out, c * inside, 7.0]),
            t + hs[10] * np.array([-edge, -c * inside, c * out]),
            # alone in the window at k = 20
            t + hs[20] * np.array([-edge, edge]),
            t + hs[10] * np.array([-c * out, -c * inside, c * inside,
                                   c * out]),
        ]
        curves = [CurveObservations(i, np.sort(ts),
                                    rng.standard_normal(ts.size))
                  for i, ts in enumerate(near_core)]
        ds = lifted(curves + jittered_curves(rng, 4, 30, 60, len(curves)))
        grid = self.check(ds, t, hs, 0.85, kernel, 2)
        assert grid.w[3, 0] == (kernel is not UNIFORM)
        assert grid.w[10, 1] and grid.w[20, 2] and grid.w[10, 3]

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_core_bound_meets_cancellation_bound(self, kernel):
        c = _core_bound(kernel)
        p = len(kernel.z2_coeffs) - 1
        if p == 0:
            assert c == 1.0
        else:
            assert 0.0 < c < 1.0
            assert_allclose(((1 + c * c) / (1 - c * c)) ** p, 512.0,
                            rtol=1e-12)
        assert_allclose(c, {UNIFORM: 1.0, EPANECHNIKOV: 0.99805,
                            BIWEIGHT: 0.95674}[kernel], atol=5e-6)

    @pytest.mark.parametrize("split", [0, 3, 7, 12])
    def test_v_searchsorted_is_the_grid_search(self, rng, split):
        # dyadic values, so d meets grid values exactly and ties abound
        grid = np.array([0.125, 0.25, 0.375, 0.5, 0.875])
        for _ in range(50):
            vals = rng.integers(0, 9, 12) / 8.0
            d = np.concatenate((np.sort(vals[:split])[::-1],
                                np.sort(vals[split:])))
            assert_array_equal(_v_searchsorted(grid, d, split)[0],
                               grid.searchsorted(d))

    def test_v_searchsorted_on_a_window(self, rng):
        ds = lifted(jittered_curves(rng, 8, 20, 60))
        T = ds.sorted_times
        hs = BandwidthGrid(0.01, 0.5, 41).values()
        for t in (T[5], 0.5, T[-3], 0.01):
            d = np.abs(T - t)
            for grid in (hs, _core_bound(BIWEIGHT) * hs, d[::7]):
                assert_array_equal(
                    _v_searchsorted(np.sort(grid), d, T.searchsorted(t))[0],
                    np.sort(grid).searchsorted(d))

    @pytest.mark.parametrize("order", [0, 1])
    def test_grid_records_carry_no_xhat(self, rng, order):
        ds = edge_dataset(rng)
        hs = BandwidthGrid(0.05, 0.4, 21).values()
        grid = inclusion_stats_over_grid(ds, 0.5, hs, order + 0.65, BIWEIGHT,
                                         order + 2)
        assert grid.xhat is None
        assert _points_stats(ds, 0.5, hs[-1], order + 0.65, BIWEIGHT,
                             order + 2).xhat.shape == (ds.n_curves,)

    def test_k0_three(self, rng):
        ds = lifted(jittered_curves(rng, 10, 20, 60))
        hs = BandwidthGrid(0.005, 0.3, 101).values()
        grid = self.check(ds, 0.37, hs, 0.45, BIWEIGHT, 3)
        counts = grid.W_N
        assert counts[0] < counts[-1] == 10

    def test_empty_widest_window(self, rng):
        curves = [CurveObservations(i, np.sort(rng.uniform(0.6, 0.98, 20)),
                                    rng.uniform(1.0, 2.0, 20))
                  for i in range(4)]
        ds = make_dataset(curves)
        grid = self.check(ds, 0.2, BandwidthGrid(0.01, 0.3, 41).values(),
                          0.5, BIWEIGHT, 2)
        assert (grid.W_N == 0).all() and grid.c_alpha.dtype == float

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    @pytest.mark.parametrize("h_max", [0.5, 0.1])
    def test_curves_with_empty_windows(self, rng, kernel, h_max):
        # at t = 0.2, curve 0 has no observation in the widest window, so
        # its nearest distance is beyond every bandwidth, and curve 1
        # holds one observation in it, below k0 = 2
        t = 0.2
        empty = np.sort(rng.uniform(0.75, 0.98, 15))
        lone = np.concatenate(([t + 0.3 * h_max], empty))
        curves = [CurveObservations(i, ts, rng.uniform(1.0, 2.0, ts.size))
                  for i, ts in enumerate((empty, lone))]
        ds = lifted(curves + jittered_curves(rng, 5, 30, 60, len(curves)))
        hs = BandwidthGrid(0.01, h_max, 151 if h_max == 0.5 else 41).values()
        grid = self.check(ds, t, hs, 0.65, kernel, 2)
        assert not grid.w[:, :2].any()
        assert (grid.c_alpha[:, :2] == 0.0).all()
        assert (grid.max_abs_w[:, :2] == 0.0).all()
        assert np.isfinite(grid.N_mu).all() and np.isfinite(grid.C_bar1).all()
        assert grid.W_N[-1] == 5

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_observations_past_the_widest_bandwidth(self, rng, kernel):
        # dyadic t and bandwidths; points a hair past hs[-1] lie in the
        # padded slice of the widest window but in no window, so the
        # sweep bins them in its overflow row
        t, hs = 0.5, np.arange(1, 17) / 64.0
        past = hs[-1] * (1 + 2.0**-40)
        times = [t + np.array([-past, -0.1, 0.02, hs[-1]]),
                 t + np.array([-past, past]),
                 t + np.array([-hs[-1], 0.05, past])]
        curves = [CurveObservations(i, ts, rng.standard_normal(ts.size))
                  for i, ts in enumerate(times)]
        ds = lifted(curves + jittered_curves(rng, 4, 30, 60, len(curves)))
        grid = self.check(ds, t, hs, 0.7, kernel, 2)
        assert not grid.w[:, 1].any()
        assert grid.w[-1, 0] and grid.w[-1, 2]

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_curve_below_k0_in_every_window(self, rng, kernel):
        # k0 = 4: curve 0 holds three observations near t and the rest
        # beyond the widest window, curve 1 only two in all
        t = 0.4
        few = np.concatenate((t + np.array([-0.02, 0.01, 0.03]),
                              np.linspace(0.85, 0.98, 10)))
        curves = [CurveObservations(i, ts, rng.standard_normal(ts.size))
                  for i, ts in enumerate((few, t + np.array([-0.1, 0.2])))]
        ds = lifted(curves + jittered_curves(rng, 5, 30, 60, len(curves)))
        hs = BandwidthGrid(0.01, 0.3, 61).values()
        grid = self.check(ds, t, hs, 0.6, kernel, 4)
        assert not grid.w[:, :2].any()
        assert grid.W_N[-1] == 5

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_empty_narrow_windows(self, rng, kernel):
        # no curve observes (0.44, 0.56): the windows at t = 0.5 narrower
        # than 0.06 hold nothing, the wider ones hold every curve
        curves = []
        for i in range(5):
            ts = np.sort(np.concatenate((rng.uniform(0.02, 0.44, 20),
                                         rng.uniform(0.56, 0.98, 20))))
            curves.append(CurveObservations(i, ts,
                                            rng.standard_normal(ts.size)))
        ds = make_dataset(curves)
        hs = BandwidthGrid(0.005, 0.3, 81).values()
        grid = self.check(ds, 0.5, hs, 0.45, kernel, 2)
        assert (grid.W_N[hs < 0.06] == 0).all()
        assert (grid.c_alpha[hs < 0.06] == 0.0).all()
        assert grid.W_N[-1] == 5

    def test_fine_grid(self, rng):
        ds = lifted(jittered_curves(rng, 6, 50, 90))
        self.check(ds, 0.52, BandwidthGrid(0.004, 0.45, 1501).values(), 0.65,
                   BIWEIGHT, 2)

    @pytest.mark.parametrize("alpha_hat", [0.95, BELOW_1, 1.0, 1.05])
    def test_both_sides_of_one(self, rng, alpha_hat):
        # below 1 the order-0 sweep, from 1 on the per-bandwidth calls
        ds = edge_dataset(rng)
        hs = BandwidthGrid(0.05, 0.4, 21).values()
        grid = self.check(ds, 0.5, hs, alpha_hat, BIWEIGHT, 2,
                          rtol=0 if alpha_hat >= 1.0 else 1e-12)
        assert grid.order == (alpha_hat >= 1.0)

    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    def test_higher_orders_are_the_per_bandwidth_calls(self, rng, order):
        ds = edge_dataset(rng)
        hs = BandwidthGrid(0.05, 0.4, 21).values()
        self.check(ds, 0.5, hs, order + 0.65, BIWEIGHT, order + 1, rtol=0)

    def test_validation(self, rng):
        ds = lifted(jittered_curves(rng, 3, 20, 30))
        for hs in ([0.2, 0.1], [0.0, 0.1], [], [[0.1, 0.2]]):
            with pytest.raises(ValidationError):
                inclusion_stats_over_grid(ds, 0.5, hs, 0.5, BIWEIGHT, 2)
        # k0 = 0 is rejected at every order; a k0 from 1 to order is
        # raised before any kernel call (TestFitOrder.test_low_k0_is_raised)
        # and the kernel itself rejects one below order + 1
        for order in (0, 1):
            with pytest.raises(ValidationError):
                inclusion_stats_over_grid(ds, 0.5, [0.1, 0.2], order + 0.5,
                                          BIWEIGHT, 0)
            with pytest.raises(ValidationError):
                _window_lp_weights(ds, 0.5, 0.2, order, BIWEIGHT, order)


def fbm_order0_input(path, seed, index):
    """Input index of the benchmark's fbm_order0 workload at seed, as
    perfbench/run.py makes it (workload stream 0) with perfbench/gen.py,
    written to path and read back."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen",
        Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    data = {"process": "fbm", "hurst": 0.4, "design": "independent",
            "n": 200, "m": 100, "noise_sd": 0.05}
    gen.write_csv(gen.sample(data, [seed, 0, index]), path)
    return ingest_long_csv(path)


@pytest.fixture(scope="module")
def fbm_order0(tmp_path_factory):
    """The fbm_order0 seed-17 input 0 with what its fit hands each mean
    bandwidth search: the 20 anchors' regularity, the noise and the
    variance plug-ins."""
    ds = fbm_order0_input(tmp_path_factory.mktemp("fbm") / "in.csv", 17, 0)
    schedule = RegularitySchedule(m_hat=ds.m_hat)
    regs, _ = regularity_at_anchors(ds, schedule, 20, kernel=EPANECHNIKOV)
    noise = estimate_noise(ds, np.linspace(0.0, 1.0, 101))
    P = presmooth_matrix(ds, np.array([r.anchor_t2 for r in regs]),
                         schedule.presmooth_bandwidth, EPANECHNIKOV)
    return ds, regs, noise, [plugin_variance(col) for col in P.T]


GRID_FIELDS = ("w", "W_N", "c1", "c_alpha", "max_abs_w", "N_mu", "C_bar1")


class TestGridRuns:
    """Each run of _grid_runs holds its rows of the one-pass order-0
    sweep bit for bit, however the grid is split."""

    def check(self, ds, t, hs, alpha_hat, kernel, k0, ends):
        ref = one_pass_sweep(ds, t, hs, alpha_hat, kernel, k0)
        runs = list(_grid_runs(ds, t, hs, alpha_hat, kernel, k0, ends))
        assert len(runs) == len(ends)
        for r0, r1, run in zip([0, *ends], ends, runs):
            assert np.array_equal(run.h, hs[r0:r1])
            assert run.order == 0 and run.xhat is None
            for name in GRID_FIELDS:
                assert np.array_equal(getattr(run, name),
                                      getattr(ref, name)[r0:r1]), name

    def test_benchmark_input(self, fbm_order0):
        ds, regs, _, _ = fbm_order0
        hs = BandwidthGrid.default_mean(ds.m_hat).values()
        first = int(hs.searchsorted(_FIRST_RUN * hs[0], "right"))
        for reg in regs:
            assert _fit_order(reg.alpha_hat) == 0
            for ends in ([first, hs.size], [hs.size],
                         [1, 2, first - 1, first + 1, hs.size - 1, hs.size]):
                self.check(ds, reg.anchor_t2, hs, reg.alpha_hat, BIWEIGHT, 2,
                           ends)

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_random_splits(self, rng, kernel):
        # fine grids give observations several edge rows, so that a run's
        # first edge passes reach back into the run before it
        for _ in range(6):
            ds = lifted(jittered_curves(rng, 8, 20, 80))
            count = int(rng.integers(2, 400))
            hs = BandwidthGrid(float(rng.uniform(0.002, 0.05)),
                               float(rng.uniform(0.1, 0.6)), count).values()
            cuts = rng.integers(1, count, int(rng.integers(0, 8)))
            ends = sorted({*cuts.tolist(), count})
            self.check(ds, float(rng.uniform(0.0, 1.0)), hs,
                       float(rng.uniform(0.05, 0.99)), kernel,
                       int(rng.integers(1, 4)), ends)

    def test_one_row_runs(self, rng):
        ds = lifted(jittered_curves(rng, 5, 30, 60))
        hs = BandwidthGrid(0.01, 0.3, 60).values()
        self.check(ds, 0.4, hs, 0.7, BIWEIGHT, 2, list(range(1, 61)))


class TestMeanRisk:
    def test_hand_formula(self, rng):
        ds = random_dataset(rng, n_curves=8, n_lo=15, n_hi=25)
        reg = reg_stub(0.5, alpha=0.7, L2=2.5)
        noise = noise_stub(0.04)
        stats = _points_stats(ds, 0.5, 0.2, reg.alpha_hat, BIWEIGHT, 2)
        assert stats.W_N > 0
        var_X_t = 1.3
        b, v, d = mean_risk(stats, reg, noise, var_X_t, ds.n_curves)
        assert_allclose(b, stats.C_bar1 * 2.5 * 0.2**1.4, rtol=1e-12)
        assert_allclose(v, 0.04 / stats.N_mu, rtol=1e-12)
        assert_allclose(
            d, 1.3 * (1.0 / stats.W_N - 1.0 / ds.n_curves), rtol=1e-12
        )
        assert_allclose(
            sum(mean_risk(stats, reg, noise, var_X_t, ds.n_curves)),
            b + v + d,
        )

    def test_factorial_damps_smooth_bias(self, rng):
        ds = random_dataset(rng, n_curves=6, n_lo=15, n_hi=25)
        reg = reg_stub(0.5, alpha=2.3, L2=1.0)
        noise = noise_stub(0.0)
        stats = _points_stats(ds, 0.5, 0.25, reg.alpha_hat, BIWEIGHT, 3)
        b, _, _ = mean_risk(stats, reg, noise, 0.0, ds.n_curves)
        want = stats.C_bar1 * 1.0 / math.factorial(2) ** 2 * 0.25**4.6
        assert_allclose(b, want, rtol=1e-12)

    def test_empty_window_is_infinite(self):
        times = np.array([0.1, 0.9])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(2)) for i in range(3)]
        )
        reg = reg_stub(0.5, alpha=0.5)
        stats = _points_stats(ds, 0.5, 0.05, reg.alpha_hat, BIWEIGHT, 2)
        terms = mean_risk(stats, reg, noise_stub(0.1), 1.0, 3)
        assert sum(terms) == math.inf

    def test_c_bar1_override(self, rng):
        ds = random_dataset(rng, n_curves=6, n_lo=15, n_hi=25)
        reg = reg_stub(0.5, alpha=0.5, L2=1.0)
        noise = noise_stub(0.0)
        stats = _points_stats(ds, 0.5, 0.2, reg.alpha_hat, BIWEIGHT, 2)
        cb = kernel_abs_moment(BIWEIGHT, 1.0)
        b, _, _ = mean_risk(stats, reg, noise, 0.0, ds.n_curves, c_bar1=cb)
        assert_allclose(b, cb * 0.2, rtol=1e-12)

    def test_noiseless_empty_window_is_infinite_not_nan(self, rng):
        # sigma2 = 0 over an effective size of 0 is 0/0, and var_X = 0
        # times 1/W is 0 * inf: every term must still read +inf
        ds = random_dataset(rng, n_curves=6, n_lo=6, n_hi=10)
        hs = BandwidthGrid(0.002, 0.4, count=41).values()
        g = inclusion_stats_over_grid(ds, 0.5, hs, 0.5, BIWEIGHT, 2)
        empty = g.W_N == 0
        assert empty.any() and not empty.all()
        for var_X in (0.0, 1.0):
            with np.errstate(all="raise"):
                terms = np.array(mean_risk_terms(
                    hs, g.W_N, g.N_mu, g.C_bar1, 0.5, 1.0, 0.0, var_X,
                    ds.n_curves))
            assert (terms[:, empty] == math.inf).all()
            assert np.isfinite(terms[:, ~empty]).all()


class TestSelectMeanBandwidth:
    def test_zero_risk_ties_break_small(self, rng):
        ds = common_dataset(rng, 10, 30)
        reg = reg_stub(0.5, alpha=0.5, L2=0.0)
        prof = select_mean_bandwidth(
            ds, reg, noise_stub(0.0), 0.0, BIWEIGHT, 2,
            bandwidths=BandwidthGrid(0.1, 0.4, count=7),
        )
        assert prof.h_star_index == 0
        assert prof.h_star == prof.bandwidths[0]

    def test_common_design_balances_at_full_inclusion(self, rng):
        # on a common design the inclusion count jumps between 0 and N,
        # so any finite-risk minimum keeps every curve
        for trial in range(5):
            n = int(rng.integers(5, 20))
            m = int(rng.integers(20, 60))
            ds = common_dataset(rng, n, m)
            t = float(rng.uniform(0.3, 0.7))
            reg = reg_stub(t, alpha=float(rng.uniform(0.4, 0.9)), L2=1.0)
            prof = select_mean_bandwidth(
                ds, reg, noise_stub(0.01), 1.0, BIWEIGHT, 2
            )
            assert prof.W_N[prof.h_star_index] == n

    def test_profile_terms_sum(self, rng):
        ds = common_dataset(rng, 8, 40)
        reg = reg_stub(0.5, alpha=0.6, L2=1.0)
        prof = select_mean_bandwidth(
            ds, reg, noise_stub(0.02), 0.7, BIWEIGHT, 2
        )
        fin = np.isfinite(prof.total)
        assert fin.any()
        assert_allclose(
            prof.total[fin],
            prof.term_bias[fin] + prof.term_var[fin] + prof.term_dropout[fin],
            rtol=1e-12,
        )
        assert prof.total[prof.h_star_index] == prof.total[fin].min()
        assert prof.q2_sq == 0.02
        assert prof.q3_sq == 0.7

    def test_no_admissible_bandwidth(self):
        times = np.array([0.45, 0.5, 0.55])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(3)) for i in range(3)]
        )
        reg = reg_stub(0.5, alpha=0.5)
        with pytest.raises(InsufficientDataError):
            select_mean_bandwidth(
                ds, reg, noise_stub(0.1), 1.0, BIWEIGHT, 10,
                bandwidths=BandwidthGrid(0.05, 0.4, count=10),
            )

    def test_moment_approx_changes_bias_constant(self, rng):
        ds = common_dataset(rng, 8, 40)
        reg = reg_stub(0.5, alpha=0.5, L2=1.0)
        prof = select_mean_bandwidth(
            ds, reg, noise_stub(0.01), 0.5, BIWEIGHT, 2,
            use_moment_approx=True,
        )
        assert_allclose(prof.q1_sq, kernel_abs_moment(BIWEIGHT, 1.0),
                        rtol=1e-12)


class TestMeanRiskOverGrid:
    """select_mean_bandwidth's term arrays against a per-h loop of
    _points_stats and mean_risk_terms, with the biweight kernel (the
    subclasses below repeat every test with the other kernels)."""

    kernel = BIWEIGHT

    def check(self, ds, reg, bandwidths, use_moment_approx=False, k0=2):
        noise, var_X_t, N = noise_stub(0.03), 0.8, ds.n_curves
        prof = select_mean_bandwidth(
            ds, reg, noise, var_X_t, self.kernel, k0, bandwidths=bandwidths,
            use_moment_approx=use_moment_approx,
        )
        assert prof.t == reg.anchor_t2
        cb = (kernel_abs_moment(self.kernel, 2.0 * reg.alpha_hat)
              if use_moment_approx else None)
        want = []
        for h in bandwidths.values():
            stats = _points_stats(ds, reg.anchor_t2, h, reg.alpha_hat,
                                  self.kernel, k0)
            want.append(mean_risk(stats, reg, noise, var_X_t, N, c_bar1=cb))
            if stats.W_N == 0:
                assert want[-1] == (math.inf,) * 3
                assert sum(mean_risk(stats, reg, noise, var_X_t, N,
                                     c_bar1=cb)) == math.inf
        # the scored rows are the grid's first ones, and the selected one
        # is the minimum over the whole grid
        want = np.array(want)
        scored = prof.bandwidths.size
        assert np.array_equal(prof.bandwidths, bandwidths.values()[:scored])
        for k, got in enumerate((prof.term_bias, prof.term_var,
                                 prof.term_dropout)):
            assert_same_risk(got, want[:scored, k])
        assert prof.h_star_index == int(np.argmin(want.sum(axis=1)))
        return prof

    @pytest.mark.parametrize("use_moment_approx", [False, True])
    def test_empty_bandwidths_at_order_zero(self, rng, use_moment_approx):
        ds = random_dataset(rng, n_curves=6, n_lo=8, n_hi=15)
        prof = self.check(ds, reg_stub(0.5, alpha=0.6, L2=1.5),
                          BandwidthGrid(0.002, 0.4, 61), use_moment_approx)
        assert prof.W_N[0] == 0 and np.isinf(prof.total[0])
        assert np.isfinite(prof.total).any()

    @pytest.mark.parametrize("use_moment_approx", [False, True])
    def test_order_one_anchor(self, rng, use_moment_approx):
        ds = random_dataset(rng, n_curves=8, n_lo=8, n_hi=15)
        prof = self.check(ds, reg_stub(0.45, alpha=1.4, L2=0.7),
                          BandwidthGrid(0.001, 0.45, 41), use_moment_approx)
        assert prof.order == 1
        assert np.isinf(prof.total).any() and np.isfinite(prof.total).any()

    def test_k0_three(self, rng):
        ds = make_dataset(jittered_curves(rng, 10, 20, 60))
        self.check(ds, reg_stub(0.37, alpha=0.8),
                   BandwidthGrid(0.005, 0.3, 101), k0=3)


class TestMeanRiskOverGridUniform(TestMeanRiskOverGrid):
    kernel = UNIFORM


class TestMeanRiskOverGridEpanechnikov(TestMeanRiskOverGrid):
    kernel = EPANECHNIKOV


def full_grid_search(ds, reg, noise, var_X, kernel, k0, bandwidths,
                     use_moment_approx):
    """The search without a certificate: inclusion_stats_over_grid at
    every bandwidth, mean_risk_terms and the argmin. Returns the bias,
    variance and dropout terms, the total and the index."""
    g = inclusion_stats_over_grid(ds, reg.anchor_t2, bandwidths.values(),
                                  reg.alpha_hat, kernel, k0)
    cb = (kernel_abs_moment(kernel, 2.0 * reg.alpha_hat)
          if use_moment_approx else None)
    tb, tv, td = mean_risk(g, reg, noise, var_X, ds.n_curves, c_bar1=cb)
    total = tb + tv + td
    return tb, tv, td, total, int(np.argmin(total))


class TestMeanCertificate:
    """select_mean_bandwidth, which stops at order 0 once a lower bound
    rules out the rest of the grid, against the search over the whole
    grid."""

    def check(self, ds, reg, noise, var_X, kernel, k0, bandwidths,
              use_moment_approx=False):
        prof = select_mean_bandwidth(ds, reg, noise, var_X, kernel, k0,
                                     bandwidths=bandwidths,
                                     use_moment_approx=use_moment_approx)
        *terms, total, idx = full_grid_search(
            ds, reg, noise, var_X, kernel, k0, bandwidths, use_moment_approx)
        hs, c = bandwidths.values(), prof.bandwidths.size
        assert prof.h_star_index == idx and prof.h_star == hs[idx]
        assert np.array_equal(prof.bandwidths, hs[:c])
        for got, want in zip((prof.term_bias, prof.term_var,
                              prof.term_dropout, prof.total),
                             (*terms, total)):
            assert np.array_equal(got, want[:c])
        if c < hs.size:
            # the search stopped: its certificate held, and the bound it
            # used holds on every row it left out
            lower = prof.W_N[-1] / ds.n_curves * prof.term_bias[-1]
            assert lower > prof.total.min() * (1.0 + 1e-9)
            assert (terms[0][c:] >= lower).all()
            assert (total[c:] > prof.total.min()).all()
        return prof

    @pytest.mark.parametrize("use_moment_approx", [False, True])
    @pytest.mark.parametrize("k0", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_random_order0_inputs(self, rng, kernel, k0, use_moment_approx):
        stopped = 0
        for _ in range(8):
            ds = random_dataset(rng, int(rng.integers(4, 30)), 10, 120)
            reg = reg_stub(float(rng.uniform(0.1, 0.9)),
                           alpha=float(rng.uniform(0.05, 0.99)),
                           L2=float(10.0 ** rng.uniform(-2.0, 1.0)))
            noise = noise_stub(10.0 ** rng.uniform(-5.0, -1.0))
            bw = BandwidthGrid(float(rng.uniform(0.005, 0.03)), 0.5,
                               int(rng.integers(40, 152)))
            prof = self.check(ds, reg, noise, float(rng.uniform(0.0, 2.0)),
                              kernel, k0, bw, use_moment_approx)
            stopped += prof.bandwidths.size < bw.count
        assert stopped

    def test_minimum_on_run_boundaries(self, rng):
        # raising the noise variance moves the minimum up the grid; scan
        # it so that the minimum falls on the first row (on a common
        # design, where every curve is in from the first row on), on the
        # last row of the first run and on the first row of the second
        reg = reg_stub(0.5, alpha=0.6, L2=1.0)
        bw = BandwidthGrid(0.01, 0.5, 151)
        hs = bw.values()
        first = int(hs.searchsorted(_FIRST_RUN * hs[0], "right"))
        found = set()
        for ds in (common_dataset(rng, 30, 200),
                   lifted(jittered_curves(rng, 30, 60, 120))):
            for sigma2 in np.geomspace(1e-9, 1.0, 300):
                noise = noise_stub(sigma2)
                idx = full_grid_search(ds, reg, noise, 0.5, BIWEIGHT, 2, bw,
                                       False)[-1]
                if idx in (0, first - 1, first):
                    found.add(idx)
                    self.check(ds, reg, noise, 0.5, BIWEIGHT, 2, bw)
        assert found == {0, first - 1, first}

    @pytest.mark.parametrize("use_moment_approx", [False, True])
    def test_zero_L2_scores_the_whole_grid(self, rng, use_moment_approx):
        # the bias and so the bound are zero: nothing is certified
        ds = lifted(jittered_curves(rng, 12, 40, 80))
        bw = BandwidthGrid(0.01, 0.5, 151)
        prof = self.check(ds, reg_stub(0.5, alpha=0.5, L2=0.0),
                          noise_stub(0.01), 0.3, BIWEIGHT, 2, bw,
                          use_moment_approx)
        assert prof.bandwidths.size == bw.count

    def test_negative_terms_score_the_whole_grid(self, rng):
        # the bound needs nonnegative risk terms; a negative noise
        # variance switches the certificate off
        ds = lifted(jittered_curves(rng, 12, 40, 80))
        bw = BandwidthGrid(0.01, 0.5, 151)
        reg = reg_stub(0.5, alpha=0.5, L2=1.0)
        assert self.check(ds, reg, noise_stub(1e-4), 0.3, BIWEIGHT, 2,
                          bw).bandwidths.size < bw.count
        assert self.check(ds, reg, noise_stub(-1e-4), 0.3, BIWEIGHT, 2,
                          bw).bandwidths.size == bw.count

    def test_benchmark_input(self, fbm_order0):
        ds, regs, noise, var = fbm_order0
        bw = BandwidthGrid.default_mean(ds.m_hat)
        first = int(bw.values().searchsorted(_FIRST_RUN * bw.h_min, "right"))
        for reg, var_X in zip(regs, var):
            prof = self.check(ds, reg, noise, var_X, BIWEIGHT, 2, bw)
            assert prof.bandwidths.size == first


class TestPluginVariance:
    def test_matches_ddof1(self):
        x = np.array([1.0, 2.0, 4.0, np.nan, 8.0])
        assert_allclose(plugin_variance(x),
                        np.var([1.0, 2.0, 4.0, 8.0], ddof=1), rtol=1e-12)

    def test_degenerate_is_zero(self):
        assert plugin_variance(np.array([np.nan, 3.0])) == 0.0
        assert plugin_variance(np.array([np.nan, np.nan])) == 0.0


class TestEstimateMean:
    def test_constant_curves_recover_level_mean(self):
        times = np.linspace(0.02, 0.98, 60)
        ds = constant_dataset([1.0, 2.0, 3.0, 4.0, 5.0], times)
        regs = [reg_stub(a, alpha=0.5, L2=0.5) for a in (0.3, 0.5, 0.7)]
        grid = np.linspace(0.2, 0.8, 13)
        est = estimate_mean(ds, grid, regs, noise_stub(0.0))
        assert_allclose(est.values, 3.0, rtol=1e-10)
        assert (est.W_N == 5).all()
        assert np.isfinite(est.h_star).all()
        assert est.anchor_t.tolist() == [0.3, 0.5, 0.7]
        assert_allclose(est.anchor_alpha, 0.5)

    def test_risk_columns_are_reported(self, rng):
        ds = common_dataset(rng, 8, 50)
        regs = [reg_stub(a, alpha=0.5, L2=1.0) for a in (0.35, 0.65)]
        grid = np.linspace(0.3, 0.7, 9)
        est = estimate_mean(ds, grid, regs, noise_stub(0.02))
        defined = np.isfinite(est.values)
        assert defined.all()
        assert np.isfinite(est.risk_bias[defined]).all()
        assert np.isfinite(est.risk_var[defined]).all()
        assert np.isfinite(est.risk_dropout[defined]).all()

    def test_uncovered_region_is_nan(self):
        times = np.linspace(0.02, 0.55, 40)
        ds = constant_dataset([0.0, 1.0, 2.0], times)
        regs = [reg_stub(a, alpha=0.5, L2=1.0) for a in (0.2, 0.4)]
        grid = np.array([0.3, 0.9])
        est = estimate_mean(
            ds, grid, regs, noise_stub(0.0),
            bandwidths=BandwidthGrid(0.02, 0.08, count=10),
        )
        assert np.isfinite(est.values[0])
        assert np.isnan(est.values[1])
        assert est.W_N[1] == 0
        assert np.isnan(est.risk_bias[1])

    def test_needs_anchor(self, rng):
        ds = random_dataset(rng)
        with pytest.raises(ValidationError):
            estimate_mean(ds, np.linspace(0.2, 0.8, 5), [], noise_stub(0.1))

    def test_all_anchors_failing_raise(self):
        times = np.array([0.48, 0.5, 0.52])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(3)) for i in range(3)]
        )
        regs = [reg_stub(0.5, alpha=0.5)]
        with pytest.raises(EstimationError):
            estimate_mean(
                ds, np.array([0.5]), regs, noise_stub(0.1), k0=30,
                bandwidths=BandwidthGrid(0.05, 0.4, count=8),
            )
