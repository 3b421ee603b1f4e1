import dataclasses
import math

import numpy as np
import pytest
from conftest import (
    assert_same_risk,
    constant_dataset,
    jittered_curves,
    noise_stub,
    random_dataset,
    reg_stub,
)
from numpy.testing import assert_allclose, assert_array_equal

from fdadapt import (
    BIWEIGHT,
    EPANECHNIKOV,
    UNIFORM,
    BandwidthGrid,
    CurveObservations,
    EstimationError,
    InsufficientDataError,
    ValidationError,
    estimate_mean,
    inclusion_stats,
    inclusion_stats_over_grid,
    kernel_abs_moment,
    make_dataset,
    mean_risk,
    mean_risk_terms,
    select_mean_bandwidth,
)
from fdadapt.kernels import MAX_ORDER, lp_coefficient_weights
from fdadapt.mean import plugin_variance


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
            stats = inclusion_stats(ds, t, h, 0, BIWEIGHT, k0, alpha)
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
            stats = inclusion_stats(ds, t, h, 1, BIWEIGHT, 3, 1.2)
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
        stats = inclusion_stats(ds, 0.5, 0.05, 0, BIWEIGHT, 2, 1.0)
        assert stats.W_N == 0
        assert not stats.w.any()
        assert stats.N_mu == 0.0

    def test_validation(self, rng):
        ds = random_dataset(rng)
        with pytest.raises(ValidationError):
            inclusion_stats(ds, 0.5, 0.0, 0, BIWEIGHT, 2, 1.0)
        with pytest.raises(ValidationError):
            inclusion_stats(ds, 0.5, 0.1, 1, BIWEIGHT, 1, 1.0)
        with pytest.raises(ValidationError):
            inclusion_stats(ds, 0.5, 0.1, -1, BIWEIGHT, 2, 1.0)
        with pytest.raises(ValidationError):
            inclusion_stats(ds, 0.5, 0.1, MAX_ORDER + 1, BIWEIGHT,
                            MAX_ORDER + 2, 1.0)


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
    def check(ds, t, h, order, k0, alpha):
        stats = inclusion_stats(ds, t, h, order, BIWEIGHT, k0, alpha)
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
        stats = self.check(ds, 0.5, 0.25, order, k0, 1.3)
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
                self.check(ds, t, h, order, order + 1,
                           float(rng.uniform(0.5, 4.0)))

    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_common_design(self, rng, order):
        ds = common_dataset(rng, 6, 50)
        stats = self.check(ds, 0.5, 0.2, order, order + 1, 1.1)
        assert stats.W_N == 6


def lifted(curves):
    """The curves with values 1 + |y|. With positive values the sums
    of K y do not cancel, so xhat can be compared at a relative
    tolerance."""
    return make_dataset([
        CurveObservations(c.curve_id, c.times, 1.0 + np.abs(c.values))
        for c in curves
    ])


def grid_row(grid, k):
    """Row k of a grid record of inclusion_stats_over_grid."""
    return dataclasses.replace(grid, **{
        name: getattr(grid, name)[k]
        for name in ("h", "w", "W_N", "c1", "c_alpha", "max_abs_w", "N_i",
                     "N_mu", "C_bar1", "xhat")})


class TestInclusionStatsOverGrid:
    """Every entry of the grid sweep against inclusion_stats at its h."""

    @staticmethod
    def check(ds, t, hs, order, kernel, k0, alpha, rtol=1e-12):
        grid = inclusion_stats_over_grid(ds, t, hs, order, kernel, k0, alpha)
        n_h, n = len(hs), ds.n_curves
        for name in ("h", "W_N", "N_mu", "C_bar1"):
            assert np.shape(getattr(grid, name)) == (n_h,)
        for name in ("w", "c1", "c_alpha", "max_abs_w", "N_i", "xhat"):
            assert np.shape(getattr(grid, name)) == (n_h, n)
        for k, h in enumerate(hs):
            got = grid_row(grid, k)
            want = inclusion_stats(ds, t, h, order, kernel, k0, alpha)
            assert (got.t, got.h, got.order, got.alpha_exponent) == (
                want.t, want.h, want.order, want.alpha_exponent)
            assert_array_equal(got.w, want.w)
            assert got.W_N == want.W_N
            assert_array_equal(got.c1, want.c1)
            for name in ("c_alpha", "max_abs_w", "xhat", "N_i", "N_mu",
                         "C_bar1"):
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
            grid = self.check(ds, t, hs, 0, kernel, 2,
                              float(rng.uniform(0.5, 3.0)))
            assert grid.W_N[0] < grid.W_N[-1] == 8

    def test_common_design_tied_times(self, rng):
        ds = lifted(common_dataset(rng, 6, 50).curves)
        hs = BandwidthGrid(0.005, 0.4, 61).values()
        grid = self.check(ds, 0.43, hs, 0, BIWEIGHT, 2, 1.1)
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
        grid = self.check(ds, t, hs, 0, kernel, 2, 1.7)
        on_edge = grid.w[4, 1]
        assert on_edge == (kernel is UNIFORM)
        assert grid.W_N[4] == 6 + on_edge
        assert grid.w[0, 2]
        assert grid.w[6, 3] and not grid.w[5, 3]

    def test_k0_three(self, rng):
        ds = lifted(jittered_curves(rng, 10, 20, 60))
        hs = BandwidthGrid(0.005, 0.3, 101).values()
        grid = self.check(ds, 0.37, hs, 0, BIWEIGHT, 3, 0.9)
        counts = grid.W_N
        assert counts[0] < counts[-1] == 10

    def test_empty_widest_window(self, rng):
        curves = [CurveObservations(i, np.sort(rng.uniform(0.6, 0.98, 20)),
                                    rng.uniform(1.0, 2.0, 20))
                  for i in range(4)]
        ds = make_dataset(curves)
        grid = self.check(ds, 0.2, BandwidthGrid(0.01, 0.3, 41).values(), 0,
                          BIWEIGHT, 2, 1.0)
        assert (grid.W_N == 0).all() and grid.c_alpha.dtype == float

    def test_fine_grid(self, rng):
        ds = lifted(jittered_curves(rng, 6, 50, 90))
        self.check(ds, 0.52, BandwidthGrid(0.004, 0.45, 1501).values(), 0,
                   BIWEIGHT, 2, 1.3)

    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    def test_higher_orders_are_the_per_bandwidth_calls(self, rng, order):
        ds = edge_dataset(rng)
        hs = BandwidthGrid(0.05, 0.4, 21).values()
        self.check(ds, 0.5, hs, order, BIWEIGHT, order + 1, 1.3, rtol=0)

    def test_validation(self, rng):
        ds = lifted(jittered_curves(rng, 3, 20, 30))
        for hs in ([0.2, 0.1], [0.0, 0.1], [], [[0.1, 0.2]]):
            with pytest.raises(ValidationError):
                inclusion_stats_over_grid(ds, 0.5, hs, 0, BIWEIGHT, 2, 1.0)
        with pytest.raises(ValidationError):
            inclusion_stats_over_grid(ds, 0.5, [0.1, 0.2], 0, BIWEIGHT, 0,
                                      1.0)


class TestMeanRisk:
    def test_hand_formula(self, rng):
        ds = random_dataset(rng, n_curves=8, n_lo=15, n_hi=25)
        reg = reg_stub(0.5, alpha=0.7, L2=2.5)
        noise = noise_stub(0.04)
        stats = inclusion_stats(ds, 0.5, 0.2, 0, BIWEIGHT, 2,
                                2 * reg.alpha_hat)
        assert stats.W_N > 0
        var_X_t = 1.3
        b, v, d = mean_risk_terms(stats, reg, noise, var_X_t, ds.n_curves)
        assert_allclose(b, stats.C_bar1 * 2.5 * 0.2**1.4, rtol=1e-12)
        assert_allclose(v, 0.04 / stats.N_mu, rtol=1e-12)
        assert_allclose(
            d, 1.3 * (1.0 / stats.W_N - 1.0 / ds.n_curves), rtol=1e-12
        )
        assert_allclose(
            mean_risk(stats, reg, noise, var_X_t, ds.n_curves), b + v + d
        )

    def test_factorial_damps_smooth_bias(self, rng):
        ds = random_dataset(rng, n_curves=6, n_lo=15, n_hi=25)
        reg = reg_stub(0.5, alpha=2.3, L2=1.0)
        noise = noise_stub(0.0)
        stats = inclusion_stats(ds, 0.5, 0.25, 2, BIWEIGHT, 3,
                                2 * reg.alpha_hat)
        b, _, _ = mean_risk_terms(stats, reg, noise, 0.0, ds.n_curves)
        want = stats.C_bar1 * 1.0 / math.factorial(2) ** 2 * 0.25**4.6
        assert_allclose(b, want, rtol=1e-12)

    def test_empty_window_is_infinite(self):
        times = np.array([0.1, 0.9])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(2)) for i in range(3)]
        )
        stats = inclusion_stats(ds, 0.5, 0.05, 0, BIWEIGHT, 2, 1.0)
        reg = reg_stub(0.5, alpha=0.5)
        assert mean_risk(stats, reg, noise_stub(0.1), 1.0, 3) == math.inf

    def test_c_bar1_override(self, rng):
        ds = random_dataset(rng, n_curves=6, n_lo=15, n_hi=25)
        reg = reg_stub(0.5, alpha=0.5, L2=1.0)
        noise = noise_stub(0.0)
        stats = inclusion_stats(ds, 0.5, 0.2, 0, BIWEIGHT, 2, 1.0)
        cb = kernel_abs_moment(BIWEIGHT, 1.0)
        b, _, _ = mean_risk_terms(stats, reg, noise, 0.0, ds.n_curves,
                                  c_bar1=cb)
        assert_allclose(b, cb * 0.2, rtol=1e-12)


class TestSelectMeanBandwidth:
    def test_zero_risk_ties_break_small(self, rng):
        ds = common_dataset(rng, 10, 30)
        reg = reg_stub(0.5, alpha=0.5, L2=0.0)
        prof = select_mean_bandwidth(
            ds, 0.5, reg, noise_stub(0.0), 0.0, BIWEIGHT, 2,
            grid_spec=BandwidthGrid(0.1, 0.4, count=7),
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
                ds, t, reg, noise_stub(0.01), 1.0, BIWEIGHT, 2
            )
            assert prof.W_N[prof.h_star_index] == n

    def test_profile_terms_sum(self, rng):
        ds = common_dataset(rng, 8, 40)
        reg = reg_stub(0.5, alpha=0.6, L2=1.0)
        prof = select_mean_bandwidth(
            ds, 0.5, reg, noise_stub(0.02), 0.7, BIWEIGHT, 2
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
                ds, 0.5, reg, noise_stub(0.1), 1.0, BIWEIGHT, 10,
                grid_spec=BandwidthGrid(0.05, 0.4, count=10),
            )

    def test_moment_approx_changes_bias_constant(self, rng):
        ds = common_dataset(rng, 8, 40)
        reg = reg_stub(0.5, alpha=0.5, L2=1.0)
        prof = select_mean_bandwidth(
            ds, 0.5, reg, noise_stub(0.01), 0.5, BIWEIGHT, 2,
            use_moment_approx=True,
        )
        assert_allclose(prof.q1_sq, kernel_abs_moment(BIWEIGHT, 1.0),
                        rtol=1e-12)


class TestMeanRiskOverGrid:
    """select_mean_bandwidth's term arrays against a per-h loop of
    inclusion_stats and mean_risk_terms."""

    @staticmethod
    def check(ds, t, reg, grid_spec, use_moment_approx=False, k0=2):
        noise, var_X_t, N = noise_stub(0.03), 0.8, ds.n_curves
        prof = select_mean_bandwidth(
            ds, t, reg, noise, var_X_t, BIWEIGHT, k0, grid_spec=grid_spec,
            use_moment_approx=use_moment_approx,
        )
        order = min(int(math.floor(reg.alpha_hat)), MAX_ORDER)
        cb = (kernel_abs_moment(BIWEIGHT, 2.0 * reg.alpha_hat)
              if use_moment_approx else None)
        want = []
        for h in prof.bandwidths:
            stats = inclusion_stats(ds, t, h, order, BIWEIGHT,
                                    max(k0, order + 1), 2.0 * reg.alpha_hat)
            want.append(mean_risk_terms(stats, reg, noise, var_X_t, N,
                                        c_bar1=cb))
            if stats.W_N == 0:
                assert want[-1] == (math.inf,) * 3
                assert mean_risk(stats, reg, noise, var_X_t, N,
                                 c_bar1=cb) == math.inf
        want = np.array(want)
        for k, got in enumerate((prof.term_bias, prof.term_var,
                                 prof.term_dropout)):
            assert_same_risk(got, want[:, k])
        assert prof.h_star_index == int(np.argmin(want.sum(axis=1)))
        return prof

    @pytest.mark.parametrize("use_moment_approx", [False, True])
    def test_empty_bandwidths_at_order_zero(self, rng, use_moment_approx):
        ds = random_dataset(rng, n_curves=6, n_lo=8, n_hi=15)
        prof = self.check(ds, 0.5, reg_stub(0.5, alpha=0.6, L2=1.5),
                          BandwidthGrid(0.002, 0.4, 61), use_moment_approx)
        assert prof.W_N[0] == 0 and np.isinf(prof.total[0])
        assert np.isfinite(prof.total).any()

    @pytest.mark.parametrize("use_moment_approx", [False, True])
    def test_order_one_anchor(self, rng, use_moment_approx):
        ds = random_dataset(rng, n_curves=8, n_lo=8, n_hi=15)
        prof = self.check(ds, 0.45, reg_stub(0.45, alpha=1.4, L2=0.7),
                          BandwidthGrid(0.001, 0.45, 41), use_moment_approx)
        assert prof.order == 1
        assert np.isinf(prof.total).any() and np.isfinite(prof.total).any()

    def test_k0_three(self, rng):
        ds = make_dataset(jittered_curves(rng, 10, 20, 60))
        self.check(ds, 0.37, reg_stub(0.37, alpha=0.8),
                   BandwidthGrid(0.005, 0.3, 101), k0=3)


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
            grid_spec=BandwidthGrid(0.02, 0.08, count=10),
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
                grid_spec=BandwidthGrid(0.05, 0.4, count=8),
            )
