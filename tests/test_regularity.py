import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdadapt import (
    CurveObservations,
    DesignSpec,
    EstimationError,
    InsufficientDataError,
    ProcessSpec,
    RegularitySchedule,
    ValidationError,
    anchor_points,
    estimate_H,
    estimate_L2,
    estimate_noise,
    estimate_regularity,
    make_dataset,
    noise_k0,
    presmooth_matrix,
    sample_dataset,
)
from fdadapt.kernels import EPANECHNIKOV
from fdadapt.regularity import feasible_anchor_bounds, regularity_at_anchors
from fdadapt.simulate import NO_NOISE


class TestSchedule:
    def test_values_at_m300(self):
        s = RegularitySchedule(m_hat=300)
        assert_allclose(s.delta_star, 0.1835786454994314, rtol=1e-12)
        assert_allclose(s.phi, 0.030737892761016232, rtol=1e-12)
        # default presmoothing bandwidth: cube root of gap / (4 m^2)
        want = (s.delta_star / (4.0 * 300.0**2)) ** (1.0 / 3.0)
        assert_allclose(s.presmooth_bandwidth, want, rtol=1e-12)

    def test_explicit_bandwidth_respected(self):
        s = RegularitySchedule(m_hat=300, presmooth_bandwidth=0.02)
        assert s.presmooth_bandwidth == 0.02

    def test_gap_shrinks_with_m(self):
        small = RegularitySchedule(m_hat=50)
        big = RegularitySchedule(m_hat=5000)
        assert big.delta_star < small.delta_star
        assert big.phi < small.phi

    def test_validation(self):
        with pytest.raises(ValidationError):
            RegularitySchedule(m_hat=2)
        with pytest.raises(ValidationError):
            RegularitySchedule(m_hat=100, gamma=1.5)


class TestPresmooth:
    def test_matches_hand_nadaraya_watson(self):
        times = np.array([0.4, 0.5, 0.6])
        c0 = CurveObservations(0, times, np.array([1.0, 2.0, 4.0]))
        c1 = CurveObservations(1, times, np.array([0.0, 1.0, 0.0]))
        ds = make_dataset([c0, c1])
        h = 0.15
        P = presmooth_matrix(ds, [0.5], h, EPANECHNIKOV)
        k = EPANECHNIKOV((times - 0.5) / h)
        assert_allclose(P[0, 0], (k @ c0.values) / k.sum(), rtol=1e-12)
        assert_allclose(P[1, 0], (k @ c1.values) / k.sum(), rtol=1e-12)

    def test_empty_window_is_nan(self):
        times = np.array([0.8, 0.85, 0.9])
        curves = [CurveObservations(i, times, np.ones(3)) for i in range(2)]
        ds = make_dataset(curves)
        P = presmooth_matrix(ds, [0.1, 0.85], 0.05, EPANECHNIKOV)
        assert np.isnan(P[:, 0]).all()
        assert np.isfinite(P[:, 1]).all()

    def test_derivative_of_line(self):
        times = np.linspace(0.05, 0.95, 40)
        curves = [
            CurveObservations(i, times, 3.0 * times + float(i))
            for i in range(2)
        ]
        ds = make_dataset(curves)
        P = presmooth_matrix(ds, [0.5], 0.2, EPANECHNIKOV, d=1)
        assert_allclose(P[:, 0], 3.0, rtol=1e-8)


class TestTheta:
    def test_mean_squared_increment_by_hand(self):
        times = np.linspace(0.05, 0.95, 50)
        rng = np.random.default_rng(5)
        curves = [
            CurveObservations(i, times, rng.standard_normal(50))
            for i in range(4)
        ]
        ds = make_dataset(curves)
        sched = RegularitySchedule(m_hat=50, presmooth_bandwidth=0.08)
        est = estimate_regularity(ds, 0.5, sched, EPANECHNIKOV)
        P = presmooth_matrix(ds, [est.t1, 0.5, est.t3], 0.08, EPANECHNIKOV)
        want = [
            np.mean((P[:, b] - P[:, a]) ** 2)
            for a, b in ((0, 1), (1, 2), (0, 2))
        ]
        assert_allclose(est.theta_hats[0], want, rtol=1e-12)

    def test_no_retained_curve_raises(self):
        times = np.array([0.85, 0.9, 0.95])
        curves = [CurveObservations(i, times, np.ones(3)) for i in range(2)]
        ds = make_dataset(curves)
        sched = RegularitySchedule(m_hat=30, presmooth_bandwidth=0.02)
        with pytest.raises(InsufficientDataError) as err:
            estimate_regularity(ds, 0.15, sched, EPANECHNIKOV)
        assert err.value.retained == 0


class TestH:
    def test_ratio_arithmetic(self):
        # theta_13 / theta_12 = 2^(2H)
        assert_allclose(estimate_H(4.0, 1.0), 1.0)
        assert_allclose(estimate_H(2.0, 1.0), 0.5)
        assert_allclose(estimate_H(2.0**1.2, 1.0), 0.6, rtol=1e-12)

    def test_clipping(self):
        assert estimate_H(1.0, 1.0) == 0.05
        assert estimate_H(0.5, 1.0) == 0.05
        assert estimate_H(100.0, 1.0) == 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(EstimationError):
            estimate_H(0.0, 1.0)
        with pytest.raises(EstimationError):
            estimate_H(1.0, -2.0)


class TestL2:
    def test_plugin_average(self):
        t1, t2, t3 = 0.4, 0.5, 0.6
        alpha, delta = 0.5, 0
        th12, th23 = 0.03, 0.05
        want = 0.5 * (th23 / 0.1 ** (2 * alpha) + th12 / 0.1 ** (2 * alpha))
        got = estimate_L2(th23, th12, t1, t2, t3, alpha, delta)
        assert_allclose(got, want, rtol=1e-12)

    def test_derivative_level_uses_excess_exponent(self):
        got = estimate_L2(0.02, 0.02, 0.4, 0.5, 0.6, alpha_hat=1.3,
                          delta_hat=1)
        want = 0.02 / 0.1**0.6
        assert_allclose(got, want, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            estimate_L2(1.0, 1.0, 0.6, 0.5, 0.4, 0.5, 0)
        with pytest.raises(ValidationError):
            estimate_L2(0.0, 1.0, 0.4, 0.5, 0.6, 0.5, 0)


class TestAnchors:
    def test_single_anchor_is_midpoint(self):
        assert_allclose(anchor_points(1, lo=0.2, hi=0.6), [0.4])

    def test_linspace(self):
        assert_allclose(anchor_points(3, lo=0.1, hi=0.9), [0.1, 0.5, 0.9])

    def test_feasible_bounds_shrink(self):
        sched = RegularitySchedule(m_hat=40)
        lo, hi = feasible_anchor_bounds(sched, lo=0.01, hi=0.99)
        margin = sched.delta_star / 4.0
        assert lo >= margin
        assert hi <= 1.0 - margin


class TestRegularityAtAnchors:
    def test_anchors_without_data_are_dropped(self):
        # curves observed on (0.02, 0.6) only: anchors whose increment
        # triple reaches past the data cannot be presmoothed
        times = np.linspace(0.02, 0.6, 60)
        rng = np.random.default_rng(3)
        ds = make_dataset([
            CurveObservations(i, times, rng.standard_normal(60))
            for i in range(6)
        ])
        sched = RegularitySchedule(m_hat=ds.m_hat)
        regs, dropped = regularity_at_anchors(ds, sched, 5)
        assert len(regs) + len(dropped) == 5
        assert regs and dropped
        assert all(r.t3 < 0.6 for r in regs)
        for t2, exc in dropped:
            assert t2 > 0.6
            assert isinstance(exc, InsufficientDataError)

    def test_every_anchor_failing_raises(self):
        ds = make_dataset([
            CurveObservations(i, np.linspace(0.05, 0.95, 30), np.ones(30))
            for i in range(5)
        ])
        sched = RegularitySchedule(m_hat=ds.m_hat)
        with pytest.raises(EstimationError, match="all 2 anchors"):
            regularity_at_anchors(ds, sched, 2)


class TestNoise:
    def test_k0_schedule(self):
        assert noise_k0(1000) == 23
        assert noise_k0(4) == 3
        assert noise_k0(3) == 2

    def test_constant_mode_by_hand(self):
        c1 = CurveObservations(0, np.array([0.1, 0.3, 0.5]),
                               np.array([1.0, 2.0, 1.5]))
        c2 = CurveObservations(1, np.array([0.2, 0.4, 0.6, 0.8]),
                               np.array([0.5, 1.0, 0.0, 2.0]))
        ds = make_dataset([c1, c2])
        est = estimate_noise(ds, np.array([0.3, 0.7]), mode="constant")
        # curve 0: (1 + 0.25) / 4, curve 1: (0.25 + 1 + 4) / 6, averaged
        want = 0.5 * (1.25 / 4.0 + 5.25 / 6.0)
        assert_allclose(est.sigma2_max, want, rtol=1e-12)
        assert_allclose(est.sigma2_grid, want)

    def test_time_varying_picks_nearest_differences(self):
        times = np.array(
            [0.05, 0.1, 0.15, 0.2, 0.25, 0.75, 0.8, 0.85, 0.9, 0.95]
        )
        values = np.array(
            [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0]
        )
        curves = [CurveObservations(i, times, values) for i in range(2)]
        ds = make_dataset(curves)
        est = estimate_noise(ds, np.array([0.125, 0.875]),
                             mode="time_varying")
        # K0 = 4 at m_hat = 10; the window at 0.125 holds only the four
        # left-cluster differences (each squared value 1), the window
        # at 0.875 only the right-cluster ones (each squared value 4)
        assert est.K0 == 4
        assert_allclose(est.sigma2_grid[0], 4.0 / 8.0)
        assert_allclose(est.sigma2_grid[1], 16.0 / 8.0)
        assert est.sigma2_max == est.sigma2_grid.max()

    def test_unbiased_on_constant_signal(self, rng):
        times = np.linspace(0.01, 0.99, 400)
        curves = [
            CurveObservations(
                i, times, 5.0 + 0.1 * rng.standard_normal(times.size)
            )
            for i in range(30)
        ]
        ds = make_dataset(curves)
        est = estimate_noise(ds, np.array([0.5]), mode="constant")
        assert abs(est.sigma2_max - 0.01) < 0.002

    def test_unknown_mode(self):
        c = [CurveObservations(i, np.array([0.2, 0.4]), np.zeros(2))
             for i in range(2)]
        with pytest.raises(ValidationError):
            estimate_noise(make_dataset(c), np.array([0.5]), mode="robust")


class TestEstimateRegularity:
    def test_brownian_motion_exponent(self):
        spec = ProcessSpec(kind="fbm", hurst=0.5)
        design = DesignSpec(kind="common", m_mean=300)
        noise = type(NO_NOISE)(kind="homoscedastic", sd=0.05)
        out = sample_dataset(spec, design, noise, 400, 314)
        ds = out.dataset
        sched = RegularitySchedule(m_hat=ds.m_hat)
        reg = sample = estimate_regularity(ds, 0.5, sched, EPANECHNIKOV)
        assert reg.delta_hat == 0
        assert abs(reg.alpha_hat - 0.5) < 0.15
        assert reg.retained_curves == 400
        assert reg.L2_hat > 0

    def test_smooth_process_finds_derivative(self):
        """Integrated rough paths should report delta_hat >= 1."""
        spec = ProcessSpec(kind="fbm", hurst=0.35)
        design = DesignSpec(kind="common", m_mean=1200)
        out = sample_dataset(spec, design, NO_NOISE, 150, 2718)
        times = out.dataset.curves[0].times
        curves = []
        for i, c in enumerate(out.dataset.curves):
            integ = np.concatenate(
                ([0.0], np.cumsum(np.diff(times) * 0.5
                                  * (c.values[1:] + c.values[:-1])))
            )
            curves.append(CurveObservations(i, times, integ))
        ds = make_dataset(curves)
        sched = RegularitySchedule(m_hat=ds.m_hat)
        reg = estimate_regularity(ds, 0.5, sched, EPANECHNIKOV)
        assert reg.delta_hat >= 1
        assert abs(reg.alpha_hat - 1.35) < 0.3

    def test_anchor_too_close_to_boundary(self):
        spec = ProcessSpec(kind="fbm", hurst=0.5)
        design = DesignSpec(kind="common", m_mean=50)
        out = sample_dataset(spec, design, NO_NOISE, 5, 0)
        sched = RegularitySchedule(m_hat=50)
        with pytest.raises(ValidationError):
            estimate_regularity(out.dataset, 0.01, sched, EPANECHNIKOV)

    def test_alpha_bounded_by_schedule(self):
        spec = ProcessSpec(kind="fbm", hurst=0.5)
        design = DesignSpec(kind="common", m_mean=200)
        noise = type(NO_NOISE)(kind="homoscedastic", sd=0.05)
        out = sample_dataset(spec, design, noise, 50, 11)
        sched = RegularitySchedule(m_hat=200)
        reg = estimate_regularity(out.dataset, 0.5, sched, EPANECHNIKOV)
        assert 0.05 <= reg.alpha_hat <= sched.delta_max + 1.0
        assert len(reg.H_hat) == reg.delta_hat + 1
        assert len(reg.theta_hats) == reg.delta_hat + 1
