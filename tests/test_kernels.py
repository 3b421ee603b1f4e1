import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_oracle import lp_coefficient_weights, lp_weights
from numpy.testing import assert_allclose
from scipy.integrate import quad

from fdadapt import (
    BIWEIGHT,
    EPANECHNIKOV,
    UNIFORM,
    CurveObservations,
    ValidationError,
    get_kernel,
    kernel_abs_moment,
    make_dataset,
    presmooth_matrix,
)


def brute_force_weights(times, t, h, order, kernel, deriv=0):
    """Weighted least squares solve, written independently.

    The fit minimizes sum K((T-t)/h) (y - sum_j b_j (T-t)^j / j!)^2,
    so the deriv-th coefficient is a linear function of y; the weight
    vector is recovered by solving against unit vectors.
    """
    z = (times - t) / h
    k = kernel(z)
    idx = np.nonzero(np.abs(z) <= 1.0)[0]
    tt = times[idx] - t
    X = np.column_stack([tt**j / math.factorial(j)
                         for j in range(order + 1)])
    W = np.diag(kernel((times[idx] - t) / h))
    A = X.T @ W @ X
    row = np.linalg.solve(A, np.eye(order + 1)[deriv])
    w = row @ X.T @ W
    return idx, w


class TestKernelShapes:
    def test_peak_values(self):
        assert UNIFORM(0.0) == 0.5
        assert EPANECHNIKOV(0.0) == 0.75
        assert BIWEIGHT(0.0) == 0.9375

    def test_zero_outside_support(self):
        u = np.array([-1.5, 1.01, 7.0])
        for kern in (UNIFORM, EPANECHNIKOV, BIWEIGHT):
            assert_allclose(kern(u), 0.0)

    def test_integrates_to_one(self):
        for kern in (UNIFORM, EPANECHNIKOV, BIWEIGHT):
            val, _ = quad(lambda u: float(kern(u)), -1, 1)
            assert_allclose(val, 1.0, rtol=1e-10)

    @pytest.mark.parametrize("kern", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_equals_masked_expression(self, kern):
        # the value where |u| <= 1 and 0 elsewhere, written with np.where,
        # bit for bit: on a dense grid, at +-1 and the floats next to them,
        # at +-0, +-inf and NaN
        edges = [x for one in (-1.0, 1.0)
                 for x in (np.nextafter(one, -2.0), one,
                           np.nextafter(one, 2.0))]
        u = np.concatenate((np.linspace(-1.5, 1.5, 30001), edges,
                            [0.0, -0.0, np.inf, -np.inf, np.nan]))
        inside = np.abs(u) <= 1.0
        sq = 1.0 - u * u
        want = np.where(inside, {UNIFORM: 0.5, EPANECHNIKOV: 0.75 * sq,
                                 BIWEIGHT: 0.9375 * sq * sq}[kern], 0.0)
        got = kern(u)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))

    def test_get_kernel_by_name(self):
        assert get_kernel("biweight") == BIWEIGHT
        assert get_kernel(EPANECHNIKOV) is EPANECHNIKOV
        with pytest.raises(ValidationError):
            get_kernel("tricube")


class TestKernelMoments:
    # closed form for the biweight: 15 / ((a+1)(a+3)(a+5))
    cases = [
        (0.0, 1.0),
        (0.5, 0.5194805194805194),
        (1.0, 0.3125),
        (1.4, 0.2219460227272727),
        (2.0, 0.14285714285714285),
    ]

    @pytest.mark.parametrize("a,expected", cases)
    def test_biweight_closed_form(self, a, expected):
        assert_allclose(kernel_abs_moment(BIWEIGHT, a), expected, rtol=1e-12)

    def test_biweight_zeroth_moment_exact(self):
        assert kernel_abs_moment(BIWEIGHT, 0.0) == 1.0

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.4, 2.0])
    def test_matches_quadrature(self, a):
        for kern in (UNIFORM, EPANECHNIKOV, BIWEIGHT):
            got = kernel_abs_moment(kern, a)
            want, _ = quad(lambda u: abs(u) ** a * float(kern(u)), -1, 1,
                           epsabs=1e-13, epsrel=1e-13)
            assert_allclose(got, want, rtol=1e-9, atol=1e-12)


class TestLpWeights:
    def make_curve(self, rng, m=25):
        times = np.sort(rng.uniform(0.05, 0.95, m))
        return CurveObservations(0, times, rng.standard_normal(m))

    def test_weights_sum_to_one(self, rng):
        c = self.make_curve(rng)
        lw = lp_weights(c, t=0.5, h=0.3, order=1, kernel=BIWEIGHT, k0=2)
        assert not lw.degenerate
        assert_allclose(lw.weights.sum(), 1.0, atol=1e-10)

    def test_moment_conditions(self, rng):
        c = self.make_curve(rng)
        for order in (1, 2, 3):
            lw = lp_weights(c, 0.5, 0.4, order, BIWEIGHT, k0=order + 1)
            tt = c.times[lw.indices] - 0.5
            for d in range(1, order + 1):
                assert_allclose((tt**d * lw.weights).sum(), 0.0, atol=1e-9)

    def test_reproduces_polynomials(self, rng):
        c = self.make_curve(rng, m=40)
        for order in (0, 1, 2, 3):
            coefs = rng.standard_normal(order + 1)
            values = np.polyval(coefs, c.times)
            lw = lp_weights(c, 0.41, 0.35, order, EPANECHNIKOV, k0=order + 1)
            got = lw.weights @ values[lw.indices]
            assert_allclose(got, np.polyval(coefs, 0.41), rtol=1e-8,
                            atol=1e-8)

    def test_order_zero_is_nadaraya_watson(self, rng):
        c = self.make_curve(rng)
        lw = lp_weights(c, 0.5, 0.2, 0, BIWEIGHT, k0=1)
        k = BIWEIGHT((c.times[lw.indices] - 0.5) / 0.2)
        assert_allclose(lw.weights, k / k.sum(), rtol=1e-12)

    def test_matches_brute_force_solve(self, rng):
        for trial in range(50):
            m = int(rng.integers(8, 40))
            times = np.sort(rng.uniform(0.02, 0.98, m))
            c = CurveObservations(0, times, rng.standard_normal(m))
            t = float(rng.uniform(0.2, 0.8))
            h = float(rng.uniform(0.15, 0.5))
            order = int(rng.integers(0, 3))
            lw = lp_weights(c, t, h, order, BIWEIGHT, k0=order + 1)
            if lw.degenerate or order == 0:
                continue
            idx, w = brute_force_weights(times, t, h, order, BIWEIGHT)
            assert_allclose(lw.indices, idx)
            assert_allclose(lw.weights, w, rtol=1e-7, atol=1e-9)

    def test_derivative_weights_differentiate_polynomials(self, rng):
        c = self.make_curve(rng, m=40)
        coefs = rng.standard_normal(3)  # quadratic
        values = np.polyval(coefs, c.times)
        lw = lp_coefficient_weights(c.times, 0.5, 0.4, order=2,
                                    kernel=BIWEIGHT, k0=3, deriv=1)
        got = lw.weights @ values[lw.indices]
        want = np.polyval(np.polyder(coefs), 0.5)
        assert_allclose(got, want, rtol=1e-7, atol=1e-8)

    def test_too_few_points_is_degenerate(self, rng):
        c = self.make_curve(rng, m=10)
        lw = lp_weights(c, 0.5, 1e-5, 1, BIWEIGHT, k0=2)
        assert lw.degenerate
        assert lw.weights.size == 0

    def test_k0_below_order_plus_one_rejected(self, rng):
        c = self.make_curve(rng)
        with pytest.raises(ValidationError):
            lp_weights(c, 0.5, 0.3, 2, BIWEIGHT, k0=2)

    def test_invalid_order_rejected(self, rng):
        c = self.make_curve(rng)
        with pytest.raises(ValidationError):
            lp_weights(c, 0.5, 0.3, 5, BIWEIGHT, k0=6)
        with pytest.raises(ValidationError):
            lp_weights(c, 0.5, -0.3, 1, BIWEIGHT, k0=2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    t=st.floats(0.2, 0.8),
    h=st.floats(0.12, 0.5),
    order=st.integers(0, 2),
)
def test_weight_sum_property(seed, t, h, order):
    """Non-degenerate weights always sum to one, whatever the window."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, 30))
    times = np.sort(rng.uniform(0.02, 0.98, m))
    if np.any(np.diff(times) <= 0):
        return
    c = CurveObservations(0, times, rng.standard_normal(m))
    lw = lp_weights(c, t, h, order, EPANECHNIKOV, k0=order + 1)
    if not lw.degenerate:
        assert abs(lw.weights.sum() - 1.0) < 1e-8


class TestNwPresmooth:
    def test_constant_curve_recovered(self, rng):
        times = np.sort(rng.uniform(0.05, 0.95, 30))
        ds = make_dataset(
            [CurveObservations(i, times, np.full(30, 2.5)) for i in range(2)]
        )
        grid = np.linspace(0.1, 0.9, 9)
        got = presmooth_matrix(ds, grid, 0.2, EPANECHNIKOV)
        assert_allclose(got, 2.5, rtol=1e-12)

    def test_empty_window_gives_nan(self):
        ds = make_dataset([
            CurveObservations(0, np.array([0.8, 0.9]), np.array([1.0, 2.0])),
            CurveObservations(1, np.array([0.1, 0.9]), np.array([1.0, 2.0])),
        ])
        got = presmooth_matrix(ds, np.array([0.1]), 0.05, BIWEIGHT)
        assert np.isnan(got[0, 0])
        assert got[1, 0] == 1.0
