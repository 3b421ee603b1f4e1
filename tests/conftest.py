import numpy as np
import pytest

from fdadapt import (
    CurveObservations,
    NoiseEstimate,
    RegularityEstimate,
    make_dataset,
)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
