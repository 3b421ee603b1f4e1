import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import fdadapt.simulate as sim
from fdadapt import (
    DesignSpec,
    GenerationError,
    MeanFunction,
    NoiseSpec,
    ProcessSpec,
    ValidationError,
    cov_matrix,
    sample_dataset,
    true_covariance,
)


class TestProcessSpec:
    def test_true_alpha(self):
        assert ProcessSpec(kind="fbm", hurst=0.3).true_alpha == 0.3
        assert ProcessSpec(kind="fou", a=1.0, rho=1.0).true_alpha == 0.5
        assert_allclose(
            ProcessSpec(kind="kl", nu=2.4, n_terms=25).true_alpha, 0.7
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            ProcessSpec(kind="fbm", hurst=1.2)
        with pytest.raises(ValidationError):
            ProcessSpec(kind="fou", a=-1.0, rho=1.0)
        with pytest.raises(ValidationError):
            ProcessSpec(kind="kl", nu=0.5, n_terms=10)
        with pytest.raises(ValidationError):
            ProcessSpec(kind="ou")


class TestTrueCovariance:
    def test_standard_bm_is_min(self):
        spec = ProcessSpec(kind="fbm", hurst=0.5)
        assert_allclose(true_covariance(spec, 0.3, 0.7), 0.3, rtol=1e-12)
        assert_allclose(true_covariance(spec, 0.6, 0.2), 0.2, rtol=1e-12)

    def test_fbm_formula(self):
        spec = ProcessSpec(kind="fbm", hurst=0.3)
        s, t = 0.2, 0.5
        want = 0.5 * (s**0.6 + t**0.6 - abs(t - s) ** 0.6)
        assert_allclose(true_covariance(spec, s, t), want, rtol=1e-12)

    def test_fou_formula(self):
        spec = ProcessSpec(kind="fou", a=2.0, rho=1.5)
        got = true_covariance(spec, 0.2, 0.6)
        assert_allclose(got, np.exp(-2.0 * 0.4**1.5), rtol=1e-12)

    def test_kl_single_term_is_constant_one(self):
        # the first basis function is identically 1 with eigenvalue 1
        spec = ProcessSpec(kind="kl", nu=3.0, n_terms=1)
        pts = np.array([0.1, 0.5, 0.9])
        assert_allclose(
            true_covariance(spec, pts[:, None], pts[None, :]), 1.0,
            rtol=1e-12,
        )

    def test_cov_matrix_matches_pointwise(self):
        pts = np.array([0.2, 0.45, 0.8])
        for spec in (
            ProcessSpec(kind="fbm", hurst=0.7),
            ProcessSpec(kind="fou", a=1.0, rho=1.0),
            ProcessSpec(kind="kl", nu=2.0, n_terms=7),
        ):
            M = cov_matrix(spec, pts)
            want = true_covariance(spec, pts[:, None], pts[None, :])
            assert_allclose(M, want, rtol=1e-10, atol=1e-12)
            assert_allclose(M, M.T)


class TestMeanFunction:
    def test_evaluation(self):
        mf = MeanFunction(beta0=2.0, cos_coefs=(1.0,), sin_coefs=(0.5,))
        t = np.array([0.25])
        want = (2.0 * 0.25
                + np.sqrt(2.0) * (1.0 * np.cos(2 * np.pi * 0.25)
                                  + 0.5 * np.sin(2 * np.pi * 0.25)))
        assert_allclose(mf(t), want, rtol=1e-12)

    def test_zero_mean_flag(self):
        assert MeanFunction(beta0=0.0).is_zero
        assert not MeanFunction(beta0=1.0).is_zero

    @pytest.mark.parametrize("kw", [
        dict(beta0=np.nan), dict(beta0=np.inf), dict(cos_coefs=(1.0, np.nan)),
        dict(sin_coefs=(-np.inf,))], ids=str)
    def test_rejects_non_finite(self, kw):
        with pytest.raises(ValidationError, match="must be finite"):
            MeanFunction(**kw)


class TestNoiseSpec:
    @pytest.mark.parametrize("kind", ["none", "homoscedastic",
                                      "time_varying"])
    @pytest.mark.parametrize("sd", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sd(self, kind, sd):
        with pytest.raises(ValidationError, match="noise sd must be finite"):
            NoiseSpec(kind=kind, sd=sd, sd_fn=lambda t: t)


class TestDesignSpec:
    def test_common_rejects_jitter(self):
        with pytest.raises(ValidationError):
            DesignSpec(kind="common", m_mean=20, p_jitter=0.3)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            DesignSpec(kind="sparse", m_mean=20)


class TestSampleDataset:
    spec = ProcessSpec(kind="fbm", hurst=0.5)
    noise = NoiseSpec(kind="homoscedastic", sd=0.1)

    def test_deterministic_given_seed(self):
        design = DesignSpec(kind="independent", m_mean=15, p_jitter=0.3)
        a = sample_dataset(self.spec, design, self.noise, 6, 123)
        b = sample_dataset(self.spec, design, self.noise, 6, 123)
        for ca, cb in zip(a.dataset.curves, b.dataset.curves):
            assert_array_equal(ca.times, cb.times)
            assert_array_equal(ca.values, cb.values)

    def test_different_seeds_differ(self):
        design = DesignSpec(kind="independent", m_mean=15)
        a = sample_dataset(self.spec, design, self.noise, 4, 1)
        b = sample_dataset(self.spec, design, self.noise, 4, 2)
        assert not np.array_equal(a.dataset.curves[0].values,
                                  b.dataset.curves[0].values)

    def test_common_design_times(self):
        design = DesignSpec(kind="common", m_mean=10)
        out = sample_dataset(self.spec, design, sim.NO_NOISE, 3, 0)
        want = np.arange(1, 11) / 11.0
        for c in out.dataset.curves:
            assert_allclose(c.times, want, rtol=1e-15)
        assert out.dataset.design == "common"

    def test_jitter_bounds_obs_counts(self):
        design = DesignSpec(kind="independent", m_mean=40, p_jitter=0.5)
        out = sample_dataset(self.spec, design, sim.NO_NOISE, 50, 5)
        counts = np.array([len(c) for c in out.dataset.curves])
        assert counts.min() >= 20 - 1 and counts.max() <= 60 + 1
        assert counts.std() > 0

    def test_no_jitter_fixes_counts(self):
        design = DesignSpec(kind="independent", m_mean=25)
        out = sample_dataset(self.spec, design, sim.NO_NOISE, 10, 5)
        assert all(len(c) == 25 for c in out.dataset.curves)

    def test_noiseless_values_are_latent(self):
        """Without noise the observations equal the latent curve values."""
        mf = MeanFunction(beta0=1.0)
        spec = ProcessSpec(kind="fbm", hurst=0.5, mean_fn=mf)
        design = DesignSpec(kind="independent", m_mean=12)
        out = sample_dataset(spec, design, sim.NO_NOISE, 4, 9)
        assert len(out.latents) == 4
        for c, lat in zip(out.dataset.curves, out.latents):
            assert_array_equal(c.values, lat)

    def test_grid_latents_shape(self):
        grid = np.linspace(0.1, 0.9, 7)
        design = DesignSpec(kind="common", m_mean=10)
        out = sample_dataset(self.spec, design, self.noise, 5, 0,
                             eval_grid=grid)
        assert out.grid_latents.shape == (5, 7)

    def test_marginal_covariance_monte_carlo(self):
        """Sample covariance at grid points approaches the exact one."""
        pts = np.array([0.2, 0.4, 0.6, 0.8])
        design = DesignSpec(kind="common", m_mean=5)
        out = sample_dataset(self.spec, design, sim.NO_NOISE, 4000, 77,
                             eval_grid=pts)
        X = out.grid_latents
        emp = (X.T @ X) / X.shape[0]
        want = true_covariance(self.spec, pts[:, None], pts[None, :])
        assert np.max(np.abs(emp - want)) < 0.06

    def test_mean_function_enters_observations(self):
        mf = MeanFunction(beta0=3.0)
        spec = ProcessSpec(kind="fou", a=1.0, rho=1.0, mean_fn=mf)
        design = DesignSpec(kind="common", m_mean=30)
        out = sample_dataset(spec, design, sim.NO_NOISE, 2000, 3)
        t = out.dataset.curves[0].times
        avg = np.mean([c.values for c in out.dataset.curves], axis=0)
        assert np.max(np.abs(avg - 3.0 * t)) < 0.12

    def test_rejects_single_curve(self):
        design = DesignSpec(kind="common", m_mean=10)
        with pytest.raises(ValidationError):
            sample_dataset(self.spec, design, self.noise, 1, 0)

    def test_non_psd_covariance_raises(self, monkeypatch):
        def bad_cov(spec, pts):
            n = pts.size
            M = -np.eye(n)
            return M

        monkeypatch.setattr(sim, "cov_matrix", bad_cov)
        design = DesignSpec(kind="independent", m_mean=5)
        with pytest.raises(GenerationError, match="curve 0"):
            sample_dataset(self.spec, design, self.noise, 3, 0)

    def test_state_dependent_noise_scales_with_level(self):
        big = NoiseSpec(kind="state_dependent", sd=1.0,
                        sd_fn=lambda t, x: np.abs(x) * 10.0)
        design = DesignSpec(kind="common", m_mean=50)
        base = sample_dataset(self.spec, design, sim.NO_NOISE, 5, 42)
        noisy = sample_dataset(self.spec, design, big, 5, 42)
        gap = np.abs(noisy.dataset.values_flat - base.dataset.values_flat)
        assert gap.max() > 1.0
