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
from scipy.interpolate import RegularGridInterpolator

from fdadapt import (
    BIWEIGHT,
    BandwidthGrid,
    CurveObservations,
    EstimationError,
    InsufficientDataError,
    MeanEstimate,
    ValidationError,
    band_exponent,
    covariance_risk,
    covariance_risk_terms,
    diagonal_band_width,
    diagonal_fill_error,
    estimate_covariance,
    inclusion_stats,
    make_dataset,
    pair_inclusion_stats,
    select_cov_bandwidth,
)
from fdadapt.covariance import bandwidth_admissible, combine_pair_stats
from fdadapt.kernels import MAX_ORDER


def mean_stub(points, values):
    """A mean result with prescribed values and blank diagnostics."""
    pts = np.asarray(points, dtype=float)
    vals = np.broadcast_to(np.asarray(values, dtype=float), pts.shape)
    z = np.zeros(pts.size)
    return MeanEstimate(
        points=pts, values=np.array(vals), h_star=z,
        W_N=np.zeros(pts.size, dtype=int), risk_bias=z, risk_var=z,
        risk_dropout=z, anchor_t=pts[:1], anchor_h=z[:1],
        anchor_alpha=np.array([0.5]),
    )


class TestPairStats:
    def test_composition_by_hand(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, n_curves=6, n_lo=8, n_hi=20)
            s = float(rng.uniform(0.2, 0.4))
            t = float(rng.uniform(0.6, 0.8))
            h = float(rng.uniform(0.05, 0.15))
            ss = inclusion_stats(ds, s, h, 0, BIWEIGHT, 2, 1.0)
            st = inclusion_stats(ds, t, h, 0, BIWEIGHT, 2, 1.4)
            ps = combine_pair_stats(ss, st)
            inc = ss.w & st.w
            assert_array_equal(ps.w_pair, inc)
            assert ps.W_pair == inc.sum()
            if ps.W_pair == 0:
                assert math.isnan(ps.gamma_hat)
                continue
            prods = ss.xhat[inc] * st.xhat[inc]
            assert_allclose(ps.gamma_hat, prods.mean(), rtol=1e-12)
            denom_t = (st.c1[inc] * st.max_abs_w[inc]).sum()
            assert_allclose(ps.N_gamma_ts, ps.W_pair**2 / denom_t,
                            rtol=1e-12)
            assert_allclose(
                ps.C_bar1_ts,
                (st.c1[inc] * st.c_alpha[inc]).sum() / ps.W_pair,
                rtol=1e-12,
            )
            denom_s = (ss.c1[inc] * ss.max_abs_w[inc]).sum()
            assert_allclose(ps.N_gamma_st, ps.W_pair**2 / denom_s,
                            rtol=1e-12)

    def test_mismatched_bandwidths_rejected(self, rng):
        ds = random_dataset(rng)
        a = inclusion_stats(ds, 0.3, 0.1, 0, BIWEIGHT, 2, 1.0)
        b = inclusion_stats(ds, 0.7, 0.2, 0, BIWEIGHT, 2, 1.0)
        with pytest.raises(ValidationError):
            combine_pair_stats(a, b)

    def test_empty_pair(self):
        times = np.array([0.1, 0.15, 0.2])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(3)) for i in range(2)]
        )
        ps = pair_inclusion_stats(ds, 0.15, 0.8, 0.03, 0, 0, BIWEIGHT, 2,
                                  0.5, 0.5)
        assert ps.W_pair == 0
        assert math.isnan(ps.gamma_hat)
        assert ps.N_gamma_ts == 0.0


class TestAdmissibility:
    def test_strict_window_separation(self):
        assert bandwidth_admissible(0.25, 0.75, 0.24)
        assert not bandwidth_admissible(0.25, 0.75, 0.25)
        assert not bandwidth_admissible(0.25, 0.75, 0.26)
        assert bandwidth_admissible(0.75, 0.25, 0.24)
        assert not bandwidth_admissible(0.5, 0.5, 0.01)


class TestCovarianceRisk:
    def test_hand_formula(self, rng):
        ds = random_dataset(rng, n_curves=8, n_lo=12, n_hi=20)
        s, t, h = 0.3, 0.7, 0.12
        reg_s = reg_stub(s, alpha=0.5, L2=1.2)
        reg_t = reg_stub(t, alpha=0.7, L2=0.9)
        noise = noise_stub(0.04)
        ps = pair_inclusion_stats(ds, s, t, h, 0, 0, BIWEIGHT, 2, 0.5, 0.7)
        assert ps.W_pair > 0
        m2_s, m2_t, var_p = 1.5, 2.0, 0.8
        b, v, d = covariance_risk_terms(
            ps, reg_s, reg_t, noise, m2_s, m2_t, var_p, ds.n_curves
        )
        want_b = (2.0 * m2_s * ps.C_bar1_ts * 0.9 * h**1.4
                  + 2.0 * m2_t * ps.C_bar1_st * 1.2 * h**1.0)
        want_v = 0.04 * m2_s / ps.N_gamma_ts + 0.04 * m2_t / ps.N_gamma_st
        want_d = var_p * (1.0 / ps.W_pair - 1.0 / ds.n_curves)
        assert_allclose(b, want_b, rtol=1e-12)
        assert_allclose(v, want_v, rtol=1e-12)
        assert_allclose(d, want_d, rtol=1e-12)
        assert_allclose(
            covariance_risk(ps, reg_s, reg_t, noise, m2_s, m2_t, var_p,
                            ds.n_curves),
            b + v + d,
        )

    def test_overlapping_windows_are_infinite(self, rng):
        ds = random_dataset(rng, n_curves=6, n_lo=15, n_hi=25)
        ps = pair_inclusion_stats(ds, 0.45, 0.55, 0.2, 0, 0, BIWEIGHT, 2,
                                  0.5, 0.5)
        r = covariance_risk(ps, reg_stub(0.45, 0.5), reg_stub(0.55, 0.5),
                            noise_stub(0.01), 1.0, 1.0, 1.0, ds.n_curves)
        assert r == math.inf

    def test_empty_pair_is_infinite(self):
        times = np.array([0.1, 0.15, 0.2])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(3)) for i in range(2)]
        )
        ps = pair_inclusion_stats(ds, 0.15, 0.8, 0.03, 0, 0, BIWEIGHT, 2,
                                  0.5, 0.5)
        r = covariance_risk(ps, reg_stub(0.15, 0.5), reg_stub(0.8, 0.5),
                            noise_stub(0.01), 1.0, 1.0, 1.0, 2)
        assert r == math.inf


class TestDiagonalBand:
    def test_exponent_value(self):
        assert_allclose(band_exponent(0.5), 0.375, rtol=1e-15)
        assert_allclose(band_exponent(1.0), 2.5 / 9.0, rtol=1e-15)

    def test_width_on_balanced_design(self):
        times = np.arange(1, 101) / 101.0
        curves = [
            CurveObservations(i, times, np.zeros(100)) for i in range(100)
        ]
        ds = make_dataset(curves)
        assert_allclose(diagonal_band_width(ds, 0.5),
                        0.03162277660168379, rtol=1e-12)

    def test_width_grows_with_sparsity(self):
        t_dense = np.arange(1, 201) / 201.0
        t_sparse = np.arange(1, 21) / 21.0
        dense = make_dataset(
            [CurveObservations(i, t_dense, np.zeros(200)) for i in range(30)]
        )
        sparse = make_dataset(
            [CurveObservations(i, t_sparse, np.zeros(20)) for i in range(30)]
        )
        assert diagonal_band_width(sparse, 0.5) > diagonal_band_width(
            dense, 0.5
        )

    def test_validation(self, rng):
        ds = random_dataset(rng)
        with pytest.raises(ValidationError):
            diagonal_band_width(ds, 0.0)


class TestSelectCovBandwidth:
    def test_selected_bandwidth_is_admissible(self, rng):
        ds = random_dataset(rng, n_curves=10, n_lo=20, n_hi=35)
        s, t = 0.3, 0.7
        prof = select_cov_bandwidth(
            ds, s, t, reg_stub(s, 0.5), reg_stub(t, 0.5), noise_stub(0.02),
            1.0, 1.0, 0.5, BIWEIGHT, 2,
        )
        assert bandwidth_admissible(s, t, prof.h_star)
        assert prof.W_pair[prof.h_star_index] > 0
        fin = np.isfinite(prof.total)
        assert prof.total[prof.h_star_index] == prof.total[fin].min()

    def test_too_close_pair_raises(self, rng):
        ds = random_dataset(rng, n_curves=10, n_lo=20, n_hi=35)
        with pytest.raises(InsufficientDataError):
            select_cov_bandwidth(
                ds, 0.5, 0.515, reg_stub(0.5, 0.5), reg_stub(0.515, 0.5),
                noise_stub(0.02), 1.0, 1.0, 0.5, BIWEIGHT, 2,
            )


class TestCovRiskOverGrid:
    """select_cov_bandwidth's term arrays against a per-h loop of
    combine_pair_stats and covariance_risk_terms."""

    @staticmethod
    def check(ds, s, t, reg_s, reg_t, k0=2):
        noise, m2_s, m2_t, var_p = noise_stub(0.02), 1.3, 0.9, 0.6
        N = ds.n_curves
        prof = select_cov_bandwidth(ds, s, t, reg_s, reg_t, noise, m2_s,
                                    m2_t, var_p, BIWEIGHT, k0)
        order_s = min(int(math.floor(reg_s.alpha_hat)), MAX_ORDER)
        order_t = min(int(math.floor(reg_t.alpha_hat)), MAX_ORDER)
        want, W = [], []
        for h in prof.bandwidths:
            ps = combine_pair_stats(
                inclusion_stats(ds, s, h, order_s, BIWEIGHT,
                                max(k0, order_s + 1), 2.0 * reg_s.alpha_hat),
                inclusion_stats(ds, t, h, order_t, BIWEIGHT,
                                max(k0, order_t + 1), 2.0 * reg_t.alpha_hat),
            )
            W.append(ps.W_pair)
            want.append(covariance_risk_terms(ps, reg_s, reg_t, noise, m2_s,
                                              m2_t, var_p, N))
            if ps.W_pair == 0 or not bandwidth_admissible(s, t, h):
                assert want[-1] == (math.inf,) * 3
                assert covariance_risk(ps, reg_s, reg_t, noise, m2_s, m2_t,
                                       var_p, N) == math.inf
        want = np.array(want)
        for k, got in enumerate((prof.term_bias, prof.term_var,
                                 prof.term_dropout)):
            assert_same_risk(got, want[:, k])
        assert_array_equal(prof.W_pair, W)
        assert prof.h_star_index == int(np.argmin(want.sum(axis=1)))
        return prof

    def test_empty_and_inadmissible_bandwidths(self, rng):
        # |t - s| = 0.13: h >= 0.065 is inadmissible; the sparse curves
        # leave the smallest windows empty
        ds = random_dataset(rng, n_curves=8, n_lo=10, n_hi=20)
        s, t = 0.4, 0.53
        prof = self.check(ds, s, t, reg_stub(s, 0.5), reg_stub(t, 0.7))
        admissible = 2.0 * prof.bandwidths < t - s
        assert not admissible.all() and np.isinf(prof.total[~admissible]).all()
        assert (prof.W_pair[admissible] == 0).any()
        assert np.isfinite(prof.total).any()

    def test_order_one_anchor(self, rng):
        ds = random_dataset(rng, n_curves=10, n_lo=25, n_hi=40)
        s, t = 0.3, 0.6
        prof = self.check(ds, s, t, reg_stub(s, 1.3, L2=0.8),
                          reg_stub(t, 0.6), k0=3)
        assert np.isfinite(prof.total).any()


class TestEstimateCovariance:
    levels = [1.0, 2.0, 3.0, 4.0, 5.0]

    def surface(self, psd_project=False, mean_values=3.0):
        times = np.linspace(0.02, 0.98, 200)
        ds = constant_dataset(self.levels, times)
        regs = [reg_stub(0.3, 0.5, L2=0.5), reg_stub(0.7, 0.5, L2=0.5)]
        grid = np.linspace(0.1, 0.9, 33)
        mu = mean_stub(grid, mean_values)
        return ds, grid, estimate_covariance(
            ds, grid, grid, regs, noise_stub(0.0), mu,
            psd_project=psd_project,
        )

    def test_constant_curves_recover_population_variance(self):
        _, grid, surf = self.surface()
        # curves are constants L_i, so Gamma(s, t) = Var(L) everywhere
        want = np.var(self.levels)
        assert np.isfinite(surf.values).all()
        assert_allclose(surf.values, want, rtol=1e-9)
        assert_allclose(surf.gamma_values, np.mean(np.square(self.levels)),
                        rtol=1e-9)

    def test_surface_is_exactly_symmetric(self):
        _, _, surf = self.surface()
        assert_array_equal(surf.values, surf.values.T)
        assert_array_equal(surf.gamma_values, surf.gamma_values.T)
        assert_array_equal(surf.h_star, surf.h_star.T)
        assert_array_equal(surf.in_band, surf.in_band.T)

    def test_in_band_mask_matches_width(self):
        _, grid, surf = self.surface()
        gap = np.abs(grid[:, None] - grid[None, :])
        assert_array_equal(surf.in_band, gap <= surf.band_width_d)
        assert surf.in_band.any()
        assert not surf.in_band.all()

    def test_off_band_bandwidths_are_admissible(self):
        _, grid, surf = self.surface()
        off = ~surf.in_band & ~surf.undefined_mask
        gap = np.abs(grid[:, None] - grid[None, :])
        assert (2.0 * surf.h_star[off] <= gap[off]).all()

    def test_band_fill_constant_along_anti_diagonals(self):
        _, grid, surf = self.surface()
        # grid[13] + grid[15] == 2 * grid[14], all three pairs in band
        assert surf.in_band[13, 15] and surf.in_band[14, 14]
        assert surf.values[13, 15] == surf.values[14, 14]
        assert surf.values[15, 13] == surf.values[14, 14]

    def test_zero_mean_makes_gamma_equal_values(self):
        _, grid, surf = self.surface(mean_values=0.0)
        assert_array_equal(surf.values, surf.gamma_values)

    def test_psd_projection(self):
        _, _, raw = self.surface()
        _, _, proj = self.surface(psd_project=True)
        eig = np.linalg.eigvalsh(proj.values)
        assert eig.min() >= -1e-10
        assert_allclose(proj.values, raw.values, atol=1e-8)

    def test_psd_projection_needs_square_grid(self):
        times = np.linspace(0.02, 0.98, 60)
        ds = constant_dataset(self.levels, times)
        regs = [reg_stub(0.5, 0.5, L2=0.5)]
        gs = np.linspace(0.1, 0.9, 9)
        gt = np.linspace(0.1, 0.9, 11)
        with pytest.raises(ValidationError):
            estimate_covariance(
                ds, gs, gt, regs, noise_stub(0.0), mean_stub(gs, 3.0),
                psd_project=True,
            )

    def test_uncovered_row_raises(self):
        times = np.linspace(0.5, 0.98, 40)
        ds = constant_dataset([1.0, 2.0, 3.0], times)
        regs = [reg_stub(0.6, 0.5, L2=0.5), reg_stub(0.9, 0.5, L2=0.5)]
        grid = np.array([0.05, 0.6, 0.7, 0.8])
        with pytest.raises(EstimationError):
            estimate_covariance(
                ds, grid, grid, regs, noise_stub(0.0), mean_stub(grid, 2.0)
            )

    def test_needs_anchor(self, rng):
        ds = random_dataset(rng)
        grid = np.linspace(0.2, 0.8, 5)
        with pytest.raises(ValidationError):
            estimate_covariance(ds, grid, grid, [], noise_stub(0.0),
                                mean_stub(grid, 0.0))


class TestSurfaceCells:
    """Each cell of the surface against pair_inclusion_stats at its pair:
    the cell's own pair off the band, the band boundary pair with the
    same midpoint inside it."""

    regs = [reg_stub(0.3, 0.6, L2=0.8), reg_stub(0.7, 1.3, L2=1.2)]
    mean = 0.2

    def surface(self, rng, grid_spec=None):
        ds = make_dataset(jittered_curves(rng, 20, 60, 100))
        grid = np.linspace(0.1, 0.9, 15)
        return ds, grid, estimate_covariance(
            ds, grid, grid, self.regs, noise_stub(0.05),
            mean_stub(grid, self.mean), grid_spec=grid_spec)

    def end(self, x):
        """(order, alpha) of the anchor nearest to x."""
        reg = min(self.regs, key=lambda r: abs(r.anchor_t2 - x))
        return min(int(math.floor(reg.alpha_hat)), MAX_ORDER), reg.alpha_hat

    def test_cells_are_pair_estimates(self, rng):
        ds, grid, surf = self.surface(rng)
        d = surf.band_width_d
        lat_h = RegularGridInterpolator((surf.lattice, surf.lattice),
                                        surf.lattice_h)
        hs = BandwidthGrid.default_cov().values()
        assert surf.in_band.any() and not surf.in_band.all()
        assert not surf.undefined_mask.any()
        for i, s in enumerate(grid):
            for j, t in enumerate(grid):
                a, b = sorted((s, t))
                if surf.in_band[i, j]:
                    u = np.clip(0.5 * (a + b), 0.5 * d + 1e-9,
                                1.0 - 0.5 * d - 1e-9)
                    a, b = u - 0.5 * d, u + 0.5 * d
                h = surf.h_star[i, j]
                ends = np.clip([a, b], surf.lattice[0], surf.lattice[-1])
                want_h = np.clip(lat_h(ends)[0], hs[0], hs[-1])
                if 2.0 * want_h < b - a:
                    assert_allclose(h, want_h, rtol=1e-12)
                else:
                    assert h == 0.5 * (b - a) * (1.0 - 1e-9)
                (oa, alpha_a), (ob, alpha_b) = self.end(a), self.end(b)
                ps = pair_inclusion_stats(ds, a, b, h, oa, ob, BIWEIGHT, 2,
                                          alpha_a, alpha_b)
                value = ps.gamma_hat - self.mean * self.mean
                assert surf.W_N_pair[i, j] == ps.W_pair
                if not surf.in_band[i, j]:
                    assert surf.values[i, j] == value
                    assert surf.gamma_values[i, j] == ps.gamma_hat
                    continue
                # boundary pairs equal to 12 decimals share the estimate
                # of the first of them, so the last bits may differ
                assert_allclose(surf.values[i, j], value, rtol=1e-12)
                assert surf.gamma_values[i, j] == (
                    surf.values[i, j] + self.mean * self.mean)

    def test_fallback_below_the_grid_floor_is_nan(self, rng):
        # with a floor of 0.1 no grid bandwidth is admissible for pairs
        # closer than 0.2; their fallback h = |t - s| / 2 is below it
        spec = BandwidthGrid(0.1, 0.3, 9)
        _, grid, surf = self.surface(rng, grid_spec=spec)
        gap = np.abs(grid[:, None] - grid[None, :])
        below = ~surf.in_band & (gap < 0.2)
        assert below.any()
        assert np.isnan(surf.values[below]).all()
        assert np.isnan(surf.gamma_values[below]).all()
        assert (surf.W_N_pair[below] == 0).all()
        assert_array_equal(surf.h_star[below],
                           0.5 * gap[below] * (1.0 - 1e-9))
        assert np.isfinite(surf.values[gap > 0.22]).all()


class TestDiagonalFillError:
    @staticmethod
    def bm(s, t):
        return min(s, t)

    def test_brownian_closed_form(self):
        # boundary fill error for min(s, t) integrates to d^2 / 12
        got = diagonal_fill_error(self.bm, 0.02)
        assert_allclose(got, 3.3333333333333335e-05, rtol=1e-6)

    def test_quadratic_scaling(self):
        ds = [0.02, 0.04, 0.08]
        vals = [diagonal_fill_error(self.bm, d) for d in ds]
        assert_allclose(vals[0] / vals[1], 0.25, rtol=1e-8)
        slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
        assert_allclose(slope, 2.0, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            diagonal_fill_error(self.bm, 0.0)
        with pytest.raises(ValidationError):
            diagonal_fill_error(self.bm, 1.0)
