import math

import numpy as np
import pytest
from conftest import (
    assert_same_risk,
    combine_pair_stats,
    constant_dataset,
    cov_risk,
    jittered_curves,
    noise_stub,
    random_dataset,
    reg_stub,
)
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import RegularGridInterpolator

from fdadapt import (
    BIWEIGHT,
    EPANECHNIKOV,
    UNIFORM,
    BandwidthGrid,
    CurveObservations,
    EstimationError,
    MeanEstimate,
    ValidationError,
    band_exponent,
    covariance_risk_terms,
    diagonal_band_width,
    diagonal_fill_error,
    estimate_covariance,
    estimate_mean,
    fit,
    inclusion_stats_over_grid,
    ingest_long_csv,
    make_dataset,
)
from fdadapt.cli import main
from fdadapt.covariance import _lattice_h_star, bandwidth_admissible
from fdadapt.mean import _points_stats


def pair_stats(ds, s, t, h, k0, alpha_s, alpha_t):
    """The pair record at one (s, t, h) from two point records."""
    return combine_pair_stats(
        _points_stats(ds, s, h, alpha_s, BIWEIGHT, k0),
        _points_stats(ds, t, h, alpha_t, BIWEIGHT, k0))


def regularity_arrays(regs):
    """The alpha_hat and L2_hat arrays of regularity estimates."""
    return np.array([[r.alpha_hat, r.L2_hat] for r in regs]).T


def grid_records(ds, s, t, reg_s, reg_t, kernel, k0):
    """The grid records at s and t over the default covariance grid, each
    at its regularity estimate."""
    hs = BandwidthGrid.default_cov().values()
    return [inclusion_stats_over_grid(ds, x, hs, reg.alpha_hat, kernel, k0)
            for x, reg in ((s, reg_s), (t, reg_t))]


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
            ss = _points_stats(ds, s, h, 0.5, BIWEIGHT, 2)
            st = _points_stats(ds, t, h, 0.7, BIWEIGHT, 2)
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

    @pytest.mark.parametrize("order", [0, 1])
    def test_grid_records_give_no_gamma_hat(self, rng, order):
        ds = random_dataset(rng, n_curves=8, n_lo=15, n_hi=30)
        s, t = 0.3, 0.7
        hs = BandwidthGrid.default_cov().values()
        k0 = order + 1
        ps = combine_pair_stats(
            inclusion_stats_over_grid(ds, s, hs, order + 0.5, BIWEIGHT, k0),
            inclusion_stats_over_grid(ds, t, hs, 0.7, BIWEIGHT, 2))
        assert ps.gamma_hat is None
        assert (ps.s, ps.t) == (s, t)
        assert_array_equal(ps.h, hs)
        assert ps.W_pair.any() and not ps.W_pair.all()
        for k, h in enumerate(hs):
            want = combine_pair_stats(
                _points_stats(ds, s, h, order + 0.5, BIWEIGHT, k0),
                _points_stats(ds, t, h, 0.7, BIWEIGHT, 2))
            assert_array_equal(ps.w_pair[k], want.w_pair)
            assert ps.W_pair[k] == want.W_pair
            for name in ("N_gamma_ts", "N_gamma_st", "C_bar1_ts",
                         "C_bar1_st"):
                assert_allclose(getattr(ps, name)[k], getattr(want, name),
                                rtol=1e-12, atol=0)

    def test_mismatched_bandwidths_rejected(self, rng):
        ds = random_dataset(rng)
        a = _points_stats(ds, 0.3, 0.1, 0.5, BIWEIGHT, 2)
        b = _points_stats(ds, 0.7, 0.2, 0.5, BIWEIGHT, 2)
        with pytest.raises(ValidationError):
            combine_pair_stats(a, b)

    def test_empty_pair(self):
        times = np.array([0.1, 0.15, 0.2])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(3)) for i in range(2)]
        )
        ps = pair_stats(ds, 0.15, 0.8, 0.03, 2, 0.5, 0.5)
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
        ps = pair_stats(ds, s, t, h, 2, 0.5, 0.7)
        assert ps.W_pair > 0
        m2_s, m2_t, var_p = 1.5, 2.0, 0.8
        b, v, d = cov_risk(
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
            sum(cov_risk(ps, reg_s, reg_t, noise, m2_s, m2_t, var_p,
                         ds.n_curves)),
            b + v + d,
        )

    def test_overlapping_windows_are_infinite(self, rng):
        ds = random_dataset(rng, n_curves=6, n_lo=15, n_hi=25)
        ps = pair_stats(ds, 0.45, 0.55, 0.2, 2, 0.5, 0.5)
        r = sum(cov_risk(
            ps, reg_stub(0.45, 0.5), reg_stub(0.55, 0.5), noise_stub(0.01),
            1.0, 1.0, 1.0, ds.n_curves))
        assert r == math.inf

    def test_empty_pair_is_infinite(self):
        times = np.array([0.1, 0.15, 0.2])
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(3)) for i in range(2)]
        )
        ps = pair_stats(ds, 0.15, 0.8, 0.03, 2, 0.5, 0.5)
        r = sum(cov_risk(
            ps, reg_stub(0.15, 0.5), reg_stub(0.8, 0.5), noise_stub(0.01),
            1.0, 1.0, 1.0, 2))
        assert r == math.inf

    def test_noiseless_empty_pair_is_infinite_not_nan(self, rng):
        # sigma2 = 0 over an effective size of 0 is 0/0, and var_XsXt = 0
        # times 1/W_pair is 0 * inf: every term must still read +inf
        ds = random_dataset(rng, n_curves=6, n_lo=6, n_hi=10)
        hs = BandwidthGrid(0.002, 0.19, count=41).values()
        s, t = 0.3, 0.7
        ps = combine_pair_stats(*(
            inclusion_stats_over_grid(ds, x, hs, a, BIWEIGHT, 2)
            for x, a in ((s, 0.5), (t, 0.7))))
        empty = ps.W_pair == 0
        assert empty.any() and not empty.all()
        assert bandwidth_admissible(s, t, hs).all()
        for var in (0.0, 1.0):
            with np.errstate(all="raise"):
                terms = np.array(covariance_risk_terms(
                    s, t, hs, ps.W_pair, (ps.N_gamma_st, ps.N_gamma_ts),
                    (ps.C_bar1_st, ps.C_bar1_ts), (0.5, 0.7), (1.2, 0.9),
                    (1.3, 0.9), 0.0, var, ds.n_curves))
            assert (terms[:, empty] == math.inf).all()
            assert np.isfinite(terms[:, ~empty]).all()


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
    """The bandwidth the lattice selects for one pair: _lattice_h_star of
    the pair's two grid records."""

    def test_selected_bandwidth_is_admissible(self, rng):
        ds = random_dataset(rng, n_curves=10, n_lo=20, n_hi=35)
        s, t = 0.3, 0.7
        regs = (reg_stub(s, 0.5), reg_stub(t, 0.5))
        noise, m2, var, N = noise_stub(0.02), np.ones(2), 0.5, ds.n_curves
        records = grid_records(ds, s, t, *regs, BIWEIGHT, 2)
        h_star = _lattice_h_star(records, *regularity_arrays(regs), noise,
                                 m2, [var], N)[0, 1]
        ps = combine_pair_stats(*records)
        total = sum(cov_risk(ps, *regs, noise, *m2, var, N))
        (idx,) = np.flatnonzero(ps.h == h_star)
        assert bandwidth_admissible(s, t, h_star)
        assert ps.W_pair[idx] > 0
        fin = np.isfinite(total)
        assert total[idx] == total[fin].min()

    def test_too_close_pair_has_no_bandwidth(self, rng):
        ds = random_dataset(rng, n_curves=10, n_lo=20, n_hi=35)
        regs = (reg_stub(0.5, 0.5), reg_stub(0.515, 0.5))
        records = grid_records(ds, 0.5, 0.515, *regs, BIWEIGHT, 2)
        assert np.isnan(_lattice_h_star(
            records, *regularity_arrays(regs), noise_stub(0.02), np.ones(2),
            [0.5], ds.n_curves)[0, 1])


class TestLatticeBandwidths:
    """_lattice_h_star, every pair of the lattice at once, against the
    risk of each pair from combine_pair_stats and covariance_risk_terms."""

    @pytest.mark.parametrize("kernel", [UNIFORM, EPANECHNIKOV, BIWEIGHT])
    def test_against_per_pair_risks(self, rng, kernel):
        # curves 0-5 are observed on [0.02, 0.6] only and curves 6-11 on
        # [0.4, 0.98] only, so no curve enters the pair (0.2, 0.85) at any
        # h <= 0.1; the coordinates x and x + 0.015 sit closer than twice
        # the smallest bandwidth, 0.01
        curves = []
        for i in range(12):
            lo, hi = (0.02, 0.6) if i < 6 else (0.4, 0.98)
            times = np.sort(rng.uniform(lo, hi, int(rng.integers(30, 60))))
            curves.append(CurveObservations(i, times,
                                            rng.standard_normal(times.size)))
        ds = make_dataset(curves)
        hs = BandwidthGrid.default_cov().values()
        noise, N = noise_stub(0.02), ds.n_curves
        for _ in range(3):
            x = float(rng.uniform(0.3, 0.5))
            coords = np.concatenate((
                [0.2, 0.85, x, x + 0.015], rng.uniform(0.05, 0.95, 4)))
            alphas = rng.uniform(0.3, 0.95, coords.size)
            alphas[-1] = 1.4  # order 1
            regs = [reg_stub(c, a, L2=float(rng.uniform(0.5, 2.0)))
                    for c, a in zip(coords, alphas)]
            records = [inclusion_stats_over_grid(ds, float(c), hs,
                                                 reg.alpha_hat, kernel, 2)
                       for c, reg in zip(coords, regs)]
            m2 = rng.uniform(0.5, 2.0, coords.size)
            pairs = list(zip(*np.triu_indices(coords.size, 1)))
            var = rng.uniform(0.1, 1.0, len(pairs))
            H = _lattice_h_star(records, *regularity_arrays(regs), noise, m2,
                                var, N)
            assert np.isnan(np.diag(H)).all()
            assert_array_equal(H, H.T)
            for p, (k, l) in enumerate(pairs):
                ps = combine_pair_stats(records[k], records[l])
                total = sum(cov_risk(
                    ps, regs[k], regs[l], noise, m2[k], m2[l], var[p], N))
                if not np.isfinite(total).any():
                    assert np.isnan(H[k, l])
                    continue
                (idx,) = np.flatnonzero(hs == H[k, l])
                assert_allclose(total[idx], total.min(), rtol=1e-12, atol=0)
            assert np.isnan(H[0, 1]) and np.isnan(H[2, 3])
            assert np.isfinite(H[0, 2]) and np.isfinite(H[:-1, -1]).any()


class TestCovRiskOverGrid:
    """The risk terms of two grid records (combine_pair_stats and
    covariance_risk_terms over the default grid) against a per-h loop of
    point records, with the biweight kernel (the subclasses below repeat
    every test with the other kernels)."""

    kernel = BIWEIGHT

    def check(self, ds, s, t, reg_s, reg_t, k0=2):
        """The grid's pair record and total risk, once checked."""
        noise, m2, var = noise_stub(0.02), np.array([1.3, 0.9]), 0.6
        args = (reg_s, reg_t, noise, *m2, var, ds.n_curves)
        records = grid_records(ds, s, t, reg_s, reg_t, self.kernel, k0)
        ps = combine_pair_stats(*records)
        terms = cov_risk(ps, *args)
        want, W = [], []
        for h in ps.h:
            ps_h = combine_pair_stats(
                _points_stats(ds, s, h, reg_s.alpha_hat, self.kernel, k0),
                _points_stats(ds, t, h, reg_t.alpha_hat, self.kernel, k0))
            W.append(ps_h.W_pair)
            want.append(cov_risk(ps_h, *args))
            if ps_h.W_pair == 0 or not bandwidth_admissible(s, t, h):
                assert want[-1] == (math.inf,) * 3
                assert sum(cov_risk(ps_h, *args)) == math.inf
        want = np.array(want)
        for k, got in enumerate(terms):
            assert_same_risk(got, want[:, k])
        assert_array_equal(ps.W_pair, W)
        h_star = _lattice_h_star(
            records, *regularity_arrays((reg_s, reg_t)), noise, m2, [var],
            ds.n_curves)[0, 1]
        assert h_star == ps.h[int(np.argmin(want.sum(axis=1)))]
        return ps, sum(terms)

    def test_empty_and_inadmissible_bandwidths(self, rng):
        # |t - s| = 0.13: h >= 0.065 is inadmissible; the sparse curves
        # leave the smallest windows empty
        ds = random_dataset(rng, n_curves=8, n_lo=10, n_hi=20)
        s, t = 0.4, 0.53
        ps, total = self.check(ds, s, t, reg_stub(s, 0.5), reg_stub(t, 0.7))
        admissible = 2.0 * ps.h < t - s
        assert not admissible.all() and np.isinf(total[~admissible]).all()
        assert (ps.W_pair[admissible] == 0).any()
        assert np.isfinite(total).any()

    def test_order_one_anchor(self, rng):
        ds = random_dataset(rng, n_curves=10, n_lo=25, n_hi=40)
        s, t = 0.3, 0.6
        _, total = self.check(ds, s, t, reg_stub(s, 1.3, L2=0.8),
                              reg_stub(t, 0.6), k0=3)
        assert np.isfinite(total).any()


class TestCovRiskOverGridUniform(TestCovRiskOverGrid):
    kernel = UNIFORM


class TestCovRiskOverGridEpanechnikov(TestCovRiskOverGrid):
    kernel = EPANECHNIKOV


@pytest.fixture(scope="module")
def fbm_data(tmp_path_factory):
    """fbm H=0.4, 200 curves of 100 points each, noise sd 0.05, seed 1."""
    path = tmp_path_factory.mktemp("fbm") / "curves.csv"
    assert main(["simulate", "--process", "fbm", "--hurst", "0.4",
                 "--n", "200", "--m", "100", "--noise-sd", "0.05",
                 "--seed", "1", "--out", str(path)]) == 0
    return ingest_long_csv(path)


class TestEstimateCovariance:
    levels = [1.0, 2.0, 3.0, 4.0, 5.0]

    def surface(self, psd_project=False, mean_values=3.0):
        times = np.linspace(0.02, 0.98, 200)
        ds = constant_dataset(self.levels, times)
        regs = [reg_stub(0.3, 0.5, L2=0.5), reg_stub(0.7, 0.5, L2=0.5)]
        grid = np.linspace(0.1, 0.9, 33)
        mu = mean_stub(grid, mean_values)
        return ds, grid, estimate_covariance(
            ds, grid, regs, noise_stub(0.0), mu,
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

    @pytest.mark.parametrize("hi", [0.5005, 0.519])
    def test_grid_within_two_h_min_widens_the_lattice(self, fbm_data, hi):
        # a grid spanning no more than 2 h_min = 0.02 of the default
        # covariance bandwidths has no admissible pair of its own, so the
        # lattice is widened by 0.1 on each side
        surf = fit(fbm_data, np.linspace(0.1, 0.9, 21), np.array([0.5, hi]),
                   n_anchors=10).cov
        assert surf.values.shape == (2, 2)
        assert np.isfinite(surf.values).all()
        assert_allclose(surf.lattice[[0, -1]], [0.4, hi + 0.1])

    def test_mean_grid_order_leaves_the_surface_unchanged(self, rng):
        # the mean on a reversed or shuffled grid holds the same values in
        # another order; the surface reads it as a function of time
        ds = make_dataset(jittered_curves(rng, 30, 40, 80))
        regs = [reg_stub(0.3, 0.6, L2=0.8), reg_stub(0.7, 1.3, L2=1.2)]
        noise = noise_stub(0.05)
        up = np.linspace(0.05, 0.95, 31)
        grid = np.linspace(0.1, 0.9, 11)
        means, surfaces = [], []
        for pts in (up, up[::-1], rng.permutation(up)):
            mean = estimate_mean(ds, pts, regs, noise)
            means.append(np.sort(mean.values))
            surfaces.append(estimate_covariance(ds, grid, regs, noise, mean))
        want = surfaces[0]
        assert want.in_band.any() and np.isfinite(want.values).all()
        for values, surf in zip(means[1:], surfaces[1:]):
            assert_array_equal(values, means[0])
            assert_array_equal(surf.values, want.values)
            assert_array_equal(surf.gamma_values, want.gamma_values)

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

    def test_uncovered_row_raises(self):
        times = np.linspace(0.5, 0.98, 40)
        ds = constant_dataset([1.0, 2.0, 3.0], times)
        regs = [reg_stub(0.6, 0.5, L2=0.5), reg_stub(0.9, 0.5, L2=0.5)]
        grid = np.array([0.05, 0.6, 0.7, 0.8])
        with pytest.raises(EstimationError):
            estimate_covariance(
                ds, grid, regs, noise_stub(0.0), mean_stub(grid, 2.0)
            )

    def test_needs_anchor(self, rng):
        ds = random_dataset(rng)
        grid = np.linspace(0.2, 0.8, 5)
        with pytest.raises(ValidationError):
            estimate_covariance(ds, grid, [], noise_stub(0.0),
                                mean_stub(grid, 0.0))


class TestSurfaceCells:
    """Each cell of the surface against the pair record at its pair:
    the cell's own pair off the band, the band boundary pair with the
    same midpoint inside it."""

    regs = [reg_stub(0.3, 0.6, L2=0.8), reg_stub(0.7, 1.3, L2=1.2)]
    mean = 0.2

    def surface(self, rng, bandwidths=None):
        ds = make_dataset(jittered_curves(rng, 20, 60, 100))
        grid = np.linspace(0.1, 0.9, 15)
        return ds, grid, estimate_covariance(
            ds, grid, self.regs, noise_stub(0.05),
            mean_stub(grid, self.mean), bandwidths=bandwidths)

    def end(self, x):
        """alpha_hat of the anchor nearest to x."""
        return min(self.regs, key=lambda r: abs(r.anchor_t2 - x)).alpha_hat

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
                ps = pair_stats(ds, a, b, h, 2, self.end(a), self.end(b))
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
        _, grid, surf = self.surface(rng, bandwidths=spec)
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
