"""End-to-end checks, one test per shipped guarantee.

Each test prints a short evidence line; thresholds and sizes are fixed
and must not be relaxed. The slow entries (3, 5, 6) are Monte Carlo
studies and dominate the runtime of the suite.
"""

import math

import numpy as np
import pytest
from conftest import noise_stub, reg_stub
from numpy.testing import assert_allclose, assert_array_equal

from fdadapt import (
    BIWEIGHT,
    CurveObservations,
    DesignSpec,
    ExperimentConfig,
    NoiseSpec,
    ProcessSpec,
    RegularitySchedule,
    covariance_risk,
    diagonal_fill_error,
    estimate_noise,
    estimate_regularity,
    fit,
    inclusion_stats,
    kernel_abs_moment,
    lp_weights,
    make_dataset,
    mean_risk,
    pair_inclusion_stats,
    run_experiment,
    sample_dataset,
    select_mean_bandwidth,
    write_report_csv,
    write_summary_csv,
)
from scipy.integrate import quad


def common_gaussian_dataset(rng, n_curves, m):
    times = np.arange(1, m + 1) / (m + 1)
    return make_dataset([
        CurveObservations(i, times, rng.standard_normal(m))
        for i in range(n_curves)
    ])


def brute_weights(times, t, h, order, kernel):
    """Independent weighted least squares solve for the fitted value."""
    z = (times - t) / h
    idx = np.nonzero(np.abs(z) <= 1.0)[0]
    if order == 0:
        K = kernel(z)
        S = K.sum()
        if S <= 0.0:
            return None, None
        return idx, (K / S)[idx]
    tt = times[idx] - t
    X = np.column_stack([tt**j / math.factorial(j)
                         for j in range(order + 1)])
    W = np.diag(kernel(z[idx]))
    A = X.T @ W @ X
    row = np.linalg.solve(A, np.eye(order + 1)[0])
    return idx, row @ X.T @ W


def brute_curve_summaries(ds, t, h, order, alpha_exp, k0, kernel=BIWEIGHT):
    """Inclusion flags and weight summaries rebuilt from raw weights."""
    n = ds.n_curves
    inc = np.zeros(n, dtype=bool)
    c1 = np.zeros(n)
    c_alpha = np.zeros(n)
    maxw = np.zeros(n)
    for i, c in enumerate(ds.curves):
        z = (c.times - t) / h
        count = int((np.abs(z) <= 1.0).sum())
        if count < k0:
            continue
        idx, w = brute_weights(c.times, t, h, order, kernel)
        if w is None:
            continue
        aw = np.abs(w)
        inc[i] = True
        c1[i] = aw.sum()
        c_alpha[i] = (aw * np.abs(z[idx]) ** alpha_exp).sum()
        maxw[i] = aw.max()
    return inc, c1, c_alpha, maxw


def brute_mean_risk(inc, c1, c_alpha, maxw, h, alpha, L2, sigma2, var_t, N):
    W = int(inc.sum())
    if W == 0:
        return math.inf
    N_mu = W * W / (c1[inc] * maxw[inc]).sum()
    C_bar = (c1[inc] * c_alpha[inc]).sum() / W
    fact = math.factorial(int(math.floor(alpha)))
    bias = C_bar * L2 / (fact * fact) * h ** (2.0 * alpha)
    return bias + sigma2 / N_mu + var_t * (1.0 / W - 1.0 / N)


class TestCriterion01LocalPolynomialWeights:
    def test_criterion_01_lp_weight_identities(self, rng):
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 2000:
            attempts += 1
            m = int(rng.integers(10, 41))
            times = np.sort(rng.uniform(0.0, 1.0, m))
            order = int(rng.integers(0, 3))
            t = float(rng.uniform(0.2, 0.8))
            h = float(rng.uniform(0.15, 0.4))
            curve = CurveObservations(0, times, np.zeros(m))
            lw = lp_weights(curve, t, h, order, BIWEIGHT, order + 1)
            if lw.degenerate:
                continue
            w = lw.weights
            tt = times[lw.indices] - t
            assert abs(w.sum() - 1.0) <= 1e-8
            for d in range(1, order + 1):
                assert abs((w * tt**d).sum()) <= 1e-8
            coef = rng.uniform(-2.0, 2.0, order + 1)
            y = np.polyval(coef, times[lw.indices])
            assert abs(w @ y - np.polyval(coef, t)) <= 1e-8
            checked += 1
        assert checked == 200
        print(f"criterion 1: 200 weight configurations verified "
              f"({attempts} draws)")


class TestCriterion02KernelMoment:
    def test_criterion_02_biweight_moment_closed_form(self):
        assert kernel_abs_moment(BIWEIGHT, 0.0) == 1.0
        for a in (0.0, 0.5, 1.0, 1.4, 2.0):
            closed = kernel_abs_moment(BIWEIGHT, a)
            numeric, _ = quad(
                lambda u: u**a * 15.0 / 16.0 * (1.0 - u * u) ** 2, 0.0, 1.0
            )
            numeric *= 2.0
            assert abs(closed - numeric) <= 1e-8
        print("criterion 2: closed-form biweight moments match quadrature")


REGULARITY_CASES = [
    ("fou", ProcessSpec(kind="fou", a=1.0, rho=1.0), 0.5),
    ("fbm03", ProcessSpec(kind="fbm", hurst=0.3), 0.3),
    ("fbm07", ProcessSpec(kind="fbm", hurst=0.7), 0.7),
    ("kl", ProcessSpec(kind="kl", nu=2.4, n_terms=301), 0.7),
]


@pytest.mark.slow
class TestCriterion03RegularityRecovery:
    @pytest.mark.parametrize(
        "label,spec,alpha", REGULARITY_CASES,
        ids=[c[0] for c in REGULARITY_CASES],
    )
    def test_criterion_03_alpha_hat_median_error(self, label, spec, alpha):
        design = DesignSpec(kind="common", m_mean=300)
        noise = NoiseSpec(kind="homoscedastic", sd=0.05)
        schedule = RegularitySchedule(m_hat=300)
        seeds = np.random.SeedSequence(1203).spawn(100)
        errors = []
        for ss in seeds:
            out = sample_dataset(spec, design, noise, 400, ss)
            reg = estimate_regularity(out.dataset, 0.5, schedule,
                                      kernel="epanechnikov")
            errors.append(abs(reg.alpha_hat - alpha))
        med = float(np.median(errors))
        print(f"criterion 3 [{label}]: median |alpha_hat - {alpha}| = "
              f"{med:.4f} over 100 replications")
        assert med <= 0.10


class TestCriterion04CommonDesignInclusion:
    def test_criterion_04_selected_bandwidth_keeps_every_curve(self, rng):
        for case in range(50):
            n = int(rng.integers(5, 26))
            m = int(rng.integers(20, 71))
            ds = common_gaussian_dataset(rng, n, m)
            t = float(rng.uniform(0.25, 0.75))
            alpha = float(rng.uniform(0.35, 0.95))
            reg = reg_stub(t, alpha, L2=float(rng.uniform(0.5, 2.0)))
            noise = noise_stub(float(rng.uniform(0.01, 0.05)))
            prof = select_mean_bandwidth(ds, t, reg, noise, 1.0, BIWEIGHT, 2)
            assert prof.W_N[prof.h_star_index] == n, (
                f"case {case}: W_N={prof.W_N[prof.h_star_index]} != {n}"
            )
        print("criterion 4: 50 common-design selections all kept N curves")


@pytest.mark.slow
class TestCriterion05MeanRate:
    def test_criterion_05_ise_decreases_with_sample_size(self):
        config = ExperimentConfig(
            process=ProcessSpec(kind="fou", a=1.0, rho=1.0),
            noise=NoiseSpec(kind="homoscedastic", sd=0.05),
            design_kind="independent",
            pairs=((40, 40), (100, 100), (200, 200)),
            replications=100,
            seed=2205,
            p_jitter=0.2,
            estimators=("mean",),
            n_anchors=10,
        )
        report = run_experiment(config)
        entries = [e for e in report.summary
                   if e["metric"] == "ise_mean_tilde"]
        meds = {e["config_id"]: e["q50"] for e in entries}
        slope = entries[0]["rate_slope"]
        print(f"criterion 5: medians {meds}, slope vs N*m = {slope:.3f}")
        assert -0.8 <= slope <= -0.2


def run_cov_rep(ss, grid, n_anchors=8, mean_grid_n=51):
    spec = ProcessSpec(kind="fbm", hurst=0.5)
    design = DesignSpec(kind="common", m_mean=200)
    noise_spec = NoiseSpec(kind="homoscedastic", sd=0.05)
    out = sample_dataset(spec, design, noise_spec, 200, ss)
    mean_pts = np.linspace(0.05, 0.95, mean_grid_n)
    return fit(out.dataset, mean_pts, grid, n_anchors=n_anchors).cov


@pytest.mark.slow
class TestCriterion06CovariancePointwise:
    def test_criterion_06_brownian_point_value_and_exactness(self):
        seeds = np.random.SeedSequence(3307).spawn(100)
        pts = np.array([0.25, 0.75])
        errors = []
        for ss in seeds:
            surf = run_cov_rep(ss, pts)
            errors.append(abs(surf.values[0, 1] - 0.25))
        med = float(np.median(errors))
        print(f"criterion 6: median |Gamma_hat(0.25,0.75) - 0.25| = "
              f"{med:.4f} over 100 replications")
        assert med <= 0.05

        fine = np.linspace(0.4, 0.6, 41)
        surf = run_cov_rep(np.random.SeedSequence(3308), fine)
        assert_array_equal(surf.values, surf.values.T)
        triples = 0
        for i in range(1, fine.size - 1):
            if surf.in_band[i - 1, i + 1] and surf.in_band[i, i]:
                assert surf.values[i - 1, i + 1] == surf.values[i, i]
                triples += 1
        assert triples >= 10
        print(f"criterion 6: symmetry exact, {triples} anti-diagonal "
              f"triples constant")


class TestCriterion07BandFillScaling:
    def test_criterion_07_fill_error_slope(self):
        widths = [0.02, 0.04, 0.08]
        vals = [diagonal_fill_error(lambda s, t: min(s, t), d)
                for d in widths]
        slope = np.polyfit(np.log(widths), np.log(vals), 1)[0]
        print(f"criterion 7: fill errors {vals}, slope = {slope:.4f}")
        assert 1.7 <= slope <= 2.3


class TestCriterion08NoiseRecovery:
    def test_criterion_08_constant_signal_noise_level(self):
        times = np.arange(1, 501) / 501.0
        seeds = np.random.SeedSequence(4409).spawn(50)
        estimates = []
        for ss in seeds:
            rng = np.random.default_rng(ss)
            curves = [
                CurveObservations(
                    i, times, 5.0 + 0.1 * rng.standard_normal(times.size)
                )
                for i in range(50)
            ]
            ds = make_dataset(curves)
            est = estimate_noise(ds, np.array([0.5]), mode="constant")
            estimates.append(est.sigma2_max)
        med = float(np.median(estimates))
        print(f"criterion 8: median sigma2_hat = {med:.5f} "
              f"(target 0.01) over 50 replications")
        assert 0.008 <= med <= 0.012


class TestCriterion09Determinism:
    def test_criterion_09_worker_count_leaves_bytes_unchanged(self, tmp_path):
        def run(workers, tag):
            config = ExperimentConfig(
                process=ProcessSpec(kind="fbm", hurst=0.5),
                noise=NoiseSpec(kind="homoscedastic", sd=0.05),
                design_kind="common",
                pairs=((10, 40), (12, 50)),
                replications=3,
                seed=5511,
                grid_n=21,
                n_anchors=4,
            )
            report = run_experiment(config, workers=workers)
            rpath = tmp_path / f"report_{tag}.csv"
            spath = tmp_path / f"summary_{tag}.csv"
            write_report_csv(report, rpath)
            write_summary_csv(report, spath)
            return rpath.read_bytes(), spath.read_bytes()

        r1, s1 = run(1, "serial")
        r8, s8 = run(8, "pool")
        assert r1 == r8
        assert s1 == s8
        print("criterion 9: report and summary bytes identical for "
              "workers 1 and 8")


class TestCriterion10RiskOracle:
    def test_criterion_10_risk_terms_match_raw_weight_rebuild(self, rng):
        for case in range(100):
            m = int(rng.integers(8, 21))
            curves = []
            for i in range(5):
                times = np.sort(rng.uniform(0.02, 0.98, m))
                curves.append(
                    CurveObservations(i, times, rng.standard_normal(m))
                )
            ds = make_dataset(curves)
            order = int(rng.integers(0, 2))
            k0 = order + 1 + int(rng.integers(0, 2))
            alpha = float(rng.uniform(0.3, 1.8))
            if order == 0:
                alpha = min(alpha, 0.99)
            else:
                alpha = max(alpha, 1.0)
            L2 = float(rng.uniform(0.2, 2.0))
            sigma2 = float(rng.uniform(0.005, 0.05))
            var_t = float(rng.uniform(0.1, 2.0))

            t = float(rng.uniform(0.35, 0.65))
            h = float(rng.uniform(0.2, 0.35))
            stats = inclusion_stats(ds, t, h, order, BIWEIGHT, k0,
                                    2.0 * alpha)
            reg = reg_stub(t, alpha, L2=L2)
            got = mean_risk(stats, reg, noise_stub(sigma2), var_t, 5)
            inc, c1, ca, mw = brute_curve_summaries(ds, t, h, order,
                                                    2.0 * alpha, k0)
            want = brute_mean_risk(inc, c1, ca, mw, h, alpha, L2, sigma2,
                                   var_t, 5)
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12), (
                f"mean case {case}: {got} vs {want}"
            )

            s2, t2 = 0.25, 0.75
            h2 = float(rng.uniform(0.1, 0.2))
            alpha_s = float(rng.uniform(0.3, 0.95))
            alpha_t = float(rng.uniform(0.3, 0.95))
            ps = pair_inclusion_stats(ds, s2, t2, h2, 0, 0, BIWEIGHT, k0,
                                      alpha_s, alpha_t)
            reg_s = reg_stub(s2, alpha_s, L2=L2)
            reg_t = reg_stub(t2, alpha_t, L2=0.5 * L2)
            m2_s = float(rng.uniform(0.5, 2.0))
            m2_t = float(rng.uniform(0.5, 2.0))
            var_p = float(rng.uniform(0.1, 2.0))
            got2 = covariance_risk(ps, reg_s, reg_t, noise_stub(sigma2),
                                   m2_s, m2_t, var_p, 5)
            inc_s, c1_s, ca_s, mw_s = brute_curve_summaries(
                ds, s2, h2, 0, 2.0 * alpha_s, k0
            )
            inc_t, c1_t, ca_t, mw_t = brute_curve_summaries(
                ds, t2, h2, 0, 2.0 * alpha_t, k0
            )
            both = inc_s & inc_t
            W = int(both.sum())
            if W == 0 or 2.0 * h2 >= t2 - s2:
                want2 = math.inf
            else:
                def direction(c1_b, ca_b, mw_b, alpha_b, L2_b, m2_a):
                    n_gamma = W * W / (c1_b[both] * mw_b[both]).sum()
                    c_bar = (c1_b[both] * ca_b[both]).sum() / W
                    bias = (2.0 * m2_a * c_bar * L2_b
                            * h2 ** (2.0 * alpha_b))
                    return bias + sigma2 * m2_a / n_gamma

                want2 = (
                    direction(c1_t, ca_t, mw_t, alpha_t, 0.5 * L2, m2_s)
                    + direction(c1_s, ca_s, mw_s, alpha_s, L2, m2_t)
                    + var_p * (1.0 / W - 1.0 / 5.0)
                )
            assert math.isclose(got2, want2, rel_tol=1e-10,
                                abs_tol=1e-12), (
                f"cov case {case}: {got2} vs {want2}"
            )
        print("criterion 10: 100 risk rebuilds matched at 1e-10")
