import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdadapt import (
    CurveObservations,
    EstimationError,
    EvalGrid,
    ExperimentConfig,
    ExperimentError,
    NoiseSpec,
    ProcessSpec,
    ValidationError,
    empirical_cov_tilde,
    empirical_mean_tilde,
    fit,
    ise_1d,
    ise_2d,
    make_dataset,
    rate_slope,
    run_experiment,
    write_report_csv,
    write_summary_csv,
)
from fdadapt.evaluate import (
    REPORT_COLUMNS,
    SUMMARY_COLUMNS,
    _fmt,
    _resolve_workers,
)


def row_cells(report):
    return [[_fmt(r[c]) for c in REPORT_COLUMNS] for r in report.rows]


class TestIse1d:
    grid = np.linspace(0.0, 1.0, 101)

    def test_unit_offset(self):
        a = np.zeros(101)
        b = np.ones(101)
        assert ise_1d(a, b, self.grid) == 1.0

    def test_linear_difference(self):
        a = self.grid.copy()
        b = np.zeros(101)
        assert_allclose(ise_1d(a, b, self.grid), 1.0 / 3.0, atol=1e-3)

    def test_nan_gaps_rescale(self):
        a = np.zeros(101)
        b = np.ones(101)
        a[[10, 11, 55]] = np.nan
        assert ise_1d(a, b, self.grid) == 1.0

    def test_accepts_eval_grid(self):
        g = EvalGrid.make_uniform(51)
        a = np.zeros(51)
        b = np.full(51, 2.0)
        assert_allclose(ise_1d(a, b, g), 4.0 * (g.points[-1] - g.points[0]),
                        rtol=1e-12)

    def test_too_few_defined_points(self):
        a = np.full(101, np.nan)
        a[3] = 0.0
        with pytest.raises(EstimationError):
            ise_1d(a, np.ones(101), self.grid)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ise_1d(np.zeros(50), np.zeros(101), self.grid)


class TestIse2d:
    s = np.linspace(0.0, 1.0, 41)
    t = np.linspace(0.0, 1.0, 41)

    def test_unit_offset(self):
        A = np.zeros((41, 41))
        B = np.ones((41, 41))
        assert ise_2d(A, B, self.s, self.t) == 1.0

    def test_separable_difference(self):
        A = self.s[:, None] + self.t[None, :]
        B = np.zeros((41, 41))
        # integral of (s + t)^2 over the unit square is 7/6
        assert_allclose(ise_2d(A, B, self.s, self.t), 7.0 / 6.0, atol=2e-3)

    def test_nan_corner_rescales(self):
        A = np.zeros((41, 41))
        B = np.ones((41, 41))
        A[0, 0] = np.nan
        A[20, 20] = np.nan
        assert ise_2d(A, B, self.s, self.t) == 1.0

    def test_all_nan(self):
        A = np.full((41, 41), np.nan)
        with pytest.raises(EstimationError):
            ise_2d(A, np.zeros((41, 41)), self.s, self.t)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ise_2d(np.zeros((41, 40)), np.zeros((41, 41)), self.s, self.t)


class TestEmpiricalTargets:
    def test_mean_tilde(self):
        X = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert_allclose(empirical_mean_tilde(X), [2.0, 2.0, 2.0])

    def test_cov_tilde_matches_numpy(self, rng):
        X = rng.standard_normal((7, 5))
        assert_allclose(empirical_cov_tilde(X), np.cov(X, rowvar=False),
                        rtol=1e-12)

    def test_cov_needs_two_curves(self):
        with pytest.raises(ValidationError):
            empirical_cov_tilde(np.ones((1, 4)))

    def test_mean_needs_matrix(self):
        with pytest.raises(ValidationError):
            empirical_mean_tilde(np.ones(4))


class TestRateSlope:
    def test_recovers_exact_power_law(self):
        sizes = np.array([100.0, 400.0, 1600.0, 6400.0])
        values = 3.0 * sizes**-0.5
        slope, se = rate_slope(sizes, values)
        assert_allclose(slope, -0.5, atol=1e-12)
        assert se < 1e-12

    def test_two_points_have_no_se(self):
        slope, se = rate_slope([10.0, 100.0], [1.0, 0.1])
        assert_allclose(slope, -1.0, atol=1e-12)
        assert math.isnan(se)

    def test_degenerate_inputs(self):
        assert rate_slope([10.0], [1.0]) == (pytest.approx(math.nan, nan_ok=True),) * 2
        slope, se = rate_slope([10.0, 10.0], [1.0, 2.0])
        assert math.isnan(slope)
        slope, se = rate_slope([10.0, 100.0], [np.nan, 0.1])
        assert math.isnan(slope)

    def test_nonpositive_values_filtered(self):
        slope, _ = rate_slope([10.0, 100.0, 1000.0], [1.0, -5.0, 0.01])
        assert_allclose(slope, -1.0, atol=1e-12)


def small_config(**kw):
    base = dict(
        process=ProcessSpec(kind="fbm", hurst=0.5),
        noise=NoiseSpec(kind="homoscedastic", sd=0.05),
        design_kind="common",
        pairs=((15, 40),),
        replications=3,
        seed=99,
        grid_n=21,
        n_anchors=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            small_config(pairs=())
        with pytest.raises(ValidationError):
            small_config(replications=0)
        with pytest.raises(ValidationError):
            small_config(estimators=("mean", "mode"))

    def test_config_id(self):
        cfg = small_config(pairs=((15, 40), (30, 80)))
        assert cfg.config_id(0) == "fbm-N15-m40"
        assert cfg.config_id(1) == "fbm-N30-m80"


class TestFit:
    def test_stages_match_request(self, rng):
        from conftest import random_dataset

        ds = random_dataset(rng, n_curves=20, n_lo=30, n_hi=40)
        mean_pts = EvalGrid.make_uniform(21).points
        result = fit(ds, mean_pts, n_anchors=4)
        assert result.cov is None
        assert len(result.regularity) + len(result.dropped) == 4
        assert_allclose(result.mean.points, mean_pts)
        assert result.noise.sigma2_grid.shape == mean_pts.shape
        with_cov = fit(ds, mean_pts, mean_pts[::4], n_anchors=4)
        assert with_cov.cov.values.shape == (6, 6)
        np.testing.assert_array_equal(with_cov.mean.values,
                                      result.mean.values)

    def test_every_anchor_failing_raises(self):
        times = np.linspace(0.05, 0.95, 30)
        ds = make_dataset(
            [CurveObservations(i, times, np.ones(30)) for i in range(5)]
        )
        with pytest.raises(EstimationError):
            fit(ds, EvalGrid.make_uniform(11).points, n_anchors=2)


class TestResolveWorkers:
    def test_argument_wins(self):
        assert _resolve_workers(2) == 2
        assert _resolve_workers(0) == 1

    def test_none_means_one(self, monkeypatch):
        # the worker count has no environment fallback
        monkeypatch.setenv("FDA_ADAPT_WORKERS", "3")
        assert _resolve_workers(None) == 1


class TestRunExperiment:
    def test_smoke_and_summary_consistency(self):
        report = run_experiment(small_config())
        assert report.n_tasks == 3
        assert report.n_failed == 0
        assert len(report.rows) == 3
        vals = [r["ise_mean_tilde"] for r in report.rows]
        assert all(np.isfinite(v) and v >= 0.0 for v in vals)
        med = [e for e in report.summary
               if e["metric"] == "ise_mean_tilde"][0]
        assert_allclose(med["q50"], np.median(vals), rtol=1e-12)
        assert_allclose(med["q25"], np.percentile(vals, 25), rtol=1e-12)
        # covariance was not requested, so its metrics stay empty
        cov_entry = [e for e in report.summary
                     if e["metric"] == "ise_cov_tilde"][0]
        assert math.isnan(cov_entry["q50"])

    def test_repeat_runs_are_identical(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert row_cells(a) == row_cells(b)

    def test_worker_count_does_not_change_rows(self):
        a = run_experiment(small_config(), workers=1)
        b = run_experiment(small_config(), workers=2)
        assert row_cells(a) == row_cells(b)

    def test_rate_slope_spans_configs(self):
        report = run_experiment(
            small_config(pairs=((15, 40), (25, 60)), replications=2)
        )
        entries = [e for e in report.summary
                   if e["metric"] == "ise_mean_tilde"]
        assert len(entries) == 2
        sizes = [e["N"] * e["m"] for e in entries]
        meds = [e["q50"] for e in entries]
        want, _ = rate_slope(sizes, meds)
        for e in entries:
            assert_allclose(e["rate_slope"], want, rtol=1e-12)

    def test_undersampled_design_aborts(self):
        cfg = small_config(pairs=((10, 2),), replications=2)
        with pytest.raises(ExperimentError):
            run_experiment(cfg)

    def test_csv_round_trip(self, tmp_path):
        report = run_experiment(small_config(replications=2))
        rpath = tmp_path / "report.csv"
        spath = tmp_path / "summary.csv"
        write_report_csv(report, rpath)
        write_summary_csv(report, spath)
        rlines = rpath.read_text().splitlines()
        assert rlines[0] == ",".join(REPORT_COLUMNS)
        assert len(rlines) == 1 + len(report.rows)
        cells = rlines[1].split(",")
        back = float(cells[REPORT_COLUMNS.index("ise_mean_tilde")])
        assert back == report.rows[0]["ise_mean_tilde"]
        # unsampled covariance metrics serialize as empty cells
        assert cells[REPORT_COLUMNS.index("ise_cov_tilde")] == ""
        slines = spath.read_text().splitlines()
        assert slines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(slines) == 1 + len(report.summary)
