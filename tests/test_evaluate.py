import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdadapt import (
    CurveObservations,
    EstimationError,
    ExperimentConfig,
    ExperimentError,
    NoiseSpec,
    ProcessSpec,
    ValidationError,
    empirical_cov_tilde,
    empirical_mean_tilde,
    estimate_covariance,
    estimate_mean,
    fit,
    ise_1d,
    ise_2d,
    make_dataset,
    rate_slope,
    run_experiment,
    uniform_grid,
    write_report_csv,
    write_summary_csv,
)
from fdadapt.dataset import _WRITE_BLOCK, _cells, _write_rows
from fdadapt.evaluate import REPORT_COLUMNS, SUMMARY_COLUMNS, _resolve_workers


def row_cells(report):
    return [_cells(np.asarray([r[c] for r in report.rows]))
            for c in REPORT_COLUMNS]


def cell(x):
    """The cell of one value in a column of values of its own kind."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return "" if math.isnan(x) else repr(float(x))
    return str(x)


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

    def test_too_few_defined_points(self):
        a = np.full(101, np.nan)
        a[3] = 0.0
        with pytest.raises(EstimationError):
            ise_1d(a, np.ones(101), self.grid)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ise_1d(np.zeros(50), np.zeros(101), self.grid)


class TestIse2d:
    grid = np.linspace(0.0, 1.0, 41)

    def test_unit_offset(self):
        A = np.zeros((41, 41))
        B = np.ones((41, 41))
        assert ise_2d(A, B, self.grid) == 1.0

    def test_separable_difference(self):
        A = self.grid[:, None] + self.grid[None, :]
        B = np.zeros((41, 41))
        # integral of (s + t)^2 over the unit square is 7/6
        assert_allclose(ise_2d(A, B, self.grid), 7.0 / 6.0, atol=2e-3)

    def test_nan_corner_rescales(self):
        A = np.zeros((41, 41))
        B = np.ones((41, 41))
        A[0, 0] = np.nan
        A[20, 20] = np.nan
        assert ise_2d(A, B, self.grid) == 1.0

    def test_all_nan(self):
        A = np.full((41, 41), np.nan)
        with pytest.raises(EstimationError):
            ise_2d(A, np.zeros((41, 41)), self.grid)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ise_2d(np.zeros((41, 40)), np.zeros((41, 41)), self.grid)


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
        # bad usage raises when the config is built, not per replication
        for kw in (dict(pairs=((1, 40),)), dict(pairs=((15, 40), (15, 1))),
                   dict(grid_n=1), dict(n_anchors=0), dict(kernel="foo"),
                   dict(presmooth_kernel="foo"), dict(p_jitter=0.2),
                   dict(estimators=("mean", "cov"), cov_grid_n=1)):
            with pytest.raises(ValidationError):
                small_config(**kw)
        # a mean-only study builds no covariance grid
        small_config(cov_grid_n=1)

    @pytest.mark.parametrize("k0", [0, -1])
    def test_k0_below_one(self, k0):
        with pytest.raises(ValidationError, match="k0 must be at least 1"):
            small_config(k0=k0)

    def test_m_below_three(self):
        # every fit needs m_hat >= 3; m = 2 is a valid design, not a study
        with pytest.raises(ValidationError, match="m must be at least 3"):
            small_config(pairs=((15, 40), (15, 2)))
        small_config(pairs=((15, 3),))

    def test_config_id(self):
        cfg = small_config(pairs=((15, 40), (30, 80)))
        assert cfg.config_id(0) == "fbm-N15-m40"
        assert cfg.config_id(1) == "fbm-N30-m80"


class TestFit:
    @pytest.mark.parametrize("k0", [0, -1])
    def test_k0_below_one(self, rng, k0):
        from conftest import random_dataset

        ds = random_dataset(rng, n_curves=20, n_lo=30, n_hi=40)
        pts = uniform_grid(11)
        with pytest.raises(ValidationError, match="k0 must be at least 1"):
            fit(ds, pts, n_anchors=3, k0=k0)
        ok = fit(ds, pts, pts[::2], n_anchors=3)
        with pytest.raises(ValidationError, match="k0 must be at least 1"):
            estimate_mean(ds, pts, ok.regularity, ok.noise, k0=k0)
        with pytest.raises(ValidationError, match="k0 must be at least 1"):
            estimate_covariance(ds, pts[::2], ok.regularity, ok.noise,
                                ok.mean, k0=k0)

    def test_stages_match_request(self, rng):
        from conftest import random_dataset

        ds = random_dataset(rng, n_curves=20, n_lo=30, n_hi=40)
        mean_pts = uniform_grid(21)
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
            fit(ds, uniform_grid(11), n_anchors=2)


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
        # m = 3, the smallest the config accepts (test_m_below_three)
        cfg = small_config(pairs=((10, 3),), replications=2)
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


class TestWriteRows:
    """The CSV writer behind every CLI output and the experiment reports."""

    def test_cell_rules(self, tmp_path):
        out = tmp_path / "rows.csv"
        # one column per kind (NaN, bool, float repr, int, str), each a
        # sequence of numpy and Python scalars
        _write_rows(out, ("a", "b", "c", "d", "e"), [
            (math.nan, np.float64(math.nan), 2.5),
            (np.bool_(True), np.bool_(False), True),
            (np.float64(0.1), np.float64(1.0 / 3.0), 0.0),
            (3, np.int64(7), -2),
            ("x", "y", "1.50"),
        ], preamble="# d=0.25 c=0.5")
        assert out.read_text().splitlines() == [
            "# d=0.25 c=0.5",
            "a,b,c,d,e",
            ",1,0.1,3,x",
            f",0,{float(1.0 / 3.0)!r},7,y",
            "2.5,1,0.0,-2,1.50",
        ]

    def test_cells_of_each_kind(self):
        assert _cells(np.array([True, False])) == ["1", "0"]
        assert _cells(np.array([math.nan, 0.1, -0.0, 1e-17, -math.inf])) == [
            "", "0.1", "-0.0", "1e-17", "-inf"]
        assert _cells(np.array([0.1], dtype=np.float32)) == [
            repr(float(np.float32(0.1)))]
        assert _cells(np.array([3, -2**62])) == ["3", str(-2**62)]
        assert _cells(np.array(["x", "1.50"])) == ["x", "1.50"]

    def test_mixed_column_takes_its_array_kind(self, tmp_path):
        # a column is formatted by the dtype np.asarray gives it: a bool
        # among floats is a float, an int among strings a string
        out = tmp_path / "rows.csv"
        _write_rows(out, ("a", "b"), [(np.float64(0.5), False), (3, "x")])
        assert out.read_text() == "a,b\n0.5,3\n0.0,x\n"

    def test_columns_match_cell_rules(self, rng, tmp_path):
        # more rows than one write block; lists and arrays alike go
        # through np.asarray, and each column holds one kind
        n = 2 * _WRITE_BLOCK + 5
        floats = rng.standard_normal(n)
        specials = [math.nan, -0.0, math.inf, -math.inf, 1e-17, 0.0, -math.nan]
        floats[rng.integers(0, n, 2000)] = rng.choice(specials, 2000)
        floats[[0, _WRITE_BLOCK, n - 1]] = math.nan
        bools = rng.random(n) < 0.5
        ints = rng.integers(-10**12, 10**12, n)
        columns = [floats, bools, ints, bools.tolist(), ints.tolist(),
                   [f"s{i}" for i in range(n)], floats.astype(np.float32),
                   [np.int64(i) if i % 3 else bool(i % 2) for i in range(n)]]
        out = tmp_path / "rows.csv"
        _write_rows(out, [f"c{j}" for j in range(len(columns))], columns)
        want = ["c0,c1,c2,c3,c4,c5,c6,c7"] + [
            ",".join(map(cell, row)) for row in zip(*columns)]
        text = out.read_text()
        got = text.split("\n")
        assert got.pop() == "" and len(got) == n + 1
        # the first differing line, not pytest's diff of 131,077 lines
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                   None)
        assert bad is None, (bad, got[bad], want[bad])
        assert {"-0.0", "inf", "-inf", "1e-17", "1", "0", ""} <= set(
            text.replace("\n", ",").split(","))

    def test_no_preamble(self, tmp_path):
        out = tmp_path / "rows.csv"
        _write_rows(out, ("a",), [(np.float64(1e-17),)])
        assert out.read_text() == "a\n1e-17\n"
