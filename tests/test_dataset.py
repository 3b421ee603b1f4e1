import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fdadapt import (
    DESIGN_COMMON,
    DESIGN_INDEPENDENT,
    CurveObservations,
    EvalGrid,
    FunctionalDataset,
    ValidationError,
    detect_design,
    ingest_long_csv,
    make_dataset,
    write_long_csv,
)


def curve(cid, times, values):
    return CurveObservations(cid, np.asarray(times, float),
                             np.asarray(values, float))


class TestCurveObservations:
    def test_valid_curve(self):
        c = curve(0, [0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
        assert len(c) == 3

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            curve(0, [0.1, 0.5], [1.0])

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValidationError):
            curve(0, [0.5, 0.1], [1.0, 2.0])

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValidationError):
            curve(0, [0.5, 0.5], [1.0, 2.0])

    def test_rejects_times_outside_open_interval(self):
        with pytest.raises(ValidationError):
            curve(0, [0.0, 0.5], [1.0, 2.0])
        with pytest.raises(ValidationError):
            curve(0, [0.5, 1.0], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            curve(0, [0.1, 0.5], [1.0, np.nan])
        with pytest.raises(ValidationError):
            curve(0, [0.1, np.inf], [1.0, 2.0])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            CurveObservations(0, np.ones((2, 2)) * 0.5, np.ones((2, 2)))


class TestFunctionalDataset:
    def test_needs_two_curves(self):
        with pytest.raises(ValidationError):
            make_dataset([curve(0, [0.1, 0.2], [1.0, 2.0])])

    def test_flat_arrays(self):
        c1 = curve(0, [0.1, 0.3], [1.0, 2.0])
        c2 = curve(1, [0.2, 0.4, 0.6], [3.0, 4.0, 5.0])
        ds = make_dataset([c1, c2])
        assert_array_equal(ds.times_flat, [0.1, 0.3, 0.2, 0.4, 0.6])
        assert_array_equal(ds.values_flat, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert_array_equal(ds.lengths, [2, 3])
        assert ds.n_curves == 2

    @pytest.mark.parametrize("design", [DESIGN_INDEPENDENT, DESIGN_COMMON])
    def test_time_sorted_layout(self, design):
        rng = np.random.default_rng(3)
        shared = [0.1, 0.35, 0.5, 0.9]
        if design == DESIGN_COMMON:
            times = [shared] * 4
        else:
            # 0.5 and 0.9 are shared by several curves
            times = [shared, [0.2, 0.5], [0.05, 0.5, 0.7, 0.9, 0.95],
                     [0.9]]
        ds = make_dataset([curve(i, ts, rng.standard_normal(len(ts)))
                           for i, ts in enumerate(times)])
        assert ds.design == design
        assert np.all(np.diff(ds.sorted_times) >= 0.0)
        for i, c in enumerate(ds.curves):
            mine = ds.sorted_curve == i
            assert_array_equal(ds.sorted_times[mine], c.times)
            assert_array_equal(ds.sorted_values[mine], c.values)

    def test_m_hat_is_average_count(self):
        c1 = curve(0, [0.1, 0.3], [1.0, 2.0])
        c2 = curve(1, [0.2, 0.4, 0.6, 0.8], [3.0, 4.0, 5.0, 6.0])
        ds = make_dataset([c1, c2])
        assert ds.m_hat == 3.0

    def test_detects_common_design(self):
        t = [0.2, 0.5, 0.8]
        ds = make_dataset([curve(0, t, [1, 2, 3]), curve(1, t, [4, 5, 6])])
        assert ds.design == DESIGN_COMMON
        assert detect_design(ds.curves) == DESIGN_COMMON

    def test_detects_independent_design(self):
        ds = make_dataset([
            curve(0, [0.2, 0.5], [1, 2]),
            curve(1, [0.3, 0.6], [4, 5]),
        ])
        assert ds.design == DESIGN_INDEPENDENT

    def test_declared_common_must_share_times(self):
        with pytest.raises(ValidationError):
            FunctionalDataset(
                curves=(curve(0, [0.2, 0.5], [1, 2]),
                        curve(1, [0.3, 0.6], [4, 5])),
                design=DESIGN_COMMON,
            )


class TestEvalGrid:
    def test_make_uniform_points(self):
        g = EvalGrid.make_uniform(3)
        assert_allclose(g.points, [0.25, 0.5, 0.75])
        assert g.uniform

    def test_make_uniform_excludes_endpoints(self):
        g = EvalGrid.make_uniform(99)
        assert g.points[0] > 0.0 and g.points[-1] < 1.0

    def test_custom_range(self):
        g = EvalGrid.make_uniform(5, lo=0.2, hi=0.6)
        assert_allclose(g.points[0], 0.2)
        assert_allclose(g.points[-1], 0.6)

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            EvalGrid(points=np.array([0.5, 0.2]))

    def test_rejects_boundary_points(self):
        with pytest.raises(ValidationError):
            EvalGrid(points=np.array([0.0, 0.5]))


class TestLongCsv:
    def header(self, path):
        with open(path) as fh:
            return fh.readline().strip()

    def test_round_trip_preserves_floats(self, tmp_path, rng):
        from conftest import random_dataset

        ds = random_dataset(rng, n_curves=4)
        path = tmp_path / "data.csv"
        write_long_csv(ds, path)
        assert self.header(path) == "curve_id,t,y"
        back = ingest_long_csv(path)
        assert back.n_curves == ds.n_curves
        for a, b in zip(ds.curves, back.curves):
            assert_array_equal(a.times, b.times)
            assert_array_equal(a.values, b.values)

    def test_rows_sorted_and_curves_ordered(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text(
            "curve_id,t,y\n"
            "1,0.5,10.0\n"
            "0,0.9,1.0\n"
            "0,0.1,2.0\n"
            "1,0.2,20.0\n"
        )
        ds = ingest_long_csv(path)
        assert ds.curves[0].curve_id == 0
        assert_array_equal(ds.curves[0].times, [0.1, 0.9])
        assert_array_equal(ds.curves[0].values, [2.0, 1.0])
        assert_array_equal(ds.curves[1].times, [0.2, 0.5])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,value\n0,0.5,1.0\n")
        with pytest.raises(ValidationError):
            ingest_long_csv(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("curve_id,t,y\n0,0.5,1.0\n0,0.6,oops\n0,0.7,2.0\n"
                        "1,0.5,0.0\n1,0.6,0.0\n")
        with pytest.raises(ValidationError, match="line 3"):
            ingest_long_csv(path)

    def test_out_of_domain_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("curve_id,t,y\n0,1.5,1.0\n0,1.6,1.0\n"
                        "1,1.5,0.0\n1,1.6,0.0\n")
        with pytest.raises(ValidationError, match="line 2"):
            ingest_long_csv(path)

    def test_rescale_maps_into_open_interval(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("curve_id,t,y\n0,0.0,1.0\n0,10.0,2.0\n"
                        "1,0.0,0.0\n1,10.0,3.0\n")
        ds = ingest_long_csv(path, rescale=True)
        for c in ds.curves:
            assert np.all((c.times > 0.0) & (c.times < 1.0))
        assert ds.time_transform is not None
        offset, scale = ds.time_transform
        # original time = offset + scale * internal time
        t_back = offset + scale * ds.curves[0].times
        assert_allclose(t_back, [0.0, 10.0], atol=1e-12)

    def test_duplicate_times_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("curve_id,t,y\n0,0.5,1.0\n0,0.5,2.0\n"
                        "1,0.4,0.0\n1,0.6,0.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            ingest_long_csv(path)

    def check_error(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=match):
            ingest_long_csv(path)

    def test_two_field_row_reports_line(self, tmp_path):
        self.check_error(tmp_path, "curve_id,t,y\n0,0.5,1.0\n0,0.6\n"
                         "1,0.5,0.0\n", "line 3: expected 3 fields, got 2")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("curve_id,t,y\n\n0,0.5,1.0\n  \n0,0.7,2.0\n"
                        "1,0.5,0.0\n\n1,0.6,3.0\n\n")
        ds = ingest_long_csv(path)
        assert_array_equal(ds.curves[0].times, [0.5, 0.7])
        assert_array_equal(ds.curves[1].values, [0.0, 3.0])
        # a line count after blank lines is still the file's line
        self.check_error(tmp_path, "curve_id,t,y\n\n0,0.5,1.0\n\n"
                         "0,0.6,x\n", "line 5: malformed row")

    def test_non_finite_t_reports_line(self, tmp_path):
        self.check_error(tmp_path, "curve_id,t,y\n0,0.5,1.0\n0,0.6,2.0\n"
                         "1,nan,0.0\n", "line 4: non-finite t")

    def test_non_finite_y_reports_line(self, tmp_path):
        self.check_error(tmp_path, "curve_id,t,y\n0,0.5,1.0\n0,0.6,-inf\n"
                         "1,0.5,0.0\n", "line 3: non-finite y")

    def test_non_integer_curve_id_reports_line(self, tmp_path):
        self.check_error(tmp_path, "curve_id,t,y\n0,0.5,1.0\n1.0,0.6,2.0\n",
                         "line 3: malformed row")

    def test_header_only(self, tmp_path):
        self.check_error(tmp_path, "curve_id,t,y\n", "no data rows")
        self.check_error(tmp_path, "curve_id,t,y\n\n\n", "no data rows")

    def test_first_of_two_faults_reported(self, tmp_path):
        self.check_error(tmp_path, "curve_id,t,y\n0,0.5,1.0\n0,0.6,nan\n"
                         "1,0.5,0.0\n1,0.6\n", "line 3: non-finite y")

    def test_curve_id_beyond_int64_reports_line(self, tmp_path):
        self.check_error(tmp_path, "curve_id,t,y\n0,0.5,1.0\n0,0.6,2.0\n"
                         f"{2**63},0.5,0.0\n{2**63},0.6,0.0\n",
                         "line 4: curve_id .* is beyond 64 bits")

    def test_ingest_does_not_modify_input(self, tmp_path, rng):
        from conftest import random_dataset

        ds = random_dataset(rng, n_curves=3)
        path = tmp_path / "data.csv"
        write_long_csv(ds, path)
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        ingest_long_csv(path)
        after = hashlib.sha256(path.read_bytes()).hexdigest()
        assert before == after
