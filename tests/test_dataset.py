import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import fdadapt.dataset
from fdadapt import (
    DESIGN_COMMON,
    DESIGN_INDEPENDENT,
    CurveObservations,
    DesignSpec,
    FunctionalDataset,
    NoiseSpec,
    ProcessSpec,
    ValidationError,
    ingest_long_csv,
    make_dataset,
    sample_dataset,
    uniform_grid,
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
        assert make_dataset(ds.curves).design == DESIGN_COMMON

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

    @pytest.mark.parametrize("source", ["make_dataset", "ingest_long_csv",
                                        "sample_dataset"])
    def test_columns_are_read_only(self, tmp_path, source):
        # a write through a curve would change values_flat but not
        # sorted_values, so the estimators would read different data
        ds = make_dataset([curve(0, [0.2, 0.5], [1.0, 2.0]),
                           curve(3, [0.3, 0.6, 0.7], [4.0, 5.0, 6.0])])
        if source == "ingest_long_csv":
            write_long_csv(ds, tmp_path / "ds.csv")
            ds = ingest_long_csv(tmp_path / "ds.csv")
        elif source == "sample_dataset":
            ds = sample_dataset(ProcessSpec(kind="fbm", hurst=0.4),
                                DesignSpec(kind="independent", m_mean=10),
                                NoiseSpec(kind="homoscedastic", sd=0.1), 4,
                                seed=1).dataset
        c = ds.curves[0]
        for column in (c.times, c.values, ds._curve_ids, ds.times_flat,
                       ds.values_flat, ds.lengths, ds.sorted_times,
                       ds.sorted_values, ds.sorted_curve):
            with pytest.raises(ValueError):
                column[0] = column[-1]


class TestUniformGrid:
    def test_points(self):
        assert_array_equal(uniform_grid(3), [0.25, 0.5, 0.75])

    def test_excludes_endpoints(self):
        g = uniform_grid(99)
        assert g[0] > 0.0 and g[-1] < 1.0

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_fewer_than_two_points(self, n):
        with pytest.raises(ValidationError):
            uniform_grid(n)


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


def outcome(path, rescale=False):
    """ingest_long_csv's dataset, or its error message."""
    try:
        return ingest_long_csv(path, rescale=rescale)
    except ValidationError as exc:
        return str(exc)


def block_outcome(path, rescale=False):
    """outcome with the block parser alone reading the body."""
    with mock.patch.object(fdadapt.dataset, "_load_columns",
                           return_value=None):
        return outcome(path, rescale)


def vouched_outcome(path, rescale=False):
    """outcome with numpy's parser alone reading the body: a fallback to
    the block parser fails the test."""
    with mock.patch.object(fdadapt.dataset, "_read_rows",
                           side_effect=AssertionError("block parser ran")):
        return outcome(path, rescale)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for name in ("times_flat", "values_flat", "lengths", "sorted_times",
                 "sorted_values", "sorted_curve"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert_array_equal(a, b, err_msg=name)
    assert ([c.curve_id for c in got.curves]
            == [c.curve_id for c in want.curves])
    assert (got.design, got.m_hat, got.time_transform) == (
        want.design, want.m_hat, want.time_transform)


class TestFastIngest:
    """numpy's C parser reads what it can vouch for exactly as the block
    parser would; everything else reaches the block parser."""

    VALID = "0,0.5,1.0\n1,0.25,2.0\n0,0.75,3.5\n1,0.5,-1.0\n"

    @pytest.mark.parametrize("body", [
        pytest.param("0,0.5,1.0\n1.0,0.6,2.0\n", id="float-id"),
        pytest.param("", id="empty-body"),
        pytest.param("\n\n", id="blank-body"),
        pytest.param(VALID.replace("\n", "\r\n"), id="crlf"),
        pytest.param("+3,0.5,1.0\n1,0.25,2.0\n", id="plus-sign"),
        pytest.param(" 3 , 0.5 ,1.0 \n1,\t0.25,2.0\n", id="spaced-fields"),
        pytest.param(f"{2**53 + 1},0.5,1.0\n{2**53},0.25,2.0\n",
                     id="id-2^53+1"),
        pytest.param(f"0,0.5,1.0\n{2**63},0.25,2.0\n", id="id-2^63"),
        pytest.param(f"{-2**63},0.5,1.0\n{2**63 - 1},0.25,2.0\n",
                     id="id-int64-limits"),
        pytest.param("0,0.5,1.0\n  \n1,0.25,2.0\n", id="white-space-line"),
        pytest.param('0,0.5,1.0\n"1",0.25,2.0\n', id="quoted-field"),
        pytest.param("0,0.5,1.0\n1_000,0.25,2.0\n", id="underscore-id"),
        pytest.param("0,0.5,1.0\n1,0.25,inf\n", id="infinite-y"),
        pytest.param("0,0.5,1.0\n1,1.25,2.0\n", id="t-outside"),
        pytest.param("0,0.5,1.0\n0,0.5,2.0\n1,0.2,0.0\n", id="duplicate-t"),
    ])
    def test_same_as_block_parser(self, tmp_path, body):
        path = tmp_path / "edge.csv"
        path.write_bytes(f"curve_id,t,y\n{body}".encode())
        assert_same_outcome(outcome(path), block_outcome(path))

    def test_ids_beyond_2_53_are_exact(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text(f"curve_id,t,y\n{2**53 + 1},0.5,1.0\n"
                        f"{2**53},0.25,2.0\n")
        ds = vouched_outcome(path)
        assert [c.curve_id for c in ds.curves] == [2**53, 2**53 + 1]

    def test_crlf_read_by_numpy(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(("curve_id,t,y\n" + self.VALID)
                         .replace("\n", "\r\n").encode())
        assert_same_outcome(vouched_outcome(path), block_outcome(path))

    def test_parser_warning_reaches_block_parser(self, tmp_path):
        # numpy 1.23-1.26 read the curve id 1.0 as 1 with only a
        # DeprecationWarning; the block parser must then name the line
        path = tmp_path / "float_id.csv"
        path.write_text("curve_id,t,y\n0,0.5,1.0\n1.0,0.6,2.0\n")

        def loadtxt(*args, **kwargs):
            warnings.warn("string or file could not be read to its end",
                          DeprecationWarning)
            return np.array([(0, 0.5, 1.0), (1, 0.6, 2.0)],
                            dtype=fdadapt.dataset._CSV_DTYPE)

        with mock.patch.object(fdadapt.dataset.np, "loadtxt", loadtxt):
            with pytest.raises(ValidationError, match="line 3: malformed"):
                ingest_long_csv(path)

    def test_rescale_rounding_onto_the_edge_rejected(self, tmp_path):
        # at an offset of 1e17 the 1% pad is lost to rounding, so the
        # first rescaled time lands on 0
        path = tmp_path / "far.csv"
        path.write_text("curve_id,t,y\n0,1e17,1.0\n0,100000000000000032,"
                        "2.0\n1,100000000000000064,0.0\n1,1e17,3.0\n")
        with pytest.raises(ValidationError, match="must lie in"):
            ingest_long_csv(path, rescale=True)


def unit_times(n):
    return st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=n, max_size=n, unique=True)


@st.composite
def long_csv_bodies(draw):
    """(text, rescale): a valid long CSV with shuffled rows, empty lines
    and times written with repr, in (0,1) or, to be rescaled, anywhere."""
    rescale = draw(st.booleans())
    ids = draw(st.lists(st.integers(-(2**63 - 1), 2**63 - 1), min_size=2,
                        max_size=5, unique=True))
    if rescale:
        times = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6,
                         unique=True)
    else:
        times = st.integers(1, 6).flatmap(unit_times)
    shared = draw(times) if draw(st.booleans()) else None
    rows = []
    for cid in ids:
        for t in shared or draw(times):
            y = draw(st.floats(allow_nan=False, allow_infinity=False))
            rows.append(f"{cid},{t!r},{y!r}")
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), "")
    return "curve_id,t,y\n" + "\n".join(rows) + "\n", rescale


@settings(max_examples=80, deadline=None)
@given(long_csv_bodies())
def test_fast_ingest_matches_block_parser(tmp_path_factory, case):
    text, rescale = case
    path = tmp_path_factory.getbasetemp() / "fast_ingest.csv"
    path.write_text(text)
    want = block_outcome(path, rescale)
    got = (vouched_outcome(path, rescale) if not isinstance(want, str)
           else outcome(path, rescale))
    assert_same_outcome(got, want)
