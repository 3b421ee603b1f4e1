"""Data model for discretely observed functional data.

A dataset is a collection of curves, each observed at its own sorted
times in the open unit interval, possibly sharing a single common
design. Long-format CSV files (curve_id,t,y) are the on-disk form.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

DESIGN_INDEPENDENT = "independent"
DESIGN_COMMON = "common"


@dataclass(frozen=True)
class CurveObservations:
    """One curve: strictly increasing times in (0,1) and finite values."""

    curve_id: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1:
            raise ValidationError("times and values must be one-dimensional")
        if times.size < 1:
            raise ValidationError(
                f"curve {self.curve_id}: needs at least one observation"
            )
        if times.size != values.size:
            raise ValidationError(
                f"curve {self.curve_id}: times and values lengths differ"
            )
        if not np.all(np.isfinite(times)):
            raise ValidationError(f"curve {self.curve_id}: non-finite time")
        if np.any(times <= 0.0) or np.any(times >= 1.0):
            raise ValidationError(
                f"curve {self.curve_id}: observation times must lie in (0,1)"
            )
        if np.any(np.diff(times) <= 0.0):
            raise ValidationError(
                f"curve {self.curve_id}: times must be strictly increasing "
                "(duplicates are rejected, not averaged)"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"curve {self.curve_id}: non-finite value")

    def __len__(self):
        return self.times.size


@dataclass
class FunctionalDataset:
    """N curves plus design metadata; treated as immutable once built.

    ``m_hat`` is the arithmetic mean of the curve lengths. The flat
    per-observation arrays built at construction time let point-wise
    smoothing run as single vectorized passes over all curves; the
    time-sorted copy lets a window [t-h, t+h] be taken as one slice.
    """

    curves: tuple
    design: str
    m_hat: float = field(init=False)
    time_transform: tuple = None

    # flat layout: curve i occupies slots starts[i]:starts[i+1]
    times_flat: np.ndarray = field(init=False, repr=False)
    values_flat: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    lengths: np.ndarray = field(init=False, repr=False)
    # time-sorted layout: every observation, ordered by time (ties keep
    # curve order), with the index of the curve it belongs to
    sorted_times: np.ndarray = field(init=False, repr=False)
    sorted_values: np.ndarray = field(init=False, repr=False)
    sorted_curve: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.curves = tuple(self.curves)
        if len(self.curves) < 2:
            raise ValidationError("a dataset needs at least 2 curves")
        if self.design not in (DESIGN_INDEPENDENT, DESIGN_COMMON):
            raise ValidationError(f"unknown design {self.design!r}")
        if self.design == DESIGN_COMMON:
            t0 = self.curves[0].times
            for c in self.curves[1:]:
                if not np.array_equal(t0, c.times):
                    raise ValidationError(
                        "common design requires identical times on all curves"
                    )
        lengths = np.array([len(c) for c in self.curves], dtype=np.intp)
        self.m_hat = float(lengths.sum()) / len(self.curves)
        self.lengths = lengths
        self.starts = np.concatenate(([0], np.cumsum(lengths)))
        self.times_flat = np.concatenate([c.times for c in self.curves])
        self.values_flat = np.concatenate([c.values for c in self.curves])
        order = np.argsort(self.times_flat, kind="stable")
        self.sorted_times = self.times_flat[order]
        self.sorted_values = self.values_flat[order]
        self.sorted_curve = np.repeat(np.arange(lengths.size), lengths)[order]

    @property
    def n_curves(self):
        return len(self.curves)


def detect_design(curves):
    """Common iff every curve's time vector is identical."""
    t0 = curves[0].times
    for c in curves[1:]:
        if not np.array_equal(t0, c.times):
            return DESIGN_INDEPENDENT
    return DESIGN_COMMON


def make_dataset(curves, design=None):
    curves = tuple(curves)
    if not curves:
        raise ValidationError("empty dataset")
    if design is None:
        design = detect_design(curves)
    return FunctionalDataset(curves=curves, design=design)


@dataclass(frozen=True)
class EvalGrid:
    """Sorted evaluation points inside the open unit interval."""

    points: np.ndarray
    uniform: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("an evaluation grid needs at least 2 points")
        if np.any(np.diff(pts) <= 0.0):
            raise ValidationError("grid points must be strictly increasing")
        if pts[0] <= 0.0 or pts[-1] >= 1.0:
            raise ValidationError("grid points must lie strictly inside (0,1)")

    @staticmethod
    def make_uniform(n, lo=None, hi=None):
        """n equispaced points; default bounds are 1/(n+1) and n/(n+1)."""
        if n < 2:
            raise ValidationError("uniform grid needs n >= 2")
        if lo is None and hi is None:
            pts = np.arange(1, n + 1, dtype=float) / (n + 1)
        else:
            if lo is None or hi is None or not lo < hi:
                raise ValidationError("need lo < hi for a uniform grid")
            pts = np.linspace(lo, hi, n)
        return EvalGrid(points=pts, uniform=True)

    def __len__(self):
        return self.points.size


_CSV_HEADER = ["curve_id", "t", "y"]


def ingest_long_csv(path, rescale=False):
    """Read a long-format CSV (curve_id,t,y) into a dataset.

    Rows may come in any order; curves are keyed by curve_id and their
    rows sorted by time. With ``rescale=True``, times outside (0,1) are
    mapped affinely into the unit interval and the (offset, scale) pair
    is recorded on the dataset; otherwise out-of-domain times are an
    error.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if [h.strip() for h in header] != _CSV_HEADER:
            raise ValidationError(
                f"{path}: line 1: expected header curve_id,t,y, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValidationError(
                    f"{path}: line {lineno}: expected 3 fields, got {len(row)}"
                )
            try:
                cid = int(row[0])
                t = float(row[1])
                y = float(row[2])
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: line {lineno}: malformed row: {exc}"
                ) from None
            if not np.isfinite(t):
                raise ValidationError(f"{path}: line {lineno}: non-finite t")
            if not np.isfinite(y):
                raise ValidationError(f"{path}: line {lineno}: non-finite y")
            rows.append((cid, t, y, lineno))

    if not rows:
        raise ValidationError(f"{path}: no data rows")

    offset, scale = 0.0, 1.0
    ts = np.array([r[1] for r in rows])
    if rescale and (ts.min() <= 0.0 or ts.max() >= 1.0):
        lo, hi = float(ts.min()), float(ts.max())
        span = hi - lo
        if span <= 0.0:
            raise ValidationError(f"{path}: cannot rescale a single time value")
        pad = span / 100.0
        offset, scale = lo - pad, span + 2.0 * pad
        rows = [(cid, (t - offset) / scale, y, ln) for cid, t, y, ln in rows]
    else:
        bad = [r for r in rows if not 0.0 < r[1] < 1.0]
        if bad:
            raise ValidationError(
                f"{path}: line {bad[0][3]}: t={bad[0][1]} outside (0,1)"
            )

    by_curve = {}
    for cid, t, y, lineno in rows:
        by_curve.setdefault(cid, []).append((t, y, lineno))

    curves = []
    for cid in sorted(by_curve):
        recs = sorted(by_curve[cid], key=lambda r: r[0])
        ts_c = np.array([r[0] for r in recs])
        dup = np.nonzero(np.diff(ts_c) == 0.0)[0]
        if dup.size:
            raise ValidationError(
                f"{path}: line {recs[dup[0] + 1][2]}: duplicate time "
                f"{ts_c[dup[0]]} in curve {cid}"
            )
        curves.append(
            CurveObservations(
                curve_id=cid,
                times=ts_c,
                values=np.array([r[1] for r in recs]),
            )
        )

    ds = make_dataset(curves)
    if rescale and (offset, scale) != (0.0, 1.0):
        ds.time_transform = (offset, scale)
    return ds


def write_long_csv(dataset, path):
    """Serialize a dataset to the long CSV format, curves in id order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for c in dataset.curves:
            for t, y in zip(c.times, c.values):
                writer.writerow([c.curve_id, repr(float(t)), repr(float(y))])
