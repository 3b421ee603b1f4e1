"""Data model for discretely observed functional data.

A dataset is a collection of curves, each observed at its own sorted
times in the open unit interval, possibly sharing a single common
design. Long-format CSV files (curve_id,t,y) are the on-disk form.
"""

import csv
import itertools
from dataclasses import dataclass, field
from operator import itemgetter

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

    ``m_hat`` is the arithmetic mean of the curve lengths. The
    time-sorted copy of all observations built at construction time
    lets a window [t-h, t+h] be taken as one slice for every curve.
    """

    curves: tuple
    design: str
    m_hat: float = field(init=False)
    time_transform: tuple = None

    # flat layout: the curves' observations one curve after another
    times_flat: np.ndarray = field(init=False, repr=False)
    values_flat: np.ndarray = field(init=False, repr=False)
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
        if (self.design == DESIGN_COMMON
                and detect_design(self.curves) != DESIGN_COMMON):
            raise ValidationError(
                "common design requires identical times on all curves"
            )
        lengths = np.array([len(c) for c in self.curves], dtype=np.intp)
        self.m_hat = float(lengths.sum()) / len(self.curves)
        self.lengths = lengths
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
    error. Blank lines are skipped; an error names the first bad line.
    """
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
        blocks, first = [], 2
        while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
            blocks.append(_read_rows(path, rows, first))
            first += len(rows)
    if not sum(b[0].size for b in blocks):
        raise ValidationError(f"{path}: no data rows")
    lines, cid, t, y = map(np.concatenate, zip(*blocks))

    offset, scale = 0.0, 1.0
    if rescale and (t.min() <= 0.0 or t.max() >= 1.0):
        lo, hi = float(t.min()), float(t.max())
        span = hi - lo
        if span <= 0.0:
            raise ValidationError(f"{path}: cannot rescale a single time value")
        pad = span / 100.0
        offset, scale = lo - pad, span + 2.0 * pad
        t = (t - offset) / scale
    else:
        bad = np.flatnonzero((t <= 0.0) | (t >= 1.0))
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"{path}: line {lines[i]}: t={float(t[i])} outside (0,1)"
            )

    # curves in curve_id order, each by time; ties keep file order
    order = np.lexsort((t, cid))
    cid, t, y, lines = cid[order], t[order], y[order], lines[order]
    new_curve = np.diff(cid) != 0
    dup = np.flatnonzero(~new_curve & (np.diff(t) == 0.0))
    if dup.size:
        i = dup[0]
        raise ValidationError(
            f"{path}: line {lines[i + 1]}: duplicate time {t[i]} in curve "
            f"{cid[i]}"
        )
    starts = np.flatnonzero(new_curve) + 1
    curves = [CurveObservations(c, ts_c, ys_c) for c, ts_c, ys_c in zip(
        cid[np.r_[0, starts]].tolist(), np.split(t, starts),
        np.split(y, starts))]

    ds = make_dataset(curves)
    if rescale and (offset, scale) != (0.0, 1.0):
        ds.time_transform = (offset, scale)
    return ds


# rows are parsed a block at a time; 65,536 rows as strings take ~17.5 MB
_BLOCK_ROWS = 1 << 16


def _read_rows(path, rows, first):
    """Line numbers, curve ids, times and values of one block of CSV
    rows, the first on line `first`; blank rows are dropped."""
    lines = np.arange(first, first + len(rows))
    fields = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    # blank lines: no field, or one field of white space
    blank = [i for i in np.flatnonzero(fields < 2)
             if not "".join(rows[i]).strip()]
    for i in reversed(blank):
        del rows[i]
    lines, fields = np.delete(lines, blank), np.delete(fields, blank)
    readable = (fields == 3).all()
    if readable:
        try:
            cid = np.fromiter(map(int, map(itemgetter(0), rows)), np.int64)
            t = np.fromiter(map(float, map(itemgetter(1), rows)), float)
            y = np.fromiter(map(float, map(itemgetter(2), rows)), float)
            readable = np.isfinite(t).all() and np.isfinite(y).all()
        except (ValueError, OverflowError):
            readable = False
    if not readable:
        lineno, problem = next((n, p) for n, row in zip(lines, rows)
                               if (p := _row_problem(row)))
        raise ValidationError(f"{path}: line {lineno}: {problem}")
    return lines, cid, t, y


def _row_problem(row):
    """Why one CSV row cannot be read, or None."""
    if len(row) != 3:
        return f"expected 3 fields, got {len(row)}"
    try:
        cid, t, y = int(row[0]), float(row[1]), float(row[2])
    except ValueError as exc:
        return f"malformed row: {exc}"
    if not -2**63 <= cid < 2**63:
        return f"curve_id {cid} is beyond 64 bits"
    if not np.isfinite(t):
        return "non-finite t"
    return None if np.isfinite(y) else "non-finite y"


def write_long_csv(dataset, path):
    """Serialize a dataset to the long CSV format, curves in id order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for c in dataset.curves:
            for t, y in zip(c.times, c.values):
                writer.writerow([c.curve_id, repr(float(t)), repr(float(y))])
