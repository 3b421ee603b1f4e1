"""Data model for discretely observed functional data.

A dataset is a collection of curves, each observed at its own sorted
times in the open unit interval, possibly sharing a single common
design. Long-format CSV files (curve_id,t,y) are the on-disk form.
_write_rows writes every CSV file the package makes, this one included.
"""

import csv
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
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


class FunctionalDataset:
    """N curves plus design metadata; immutable once built.

    The observations are stored as columns: ``times_flat`` and
    ``values_flat`` hold the curves one after another, each sorted by
    time, with ``lengths`` observations each. The time-sorted copy of all
    observations lets a window [t-h, t+h] be taken as one slice for every
    curve. ``curves`` gives the same data as CurveObservations, built on
    first use over views of the columns. All of these arrays are
    read-only. ``m_hat`` is the arithmetic mean of the curve lengths.
    ``design`` None detects the design; a declared common design must
    have identical times on all curves.
    """

    def __init__(self, curves, design, time_transform=None):
        curves = tuple(curves)
        if len(curves) < 2:
            raise ValidationError("a dataset needs at least 2 curves")
        self._set_columns(
            np.array([c.curve_id for c in curves]),
            np.concatenate([c.times for c in curves]),
            np.concatenate([c.values for c in curves]),
            np.array([len(c) for c in curves], dtype=np.intp), design)
        self.time_transform = time_transform

    @classmethod
    def _from_columns(cls, curve_ids, times, values, lengths, design=None):
        """A dataset over columns that already hold valid curves (sorted
        times in (0,1), finite values), which are not checked again."""
        ds = cls.__new__(cls)
        ds._set_columns(curve_ids, times, values, lengths, design)
        ds.time_transform = None
        return ds

    def _set_columns(self, curve_ids, times, values, lengths, design):
        if lengths.size < 2:
            raise ValidationError("a dataset needs at least 2 curves")
        if design not in (None, DESIGN_INDEPENDENT, DESIGN_COMMON):
            raise ValidationError(f"unknown design {design!r}")
        if design != DESIGN_INDEPENDENT:
            found = _design(times, lengths)
            if design == DESIGN_COMMON and found != DESIGN_COMMON:
                raise ValidationError(
                    "common design requires identical times on all curves"
                )
            design = found
        self.design = design
        self._curve_ids = curve_ids
        self.times_flat = times
        self.values_flat = values
        self.lengths = lengths
        self.m_hat = float(lengths.sum()) / lengths.size
        # time-sorted layout: every observation, ordered by time (ties
        # keep curve order), with the index of the curve it belongs to
        order = np.argsort(times, kind="stable")
        self.sorted_times = times[order]
        self.sorted_values = values[order]
        self.sorted_curve = np.repeat(np.arange(lengths.size), lengths)[order]
        # the two layouts must not drift apart: a write into a column, or
        # through a curve's view of it, raises
        for column in (curve_ids, times, values, lengths, self.sorted_times,
                       self.sorted_values, self.sorted_curve):
            column.flags.writeable = False

    @property
    def n_curves(self):
        return self.lengths.size

    @functools.cached_property
    def curves(self):
        """The curves as CurveObservations, in storage order."""
        bounds = np.cumsum(self.lengths)[:-1]
        return tuple(map(CurveObservations, self._curve_ids.tolist(),
                         np.split(self.times_flat, bounds),
                         np.split(self.values_flat, bounds)))


def _design(times, lengths):
    """Common iff all curves have the same length and identical times."""
    m = lengths[0]
    if (lengths == m).all() and (times.reshape(-1, m) == times[:m]).all():
        return DESIGN_COMMON
    return DESIGN_INDEPENDENT


def make_dataset(curves, design=None):
    curves = tuple(curves)
    if not curves:
        raise ValidationError("empty dataset")
    return FunctionalDataset(curves, design)


def uniform_grid(n):
    """n equispaced points strictly inside the unit interval, from
    1/(n+1) to n/(n+1)."""
    if n < 2:
        raise ValidationError("uniform grid needs n >= 2")
    return np.arange(1, n + 1) / (n + 1)


_CSV_HEADER = ["curve_id", "t", "y"]
_CSV_DTYPE = [("c", "i8"), ("t", "f8"), ("y", "f8")]


def ingest_long_csv(path, rescale=False):
    """Read a long-format CSV (curve_id,t,y) into a dataset.

    Rows may come in any order; curves are keyed by curve_id and their
    rows sorted by time. With ``rescale=True``, times outside (0,1) are
    mapped affinely into the unit interval and the (offset, scale) pair
    is recorded on the dataset; otherwise out-of-domain times are an
    error. Blank lines are skipped; an error names the first bad line.

    numpy's C parser reads the body first. When it cannot vouch for the
    file (it raises or warns, or a value is not finite, a time lies
    outside (0,1) or repeats within a curve), the block parser of
    _read_rows reads it again: it alone keeps line numbers, and it
    parses, or rejects, every file as it would on its own.
    """
    ds = _read_long_csv(path, rescale, fast=True)
    if ds is None:
        ds = _read_long_csv(path, rescale, fast=False)
    return ds


def _read_long_csv(path, rescale, fast):
    """ingest_long_csv with the C parser (fast; None where it cannot
    vouch for the file) or with the block parser."""
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
        if fast:
            lines = None
            columns = _load_columns(fh)
            if columns is None:
                return None
            cid, t, y = columns
        else:
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
            if lines is None:
                return None
            i = bad[0]
            raise ValidationError(
                f"{path}: line {lines[i]}: t={float(t[i])} outside (0,1)"
            )

    # curves in curve_id order, each by time; ties keep file order
    order = np.lexsort((t, cid))
    cid, t, y = cid[order], t[order], y[order]
    new_curve = np.diff(cid) != 0
    dup = np.flatnonzero(~new_curve & (np.diff(t) == 0.0))
    if dup.size:
        if lines is None:
            return None
        i = dup[0]
        raise ValidationError(
            f"{path}: line {lines[order][i + 1]}: duplicate time {t[i]} in "
            f"curve {cid[i]}"
        )
    # rescaled times can round onto 0 or 1 when the span is tiny
    # against the offset
    out = (t <= 0.0) | (t >= 1.0)
    if out.any():
        raise ValidationError(
            f"curve {cid[out.argmax()]}: observation times must lie in (0,1)"
        )
    starts = np.flatnonzero(new_curve) + 1
    ds = FunctionalDataset._from_columns(
        cid[np.r_[0, starts]], t, y, np.diff(np.r_[0, starts, t.size]))
    if rescale and (offset, scale) != (0.0, 1.0):
        ds.time_transform = (offset, scale)
    return ds


def _load_columns(fh):
    """Curve ids, times and values of the rows left in fh, read by
    numpy's C parser; None when it raises or warns (a float-formatted
    curve id under numpy < 2, an empty body) or a value is not finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                              dtype=_CSV_DTYPE)
        except (ValueError, Warning):
            return None
    t, y = rows["t"], rows["y"]
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        return None
    return rows["c"], t, y


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


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "" if math.isnan(x) else repr(x)
    return str(x)


def _cells(col):
    """The cells of one column by _fmt's rules: a bool, integer or float
    array in one pass over its tolist(), any other sequence cell by
    cell."""
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind == "b":
        return ["1" if x else "0" for x in col.tolist()]
    if kind in "iu":
        return list(map(str, col.tolist()))
    if kind == "f":
        cells = list(map(repr, col.tolist()))
        for i in np.flatnonzero(np.isnan(col)).tolist():
            cells[i] = ""
        return cells
    return list(map(_fmt, col))


# rows formatted and written at a time, so a long file never holds every
# cell's string at once
_WRITE_BLOCK = 1 << 16


def _write_rows(path, header, columns, preamble=None):
    """A CSV file of equal-length columns (arrays or sequences), its cells
    written by _fmt's rules."""
    columns = list(columns)
    n = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8") as fh:
        if preamble:
            fh.write(preamble + "\n")
        fh.write(",".join(header) + "\n")
        for a in range(0, n, _WRITE_BLOCK):
            cells = [_cells(c[a:a + _WRITE_BLOCK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_long_csv(dataset, path):
    """Serialize a dataset to the long CSV format, curves in id order."""
    _write_rows(path, _CSV_HEADER, (
        np.repeat(dataset._curve_ids, dataset.lengths), dataset.times_flat,
        dataset.values_flat))
