"""Output checks for the benchmark's operations.

The checks test what every valid output must satisfy and pin no
estimator value: column layout and row counts, finite estimates wherever
curves were included, selected bandwidths inside the searched range, a
symmetric positive semidefinite covariance surface, and regularity
exponents inside (0, delta_max + 1]. Each check returns a list of
failure messages; an empty list means the output passed.

``compare`` reports whether an output equals a reference output bitwise
and the largest absolute difference between their numeric cells, so a
later change can show that it left the results unchanged.
"""

import csv
import hashlib
import math

import numpy as np

# Gamma_hat is written as 0.5 * (M + M.T), so any asymmetry is a defect;
# the relative tolerance only absorbs the decimal round trip.
SYMMETRY_RTOL = 1e-12
# Smallest eigenvalue allowed, relative to the largest in magnitude, on
# the fully defined part of the projected surface.
PSD_RTOL = 1e-9
# Slack on the bandwidth range for values rebuilt by interpolation.
H_RTOL = 1e-9

COV_COLUMNS = ["s", "t", "gamma_hat", "Gamma_hat", "h_star", "in_band",
               "W_N_pair"]
REG_COLUMNS = ["t2", "t1", "t3", "delta_hat", "H_hat", "alpha_hat", "L2_hat",
               "theta_12", "theta_13", "retained_curves"]
REPORT_COLUMNS = ["config_id", "N", "m", "p", "rep", "ise_mean_tilde",
                  "ise_mean_true", "ise_cov_tilde", "ise_cov_true"]


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(path):
    """(preamble lines, header, rows of strings)."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pre = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return pre, [], []
    rows = list(csv.reader(body))
    return pre, rows[0], rows[1:]


def _numeric(rows, header, columns):
    """Numeric columns as float arrays; empty cells become NaN."""
    out = {}
    for c in columns:
        if c == "config_id":
            continue
        j = header.index(c)
        out[c] = np.array([float(r[j]) if r[j] != "" else math.nan
                           for r in rows])
    return out


def _layout(path, columns, n_rows):
    pre, header, rows = _read(path)
    if header != columns:
        return pre, None, [f"header {header} != {columns}"]
    if len(rows) != n_rows:
        return pre, None, [f"{len(rows)} rows, expected {n_rows}"]
    if any(len(r) != len(columns) for r in rows):
        return pre, None, ["a row has the wrong number of fields"]
    try:
        return pre, _numeric(rows, header, columns), []
    except ValueError as exc:
        return pre, None, [f"non-numeric cell: {exc}"]


def check_cov(path, n_grid, n_curves, h_min, h_max):
    pre, col, errs = _layout(path, COV_COLUMNS, n_grid * n_grid)
    if errs:
        return errs, None
    if len(pre) != 1 or not pre[0].startswith("# d="):
        errs.append("missing '# d=... c=...' preamble")
    grid = np.arange(1, n_grid + 1) / (n_grid + 1)
    s = col["s"].reshape(n_grid, n_grid)
    t = col["t"].reshape(n_grid, n_grid)
    if not (np.allclose(s, grid[:, None], rtol=0, atol=1e-12)
            and np.allclose(t, grid[None, :], rtol=0, atol=1e-12)):
        errs.append("s, t are not the uniform grid in row-major order")
    W = col["W_N_pair"].reshape(n_grid, n_grid)
    if not (np.all(np.isfinite(W)) and np.all(W == np.round(W))
            and W.min() >= 0 and W.max() <= n_curves):
        errs.append("W_N_pair is not an integer in [0, N]")
    if not np.all(np.isin(col["in_band"], (0.0, 1.0))):
        errs.append("in_band is not 0/1")
    used = W > 0
    G = col["Gamma_hat"].reshape(n_grid, n_grid)
    g = col["gamma_hat"].reshape(n_grid, n_grid)
    h = col["h_star"].reshape(n_grid, n_grid)
    if not (np.all(np.isfinite(G[used])) and np.all(np.isfinite(g[used]))):
        errs.append("gamma_hat or Gamma_hat not finite where W_N_pair > 0")
    if not used.any():
        errs.append("no cell has W_N_pair > 0")
        return errs, G
    hu = h[used]
    if not (np.all(np.isfinite(hu)) and hu.min() >= h_min * (1 - H_RTOL)
            and hu.max() <= h_max * (1 + H_RTOL)):
        errs.append(f"h_star outside [{h_min}, {h_max}] where W_N_pair > 0")
    if not np.array_equal(np.isnan(G), np.isnan(G).T):
        errs.append("Gamma_hat undefined cells are not symmetric")
    fin = np.isfinite(G) & np.isfinite(G.T)
    scale = max(1.0, float(np.abs(G[fin]).max()))
    if np.abs(G[fin] - G.T[fin]).max() > SYMMETRY_RTOL * scale:
        errs.append("Gamma_hat is not symmetric")
    rows_ok = np.isfinite(G).all(axis=1)
    if rows_ok.sum() >= 2:
        sub = G[np.ix_(rows_ok, rows_ok)]
        eig = np.linalg.eigvalsh(0.5 * (sub + sub.T))
        if eig[0] < -PSD_RTOL * max(abs(eig[0]), abs(eig[-1])):
            errs.append(f"Gamma_hat not PSD: smallest eigenvalue {eig[0]:.3e}")
    return errs, G


def check_regularity(path, n_anchors, n_curves, delta_max):
    _, col, errs = _layout(path, REG_COLUMNS, n_anchors)
    if errs:
        return errs, None
    a = col["alpha_hat"]
    if not (np.all(a > 0.0) and np.all(a <= delta_max + 1)):
        errs.append(f"alpha_hat outside (0, {delta_max + 1}]")
    if not np.all((0 < col["t1"]) & (col["t1"] < col["t2"])
                  & (col["t2"] < col["t3"]) & (col["t3"] < 1)):
        errs.append("anchor triples are not 0 < t1 < t2 < t3 < 1")
    d = col["delta_hat"]
    if not np.all(np.isin(d, np.arange(delta_max + 1))):
        errs.append(f"delta_hat outside 0..{delta_max}")
    if not (np.all(np.isfinite(col["L2_hat"])) and np.all(col["L2_hat"] > 0)):
        errs.append("L2_hat not finite and positive")
    r = col["retained_curves"]
    if not (np.all(r >= 1) and np.all(r <= n_curves)):
        errs.append("retained_curves outside [1, N]")
    return errs, a


def check_report(path, pairs, reps, estimators):
    _, col, errs = _layout(path, REPORT_COLUMNS, len(pairs) * reps)
    if errs:
        return errs, None
    want = np.repeat(np.array(pairs, dtype=float), reps, axis=0)
    if not (np.array_equal(col["N"], want[:, 0])
            and np.array_equal(col["m"], want[:, 1])):
        errs.append("report (N, m) columns do not follow the pairs")
    for k in REPORT_COLUMNS[5:]:
        if "cov" in k and "cov" not in estimators:
            continue
        v = col[k]
        if not (np.all(np.isfinite(v)) and np.all(v >= 0.0)):
            errs.append(f"{k} not finite and nonnegative in every row")
    return errs, col


def compare(path, ref_path):
    """(bitwise equal, max absolute difference over numeric cells)."""
    if digest(path) == digest(ref_path):
        return True, 0.0
    _, h1, r1 = _read(path)
    _, h2, r2 = _read(ref_path)
    if h1 != h2 or len(r1) != len(r2):
        return False, math.inf
    worst = 0.0
    for a, b in zip(r1, r2):
        for x, y in zip(a, b):
            try:
                fx, fy = float(x or "nan"), float(y or "nan")
            except ValueError:
                if x != y:
                    return False, math.inf
                continue
            if math.isnan(fx) or math.isnan(fy):
                if math.isnan(fx) != math.isnan(fy):
                    return False, math.inf
                continue
            worst = max(worst, abs(fx - fy))
    return False, worst


def ise_2d(values, truth, grid):
    """Integrated squared error over the grid square, trapezoid cells.

    Cells with an undefined corner are left out and the integral is
    scaled back to the full square, the rule fdadapt.evaluate.ise_2d
    uses; it is computed here so that the program does not grade itself.
    """
    D = (values - truth) ** 2
    F = np.isfinite(D)
    ok = F[:-1, :-1] & F[1:, :-1] & F[:-1, 1:] & F[1:, 1:]
    area = np.diff(grid)[:, None] * np.diff(grid)[None, :]
    corner = 0.25 * (D[:-1, :-1] + D[1:, :-1] + D[:-1, 1:] + D[1:, 1:])
    covered = float(area[ok].sum())
    if covered <= 0.0:
        return math.nan
    return float((area * np.where(ok, corner, 0.0)).sum()) * float(
        area.sum()) / covered
