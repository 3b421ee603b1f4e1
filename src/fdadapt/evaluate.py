"""The shared fit pipeline, error metrics and the simulation experiment
harness."""

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import EvalGrid
from .errors import (
    EstimationError,
    ExperimentError,
    FdadaptError,
    ValidationError,
)
from .covariance import CovarianceSurface, estimate_covariance
from .kernels import BIWEIGHT, EPANECHNIKOV
from .mean import MeanEstimate, estimate_mean
from .regularity import (
    NOISE_CONSTANT,
    NoiseEstimate,
    RegularitySchedule,
    estimate_noise,
    regularity_at_anchors,
)
from .simulate import DesignSpec, sample_dataset, true_covariance

_trapz = getattr(np, "trapezoid", None) or np.trapz


def _grid_points(grid):
    pts = np.asarray(getattr(grid, "points", grid), dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValidationError("grid must hold at least 2 points")
    return pts


def ise_1d(values_hat, values_ref, grid):
    """Integrated squared error on a grid, trapezoid rule.

    Points where either input is not finite are excluded and the
    integral is rescaled by full span over covered span, so a handful
    of undefined points does not bias the metric downward.
    """
    pts = _grid_points(grid)
    a = np.asarray(values_hat, dtype=float)
    b = np.asarray(values_ref, dtype=float)
    if a.shape != pts.shape or b.shape != pts.shape:
        raise ValidationError("ise_1d inputs must match the grid shape")
    diff_sq = (a - b) ** 2
    finite = np.isfinite(diff_sq)
    if finite.sum() < 2:
        raise EstimationError("fewer than 2 defined points for ise_1d")
    x = pts[finite]
    covered = x[-1] - x[0]
    if covered <= 0.0:
        raise EstimationError("covered span is empty in ise_1d")
    raw = float(_trapz(diff_sq[finite], x))
    span = pts[-1] - pts[0]
    return raw * span / covered


def ise_2d(values_hat, values_ref, grid_s, grid_t):
    """Integrated squared error over a surface grid.

    Cells with any non-finite corner are excluded and the integral is
    rescaled by total area over covered area.
    """
    s = _grid_points(grid_s)
    t = _grid_points(grid_t)
    A = np.asarray(values_hat, dtype=float)
    B = np.asarray(values_ref, dtype=float)
    if A.shape != (s.size, t.size) or B.shape != A.shape:
        raise ValidationError("ise_2d inputs must match the grid shapes")
    D = (A - B) ** 2
    F = np.isfinite(D)
    cell_ok = F[:-1, :-1] & F[1:, :-1] & F[:-1, 1:] & F[1:, 1:]
    ds = np.diff(s)[:, None]
    dt = np.diff(t)[None, :]
    area = ds * dt
    corner_mean = 0.25 * (D[:-1, :-1] + D[1:, :-1] + D[:-1, 1:] + D[1:, 1:])
    covered = float(area[cell_ok].sum())
    if covered <= 0.0:
        raise EstimationError("no fully defined cell for ise_2d")
    raw = float((area * np.where(cell_ok, corner_mean, 0.0)).sum())
    total = (s[-1] - s[0]) * (t[-1] - t[0])
    return raw * total / covered


def empirical_mean_tilde(grid_latents):
    """Average of the latent curves on the grid."""
    X = np.asarray(grid_latents, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValidationError("grid_latents must be (n_curves, n_points)")
    return X.mean(axis=0)


def empirical_cov_tilde(grid_latents):
    """Sample covariance of the latent curves on the grid."""
    X = np.asarray(grid_latents, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValidationError("need at least 2 latent curves")
    Xc = X - X.mean(axis=0)
    return (Xc.T @ Xc) / (X.shape[0] - 1)


def rate_slope(sizes, values):
    """Least squares slope of log(value) on log(size) with its SE."""
    x = np.asarray(sizes, dtype=float)
    y = np.asarray(values, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0.0) & (y > 0.0)
    x, y = np.log(x[keep]), np.log(y[keep])
    if x.size < 2:
        return math.nan, math.nan
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx <= 0.0:
        return math.nan, math.nan
    slope = float(xc @ (y - y.mean())) / sxx
    if x.size < 3:
        return slope, math.nan
    resid = (y - y.mean()) - slope * xc
    se = math.sqrt(float(resid @ resid) / (x.size - 2) / sxx)
    return slope, se


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation study: a process, a design, and (N, m) pairs."""

    process: object
    noise: object
    design_kind: str
    pairs: tuple
    replications: int
    seed: int
    p_jitter: float = 0.0
    estimators: tuple = ("mean",)
    grid_n: int = 101
    cov_grid_n: int = 21
    n_anchors: int = 20
    kernel: str = "biweight"
    presmooth_kernel: str = "epanechnikov"
    k0: int = 2
    noise_mode: str = "constant"

    def __post_init__(self):
        if not self.pairs:
            raise ValidationError("need at least one (N, m) pair")
        if self.replications < 1:
            raise ValidationError("replications must be positive")
        for est in self.estimators:
            if est not in ("mean", "cov"):
                raise ValidationError(f"unknown estimator {est!r}")

    def config_id(self, ci):
        N, m = self.pairs[ci]
        return f"{self.process.kind}-N{N}-m{m}"


@dataclass(frozen=True)
class Fit:
    """One pass of the estimator chain over a dataset.

    regularity holds the estimates at the kept anchors, dropped the
    (anchor, error) pairs of the anchors left out; cov is None unless
    covariance points were given.
    """

    regularity: tuple
    dropped: tuple
    noise: NoiseEstimate
    mean: MeanEstimate
    cov: CovarianceSurface = None


def fit(dataset, mean_points, cov_points=None, *, schedule=None,
        n_anchors=20, anchor_lo=0.05, anchor_hi=0.95, kernel=BIWEIGHT,
        presmooth_kernel=EPANECHNIKOV, k0=2, noise_mode=NOISE_CONSTANT,
        mean_bandwidths=None, cov_bandwidths=None, moment_approx=False,
        psd_project=False):
    """Regularity at anchors, noise, mean on mean_points and, when
    cov_points is given, the covariance surface on cov_points squared.

    Anchors whose regularity estimate fails are dropped and recorded;
    EstimationError is raised only when every anchor fails. The noise
    variance is estimated on mean_points. schedule defaults to
    RegularitySchedule(m_hat), the bandwidth grids to the estimators'
    defaults.
    """
    if schedule is None:
        schedule = RegularitySchedule(m_hat=dataset.m_hat)
    regs, dropped = regularity_at_anchors(
        dataset, schedule, n_anchors, lo=anchor_lo, hi=anchor_hi,
        kernel=presmooth_kernel,
    )
    noise = estimate_noise(dataset, mean_points, mode=noise_mode)
    mean = estimate_mean(dataset, mean_points, regs, noise, kernel=kernel,
                         k0=k0, schedule=schedule, grid_spec=mean_bandwidths,
                         use_moment_approx=moment_approx,
                         presmooth_kernel=presmooth_kernel)
    cov = None
    if cov_points is not None:
        cov = estimate_covariance(dataset, cov_points, cov_points, regs,
                                  noise, mean, kernel=kernel, k0=k0,
                                  schedule=schedule, grid_spec=cov_bandwidths,
                                  presmooth_kernel=presmooth_kernel,
                                  psd_project=psd_project)
    return Fit(regularity=regs, dropped=dropped, noise=noise,
               mean=mean, cov=cov)


def _run_one(payload):
    """One replication; returns a report row dict."""
    config, ci, rep, ss = payload
    N, m = config.pairs[ci]
    row = {
        "config_id": config.config_id(ci),
        "N": N,
        "m": m,
        "p": config.p_jitter,
        "rep": rep,
        "ise_mean_tilde": math.nan,
        "ise_mean_true": math.nan,
        "ise_cov_tilde": math.nan,
        "ise_cov_true": math.nan,
        "failed": False,
        "error": "",
    }
    try:
        design = DesignSpec(kind=config.design_kind, m_mean=m,
                            p_jitter=config.p_jitter)
        mean_pts = EvalGrid.make_uniform(config.grid_n).points
        want_cov = "cov" in config.estimators
        cov_pts = (
            EvalGrid.make_uniform(config.cov_grid_n).points
            if want_cov else None
        )
        all_pts = np.union1d(mean_pts, cov_pts) if want_cov else mean_pts
        sampled = sample_dataset(config.process, design, config.noise, N, ss,
                                 eval_grid=all_pts)
        # boundary anchors can run out of presmoothing support on sparse
        # designs; fit drops them instead of losing the replicate
        result = fit(sampled.dataset, mean_pts, cov_pts,
                     n_anchors=config.n_anchors, kernel=config.kernel,
                     presmooth_kernel=config.presmooth_kernel, k0=config.k0,
                     noise_mode=config.noise_mode)
        mean_vals = result.mean.values
        lat_mean = sampled.grid_latents[:, np.searchsorted(all_pts, mean_pts)]
        mu_true = config.process.mean_fn(mean_pts)
        row["ise_mean_tilde"] = ise_1d(mean_vals,
                                       empirical_mean_tilde(lat_mean),
                                       mean_pts)
        row["ise_mean_true"] = ise_1d(mean_vals, mu_true, mean_pts)

        if want_cov:
            cov_vals = result.cov.values
            lat_cov = sampled.grid_latents[:, np.searchsorted(all_pts,
                                                              cov_pts)]
            cov_true = true_covariance(config.process, cov_pts[:, None],
                                       cov_pts[None, :])
            row["ise_cov_tilde"] = ise_2d(cov_vals,
                                          empirical_cov_tilde(lat_cov),
                                          cov_pts, cov_pts)
            row["ise_cov_true"] = ise_2d(cov_vals, cov_true, cov_pts,
                                         cov_pts)
    except FdadaptError as exc:
        row["failed"] = True
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list
    summary: list = field(default_factory=list)
    n_failed: int = 0
    n_tasks: int = 0


def _resolve_workers(workers):
    return 1 if workers is None else max(int(workers), 1)


_METRICS = ("ise_mean_tilde", "ise_mean_true", "ise_cov_tilde",
            "ise_cov_true")


def _summarize(config, rows):
    summary = []
    per_metric_medians = {metric: [] for metric in _METRICS}
    per_metric_sizes = {metric: [] for metric in _METRICS}
    for ci in range(len(config.pairs)):
        cid = config.config_id(ci)
        ok = [r for r in rows if r["config_id"] == cid and not r["failed"]]
        N, m = config.pairs[ci]
        for metric in _METRICS:
            vals = np.array([r[metric] for r in ok], dtype=float)
            vals = vals[np.isfinite(vals)]
            if vals.size == 0:
                q25 = q50 = q75 = math.nan
            else:
                q25, q50, q75 = np.percentile(vals, [25.0, 50.0, 75.0])
            summary.append({
                "config_id": cid, "N": N, "m": m, "p": config.p_jitter,
                "reps": len(ok), "metric": metric,
                "q25": float(q25), "q50": float(q50), "q75": float(q75),
                "rate_slope": math.nan, "rate_slope_se": math.nan,
            })
            if np.isfinite(q50):
                per_metric_medians[metric].append(float(q50))
                per_metric_sizes[metric].append(N * m)
    for metric in _METRICS:
        slope, se = rate_slope(per_metric_sizes[metric],
                               per_metric_medians[metric])
        for entry in summary:
            if entry["metric"] == metric:
                entry["rate_slope"] = slope
                entry["rate_slope_se"] = se
    return summary


def run_experiment(config, workers=None):
    """Run all replications of a study, in parallel when asked.

    Replication seeds derive from one spawning sequence indexed by
    task, so results do not depend on the worker count. A study aborts
    when 5 percent or more of its replications fail.
    """
    n_workers = _resolve_workers(workers)
    tasks = [
        (ci, rep)
        for ci in range(len(config.pairs))
        for rep in range(config.replications)
    ]
    children = np.random.SeedSequence(config.seed).spawn(len(tasks))
    payloads = [
        (config, ci, rep, children[ci * config.replications + rep])
        for ci, rep in tasks
    ]
    if n_workers == 1:
        rows = [_run_one(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_run_one, payloads, chunksize=1))

    n_failed = sum(1 for r in rows if r["failed"])
    n_tasks = len(rows)
    if n_failed / n_tasks >= 0.05:
        examples = "; ".join(r["error"] for r in rows if r["failed"])[:500]
        raise ExperimentError(
            f"{n_failed} of {n_tasks} replications failed: {examples}"
        )
    summary = _summarize(config, rows)
    return ExperimentReport(config=config, rows=rows, summary=summary,
                            n_failed=n_failed, n_tasks=n_tasks)


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "" if math.isnan(x) else repr(x)
    return str(x)


def _write_rows(path, header, rows, preamble=None):
    with open(path, "w", encoding="utf-8") as fh:
        if preamble:
            fh.write(preamble + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


REPORT_COLUMNS = ("config_id", "N", "m", "p", "rep", "ise_mean_tilde",
                  "ise_mean_true", "ise_cov_tilde", "ise_cov_true")

SUMMARY_COLUMNS = ("config_id", "N", "m", "p", "reps", "metric", "q25",
                   "q50", "q75", "rate_slope", "rate_slope_se")


def write_report_csv(report, path):
    _write_rows(path, REPORT_COLUMNS,
                ([row[c] for c in REPORT_COLUMNS] for row in report.rows))


def write_summary_csv(report, path):
    _write_rows(path, SUMMARY_COLUMNS,
                ([row[c] for c in SUMMARY_COLUMNS] for row in report.summary))
