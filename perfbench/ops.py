"""The operations of one benchmark run, executed inside the worker process.

An operation is one ``fdadapt.cli.main(argv)`` call on one cached input
file, or one ``evaluate.run_experiment`` call. Only the call is timed;
output checks, digests and accuracy figures are computed afterwards.
In a traced job every input is run twice, untraced and then traced, so
the tracing overhead is measured on the same data. The host-speed gauge
(gauge.py) is timed before the first operation and after each one.
"""

import os
import resource
import shutil
import sys
import time

import numpy as np

import fdadapt.cli
from fdadapt import evaluate, simulate
from fdadapt.errors import FdadaptError

import checks
import gauge
import gen
from tracer import Tracer

clock = time.perf_counter


def study_config(job, index):
    st = job["study"]
    return evaluate.ExperimentConfig(
        process=simulate.ProcessSpec(kind="fou", a=st["fou_a"],
                                     rho=st["fou_rho"]),
        noise=simulate.NoiseSpec(kind="homoscedastic", sd=st["noise_sd"]),
        design_kind=st["design"],
        pairs=tuple(tuple(p) for p in st["pairs"]),
        replications=st["reps"],
        seed=job["seed"] * 100003 + index,
        estimators=tuple(st["estimators"]),
        n_anchors=st["anchors"],
        cov_grid_n=st["cov_grid"],
    )


def run_once(job, index, out):
    """One operation: (seconds, operations, failed operations, error)."""
    if job["kind"] == "study":
        config = study_config(job, index)
        n = len(config.pairs) * config.replications
        t0 = clock()
        try:
            report = evaluate.run_experiment(config, workers=1)
        except FdadaptError as exc:
            return clock() - t0, n, n, f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        evaluate.write_report_csv(report, out)
        return dt, n, report.n_failed, None
    data = job["inputs"][index % len(job["inputs"])]
    t0 = clock()
    rc = fdadapt.cli.main(job["argv"] + ["--data", data, "--out", out])
    dt = clock() - t0
    return dt, 1, int(rc != 0), f"exit code {rc}" if rc != 0 else None


def inspect_output(job, index, out):
    """Output checks, accuracy figures and the comparison to a reference."""
    chk = job["check"]
    acc = {}
    if job["kind"] == "study":
        st = job["study"]
        errs, col = checks.check_report(out, st["pairs"], st["reps"],
                                        st["estimators"])
        if col is not None:
            acc["ise_mean"] = float(np.median(col["ise_mean_true"]))
            acc["ise_cov"] = float(np.median(col["ise_cov_true"]))
    elif chk["output"] == "cov":
        errs, G = checks.check_cov(out, chk["grid"], chk["n_curves"],
                                   chk["h_min"], chk["h_max"])
        if G is not None:
            _, cov = gen.population(job["data"])
            grid = np.arange(1, chk["grid"] + 1) / (chk["grid"] + 1)
            acc["ise_cov"] = checks.ise_2d(
                G, cov(grid[:, None], grid[None, :]), grid)
    else:
        errs, alpha = checks.check_regularity(out, chk["anchors"],
                                              chk["n_curves"],
                                              chk["delta_max"])
        if alpha is not None:
            acc["alpha_abs_err"] = float(np.median(
                np.abs(alpha - job["data"]["hurst"])))
    # the first checked output of an input is the reference for every
    # later run of the same workload, seed and input in this checkout
    ref = os.path.join(job["ref_dir"], f"{index}.csv")
    if not os.path.exists(ref) and not errs:
        os.makedirs(job["ref_dir"], exist_ok=True)
        shutil.copyfile(out, ref)
    same, diff = (checks.compare(out, ref) if os.path.exists(ref)
                  else (None, None))
    return {"check_errors": errs, "accuracy": acc,
            "digest": checks.digest(out), "bitwise_equal_ref": same,
            "max_abs_diff_ref": diff}


def run_job(job):
    """Operations until the job's time budget is spent; returns the record."""
    tracer = Tracer() if job["trace"] else None
    records = []
    start = clock()
    gauge_s = [gauge.gauge()]
    index = 0
    while True:
        for traced in ((False, True) if tracer else (False,)):
            out = os.path.join(job["work_dir"], f"out_{index}.csv")
            if os.path.exists(out):
                os.remove(out)
            if traced:
                tracer.current_op = index
                tracer.install()
            try:
                dt, n, failed, error = run_once(job, index, out)
            finally:
                if traced:
                    tracer.uninstall()
            rec = {"index": index, "traced": traced, "seconds": dt,
                   "operations": n, "failed": failed}
            if error is None:
                rec.update(inspect_output(job, index, out))
            else:
                rec["check_errors"] = [error]
            records.append(rec)
        gauge_s.append(gauge.gauge())
        index += 1
        elapsed = clock() - start
        # start no operation that would overrun the budget
        if elapsed + dt + gauge_s[-1] > job["seconds"]:
            break
    result = {
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "gauge_s": gauge_s,
        "versions": {"numpy": np.__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "python": sys.version.split()[0]},
    }
    if tracer:
        n_ops = sum(r["operations"] for r in records if r["traced"])
        result["layers"] = tracer.layer_metrics(n_ops)
        result["spans_per_module"] = tracer.spans_per_module()
        tracer.save(job["trace_file"])
    return result
