"""In-memory span tracer that wraps fdadapt's public functions from outside.

``Tracer.install`` replaces every public function of the traced modules
in each module namespace that holds it by name, so a call is recorded
whichever module it is made from: ``inclusion_stats`` through ``mean``
and ``covariance``, ``lp_coefficient_weights`` through ``kernels``,
``mean`` and ``regularity``, ``presmooth_matrix`` through ``regularity``,
``mean`` and ``covariance``, and the stage functions through ``cli`` and
``evaluate``. Each call becomes a span (function, namespace it was called
through, parent span, operation, start, end). Spans stay in memory until
the run ends; self time and the per-layer metrics are derived from them.

A few functions also feed counters from their arguments and results
(window share, included curves, non-degenerate fits, presmoothed cells,
CSV rows, simulated curves). The counters are computed after the span's
end time is taken, so they add to the tracing overhead, not to the span.
"""

import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "dataset", "regularity", "kernels", "mean", "covariance",
           "simulate", "evaluate")

# Called inside every kernel evaluation; a span each would only add
# overhead and memory without separating any layer's work.
SKIP = {"kernels.get_kernel"}


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names = []          # "module.function@namespace"
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters = defaultdict(float)
        self.current_op = 0
        self._stack = [-1]
        self._patches = []

    def _after(self, qual, args, kwargs, result):
        """Counters fed by a call's arguments and result."""
        c = self.counters
        if qual == "mean.inclusion_stats":
            ds, t, h, order = (_arg(args, kwargs, i, k) for i, k in
                               enumerate(("dataset", "t", "h", "order")))
            c["order0" if order == 0 else "order1plus"] += 1
            inside = np.count_nonzero(np.abs(ds.times_flat - t) <= h)
            c["window_share_sum"] += inside / ds.times_flat.size
            c["included"] += result.W_N
            c["included_possible"] += ds.n_curves
        elif qual == "kernels.lp_coefficient_weights":
            c["lp_nondegenerate"] += not result.degenerate
        elif qual == "regularity.presmooth_matrix":
            ds = _arg(args, kwargs, 0, "dataset")
            n_pts = np.asarray(_arg(args, kwargs, 1, "points")).size
            d = _arg(args, kwargs, 4, "d", 0)
            c["cells_d0" if d == 0 else "cells_d1plus"] += ds.n_curves * n_pts
        elif qual == "dataset.ingest_long_csv":
            c["rows"] += result.times_flat.size
        elif qual == "simulate.sample_dataset":
            c["curves"] += _arg(args, kwargs, 3, "n_curves")

    def _wrap(self, fn, qual, namespace):
        key = f"{qual}@{namespace}"
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        sid = self._name_ids[key]
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.t0)
            tracer.name_id.append(sid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.current_op)
            tracer.t1.append(0.0)
            tracer._stack.append(idx)
            tracer.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[idx] = clock()
                tracer._stack.pop()
            tracer._after(qual, args, kwargs, result)
            return result

        return traced

    def install(self, package="fdadapt"):
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        owners = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{mname}.{attr}" not in SKIP):
                    owners[obj] = f"{mname}.{attr}"
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in owners:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, owners[obj], mname))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def arrays(self):
        """Spans as numpy arrays: name id, parent, op, start, end."""
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32),
                np.array(self.t0), np.array(self.t1))

    def save(self, path):
        name_id, parent, op, t0, t1 = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str), name_id=name_id,
                 parent=parent, op=op, t0=t0, t1=t1)

    def spans_per_module(self):
        """Number of spans of each traced module's functions."""
        ids = np.bincount(np.array(self.name_id, dtype=np.int64),
                          minlength=len(self.names))
        counts = dict.fromkeys(MODULES, 0)
        for name, n in zip(self.names, ids.tolist()):
            counts[name.split(".")[0]] += n
        return counts

    def layer_metrics(self, n_ops):
        """Per-layer metrics, per traced operation, derived from the spans.

        ``X_s`` is the time inside spans of function X (all namespaces
        unless one is named); ``<module>.<entry>_self_s`` is the self time
        of every span of that module's functions, except those reported
        inclusively under their own name.
        """
        name_id, parent, _, t0, t1 = self.arrays()
        dur = t1 - t0
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        split = [n.split("@") for n in self.names]
        qual = np.array([q for q, _ in split] + [""])[name_id]
        via = np.array([v for _, v in split] + [""])[name_id]
        module = np.array([q.split(".")[0] for q, _ in split] + [""])[name_id]
        c = self.counters

        def time_in(name, namespace=None):
            sel = qual == name
            if namespace is not None:
                sel &= via == namespace
            return float(dur[sel].sum()) / n_ops

        def module_self(mod, exclude=()):
            sel = (module == mod) & ~np.isin(qual, list(exclude))
            return float(self_time[sel].sum()) / n_ops

        def calls(name):
            return np.count_nonzero(qual == name) / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        incl_calls = c["order0"] + c["order1plus"]
        lp_calls = calls("kernels.lp_coefficient_weights") * n_ops
        return {
            "mean.inclusion_stats_s": time_in("mean.inclusion_stats", "mean"),
            "mean.inclusion_stats_calls_order0": c["order0"] / n_ops,
            "mean.inclusion_stats_calls_order1plus": c["order1plus"] / n_ops,
            "mean.window_share": ratio(c["window_share_sum"], incl_calls),
            "mean.included_share":
                ratio(c["included"], c["included_possible"]),
            "mean.select_mean_bandwidth_s":
                time_in("mean.select_mean_bandwidth"),
            "mean.estimate_mean_self_s": module_self(
                "mean", ("mean.inclusion_stats", "mean.select_mean_bandwidth")),
            "kernels.lp_coefficient_weights_s":
                time_in("kernels.lp_coefficient_weights"),
            "kernels.lp_coefficient_weights_calls":
                calls("kernels.lp_coefficient_weights"),
            "kernels.lp_nondegenerate_ratio":
                ratio(c["lp_nondegenerate"], lp_calls),
            "regularity.presmooth_matrix_s":
                time_in("regularity.presmooth_matrix"),
            "regularity.presmooth_matrix_calls":
                calls("regularity.presmooth_matrix"),
            "regularity.presmooth_cells_d0": c["cells_d0"] / n_ops,
            "regularity.presmooth_cells_d1plus": c["cells_d1plus"] / n_ops,
            "regularity.estimate_regularity_s":
                time_in("regularity.estimate_regularity"),
            "regularity.estimate_noise_s": time_in("regularity.estimate_noise"),
            "dataset.ingest_long_csv_s": time_in("dataset.ingest_long_csv"),
            "dataset.rows": c["rows"] / n_ops,
            "covariance.estimate_covariance_self_s": module_self("covariance"),
            "covariance.inclusion_stats_s":
                time_in("mean.inclusion_stats", "covariance"),
            "covariance.combine_pair_stats_calls":
                calls("covariance.combine_pair_stats"),
            "simulate.sample_dataset_s": time_in("simulate.sample_dataset"),
            "simulate.curves": c["curves"] / n_ops,
            "evaluate.run_experiment_self_s": module_self("evaluate"),
            "cli.main_self_s": module_self("cli"),
        }
