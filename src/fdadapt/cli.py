"""Command line front end.

Five subcommands: simulate draws synthetic datasets, regularity / mean
/ cov run the estimators on a long-format CSV, experiment runs the
replicated simulation study. Exit code 0 on success, 1 on bad usage or
bad input files, 2 when estimation fails on valid input.
"""

import argparse
import sys
from functools import partial

import numpy as np

from .dataset import _write_rows, ingest_long_csv, uniform_grid, write_long_csv
from .errors import FdadaptError, ValidationError
from .evaluate import (
    ExperimentConfig,
    fit,
    run_experiment,
    write_report_csv,
    write_summary_csv,
)
from .mean import BandwidthGrid
from .regularity import RegularitySchedule, regularity_at_anchors
from .simulate import (
    DesignSpec,
    MeanFunction,
    NoiseSpec,
    ProcessSpec,
    sample_dataset,
)


def _tv_sd_shape(t, sd=1.0):
    """Noise sd rising linearly across the domain."""
    return sd * (0.5 + np.asarray(t, dtype=float))


def _state_sd_shape(t, x, sd=1.0):
    """Noise sd growing with the curve level."""
    return sd * (0.5 + np.abs(np.asarray(x, dtype=float)))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(float(x) for x in text.split(","))


def _pairs(text):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.lower().split("x")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"pair {chunk!r} is not of the form NxM"
            )
        out.append((int(parts[0]), int(parts[1])))
    if not out:
        raise argparse.ArgumentTypeError("no (N, m) pairs given")
    return tuple(out)


def _add_process_flags(p):
    p.add_argument("--process", choices=("fbm", "fou", "kl"), default="fbm")
    p.add_argument("--hurst", type=float, default=0.5)
    p.add_argument("--fou-a", type=float, default=1.0)
    p.add_argument("--fou-rho", type=float, default=1.0)
    p.add_argument("--kl-nu", type=float, default=2.0)
    p.add_argument("--kl-terms", type=int, default=25)
    p.add_argument("--mean-beta0", type=float, default=0.0)
    p.add_argument("--mean-cos", type=_floats, default=())
    p.add_argument("--mean-sin", type=_floats, default=())
    p.add_argument("--design", choices=("independent", "common"),
                   default="independent")
    p.add_argument("--p-jitter", type=float, default=0.0)
    p.add_argument("--noise",
                   choices=("none", "homoscedastic", "time-varying",
                            "state-dependent"),
                   default="homoscedastic")
    p.add_argument("--noise-sd", type=float, default=0.1)


def _process_from_args(args):
    mf = MeanFunction(beta0=args.mean_beta0, cos_coefs=args.mean_cos,
                      sin_coefs=args.mean_sin)
    if args.process == "fbm":
        return ProcessSpec(kind="fbm", hurst=args.hurst, mean_fn=mf)
    if args.process == "fou":
        return ProcessSpec(kind="fou", a=args.fou_a, rho=args.fou_rho,
                           mean_fn=mf)
    return ProcessSpec(kind="kl", nu=args.kl_nu, n_terms=args.kl_terms,
                       mean_fn=mf)


def _noise_from_args(args):
    kind = args.noise.replace("-", "_")
    if kind == "none":
        return NoiseSpec()
    if kind == "homoscedastic":
        return NoiseSpec(kind=kind, sd=args.noise_sd)
    if kind == "time_varying":
        return NoiseSpec(kind=kind, sd=args.noise_sd,
                         sd_fn=partial(_tv_sd_shape, sd=args.noise_sd))
    return NoiseSpec(kind=kind, sd=args.noise_sd,
                     sd_fn=partial(_state_sd_shape, sd=args.noise_sd))


def _cmd_simulate(args):
    spec = _process_from_args(args)
    design = DesignSpec(kind=args.design, m_mean=args.m,
                        p_jitter=args.p_jitter)
    noise = _noise_from_args(args)
    grid = uniform_grid(args.latent_grid) if args.latent_out else None
    sampled = sample_dataset(spec, design, noise, args.n, args.seed,
                             eval_grid=grid)
    write_long_csv(sampled.dataset, args.out)
    if args.latent_out:
        # curve-major: every grid point of curve 0, then of curve 1, ...
        _write_rows(args.latent_out, ("curve_id", "t", "x"),
                    (np.repeat(np.arange(args.n), grid.size),
                     np.tile(grid, args.n), sampled.grid_latents.ravel()))
    return 0


def _schedule_from_args(args, dataset):
    kw = {"m_hat": dataset.m_hat}
    if getattr(args, "gamma", None) is not None:
        kw["gamma"] = args.gamma
    if getattr(args, "big_gamma", None) is not None:
        kw["big_gamma"] = args.big_gamma
    if getattr(args, "delta_max", None) is not None:
        kw["delta_max"] = args.delta_max
    if getattr(args, "presmooth_bandwidth", None) is not None:
        kw["presmooth_bandwidth"] = _unit_width(dataset,
                                                args.presmooth_bandwidth)
    return RegularitySchedule(**kw)


def _report_dropped(dataset, dropped):
    """One stderr line per dropped anchor, its time in input units; the
    error text keeps unit-interval time, so that time is added too."""
    for t2, exc in dropped:
        where = f"{_input_time(dataset, t2):.6g}"
        if dataset.time_transform is not None:
            where += f" (unit-interval {t2:.6g})"
        print(f"fdadapt: dropped anchor {where}: {exc}", file=sys.stderr)


def _unit_width(dataset, x):
    """A length given in the input file's time units, in unit-interval
    time."""
    if dataset.time_transform is None:
        return x
    return x / dataset.time_transform[1]


def _input_time(dataset, x, width=False):
    """Map unit-interval times (or, with width, lengths) back to the
    time units of the input file."""
    if dataset.time_transform is None:
        return x
    offset, scale = dataset.time_transform
    return x * scale if width else offset + x * scale


def _cmd_regularity(args):
    dataset = ingest_long_csv(args.data, rescale=args.rescale)
    regs, dropped = regularity_at_anchors(
        dataset, _schedule_from_args(args, dataset), args.anchors,
        lo=args.anchor_lo, hi=args.anchor_hi, kernel=args.kernel,
    )
    _report_dropped(dataset, dropped)
    rows = []
    for r in regs:
        th12, _, th13 = r.theta_hats[r.delta_hat]
        t2, t1, t3 = _input_time(dataset, np.array([r.anchor_t2, r.t1, r.t3]))
        rows.append((t2, t1, t3, r.delta_hat,
                     r.H_hat[r.delta_hat], r.alpha_hat, r.L2_hat,
                     th12, th13, r.retained_curves))
    _write_rows(args.out,
                ("t2", "t1", "t3", "delta_hat", "H_hat", "alpha_hat",
                 "L2_hat", "theta_12", "theta_13", "retained_curves"),
                zip(*rows))
    return 0


def _bandwidth_grid_from_args(args, dataset, default):
    """--h-min and --h-max are in input time units."""
    h_min = (_unit_width(dataset, args.h_min) if args.h_min is not None
             else default.h_min)
    h_max = (_unit_width(dataset, args.h_max) if args.h_max is not None
             else default.h_max)
    count = args.h_count if args.h_count is not None else default.count
    return BandwidthGrid(h_min=h_min, h_max=h_max, count=count)


def _fit_from_args(args, dataset, mean_points, cov_points=None, **kw):
    result = fit(dataset, mean_points, cov_points,
                 schedule=_schedule_from_args(args, dataset),
                 n_anchors=args.anchors, anchor_lo=args.anchor_lo,
                 anchor_hi=args.anchor_hi, kernel=args.kernel,
                 presmooth_kernel=args.presmooth_kernel, k0=args.k0,
                 noise_mode=args.noise_mode, **kw)
    _report_dropped(dataset, result.dropped)
    return result


def _cmd_mean(args):
    dataset = ingest_long_csv(args.data, rescale=args.rescale)
    spec = _bandwidth_grid_from_args(
        args, dataset, BandwidthGrid.default_mean(dataset.m_hat)
    )
    est = _fit_from_args(args, dataset, uniform_grid(args.grid),
                         mean_bandwidths=spec,
                         moment_approx=args.moment_approx).mean
    ts = _input_time(dataset, est.points)
    hs = _input_time(dataset, est.h_star, width=True)
    _write_rows(args.out,
                ("t", "mu_hat", "h_star", "W_N", "risk_bias", "risk_var",
                 "risk_dropout"),
                (ts, est.values, hs, est.W_N, est.risk_bias, est.risk_var,
                 est.risk_dropout))
    return 0


def _cmd_cov(args):
    dataset = ingest_long_csv(args.data, rescale=args.rescale)
    spec = _bandwidth_grid_from_args(args, dataset,
                                     BandwidthGrid.default_cov())
    surf = _fit_from_args(args, dataset, uniform_grid(args.mean_grid),
                          uniform_grid(args.grid), cov_bandwidths=spec,
                          psd_project=args.psd_project).cov
    # row-major cells: s is the row's grid point, t the column's
    x = _input_time(dataset, surf.grid)
    n = x.size
    d = _input_time(dataset, surf.band_width_d, width=True)
    preamble = f"# d={d!r} c={surf.band_exponent_c!r}"
    _write_rows(args.out,
                ("s", "t", "gamma_hat", "Gamma_hat", "h_star", "in_band",
                 "W_N_pair"),
                (np.repeat(x, n), np.tile(x, n),
                 surf.gamma_values.ravel(), surf.values.ravel(),
                 _input_time(dataset, surf.h_star, width=True).ravel(),
                 surf.in_band.ravel(), surf.W_N_pair.ravel()),
                preamble=preamble)
    return 0


def _cmd_experiment(args):
    config = ExperimentConfig(
        process=_process_from_args(args),
        noise=_noise_from_args(args),
        design_kind=args.design,
        pairs=args.pairs,
        replications=args.replications,
        seed=args.seed,
        p_jitter=args.p_jitter,
        estimators=tuple(args.estimators.split(",")),
        grid_n=args.grid,
        cov_grid_n=args.cov_grid,
        n_anchors=args.anchors,
        kernel=args.kernel,
        presmooth_kernel=args.presmooth_kernel,
        k0=args.k0,
        noise_mode=args.noise_mode,
    )
    report = run_experiment(config, workers=args.workers)
    write_report_csv(report, args.out)
    if args.summary:
        write_summary_csv(report, args.summary)
    return 0


def build_parser():
    parser = _Parser(prog="fdadapt",
                     description="adaptive estimation for functional data")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = sub.add_parser("simulate", parents=(), help="draw a synthetic dataset")
    _add_process_flags(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--latent-out", default=None)
    p.add_argument("--latent-grid", type=int, default=101)
    p.set_defaults(func=_cmd_simulate)
    subparsers["simulate"] = p

    def add_data_flags(p):
        p.add_argument("--data", required=True)
        p.add_argument("--rescale", action="store_true")
        p.add_argument("--anchors", type=int, default=50)
        p.add_argument("--anchor-lo", type=float, default=0.05)
        p.add_argument("--anchor-hi", type=float, default=0.95)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--big-gamma", type=float, default=None)
        p.add_argument("--delta-max", type=int, default=None)
        p.add_argument("--presmooth-bandwidth", type=float, default=None)

    p = sub.add_parser("regularity", help="local regularity at anchor points")
    add_data_flags(p)
    p.add_argument("--kernel", default="epanechnikov")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_regularity)
    subparsers["regularity"] = p

    def add_estimator_flags(p):
        p.add_argument("--kernel", default="biweight")
        p.add_argument("--presmooth-kernel", default="epanechnikov")
        p.add_argument("--k0", type=int, default=2)
        p.add_argument("--h-min", type=float, default=None)
        p.add_argument("--h-max", type=float, default=None)
        p.add_argument("--h-count", type=int, default=None)
        p.add_argument("--noise-mode", choices=("constant", "time_varying"),
                       default="constant")
        p.add_argument("--out", required=True)

    p = sub.add_parser("mean", help="adaptive mean on a uniform grid")
    add_data_flags(p)
    add_estimator_flags(p)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--moment-approx", action="store_true")
    p.set_defaults(func=_cmd_mean)
    subparsers["mean"] = p

    p = sub.add_parser("cov", help="adaptive covariance on a uniform grid")
    add_data_flags(p)
    add_estimator_flags(p)
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--mean-grid", type=int, default=101)
    p.add_argument("--psd-project", action="store_true")
    p.set_defaults(func=_cmd_cov)
    subparsers["cov"] = p

    p = sub.add_parser("experiment", help="replicated simulation study")
    _add_process_flags(p)
    p.add_argument("--pairs", type=_pairs, required=True,
                   help="comma list of NxM pairs, e.g. 40x40,100x100")
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimators", default="mean")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--cov-grid", type=int, default=21)
    p.add_argument("--anchors", type=int, default=20)
    p.add_argument("--kernel", default="biweight")
    p.add_argument("--presmooth-kernel", default="epanechnikov")
    p.add_argument("--k0", type=int, default=2)
    p.add_argument("--noise-mode", choices=("constant", "time_varying"),
                   default="constant")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=_cmd_experiment)
    subparsers["experiment"] = p

    return parser, subparsers


def _load_config_file(path):
    mapping = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, value = line.split("=", 1)
                mapping[key.strip()] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    return mapping


def _apply_config(subparser, mapping):
    """Turn config file entries into subparser defaults.

    Values run through the same type converters as the flags, so a bad
    value fails the same way a bad flag would. Explicit flags still
    win because they override defaults.
    """
    actions = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, value in mapping.items():
        dest = key.replace("-", "_")
        if dest not in actions or dest in ("help",):
            raise ValidationError(f"unknown config key {key!r}")
        action = actions[dest]
        if isinstance(action, (argparse._StoreTrueAction,
                               argparse._StoreFalseAction)):
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                defaults[dest] = isinstance(action, argparse._StoreTrueAction)
            elif lowered in ("0", "false", "no", "off"):
                defaults[dest] = not isinstance(action,
                                                argparse._StoreTrueAction)
            else:
                raise ValidationError(
                    f"config key {key!r} needs a boolean, got {value!r}"
                )
            continue
        try:
            defaults[dest] = action.type(value) if action.type else value
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"config key {key!r}: {exc}")
    subparser.set_defaults(**defaults)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    config_map = None
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            print("fdadapt: error: --config needs a file path",
                  file=sys.stderr)
            return 1
        config_path = argv[i + 1]
        del argv[i:i + 2]
        try:
            config_map = _load_config_file(config_path)
        except ValidationError as exc:
            print(f"fdadapt: error: {exc}", file=sys.stderr)
            return 1

    parser, subparsers = build_parser()
    if config_map:
        command = next((a for a in argv if not a.startswith("-")), None)
        if command not in subparsers:
            print("fdadapt: error: --config needs a known subcommand",
                  file=sys.stderr)
            return 1
        try:
            _apply_config(subparsers[command], config_map)
        except ValidationError as exc:
            print(f"fdadapt: error: {exc}", file=sys.stderr)
            return 1

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"fdadapt: error: {exc}", file=sys.stderr)
        return 1
    except FdadaptError as exc:
        print(f"fdadapt: estimation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fdadapt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
