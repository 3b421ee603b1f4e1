"""Seeded synthetic inputs for the fit workloads, using numpy only.

The generator is independent of ``fdadapt.simulate`` on purpose: a change
to the simulator must not change the data the fit workloads read. It
draws Gaussian curves from two zero-mean families with known covariance,

* fractional Brownian motion, cov(s, t) = (s^2H + t^2H - |s - t|^2H) / 2;
* a truncated Karhunen-Loeve expansion on the trigonometric basis
  (1, sqrt2 cos 2 pi k t, sqrt2 sin 2 pi k t, ...) with eigenvalues j^-nu,

observed on a common equidistant design or at independent uniform times,
with homoscedastic Gaussian noise. ``population`` returns the exact mean
and covariance functions that the accuracy metrics compare against.
"""

import math

import numpy as np


def _kl_basis(n_terms, pts):
    B = np.empty((n_terms, pts.size))
    B[0] = 1.0
    for j in range(2, n_terms + 1):
        k = j // 2
        trig = np.cos if j % 2 == 0 else np.sin
        B[j - 1] = math.sqrt(2.0) * trig(2.0 * math.pi * k * pts)
    return B


def population(spec):
    """Exact (mean, covariance) functions of the process in ``spec``."""

    def mean(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    if spec["process"] == "fbm":
        h2 = 2.0 * spec["hurst"]

        def cov(s, t):
            s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
            return 0.5 * (s**h2 + t**h2 - np.abs(s - t) ** h2)

    else:
        lam = np.arange(1, spec["kl_terms"] + 1, dtype=float) ** -spec["kl_nu"]

        def cov(s, t):
            s_b, t_b = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
            Bs = _kl_basis(spec["kl_terms"], s_b.ravel())
            Bt = _kl_basis(spec["kl_terms"], t_b.ravel())
            return np.einsum("j,jp,jp->p", lam, Bs, Bt).reshape(s_b.shape)

    return mean, cov


def _factor(C):
    """A square root F of the covariance matrix C, with F @ F.T = C."""
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(C)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _uniform_times(rng, m):
    while True:
        t = np.sort(rng.uniform(0.0, 1.0, size=m))
        if t[0] > 0.0 and np.all(np.diff(t) > 0.0):
            return t


def _path(spec, rng, times):
    """One zero-mean Gaussian path at ``times``."""
    if spec["process"] == "kl":
        J = spec["kl_terms"]
        scores = rng.standard_normal(J) * np.arange(1, J + 1) ** (-spec["kl_nu"] / 2)
        return scores @ _kl_basis(J, times)
    _, cov = population(spec)
    return _factor(cov(times[:, None], times[None, :])) @ rng.standard_normal(times.size)


def sample(spec, seed):
    """Draw ``spec["n"]`` noisy curves; returns a list of (times, values)."""
    rng = np.random.default_rng(seed)
    n, m = spec["n"], spec["m"]
    common = np.arange(1, m + 1, dtype=float) / (m + 1)
    F_common = None
    if spec["design"] == "common" and spec["process"] == "fbm":
        _, cov = population(spec)
        F_common = _factor(cov(common[:, None], common[None, :]))
    curves = []
    for _ in range(n):
        if spec["design"] == "common":
            times = common
            x = (F_common @ rng.standard_normal(m) if F_common is not None
                 else _path(spec, rng, times))
        else:
            times = _uniform_times(rng, m)
            x = _path(spec, rng, times)
        y = x + spec["noise_sd"] * rng.standard_normal(m)
        curves.append((times, y))
    return curves


def write_csv(curves, path):
    """Long-format CSV (curve_id,t,y) with round-trip float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("curve_id,t,y\n")
        for cid, (times, values) in enumerate(curves):
            fh.write("".join(
                f"{cid},{t!r},{y!r}\n"
                for t, y in zip(times.tolist(), values.tolist())
            ))
