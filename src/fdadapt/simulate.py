"""Gaussian process simulation with known regularity.

Three zero-mean covariance families (plus an optional truncated Fourier
mean) span the regularity range: fractional Brownian motion, a
fractional Ornstein-Uhlenbeck family, and finite Karhunen-Loeve
expansions with power-law eigenvalues on the trigonometric basis.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import (
    DESIGN_COMMON,
    DESIGN_INDEPENDENT,
    FunctionalDataset,
)
from .errors import GenerationError, ValidationError

PROCESS_FBM = "fbm"
PROCESS_FOU = "fou"
PROCESS_KL = "kl"

# Eigenvalues of the covariance matrix more negative than this indicate
# a genuinely invalid kernel rather than roundoff; above it they are
# clipped to zero.
EIG_CLIP = -1e-10


@dataclass(frozen=True)
class MeanFunction:
    """Truncated Fourier mean: beta0*t + sqrt(2)*sum(cos_k, sin_k terms).

    All-zero coefficients give the zero mean."""

    beta0: float = 0.0
    cos_coefs: tuple = ()
    sin_coefs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_coefs", tuple(self.cos_coefs))
        object.__setattr__(self, "sin_coefs", tuple(self.sin_coefs))
        if not np.isfinite([self.beta0, *self.cos_coefs,
                            *self.sin_coefs]).all():
            raise ValidationError("mean coefficients must be finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.beta0 * t
        root2 = math.sqrt(2.0)
        for k, b in enumerate(self.cos_coefs, start=1):
            out = out + root2 * b * np.cos(2.0 * math.pi * k * t)
        for k, b in enumerate(self.sin_coefs, start=1):
            out = out + root2 * b * np.sin(2.0 * math.pi * k * t)
        return out

    @property
    def is_zero(self):
        return (
            self.beta0 == 0.0
            and not any(self.cos_coefs)
            and not any(self.sin_coefs)
        )


ZERO_MEAN = MeanFunction()


@dataclass(frozen=True)
class ProcessSpec:
    """A Gaussian process family member with known local regularity."""

    kind: str
    hurst: float = None
    a: float = None
    rho: float = None
    nu: float = None
    n_terms: int = None
    mean_fn: MeanFunction = ZERO_MEAN

    def __post_init__(self):
        if self.kind == PROCESS_FBM:
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValidationError("fbm needs hurst in (0,1)")
        elif self.kind == PROCESS_FOU:
            if self.a is None or self.a <= 0.0:
                raise ValidationError("fou needs a > 0")
            if self.rho is None or not 0.0 < self.rho < 2.0:
                raise ValidationError("fou needs rho in (0,2)")
        elif self.kind == PROCESS_KL:
            if self.nu is None or self.nu <= 1.0:
                raise ValidationError("kl needs nu > 1")
            if self.n_terms is None or self.n_terms < 1:
                raise ValidationError("kl needs n_terms >= 1")
        else:
            raise ValidationError(f"unknown process kind {self.kind!r}")

    @property
    def true_alpha(self):
        if self.kind == PROCESS_FBM:
            return self.hurst
        if self.kind == PROCESS_FOU:
            return self.rho / 2.0
        return (self.nu - 1.0) / 2.0


def _kl_basis(spec, pts):
    """Rows are the first n_terms trigonometric basis functions at pts."""
    J = spec.n_terms
    B = np.empty((J, pts.size))
    B[0] = 1.0
    root2 = math.sqrt(2.0)
    for j in range(2, J + 1):
        k = j // 2
        if j % 2 == 0:
            B[j - 1] = root2 * np.cos(2.0 * math.pi * k * pts)
        else:
            B[j - 1] = root2 * np.sin(2.0 * math.pi * k * pts)
    return B


def true_covariance(spec, s, t):
    """Exact covariance of the zero-mean part of the process.

    Accepts scalars or broadcastable arrays.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if spec.kind == PROCESS_FBM:
        H2 = 2.0 * spec.hurst
        val = 0.5 * (
            np.abs(s) ** H2 + np.abs(t) ** H2 - np.abs(s - t) ** H2
        )
    elif spec.kind == PROCESS_FOU:
        val = np.exp(-spec.a * np.abs(s - t) ** spec.rho)
    else:
        s_b, t_b = np.broadcast_arrays(s, t)
        shape = s_b.shape
        Bs = _kl_basis(spec, s_b.ravel())
        Bt = _kl_basis(spec, t_b.ravel())
        lam = np.arange(1, spec.n_terms + 1, dtype=float) ** (-spec.nu)
        val = np.einsum("j,jp,jp->p", lam, Bs, Bt).reshape(shape)
    if val.ndim == 0:
        return float(val)
    return val


def cov_matrix(spec, pts):
    """Covariance matrix of the process at a vector of points."""
    pts = np.asarray(pts, dtype=float)
    if spec.kind == PROCESS_KL:
        B = _kl_basis(spec, pts)
        lam = np.arange(1, spec.n_terms + 1, dtype=float) ** (-spec.nu)
        return (B.T * lam) @ B
    return true_covariance(spec, pts[:, None], pts[None, :])


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise: none, constant sd, sd(t), or sd(t, x)."""

    kind: str = "none"
    sd: float = 0.0
    sd_fn: Callable = None

    def __post_init__(self):
        if not math.isfinite(self.sd):
            raise ValidationError("noise sd must be finite")
        if self.kind == "none":
            return
        if self.kind == "homoscedastic":
            if self.sd < 0.0:
                raise ValidationError("noise sd must be nonnegative")
        elif self.kind in ("time_varying", "state_dependent"):
            if self.sd_fn is None:
                raise ValidationError(f"{self.kind} noise needs sd_fn")
        else:
            raise ValidationError(f"unknown noise kind {self.kind!r}")

    def sigma(self, t, x):
        if self.kind == "none":
            return np.zeros_like(np.asarray(t, dtype=float))
        if self.kind == "homoscedastic":
            return np.full(np.asarray(t).shape, self.sd)
        if self.kind == "time_varying":
            return np.asarray(self.sd_fn(t), dtype=float)
        return np.asarray(self.sd_fn(t, x), dtype=float)


NO_NOISE = NoiseSpec()


@dataclass(frozen=True)
class DesignSpec:
    """Observation time design: shared equidistant grid, or per-curve
    uniform times with jittered counts M_i around m_mean."""

    kind: str
    m_mean: int
    p_jitter: float = 0.0

    def __post_init__(self):
        if self.kind not in (DESIGN_INDEPENDENT, DESIGN_COMMON):
            raise ValidationError(f"unknown design kind {self.kind!r}")
        if self.m_mean < 2:
            raise ValidationError("m_mean must be at least 2")
        if not 0.0 <= self.p_jitter < 1.0:
            raise ValidationError("p_jitter must lie in [0,1)")
        if self.kind == DESIGN_COMMON and self.p_jitter != 0.0:
            raise ValidationError("common design forces p_jitter = 0")


class SampledData(NamedTuple):
    dataset: FunctionalDataset
    latents: tuple  # latent path values at each curve's own times
    grid_latents: np.ndarray  # (N, G) latent values on eval_grid, or None


def _factor(spec, pts, curve_id):
    C = cov_matrix(spec, pts)
    eigvals, eigvecs = np.linalg.eigh(C)
    if eigvals[0] < EIG_CLIP:
        raise GenerationError(
            f"curve {curve_id}: covariance matrix has eigenvalue "
            f"{eigvals[0]:.3e} below the clipping threshold"
        )
    eigvals = np.clip(eigvals, 0.0, None)
    return eigvecs * np.sqrt(eigvals)


def _draw_times(rng, design):
    m = design.m_mean
    if design.p_jitter > 0.0:
        lo = (1.0 - design.p_jitter) * m
        hi = (1.0 + design.p_jitter) * m
        mi = int(round(rng.uniform(lo, hi)))
        mi = max(mi, 2)
    else:
        mi = m
    while True:
        t = np.sort(rng.uniform(0.0, 1.0, size=mi))
        if t[0] > 0.0 and np.all(np.diff(t) > 0.0):
            return t


def sample_dataset(spec, design, noise, n_curves, seed, eval_grid=None):
    """Draw a synthetic dataset of n_curves noisy curves.

    Per curve: observation times per the design, a latent Gaussian path
    from the exact covariance C, the mean added, then noise. The path is
    the eigenvector factor V diag(lambda)^(1/2) of C times standard
    normal draws; the factor is not symmetric, but its product with its
    own transpose is C (tiny negative eigenvalues are clipped to zero).
    When eval_grid is given, latent values on the grid are sampled
    jointly with the observed ones, so they are the same realization.

    The seed stream is split per curve, so generation order (or worker
    parallelism) cannot change the output.
    """
    if n_curves < 2:
        raise ValidationError("n_curves must be at least 2")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(n_curves)

    grid_pts = None
    n_grid = 0
    if eval_grid is not None:
        grid_pts = np.asarray(eval_grid, dtype=float)
        n_grid = grid_pts.size

    common_times = None
    common_S = None
    if design.kind == DESIGN_COMMON:
        m = design.m_mean
        common_times = np.arange(1, m + 1, dtype=float) / (m + 1)
        pts = common_times if n_grid == 0 else np.concatenate((common_times, grid_pts))
        common_S = _factor(spec, pts, curve_id=0)

    times_list = []
    values = []
    latents = []
    grid_latents = np.empty((n_curves, n_grid)) if n_grid else None
    for i in range(n_curves):
        rng = np.random.default_rng(children[i])
        if design.kind == DESIGN_COMMON:
            times = common_times
            S = common_S
        else:
            times = _draw_times(rng, design)
            pts = times if n_grid == 0 else np.concatenate((times, grid_pts))
            S = _factor(spec, pts, curve_id=i)

        mi = times.size
        z = rng.standard_normal(S.shape[0])
        path = S @ z
        x_obs = spec.mean_fn(times) + path[:mi]
        if n_grid:
            grid_latents[i] = spec.mean_fn(grid_pts) + path[mi:]

        if noise.kind == "none":
            y = x_obs
        else:
            e = rng.standard_normal(mi)
            # a value that overflows is inf, which the check below rejects
            with np.errstate(over="ignore"):
                y = x_obs + noise.sigma(times, x_obs) * e

        if not np.isfinite(y).all():
            raise ValidationError(f"curve {i}: non-finite value")
        times_list.append(times)
        values.append(y)
        latents.append(x_obs)

    # times are sorted inside (0,1) by construction
    ds = FunctionalDataset._from_columns(
        np.arange(n_curves), np.concatenate(times_list),
        np.concatenate(values),
        np.array([t.size for t in times_list], dtype=np.intp), design.kind)
    return SampledData(dataset=ds, latents=tuple(latents), grid_latents=grid_latents)
