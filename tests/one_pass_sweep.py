"""The order-0 grid sweep in one pass over the whole bandwidth grid.

This is the sweep that mean.inclusion_stats_over_grid made before it was
split into resumable runs (mean._grid_runs), kept as the reference for
the bits of every row: one window slice at hs[-1], every observation
binned at its entry and core rows, one cumulative sum over all rows, one
stacked product and the edge passes over the whole grid.
"""

import numpy as np

from fdadapt.kernels import _window_bounds, get_kernel
from fdadapt.mean import _core_bound, _stats, _v_searchsorted


def one_pass_sweep(dataset, t, hs, alpha_hat, kernel, k0):
    """The order-0 grid record of inclusion_stats_over_grid, in one
    pass."""
    kernel = get_kernel(kernel)
    hs = np.asarray(hs, dtype=float)
    n, n_h, alpha = dataset.n_curves, hs.size, 2.0 * alpha_hat
    lo, hi = _window_bounds(dataset, t, hs[-1])
    T = dataset.sorted_times[lo:hi]
    d = np.abs(T - t)
    cid = dataset.sorted_curve[lo:hi]
    split = T.searchsorted(t)
    entry = _v_searchsorted(hs, d, split)[0]
    core = _v_searchsorted(_core_bound(kernel) * hs, d, split)[0]

    q = len(kernel.z2_coeffs)
    size = (n_h + 1) * n
    B = np.empty((n_h + 1, 1 + 2 * q, n))
    B[:, 0] = np.bincount(entry * n + cid, minlength=size).reshape(-1, n)
    cells = core * n + cid
    da, ha = d ** alpha, hs ** alpha
    dj = np.ones(d.size)
    for j in range(q):
        B[:, 1 + 2 * j] = np.bincount(cells, dj, size).reshape(-1, n)
        B[:, 2 + 2 * j] = np.bincount(cells, dj * da, size).reshape(-1, n)
        dj = dj * d * d
    B = B[:n_h]
    for k in range(1, n_h):
        B[k] += B[k - 1]
    w = B[:, 0] >= k0
    F = np.zeros((n_h, 2, 1 + 2 * q))
    hj = np.ones(n_h)
    for j, c in enumerate(kernel.z2_coeffs):
        F[:, 0, 1 + 2 * j] = c / hj
        F[:, 1, 2 + 2 * j] = c / (hj * ha)
        hj = hj * hs * hs
    SA = F @ B
    edge = np.flatnonzero(core > entry)
    k = entry[edge]
    while edge.size:
        K = kernel(d[edge] / hs[k])
        cells = k * (2 * n) + cid[edge]
        SA += np.bincount(np.concatenate((cells, cells + n)),
                          np.concatenate((K, K * da[edge] / ha[k])),
                          n_h * 2 * n).reshape(n_h, 2, n)
        k += 1
        more = k < core[edge]
        edge, k = edge[more], k[more]

    near = np.full(n, np.inf)
    np.minimum.at(near, cid, d)
    S, A = SA[:, 0], SA[:, 1]
    w &= S > 0.0
    denom = S + ~w
    c_alpha = A * w / denom
    maxw = kernel(near / hs[:, None]) * w / denom
    return _stats(t, hs, 0, alpha, w, w.astype(float), c_alpha, maxw, None)
