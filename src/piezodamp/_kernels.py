"""Numeric kernels in plain numpy.

Two operations sit under the general paths: the per-frequency linear solve
behind the frequency response of any state-space model, and the
slope-difference scan behind patch placement.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(np.float64).eps


def frf_solve(A, b, c, d, omegas):
    """Evaluate c (jw I - A)^-1 b + d at each angular frequency.

    Singular points come back as inf instead of raising. A point is
    singular when LU meets a zero pivot, or when the growth of the solution
    x, |jw I - A|_1 |x|_1 / |b|_1, exceeds 1 / eps: it bounds the condition
    number from below, so jw I - A is then singular to working precision.
    """
    A = np.asarray(A, dtype=np.float64)
    omegas = np.asarray(omegas, dtype=np.float64)
    n = A.shape[0]
    out = np.empty(omegas.size, dtype=np.complex128)
    eye = np.eye(n)
    # (1, n, 1), not (n, 1): numpy 1.x reads a 2-D b as a stack of vectors.
    bc = np.asarray(b, dtype=np.complex128).reshape(1, n, 1)
    cc = np.asarray(c, dtype=np.complex128)
    d = float(d)
    # Column sums of |jw I - A| are the off-diagonal |A|'s plus |jw - a_jj|.
    diag = np.diag(A)
    off_diag = np.abs(A).sum(axis=0) - np.abs(diag)
    # Points per batch: the scratch grows with n^2 per point, so a chunk of
    # 2^21 complex matrix entries keeps it near 100 MB at any model size
    # (for frf_of and perfbench's solve probes; the CLI never calls this).
    chunk = max(1, 2**21 // (n * n))
    for lo in range(0, omegas.size, chunk):
        w = omegas[lo:lo + chunk]
        M = 1j * w[:, None, None] * eye - A
        try:
            X = np.linalg.solve(M, bc)
        except np.linalg.LinAlgError:
            # Retry point by point so one singular frequency does not take
            # down the whole chunk.
            X = np.empty_like(M[:, :, :1])
            for k in range(w.size):
                try:
                    X[k] = np.linalg.solve(M[k], bc[0])
                except np.linalg.LinAlgError:
                    X[k] = np.inf
        # Singular samples were filled with inf above; the matmul then emits
        # nan, which the pass below replaces. Silence that transient.
        with np.errstate(invalid="ignore"):
            vals = X[:, :, 0] @ cc + d
        norm_m = (off_diag + np.hypot(w[:, None], diag)).max(axis=1)
        growth = norm_m * np.abs(X[:, :, 0]).sum(axis=1)
        bad = ~np.isfinite(vals) | (growth * _EPS > np.abs(bc).sum())
        vals[bad] = np.inf
        out[lo:lo + w.size] = vals
    return out


def delta_theta_scan(x, theta, starts, patch_length):
    """Slope difference theta(end) - theta(start) per candidate and mode.

    ``theta`` is (n_modes, n_grid); the result is (n_starts, n_modes).
    Query points are clamped to the grid ends, matching np.interp.
    """
    x = np.asarray(x, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.float64)
    out = np.empty((starts.size, theta.shape[0]))
    ends = starts + float(patch_length)
    for j in range(theta.shape[0]):
        out[:, j] = np.interp(ends, x, theta[j]) - np.interp(starts, x, theta[j])
    return out
