"""Numeric kernels in plain numpy.

Two operations sit under the general paths: the per-frequency linear solve
behind the frequency response of any state-space model, and the
slope-difference scan behind patch placement.
"""

from __future__ import annotations

import numpy as np

# Chunk bound keeps the batched solve below ~100 MB of scratch space.
_SOLVE_CHUNK = 8192
_EPS = np.finfo(np.float64).eps


def frf_solve(A, b, c, d, omegas):
    """Evaluate c (jw I - A)^-1 b + d at each angular frequency.

    Returns (values, flagged); singular points come back as inf with the
    flag set instead of raising, so a sweep can skip them. A point is
    singular when LU meets a zero pivot, or when the growth of the solution
    x, |jw I - A|_1 |x|_1 / |b|_1, exceeds 1 / eps: it bounds the condition
    number from below, so jw I - A is then singular to working precision.
    """
    A = np.asarray(A, dtype=np.float64)
    omegas = np.asarray(omegas, dtype=np.float64)
    n = A.shape[0]
    nf = omegas.shape[0]
    out = np.empty(nf, dtype=np.complex128)
    flagged = np.zeros(nf, dtype=np.bool_)
    eye = np.eye(n)
    bc = np.asarray(b, dtype=np.complex128)
    cc = np.asarray(c, dtype=np.complex128)
    d = float(d)
    # Column sums of |jw I - A| are those of the off-diagonal |A| plus
    # |jw - a_jj|; a system without states has none, and norm 0.
    diag = np.diag(A)
    off_diag = np.abs(A).sum(axis=0) - np.abs(diag)
    for lo in range(0, nf, _SOLVE_CHUNK):
        w = omegas[lo:lo + _SOLVE_CHUNK]
        M = 1j * w[:, None, None] * eye - A
        rhs = np.empty((w.size, n, 1), dtype=np.complex128)
        rhs[:] = bc[:, None]
        try:
            X = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            # Retry point by point so one singular frequency does not take
            # down the whole chunk.
            X = np.empty_like(rhs)
            for k in range(w.size):
                try:
                    X[k] = np.linalg.solve(M[k], rhs[k])
                except np.linalg.LinAlgError:
                    X[k] = np.inf
        # Singular samples were filled with inf above; the matmul then emits
        # nan, which the flag pass below replaces. Silence that transient.
        with np.errstate(invalid="ignore"):
            vals = X[:, :, 0] @ cc + d
        norm_m = (off_diag + np.hypot(w[:, None], diag)).max(axis=1,
                                                               initial=0.0)
        growth = norm_m * np.abs(X[:, :, 0]).sum(axis=1)
        bad = ~np.isfinite(vals) | (growth * _EPS > np.abs(bc).sum())
        vals[bad] = np.inf
        out[lo:lo + w.size] = vals
        flagged[lo:lo + w.size] = bad
    return out, flagged


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
