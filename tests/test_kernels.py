import numpy as np
import pytest

from piezodamp import _kernels


def _random_stable_system(rng, n):
    A = rng.standard_normal((n, n))
    # Shift the spectrum left so every pole is strictly stable.
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(n)
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    return A, b, c


def test_frf_solve_matches_lapack():
    rng = np.random.default_rng(7)
    A, b, c = _random_stable_system(rng, 8)
    omegas = np.linspace(0.1, 25.0, 301)
    vals, flagged = _kernels.frf_solve(A, b, c, 0.25, omegas)
    assert not flagged.any()
    ref = np.empty_like(vals)
    for k, w in enumerate(omegas):
        M = 1j * w * np.eye(8) - A
        ref[k] = c @ np.linalg.solve(M, b.astype(complex)) + 0.25
    np.testing.assert_allclose(vals, ref, rtol=1e-11, atol=1e-14)


def test_frf_solve_flags_singular_point():
    # Undamped oscillator hit exactly at resonance: jw I - A is singular.
    w0 = 2.0 * np.pi * 10.0
    A = np.array([[0.0, 1.0], [-w0 * w0, 0.0]])
    b = np.array([0.0, 1.0])
    c = np.array([1.0, 0.0])
    omegas = np.array([0.5 * w0, w0, 2.0 * w0])
    vals, flagged = _kernels.frf_solve(A, b, c, 0.0, omegas)
    assert list(flagged) == [False, True, False]
    assert np.isinf(np.abs(vals[1]))
    assert np.all(np.isfinite(vals[[0, 2]]))


def test_delta_theta_matches_interp():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 1.0, 41))
    x[0] = 0.0
    theta = rng.standard_normal((3, 41))
    starts = np.array([0.0, 0.13, 0.4, 0.77])
    patch_len = 0.2
    got = _kernels.delta_theta_scan(x, theta, starts, patch_len)
    for j in range(3):
        ref = (np.interp(starts + patch_len, x, theta[j])
               - np.interp(starts, x, theta[j]))
        np.testing.assert_allclose(got[:, j], ref, rtol=1e-12, atol=1e-15)


def test_delta_theta_clamps_to_grid_ends():
    x = np.linspace(0.0, 1.0, 11)
    theta = np.vstack([x * 2.0])
    # Query points beyond either end take the endpoint values.
    got = _kernels.delta_theta_scan(x, theta, np.array([-0.5]), 3.0)
    assert got[0, 0] == pytest.approx(theta[0, -1] - theta[0, 0])
