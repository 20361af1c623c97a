import numpy as np

from piezodamp import _kernels


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
