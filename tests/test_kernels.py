import tracemalloc

import numpy as np

from piezodamp import _kernels


def test_frf_solve_flags_singular_point():
    # Undamped oscillator hit exactly at resonance: jw I - A is singular.
    w0 = 2.0 * np.pi * 10.0
    A = np.array([[0.0, 1.0], [-w0 * w0, 0.0]])
    b = np.array([0.0, 1.0])
    c = np.array([1.0, 0.0])
    omegas = np.array([0.5 * w0, w0, 2.0 * w0])
    vals = _kernels.frf_solve(A, b, c, 0.0, omegas)
    assert np.isinf(np.abs(vals[1]))
    assert np.all(np.isfinite(vals[[0, 2]]))


def test_frf_solve_scratch_stays_bounded_at_42_states():
    # The batched solve's scratch grows with the square of the state count,
    # so the batch shrinks as the model grows. A fixed 8192-point batch held
    # all 5,001 points here at once, about 270 MiB of scratch.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((42, 42))
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(42)
    b, c = rng.standard_normal((2, 42))
    omegas = np.linspace(1.0, 100.0, 5001)
    tracemalloc.start()
    try:
        _kernels.frf_solve(A, b, c, 0.0, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
