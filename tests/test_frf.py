from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks as scipy_find_peaks

import piezodamp as pd
from piezodamp.errors import BandwidthError, InvalidInputError, ParseError
from piezodamp.frf import _prominent_peaks


def _sdof(f_hz=75.0, zeta=0.01, b=1.0):
    return pd.ModalPlant([2.0 * np.pi * f_hz], [zeta], [b])


def test_frf_matches_modal_formula():
    plant = pd.ModalPlant([2.0 * np.pi * 40.0, 2.0 * np.pi * 90.0],
                          [0.01, 0.03], [1.0, -0.6])
    sys_ = pd.plant_system(plant)
    freqs = np.linspace(10.0, 120.0, 401)
    frf = pd.frf_of(sys_, freqs)
    w = 2.0 * np.pi * freqs
    expect = np.zeros(freqs.size, dtype=complex)
    for wi, zi, bi in zip(plant.omegas, plant.zetas, plant.b):
        expect += bi * bi / (wi * wi - w * w + 2j * zi * wi * w)
    np.testing.assert_allclose(frf.values, expect, rtol=1e-10, atol=1e-15)
    assert not frf.flagged.any()


def test_frf_of_matches_lapack_with_feedthrough():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 8))
    # Shift the spectrum left so every pole is strictly stable.
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(8)
    b = rng.standard_normal(8)
    c = rng.standard_normal(8)
    freqs = np.linspace(0.02, 4.0, 301)
    frf = pd.frf_of(pd.LinearSystem(A, b[:, None], c[None, :], [[0.25]]),
                    freqs)
    assert not frf.flagged.any()
    ref = [c @ np.linalg.solve(2j * np.pi * f * np.eye(8) - A, b) + 0.25
           for f in freqs]
    np.testing.assert_allclose(frf.values, ref, rtol=1e-11, atol=1e-14)


def test_frf_pure_gain_is_flat():
    sys_ = pd.LinearSystem(np.zeros((0, 0)), np.zeros((0, 1)),
                           np.zeros((1, 0)), [[2.0]])
    frf = pd.frf_of(sys_, np.linspace(1.0, 10.0, 16))
    np.testing.assert_array_equal(frf.values, np.full(16, 2.0 + 0.0j))


def test_frf_flags_singular_sample_and_continues():
    sys_ = pd.plant_system(_sdof(10.0, zeta=0.0))
    frf = pd.frf_of(sys_, np.linspace(8.0, 12.0, 5))  # hits 10 Hz exactly
    assert frf.flagged.tolist() == [False, False, True, False, False]
    assert np.isinf(np.abs(frf.values[2]))
    assert np.all(np.isfinite(frf.values[[0, 1, 3, 4]]))
    assert np.count_nonzero(frf.flagged) == 1


def test_frf_of_validation():
    sys_ = pd.plant_system(_sdof())
    with pytest.raises(InvalidInputError):
        pd.frf_of(sys_, [10.0])
    with pytest.raises(InvalidInputError):
        pd.frf_of(sys_, [10.0, 9.0])
    with pytest.raises(InvalidInputError):
        pd.frf_of(sys_, [0.0, 5.0])


def test_frf_container_validation():
    with pytest.raises(InvalidInputError):
        pd.FRF(np.array([1.0, 2.0]), np.array([1.0 + 0j]))
    with pytest.raises(InvalidInputError):
        pd.FRF(np.array([2.0, 1.0]), np.array([1.0 + 0j, 2.0 + 0j]))
    with pytest.raises(InvalidInputError, match="unflagged"):
        pd.FRF(np.array([1.0, 2.0]), np.array([np.inf + 0j, 2.0 + 0j]))
    ok = pd.FRF(np.array([1.0, 2.0]), np.array([np.inf + 0j, 2.0 + 0j]),
                flagged=np.array([True, False]))
    assert np.count_nonzero(ok.flagged) == 1


def _save_frf_csv(frf, path) -> None:
    """Write freq_hz,real,imag at full precision so a reload round-trips."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_hz,real,imag\n")
        for f, v in zip(frf.freqs_hz, frf.values):
            fh.write(f"{f:.17g},{v.real:.17g},{v.imag:.17g}\n")


def test_save_load_round_trip(tmp_path):
    sys_ = pd.plant_system(_sdof(60.0, 0.02))
    frf = pd.frf_of(sys_, np.linspace(40.0, 80.0, 101))
    path = tmp_path / "resp.csv"
    _save_frf_csv(frf, path)
    back = pd.load_frf_csv(path)
    np.testing.assert_array_equal(back.freqs_hz, frf.freqs_hz)
    np.testing.assert_array_equal(back.values, frf.values)


def test_load_polar_format(tmp_path):
    f = tmp_path / "polar.csv"
    f.write_text("# comment line\n"
                 "freq_hz,mag,phase_deg\n"
                 "10,2.0,0\n"
                 "20,1.0,-90\n"
                 "30,0.5,180\n")
    frf = pd.load_frf_csv(f)
    np.testing.assert_allclose(frf.values[0], 2.0 + 0j, atol=1e-15)
    np.testing.assert_allclose(frf.values[1], -1j, atol=1e-15)
    np.testing.assert_allclose(frf.values[2], -0.5, atol=1e-12)


def test_load_frf_errors(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("freq_hz,magnitude\n1,2\n2,3\n")
    with pytest.raises(ParseError, match="header"):
        pd.load_frf_csv(f)
    f.write_text("freq_hz,real,imag\n1,2,3\n")
    with pytest.raises(ParseError, match="at least 2"):
        pd.load_frf_csv(f)
    f.write_text("freq_hz,real,imag\n1,2,3\n2,x,0\n")
    with pytest.raises(ParseError, match=r"line 3.*real"):
        pd.load_frf_csv(f)
    f.write_text("freq_hz,real,imag\n1,2,3\n2,3\n")
    with pytest.raises(ParseError, match="line 3"):
        pd.load_frf_csv(f)
    f.write_text("freq_hz,real,imag\n2,1,0\n1,1,0\n")
    with pytest.raises(ParseError, match="increasing"):
        pd.load_frf_csv(f)
    f.write_text("freq_hz,real,imag\n1,nan,0\n2,1,0\n")
    with pytest.raises(ParseError, match="non-finite"):
        pd.load_frf_csv(f)
    f.write_text("freq_hz,real,imag\n1,1_0,0\n2,1,0\n")
    with pytest.raises(ParseError, match=r"line 2, column 'real'.*'1_0'"):
        pd.load_frf_csv(f)


def test_find_peaks_two_modes():
    plant = pd.ModalPlant([2.0 * np.pi * 40.0, 2.0 * np.pi * 80.0],
                          [0.01, 0.01], [1.0, 0.8])
    frf = pd.frf_of(pd.plant_system(plant), np.linspace(20.0, 100.0, 2001))
    peaks = pd.find_peaks(frf, (20.0, 100.0))
    assert len(peaks) == 2
    freqs = [frf.freqs_hz[i] for i in peaks]
    assert freqs[0] == pytest.approx(40.0, abs=0.1)
    assert freqs[1] == pytest.approx(80.0, abs=0.1)
    only_high = pd.find_peaks(frf, (60.0, 100.0))
    assert len(only_high) == 1
    assert frf.freqs_hz[only_high[0]] == pytest.approx(80.0, abs=0.1)


def test_find_peaks_never_reports_boundaries():
    # Monotone magnitude: the largest sample sits on the boundary and is
    # not a peak.
    freqs = np.linspace(10.0, 20.0, 101)
    vals = (1.0 / freqs).astype(complex)
    frf = pd.FRF(freqs, vals)
    assert pd.find_peaks(frf, (10.0, 20.0), min_prominence_db=0.1) == []


def test_find_peaks_prominence_filter():
    freqs = np.linspace(1.0, 100.0, 991)
    mag = np.ones(freqs.size)
    mag[300] = 10.0    # 20 dB peak
    mag[600] = 1.02    # 0.17 dB ripple
    frf = pd.FRF(freqs, mag.astype(complex))
    peaks = pd.find_peaks(frf, (1.0, 100.0), min_prominence_db=3.0)
    assert peaks == [300]


# Records for the peak oracle: few distinct integers (ties and plateaus,
# including flat tops at either end), integer random walks (nested hills),
# noisy floats, inf and nan as a flagged sample may hold, and the lengths
# 0-3 that hold no interior maximum.
_RECORDS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=40),
    st.lists(st.integers(-2, 2), max_size=60).map(np.cumsum),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=40),
    st.lists(st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]), max_size=30),
    st.lists(st.integers(-3, 3), max_size=3),
).map(lambda v: np.asarray(v, dtype=float))


@pytest.mark.parametrize("prominence", [0.0, 0.5, 3.0])
@settings(max_examples=400, deadline=None)
@given(x=_RECORDS)
def test_prominent_peaks_match_scipy(prominence, x):
    expected = scipy_find_peaks(x, prominence=prominence)[0]
    np.testing.assert_array_equal(_prominent_peaks(x, prominence), expected)


def test_find_peaks_validation():
    frf = pd.frf_of(pd.plant_system(_sdof(50.0)), np.linspace(40.0, 60.0, 201))
    with pytest.raises(InvalidInputError, match="empty"):
        pd.find_peaks(frf, (50.0, 50.0))
    with pytest.raises(InvalidInputError, match="outside"):
        pd.find_peaks(frf, (100.0, 200.0))
    with pytest.raises(InvalidInputError, match="contains no grid points"):
        pd.find_peaks(frf, (50.01, 50.09))
    for prominence in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError,
                           match="min_prominence_db must be positive and "
                                 f"finite, got {prominence:g}"):
            pd.find_peaks(frf, (40.0, 60.0), prominence)


def test_find_peaks_rejects_flagged_band():
    sys_ = pd.plant_system(_sdof(10.0, zeta=0.0))
    frf = pd.frf_of(sys_, np.linspace(8.0, 12.0, 5))
    with pytest.raises(InvalidInputError, match="flagged"):
        pd.find_peaks(frf, (8.0, 12.0))


@pytest.mark.parametrize("zeta", [0.005, 0.01, 0.03, 0.05])
def test_half_power_recovers_sdof_damping(zeta):
    f0 = 75.0
    frf = pd.frf_of(pd.plant_system(_sdof(f0, zeta)),
                    pd.default_frequency_grid(f0))
    peaks = pd.find_peaks(frf, (frf.freqs_hz[0], frf.freqs_hz[-1]))
    assert len(peaks) == 1
    est = pd.half_power_damping(frf, peaks[0])
    assert est.zeta == pytest.approx(zeta, rel=0.01)
    assert est.f_lo < est.f_peak < est.f_hi
    assert est.q_factor > 0.5


def test_half_power_identities():
    est = pd.DampingEstimate(75.0, 1.0, 74.0, 76.5)
    assert est.q_factor == 75.0 / (76.5 - 74.0)
    assert est.zeta == 1.0 / (2.0 * est.q_factor)
    assert est.damping_pct == 100.0 * est.zeta


def test_damping_estimate_validation():
    with pytest.raises(InvalidInputError, match="bracket"):
        pd.DampingEstimate(75.0, 1.0, 75.5, 76.0)
    with pytest.raises(InvalidInputError, match="0.5"):
        pd.DampingEstimate(1.4, 1.0, 1.0, 3.9)


def test_half_power_missing_crossing_sides():
    f0 = 50.0
    zeta = 0.02
    sys_ = pd.plant_system(_sdof(f0, zeta))
    # Right edge cut just past the peak: high-side crossing missing.
    frf = pd.frf_of(sys_, np.linspace(45.0, f0 * 1.004, 401))
    mag = np.abs(frf.values)
    peak = int(np.argmax(mag))
    with pytest.raises(BandwidthError, match="high-frequency"):
        pd.half_power_damping(frf, peak)
    # Left edge cut just below the peak: low-side crossing missing.
    frf = pd.frf_of(sys_, np.linspace(f0 * 0.996, 60.0, 401))
    mag = np.abs(frf.values)
    peak = int(np.argmax(mag))
    with pytest.raises(BandwidthError, match="low-frequency"):
        pd.half_power_damping(frf, peak)


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("last_ulp", [0, 1])
def test_half_power_accepts_flat_top_that_find_peaks_reports(width, last_ulp):
    # A record rounded to few digits flattens the top into a plateau, and
    # find_peaks reports its middle sample. Rebuilt from magnitude and
    # phase, the plateau's magnitudes may differ in the last bit, which the
    # dB scale does not resolve.
    zeta = 0.02
    frf = pd.frf_of(pd.plant_system(_sdof(50.0, zeta)),
                    np.linspace(45.0, 55.0, 401))
    values = frf.values.copy()
    top = int(np.argmax(np.abs(values)))
    flat = np.full(width, np.abs(values[top]))
    flat[-1] += last_ulp * np.spacing(flat[-1])
    values[top:top + width] = flat
    flat_frf = pd.FRF(frf.freqs_hz, values)
    peaks = pd.find_peaks(flat_frf, (45.0, 55.0))
    assert peaks == [top + (width - 1) // 2]
    est = pd.half_power_damping(flat_frf, peaks[0])
    assert est.zeta == pytest.approx(zeta, rel=0.01)


def test_half_power_index_validation():
    frf = pd.frf_of(pd.plant_system(_sdof(50.0)), np.linspace(40.0, 60.0, 201))
    with pytest.raises(InvalidInputError, match="interior"):
        pd.half_power_damping(frf, 0)
    with pytest.raises(InvalidInputError, match="interior"):
        pd.half_power_damping(frf, 200)
    with pytest.raises(InvalidInputError, match="local maximum"):
        pd.half_power_damping(frf, 5)


def test_default_frequency_grid():
    grid = pd.default_frequency_grid(75.0)
    assert grid.size == 2001
    assert grid[0] == pytest.approx(60.0)
    assert grid[-1] == pytest.approx(90.0)
    with pytest.raises(InvalidInputError):
        pd.default_frequency_grid(-1.0)


def test_gain_sweep_flags_unstable_rows():
    plant = _sdof(75.0, 0.01)
    cfg = pd.PPFConfig(2.0 * np.pi * 76.7, 0.3)
    gcrit = pd.critical_gain(plant, cfg)
    freqs = np.linspace(60.0, 90.0, 801)
    rows = pd.gain_sweep(plant, cfg, [0.02 * gcrit, 1.5 * gcrit],
                         freqs_hz=freqs)
    assert rows[0].stable and rows[0].estimate is not None
    assert not rows[1].stable and rows[1].estimate is None
    assert rows[1].response is None
    assert rows[0].estimate.zeta > 0.01
    # Stable rows keep the closed-loop response the estimate was read from.
    loop = pd.closed_loop_frf(plant, replace(cfg, gain=rows[0].gain), freqs)
    np.testing.assert_array_equal(rows[0].response.values, loop.values)
    np.testing.assert_array_equal(rows[0].response.freqs_hz, freqs)


@st.composite
def _loops(draw):
    """A random modal plant (max |b| = 1, as ``build_plant`` normalizes it)
    and a PPF filter at a gain in [0, 0.95] g*."""
    n = draw(st.integers(1, 20))
    modes = st.lists(st.tuples(st.floats(1.0, 1000.0), st.floats(1e-4, 0.2),
                               st.floats(-1.0, 1.0)), min_size=n, max_size=n)
    f, zetas, b = (np.array(c) for c in zip(*draw(modes)))
    assume(np.any(b != 0.0))
    plant = pd.ModalPlant(2.0 * np.pi * f, zetas, b / np.max(np.abs(b)))
    filt = pd.PPFConfig.from_hz(draw(st.floats(1.0, 1000.0)),
                                draw(st.floats(0.01, 0.9)))
    gain = draw(st.floats(0.0, 0.95)) * pd.critical_gain(plant, filt)
    return plant, replace(filt, gain=gain)


def _grid_over(plant):
    f = plant.omegas / (2.0 * np.pi)
    return np.linspace(0.5 * f.min(), 1.5 * f.max(), 257)


@settings(max_examples=200, deadline=None)
@given(_loops())
def test_closed_loop_frf_matches_state_space(loop):
    plant, cfg = loop
    grid = _grid_over(plant)
    got = pd.closed_loop_frf(plant, cfg, grid)
    ref = pd.frf_of(pd.close_loop(pd.plant_system(plant),
                                  pd.ppf_controller(cfg)), grid)
    np.testing.assert_allclose(got.values, ref.values, rtol=1e-10, atol=0.0)
    assert not got.flagged.any() and not ref.flagged.any()


@settings(max_examples=100, deadline=None)
@given(_loops())
def test_closed_loop_frf_at_zero_gain_is_the_open_loop(loop):
    plant, cfg = loop
    grid = _grid_over(plant)
    got = pd.closed_loop_frf(plant, replace(cfg, gain=0.0), grid)
    ref = pd.frf_of(pd.plant_system(plant), grid)
    np.testing.assert_allclose(got.values, ref.values, rtol=1e-10, atol=0.0)
    assert not got.flagged.any()


@settings(max_examples=100, deadline=None)
@given(_loops())
def test_critical_gain_bounds_eigenvalue_stability(loop):
    plant, cfg = loop
    g_star = pd.critical_gain(plant, cfg)
    psys = pd.plant_system(plant)
    for frac, stable in ((0.999, True), (1.001, False)):
        cl = pd.close_loop(psys, pd.ppf_controller(replace(cfg,
                                                           gain=frac * g_star)))
        assert pd.stability(cl, tol_margin=0.0) is stable


def test_closed_loop_frf_on_an_undamped_mode():
    # The grid hits the undamped 50 Hz mode exactly, where the state-space
    # solve is exactly singular at zero gain and G -> inf gives H = -1/K at
    # any positive gain. A second undamped mode at 60 Hz has b = 0: it is
    # never actuated, so its pole stays on the grid at every gain.
    plant = pd.ModalPlant(2.0 * np.pi * np.array([50.0, 60.0, 90.0]),
                          [0.0, 0.0, 0.01], [1.0, 0.0, 0.5])
    grid = np.array([45.0, 50.0, 55.0, 60.0, 65.0])
    psys = pd.plant_system(plant)
    g_star = pd.critical_gain(plant, None)
    for gain in (0.0, 0.3 * g_star):
        cfg = pd.PPFConfig(2.0 * np.pi * 70.0, 0.3, gain)
        got = pd.closed_loop_frf(plant, cfg, grid)
        ref = pd.frf_of(pd.close_loop(psys, pd.ppf_controller(cfg)), grid)
        np.testing.assert_array_equal(got.flagged, ref.flagged)
        np.testing.assert_allclose(got.values, ref.values, rtol=1e-10,
                                   atol=0.0)
        assert list(got.flagged) == [False, gain == 0.0, False, True, False]
    w, wf = 2.0 * np.pi * 50.0, cfg.omega_f
    K = cfg.gain * wf * wf / (wf * wf - w * w + 2j * cfg.zeta_f * wf * w)
    assert got.values[1] == pytest.approx(-1.0 / K, rel=1e-14)


def test_frf_of_flags_a_singular_sample_without_a_zero_pivot():
    # At 64 Hz jw I - A is singular to working precision, but LU meets no
    # exact zero pivot there; the condition test flags it all the same.
    plant = pd.ModalPlant(2.0 * np.pi * np.array([64.0, 90.0]), [0.0, 0.01],
                          [1.0, 0.5])
    cfg = pd.PPFConfig(2.0 * np.pi * 70.0, 0.3, 0.0)
    grid = np.array([50.0, 63.9, 64.0, 64.1, 75.3, 90.0, 123.456])
    got = pd.frf_of(pd.close_loop(pd.plant_system(plant),
                                  pd.ppf_controller(cfg)), grid)
    ref = pd.closed_loop_frf(plant, cfg, grid)
    np.testing.assert_array_equal(got.flagged, ref.flagged)
    assert got.flagged.tolist() == [False, False, True, False, False, False,
                                    False]


def test_closed_loop_frf_validates_grid():
    plant = _sdof()
    cfg = pd.PPFConfig(2.0 * np.pi * 76.7, 0.3)
    with pytest.raises(InvalidInputError):
        pd.closed_loop_frf(plant, cfg, [75.0])
    with pytest.raises(InvalidInputError):
        pd.closed_loop_frf(plant, cfg, [75.0, 74.0])


def test_gain_sweep_validation():
    plant = _sdof()
    cfg = pd.PPFConfig(2.0 * np.pi * 76.7, 0.3)
    with pytest.raises(InvalidInputError):
        pd.gain_sweep(plant, cfg, [])
    with pytest.raises(InvalidInputError):
        pd.gain_sweep(plant, cfg, [2.0, 1.0])
    with pytest.raises(InvalidInputError):
        pd.gain_sweep(plant, cfg, [-1.0, 1.0])


def test_gain_sweep_targets_mode_nearest_filter():
    plant = pd.ModalPlant([2.0 * np.pi * 40.0, 2.0 * np.pi * 80.0],
                          [0.01, 0.01], [1.0, 1.0])
    cfg = pd.PPFConfig(2.0 * np.pi * 81.0, 0.3)
    rows = pd.gain_sweep(plant, cfg, [10.0])
    assert rows[0].estimate.f_peak == pytest.approx(80.0, rel=0.01)


def test_bode_table_unwraps_phase():
    frf = pd.frf_of(pd.plant_system(_sdof(50.0, 0.01)),
                    np.linspace(30.0, 70.0, 801))
    mag_db, phase = pd.bode_table(frf)
    assert mag_db.shape == phase.shape == frf.freqs_hz.shape
    assert np.all(np.abs(np.diff(phase)) < 90.0)
    assert phase[-1] < -150.0
    assert phase[0] > -30.0


def test_bode_table_puts_nan_at_flagged_samples():
    plant = pd.ModalPlant(2.0 * np.pi * np.array([64.0, 90.0]), [0.0, 0.01],
                          [1.0, 0.5])
    cfg = pd.PPFConfig(2.0 * np.pi * 70.0, 0.3, 0.0)
    frf = pd.closed_loop_frf(plant, cfg, np.linspace(60.0, 68.0, 9))
    assert frf.flagged.tolist() == [False] * 4 + [True] + [False] * 4
    mag_db, phase = pd.bode_table(frf)
    for column in (mag_db, phase):
        assert np.isnan(column[4])
        assert np.all(np.isfinite(np.delete(column, 4)))
