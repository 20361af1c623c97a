import logging
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks as scipy_find_peaks

import piezodamp as pd
from piezodamp.errors import InvalidInputError, ParseError
from piezodamp.frf import _db, _prominent_peaks


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


def test_frf_of_matches_lapack():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 8))
    # Shift the spectrum left so every pole is strictly stable.
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(8)
    b = rng.standard_normal(8)
    c = rng.standard_normal(8)
    freqs = np.linspace(0.02, 4.0, 301)
    frf = pd.frf_of(pd.LinearSystem(A, b[:, None], c[None, :]), freqs)
    assert not frf.flagged.any()
    ref = [c @ np.linalg.solve(2j * np.pi * f * np.eye(8) - A, b)
           for f in freqs]
    np.testing.assert_allclose(frf.values, ref, rtol=1e-11, atol=1e-14)


def test_frf_flags_singular_sample_and_continues():
    sys_ = pd.plant_system(_sdof(10.0, zeta=0.0))
    frf = pd.frf_of(sys_, np.linspace(8.0, 12.0, 5))  # hits 10 Hz exactly
    assert frf.flagged.tolist() == [False, False, True, False, False]
    assert np.isinf(np.abs(frf.values[2]))
    assert np.all(np.isfinite(frf.values[[0, 1, 3, 4]]))
    assert np.count_nonzero(frf.flagged) == 1



def test_frf_of_flags_singular_point():
    # Undamped oscillator hit exactly at resonance: jw I - A is singular.
    w0 = 2.0 * np.pi * 10.0
    sys_ = pd.LinearSystem([[0.0, 1.0], [-w0 * w0, 0.0]], [[0.0], [1.0]],
                           [[1.0, 0.0]])
    frf = pd.frf_of(sys_, [5.0, 10.0, 20.0])
    assert np.isinf(np.abs(frf.values[1]))
    assert np.all(np.isfinite(frf.values[[0, 2]]))


def test_frf_of_scratch_stays_bounded_at_42_states():
    # The batched solve's scratch grows with the square of the state count,
    # so the batch shrinks as the model grows. A fixed 8192-point batch held
    # all 5,001 points here at once, about 270 MiB of scratch.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((42, 42))
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(42)
    b, c = rng.standard_normal((2, 42))
    sys_ = pd.LinearSystem(A, b[:, None], c[None, :])
    freqs = np.linspace(1.0, 100.0, 5001) / (2.0 * np.pi)
    tracemalloc.start()
    try:
        pd.frf_of(sys_, freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20

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
    for bad in ([1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(InvalidInputError, match="finite"):
            pd.FRF(np.array(bad), np.array([1.0 + 0j, 2.0 + 0j]))
    ok = pd.FRF(np.array([1.0, 2.0]), np.array([np.inf + 0j, 2.0 + 0j]))
    assert ok.flagged.tolist() == [True, False]


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


def test_load_polar_format_refuses_a_magnitude_in_db(tmp_path):
    # Two modes in dB: read as a linear magnitude, the anti-resonance between
    # them, the most negative dB value, would pass for a peak.
    plant = pd.ModalPlant([2.0 * np.pi * 58.0, 2.0 * np.pi * 76.0],
                          [0.01, 0.01], [1.0, 1.0])
    frf = pd.frf_of(pd.plant_system(plant), np.linspace(40.0, 110.0, 4001))
    f = tmp_path / "db.csv"
    with open(f, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_hz,mag,phase_deg\n")
        for freq, v in zip(frf.freqs_hz, frf.values):
            fh.write(f"{freq:.9g},{20.0 * np.log10(abs(v)):.9g},"
                     f"{np.degrees(np.angle(v)):.9g}\n")
    with pytest.raises(ParseError, match=re.escape(
            f"{f}: mag must be a linear magnitude >= 0, not dB; row 1 of the "
            "data violates this")):
        pd.load_frf_csv(f)
    f.write_text("# comment line\nfreq_hz,mag,phase_deg\n"
                 "10,2.0,0\n20,0,-90\n30,-0.5,180\n")
    with pytest.raises(ParseError, match="row 3 of the data"):
        pd.load_frf_csv(f)


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


@pytest.mark.parametrize("rows, bad", [
    ("3,1,0\n2,1,0\n1,1,0\n", 2), ("1,1,0\n2,1,0\n2,1,0\n", 3),
    ("# note\n0,1,0\n1,1,0\n", 1), ("-2,1,0\n-1,1,0\n", 1)])
def test_load_frf_names_the_first_row_not_above_the_last(tmp_path, rows, bad):
    # Row 1 is compared with 0 Hz; as for mag and x_m, the row counts data
    # lines only.
    f = tmp_path / "dec.csv"
    f.write_text("freq_hz,real,imag\n" + rows)
    with pytest.raises(ParseError, match=re.escape(
            f"{f}: freq_hz must be positive and strictly increasing; row "
            f"{bad} of the data violates this")):
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
    # An exact zero at the record start and at the antiresonance between the
    # peaks reads -inf on the dB scale and moves no peak.
    zeros = [0, peaks[0] + int(np.argmin(np.abs(frf.values[peaks[0]:peaks[1]])))]
    silent = pd.FRF(frf.freqs_hz, np.where(np.isin(np.arange(2001), zeros), 0.0,
                                           frf.values))
    mag_db, _ = pd.bode_table(silent)
    assert mag_db[zeros].tolist() == [-np.inf, -np.inf]
    assert np.array_equal(np.delete(mag_db, zeros),
                          np.delete(pd.bode_table(frf)[0], zeros))
    assert pd.find_peaks(silent, (20.0, 100.0)) == peaks
    only_high = pd.find_peaks(frf, (60.0, 100.0))
    assert len(only_high) == 1
    assert frf.freqs_hz[only_high[0]] == pytest.approx(80.0, abs=0.1)


def test_find_peaks_never_reports_boundaries():
    # Monotone magnitude: the largest sample sits on the boundary and is
    # not a peak.
    freqs = np.linspace(10.0, 20.0, 101)
    vals = (1.0 / freqs).astype(complex)
    frf = pd.FRF(freqs, vals)
    assert pd.find_peaks(frf, (10.0, 20.0)) == []


def test_find_peaks_prominence_filter():
    freqs = np.linspace(1.0, 100.0, 991)
    mag = np.ones(freqs.size)
    mag[300] = 10.0    # 20 dB peak
    mag[600] = 1.02    # 0.17 dB ripple
    frf = pd.FRF(freqs, mag.astype(complex))
    peaks = pd.find_peaks(frf, (1.0, 100.0))
    assert peaks == [300]


# Records for the peak oracle: few distinct integers (ties and plateaus,
# including flat tops at either end), integer random walks (nested hills),
# noisy floats, inf as a flagged sample holds and nan, and the lengths 0-3
# that hold no interior maximum.
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
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="peak magnitude"):
            pd.DampingEstimate(75.0, bad, 74.5, 75.5)


def test_half_power_missing_crossing_sides():
    f0 = 50.0
    zeta = 0.02
    sys_ = pd.plant_system(_sdof(f0, zeta))
    # Right edge cut just past the peak: high-side crossing missing.
    frf = pd.frf_of(sys_, np.linspace(45.0, f0 * 1.004, 401))
    mag = np.abs(frf.values)
    peak = int(np.argmax(mag))
    with pytest.raises(InvalidInputError, match="high-frequency"):
        pd.half_power_damping(frf, peak)
    # Left edge cut just below the peak: low-side crossing missing.
    frf = pd.frf_of(sys_, np.linspace(f0 * 0.996, 60.0, 401))
    mag = np.abs(frf.values)
    peak = int(np.argmax(mag))
    with pytest.raises(InvalidInputError, match="low-frequency"):
        pd.half_power_damping(frf, peak)


def test_half_power_refuses_a_peak_the_grid_does_not_resolve():
    # 9 points over [0.8, 1.2] f0 space 5 half-power bandwidths apart: both
    # neighbours of the peak lie below the level.
    f0 = 75.0
    frf = pd.frf_of(pd.plant_system(_sdof(f0, 0.01)),
                    np.linspace(0.8 * f0, 1.2 * f0, 9))
    assert pd.find_peaks(frf, (60.0, 90.0)) == [4]
    with pytest.raises(InvalidInputError, match="peak at 75 Hz not resolved; "
                                                "refine the frequency grid"):
        pd.half_power_damping(frf, 4)


@pytest.mark.parametrize("flag_hz", [pytest.param(99.0, id="low"),
                                     pytest.param(100.95, id="high")])
def test_half_power_refuses_a_flagged_sample_at_a_crossing(flag_hz):
    # The 100 Hz mode with zeta = 0.01 crosses its half-power level near 99.0
    # and 101.0 Hz; on this grid the crossings are interpolated from the
    # samples at 99.00 and 100.95 Hz, the first ones above the level.
    freqs = np.linspace(90.0, 110.0, 401)
    values = pd.frf_of(pd.plant_system(_sdof(100.0, 0.01)), freqs).values
    clean = pd.half_power_damping(pd.FRF(freqs, values), 200)
    assert clean.zeta == pytest.approx(0.01, rel=1e-3)
    k = int(np.argmin(np.abs(freqs - flag_hz)))
    values[k] = np.inf
    with pytest.raises(InvalidInputError,
                       match=f"sample at {flag_hz:g} Hz next to a half-power "
                             "crossing is flagged"):
        pd.half_power_damping(pd.FRF(freqs, values), 200)


def _walked_half_power(mag, f, i):
    """Reference crossings, found by walking sample by sample away from the
    peak, plus the resolution, flagged-sample and higher-sample rules:
    (f_lo, f_hi), or the error class and the start of its message."""
    thr = mag[i] / np.sqrt(2.0)
    a = i
    while a > 0 and mag[a] >= thr:
        a -= 1
    if mag[a] >= thr:
        return InvalidInputError, "low-frequency"
    b = i
    while b < mag.size - 1 and mag[b] >= thr:
        b += 1
    if mag[b] >= thr:
        return InvalidInputError, "high-frequency"
    if a == i - 1 or b == i + 1:
        return InvalidInputError, f"peak at {f[i]:g} Hz not resolved"
    for s in (a + 1, b - 1):
        if np.isinf(mag[s]):
            return InvalidInputError, f"the sample at {f[s]:g} Hz"
    for s in range(a + 1, b):
        if mag[s] > mag[i]:
            return InvalidInputError, f"the sample at {f[s]:g} Hz lies above"
    f_lo = f[a] + (thr - mag[a]) * (f[a + 1] - f[a]) / (mag[a + 1] - mag[a])
    f_hi = f[b - 1] + (thr - mag[b - 1]) * (f[b] - f[b - 1]) / (mag[b] - mag[b - 1])
    return f_lo, f_hi


_LEVEL = 2.0 / np.sqrt(2.0)  # the half-power level of a peak of height 2


@st.composite
def _half_power_records(draw):
    """A peak of height 2 and samples around it drawn from levels just below,
    exactly at and just above its half-power level, below the peak, at it,
    above it and inf (nan, which the FRF stores as inf, stands for one too).
    Short records put crossings at either end."""
    near = [np.nextafter(_LEVEL, 0.0), _LEVEL, np.nextafter(_LEVEL, 3.0), 1.9,
            2.0]
    n = draw(st.integers(3, 16))
    i = draw(st.integers(1, n - 2))
    mag = draw(st.lists(st.sampled_from(near + [0.5, 0.5, 3.0, np.inf,
                                                np.nan]),
                        min_size=n, max_size=n))
    mag[i] = 2.0
    mag[i - 1], mag[i + 1] = draw(st.sampled_from(near)), draw(
        st.sampled_from(near))
    steps = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    return np.cumsum(steps), np.asarray(mag, dtype=complex), i


@settings(max_examples=500, deadline=None)
@given(_half_power_records())
# Samples at the level and an inf one inside the band, and both crossings at
# the record ends: the inf sample lies above the peak, so the band spans a
# higher peak and is refused.
@example((np.arange(1.0, 9.0), np.array(
    [0.5, _LEVEL, 1.9, 2.0, 1.9, np.inf, _LEVEL, 0.5],
    dtype=complex), 3))
def test_half_power_lookup_matches_the_walk(record):
    freqs, values, i = record
    frf = pd.FRF(freqs, values)
    expected = _walked_half_power(np.abs(frf.values), frf.freqs_hz, i)
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            pd.half_power_damping(frf, i)
        return
    try:
        pd.DampingEstimate(float(freqs[i]), 2.0, *map(float, expected))
    except InvalidInputError as exc:  # a band too wide
        with pytest.raises(InvalidInputError, match=re.escape(str(exc))):
            pd.half_power_damping(frf, i)
        return
    est = pd.half_power_damping(frf, i)
    assert (est.f_lo, est.f_hi) == expected


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


def test_half_power_refuses_a_band_that_spans_a_higher_peak():
    # A 62 Hz shoulder (zeta 0.3 %, residue 0.03) on a 60 Hz mode (zeta 2 %)
    # falls below its half-power level only past the 60 Hz peak. Its band
    # would span that peak and read about 4.2 % damping, 14 times its own.
    freqs = np.linspace(40.0, 80.0, 8001)
    plant = pd.ModalPlant(2.0 * np.pi * np.array([60.0, 62.0]), [0.02, 0.003],
                          [1.0, np.sqrt(0.03)])
    frf = pd.frf_of(pd.plant_system(plant), freqs)
    shoulder = int(np.argmin(np.abs(freqs - 62.06)))
    assert shoulder in _prominent_peaks(_db(np.abs(frf.values)), 0.0)
    peaks = pd.find_peaks(frf, (40.0, 80.0))
    assert [freqs[i] for i in peaks] == [pytest.approx(60.0, abs=0.1)]
    with pytest.raises(InvalidInputError,
                       match=r"^the sample at 58\.475 Hz lies above the peak "
                             r"at 62\.06 Hz inside its half-power band"):
        pd.half_power_damping(frf, shoulder)


@st.composite
def _modal_records(draw):
    """|H| of 1-4 modes on a uniform or logarithmic grid that holds some or
    all of them: close pairs, damping from 0.1 to 10 % and residues up to
    100 times apart."""
    lo = draw(st.floats(5.0, 100.0))
    hi = lo * draw(st.floats(1.1, 4.0))
    n = draw(st.integers(20, 1500))
    spacing = np.geomspace if draw(st.booleans()) else np.linspace
    freqs = spacing(lo, hi, n)
    modes = []
    for _ in range(draw(st.integers(1, 4))):
        if modes and draw(st.booleans()):  # close to the last one
            f = modes[-1][0] * (1.0 + draw(st.floats(-0.05, 0.05)))
        else:
            f = draw(st.floats(0.9 * lo, 1.1 * hi))
        modes.append((f, 10.0 ** draw(st.floats(-3.0, -1.0)),
                      10.0 ** draw(st.floats(-2.0, 0.0))))
    w = 2.0 * np.pi * freqs
    values = sum(r / ((2.0 * np.pi * f) ** 2 - w * w
                      + 2j * z * (2.0 * np.pi * f) * w) for f, z, r in modes)
    return pd.FRF(freqs, values)


@settings(max_examples=300, deadline=None)
@given(_modal_records())
def test_find_peaks_reports_the_peaks_a_half_power_estimate_reads(frf):
    # Both directions of the peak rule: a peak that find_peaks reports gives
    # an estimate whose band holds no sample above the peak, unless the grid
    # does not resolve it; an interior maximum that it leaves out gives none.
    db = _db(np.abs(frf.values))
    f = frf.freqs_hz
    reported = pd.find_peaks(frf, (f[0], f[-1]))
    for i in reported:
        try:
            est = pd.half_power_damping(frf, i)
        except InvalidInputError as exc:
            assert "not resolved" in str(exc)
            continue
        band = (f > est.f_lo) & (f < est.f_hi)
        assert db[band].max() <= db[i]
    for i in set(_prominent_peaks(db, 0.0).tolist()) - set(reported):
        with pytest.raises(InvalidInputError):
            pd.half_power_damping(frf, i)


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
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="center frequency"):
            pd.default_frequency_grid(bad)


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
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="gains must be finite"):
            pd.gain_sweep(plant, cfg, [1.0, bad])


def test_gain_sweep_logs_a_response_without_peaks(caplog):
    # A grid well below the mode holds a rising response without a peak: a
    # stable row without an estimate, and one warning that says why.
    plant = _sdof(75.0, 0.01)
    cfg = pd.PPFConfig(2.0 * np.pi * 76.7, 0.3)
    with caplog.at_level(logging.WARNING, logger="piezodamp"):
        rows = pd.gain_sweep(plant, cfg, [1.0],
                             freqs_hz=np.linspace(10.0, 30.0, 201))
    assert rows[0].stable and rows[0].estimate is None
    assert [r.getMessage() for r in caplog.records] == [
        "gain 1: no half-power estimate: no peak reaches the half-power "
        "level; widen the band"]


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


def test_frf_stores_every_non_finite_sample_as_inf():
    values = np.array([1 + 1j, np.nan, complex(np.inf, np.nan), 1j, 1.0])
    frf = pd.FRF(np.arange(1.0, 6.0), values)
    assert np.isnan(values[1])  # the caller's array is left as given
    assert frf.values[1] == frf.values[2] == complex(np.inf, 0.0)
    assert frf.flagged.tolist() == [False, True, True, False, False]
    # A nan would carry through the phase unwrap into every later sample.
    mag_db, phase = pd.bode_table(frf)
    assert np.isnan(phase[[1, 2]]).all()
    assert np.allclose(phase[[0, 3, 4]], [45.0, 90.0, 0.0])
