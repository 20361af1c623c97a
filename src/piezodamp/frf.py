"""Frequency responses, measured FRF files, peak picking, half-power damping,
and PPF gain sweeps."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import InvalidInputError, ParseError
from .modal import TWO_PI, _read_csv, _refuse_rows
from .ppf import (LinearSystem, ModalPlant, PPFConfig, close_loop,
                  plant_system, ppf_controller, stability)

log = logging.getLogger(__name__)


@dataclass
class FRF:
    """Complex response samples on a strictly increasing frequency grid (Hz).

    A non-finite sample, stored as inf + 0j (the value ``bode_table``'s
    unwrap and the half-power lookup rely on), marks a singular solve; it is
    ``flagged`` and excluded from every estimate.
    """

    freqs_hz: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.freqs_hz = f = _grid(self.freqs_hz)
        v = np.asarray(self.values, dtype=complex)
        if v.shape != f.shape:
            raise InvalidInputError("values and frequencies must have equal length")
        bad = ~np.isfinite(v)
        self.values = np.where(bad, np.inf, v) if bad.any() else v

    @property
    def flagged(self) -> np.ndarray:
        """True at the samples that hold no finite response."""
        return ~np.isfinite(self.values)


def frf_of(sys: LinearSystem, freqs_hz) -> FRF:
    """Frequency response C (jw I - A)^-1 B, one linear solve per point.

    A singular point (an exactly undamped resonance hit head-on) comes back
    as inf and the evaluation continues.
    """
    f = _grid(freqs_hz)
    return FRF(f, _kernels.frf_solve(sys.A, sys.B[:, 0], sys.C[0], 0.0,
                                     TWO_PI * f))


def closed_loop_frf(plant: ModalPlant, cfg: PPFConfig, freqs_hz) -> FRF:
    """Response H = G / (1 - G K) from the disturbance to the plant output
    of the collocated modal plant G(jw) = sum b_i^2 / (w_i^2 - w^2 +
    2j zeta_i w_i w) under the PPF filter K(jw) = g w_f^2 / (w_f^2 - w^2 +
    2j zeta_f w_f w).

    This is the response ``frf_of(close_loop(plant_system(plant),
    ppf_controller(cfg)), freqs_hz)`` computes, in a few vectorized
    operations instead of one linear solve per point. A grid point that
    hits an undamped mode (zeta_i = 0) exactly takes the limit -1 / K of
    G -> inf; it is inf when g = 0 or when b_i = 0, where the loop has a
    pole on that point.
    """
    f = _grid(freqs_hz)
    w = TWO_PI * f
    w2 = w * w
    G = np.zeros(f.size, dtype=complex)
    on_pole = np.zeros(f.size, dtype=bool)  # G -> inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for wi, zi, bi in zip(plant.omegas.tolist(), plant.zetas.tolist(),
                              plant.b.tolist()):
            den = (wi * wi - w2) + 2j * zi * wi * w
            G += bi * bi / den
            # A hit with b_i = 0 makes G 0/0 = nan, which FRF stores as inf.
            if zi == 0.0 and bi != 0.0:
                on_pole |= den == 0.0
        wf = cfg.omega_f
        K = cfg.gain * wf * wf / ((wf * wf - w2) + 2j * cfg.zeta_f * wf * w)
        H = G / (1.0 - G * K)
        H[on_pole] = -1.0 / K[on_pole]
    return FRF(f, H)


def _check_point_count(n: int) -> None:
    """A frequency grid needs two points, so it spans a band."""
    if n < 2:
        raise InvalidInputError("need at least two frequency points")


def _grid(freqs_hz) -> np.ndarray:
    f = np.asarray(freqs_hz, dtype=float)
    _check_point_count(f.size if f.ndim == 1 else 0)
    if not (0.0 < f[0] and np.all(np.diff(f) > 0.0) and f[-1] < np.inf):
        raise InvalidInputError("frequencies must be positive, finite and strictly increasing")
    return f


def load_frf_csv(path) -> FRF:
    """Read a measured FRF from CSV.

    The header selects the format: ``freq_hz,real,imag`` or
    ``freq_hz,mag,phase_deg``, with ``mag`` a linear magnitude >= 0 (not
    dB). Blank and ``#`` lines are skipped. Errors name the offending line.
    """
    def check_header(header):
        if header not in (["freq_hz", "real", "imag"], ["freq_hz", "mag", "phase_deg"]):
            raise ParseError(
                f"{path}: header must be 'freq_hz,real,imag' or "
                f"'freq_hz,mag,phase_deg', got {','.join(header)!r}")

    header, data = _read_csv(path, check_header, min_rows=2)
    freqs = data[:, 0].copy()
    if header[1] == "mag":
        _refuse_rows(path, "mag must be a linear magnitude >= 0, not dB",
                     data[:, 1] < 0.0)
        vals = data[:, 1] * np.exp(1j * np.radians(data[:, 2]))
    else:  # (real, imag) pairs are the memory layout of complex128
        vals = data[:, 1:].copy().view(complex)[:, 0]
    # The first difference from 0 Hz is the first frequency itself.
    _refuse_rows(path, "freq_hz must be positive and strictly increasing",
                 np.diff(freqs, prepend=0.0) <= 0.0)
    return FRF(freqs, vals)


def find_peaks(frf: FRF, band_hz) -> list[int]:
    """Indices of the interior local maxima of |H| inside the band that a
    half-power estimate can be read from: those whose prominence on the dB
    scale reaches the half-power level, |H| over sqrt 2 or 3.01 dB.

    Below that level one half-power crossing lies past the record end or past
    a higher sample. Record boundaries are never reported as peaks. Flagged
    samples inside the band are rejected; re-run the response on a shifted
    grid instead.
    """
    lo, hi = float(band_hz[0]), float(band_hz[1])
    f = frf.freqs_hz
    if lo >= hi:
        raise InvalidInputError(f"band [{lo:g}, {hi:g}] Hz is empty")
    if hi < f[0] or lo > f[-1]:
        raise InvalidInputError(
            f"band [{lo:g}, {hi:g}] Hz lies outside the record "
            f"[{f[0]:g}, {f[-1]:g}] Hz")
    in_band = (f >= lo) & (f <= hi)
    if not np.any(in_band):
        raise InvalidInputError(
            f"band [{lo:g}, {hi:g}] Hz contains no grid points")
    if np.any(frf.flagged & in_band):
        raise InvalidInputError(
            "the band contains flagged (singular) samples; re-evaluate the "
            "response on a shifted grid")
    peaks = _prominent_peaks(_db(np.abs(frf.values)), _HALF_POWER_DB)
    return [int(i) for i in peaks if in_band[i]]


def _db(mag):
    """|H| in dB, -inf at zero: the scale of ``find_peaks`` and Bode tables."""
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag)


# The half-power level below a peak in dB, |H| over sqrt 2 or 3.01 dB:
# the least prominence of a peak that ``find_peaks`` reports.
_HALF_POWER_DB = float(_db(np.sqrt(2.0)))


def _prominent_peaks(x, min_prominence: float) -> np.ndarray:
    """Indices of the interior local maxima of ``x`` whose prominence reaches
    ``min_prominence``, as ``scipy.signal.find_peaks(x, prominence=...)``
    defines them.

    A flat top is reported at its middle sample (rounded down) and dropped
    when it touches either end of the record. Each side's base is the lowest
    sample between the peak and the nearest strictly higher sample on that
    side, or the record end; the prominence is the peak height above the
    higher of the two bases.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        return np.empty(0, dtype=np.intp)
    steps = np.flatnonzero(x[1:] != x[:-1])  # step k goes from k to k + 1
    top = ((x[steps[:-1] + 1] > x[steps[:-1]])
           & (x[steps[1:] + 1] < x[steps[1:]]))
    last = steps[1:][top]
    peaks = (steps[:-1][top] + 1 + last) // 2
    # A nan sample ends a base search like a higher sample would.
    y = np.where(np.isnan(x), np.inf, x)
    # Hill tops (the right end of a flat one) plus both record ends: between
    # two consecutive ones the record falls and then rises, so the lowest
    # sample on either side of a peak, up to the nearest higher hill, is the
    # lowest of the valleys passed on the way there.
    inner = y[1:-1]
    hills = np.flatnonzero(np.r_[True, (inner >= y[:-2]) & (inner > y[2:]),
                                 True])
    heights = y[hills].tolist()
    left = _lowest_since_higher(
        heights, [y[0]] + np.minimum.reduceat(y, hills[:-1] + 1).tolist())
    right = _lowest_since_higher(
        heights[::-1], np.minimum.reduceat(y, hills)[::-1].tolist())[::-1]
    k = np.searchsorted(hills, last)
    base = np.maximum(np.asarray(left)[k], np.asarray(right)[k])
    return peaks[x[peaks] - base >= min_prominence]


def _lowest_since_higher(heights: list, lows: list) -> list:
    """For each hill, the lowest sample since the nearest strictly higher
    hill before it (or the record start), where ``lows[k]`` is the lowest
    sample after hill k - 1 up to hill k. One monotonic-stack pass."""
    out = []
    # A nan sentinel compares false with every height, so it is never popped.
    stack_heights, stack_lows = [np.nan], [np.nan]
    for h, low in zip(heights, lows):
        while stack_heights[-1] <= h:
            stack_heights.pop()
            popped = stack_lows.pop()
            if popped < low:
                low = popped
        out.append(low)
        stack_heights.append(h)
        stack_lows.append(low)
    return out


@dataclass
class DampingEstimate:
    """Half-power metrics of one resonance peak.

    Q is f_peak over the half-power bandwidth; the damping ratio is defined
    as 1/(2 Q) exactly.
    """

    f_peak: float
    peak_mag: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.f_lo < self.f_peak < self.f_hi:
            raise InvalidInputError(
                "half-power frequencies must bracket the peak")
        if not 0.0 < self.peak_mag < np.inf:
            raise InvalidInputError("peak magnitude must be positive and finite")
        if self.q_factor <= 0.5:
            raise InvalidInputError(
                f"Q = {self.q_factor:g} <= 0.5; the peak is not a resonance")

    @property
    def q_factor(self) -> float:
        return self.f_peak / (self.f_hi - self.f_lo)

    @property
    def zeta(self) -> float:
        return 1.0 / (2.0 * self.q_factor)

    @property
    def damping_pct(self) -> float:
        return 100.0 * self.zeta


def half_power_damping(frf: FRF, peak_index: int) -> DampingEstimate:
    """Half-power (-3 dB) bandwidth metrics around one interior peak.

    One lookup finds the nearest sample below |H_peak|/sqrt(2) on each side
    of the peak; one exactly at that level, or inf, counts as above it. Each
    crossing is interpolated linearly towards the peak from a sample that must
    not be flagged. A side with no other sample above the level is not
    resolved, and a band that holds a sample above the peak spans a higher
    peak; both raise ``InvalidInputError``.
    """
    mag = np.abs(frf.values)
    f = frf.freqs_hz
    i = int(peak_index)
    if not 0 < i < mag.size - 1:
        raise InvalidInputError("peak index must be interior to the record")
    if not np.isfinite(frf.values[i]):
        raise InvalidInputError(f"sample {i} is flagged as singular")
    # On find_peaks' scale and with >= on both sides, so the middle sample
    # it reports of a flat top passes, also when magnitudes parsed from a
    # (mag, phase) record differ in the last bit.
    before, top, after = _db(mag[i - 1:i + 2])
    if not (top >= before and top >= after):
        raise InvalidInputError(f"sample {i} is not a local maximum")
    peak = float(mag[i])
    thr = peak / np.sqrt(2.0)
    below = np.flatnonzero(mag < thr)
    k = int(np.searchsorted(below, i))
    if k == 0:
        raise InvalidInputError(
            "low-frequency half-power crossing lies outside the record")
    if k == below.size:
        raise InvalidInputError(
            "high-frequency half-power crossing lies outside the record")
    a, b = below[k - 1], below[k]
    if a == i - 1 or b == i + 1:
        raise InvalidInputError(
            f"peak at {f[i]:g} Hz not resolved; refine the frequency grid")
    for s in (a + 1, b - 1):  # the samples each crossing interpolates from
        if np.isinf(mag[s]):
            raise InvalidInputError(
                f"the sample at {f[s]:g} Hz next to a half-power crossing is "
                "flagged (singular); re-evaluate the response on a shifted grid")
    higher = np.flatnonzero(_db(mag[a + 1:b]) > top)  # on find_peaks' scale
    if higher.size:
        raise InvalidInputError(
            f"the sample at {f[a + 1 + higher[0]]:g} Hz lies above the peak at "
            f"{f[i]:g} Hz inside its half-power band; the band spans a higher "
            "peak")
    f_lo = f[a] + (thr - mag[a]) * (f[a + 1] - f[a]) / (mag[a + 1] - mag[a])
    f_hi = f[b - 1] + (thr - mag[b - 1]) * (f[b] - f[b - 1]) / (mag[b] - mag[b - 1])
    return DampingEstimate(float(f[i]), peak, float(f_lo), float(f_hi))


def default_frequency_grid(center_hz: float) -> np.ndarray:
    """Uniform 2001-point grid over [0.8, 1.2] times the target frequency."""
    if not 0.0 < center_hz < np.inf:
        raise InvalidInputError("center frequency must be positive and finite")
    return np.linspace(0.8 * center_hz, 1.2 * center_hz, 2001)


@dataclass
class SweepRow:
    """One gain of a sweep. The closed-loop response is None exactly for
    unstable loops; the estimate is None for unstable loops and for stable
    loops whose response has no peak a half-power estimate can be read from.

    A stable row keeps its whole closed-loop ``FRF`` (its values on the sweep
    grid) for as long as the row lives, so a sweep's rows hold about
    gains x grid points complex values.
    """

    gain: float
    estimate: DampingEstimate | None
    response: FRF | None

    @property
    def stable(self) -> bool:
        return self.response is not None


def gain_sweep(plant: ModalPlant, cfg: PPFConfig, gains,
               freqs_hz=None) -> list[SweepRow]:
    """Close the loop at each gain and report the dominant in-band peak.

    Stable rows carry the closed-loop response and a half-power estimate of
    its highest peak that ``find_peaks`` reports, or None with a logged
    warning when there is none or it yields no estimate; unstable rows are
    flagged and skipped. The grid defaults to 2001 points over [0.8, 1.2]
    times the frequency of the plant mode closest to the filter. The gain of
    ``cfg`` is ignored in favour of the swept values; ``SweepRow`` says what
    each row keeps in memory.
    """
    gain_list = [float(g) for g in gains]
    if not gain_list:
        raise InvalidInputError("at least one gain is required")
    _check_gains(gain_list)
    if freqs_hz is None:
        nearest = plant.omegas[np.argmin(np.abs(plant.omegas - cfg.omega_f))]
        freqs_hz = default_frequency_grid(nearest / TWO_PI)
    psys = plant_system(plant)
    rows = []
    for g in gain_list:
        loop = replace(cfg, gain=g)
        if not stability(close_loop(psys, ppf_controller(loop))):
            rows.append(SweepRow(g, None, None))
            continue
        resp = closed_loop_frf(plant, loop, freqs_hz)
        estimate = None
        try:
            peaks = find_peaks(resp, (resp.freqs_hz[0], resp.freqs_hz[-1]))
            if not peaks:
                log.warning("gain %g: no half-power estimate: no peak reaches "
                            "the half-power level; widen the band", g)
            else:
                mag = np.abs(resp.values)
                estimate = half_power_damping(resp, max(peaks, key=lambda k: mag[k]))
        except InvalidInputError as exc:
            log.warning("gain %g: no half-power estimate: %s", g, exc)
        rows.append(SweepRow(g, estimate, resp))
    return rows


def _check_gains(gains: list[float]) -> None:
    if not all(0.0 <= g < np.inf for g in gains):
        raise InvalidInputError("gains must be finite and >= 0")
    if any(b <= a for a, b in zip(gains, gains[1:])):
        raise InvalidInputError("gains must be strictly increasing")


def bode_table(frf: FRF):
    """Magnitude (dB) and unwrapped phase (deg) columns for export.

    Flagged samples come back as nan in both columns.
    """
    mag_db = _db(np.abs(frf.values))
    phase = np.degrees(np.unwrap(np.angle(frf.values)))
    flagged = frf.flagged
    mag_db[flagged] = phase[flagged] = np.nan
    return mag_db, phase
