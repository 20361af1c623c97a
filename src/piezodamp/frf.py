"""Frequency responses, measured FRF files, peak picking, half-power damping,
and PPF gain sweeps."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import BandwidthError, InvalidInputError, ParseError
from .modal import TWO_PI, _read_csv
from .ppf import (LinearSystem, ModalPlant, PPFConfig, close_loop,
                  plant_system, ppf_controller, stability)

log = logging.getLogger(__name__)


@dataclass
class FRF:
    """Complex response samples on a strictly increasing frequency grid (Hz).

    ``flagged`` marks samples where the underlying solve was singular; those
    hold inf and are excluded from every estimate.
    """

    freqs_hz: np.ndarray
    values: np.ndarray
    flagged: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.freqs_hz = f = _grid(self.freqs_hz)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != f.shape:
            raise InvalidInputError("values and frequencies must have equal length")
        if self.flagged is None:
            self.flagged = np.zeros(f.size, dtype=bool)
        else:
            self.flagged = np.asarray(self.flagged, dtype=bool)
            if self.flagged.shape != f.shape:
                raise InvalidInputError("flag array must match the grid length")
        ok = np.isfinite(self.values.real) & np.isfinite(self.values.imag)
        if np.any(~ok & ~self.flagged):
            raise InvalidInputError("non-finite response at an unflagged sample")


def frf_of(sys: LinearSystem, freqs_hz) -> FRF:
    """Frequency response C (jw I - A)^-1 B + D, one linear solve per point.

    A singular point (an exactly undamped resonance hit head-on) is flagged
    and the evaluation continues.
    """
    f = _grid(freqs_hz)
    vals, flagged = _kernels.frf_solve(sys.A, sys.B[:, 0], sys.C[0],
                                       sys.D[0, 0], TWO_PI * f)
    return FRF(f, vals, flagged)


def closed_loop_frf(plant: ModalPlant, cfg: PPFConfig, freqs_hz) -> FRF:
    """Response H = G / (1 - G K) from the disturbance to the plant output
    of the collocated modal plant G(jw) = sum b_i^2 / (w_i^2 - w^2 +
    2j zeta_i w_i w) under the PPF filter K(jw) = g w_f^2 / (w_f^2 - w^2 +
    2j zeta_f w_f w).

    This is the response ``frf_of(close_loop(plant_system(plant),
    ppf_controller(cfg)), freqs_hz)`` computes, in a few vectorized
    operations instead of one linear solve per point. A grid point that
    hits an undamped mode (zeta_i = 0) exactly takes the limit -1 / K of
    G -> inf; it is flagged when g = 0 or when b_i = 0, where the loop has
    a pole on that point.
    """
    f = _grid(freqs_hz)
    w = TWO_PI * f
    w2 = w * w
    G = np.zeros(f.size, dtype=complex)
    on_pole = np.zeros(f.size, dtype=bool)  # G -> inf
    fixed_pole = np.zeros(f.size, dtype=bool)  # a pole no gain moves
    with np.errstate(divide="ignore", invalid="ignore"):
        for wi, zi, bi in zip(plant.omegas.tolist(), plant.zetas.tolist(),
                              plant.b.tolist()):
            den = (wi * wi - w2) + 2j * zi * wi * w
            G += bi * bi / den
            if zi == 0.0:
                hit = den == 0.0
                on_pole |= hit
                if bi == 0.0:
                    fixed_pole |= hit
        wf = cfg.omega_f
        K = cfg.gain * wf * wf / ((wf * wf - w2) + 2j * cfg.zeta_f * wf * w)
        H = G / (1.0 - G * K)
        H[on_pole] = -1.0 / K[on_pole]
    H[fixed_pole] = np.inf
    flagged = ~(np.isfinite(H.real) & np.isfinite(H.imag))
    H[flagged] = np.inf
    return FRF(f, H, flagged)


def _grid(freqs_hz) -> np.ndarray:
    f = np.asarray(freqs_hz, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise InvalidInputError("need at least two frequency points")
    if f[0] <= 0.0 or np.any(np.diff(f) <= 0.0):
        raise InvalidInputError("frequencies must be positive and strictly increasing")
    return f


def load_frf_csv(path) -> FRF:
    """Read a measured FRF from CSV.

    The header selects the format: ``freq_hz,real,imag`` or
    ``freq_hz,mag,phase_deg``. Blank and ``#`` lines are skipped. Errors
    name the offending line.
    """
    def check_header(header):
        if header not in (["freq_hz", "real", "imag"], ["freq_hz", "mag", "phase_deg"]):
            raise ParseError(
                f"{path}: header must be 'freq_hz,real,imag' or "
                f"'freq_hz,mag,phase_deg', got {','.join(header)!r}")

    header, data = _read_csv(path, check_header, min_rows=2)
    freqs = data[:, 0].copy()
    if header[1] == "mag":
        vals = data[:, 1] * np.exp(1j * np.radians(data[:, 2]))
    else:  # (real, imag) pairs are the memory layout of complex128
        vals = data[:, 1:].copy().view(complex)[:, 0]
    if freqs[0] <= 0.0 or np.any(np.diff(freqs) <= 0.0):
        raise ParseError(
            f"{path}: freq_hz must be positive and strictly increasing")
    return FRF(freqs, vals)


def find_peaks(frf: FRF, band_hz, min_prominence_db: float = 3.0) -> list[int]:
    """Indices of interior local maxima of |H| inside the band whose
    prominence on the dB scale reaches the threshold.

    Record boundaries are never reported as peaks. Flagged samples inside
    the band are rejected; re-run the response on a shifted grid instead.
    """
    if not 0.0 < min_prominence_db < np.inf:
        raise InvalidInputError(
            f"min_prominence_db must be positive and finite, got "
            f"{min_prominence_db:g}")
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
    peaks = _prominent_peaks(_db(np.abs(frf.values)), min_prominence_db)
    return [int(i) for i in peaks if in_band[i]]


def _db(mag):
    """|H| in dB, the scale ``find_peaks`` compares samples on."""
    return 20.0 * np.log10(np.maximum(mag, 1e-300))


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
        if self.peak_mag <= 0.0:
            raise InvalidInputError("peak magnitude must be positive")
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

    Crossings of |H_peak|/sqrt(2) are located by linear interpolation of the
    magnitude between the bracketing samples on each side.
    """
    mag = np.abs(frf.values)
    f = frf.freqs_hz
    i = int(peak_index)
    if not 0 < i < mag.size - 1:
        raise InvalidInputError("peak index must be interior to the record")
    if frf.flagged[i]:
        raise InvalidInputError(f"sample {i} is flagged as singular")
    # On find_peaks' scale and with >= on both sides, so the middle sample
    # it reports of a flat top passes, also when magnitudes parsed from a
    # (mag, phase) record differ in the last bit.
    before, top, after = _db(mag[i - 1:i + 2])
    if not (top >= before and top >= after):
        raise InvalidInputError(f"sample {i} is not a local maximum")
    peak = float(mag[i])
    thr = peak / np.sqrt(2.0)
    a = i
    while a > 0 and mag[a] >= thr:
        a -= 1
    if mag[a] >= thr:
        raise BandwidthError(
            "low-frequency half-power crossing lies outside the record")
    f_lo = f[a] + (thr - mag[a]) * (f[a + 1] - f[a]) / (mag[a + 1] - mag[a])
    b = i
    while b < mag.size - 1 and mag[b] >= thr:
        b += 1
    if mag[b] >= thr:
        raise BandwidthError(
            "high-frequency half-power crossing lies outside the record")
    f_hi = f[b - 1] + (thr - mag[b - 1]) * (f[b] - f[b - 1]) / (mag[b] - mag[b - 1])
    return DampingEstimate(float(f[i]), peak, float(f_lo), float(f_hi))


def default_frequency_grid(center_hz: float) -> np.ndarray:
    """Uniform 2001-point grid over [0.8, 1.2] times the target frequency."""
    if center_hz <= 0.0:
        raise InvalidInputError("center frequency must be positive")
    return np.linspace(0.8 * center_hz, 1.2 * center_hz, 2001)


@dataclass
class SweepRow:
    """One gain of a sweep. The closed-loop response is None exactly for
    unstable loops; the estimate is None for unstable loops and for stable
    loops whose response has no peak a half-power estimate can be read from.

    A stable row keeps its whole closed-loop ``FRF`` (values and flags on the
    sweep grid) for as long as the row lives, so a sweep's rows hold about
    gains x grid points complex values.
    """

    gain: float
    estimate: DampingEstimate | None
    response: FRF | None

    @property
    def stable(self) -> bool:
        return self.response is not None


def gain_sweep(plant: ModalPlant, cfg: PPFConfig, gains, freqs_hz=None,
               min_prominence_db: float = 1.0) -> list[SweepRow]:
    """Close the loop at each gain and report the dominant in-band peak.

    Stable rows carry the closed-loop response and a half-power estimate of
    its dominant in-band peak, or None with a logged warning when no peak
    yields one; unstable rows are flagged and skipped. The grid defaults to
    2001 points over [0.8, 1.2] times the frequency of the plant mode
    closest to the filter.
    The gain of ``cfg`` is ignored in favour of the swept values. Every
    stable row's response is kept on ``SweepRow.response``, so memory grows
    with the number of gains times the grid length.
    """
    gain_list = [float(g) for g in gains]
    if not gain_list:
        raise InvalidInputError("at least one gain is required")
    if any(g < 0.0 for g in gain_list):
        raise InvalidInputError("gains must be >= 0")
    if any(b <= a for a, b in zip(gain_list, gain_list[1:])):
        raise InvalidInputError("gains must be strictly increasing")
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
        try:
            peaks = find_peaks(resp, (resp.freqs_hz[0], resp.freqs_hz[-1]),
                               min_prominence_db)
            if not peaks:
                raise InvalidInputError(
                    "no resonance peak found; widen the band or lower the "
                    "prominence threshold")
            mag = np.abs(resp.values)
            best = max(peaks, key=lambda k: mag[k])
            estimate = half_power_damping(resp, best)
        except (InvalidInputError, BandwidthError) as exc:
            log.warning("gain %g: no half-power estimate: %s", g, exc)
            estimate = None
        rows.append(SweepRow(g, estimate, resp))
    return rows


def bode_table(frf: FRF):
    """Magnitude (dB) and unwrapped phase (deg) columns for export.

    Flagged samples come back as nan in both columns.
    """
    mag = np.abs(frf.values)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(mag)
    phase = np.degrees(np.unwrap(np.angle(frf.values)))
    if np.any(frf.flagged):
        mag_db = mag_db.copy()
        phase = phase.copy()
        mag_db[frf.flagged] = np.nan
        phase[frf.flagged] = np.nan
    return mag_db, phase
