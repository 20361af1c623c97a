"""Modal plant, positive position feedback controller, loop closure, stability.

The plant collects the selected modes as second-order sections driven by one
actuation input with influence b_i, sensed collocated as y = sum b_i x_i.
The controller is a damped second-order filter fed by y whose position state
is scaled by the gain and added back onto the plant input (positive feedback).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlantError, InvalidInputError, NumericalError
from .modal import ModalModel, TWO_PI
from .piezo import PatchGeometry, delta_thetas


@dataclass
class LinearSystem:
    """Real single-input single-output state-space model (A, B, C, D).

    B is n x 1, C is 1 x n and D is 1 x 1. The plant and the PPF filter are
    strictly proper (D = 0); D is kept so exports carry all four blocks.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise InvalidInputError("A must be square")
        if self.B.shape != (n, 1):
            raise InvalidInputError("B must be n x 1 (single-input)")
        if self.C.shape != (1, n):
            raise InvalidInputError("C must be 1 x n (single-output)")
        if self.D.shape != (1, 1):
            raise InvalidInputError("D must be 1 x 1")
        for name, mat in (("A", self.A), ("B", self.B), ("C", self.C),
                          ("D", self.D)):
            if mat.size and not np.all(np.isfinite(mat)):
                raise InvalidInputError(f"{name} contains non-finite entries")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]


@dataclass
class ModalPlant:
    """Per-mode frequency (rad/s), damping ratio, and actuation influence.

    Undamped modes (zeta_i = 0) are allowed, and g* = 1 / G(0) holds with
    them (see ``critical_gain``): PPF damps such a mode through its
    influence b_i. A mode with b_i = 0 is neither actuated nor sensed, so it
    is left undamped at every gain when zeta_i = 0, and then no gain makes
    the closed loop asymptotically stable.
    """

    omegas: np.ndarray
    zetas: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        self.zetas = np.atleast_1d(np.asarray(self.zetas, dtype=float))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if not (self.omegas.shape == self.zetas.shape == self.b.shape):
            raise InvalidInputError("omegas, zetas and b must have equal length")
        if self.omegas.size == 0:
            raise InvalidInputError("plant needs at least one mode")
        if np.any(self.omegas <= 0.0):
            raise InvalidInputError("plant frequencies must be positive")
        if np.any((self.zetas < 0.0) | (self.zetas >= 1.0)):
            raise InvalidInputError("plant damping ratios must lie in [0, 1)")
        if not np.all(np.isfinite(self.b)):
            raise InvalidInputError("influence coefficients must be finite")

    @property
    def n_modes(self) -> int:
        return self.omegas.size


@dataclass
class PPFConfig:
    """Filter frequency (rad/s), filter damping ratio, and feedback gain."""

    omega_f: float
    zeta_f: float
    gain: float = 0.0

    def __post_init__(self):
        if self.omega_f <= 0.0:
            raise InvalidInputError("filter frequency must be positive")
        if not 0.0 < self.zeta_f < 1.0:
            raise InvalidInputError("filter damping must lie in (0, 1)")
        if self.gain < 0.0:
            raise InvalidInputError("gain must be >= 0")

    @classmethod
    def from_hz(cls, freq_hz: float, zeta_f: float,
                gain: float = 0.0) -> "PPFConfig":
        return cls(TWO_PI * freq_hz, zeta_f, gain)


def plant_system(plant: ModalPlant) -> LinearSystem:
    """Realize the plant with states (x_i, xdot_i) per mode, input u, and the
    collocated output y = sum b_i x_i."""
    n = plant.n_modes
    A = np.zeros((2 * n, 2 * n))
    B = np.zeros((2 * n, 1))
    C = np.zeros((1, 2 * n))
    for i in range(n):
        w = plant.omegas[i]
        A[2 * i, 2 * i + 1] = 1.0
        A[2 * i + 1, 2 * i] = -w * w
        A[2 * i + 1, 2 * i + 1] = -2.0 * plant.zetas[i] * w
        B[2 * i + 1, 0] = plant.b[i]
        C[0, 2 * i] = plant.b[i]
    return LinearSystem(A, B, C, np.zeros((1, 1)))


def build_plant(model: ModalModel, patch: PatchGeometry,
                selected_modes) -> ModalPlant:
    """Plant over the selected mode indices with influences b_i, the slope
    differences across the patch at patch.x_start, normalized so the
    strongest-coupled mode has |b| = 1. The patch material only scales the
    loop gain, so it does not enter.

    Raises a degenerate-plant error when every selected mode has zero slope
    difference across the patch (nothing is controllable).
    """
    modes = [model.mode(i) for i in selected_modes]
    if not modes:
        raise InvalidInputError("selected_modes must not be empty")
    dth = delta_thetas(model, patch.length, [patch.x_start])[0]
    dth = dth[[i - 1 for i in selected_modes]]
    peak = float(np.max(np.abs(dth)))
    if peak == 0.0:
        raise DegeneratePlantError(
            "every selected mode has zero slope difference across the patch")
    return ModalPlant(np.array([m.omega for m in modes]),
                      np.array([m.zeta for m in modes]), dth / peak)


def ppf_controller(cfg: PPFConfig) -> LinearSystem:
    """Second-order filter driven by the plant output; its position state,
    scaled by the gain, is the actuation command. DC gain equals the gain."""
    wf = cfg.omega_f
    A = np.array([[0.0, 1.0], [-wf * wf, -2.0 * cfg.zeta_f * wf]])
    B = np.array([[0.0], [wf * wf]])
    C = np.array([[cfg.gain, 0.0]])
    return LinearSystem(A, B, C, np.zeros((1, 1)))


def close_loop(plant_sys: LinearSystem, ctrl_sys: LinearSystem) -> LinearSystem:
    """Positive feedback interconnection of two strictly proper systems.

    The controller is driven by the plant output y = Cp xp; the plant input
    is the controller output Cc xc plus an external disturbance d. The
    result maps d to y.
    """
    if plant_sys.D[0, 0] != 0.0 or ctrl_sys.D[0, 0] != 0.0:
        raise InvalidInputError(
            "close_loop needs strictly proper systems (D = 0)")
    Ap, Bp, Cp = plant_sys.A, plant_sys.B, plant_sys.C
    Ac, Bc, Cc = ctrl_sys.A, ctrl_sys.B, ctrl_sys.C
    A = np.block([[Ap, Bp @ Cc], [Bc @ Cp, Ac]])
    B = np.vstack([Bp, np.zeros((ctrl_sys.n_states, 1))])
    C = np.hstack([Cp, np.zeros((1, ctrl_sys.n_states))])
    return LinearSystem(A, B, C, np.zeros((1, 1)))


def stability(sys: LinearSystem, tol_margin: float | None = None) -> bool:
    """True when every eigenvalue of A has real part below -tol_margin.

    The default margin 1e-9 * max|A| keeps eigensolver roundoff on lightly
    damped poles from flipping the verdict; pass 0 for a raw comparison.
    """
    A = sys.A
    if A.shape[0] == 0:
        return True
    try:
        ev = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solve failed: {exc}") from exc
    max_re = float(np.max(ev.real))
    if tol_margin is None:
        tol_margin = 1e-9 * float(np.max(np.abs(A)))
    return max_re < -float(tol_margin)


def critical_gain(plant: ModalPlant, cfg: PPFConfig) -> float:
    """Smallest gain that destabilizes the closed loop: g* = 1 / G(0) =
    1 / sum(b_i^2 / omega_i^2).

    A collocated modal plant is negative imaginary and the PPF filter is a
    strictly negative imaginary system of static gain g, so the loop is
    unstable for every g > g* and asymptotically stable for 0 < g < g*
    (Fanson & Caughey, AIAA J. 1990; Lanzon & Petersen, IEEE TAC 2008).
    This holds for every zeta_i >= 0 and depends on neither the filter
    frequency nor its damping, so ``cfg`` is ignored. The one exception is a
    mode with b_i = 0: it does not enter g* and keeps its open-loop damping
    at every gain, so an undamped one leaves the loop marginally stable at
    best (see ``ModalPlant``).
    """
    if not np.any(plant.b != 0.0):
        raise DegeneratePlantError("plant has no controllable mode")
    return float(1.0 / np.sum(plant.b * plant.b
                              / (plant.omegas * plant.omegas)))
