"""Piezoelectric patch data and the per-mode electromechanical coupling factor.

The coupling factor of mode i for a patch spanning [x_s, x_s + l] is

    K2_i = k31^2 / (1 - k31^2) * dtheta_i^2 / (mu_i w_i^2)
           * E_p b_p t_p z_m^2 / l

with dtheta_i the difference of the mode slope between the patch ends and
mu_i = 1 the modal mass, which the shape's normalization carries. The
open-circuit frequency follows as w_i sqrt(1 + K2_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError
from .modal import ModalModel, SOURCE_MEASURED, TWO_PI, _check_frequencies

# A patch fits when it overhangs the structure by at most this fraction of
# the structure length, which absorbs rounding in x_start + length.
_FIT_TOL = 1e-9


@dataclass
class PiezoMaterial:
    """Transverse-mode constants: strain coefficient d31 (C/N), short-circuit
    compliance s11E (1/Pa), permittivity at constant stress epsT (F/m)."""

    d31: float
    s11E: float
    epsT: float

    def __post_init__(self):
        if not 0.0 < self.s11E < np.inf:
            raise InvalidInputError("s11E must be positive and finite")
        if not 0.0 < self.epsT < np.inf:
            raise InvalidInputError("epsT must be positive and finite")
        k31_squared(self)

    @property
    def young_modulus(self) -> float:
        """Short-circuit Young's modulus, 1 / s11E."""
        return 1.0 / self.s11E


def k31_squared(mat: PiezoMaterial) -> float:
    """Material coupling factor d31^2 / (s11E epsT); must lie in [0, 1)."""
    k2 = mat.d31 * mat.d31 / (mat.s11E * mat.epsT)
    if not k2 < 1.0:
        raise InvalidInputError(
            f"d31^2/(s11E epsT) = {k2:g} is non-physical; it must be < 1")
    return k2


@dataclass
class PatchGeometry:
    """Patch dimensions (m) and its near-edge position along the structure.

    ``z_offset`` is the distance from the host neutral axis to the patch
    mid-plane.
    """

    length: float
    width: float
    thickness: float
    z_offset: float
    x_start: float = 0.0

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.length, self.width, self.thickness)):
            raise InvalidInputError("patch length, width and thickness must be positive and finite")
        if not 0.0 < self.z_offset < np.inf:
            raise InvalidInputError("z_offset must be positive and finite")
        if not 0.0 <= self.x_start < np.inf:
            raise InvalidInputError("x_start must be finite and >= 0")

    @classmethod
    def on_host(cls, length: float, width: float, thickness: float,
                host_thickness: float, x_start: float = 0.0) -> "PatchGeometry":
        """Surface-bonded patch: mid-plane sits (t_host + t_p)/2 off the
        neutral axis of a symmetric host of thickness t_host."""
        if not 0.0 < host_thickness < np.inf:
            raise InvalidInputError("host thickness must be positive and finite")
        return cls(length, width, thickness,
                   (host_thickness + thickness) / 2.0, x_start)


@dataclass
class CouplingResult:
    """Coupling of one mode for one patch position.

    ``relative`` marks results from unit-peak measured shapes, where only
    comparisons between positions are meaningful.
    """

    mode_index: int
    delta_theta: float
    k2: float
    omega_open: float
    relative: bool

    @property
    def f_open_hz(self) -> float:
        return self.omega_open / TWO_PI


def delta_thetas(model: ModalModel, patch_length: float,
                 x_starts) -> np.ndarray:
    """Slope difference across a patch at each candidate x_start, for every
    mode of the model; returns (n_starts, n_modes).

    Patch edges are evaluated by linear interpolation of theta. A patch that
    leaves the grid or spans less than one grid cell is rejected.
    """
    if not 0.0 < patch_length < np.inf:
        raise InvalidInputError(
            f"patch length must be positive and finite, got {patch_length:g}")
    x = model.grid
    starts = np.atleast_1d(np.asarray(x_starts, dtype=float))
    if starts.size == 0:
        raise InvalidInputError("no candidate positions given")
    if not np.all(np.isfinite(starts)):
        raise InvalidInputError(
            f"x_start = {starts[~np.isfinite(starts)][0]:g} m is not finite")
    L = model.length
    tol = _FIT_TOL * L
    outside = (starts < -tol) | (starts + patch_length > L + tol)
    if np.any(outside):
        i = int(np.flatnonzero(outside)[0])
        raise InvalidInputError(
            f"patch [{starts[i]:.12g}, {starts[i] + patch_length:.12g}] m "
            f"falls outside the 0..{L:.12g} m grid")
    ends = starts + patch_length
    cell_a = np.searchsorted(x, starts, side="right") - 1
    cell_e = np.searchsorted(x, ends, side="right") - 1
    same = cell_a == cell_e
    if np.any(same):
        i = int(np.flatnonzero(same)[0])
        raise InvalidInputError(
            f"patch of length {patch_length:g} m spans less than one grid cell "
            f"at x_start = {starts[i]:g} m; refine the grid or grow the patch")
    theta = np.vstack([m.theta for m in model.modes])
    return _kernels.delta_theta_scan(x, theta, starts, patch_length)


def coupling_coefficients(model: ModalModel, patch: PatchGeometry,
                          mat: PiezoMaterial) -> np.ndarray:
    """Position-independent multiplier c_i per mode, with K2_i = c_i dtheta_i^2.

    Raises an input error when a multiplier is not finite, which only absurd
    patch dimensions or material constants produce.
    """
    k2m = k31_squared(mat)
    try:
        geom = (mat.young_modulus * patch.width * patch.thickness
                * patch.z_offset ** 2 / patch.length)
    except OverflowError:
        geom = np.inf
    material_term = k2m / (1.0 - k2m)
    coef = np.array([material_term * geom / (m.omega * m.omega)
                     for m in model.modes])
    if not np.all(np.isfinite(coef)):
        raise InvalidInputError(
            f"coupling multiplier is not finite for a {patch.thickness:g} m "
            f"thick, {patch.width:g} m wide patch; check the patch and "
            "material data")
    return coef


def coupling_factor(model: ModalModel, patch: PatchGeometry,
                    mat: PiezoMaterial, mode_index: int) -> CouplingResult:
    """Coupling factor of one mode for the patch at patch.x_start."""
    m = model.mode(mode_index)
    dth_all = delta_thetas(model, patch.length, np.array([patch.x_start]))
    dth = float(dth_all[0, mode_index - 1])
    coef = coupling_coefficients(model, patch, mat)[mode_index - 1]
    k2 = coef * (dth * dth)
    omega_open = m.omega * np.sqrt(1.0 + k2)
    return CouplingResult(mode_index, dth, float(k2), float(omega_open),
                          model.source == SOURCE_MEASURED)


def coupling_from_frequencies(omega_short: float, omega_open: float) -> float:
    """Coupling factor from a measured short/open circuit frequency pair,
    (W^2 - w^2) / w^2."""
    _check_frequencies([omega_short, omega_open], "frequencies")
    if omega_open < omega_short:
        raise InvalidInputError(
            "open-circuit frequency below the short-circuit value is non-physical")
    return (omega_open * omega_open - omega_short * omega_short) / (
        omega_short * omega_short)
