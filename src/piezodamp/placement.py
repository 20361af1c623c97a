"""Patch placement along the measurement line by exhaustive coupling scan.

Candidates are x_start = 0, step, 2*step, ... while the patch still fits;
the objective at each candidate is the weighted sum of per-mode coupling
factors. The placement is the one candidate that maximizes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .modal import ModalModel
from .piezo import (PatchGeometry, PiezoMaterial, _FIT_TOL,
                    coupling_coefficients, delta_thetas)

# The scan holds a few (candidates, modes) float tables and writes one
# scan.csv row per candidate: at this bound, place on a 20-mode beam peaks
# near 0.5 GB of memory and writes a 320 MB scan.csv.
_MAX_CANDIDATES = 10 ** 6


@dataclass
class PlacementProblem:
    """Inputs of a placement run; patch.x_start is ignored, the scan owns it."""

    model: ModalModel
    patch: PatchGeometry
    material: PiezoMaterial
    mode_weights: dict[int, float]
    step: float

    def __post_init__(self):
        _check_step(self.step)
        _check_mode_weights(self.mode_weights, self.model.n_modes)


def _check_step(step: float) -> None:
    """The candidate spacing is positive and finite."""
    if not 0.0 < step < np.inf:
        raise InvalidInputError("step must be positive and finite")


def _check_mode_weights(mode_weights: dict, n_modes: int) -> None:
    """Indices in 1..n_modes, weights finite and >= 0, one of them positive."""
    for idx, w in mode_weights.items():
        if idx not in range(1, n_modes + 1):
            raise InvalidInputError(
                f"mode_weights index {idx} is outside the modes 1..{n_modes}")
        if not 0.0 <= w < np.inf:
            raise InvalidInputError(
                f"mode_weights: weight of mode {idx} must be finite and >= 0")
    if not any(w > 0.0 for w in mode_weights.values()):
        raise InvalidInputError("mode_weights needs at least one positive weight")


@dataclass
class PlacementScan:
    """Objective table over the candidate grid, one row per x_start.

    ``k2`` holds every model mode as a column, weighted or not, so the table
    doubles as a coupling map of the structure.
    """

    x_starts: np.ndarray
    k2: np.ndarray
    objective: np.ndarray


@dataclass
class PlacementResult:
    """Scan row of the chosen position and the scan it was picked from."""

    row: int
    scan: PlacementScan

    @property
    def positions(self) -> list[float]:
        return [float(self.scan.x_starts[self.row])]

    @property
    def objective(self) -> float:
        return float(self.scan.objective[self.row])


def candidate_positions(problem: PlacementProblem) -> np.ndarray:
    """The scan grid 0, step, 2*step, ... limited to the starts where the
    patch fits by the float test that ``delta_thetas`` applies; a step that
    gives more than ``_MAX_CANDIDATES`` of them is refused before any array
    is built."""
    L = problem.model.length
    length = problem.patch.length
    fit = L + _FIT_TOL * L
    if length > fit:  # the start at 0 does not fit
        raise InvalidInputError(
            f"patch length {length:.12g} m exceeds the structure "
            f"length {L:.12g} m; no feasible position")
    last = np.floor((fit - length) / problem.step)
    if not last < _MAX_CANDIDATES:
        raise InvalidInputError(
            f"step {problem.step:g} m gives {last + 1:,.0f} candidate positions; "
            f"the scan takes at most {_MAX_CANDIDATES:,}")
    # One start past the estimated last fit, so its rounding cannot drop one.
    starts = problem.step * np.arange(int(last) + 2)
    return starts[starts + length <= fit]


def scan_objective(problem: PlacementProblem) -> PlacementScan:
    """Evaluate the weighted coupling objective at every candidate."""
    starts = candidate_positions(problem)
    dth = delta_thetas(problem.model, problem.patch.length, starts)
    coef = coupling_coefficients(problem.model, problem.patch, problem.material)
    k2 = coef * (dth * dth)
    w = np.zeros(problem.model.n_modes)
    for idx, weight in problem.mode_weights.items():
        w[idx - 1] = weight
    return PlacementScan(starts, k2, k2 @ w)


def optimize_placement(problem: PlacementProblem) -> PlacementResult:
    """The exact argmax of the scan; on ties the first maximum, which is the
    smallest x_start because the candidates ascend."""
    scan = scan_objective(problem)
    return PlacementResult(int(np.argmax(scan.objective)), scan)
