"""Patch placement along the measurement line by exhaustive coupling scan.

Candidates are x_start = 0, step, 2*step, ... while the patch still fits;
the objective at each candidate is the weighted sum of per-mode coupling
factors. Multiple patches are chosen greedily, best candidate first, under
a pairwise centre-to-centre clearance of patch length plus ``min_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PlacementError
from .modal import ModalModel
from .piezo import (PatchGeometry, PiezoMaterial, coupling_coefficients,
                    delta_thetas)


@dataclass
class PlacementProblem:
    """Inputs of a placement run; patch.x_start is ignored, the scan owns it."""

    model: ModalModel
    patch: PatchGeometry
    material: PiezoMaterial
    mode_weights: dict[int, float]
    step: float
    n_patches: int = 1
    min_gap: float = 0.0

    def __post_init__(self):
        if self.step <= 0.0:
            raise InvalidInputError("step must be positive")
        if self.n_patches < 1:
            raise InvalidInputError("n_patches must be >= 1")
        if self.min_gap < 0.0:
            raise InvalidInputError("min_gap must be >= 0")
        if not self.mode_weights:
            raise InvalidInputError("at least one mode weight is required")
        for idx, w in self.mode_weights.items():
            self.model.mode(idx)
            if w < 0.0:
                raise InvalidInputError(f"weight of mode {idx} must be >= 0")
        if not any(w > 0.0 for w in self.mode_weights.values()):
            raise InvalidInputError("at least one mode weight must be positive")


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
    """Scan rows of the chosen positions in ascending x_start, their total
    objective, and the scan they were picked from."""

    rows: list[int]
    objective: float
    scan: PlacementScan

    @property
    def positions(self) -> list[float]:
        return [float(self.scan.x_starts[j]) for j in self.rows]


def candidate_positions(problem: PlacementProblem) -> np.ndarray:
    """The scan grid 0, step, 2*step, ... limited to positions where the
    patch still fits on the structure."""
    L = problem.model.length
    limit = L - problem.patch.length
    if limit < -1e-12 * L:
        raise PlacementError(
            f"patch length {problem.patch.length:g} m exceeds the structure "
            f"length {L:g} m; no feasible position")
    n = int(np.floor(limit / problem.step + 1e-9)) + 1
    return problem.step * np.arange(n)


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
    """Pick n_patches positions from the scan table.

    A single patch is the exact argmax of the scan (smallest x_start on
    ties). Multiple patches are selected greedily in descending objective
    order, skipping candidates closer than patch length + min_gap to any
    already chosen one.
    """
    scan = scan_objective(problem)
    order = np.lexsort((scan.x_starts, -scan.objective))
    clearance = problem.patch.length + problem.min_gap
    slack = 1e-9 * max(clearance, 1e-30)
    chosen: list[int] = []
    for idx in order:
        if len(chosen) == problem.n_patches:
            break
        xc = scan.x_starts[idx]
        if all(abs(xc - scan.x_starts[j]) >= clearance - slack for j in chosen):
            chosen.append(int(idx))
    if len(chosen) < problem.n_patches:
        raise PlacementError(
            f"only {len(chosen)} positions with pairwise clearance "
            f"{clearance:g} m fit; {problem.n_patches} patches requested")
    chosen.sort(key=lambda j: scan.x_starts[j])
    return PlacementResult(chosen, float(np.sum(scan.objective[chosen])), scan)
