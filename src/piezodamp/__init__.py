"""Design and simulation toolkit for active vibration damping of thin
flexible structures with piezoelectric patches.

Workflow: build a modal model of the host structure (analytic cantilever,
finite elements, or measured shapes), evaluate the electromechanical coupling
factor of candidate patch positions, place the patch where the weighted
coupling peaks, close a positive position feedback loop around the target
mode, and read the achieved damping off the closed-loop frequency response.
"""

from .errors import (BandwidthError, ConfigError, DegeneratePlantError,
                     InvalidInputError, InvalidMaterialError, NumericalError,
                     ParseError, PiezodampError, PlacementError)
from .modal import (BeamProperties, ModalModel, Mode, analytic_cantilever_modes,
                    assemble_beam_matrices, cantilever_flexibility,
                    cantilever_root, fe_beam_modes, load_measured_modes)
from .piezo import (CouplingResult, PatchGeometry, PiezoMaterial,
                    coupling_factor, coupling_from_frequencies, delta_thetas,
                    k31_squared)
from .placement import (PlacementProblem, PlacementResult, PlacementScan,
                        candidate_positions, optimize_placement,
                        scan_objective)
from .ppf import (LinearSystem, ModalPlant, PPFConfig, StabilityResult,
                  build_plant, close_loop, critical_gain, plant_system,
                  ppf_controller, stability)
from .frf import (FRF, DampingEstimate, SweepRow, bode_table,
                  closed_loop_frf, default_frequency_grid, find_peaks, frf_of,
                  gain_sweep, half_power_damping, load_frf_csv, save_frf_csv)
from .config import ProjectConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "BandwidthError", "ConfigError", "DegeneratePlantError",
    "InvalidInputError", "InvalidMaterialError", "NumericalError",
    "ParseError", "PiezodampError", "PlacementError",
    "BeamProperties", "ModalModel", "Mode", "analytic_cantilever_modes",
    "assemble_beam_matrices", "cantilever_flexibility", "cantilever_root",
    "fe_beam_modes", "load_measured_modes",
    "CouplingResult", "PatchGeometry", "PiezoMaterial", "coupling_factor",
    "coupling_from_frequencies", "delta_thetas", "k31_squared",
    "PlacementProblem", "PlacementResult", "PlacementScan",
    "candidate_positions", "optimize_placement", "scan_objective",
    "LinearSystem", "ModalPlant", "PPFConfig", "StabilityResult",
    "build_plant", "close_loop", "critical_gain", "plant_system",
    "ppf_controller", "stability",
    "FRF", "DampingEstimate", "SweepRow", "bode_table", "closed_loop_frf",
    "default_frequency_grid", "find_peaks", "frf_of", "gain_sweep",
    "half_power_damping", "load_frf_csv", "save_frf_csv",
    "ProjectConfig", "load_config",
    "__version__",
]
