"""Exception types shared across the toolkit.

The command line front end maps these onto exit codes: validation and data
errors exit 1, numerical failures exit 2, file system errors exit 3.
"""


class PiezodampError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(PiezodampError):
    """Arguments violate a documented precondition."""


class InvalidMaterialError(InvalidInputError):
    """Material constants are non-physical (coupling factor would reach 1)."""


class PlacementError(InvalidInputError):
    """Patch does not fit the structure, or no feasible position exists."""


class DegeneratePlantError(InvalidInputError):
    """Every selected mode has zero coupling, so the plant is uncontrollable."""


class ParseError(PiezodampError):
    """Malformed input file; messages carry row and column context."""


class ConfigError(PiezodampError):
    """Project config file is missing, malformed, or inconsistent."""


class NumericalError(PiezodampError):
    """A numerical routine (eigensolve, linear solve) failed to converge."""


class BandwidthError(PiezodampError):
    """A half-power crossing is off the record or not resolved by the grid."""
