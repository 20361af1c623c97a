"""Exception types shared across the toolkit, one per caller response.

The command line front end maps these onto exit codes: validation and data
errors exit 1, numerical failures exit 2, file system errors exit 3.
"""


class PiezodampError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(PiezodampError):
    """Arguments or data violate a documented precondition: non-physical
    material constants, a patch that does not fit, a plant with no
    controllable mode, a half-power crossing off the record or not resolved
    by the grid. ``load_config`` names the INI section of such an error, and
    ``gain_sweep`` turns one into a row without an estimate."""


class ParseError(PiezodampError):
    """Malformed input file; messages carry row and column context."""


class ConfigError(PiezodampError):
    """Project config file is missing, malformed, or inconsistent."""


class NumericalError(PiezodampError):
    """A numerical routine (eigensolve, linear solve) failed to converge."""
