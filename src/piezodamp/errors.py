"""Exception types shared across the toolkit, one per caller response.

The command line front end maps these onto exit codes: input errors (in an
argument, the project INI or a data file) exit 1, numerical failures exit 2,
file system errors exit 3.
"""


class PiezodampError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(PiezodampError):
    """An argument, the project INI or a data file violates a documented
    precondition: non-physical material constants, a patch that does not
    fit, a plant with no controllable mode, a half-power crossing off the
    record or not resolved by the grid, a missing or malformed INI key, a
    CSV file whose header, row or value is wrong. A file's error names the
    file, and a row's its line, column and text. ``load_config`` names the
    INI section of a library's error, and ``gain_sweep`` turns one into a
    row without an estimate."""


class NumericalError(PiezodampError):
    """A numerical routine (eigensolve, linear solve) failed to converge."""
