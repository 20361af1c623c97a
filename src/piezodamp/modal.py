"""Host-structure modal models: analytic cantilever, finite elements, measured shapes.

Angular frequency in rad/s everywhere inside the package; Hz appears only at
file and command-line boundaries. Mode shapes are sampled on a shared grid
that starts at the clamped end (x = 0).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError, ParseError

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi

SOURCE_ANALYTIC = "analytic"
SOURCE_FE = "finite_element"
SOURCE_MEASURED = "measured"

DEFAULT_DAMPING = 0.005


@dataclass
class BeamProperties:
    """Uniform cantilever: length (m), bending stiffness EI (N m^2), mass per
    unit length (kg/m), and one damping ratio applied to every mode."""

    length: float
    bending_stiffness: float
    mass_per_length: float
    structural_damping: float = DEFAULT_DAMPING

    def __post_init__(self):
        if self.length <= 0.0:
            raise InvalidInputError("beam length must be positive")
        if self.bending_stiffness <= 0.0:
            raise InvalidInputError("bending stiffness must be positive")
        if self.mass_per_length <= 0.0:
            raise InvalidInputError("mass per unit length must be positive")
        if not 0.0 <= self.structural_damping < 1.0:
            raise InvalidInputError("structural damping must lie in [0, 1)")


@dataclass
class Mode:
    """One vibration mode sampled on the model grid.

    ``phi`` is the transverse shape, ``theta`` its slope d(phi)/dx in 1/m.
    The shape carries the normalization, so every modal mass is 1. The
    ``ModalModel`` holding the mode numbers it by position and checks it.
    """

    omega: float
    zeta: float
    phi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)

    @property
    def freq_hz(self) -> float:
        return self.omega / TWO_PI


@dataclass
class ModalModel:
    """A set of modes sharing one sampling line along the structure; mode k
    is ``modes[k - 1]``.

    The normalization follows from ``source``: measured shapes are scaled to
    unit peak, analytic and finite element modes are mass normalized.
    """

    grid: np.ndarray
    modes: list[Mode]
    source: str

    def __post_init__(self):
        x = np.asarray(self.grid, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise InvalidInputError("grid must be one-dimensional with at least two points")
        if x[0] != 0.0:
            raise InvalidInputError("grid must start at x = 0")
        if np.any(np.diff(x) <= 0.0):
            raise InvalidInputError("grid must be strictly increasing")
        self.grid = x
        if not self.modes:
            raise InvalidInputError("model must contain at least one mode")
        if self.source not in (SOURCE_ANALYTIC, SOURCE_FE, SOURCE_MEASURED):
            raise InvalidInputError(f"unknown model source {self.source!r}")
        for k, m in enumerate(self.modes, start=1):
            w = float(m.omega)
            if w <= 0.0:
                raise InvalidInputError(f"mode {k}: omega must be positive")
            if not math.isfinite(w * w):
                raise InvalidInputError(
                    f"mode {k}: omega = {w:g} rad/s is not finite or its "
                    "square overflows")
            if not 0.0 <= m.zeta < 1.0:
                raise InvalidInputError(f"mode {k}: zeta must lie in [0, 1)")
            if m.phi.shape != x.shape or m.theta.shape != x.shape:
                raise InvalidInputError(
                    f"mode {k}: shape sample count does not match the grid")
        omegas = [m.omega for m in self.modes]
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise InvalidInputError("modes must be sorted by strictly increasing omega")

    @property
    def length(self) -> float:
        return float(self.grid[-1])

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode(self, index: int) -> Mode:
        """Look up a mode by its 1-based index."""
        if not 1 <= index <= len(self.modes):
            raise InvalidInputError(
                f"mode index {index} outside 1..{len(self.modes)}")
        return self.modes[index - 1]


def cantilever_root(i: int) -> float:
    """i-th root of cosh(x) cos(x) = -1, which lies in ((i-1) pi, i pi).

    Solved as cos(x) + 1/cosh(x) = 0, which shares the roots but stays
    bounded for large x, by plain Newton from (i - 1/2) pi. It stops once a
    step moves x by at most 2 ulp, within 5 steps for every i up to 20,000,
    and the result is then correctly rounded (checked against mpmath for
    i <= 400).
    """
    if i < 1:
        raise InvalidInputError("root index is 1-based")
    x = (i - 0.5) * math.pi
    for _ in range(50):
        fx, dfx = _cantilever_residual(x)
        step = x - fx / dfx
        if abs(step - x) <= 2.0 * math.ulp(x):
            return step
        x = step
    raise NumericalError(f"cantilever root {i} did not converge")


def _cantilever_residual(x: float) -> tuple[float, float]:
    """cos(x) + sech(x) and its derivative, with sech written in exp(-x) so
    that large x cannot overflow."""
    e = math.exp(-x)
    sech = 2.0 * e / (1.0 + e * e)
    return math.cos(x) + sech, -math.sin(x) - math.tanh(x) * sech


def analytic_cantilever_modes(props: BeamProperties, n_modes: int,
                              n_grid: int = 201) -> ModalModel:
    """Clamped-free Euler-Bernoulli modes, mass normalized.

    Frequencies come from the characteristic equation and are independent of
    the grid; the grid only samples phi and theta. Shapes are evaluated in an
    exponential form that avoids the cosh/sinh cancellation of the textbook
    expression for higher modes. sigma and the growing term are written in
    e = exp(-bl), which cannot overflow, so every mode stays finite; sinh(bl)
    and cosh(bl) alone overflow once bl passes about 710 (mode 227).
    """
    if n_modes < 1:
        raise InvalidInputError("n_modes must be >= 1")
    if n_grid < 16:
        raise InvalidInputError("n_grid must be >= 16")
    L = props.length
    x = np.linspace(0.0, L, n_grid)
    scale = np.sqrt(props.bending_stiffness / (props.mass_per_length * L ** 4))
    # Integral of the raw shape squared over the span equals L, so dividing
    # by sqrt(rhoA * L) pins every modal mass to 1 kg.
    norm = 1.0 / np.sqrt(props.mass_per_length * L)
    modes = []
    for i in range(1, n_modes + 1):
        bl = cantilever_root(i)
        beta = bl / L
        omega = bl * bl * scale
        # sigma = (cosh + cos) / (sinh + sin), top and bottom times 2 e; the
        # growing term carries (1 - sigma) / 2, in which sinh - cosh
        # collapses to -e without cancellation.
        e = math.exp(-bl)
        den = 1.0 - e * e + 2.0 * e * math.sin(bl)
        sigma = (1.0 + e * e + 2.0 * e * math.cos(bl)) / den
        bx = beta * x
        grow = (math.sin(bl) - math.cos(bl) - e) / den * np.exp(bx - bl)
        decay = 0.5 * (1.0 + sigma) * np.exp(-bx)
        phi = grow + decay - np.cos(bx) + sigma * np.sin(bx)
        theta = beta * (grow - decay + np.sin(bx) + sigma * np.cos(bx))
        phi *= norm
        theta *= norm
        # Clamped end is exact by construction.
        phi[0] = 0.0
        theta[0] = 0.0
        if theta[-1] < 0.0:
            phi = -phi
            theta = -theta
        modes.append(Mode(float(omega), props.structural_damping, phi, theta))
    return ModalModel(x, modes, SOURCE_ANALYTIC)


def beam_element_matrices(EI: float, rhoA: float, le: float):
    """Stiffness and consistent mass of one two-node Hermite bending element."""
    l2 = le * le
    l3 = l2 * le
    k = (EI / l3) * np.array([
        [12.0, 6.0 * le, -12.0, 6.0 * le],
        [6.0 * le, 4.0 * l2, -6.0 * le, 2.0 * l2],
        [-12.0, -6.0 * le, 12.0, -6.0 * le],
        [6.0 * le, 2.0 * l2, -6.0 * le, 4.0 * l2],
    ])
    m = (rhoA * le / 420.0) * np.array([
        [156.0, 22.0 * le, 54.0, -13.0 * le],
        [22.0 * le, 4.0 * l2, 13.0 * le, -3.0 * l2],
        [54.0, 13.0 * le, 156.0, -22.0 * le],
        [-13.0 * le, -3.0 * l2, -22.0 * le, 4.0 * l2],
    ])
    return k, m


def assemble_beam_matrices(props: BeamProperties, n_elements: int):
    """Assembled (K, M) of the uniform cantilever, clamped DOFs included.

    DOF ordering is (w_0, theta_0, w_1, theta_1, ...) along the beam.
    """
    if n_elements < 1:
        raise InvalidInputError("n_elements must be >= 1")
    ndof = 2 * (n_elements + 1)
    K = np.zeros((ndof, ndof))
    M = np.zeros((ndof, ndof))
    le = props.length / n_elements
    ke, me = beam_element_matrices(props.bending_stiffness,
                                   props.mass_per_length, le)
    for e in range(n_elements):
        sl = slice(2 * e, 2 * e + 4)
        K[sl, sl] += ke
        M[sl, sl] += me
    return K, M


def fe_beam_modes(props: BeamProperties, n_elements: int,
                  n_modes: int) -> ModalModel:
    """Finite element cantilever modes from the clamped generalized eigenproblem.

    The lowest modes are the largest eigenvalues mu = 1/omega^2 of
    M v = mu K v, i.e. of F M v = mu v with F = K^-1 the cantilever
    flexibility, so nothing is factorized. With slopes scaled by the element
    length both F and M are a constant times a matrix of integers that
    depends only on the mesh; the solve runs on those and the constants
    convert the result back, which keeps every beam equally well
    conditioned. Neither matrix is formed: M X is taken block by block
    and F Y from the moment diagram (``_flexibility_times``), both O(n_dof)
    per vector.

    The solve is subspace iteration (Bathe & Wilson 1972) on a block X of
    p = min(n_dof, 2 n_modes + 8) vectors, started from a fixed-seed
    orthonormal basis. Each pass forms F M X, does a Rayleigh-Ritz step on
    the p x p pencil (X' M F M X, X' M X) and takes F M X Q / mu as the next
    block, Q the Ritz rotation and mu the Ritz values; that block stays
    close to M-orthonormal, so no QR is needed. The Ritz vectors are mass
    normalized, so modal masses are exactly 1 kg.

    The vector error of mode m shrinks by about mu_p / mu_m per pass, so the
    iteration stops at pass k once (mu_p / mu_m)^k falls below the unit
    roundoff, using the current Ritz values; when p = n_dof the first
    Rayleigh-Ritz step is already exact. It does not stop on a residual
    tolerance: a residual loose enough to be reached at every mesh size
    leaves the higher shapes visibly short of convergence. After stopping,
    every mode must pass the backward-error check
    |F M v - mu v| <= 1e-10 mu_1 |v|, or ``NumericalError`` is raised; so
    is a run that has not stopped within the pass cap.

    Shapes and slopes are read off the nodal DOFs.
    """
    if n_elements < 4:
        raise InvalidInputError("n_elements must be >= 4")
    if not 1 <= n_modes <= n_elements:
        raise InvalidInputError(
            f"n_modes must lie in 1..{n_elements} for {n_elements} elements")
    le = props.length / n_elements
    # A unit-length element with rhoA = 420 has an integer mass matrix, and
    # M = (rhoA le / 420) N in the scaled DOFs, N assembled from it.
    _, me = beam_element_matrices(1.0, 420.0, 1.0)
    nus, vecs = _subspace_iteration(2 * n_elements, me, n_modes)
    rho_le = props.mass_per_length * le
    omegas = np.sqrt(2520.0 * props.bending_stiffness / (rho_le * le ** 3 * nus))
    vecs *= np.sqrt(420.0 / rho_le)
    vecs[1::2] /= le
    nodal = np.zeros((2 * (n_elements + 1), n_modes))
    nodal[2:] = vecs
    # The whole column flips, so a flipped mode keeps -0 at the clamp.
    nodal *= np.where(nodal[-1] < 0.0, -1.0, 1.0)
    modes = [Mode(float(omegas[i]), props.structural_damping,
                  nodal[0::2, i], nodal[1::2, i]) for i in range(n_modes)]
    x = np.linspace(0.0, props.length, n_elements + 1)
    return ModalModel(x, modes, SOURCE_FE)


# A uniform cantilever stops within about 15 passes at any mesh and mode count.
_MAX_PASSES = 100


def _clamped_mass_times(me: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M X for the clamped beam assembled from the element mass ``me``.

    M is block tridiagonal in the 2 x 2 blocks of the free nodes 1..n_el.
    Node j's diagonal block is me[2:, 2:] from the element inboard of it
    plus me[:2, :2] from the element outboard of it, which the free end
    lacks; me[:2, 2:] and me[2:, :2] couple it to the next and the previous
    node. The clamped node 0 contributes nothing, and the dense matrix is
    never formed."""
    nodes = X.reshape(-1, 2, X.shape[1])
    out = (me[:2, :2] + me[2:, 2:]) @ nodes
    out[-1] -= me[:2, :2] @ nodes[-1]
    out[:-1] += me[:2, 2:] @ nodes[1:]
    out[1:] += me[2:, :2] @ nodes[:-1]
    return out.reshape(X.shape)


def _flexibility_times(Y: np.ndarray) -> np.ndarray:
    """G Y for G = 6 EI / le^3 times the cantilever flexibility in the DOFs
    (w_1, le theta_1, w_2, le theta_2, ...), from the moment diagram of a
    unit beam (le = EI = 1) under the nodal forces and moments in Y's rows:
    reverse sums give the shear and the moment at each element's inboard
    end, and forward sums of the linear moment give slope and deflection.
    Hermite elements are exact under nodal loads, so this equals G Y.
    """
    shear = np.cumsum(Y[0::2][::-1], axis=0)[::-1]
    inboard = np.cumsum((Y[1::2] + shear)[::-1], axis=0)[::-1]
    outboard = inboard - shear
    slope = 3.0 * np.cumsum(inboard + outboard, axis=0)
    out = np.empty_like(Y)
    out[1::2] = slope
    out[0::2] = np.cumsum(2.0 * inboard + outboard, axis=0)
    out[2::2] += np.cumsum(slope[:-1], axis=0)
    return out


def _subspace_iteration(n_dof: int, me: np.ndarray, n_modes: int):
    """Largest n_modes eigenpairs of G M v = mu v, for the flexibility
    pattern G of ``_flexibility_times`` and the clamped beam mass M
    assembled from ``me``: mu descending and M-orthonormal vectors."""
    p = min(n_dof, 2 * n_modes + 8)
    X = np.linalg.qr(np.random.default_rng(0).standard_normal((n_dof, p)))[0]
    for k in range(1, _MAX_PASSES + 1):
        Y = _clamped_mass_times(me, X)
        Z = _flexibility_times(Y)
        A = Y.T @ Z
        B = Y.T @ X
        try:
            L = np.linalg.cholesky(0.5 * (B + B.T))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"beam eigensolve lost its basis: {exc}") from exc
        C = np.linalg.solve(L, np.linalg.solve(L, 0.5 * (A + A.T)).T)
        mus, W = np.linalg.eigh(0.5 * (C + C.T))
        mus, W = mus[::-1], W[:, ::-1]
        if not mus[-1] > 0.0:
            raise NumericalError(
                f"beam eigensolve returned a non-positive eigenvalue {mus[-1]:g}")
        Q = np.linalg.solve(L.T, W)
        if p == n_dof or (mus[-1] / mus[n_modes - 1]) ** k <= np.finfo(float).eps:
            Q = Q[:, :n_modes]
            vecs = X @ Q
            residual = np.linalg.norm(Z @ Q - vecs * mus[:n_modes], axis=0)
            ratio = residual / (mus[0] * np.linalg.norm(vecs, axis=0))
            log.info("beam eigensolve: %d passes, block width %d, worst "
                     "residual %.3g mu_1", k, p, np.max(ratio))
            if not np.all(ratio <= 1e-10):
                raise NumericalError(
                    f"beam eigensolve stopped with a residual of "
                    f"{np.max(ratio):.3g} mu_1")
            return mus[:n_modes], vecs
        # X Q are the M-orthonormal Ritz vectors; G M X Q / mu is one more
        # inverse iteration on each, which keeps the block close to
        # M-orthonormal without a QR.
        X = Z @ Q / mus
    raise NumericalError(
        f"beam eigensolve did not converge in {_MAX_PASSES} passes")


def _read_csv(path, check_header, min_rows: int):
    """Header fields and (rows, fields) float data of a UTF-8 CSV table.

    Blank and ``#`` lines are skipped; the first other line is the header
    and each later one holds one finite number per header field. One
    ``np.loadtxt`` pass parses the rows; only if it fails is the file walked
    again to name the first bad line, its column and token. Errors from
    ``check_header`` come first, then the row count, then the bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _content_lines(fh)
            first = next(lines, None)
            if first is None:
                raise ParseError(f"{path}: no header line found")
            header = [t.strip() for t in first[1].split(",")]
            check_header(header)
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt((line for _, line in lines),
                                      delimiter=",", comments=None, ndmin=2)
            except ValueError:  # a decoding error too; the walk meets it again
                data = np.empty((0, 0))
            n_rows, error = len(data), None
            if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
                fh.seek(0)
                lines = _content_lines(fh)
                next(lines)
                for n_rows, (line_no, line) in enumerate(lines, start=1):
                    error = error or _row_error(line_no, line, header)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: cannot decode byte "
                         f"0x{exc.object[exc.start]:02x}") from None
    if n_rows < min_rows:
        raise ParseError(f"{path}: needs at least {min_rows} data rows, found {n_rows}")
    if error is not None:
        raise error
    return header, data


def _content_lines(fh):
    """(line number, stripped text) of each non-blank, non-comment line."""
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _row_error(line_no: int, line: str, header: list[str]):
    """The ParseError of one data line, or None if the line is valid."""
    fields = [t.strip() for t in line.split(",")]
    if len(fields) != len(header):
        return ParseError(f"line {line_no}: expected {len(header)} fields, "
                          f"found {len(fields)}")
    for token, column in zip(fields, header):
        where = f"line {line_no}, column {column!r}"
        try:
            # float() also takes "1_0" and non-ASCII digits, which np.loadtxt rejects.
            if "_" in token or not token.isascii():
                raise ValueError
            if not math.isfinite(float(token)):
                return ParseError(f"{where}: non-finite value {token!r}")
        except ValueError:
            return ParseError(f"{where}: cannot parse {token!r} as a number")
    return None


def load_measured_modes(path, frequencies_hz, damping=None,
                        smooth: bool = False) -> ModalModel:
    """Read mode shapes measured along a line from a CSV file.

    The file holds a header ``x_m,mode1,mode2,...`` followed by at least 8
    rows; blank and ``#`` lines are skipped. One natural frequency (Hz) per
    shape column must be supplied, with optional per-mode damping ratios
    (default 0.005). Shapes are scaled to unit peak and modal mass is pinned
    to 1, so coupling factors computed from this model are comparative only.
    ``smooth`` applies a 3-point moving average before normalization.
    Slopes are finite differences of the normalized shapes: central in the
    interior and one-sided second order at the ends, exact for quadratics.
    """
    freqs = [float(f) for f in np.atleast_1d(frequencies_hz)]
    if any(f <= 0.0 for f in freqs):
        raise InvalidInputError("measured frequencies must be positive")
    if damping is None:
        zetas = [DEFAULT_DAMPING] * len(freqs)
    else:
        zetas = [float(z) for z in np.atleast_1d(damping)]
        if len(zetas) != len(freqs):
            raise InvalidInputError(
                f"{len(zetas)} damping ratios given for {len(freqs)} frequencies")

    def check_header(header):
        if len(header) < 2 or header[0] != "x_m":
            raise ParseError(
                f"{path}: header must be 'x_m,mode1,...', got {','.join(header)!r}")
        if len(header) - 1 != len(freqs):
            raise InvalidInputError(
                f"{path}: {len(header) - 1} shape columns but {len(freqs)} "
                "frequencies given")

    header, data = _read_csv(path, check_header, min_rows=8)
    x = data[:, 0].copy()
    shapes = data[:, 1:].T.copy()

    if x[0] != 0.0:
        raise ParseError(f"{path}: first x_m value must be 0, got {x[0]:g}")
    if np.any(np.diff(x) <= 0.0):
        bad = int(np.flatnonzero(np.diff(x) <= 0.0)[0])
        raise ParseError(
            f"{path}: x_m must be strictly increasing; row {bad + 2} of the data "
            "violates this")

    if smooth:
        log.info("applying 3-point moving average to %d measured shapes", len(shapes))
        inner = (shapes[:, :-2] + shapes[:, 1:-1] + shapes[:, 2:]) / 3.0
        shapes[:, 1:-1] = inner

    order = np.argsort(freqs, kind="stable")
    modes = []
    for col in order:
        peak = np.max(np.abs(shapes[col]))
        if peak == 0.0:
            raise ParseError(
                f"{path}: column {header[col + 1]!r} is identically zero")
        phi = shapes[col] / peak
        modes.append(Mode(TWO_PI * freqs[col], zetas[col], phi,
                          np.gradient(phi, x, edge_order=2)))
    return ModalModel(x, modes, SOURCE_MEASURED)

