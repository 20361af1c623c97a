"""Host-structure modal models: analytic cantilever, finite elements, measured shapes.

Models, couplings and loops use rad/s (``Mode.omega``, ``ModalPlant``,
``PPFConfig``, the state-space matrices); frequency responses use Hz (``FRF``,
``find_peaks``, ``DampingEstimate``, ``default_frequency_grid``, ``frf_of``,
``closed_loop_frf``, ``gain_sweep``), as do files, the command line and every
name ending in ``hz``. Mode shapes are sampled on a shared grid that starts at
the clamped end (x = 0).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi

SOURCE_ANALYTIC = "analytic"
SOURCE_FE = "finite_element"
SOURCE_MEASURED = "measured"

DEFAULT_DAMPING = 0.005
DEFAULT_N_GRID = 201


def _check_damping(zetas, what: str) -> None:
    """Damping ratios lie in [0, 1): zero is an undamped mode, and from 1 on
    a mode no longer oscillates. ``what`` names the value in the error."""
    zetas = np.asarray(zetas, dtype=float)
    if not np.all((0.0 <= zetas) & (zetas < 1.0)):
        raise InvalidInputError(f"{what} must lie in [0, 1)")


def _check_frequencies(omegas, what: str) -> None:
    """Angular frequencies are positive and finite, and their squares, which
    every modal formula takes, neither overflow nor underflow to 0."""
    w = np.asarray(omegas, dtype=float)
    with np.errstate(over="ignore"):
        square = w * w
    if not np.all((w > 0.0) & (0.0 < square) & (square < np.inf)):
        raise InvalidInputError(f"{what} must be positive and finite, with a "
                                "nonzero, finite square")


@dataclass
class BeamProperties:
    """Uniform cantilever: length (m), bending stiffness EI (N m^2), mass per
    unit length (kg/m), and one damping ratio applied to every mode."""

    length: float
    bending_stiffness: float
    mass_per_length: float
    structural_damping: float = DEFAULT_DAMPING

    def __post_init__(self):
        if not 0.0 < self.length < np.inf:
            raise InvalidInputError("beam length must be positive and finite")
        if not 0.0 < self.bending_stiffness < np.inf:
            raise InvalidInputError("bending stiffness must be positive and finite")
        if not 0.0 < self.mass_per_length < np.inf:
            raise InvalidInputError("mass per unit length must be positive and finite")
        _check_damping(self.structural_damping, "structural damping")


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
        if not (np.all(np.diff(x) > 0.0) and x[-1] < np.inf):
            raise InvalidInputError("grid must be finite and strictly increasing")
        self.grid = x
        if not self.modes:
            raise InvalidInputError("model must contain at least one mode")
        if self.source not in (SOURCE_ANALYTIC, SOURCE_FE, SOURCE_MEASURED):
            raise InvalidInputError(f"unknown model source {self.source!r}")
        for k, m in enumerate(self.modes, start=1):
            _check_frequencies(m.omega, f"mode {k}: omega")
            _check_damping(m.zeta, f"mode {k}: zeta")
            if m.phi.shape != x.shape or m.theta.shape != x.shape:
                raise InvalidInputError(
                    f"mode {k}: shape sample count does not match the grid")
            if not (np.isfinite(m.phi).all() and np.isfinite(m.theta).all()):
                raise InvalidInputError(f"mode {k}: shape samples must be finite")
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


def _cantilever_mode(i: int, x: np.ndarray, length: float,
                     mass_per_length: float):
    """Root bl of clamped-free mode i and its mass-normalized shape and slope
    at the points x of a uniform beam.

    The shape is evaluated in an exponential form that avoids the cosh/sinh
    cancellation of the textbook expression for higher modes. sigma and the
    growing term are written in e = exp(-bl), which cannot overflow, so every
    mode stays finite; sinh(bl) and cosh(bl) alone overflow once bl passes
    about 710 (mode 227).
    """
    bl = cantilever_root(i)
    beta = bl / length
    # sigma = (cosh + cos) / (sinh + sin), top and bottom times 2 e; the
    # growing term carries (1 - sigma) / 2, in which sinh - cosh collapses
    # to -e without cancellation.
    e = math.exp(-bl)
    den = 1.0 - e * e + 2.0 * e * math.sin(bl)
    sigma = (1.0 + e * e + 2.0 * e * math.cos(bl)) / den
    bx = beta * x
    cos, sin = np.cos(bx), np.sin(bx)
    grow = (math.sin(bl) - math.cos(bl) - e) / den * np.exp(bx - bl)
    decay = 0.5 * (1.0 + sigma) * np.exp(-bx)
    phi = grow + decay - cos + sigma * sin
    theta = beta * (grow - decay + sin + sigma * cos)
    # Integral of the raw shape squared over the span equals L, so dividing
    # by sqrt(rhoA * L) pins every modal mass to 1 kg.
    norm = 1.0 / np.sqrt(mass_per_length * length)
    phi *= norm
    theta *= norm
    return bl, phi, theta


def _check_mode_count(n_modes: int) -> None:
    """A model holds at least one mode."""
    if n_modes < 1:
        raise InvalidInputError("n_modes must be >= 1")


def analytic_cantilever_modes(props: BeamProperties, n_modes: int,
                              n_grid: int = DEFAULT_N_GRID) -> ModalModel:
    """Clamped-free Euler-Bernoulli modes, mass normalized.

    Frequencies come from the characteristic equation and are independent of
    the grid; the grid only samples phi and theta (``_cantilever_mode``).
    """
    _check_mode_count(n_modes)
    if n_grid < 16:
        raise InvalidInputError("n_grid must be >= 16")
    L = props.length
    x = np.linspace(0.0, L, n_grid)
    scale = np.sqrt(props.bending_stiffness / (props.mass_per_length * L ** 4))
    modes = []
    for i in range(1, n_modes + 1):
        bl, phi, theta = _cantilever_mode(i, x, L, props.mass_per_length)
        omega = bl * bl * scale
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
    p = min(n_dof, 2 n_modes + 8) vectors. The mesh discretizes a uniform
    cantilever, whose modes have a closed form, so the block starts from
    those modes sampled at the nodes (``_cantilever_block``); on the
    800-element, 20-mode beam their first Rayleigh-Ritz step is already at
    the rounding floor. Each pass forms F M X, does a Rayleigh-Ritz step on
    the p x p pencil (X' M F M X, X' M X) and takes F M X Q / mu as the next
    block, Q the Ritz rotation and mu the Ritz values; that block stays
    close to M-orthonormal, so no QR is needed. The Ritz vectors are mass
    normalized, so modal masses are exactly 1 kg.

    The stop reads the residuals, not the start. After each pass the worst
    relative residual |F M v - mu v| / (mu |v|) over the wanted modes is
    compared with its smallest value at earlier passes. While the iteration
    converges it falls at every pass; once it does not, the modes sit at
    their rounding floor and the iteration stops. The worst mode is the
    last to settle, since the highest wanted mode both converges slowest
    (by about mu_p / mu_m per pass) and has the highest floor (about
    eps mu_1 / mu_m). So the stop assumes nothing about the start: one at
    the floor costs two or three passes, as the residual scatters there,
    and a poor one runs until its residuals settle. Nor does it ask for a
    drop by a set factor per pass: from a start that spans the upper block
    modes poorly the residual first falls by only about half per pass, far
    slower than mu_p / mu_m. When p = n_dof the first Rayleigh-Ritz step is
    exact and the iteration stops there. It does not stop on a residual tolerance: a residual loose
    enough to be reached at every mesh size leaves the higher shapes
    visibly short of convergence. After stopping, every mode must pass the
    backward-error check |F M v - mu v| <= 1e-10 mu_1 |v|, or
    ``NumericalError`` is raised; so is a run that has not stopped within
    the pass cap.

    Shapes and slopes are read off the nodal DOFs.
    """
    if n_elements < 4:
        raise InvalidInputError("n_elements must be >= 4")
    _check_mode_count(n_modes)
    if n_modes > n_elements:
        raise InvalidInputError(
            f"n_modes must lie in 1..{n_elements} for {n_elements} elements")
    le = props.length / n_elements
    # A unit-length element with rhoA = 420 has an integer mass matrix, and
    # M = (rhoA le / 420) N in the scaled DOFs, N assembled from it.
    _, me = beam_element_matrices(1.0, 420.0, 1.0)
    p = min(2 * n_elements, 2 * n_modes + 8)
    nus, vecs = _subspace_iteration(me, _cantilever_block(n_elements, p),
                                    n_modes)
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


def _cantilever_block(n_elements: int, p: int) -> np.ndarray:
    """p start vectors of ``_subspace_iteration`` in its scaled DOFs
    (w_1, le theta_1, w_2, ...): the closed-form modes 1..min(p, n_elements)
    of the unit-element beam (le = 1, rhoA = 420, so nearly M-orthonormal)
    sampled at the free nodes, then unit vectors on the first
    p - n_elements rotations.

    A mesh of n elements resolves n modes: sampled, modes 1..n keep a Gram
    matrix within 0.18 of the identity on meshes of 10 to 1,600 elements,
    and past mode n the mesh has no matching mode. The block has full rank
    by construction: the clamped-free modes form a Chebyshev system on
    (0, L] (Gantmacher & Krein), so the deflection rows of any k <= n of
    them at n distinct nodes have rank k, and the unit vectors touch only
    rotation rows.
    """
    X = np.zeros((2 * n_elements, p))
    x = np.arange(1.0, n_elements + 1.0)
    r = min(p, n_elements)
    for i in range(r):
        _, X[0::2, i], X[1::2, i] = _cantilever_mode(i + 1, x, n_elements, 420.0)
    X[2 * np.arange(p - r) + 1, np.arange(r, p)] = 1.0
    return X


def _subspace_iteration(me: np.ndarray, X: np.ndarray, n_modes: int):
    """Largest n_modes eigenpairs of G M v = mu v, for the flexibility
    pattern G of ``_flexibility_times`` and the clamped beam mass M
    assembled from ``me``, by subspace iteration from the full-rank block
    X: mu descending and M-orthonormal vectors."""
    n_dof, p = X.shape
    best = np.inf
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
        # X Q are the M-orthonormal Ritz vectors; G M X Q / mu is one more
        # inverse iteration on each, which keeps the block close to
        # M-orthonormal without a QR.
        ZQ = Z @ Q
        vecs = X @ Q[:, :n_modes]
        residual = (np.linalg.norm(ZQ[:, :n_modes] - vecs * mus[:n_modes], axis=0)
                    / np.linalg.norm(vecs, axis=0))
        worst = np.max(residual / mus[:n_modes])
        if p == n_dof or worst >= best:
            ratio = residual / mus[0]
            log.info("beam eigensolve: %d passes, block width %d, worst "
                     "residual %.3g mu_1, worst relative residual %.3g", k, p,
                     np.max(ratio), worst)
            if not np.all(ratio <= 1e-10):
                raise NumericalError(
                    f"beam eigensolve stopped with a residual of "
                    f"{np.max(ratio):.3g} mu_1")
            return mus[:n_modes], vecs
        best = min(best, worst)
        X = ZQ / mus
    raise NumericalError(
        f"beam eigensolve did not converge in {_MAX_PASSES} passes")


def _read_csv(path, check_header, min_rows: int):
    """Header fields and (rows, fields) float data of a UTF-8 CSV table.

    A leading byte-order mark and blank and ``#`` lines are skipped; the
    first other line is the header and each later one holds one finite
    number per header field. One ``np.loadtxt`` pass parses the open file
    after the header. Only if it refuses a line (a ``#`` or whitespace-only
    one, or a bad row) are the filtered lines parsed again, and only if the
    numbers are still wrong is the file walked to name the first bad line,
    its column and token. Errors from ``check_header`` come first, then the
    row count, then the bad line.
    """
    try:
        # utf-8-sig drops a leading byte-order mark, again after seek(0).
        with open(path, "r", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            first = next(_content_lines(fh), None)
            if first is None:
                raise InvalidInputError(f"{path}: no header line found")
            header = [t.strip() for t in first[1].split(",")]
            check_header(header)
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:  # a decoding error too; the walk meets it again
                try:
                    data = np.loadtxt((line for _, line in _lines_after_header(fh)),
                                      delimiter=",", comments=None, ndmin=2)
                except ValueError:
                    data = np.empty((0, 0))
            n_rows, error = len(data), None
            if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
                for n_rows, (line_no, line) in enumerate(
                        _lines_after_header(fh), start=1):
                    error = error or _row_error(path, line_no, line, header)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: cannot decode byte "
                                f"0x{exc.object[exc.start]:02x}") from None
    if n_rows < min_rows:
        raise InvalidInputError(f"{path}: needs at least {min_rows} data rows, found {n_rows}")
    if error is not None:
        raise error
    return header, data


def _lines_after_header(fh):
    """``_content_lines`` of the file from its start, less the header."""
    fh.seek(0)
    lines = _content_lines(fh)
    next(lines)
    return lines


def _content_lines(fh):
    """(line number, stripped text) of each non-blank, non-comment line."""
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _row_error(path, line_no: int, line: str, header: list[str]):
    """The error of one data line of ``path``, or None if the line is valid."""
    fields = [t.strip() for t in line.split(",")]
    if len(fields) != len(header):
        return InvalidInputError(f"{path}: line {line_no}: expected "
                                 f"{len(header)} fields, found {len(fields)}")
    for token, column in zip(fields, header):
        where = f"{path}: line {line_no}, column {column!r}"
        try:
            if not math.isfinite(_numeral(token)):
                return InvalidInputError(f"{where}: non-finite value {token!r}")
        except ValueError:
            return InvalidInputError(f"{where}: cannot parse {token!r} as a number")
    return None


def _refuse_rows(path, rule: str, violates) -> None:
    """Raise the error naming the first data row ``violates`` marks."""
    rows = np.flatnonzero(violates)
    if rows.size:
        raise InvalidInputError(
            f"{path}: {rule}; row {rows[0] + 1} of the data violates this")


def _numeral(text: str, kind=float):
    """``kind(text)`` under the one numeral rule of every number the tool
    reads, the one ``np.loadtxt`` applies: plain decimal or exponent notation,
    with surrounding whitespace. ``float`` and ``int`` also take digit
    separators ("1_0") and non-ASCII digits; this raises ValueError for them.
    """
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not a plain numeral: {text!r}")
    return kind(text)


def _measured_lists(frequencies_hz, damping=None):
    """Float lists of the frequencies (Hz), at least one, each listed once and
    under the angular-frequency rule of ``_check_frequencies``, and of their
    damping ratios, one per frequency, each in [0, 1)."""
    freqs = [float(f) for f in np.atleast_1d(frequencies_hz)]
    if not freqs:
        raise InvalidInputError(
            "frequencies_hz must list positive, finite frequencies")
    _check_frequencies(TWO_PI * np.array(freqs), "frequencies_hz")
    for k, f in enumerate(freqs):
        if f in freqs[:k]:
            raise InvalidInputError(f"measured frequency {f:g} Hz is listed twice")
    if damping is None:
        return freqs, [DEFAULT_DAMPING] * len(freqs)
    zetas = [float(z) for z in np.atleast_1d(damping)]
    if len(zetas) != len(freqs):
        raise InvalidInputError("damping must list one ratio per frequency: "
                                f"{len(zetas)} for {len(freqs)}")
    _check_damping(zetas, "damping ratios")
    return freqs, zetas


def load_measured_modes(path, frequencies_hz, damping=None) -> ModalModel:
    """Read mode shapes measured along a line from a CSV file.

    The file holds a header ``x_m,mode1,mode2,...`` followed by at least 8
    rows; blank and ``#`` lines are skipped. ``frequencies_hz`` gives one
    positive, finite natural frequency (Hz) per shape column, none twice, and
    ``damping`` optional per-mode ratios (default 0.005); both are checked
    before the file is read. Shapes are scaled to unit peak and modal mass is
    pinned to 1, so coupling factors computed from this model are comparative
    only. Slopes are finite differences of the normalized shapes: central in
    the interior and one-sided second order at the ends, exact for quadratics.
    """
    freqs, zetas = _measured_lists(frequencies_hz, damping)

    def check_header(header):
        if len(header) < 2 or header[0] != "x_m":
            raise InvalidInputError(
                f"{path}: header must be 'x_m,mode1,...', got {','.join(header)!r}")
        if len(header) - 1 != len(freqs):
            raise InvalidInputError(
                f"{path}: {len(header) - 1} shape columns but {len(freqs)} "
                "frequencies given")

    header, data = _read_csv(path, check_header, min_rows=8)
    x = data[:, 0].copy()
    shapes = data[:, 1:].T

    if x[0] != 0.0:
        raise InvalidInputError(f"{path}: first x_m value must be 0, got {x[0]:g}")
    _refuse_rows(path, "x_m must be strictly increasing",
                 np.diff(x, prepend=-np.inf) <= 0.0)

    order = np.argsort(freqs, kind="stable")
    modes = []
    for col in order:
        peak = np.max(np.abs(shapes[col]))
        if peak == 0.0:
            raise InvalidInputError(
                f"{path}: column {header[col + 1]!r} is identically zero")
        phi = shapes[col] / peak
        modes.append(Mode(TWO_PI * freqs[col], zetas[col], phi,
                          np.gradient(phi, x, edge_order=2)))
    return ModalModel(x, modes, SOURCE_MEASURED)

