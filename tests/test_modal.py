import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq

import piezodamp as pd
from piezodamp.errors import InvalidInputError

# Roots of cosh(x) cos(x) = -1 to full double precision.
KNOWN_ROOTS = [1.8751040687119612, 4.694091132974175, 7.854757438237613,
               10.995540734875467, 14.137168391046471, 17.278759657399481]

FIRST_FREQ_UNIT_BEAM = 0.5595912099683767


def test_cantilever_roots_match_known_values():
    for i, ref in enumerate(KNOWN_ROOTS[:4], start=1):
        assert pd.cantilever_root(i) == pytest.approx(ref, rel=1e-12)


def test_cantilever_roots_match_brentq():
    # brentq finds each root in its bracket ((i - 1) pi, i pi); mpmath
    # polishes it to 30 digits, and the double must be within one ulp.
    def residual(x):  # cos(x) + sech(x), with no overflow past x = 710
        return np.cos(x) + 2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x))

    for i in range(1, 401):
        x0 = brentq(residual, max((i - 1) * np.pi, 1e-6), i * np.pi,
                    xtol=1e-15, rtol=8.9e-16)
        with mpmath.workdps(30):
            ref = mpmath.findroot(lambda x: mpmath.cos(x) + mpmath.sech(x), x0)
            root = pd.cantilever_root(i)
            assert abs(mpmath.mpf(root) - ref) <= np.spacing(root), i


def test_root_index_is_one_based():
    with pytest.raises(InvalidInputError):
        pd.cantilever_root(0)


def test_unit_beam_first_frequency(unit_model):
    assert unit_model.modes[0].freq_hz == pytest.approx(FIRST_FREQ_UNIT_BEAM,
                                                        rel=1e-12)


def test_analytic_frequency_formula():
    props = pd.BeamProperties(2.0, 3.0, 5.0)
    model = pd.analytic_cantilever_modes(props, 3, 64)
    for i, m in enumerate(model.modes, start=1):
        bl = pd.cantilever_root(i)
        expect = bl * bl * np.sqrt(3.0 / (5.0 * 2.0 ** 4))
        assert m.omega == pytest.approx(expect, rel=1e-14)


def test_analytic_frequencies_independent_of_grid(unit_beam):
    a = pd.analytic_cantilever_modes(unit_beam, 3, 64)
    b = pd.analytic_cantilever_modes(unit_beam, 3, 256)
    for ma, mb in zip(a.modes, b.modes):
        assert ma.omega == mb.omega


def test_analytic_shapes_mass_normalized(unit_beam):
    model = pd.analytic_cantilever_modes(unit_beam, 4, 801)
    for m in model.modes:
        mu = simpson(m.phi * m.phi, x=model.grid) * unit_beam.mass_per_length
        assert mu == pytest.approx(1.0, rel=1e-6)


def test_analytic_shapes_orthogonal(unit_beam):
    model = pd.analytic_cantilever_modes(unit_beam, 3, 801)
    for i in range(3):
        for j in range(i + 1, 3):
            inner = simpson(model.modes[i].phi * model.modes[j].phi,
                            x=model.grid)
            assert abs(inner) < 1e-6


def test_analytic_clamped_end_and_sign(unit_beam):
    model = pd.analytic_cantilever_modes(unit_beam, 6, 301)
    L = unit_beam.length
    tip = 2.0 / np.sqrt(unit_beam.mass_per_length * L)
    for m in model.modes:
        assert m.phi[0] == 0.0
        assert m.theta[0] == 0.0
        assert m.theta[-1] > 0.0
        # Free-end deflection magnitude is 2 for the raw shape.
        assert abs(m.phi[-1]) == pytest.approx(tip, rel=1e-9)


def test_analytic_high_mode_shape_is_finite(unit_beam):
    # The textbook cosh - sigma sinh form loses all precision up here.
    model = pd.analytic_cantilever_modes(unit_beam, 10, 301)
    m = model.modes[-1]
    assert np.all(np.isfinite(m.phi))
    tip = 2.0 / np.sqrt(unit_beam.mass_per_length * unit_beam.length)
    assert abs(m.phi[-1]) == pytest.approx(tip, rel=1e-6)
    # Past mode 226 sinh(bl) and cosh(bl) overflow; the shapes written in
    # exp(-bl) do not, and stay mass normalized.
    model = pd.analytic_cantilever_modes(unit_beam, 240, 4001)
    for m in model.modes:
        assert np.all(np.isfinite(m.phi)) and np.all(np.isfinite(m.theta))
        mu = simpson(m.phi * m.phi, x=model.grid) * unit_beam.mass_per_length
        assert mu == pytest.approx(1.0, rel=1e-6)


def test_analytic_validation(unit_beam):
    with pytest.raises(InvalidInputError):
        pd.analytic_cantilever_modes(unit_beam, 0)
    with pytest.raises(InvalidInputError):
        pd.analytic_cantilever_modes(unit_beam, 1, n_grid=15)


def test_beam_properties_validation():
    with pytest.raises(InvalidInputError):
        pd.BeamProperties(0.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        pd.BeamProperties(1.0, -1.0, 1.0)
    with pytest.raises(InvalidInputError):
        pd.BeamProperties(1.0, 1.0, 1.0, structural_damping=1.0)
    for k in range(3):
        for bad in (np.nan, np.inf):
            args = [1.0, 1.0, 1.0]
            args[k] = bad
            with pytest.raises(InvalidInputError, match="positive and finite"):
                pd.BeamProperties(*args)


def test_fe_matches_analytic(unit_beam, unit_model):
    fe = pd.fe_beam_modes(unit_beam, 64, 4)
    for ma, mf in zip(unit_model.modes, fe.modes):
        assert mf.omega == pytest.approx(ma.omega, rel=1e-5)
        assert mf.phi[0] == 0.0
        assert mf.theta[0] == 0.0
        assert mf.theta[-1] >= 0.0


def test_fe_fine_mesh_matches_analytic(unit_beam):
    # At 800 elements the mesh error of these 20 modes is about 2e-8 in
    # frequency and 5e-8 in shape, so this measures the eigensolver's
    # accuracy on the lowest modes.
    n_el = 800
    fe = pd.fe_beam_modes(unit_beam, n_el, 20)
    analytic = pd.analytic_cantilever_modes(unit_beam, 20, n_grid=n_el + 1)
    for ma, mf in zip(analytic.modes, fe.modes):
        assert mf.omega == pytest.approx(ma.omega, rel=1e-7)
        peak = np.max(np.abs(ma.phi))
        np.testing.assert_allclose(mf.phi, ma.phi, rtol=0, atol=1e-6 * peak)
    # The stored modal mass of 1 kg holds at this mesh too.
    _, M = pd.assemble_beam_matrices(unit_beam, n_el)
    V = np.empty((2 * n_el, 20))
    for i, m in enumerate(fe.modes):
        V[0::2, i] = m.phi[1:]
        V[1::2, i] = m.theta[1:]
    np.testing.assert_allclose(V.T @ M[2:, 2:] @ V, np.eye(20), atol=1e-8)


def _times_banded(F, K):
    """F @ K for a K with nonzeros only on its seven central diagonals."""
    n = K.shape[0]
    out = np.zeros_like(F)
    for d in range(-3, 4):
        rows = slice(max(0, -d), n - max(0, d))
        cols = slice(max(0, d), n - max(0, -d))
        out[:, cols] += F[:, rows] * np.diagonal(K, d)
    return out


_beams = st.builds(
    pd.BeamProperties,
    st.floats(0.05, 5.0),
    st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
    st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e))


def _oracle_pattern(n_elements):
    """6 EI / le^3 times the cantilever flexibility in the DOFs
    (w_1, le theta_1, w_2, le theta_2, ...), assembled densely by Maxwell
    reciprocity. With x_i = i le every entry is a polynomial in the node
    numbers i, j (a = min, b = max): deflection per force a^2 (3b - a),
    slope per moment 6a, deflection at i per moment at j 3 i^2 for i <= j
    and 3 j (2i - j) beyond it, and its transpose. So it holds exact
    integers."""
    i = np.arange(1.0, n_elements + 1.0)[:, None]
    j = i.T
    a = np.minimum(i, j)
    b = np.maximum(i, j)
    G = np.empty((2 * n_elements, 2 * n_elements))
    G[0::2, 0::2] = a * a * (3.0 * b - a)
    G[1::2, 1::2] = 6.0 * a
    w_per_moment = 3.0 * np.where(i <= j, i * i, j * (2.0 * i - j))
    G[0::2, 1::2] = w_per_moment
    G[1::2, 0::2] = w_per_moment.T
    return G


def _oracle_flexibility(props, n_elements):
    """Inverse of the clamped stiffness ``K[2:, 2:]`` in the DOFs
    (w_1, theta_1, w_2, theta_2, ...), from ``_oracle_pattern``."""
    le = props.length / n_elements
    F = _oracle_pattern(n_elements) * (le ** 3 / (6.0 * props.bending_stiffness))
    F[1::2] /= le
    F[:, 1::2] /= le
    return F


@settings(max_examples=30, deadline=None)
@given(props=_beams, n_el=st.integers(4, 800))
@example(props=pd.BeamProperties(1.0, 1.0, 1.0), n_el=800)
def test_cantilever_flexibility_inverts_stiffness(props, n_el):
    F = _oracle_flexibility(props, n_el)
    np.testing.assert_array_equal(F, F.T)
    K, _ = pd.assemble_beam_matrices(props, n_el)
    Kf = K[2:, 2:]
    assert not np.any(np.triu(Kf, 4))
    err = np.max(np.abs(_times_banded(F, Kf) - np.eye(2 * n_el)))
    assert err <= 1e-13 * np.max(np.abs(F)) * np.max(np.abs(Kf))


@settings(max_examples=40, deadline=None)
@given(n_el=st.integers(4, 800), width=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_el=4, width=1, seed=0)
@example(n_el=800, width=64, seed=0)
def test_flexibility_product_matches_dense_pattern(n_el, width, seed):
    Y = np.random.default_rng(seed).standard_normal((2 * n_el, width))
    ref = _oracle_pattern(n_el) @ Y
    err = np.max(np.abs(pd.modal._flexibility_times(Y) - ref))
    assert err <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(n_el=st.integers(4, 800), width=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_el=4, width=1, seed=0)
@example(n_el=800, width=64, seed=0)
def test_mass_product_matches_dense_mass(n_el, width, seed):
    # Unit elements at rhoA = 420: the integer mass the eigensolve runs on.
    _, me = pd.modal.beam_element_matrices(1.0, 420.0, 1.0)
    _, M = pd.assemble_beam_matrices(pd.BeamProperties(n_el, 1.0, 420.0), n_el)
    X = np.random.default_rng(seed).standard_normal((2 * n_el, width))
    ref = M[2:, 2:] @ X
    err = np.max(np.abs(pd.modal._clamped_mass_times(me, X) - ref))
    assert err <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_el, n_modes", [(800, 20), (10, 10), (800, 200)])
def test_fe_frequencies_match_dense_numpy_eigensolve(n_el, n_modes):
    # The solve runs on G N v = nu v, N the integer mass of unit elements at
    # rhoA = 420. With N = R R', R' G R is symmetric with the same
    # eigenvalues, which numpy's dense solver gives to about eps nu_1 each.
    props = pd.BeamProperties(1.0, 20.0, 1.0)
    _, N = pd.assemble_beam_matrices(pd.BeamProperties(n_el, 1.0, 420.0), n_el)
    R = np.linalg.cholesky(N[2:, 2:])
    nus = np.linalg.eigvalsh(R.T @ _oracle_pattern(n_el) @ R)[::-1][:n_modes]
    fe = pd.fe_beam_modes(props, n_el, n_modes)
    omegas = np.array([m.omega for m in fe.modes])
    le = props.length / n_el
    scale = 2520.0 * props.bending_stiffness / (props.mass_per_length * le ** 4)
    assert np.max(np.abs(scale / omegas ** 2 - nus)) <= 1e-14 * nus[0]
    # Absolute errors of order eps nu_1 are relative errors of order
    # eps nu_1 / nu_m, so only the lowest modes are held to 1e-10.
    low = min(n_modes, 20)
    np.testing.assert_allclose(omegas[:low], np.sqrt(scale / nus[:low]),
                               rtol=1e-10, atol=0)


@settings(max_examples=60, deadline=None)
@given(props=_beams, n_el=st.integers(4, 200), data=st.data())
@example(props=pd.BeamProperties(1.0, 1.0, 1.0), n_el=4, data=None)
@example(props=pd.BeamProperties(0.3, 20.0, 0.5), n_el=30, data=None)
def test_fe_modes_match_dense_eigensolve(props, n_el, data):
    # data=None picks n_modes = n_elements: the block spans every DOF.
    n_modes = (n_el if data is None
               else data.draw(st.integers(1, min(n_el, 30)), label="n_modes"))
    fe = pd.fe_beam_modes(props, n_el, n_modes)
    K, M = pd.assemble_beam_matrices(props, n_el)
    Kf, Mf = K[2:, 2:], M[2:, 2:]
    n_dof = Kf.shape[0]
    mus, V = scipy.linalg.eigh(Mf, Kf,
                               subset_by_index=(n_dof - n_modes, n_dof - 1))
    mus, V = mus[::-1], V[:, ::-1]
    Phi = np.empty((n_dof, n_modes))
    for i, m in enumerate(fe.modes):
        Phi[0::2, i] = m.phi[1:]
        Phi[1::2, i] = m.theta[1:]
    np.testing.assert_allclose([m.omega for m in fe.modes], 1.0 / np.sqrt(mus),
                               rtol=1e-7)
    # scipy's vectors are K-orthonormal; v / sqrt(mu) is mass normalized.
    V = V / np.sqrt(mus) * np.sign(np.diagonal(V.T @ Mf @ Phi))
    peak = np.max(np.abs(V[0::2]), axis=0)
    assert np.all(np.abs(Phi[0::2] - V[0::2]) <= 5e-6 * peak)
    np.testing.assert_allclose(Phi.T @ Mf @ Phi, np.eye(n_modes), rtol=0,
                               atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(n_el=st.integers(4, 60), n_modes=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_el=60, n_modes=60, seed=0)
@example(n_el=60, n_modes=55, seed=0)
@example(n_el=60, n_modes=26, seed=0)
@example(n_el=60, n_modes=27, seed=0)
@example(n_el=4, n_modes=1, seed=0)
def test_subspace_iteration_from_either_start_matches_scipy(n_el, n_modes,
                                                            seed):
    # The closed-form start and a random orthonormal one must reach the same
    # eigenpairs. The examples put p at n_dof (60) or near it (55), and on
    # either side of p = n_el (26, 27).
    assume(n_modes <= n_el)
    n_dof = 2 * n_el
    p = min(n_dof, 2 * n_modes + 8)
    # Unit elements at EI = 1 and rhoA = 420: the scaled DOFs of the solve,
    # in which G = 6 K^-1 and M is the integer mass.
    _, me = pd.modal.beam_element_matrices(1.0, 420.0, 1.0)
    K, M = pd.assemble_beam_matrices(pd.BeamProperties(n_el, 1.0, 420.0), n_el)
    Kf, Mf = K[2:, 2:], M[2:, 2:]
    lams, V = scipy.linalg.eigh(Mf, Kf,
                                subset_by_index=(n_dof - n_modes, n_dof - 1))
    lams, V = lams[::-1], V[:, ::-1] / np.sqrt(lams[::-1])
    peak = np.max(np.abs(V[0::2]), axis=0)
    random = np.linalg.qr(
        np.random.default_rng(seed).standard_normal((n_dof, p)))[0]
    for start in (pd.modal._cantilever_block(n_el, p), random):
        nus, vecs = pd.modal._subspace_iteration(me, start, n_modes)
        np.testing.assert_allclose(np.sqrt(nus), np.sqrt(6.0 * lams),
                                   rtol=1e-7)
        np.testing.assert_allclose(vecs.T @ Mf @ vecs, np.eye(n_modes),
                                   rtol=0, atol=1e-10)
        ref = V * np.sign(np.diagonal(V.T @ Mf @ vecs))
        assert np.all(np.abs(vecs[0::2] - ref[0::2]) <= 5e-6 * peak)


@pytest.mark.parametrize("n_el, n_modes", [(800, 795), (100, 90), (10, 9),
                                           (4, 4)])
def test_fe_corner_meshes_match_dense_numpy_eigensolve(n_el, n_modes):
    # Blocks at or near n_dof, and (100, 90), where the start spans the
    # upper block modes poorly and the residual first falls by only about
    # half per pass. Every eigenvalue nu = 1/omega^2 in the scaled DOFs is
    # held to 1e-14 nu_1, the accuracy of numpy's dense solver.
    props = pd.BeamProperties(1.0, 20.0, 1.0)
    _, N = pd.assemble_beam_matrices(pd.BeamProperties(n_el, 1.0, 420.0), n_el)
    R = np.linalg.cholesky(N[2:, 2:])
    nus = np.linalg.eigvalsh(R.T @ _oracle_pattern(n_el) @ R)[::-1][:n_modes]
    fe = pd.fe_beam_modes(props, n_el, n_modes)
    omegas = np.array([m.omega for m in fe.modes])
    le = props.length / n_el
    scale = 2520.0 * props.bending_stiffness / (props.mass_per_length * le ** 4)
    assert np.max(np.abs(scale / omegas ** 2 - nus)) <= 1e-14 * nus[0]


def test_fe_model_build_leaves_numpy_random_unimported():
    # The start block is closed form. Recent numpy imports numpy.random
    # only on first use, so a build that draws no random numbers never
    # loads it; an older numpy loads it with numpy itself, and then nothing
    # is left to save.
    src = Path(pd.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    probe = ("import sys, piezodamp as pd\n"
             "before = 'numpy.random' in sys.modules\n"
             "pd.fe_beam_modes(pd.BeamProperties(1.0, 20.0, 1.0), 800, 20)\n"
             "print(before, 'numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    before, after = out.stdout.split()
    assert after == before


def test_fe_mass_orthonormality(unit_beam):
    n_el = 32
    fe = pd.fe_beam_modes(unit_beam, n_el, 5)
    K, M = pd.assemble_beam_matrices(unit_beam, n_el)
    Kf, Mf = K[2:, 2:], M[2:, 2:]
    V = np.empty((Kf.shape[0], 5))
    for i, m in enumerate(fe.modes):
        V[0::2, i] = m.phi[1:]
        V[1::2, i] = m.theta[1:]
    gram = V.T @ Mf @ V
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)
    stiff = V.T @ Kf @ V
    # Rayleigh quotients agree with the eigenvalues up to the rounding of
    # V' K V, which scales with ||K|| (~4e5 here), not with lambda_1.
    np.testing.assert_allclose(np.diag(stiff),
                               [m.omega ** 2 for m in fe.modes], rtol=1e-7)


def test_fe_mode_budget(unit_beam):
    with pytest.raises(InvalidInputError):
        pd.fe_beam_modes(unit_beam, 4, 5)
    with pytest.raises(InvalidInputError):
        pd.fe_beam_modes(unit_beam, 3, 1)
    model = pd.fe_beam_modes(unit_beam, 4, 4)
    assert model.n_modes == 4


def test_element_matrices_symmetric(unit_beam):
    ke, me = pd.modal.beam_element_matrices(2.0, 3.0, 0.25)
    np.testing.assert_array_equal(ke, ke.T)
    np.testing.assert_array_equal(me, me.T)
    # Rigid translation carries no strain energy.
    rigid = np.array([1.0, 0.0, 1.0, 0.0])
    assert abs(rigid @ ke @ rigid) < 1e-12


def _write_shapes(path, x, cols, header="x_m,mode1,mode2"):
    lines = [header]
    for k in range(len(x)):
        lines.append(",".join([f"{x[k]:.17g}"]
                              + [f"{c[k]:.17g}" for c in cols]))
    path.write_text("\n".join(lines) + "\n")


def test_load_measured_round_trip(tmp_path, unit_model):
    x = unit_model.grid
    cols = [unit_model.modes[0].phi, unit_model.modes[1].phi]
    f = tmp_path / "shapes.csv"
    _write_shapes(f, x, cols)
    freqs = [unit_model.modes[0].freq_hz, unit_model.modes[1].freq_hz]
    model = pd.load_measured_modes(f, freqs, [0.01, 0.02])
    assert model.source == "measured"
    assert model.n_modes == 2
    for m, fz, z in zip(model.modes, freqs, [0.01, 0.02]):
        assert m.freq_hz == pytest.approx(fz, rel=1e-15)
        assert m.zeta == z
        assert np.max(np.abs(m.phi)) == pytest.approx(1.0, abs=1e-15)


def test_load_measured_frequency_order(tmp_path, unit_model):
    x = unit_model.grid
    cols = [unit_model.modes[1].phi, unit_model.modes[0].phi]
    f = tmp_path / "shapes.csv"
    _write_shapes(f, x, cols)
    # Columns arrive higher-mode first; the model sorts by frequency.
    model = pd.load_measured_modes(
        f, [unit_model.modes[1].freq_hz, unit_model.modes[0].freq_hz],
        [0.03, 0.01])
    assert model.modes[0].freq_hz < model.modes[1].freq_hz
    assert model.modes[0].zeta == 0.01
    peak = np.max(np.abs(unit_model.modes[0].phi))
    np.testing.assert_allclose(model.modes[0].phi,
                               unit_model.modes[0].phi / peak, rtol=1e-14)


def test_load_measured_scale_invariance(tmp_path, unit_model):
    x = unit_model.grid
    col = unit_model.modes[0].phi
    fa = tmp_path / "a.csv"
    fb = tmp_path / "b.csv"
    _write_shapes(fa, x, [col], header="x_m,mode1")
    _write_shapes(fb, x, [col * 4.0], header="x_m,mode1")
    a = pd.load_measured_modes(fa, [10.0])
    b = pd.load_measured_modes(fb, [10.0])
    # Scaling by a power of two is exact, so the models match bit for bit.
    np.testing.assert_array_equal(a.modes[0].phi, b.modes[0].phi)
    np.testing.assert_array_equal(a.modes[0].theta, b.modes[0].theta)

    fc = tmp_path / "c.csv"
    _write_shapes(fc, x, [col * 10.0], header="x_m,mode1")
    c = pd.load_measured_modes(fc, [10.0])
    np.testing.assert_allclose(a.modes[0].phi, c.modes[0].phi,
                               rtol=1e-14, atol=1e-16)


def test_load_measured_parse_errors(tmp_path):
    f = tmp_path / "bad.csv"

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{v / 10},{v}" for v in range(8)) + "\n")
    model = pd.load_measured_modes(f, [3.0])
    assert model.n_modes == 1

    f.write_text("position,mode1\n0,0\n")
    with pytest.raises(InvalidInputError, match="header"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n0,0\n0.1,1\n0.2,oops\n0.3,1\n0.4,1\n"
                 "0.5,1\n0.6,1\n0.7,1\n")
    with pytest.raises(InvalidInputError, match=r"line 4.*mode1"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n0,0\n0.1,1\n0.2,1\n")
    with pytest.raises(InvalidInputError, match="at least 8"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{v / 10},1,9" for v in range(8)) + "\n")
    with pytest.raises(InvalidInputError, match="expected 2 fields"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{(7 - v) / 10},1" for v in range(8)) + "\n")
    with pytest.raises(InvalidInputError, match="increasing|must be 0"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{x},1" for x in (0, 0.1, 0.2, 0.2, 0.4, 0.5, 0.6, 0.7)) + "\n")
    with pytest.raises(InvalidInputError,
                       match="x_m must be strictly increasing; "
                             "row 4 of the data violates this"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{(v + 1) / 10},1" for v in range(8)) + "\n")
    with pytest.raises(InvalidInputError, match="must be 0"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1,mode2\n" + "\n".join(
        f"{v / 10},{v},0" for v in range(8)) + "\n")
    with pytest.raises(InvalidInputError, match="mode2.*zero"):
        pd.load_measured_modes(f, [3.0, 5.0])


def test_load_measured_argument_errors(tmp_path):
    f = tmp_path / "ok.csv"
    f.write_text("x_m,mode1\n" + "\n".join(
        f"{v / 10},{v}" for v in range(8)) + "\n")
    with pytest.raises(InvalidInputError, match="columns"):
        pd.load_measured_modes(f, [3.0, 4.0])
    with pytest.raises(InvalidInputError, match="^damping must list one ratio "
                                                "per frequency: 2 for 1$"):
        pd.load_measured_modes(f, [3.0], damping=[0.01, 0.02])
    # The list rules run before the file is read: at least one frequency,
    # each under the angular-frequency rule.
    with pytest.raises(
            InvalidInputError,
            match="^frequencies_hz must list positive, finite frequencies$"):
        pd.load_measured_modes(tmp_path / "absent.csv", [])
    for freqs in ([-3.0], [0.0, 3.0], [np.nan, 76.0], [58.0, np.inf],
                  [58.0, 1e200]):
        with pytest.raises(
                InvalidInputError,
                match="^frequencies_hz must be positive and finite, with a "
                      "nonzero, finite square$"):
            pd.load_measured_modes(tmp_path / "absent.csv", freqs)


def test_load_measured_names_a_repeated_frequency(tmp_path):
    # The loader sorts the frequencies itself, so a repeat is named as such
    # rather than reported as an unsorted model.
    f = tmp_path / "two.csv"
    f.write_text("x_m,mode1,mode2\n" + "\n".join(
        f"{v / 10},{v},{v * v}" for v in range(8)) + "\n")
    with pytest.raises(InvalidInputError,
                       match="^measured frequency 76 Hz is listed twice$"):
        pd.load_measured_modes(f, [76.0, 76.0])


def test_load_measured_skips_comments(tmp_path, gripper_shapes_csv):
    model = pd.load_measured_modes(gripper_shapes_csv, [58.0, 76.0])
    assert model.n_modes == 2
    assert model.grid.size == 41
    assert model.length == pytest.approx(0.4)


def test_load_measured_slope_exact_on_quadratic(tmp_path):
    # Non-uniform grid; the shape already has unit peak (at x = 1).
    x = np.array([0.0, 0.1, 0.3, 0.35, 0.6, 0.7, 0.85, 1.0])
    f = tmp_path / "shapes.csv"
    _write_shapes(f, x, [3.0 * x * x - 2.0 * x], header="x_m,mode1")
    model = pd.load_measured_modes(f, [1.0])
    np.testing.assert_allclose(model.modes[0].theta, 6.0 * x - 2.0,
                               rtol=1e-12, atol=1e-12)


def test_load_measured_slope_linearity(tmp_path):
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 1.0, 33)
    fa = rng.standard_normal(33)
    fb = rng.standard_normal(33)
    combo = 2.5 * fa - 1.25 * fb
    f = tmp_path / "shapes.csv"
    _write_shapes(f, x, [fa, fb, combo], header="x_m,mode1,mode2,mode3")
    model = pd.load_measured_modes(f, [1.0, 2.0, 3.0])
    # Undo the unit-peak scaling to compare the raw columns' slopes.
    sa, sb, sc = (m.theta * np.max(np.abs(col))
                  for m, col in zip(model.modes, (fa, fb, combo)))
    np.testing.assert_allclose(sc, 2.5 * sa - 1.25 * sb,
                               rtol=1e-12, atol=1e-12)


def test_modal_model_validation(unit_model):
    m = unit_model.modes[0]
    with pytest.raises(InvalidInputError, match="start at x = 0"):
        pd.ModalModel(unit_model.grid + 1.0, [m], "analytic")
    with pytest.raises(InvalidInputError, match="increasing"):
        grid = unit_model.grid.copy()
        grid[5] = grid[4]
        pd.ModalModel(grid, [m], "analytic")
    for bad in (np.nan, np.inf):
        grid = unit_model.grid.copy()
        grid[-1] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            pd.ModalModel(grid, [m], "analytic")
    with pytest.raises(InvalidInputError, match="source"):
        pd.ModalModel(unit_model.grid, [m], "guessed")
    with pytest.raises(InvalidInputError, match="sorted"):
        pd.ModalModel(unit_model.grid,
                      [unit_model.modes[1], unit_model.modes[0]],
                      "analytic")
    # Each mode is checked under its position, before the sort check.
    for bad, message in (
            (replace(m, omega=0.0), "mode 2: omega must be positive"),
            (replace(m, omega=1e300), "mode 2: omega must be positive and "
                                      "finite, with a nonzero, finite square"),
            (replace(m, omega=np.nan), "mode 2: omega must be positive and "
                                       "finite, with a nonzero, finite "
                                       "square"),
            (replace(m, zeta=1.0), r"mode 2: zeta must lie in \[0, 1\)"),
            (replace(m, zeta=-0.1), r"mode 2: zeta must lie in \[0, 1\)"),
            (replace(m, phi=m.phi[:-1]),
             "mode 2: shape sample count does not match the grid"),
            (replace(m, phi=np.append(m.phi[:-1], np.nan)),
             "mode 2: shape samples must be finite"),
            (replace(m, theta=np.append(m.theta[:-1], np.inf)),
             "mode 2: shape samples must be finite")):
        with pytest.raises(InvalidInputError, match=message):
            pd.ModalModel(unit_model.grid, [unit_model.modes[1], bad],
                          "analytic")
    with pytest.raises(InvalidInputError, match="index"):
        unit_model.mode(0)
    with pytest.raises(InvalidInputError, match="index"):
        unit_model.mode(99)


# Squares overflow from next to sqrt(max float) on and underflow to 0 below
# about sqrt(min subnormal).
_ROOT_MAX = float(np.sqrt(np.finfo(float).max))
_ROOT_TINY = float(np.sqrt(np.finfo(float).smallest_subnormal))
_OMEGA_EDGES = [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 1e200, 1e-200] + [
    float(v) for root in (_ROOT_MAX, _ROOT_TINY)
    for v in root + np.arange(-3, 4) * np.spacing(root)]


def _accepts(make, *args) -> bool:
    try:
        make(*args)
    except InvalidInputError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_OMEGA_EDGES) | st.floats()
       | st.floats(0.5 * _ROOT_MAX, 2.0 * _ROOT_MAX)
       | st.floats(0.5 * _ROOT_TINY, 2.0 * _ROOT_TINY))
def test_every_owner_of_an_angular_frequency_applies_one_rule(omega):
    grid = np.linspace(0.0, 1.0, 4)
    verdicts = {
        _accepts(pd.ModalModel, grid, [pd.Mode(omega, 0.01, grid, grid)],
                 "analytic"),
        _accepts(pd.ModalPlant, [omega], [0.01], [1.0]),
        _accepts(pd.PPFConfig, omega, 0.3),
        _accepts(pd.coupling_from_frequencies, omega, omega)}
    assert verdicts == {omega > 0.0 and 0.0 < omega * omega < np.inf}


def test_an_angular_frequency_whose_square_overflows_is_refused():
    message = "must be positive and finite, with a nonzero, finite square"
    with pytest.raises(InvalidInputError, match="frequencies " + message):
        pd.coupling_from_frequencies(1e200, 1e200)
    with pytest.raises(InvalidInputError, match="plant frequencies " + message):
        pd.ModalPlant([1e200], [0.01], [1.0])
    with pytest.raises(InvalidInputError, match="filter frequency " + message):
        pd.PPFConfig.from_hz(1e200, 0.3)
