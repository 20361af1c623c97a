from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq

import piezodamp as pd
from piezodamp.errors import InvalidInputError, ParseError

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


def test_load_measured_smooth(tmp_path):
    x = np.linspace(0.0, 1.0, 11)
    col = x.copy()
    col[5] += 0.3  # one noisy sample
    f = tmp_path / "s.csv"
    _write_shapes(f, x, [col], header="x_m,mode1")
    rough = pd.load_measured_modes(f, [5.0])
    smooth = pd.load_measured_modes(f, [5.0], smooth=True)
    expected = (col[4] + col[5] + col[6]) / 3.0
    inner = (col[:-2] + col[1:-1] + col[2:]) / 3.0
    peak = max(np.max(np.abs(inner)), abs(col[0]), abs(col[-1]))
    assert smooth.modes[0].phi[5] == pytest.approx(expected / peak, rel=1e-12)
    assert not np.allclose(rough.modes[0].phi, smooth.modes[0].phi)


def test_load_measured_parse_errors(tmp_path):
    f = tmp_path / "bad.csv"

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{v / 10},{v}" for v in range(8)) + "\n")
    model = pd.load_measured_modes(f, [3.0])
    assert model.n_modes == 1

    f.write_text("position,mode1\n0,0\n")
    with pytest.raises(ParseError, match="header"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n0,0\n0.1,1\n0.2,oops\n0.3,1\n0.4,1\n"
                 "0.5,1\n0.6,1\n0.7,1\n")
    with pytest.raises(ParseError, match=r"line 4.*mode1"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n0,0\n0.1,1\n0.2,1\n")
    with pytest.raises(ParseError, match="at least 8"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{v / 10},1,9" for v in range(8)) + "\n")
    with pytest.raises(ParseError, match="expected 2 fields"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{(7 - v) / 10},1" for v in range(8)) + "\n")
    with pytest.raises(ParseError, match="increasing|must be 0"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{x},1" for x in (0, 0.1, 0.2, 0.2, 0.4, 0.5, 0.6, 0.7)) + "\n")
    with pytest.raises(ParseError, match="x_m must be strictly increasing; "
                                         "row 4 of the data violates this"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1\n" + "\n".join(
        f"{(v + 1) / 10},1" for v in range(8)) + "\n")
    with pytest.raises(ParseError, match="must be 0"):
        pd.load_measured_modes(f, [3.0])

    f.write_text("x_m,mode1,mode2\n" + "\n".join(
        f"{v / 10},{v},0" for v in range(8)) + "\n")
    with pytest.raises(ParseError, match="mode2.*zero"):
        pd.load_measured_modes(f, [3.0, 5.0])


def test_load_measured_argument_errors(tmp_path):
    f = tmp_path / "ok.csv"
    f.write_text("x_m,mode1\n" + "\n".join(
        f"{v / 10},{v}" for v in range(8)) + "\n")
    with pytest.raises(InvalidInputError, match="columns"):
        pd.load_measured_modes(f, [3.0, 4.0])
    with pytest.raises(InvalidInputError, match="damping"):
        pd.load_measured_modes(f, [3.0], damping=[0.01, 0.02])
    with pytest.raises(InvalidInputError, match="positive"):
        pd.load_measured_modes(f, [-3.0])


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
    with pytest.raises(InvalidInputError, match="source"):
        pd.ModalModel(unit_model.grid, [m], "guessed")
    with pytest.raises(InvalidInputError, match="sorted"):
        pd.ModalModel(unit_model.grid,
                      [unit_model.modes[1], unit_model.modes[0]],
                      "analytic")
    # Each mode is checked under its position, before the sort check.
    for bad, message in (
            (replace(m, omega=0.0), "mode 2: omega must be positive"),
            (replace(m, omega=1e300), r"mode 2: omega = 1e\+300 rad/s is "
                                      "not finite or its square overflows"),
            (replace(m, omega=np.nan), "mode 2: omega = nan rad/s"),
            (replace(m, zeta=1.0), r"mode 2: zeta must lie in \[0, 1\)"),
            (replace(m, zeta=-0.1), r"mode 2: zeta must lie in \[0, 1\)"),
            (replace(m, phi=m.phi[:-1]),
             "mode 2: shape sample count does not match the grid")):
        with pytest.raises(InvalidInputError, match=message):
            pd.ModalModel(unit_model.grid, [unit_model.modes[1], bad],
                          "analytic")
    with pytest.raises(InvalidInputError, match="index"):
        unit_model.mode(0)
    with pytest.raises(InvalidInputError, match="index"):
        unit_model.mode(99)
