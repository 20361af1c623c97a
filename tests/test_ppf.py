from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piezodamp as pd
from piezodamp.errors import InvalidInputError


def _frf_point(sys_, w):
    n = sys_.A.shape[0]
    M = 1j * w * np.eye(n) - sys_.A
    return (sys_.C @ np.linalg.solve(M, sys_.B.astype(complex)))[0, 0]


def test_plant_system_structure():
    plant = pd.ModalPlant([2.0, 5.0], [0.01, 0.02], [1.0, -0.5])
    sys_ = pd.plant_system(plant)
    A = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-4.0, -2.0 * 0.01 * 2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -25.0, -2.0 * 0.02 * 5.0],
    ])
    np.testing.assert_array_equal(sys_.A, A)
    np.testing.assert_array_equal(sys_.B[:, 0], [0.0, 1.0, 0.0, -0.5])
    np.testing.assert_array_equal(sys_.C[0], [1.0, 0.0, -0.5, 0.0])


def test_plant_validation():
    with pytest.raises(InvalidInputError):
        pd.ModalPlant([1.0, 2.0], [0.01], [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        pd.ModalPlant([-1.0], [0.01], [1.0])
    with pytest.raises(InvalidInputError):
        pd.ModalPlant([1.0], [1.0], [1.0])
    # An inf mode would drop out of g* = 1 / sum(b_i^2 / omega_i^2).
    for omegas in ([np.inf], [1.0, np.inf], [np.nan]):
        with pytest.raises(InvalidInputError, match="plant frequencies"):
            pd.ModalPlant(omegas, [0.01] * len(omegas), [1.0] * len(omegas))
    with pytest.raises(InvalidInputError, match="damping ratios"):
        pd.ModalPlant([1.0], [np.nan], [1.0])


def test_controller_dc_gain():
    cfg = pd.PPFConfig(2.0 * np.pi * 76.7, 0.3, gain=4.5)
    ctrl = pd.ppf_controller(cfg)
    # Constant input y0 settles to u = gain * y0.
    y0 = 2.0
    x_ss = np.linalg.solve(-ctrl.A, ctrl.B[:, 0] * y0)
    assert ctrl.C[0] @ x_ss == pytest.approx(cfg.gain * y0, rel=1e-14)


def test_ppf_config_validation():
    with pytest.raises(InvalidInputError):
        pd.PPFConfig(0.0, 0.3)
    with pytest.raises(InvalidInputError):
        pd.PPFConfig(1.0, 1.0)
    with pytest.raises(InvalidInputError):
        pd.PPFConfig(1.0, 0.3, gain=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="filter frequency"):
            pd.PPFConfig(bad, 0.3)
        with pytest.raises(InvalidInputError, match="gain"):
            pd.PPFConfig(1.0, 0.3, gain=bad)
    cfg = pd.PPFConfig.from_hz(76.7, 0.3)
    assert cfg.omega_f == pytest.approx(2.0 * np.pi * 76.7, rel=1e-15)


def test_build_plant_normalizes_influence(unit_model, patch):
    plant = pd.build_plant(unit_model, patch)
    assert np.max(np.abs(plant.b)) == 1.0
    assert plant.n_modes == unit_model.n_modes == 4
    np.testing.assert_array_equal(plant.omegas,
                                  [m.omega for m in unit_model.modes])
    np.testing.assert_array_equal(plant.zetas,
                                  [m.zeta for m in unit_model.modes])


def test_shape_scale_reaches_coupling_and_plant_alike(unit_model, patch,
                                                      material):
    # The shape carries the modal mass: halving mode 2's shape, a modal mass
    # of 4 in the units of the old shape, quarters its K2 and halves its
    # influence relative to mode 1.
    m1, m2, m3 = unit_model.modes[:3]
    scaled = pd.ModalModel(unit_model.grid, [
        m1, pd.Mode(m2.omega, m2.zeta, m2.phi / 2.0, m2.theta / 2.0), m3],
        "analytic")
    k2 = [pd.coupling_factor(model, patch, material, 2).k2
          for model in (unit_model, scaled)]
    assert k2[1] == pytest.approx(k2[0] / 4.0, rel=1e-14)
    base, half = (pd.build_plant(model, patch)
                  for model in (unit_model, scaled))
    assert half.b[1] / half.b[0] == pytest.approx(
        0.5 * base.b[1] / base.b[0], rel=1e-14)
    assert half.b[2] / half.b[0] == pytest.approx(base.b[2] / base.b[0],
                                                  rel=1e-14)


def test_build_plant_degenerate():
    # Constant slope: zero slope difference for every patch position.
    x = np.linspace(0.0, 1.0, 21)
    mode = pd.Mode(10.0, 0.01, x.copy(), np.ones_like(x))
    model = pd.ModalModel(x, [mode], "analytic")
    patch = pd.PatchGeometry(0.2, 0.02, 0.0005, 0.00125)
    with pytest.raises(InvalidInputError, match="^every mode has zero slope "
                                                 "difference across the patch$"):
        pd.build_plant(model, patch)


def test_close_loop_zero_gain_keeps_poles():
    plant = pd.ModalPlant([2.0 * np.pi * 75.0], [0.01], [1.0])
    psys = pd.plant_system(plant)
    ctrl = pd.ppf_controller(pd.PPFConfig(2.0 * np.pi * 76.7, 0.3, gain=0.0))
    cl = pd.close_loop(psys, ctrl)
    got = np.sort_complex(np.linalg.eigvals(cl.A))
    expect = np.sort_complex(np.concatenate([
        np.linalg.eigvals(psys.A), np.linalg.eigvals(ctrl.A)]))
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)


def test_close_loop_transfer_function():
    # General check of the interconnection algebra on strictly proper
    # systems: H_cl = (1 - P C)^-1 P for positive feedback.
    rng = np.random.default_rng(23)
    Ap = rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
    plant = pd.LinearSystem(Ap, rng.standard_normal((3, 1)),
                            rng.standard_normal((1, 3)))
    Ac = rng.standard_normal((2, 2)) - 3.0 * np.eye(2)
    ctrl = pd.LinearSystem(Ac, rng.standard_normal((2, 1)),
                           rng.standard_normal((1, 2)))
    cl = pd.close_loop(plant, ctrl)
    for w in (0.3, 1.1, 4.7):
        P = _frf_point(plant, w)
        C = _frf_point(ctrl, w)
        expect = P / (1.0 - P * C)
        assert _frf_point(cl, w) == pytest.approx(expect, rel=1e-10)


def test_close_loop_dimension_checks():
    # A system with two outputs cannot reach close_loop: the SISO type
    # rejects it at construction.
    with pytest.raises(InvalidInputError, match="single-output"):
        pd.LinearSystem([[-1.0]], [[1.0]], [[1.0], [1.0]])


def test_stability_classification():
    stable = pd.LinearSystem([[-1.0]], [[1.0]], [[1.0]])
    assert pd.stability(stable) is True

    undamped = pd.plant_system(pd.ModalPlant([10.0], [0.0], [1.0]))
    assert pd.stability(undamped) is False

    # The default margin scales with |A|; a raw comparison can be requested.
    slow = pd.LinearSystem([[-1e-12, 1e3], [0.0, -1e-12]],
                           [[0.0], [1.0]], [[1.0, 0.0]])
    assert not pd.stability(slow)
    assert pd.stability(slow, tol_margin=0.0)


def test_critical_gain_single_mode_analytic():
    for f in (58.0, 76.7):
        for b in (0.5, 1.0):
            w = 2.0 * np.pi * f
            plant = pd.ModalPlant([w], [0.01], [b])
            cfg = pd.PPFConfig(2.0 * np.pi * 76.7, 0.3)
            g = pd.critical_gain(plant, cfg)
            assert g == pytest.approx(w * w / (b * b), rel=1e-6)


def test_critical_gain_independent_of_filter_speed():
    # Static loss of stiffness does not depend on the filter pole placement.
    w = 2.0 * np.pi * 40.0
    plant = pd.ModalPlant([w], [0.02], [1.0])
    g1 = pd.critical_gain(plant, pd.PPFConfig(0.5 * w, 0.3))
    g2 = pd.critical_gain(plant, pd.PPFConfig(2.0 * w, 0.5))
    assert g1 == pytest.approx(g2, rel=1e-5)
    assert g1 == pytest.approx(w * w, rel=1e-5)


def test_critical_gain_beyond_former_search_cap():
    # omega^2/b^2 = 3.95e11, far above the 1e6 where a bracketing search
    # used to give up and report the gain as unbounded.
    w = 2.0 * np.pi * 1000.0
    plant = pd.ModalPlant([w], [0.01], [0.01])
    cfg = pd.PPFConfig(2.0 * np.pi * 76.7, 0.3)
    g = pd.critical_gain(plant, cfg)
    assert g == pytest.approx(w * w / (0.01 * 0.01), rel=1e-14)
    assert g == pytest.approx(3.95e11, rel=1e-3)


def test_critical_gain_needs_a_controllable_mode():
    plant = pd.ModalPlant([10.0, 20.0], [0.01, 0.0], [0.0, 0.0])
    with pytest.raises(InvalidInputError,
                       match="plant has no controllable mode"):
        pd.critical_gain(plant, pd.PPFConfig(15.0, 0.3))


def _straddles_critical_gain(plant, cfg):
    """Raw stability verdicts of the loop at 0.999 g* and at 1.001 g*."""
    psys = pd.plant_system(plant)
    g = pd.critical_gain(plant, cfg)
    assert np.isfinite(g)
    return [pd.stability(pd.close_loop(psys, pd.ppf_controller(
        replace(cfg, gain=k * g))), tol_margin=0.0) for k in (0.999, 1.001)]


def test_critical_gain_destabilizes_the_gripper_plant(gripper_model):
    patch = pd.PatchGeometry(0.05, 0.02, 0.0005, 0.00125)
    plant = pd.build_plant(gripper_model, patch)
    assert plant.n_modes == gripper_model.n_modes
    cfg = pd.PPFConfig.from_hz(76.7, 0.3)
    assert _straddles_critical_gain(plant, cfg) == [True, False]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_modes=st.integers(1, 6),
       length=st.floats(0.1, 2.0), stiffness=st.floats(1.0, 100.0),
       mass=st.floats(0.1, 10.0), zeta=st.floats(0.001, 0.05),
       span=st.floats(0.02, 1.0), filter_ratio=st.floats(0.2, 20.0),
       zeta_f=st.floats(0.05, 0.9))
def test_critical_gain_destabilizes_multimode(data, n_modes, length, stiffness,
                                              mass, zeta, span, filter_ratio,
                                              zeta_f):
    # The plant of build_plant holds every mode of the model, so g* = 1 / G(0)
    # is the exact stability boundary (Fanson & Caughey) of its PPF loop.
    beam = pd.BeamProperties(length, stiffness, mass, zeta)
    model = pd.analytic_cantilever_modes(beam, n_modes)
    x_start = data.draw(st.floats(0.0, 1.0)) * (1.0 - span) * length
    patch = pd.PatchGeometry(span * length, 0.02, 0.0005, 0.00125, x_start)
    plant = pd.build_plant(model, patch)
    assert plant.n_modes == model.n_modes
    assert np.max(np.abs(plant.b)) == 1.0
    cfg = pd.PPFConfig(filter_ratio * model.modes[0].omega, zeta_f)
    assert _straddles_critical_gain(plant, cfg) == [True, False]


def test_linear_system_validation():
    with pytest.raises(InvalidInputError):
        pd.LinearSystem([[0.0, 1.0]], [[1.0]], [[1.0]])
    with pytest.raises(InvalidInputError):
        pd.LinearSystem([[0.0]], [[1.0], [1.0]], [[1.0]])
    with pytest.raises(InvalidInputError, match="single-input"):
        pd.LinearSystem([[0.0]], [[1.0, 0.0]], [[1.0]])
    # A strictly proper system without states is identically zero.
    with pytest.raises(InvalidInputError, match="at least one state"):
        pd.LinearSystem(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))
    with pytest.raises(InvalidInputError):
        pd.LinearSystem([[np.nan]], [[1.0]], [[1.0]])
    sys_ = pd.LinearSystem([[-1.0]], [[1.0]], [[1.0]])
    assert sys_.A.shape[0] == 1
