import numpy as np
import pytest

import piezodamp as pd
from piezodamp.errors import (InvalidInputError, InvalidMaterialError,
                              PlacementError)


def test_k31_squared_value(material):
    # d31^2 / (s11E epsT) with the fixture constants is exactly representable.
    assert pd.k31_squared(material) == pytest.approx(0.1265625, rel=1e-15)
    assert material.young_modulus == pytest.approx(6.25e10, rel=1e-15)


def test_material_validation():
    with pytest.raises(InvalidMaterialError):
        pd.PiezoMaterial(-6e-10, 1.6e-11, 1.6e-8)
    with pytest.raises(InvalidInputError):
        pd.PiezoMaterial(-1.8e-10, 0.0, 1.6e-8)
    with pytest.raises(InvalidInputError):
        pd.PiezoMaterial(-1.8e-10, 1.6e-11, -1.0)


def test_patch_geometry_validation():
    with pytest.raises(InvalidInputError):
        pd.PatchGeometry(0.0, 0.02, 0.0005, 0.001)
    with pytest.raises(InvalidInputError):
        pd.PatchGeometry(0.1, 0.02, 0.0005, -0.001)
    with pytest.raises(InvalidInputError):
        pd.PatchGeometry(0.1, 0.02, 0.0005, 0.001, x_start=-0.1)
    p = pd.PatchGeometry.on_host(0.1, 0.02, 0.0005, 0.002)
    assert p.z_offset == pytest.approx(0.00125, rel=1e-15)
    with pytest.raises(InvalidInputError):
        pd.PatchGeometry.on_host(0.1, 0.02, 0.0005, 0.0)


def _ramp_model(omega=2.0 * np.pi * 10.0):
    # Mode with exactly linear slope theta = 2x so interpolation is exact.
    x = np.linspace(0.0, 1.0, 11)
    phi = x * x
    theta = 2.0 * x
    mode = pd.Mode(omega, 0.01, phi, theta)
    return pd.ModalModel(x, [mode], "analytic")


def test_coupling_factor_hand_computed(material):
    model = _ramp_model()
    patch = pd.PatchGeometry(0.3, 0.02, 0.0005, 0.00125, x_start=0.2)
    r = pd.coupling_factor(model, patch, material, 1)
    # Independent arithmetic path for the same quantity.
    dth = 2.0 * 0.5 - 2.0 * 0.2
    k2m = (1.8e-10) ** 2 / (1.6e-11 * 1.6e-8)
    ep = 1.0 / 1.6e-11
    omega = model.modes[0].omega
    expect = (k2m / (1.0 - k2m)) * dth ** 2 / (1.0 * omega ** 2) \
        * ep * 0.02 * 0.0005 * 0.00125 ** 2 / 0.3
    assert r.delta_theta == pytest.approx(dth, rel=1e-14)
    assert r.k2 == pytest.approx(expect, rel=1e-12)
    assert r.omega_open == pytest.approx(omega * np.sqrt(1.0 + r.k2),
                                         rel=1e-15)
    assert not r.relative


def test_coupling_scales_with_z_offset_squared(material):
    model = _ramp_model()
    p1 = pd.PatchGeometry(0.3, 0.02, 0.0005, 0.001, x_start=0.1)
    p2 = pd.PatchGeometry(0.3, 0.02, 0.0005, 0.002, x_start=0.1)
    r1 = pd.coupling_factor(model, p1, material, 1)
    r2 = pd.coupling_factor(model, p2, material, 1)
    assert r2.k2 == pytest.approx(4.0 * r1.k2, rel=1e-14)


def test_coupling_scales_with_shape_squared(material, unit_model):
    patch = pd.PatchGeometry(0.2, 0.02, 0.0005, 0.00125, x_start=0.0)
    base = pd.coupling_factor(unit_model, patch, material, 1)
    c = 3.0
    scaled_modes = [
        pd.Mode(m.omega, m.zeta, c * m.phi, c * m.theta)
        for m in unit_model.modes
    ]
    scaled = pd.ModalModel(unit_model.grid, scaled_modes, "analytic")
    r = pd.coupling_factor(scaled, patch, material, 1)
    assert r.k2 == pytest.approx(c * c * base.k2, rel=1e-13)


def test_coupling_units_si_vs_mm(material, unit_model):
    # Same physics in a millimetre system: lengths *1e3, compliance in
    # mm^2/N (*1e6), permittivity in C^2/(N mm^2) (*1e-6), mass in tonnes
    # (*1e-3). A modal mass of 1 kg is 1e-3 t, so the shapes are divided by
    # sqrt(1e-3) to stay mass normalized. K2 is dimensionless and must not
    # move.
    patch_si = pd.PatchGeometry(0.2, 0.02, 0.0005, 0.00125, x_start=0.1)
    r_si = pd.coupling_factor(unit_model, patch_si, material, 1)

    mm = 1e3
    tonne = np.sqrt(1e-3)
    modes_mm = [
        pd.Mode(m.omega, m.zeta, m.phi / tonne, m.theta / mm / tonne)
        for m in unit_model.modes
    ]
    model_mm = pd.ModalModel(unit_model.grid * mm, modes_mm, "analytic")
    mat_mm = pd.PiezoMaterial(material.d31, material.s11E * 1e6,
                              material.epsT * 1e-6)
    patch_mm = pd.PatchGeometry(0.2 * mm, 0.02 * mm, 0.0005 * mm,
                                0.00125 * mm, x_start=0.1 * mm)
    r_mm = pd.coupling_factor(model_mm, patch_mm, mat_mm, 1)
    assert r_mm.k2 == pytest.approx(r_si.k2, rel=1e-12)
    assert r_mm.omega_open == pytest.approx(r_si.omega_open, rel=1e-12)


def test_coupling_relative_flag(gripper_model, material):
    patch = pd.PatchGeometry(0.05, 0.02, 0.0005, 0.00125, x_start=0.0)
    r = pd.coupling_factor(gripper_model, patch, material, 2)
    assert r.relative
    assert r.k2 > 0.0


def test_patch_must_stay_on_grid(material, unit_model):
    patch = pd.PatchGeometry(0.3, 0.02, 0.0005, 0.00125, x_start=0.85)
    with pytest.raises(PlacementError, match="outside"):
        pd.coupling_factor(unit_model, patch, material, 1)


def test_patch_must_span_a_grid_cell(material):
    model = _ramp_model()  # grid spacing 0.1
    patch = pd.PatchGeometry(0.04, 0.02, 0.0005, 0.00125, x_start=0.32)
    with pytest.raises(PlacementError, match="grid cell"):
        pd.coupling_factor(model, patch, material, 1)


def test_patch_spanning_last_cell_is_accepted(material):
    model = _ramp_model()
    patch = pd.PatchGeometry(0.1, 0.02, 0.0005, 0.00125, x_start=0.9)
    r = pd.coupling_factor(model, patch, material, 1)
    assert r.delta_theta == pytest.approx(0.2, rel=1e-13)


def test_delta_thetas_matches_interp(unit_model):
    starts = np.array([0.0, 0.2, 0.45])
    got = pd.delta_thetas(unit_model, 0.15, starts)
    for j, m in enumerate(unit_model.modes):
        ref = (np.interp(starts + 0.15, unit_model.grid, m.theta)
               - np.interp(starts, unit_model.grid, m.theta))
        np.testing.assert_allclose(got[:, j], ref, rtol=1e-12, atol=1e-15)


def test_delta_thetas_match_interp_on_a_nonuniform_grid():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 1.0, 41))
    x[0], x[-1] = 0.0, 1.0
    theta = rng.standard_normal((3, 41))
    model = pd.ModalModel(x, [pd.Mode(w, 0.01, t, t) for w, t in
                              zip([1.0, 2.0, 3.0], theta)], "analytic")
    starts = np.array([0.0, 0.13, 0.4, 0.77])
    got = pd.delta_thetas(model, 0.2, starts)
    for j in range(3):
        ref = (np.interp(starts + 0.2, x, theta[j])
               - np.interp(starts, x, theta[j]))
        np.testing.assert_allclose(got[:, j], ref, rtol=1e-12, atol=1e-15)


def test_delta_thetas_clamp_to_grid_ends_within_tolerance():
    # Edges up to 1e-9 L past either end of the grid are accepted and read
    # the end values, not a linear extrapolation.
    model = _ramp_model()
    got = pd.delta_thetas(model, 1.0 + 1e-9, [-5e-10])
    assert got[0, 0] == model.modes[0].theta[-1] - model.modes[0].theta[0]


def test_coupling_from_frequencies_round_trip():
    w = 2.0 * np.pi * 76.0
    k2 = 0.0123
    W = w * np.sqrt(1.0 + k2)
    assert pd.coupling_from_frequencies(w, W) == pytest.approx(k2, rel=1e-12)


def test_coupling_from_frequencies_validation():
    with pytest.raises(InvalidInputError, match="non-physical"):
        pd.coupling_from_frequencies(100.0, 99.0)
    with pytest.raises(InvalidInputError, match="positive"):
        pd.coupling_from_frequencies(0.0, 10.0)
    # Equal frequencies mean zero coupling, not an error.
    assert pd.coupling_from_frequencies(100.0, 100.0) == 0.0
