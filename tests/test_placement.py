import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import piezodamp as pd
from piezodamp.errors import InvalidInputError


def _problem(model, material, patch, weights=None, step=0.05):
    if weights is None:
        weights = {i: 1.0 for i in range(1, model.n_modes + 1)}
    return pd.PlacementProblem(model, patch, material, weights, step)


def test_candidate_grid(unit_model, material, patch):
    prob = _problem(unit_model, material, patch, step=0.05)
    scan = pd.scan_objective(prob)
    # Patch of 0.1 on a unit beam: candidates 0, 0.05, ..., 0.9.
    assert scan.x_starts.size == 19
    assert scan.x_starts[0] == 0.0
    assert scan.x_starts[-1] == pytest.approx(0.9, abs=1e-12)
    assert scan.k2.shape == (19, unit_model.n_modes)


def test_candidate_grid_patch_fills_beam(unit_model, material):
    patch = pd.PatchGeometry(1.0, 0.02, 0.0005, 0.00125)
    prob = _problem(unit_model, material, patch)
    scan = pd.scan_objective(prob)
    assert scan.x_starts.tolist() == [0.0]


def test_patch_longer_than_beam(unit_model, material):
    patch = pd.PatchGeometry(1.5, 0.02, 0.0005, 0.00125)
    with pytest.raises(InvalidInputError, match="exceeds"):
        pd.scan_objective(_problem(unit_model, material, patch))


def test_coupling_and_placement_agree_on_whether_a_patch_fits(unit_model,
                                                               material):
    # One tolerance: an overhang of 1e-10 L is rounding, so both place the
    # patch at the clamp; one of 1e-6 L is refused by both, and the message
    # tells the two lengths apart.
    fits = pd.PatchGeometry(1.0 + 1e-10, 0.02, 0.0005, 0.00125)
    assert pd.coupling_factor(unit_model, fits, material, 1).k2 > 0.0
    result = pd.optimize_placement(_problem(unit_model, material, fits))
    assert result.positions == [0.0]
    long = pd.PatchGeometry(1.0 + 1e-6, 0.02, 0.0005, 0.00125)
    with pytest.raises(InvalidInputError,
                       match=r"^patch \[0, 1\.000001\] m falls outside the "
                             r"0\.\.1 m grid$"):
        pd.coupling_factor(unit_model, long, material, 1)
    with pytest.raises(InvalidInputError,
                       match=r"^patch length 1\.000001 m exceeds the "
                             r"structure length 1 m"):
        pd.optimize_placement(_problem(unit_model, material, long))


def test_placement_keeps_the_last_start_that_coupling_accepts(material):
    # 0.35 + 0.05 overhangs 0.3999999999 m by 1e-10 m, within the fit
    # tolerance, so coupling accepts x_start = 0.35 and the scan keeps it.
    beam = pd.BeamProperties(0.3999999999, 20.0, 1.0)
    model = pd.analytic_cantilever_modes(beam, 3)
    patch = pd.PatchGeometry(0.05, 0.02, 0.0005, 0.00125)
    last = pd.PatchGeometry(0.05, 0.02, 0.0005, 0.00125, x_start=0.35)
    assert pd.coupling_factor(model, last, material, 1).k2 > 0.0
    starts = pd.candidate_positions(_problem(model, material, patch,
                                             step=0.01))
    assert starts.size == 36
    assert starts[-1] == 0.01 * 35


@settings(max_examples=300, deadline=None)
@given(length=st.floats(0.05, 5.0), step_frac=st.floats(1e-3, 0.5),
       k=st.integers(0, 60), overhang=st.floats(-3e-9, 3e-9))
def test_candidates_are_the_starts_delta_thetas_accepts(material, length,
                                                       step_frac, k, overhang):
    # Patch lengths put the last start step * k within a few fit tolerances
    # of the beam end, where the rounding of step * k + length decides.
    beam = pd.BeamProperties(length, 20.0, 1.0)
    model = pd.analytic_cantilever_modes(beam, 2)
    step = step_frac * length
    patch_length = length - step * k + overhang * length
    assume(0.02 * length < patch_length)
    patch = pd.PatchGeometry(patch_length, 0.02, 0.0005, 0.00125)
    problem = _problem(model, material, patch, step=step)
    try:
        starts = pd.candidate_positions(problem)
    except InvalidInputError:
        with pytest.raises(InvalidInputError, match="falls outside"):
            pd.delta_thetas(model, patch_length, [0.0])
        return
    np.testing.assert_array_equal(starts, step * np.arange(starts.size))
    pd.delta_thetas(model, patch_length, starts)
    with pytest.raises(InvalidInputError, match="falls outside"):
        pd.delta_thetas(model, patch_length, [step * starts.size])


def test_scan_matches_per_position_coupling(unit_model, material, patch):
    weights = {1: 1.0, 2: 0.5}
    prob = _problem(unit_model, material, patch, weights=weights, step=0.1)
    scan = pd.scan_objective(prob)
    from dataclasses import replace
    for i, x0 in enumerate(scan.x_starts):
        placed = replace(patch, x_start=float(x0))
        for j in range(unit_model.n_modes):
            r = pd.coupling_factor(unit_model, placed, material, j + 1)
            assert scan.k2[i, j] == r.k2
        expect = sum(w * scan.k2[i, idx - 1] for idx, w in weights.items())
        assert scan.objective[i] == pytest.approx(expect, rel=1e-15)


def test_tie_breaks_to_smallest_x(material):
    # Constant slope makes every candidate identical.
    x = np.linspace(0.0, 1.0, 21)
    mode = pd.Mode(10.0, 0.01, x.copy(), np.ones_like(x))
    model = pd.ModalModel(x, [mode], "analytic")
    patch = pd.PatchGeometry(0.2, 0.02, 0.0005, 0.00125)
    prob = _problem(model, material, patch, weights={1: 1.0}, step=0.1)
    result = pd.optimize_placement(prob)
    assert result.positions == [0.0]


def test_mode1_optimum_is_clamped_root(unit_model, material, patch):
    prob = _problem(unit_model, material, patch, weights={1: 1.0}, step=0.05)
    result = pd.optimize_placement(prob)
    assert result.positions == [0.0]


_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_modes=st.integers(1, 4),
       step=st.floats(0.005, 0.5), patch_length=st.floats(0.02, 1.0))
def test_placement_is_first_argmax_of_scan(unit_beam, material, data, n_modes,
                                           step, patch_length):
    model = pd.analytic_cantilever_modes(unit_beam, n_modes, 201)
    weights = data.draw(st.lists(_WEIGHT, min_size=n_modes, max_size=n_modes)
                        .filter(any))
    patch = pd.PatchGeometry.on_host(patch_length, 0.02, 0.0005, 0.002)
    prob = _problem(model, material, patch, step=step,
                    weights=dict(enumerate(weights, start=1)))
    scan = pd.scan_objective(prob)
    result = pd.optimize_placement(prob)
    best = int(np.argmax(scan.objective))
    assert result.positions == [float(scan.x_starts[best])]
    assert result.objective == float(scan.objective[best])
    # The first maximum: no candidate beats it, none before it ties.
    assert np.all(scan.objective <= result.objective)
    assert np.all(scan.objective[:best] < result.objective)
    for name in ("x_starts", "k2", "objective"):
        np.testing.assert_array_equal(getattr(result.scan, name),
                                      getattr(scan, name))


def test_problem_validation(unit_model, material, patch):
    with pytest.raises(InvalidInputError, match="step"):
        pd.PlacementProblem(unit_model, patch, material, {1: 1.0}, 0.0)
    # The messages name the parameter, which shares the INI key's name.
    for weights in ({}, {1: 0.0}):
        with pytest.raises(InvalidInputError, match="^mode_weights needs at "
                                                    "least one positive weight$"):
            pd.PlacementProblem(unit_model, patch, material, weights, 0.1)
    for idx in (0, 9):
        with pytest.raises(InvalidInputError,
                           match=f"^mode_weights index {idx} is outside the "
                                 f"modes 1\\.\\.{unit_model.n_modes}$"):
            pd.PlacementProblem(unit_model, patch, material, {idx: 1.0}, 0.1)
    with pytest.raises(InvalidInputError, match="^mode_weights: weight of mode "
                                                "1 must be finite and >= 0$"):
        pd.PlacementProblem(unit_model, patch, material, {1: -1.0}, 0.1)
    # Non-finite values fail the same checks instead of reaching the scan.
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="step"):
            pd.PlacementProblem(unit_model, patch, material, {1: 1.0}, bad)
        with pytest.raises(InvalidInputError,
                           match="^mode_weights: weight of mode 2"):
            pd.PlacementProblem(unit_model, patch, material,
                                {1: 1.0, 2: bad}, 0.1)


def test_scan_deterministic(unit_model, material, patch):
    prob = _problem(unit_model, material, patch, step=0.05)
    a = pd.scan_objective(prob)
    b = pd.scan_objective(prob)
    np.testing.assert_array_equal(a.objective, b.objective)
    np.testing.assert_array_equal(a.k2, b.k2)
