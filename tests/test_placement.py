import numpy as np
import pytest

import piezodamp as pd
from piezodamp.errors import InvalidInputError, PlacementError


def _problem(model, material, patch, weights=None, step=0.05, **kw):
    if weights is None:
        weights = {i: 1.0 for i in range(1, model.n_modes + 1)}
    return pd.PlacementProblem(model, patch, material, weights, step, **kw)


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
    with pytest.raises(PlacementError, match="exceeds"):
        pd.scan_objective(_problem(unit_model, material, patch))


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


def test_single_patch_is_exact_argmax(unit_model, material, patch):
    prob = _problem(unit_model, material, patch, step=0.025)
    scan = pd.scan_objective(prob)
    result = pd.optimize_placement(prob)
    best = int(np.argmax(scan.objective))
    assert result.positions == [float(scan.x_starts[best])]
    assert result.objective == float(scan.objective[best])


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


def test_greedy_two_patches_respect_clearance(unit_model, material, patch):
    prob = _problem(unit_model, material, patch, weights={1: 1.0}, step=0.05,
                    n_patches=2, min_gap=0.05)
    result = pd.optimize_placement(prob)
    assert len(result.positions) == 2
    gap = abs(result.positions[1] - result.positions[0])
    assert gap >= 0.15 - 1e-9
    # Mode 1 coupling decays monotonically from the root, so greedy picks
    # the root and the first clear candidate after it.
    assert result.positions[0] == 0.0
    assert result.positions[1] == pytest.approx(0.15, abs=1e-12)


def test_greedy_runs_out_of_room(unit_model, material, patch):
    prob = _problem(unit_model, material, patch, step=0.05, n_patches=4,
                    min_gap=0.25)
    with pytest.raises(PlacementError, match="4 patches requested"):
        pd.optimize_placement(prob)


def test_result_couplings_match_scan(unit_model, material, patch):
    prob = _problem(unit_model, material, patch, step=0.1, n_patches=2)
    scan = pd.scan_objective(prob)
    result = pd.optimize_placement(prob)
    assert len(result.rows) == 2
    assert result.positions == [float(scan.x_starts[i]) for i in result.rows]
    assert result.objective == float(np.sum(scan.objective[result.rows]))
    # The result carries the scan it picked from.
    for name in ("x_starts", "k2", "objective"):
        np.testing.assert_array_equal(getattr(result.scan, name),
                                      getattr(scan, name))


def test_problem_validation(unit_model, material, patch):
    with pytest.raises(InvalidInputError, match="step"):
        pd.PlacementProblem(unit_model, patch, material, {1: 1.0}, 0.0)
    with pytest.raises(InvalidInputError, match="n_patches"):
        pd.PlacementProblem(unit_model, patch, material, {1: 1.0}, 0.1,
                            n_patches=0)
    with pytest.raises(InvalidInputError, match="min_gap"):
        pd.PlacementProblem(unit_model, patch, material, {1: 1.0}, 0.1,
                            min_gap=-0.1)
    with pytest.raises(InvalidInputError, match="weight"):
        pd.PlacementProblem(unit_model, patch, material, {}, 0.1)
    with pytest.raises(InvalidInputError, match="index"):
        pd.PlacementProblem(unit_model, patch, material, {9: 1.0}, 0.1)
    with pytest.raises(InvalidInputError, match=">= 0"):
        pd.PlacementProblem(unit_model, patch, material, {1: -1.0}, 0.1)
    with pytest.raises(InvalidInputError, match="positive"):
        pd.PlacementProblem(unit_model, patch, material, {1: 0.0}, 0.1)
    # Non-finite values fail the same checks instead of reaching the scan.
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="step"):
            pd.PlacementProblem(unit_model, patch, material, {1: 1.0}, bad)
        with pytest.raises(InvalidInputError, match="min_gap"):
            pd.PlacementProblem(unit_model, patch, material, {1: 1.0}, 0.1,
                                min_gap=bad)
        with pytest.raises(InvalidInputError, match="n_patches"):
            pd.PlacementProblem(unit_model, patch, material, {1: 1.0}, 0.1,
                                n_patches=bad)
        with pytest.raises(InvalidInputError, match="weight of mode 2"):
            pd.PlacementProblem(unit_model, patch, material,
                                {1: 1.0, 2: bad}, 0.1)


def test_scan_deterministic(unit_model, material, patch):
    prob = _problem(unit_model, material, patch, step=0.05)
    a = pd.scan_objective(prob)
    b = pd.scan_objective(prob)
    np.testing.assert_array_equal(a.objective, b.objective)
    np.testing.assert_array_equal(a.k2, b.k2)
