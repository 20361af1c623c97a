"""Self-tests of the benchmark: seeded inputs, span wrappers, output checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (needs piezodamp on the path)


def _bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["measured_dense", "beam_fe"])
def test_generator_is_a_function_of_the_seed(tmp_path, name):
    workloads.make(name, ROOT, tmp_path / "a", 7)
    workloads.make(name, ROOT, tmp_path / "b", 7)
    workloads.make(name, ROOT, tmp_path / "c", 8)
    assert _bytes(tmp_path / "a") == _bytes(tmp_path / "b")
    assert _bytes(tmp_path / "a") != _bytes(tmp_path / "c")


def _piezodamp_bindings() -> dict:
    from piezodamp.config import ProjectConfig
    out = {("ProjectConfig", "build_model"): ProjectConfig.build_model}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("piezodamp"):
            out.update({(mod_name, k): v for k, v in vars(mod).items()})
    return out


def test_wrappers_restore_every_patched_function():
    import piezodamp.cli  # noqa: F401  (load every module first)
    from piezodamp import _kernels, cli, frf, ppf

    before = _piezodamp_bindings()
    with pytest.raises(RuntimeError):
        with layers.patched(layers.Tracer()):
            assert cli.load_config is not before[("piezodamp.cli",
                                                  "load_config")]
            assert frf.stability is not before[("piezodamp.frf", "stability")]
            assert ppf.close_loop is not before[("piezodamp.ppf",
                                                 "close_loop")]
            assert _kernels.frf_solve is not before[("piezodamp._kernels",
                                                     "frf_solve")]
            raise RuntimeError("leave the context by an error")
    after = _piezodamp_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_subtract_direct_children():
    tracer = layers.Tracer()
    with tracer.span("top"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    by_name = {name: (top, s) for name, top, s in tracer.self_times()}
    total = tracer.spans[0][3] - tracer.spans[0][2]
    assert all(top == "top" for top, _ in by_name.values())
    assert sum(s for _, s in by_name.values()) == pytest.approx(total)


@pytest.fixture(scope="module")
def gripper_pass(tmp_path_factory):
    """One in-process design pass on the gripper fixture."""
    from piezodamp import cli

    work = tmp_path_factory.mktemp("gripper")
    project = workloads.make("gripper", ROOT, work, 0)
    out = work / "out"
    out.mkdir()
    for sub in checks.SUBCOMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(run.argv_for(sub, project, out)) == 0
    return project, out


def _corrupt(out: Path, tmp: Path, name: str, edit) -> Path:
    copy = tmp / "corrupt"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text()))
    return copy


def _replace_field(text: str, line: int, col: int, new: str) -> str:
    lines = text.splitlines()
    fields = lines[line].split(",")
    fields[col] = new
    lines[line] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _scale_field(text: str, line: int, col: int, factor: float) -> str:
    value = float(text.splitlines()[line].split(",")[col])
    return _replace_field(text, line, col, f"{value * factor:.9g}")


def test_shipped_pass_passes_every_check(gripper_pass):
    project, out = gripper_pass
    problems, defects = checks.check_pass(out, checks.Expected(project),
                                          list(checks.SUBCOMMANDS))
    assert problems == {s: [] for s in checks.SUBCOMMANDS}
    assert set(defects.values()) == {0}


CORRUPTIONS = {
    "modes": ("modes.csv", lambda t: _scale_field(t, 1, 1, 1.0 + 1e-6)),
    "coupling": ("coupling.csv", lambda t: _scale_field(t, 2, 4, 1.0001)),
    "place": ("placement.csv",  # the row of a different scan candidate
              lambda t: _replace_field(t, 1, 0, "0.01")),
    "ppf-design": ("ppf_summary.csv",
                   lambda t: _scale_field(t, 1, 2, 1.0 + 1e-4)),
    "sweep": ("bode_02.csv", lambda t: _scale_field(t, 1000, 1, 1.001)),
    "analyze": ("analyze.csv", lambda t: _scale_field(t, 1, 5, 1.2)),
}


@pytest.mark.parametrize("sub", sorted(CORRUPTIONS))
def test_each_check_fails_on_a_corrupted_output(gripper_pass, tmp_path, sub):
    project, out = gripper_pass
    name, edit = CORRUPTIONS[sub]
    bad = _corrupt(out, tmp_path, name, edit)
    problems, _ = checks.check_pass(bad, checks.Expected(project),
                                    list(checks.SUBCOMMANDS))
    assert problems[sub], f"corrupted {name} passed"
    assert not any(problems[s] for s in checks.SUBCOMMANDS if s != sub)


def test_swapped_placement_row_fails(gripper_pass, tmp_path):
    project, out = gripper_pass
    scan = (out / "scan.csv").read_text().splitlines()
    bad = _corrupt(out, tmp_path, "placement.csv",
                   lambda t: t.splitlines()[0] + "\n" + scan[5] + "\n")
    problems, _ = checks.check_pass(bad, checks.Expected(project), ["place"])
    assert problems["place"]


def test_damping_that_falls_with_gain_fails(gripper_pass, tmp_path):
    project, out = gripper_pass
    bad = _corrupt(out, tmp_path, "sweep.csv",
                   lambda t: _scale_field(t, 3, 4, 0.5))
    problems, _ = checks.check_pass(bad, checks.Expected(project), ["sweep"])
    assert any("rise" in p for p in problems["sweep"])


def test_unbounded_gain_passes_only_above_the_cap(gripper_pass, tmp_path):
    project, out = gripper_pass
    bad = _corrupt(out, tmp_path, "ppf_summary.csv",
                   lambda t: _replace_field(t, 1, 2, "inf"))
    problems, defects = checks.check_pass(bad, checks.Expected(project),
                                          ["ppf-design"])
    assert problems["ppf-design"]  # the gripper's g* = 2.1e5 is below 1e6
    assert defects["ppf.critical_gain_capped"] == 0


def test_unstable_flag_below_g_star_is_counted(gripper_pass, tmp_path):
    project, out = gripper_pass
    bad = _corrupt(out, tmp_path, "sweep.csv",
                   lambda t: _replace_field(t, 4, 1, "0"))
    (bad / "bode_04.csv").unlink()
    problems, defects = checks.check_pass(bad, checks.Expected(project),
                                          ["sweep"])
    assert problems["sweep"] == []
    assert defects["ppf.sweep_misclassified"] == 1


def test_a_pass_that_differs_from_the_first_fails(gripper_pass, tmp_path):
    project, out = gripper_pass
    exp = checks.Expected(project)
    codes = dict.fromkeys(checks.SUBCOMMANDS, 0)
    ledger = run.Ledger()
    ledger.record(out, codes, exp)
    bad = _corrupt(out, tmp_path, "shapes.csv", lambda t: t + "\n")
    ledger.record(bad, codes, exp)
    assert (ledger.attempted, ledger.failed) == (12, 1)
    assert ledger.problems == ["modes: output differs from the first pass"]


def test_a_repeated_pass_keeps_the_first_verdict(gripper_pass, tmp_path):
    project, out = gripper_pass
    exp = checks.Expected(project)
    codes = dict.fromkeys(checks.SUBCOMMANDS, 0)
    ledger = run.Ledger()
    bad = _corrupt(out, tmp_path, "analyze.csv",
                   lambda t: _scale_field(t, 1, 5, 1.2))
    ledger.record(bad, codes, exp)
    ledger.record(bad, codes, exp)
    assert (ledger.attempted, ledger.failed) == (12, 2)
