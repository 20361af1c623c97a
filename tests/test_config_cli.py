import filecmp
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piezodamp as pd
from piezodamp import cli
from piezodamp.errors import ConfigError, NumericalError, PiezodampError

SUBCOMMANDS = ["modes", "coupling", "place", "ppf-design", "sweep"]


def test_load_config_gripper(gripper_ini):
    cfg = pd.load_config(gripper_ini)
    assert cfg.source == "measured"
    assert cfg.structure["frequencies_hz"] == [58.0, 76.0]
    assert cfg.ppf_freq_hz == 76.7
    assert cfg.ppf_zeta == 0.3
    assert cfg.gains == [1500.0, 3000.0, 4500.0, 6000.0]
    assert cfg.band_hz == (65.0, 90.0)
    assert cfg.placement_step == 0.01
    assert cfg.mode_weights == {1: 1.0, 2: 1.0}
    assert cfg.patch.z_offset == pytest.approx(0.00125)
    model = cfg.build_model()
    assert model.n_modes == 2


def _minimal_ini(tmp_path, structure=None, extra=""):
    structure = structure or (
        "[structure]\nsource = analytic\nlength_m = 1.0\nEI_Nm2 = 1.0\n"
        "mass_per_length_kgpm = 1.0\nn_modes = 2\n")
    body = structure + (
        "[material]\nd31_CpN = -1.8e-10\ns11E_perPa = 1.6e-11\n"
        "epsT_FpM = 1.6e-8\n"
        "[patch]\nlength_m = 0.1\nwidth_m = 0.02\nthickness_m = 0.0005\n"
        "host_thickness_m = 0.002\n"
        "[ppf]\nfreq_hz = 3.5\nzeta = 0.3\ngains = 1, 2\n"
        "[analysis]\nband_hz = 0.4, 0.7\nstep_m = 0.1\n") + extra
    path = tmp_path / "project.ini"
    path.write_text(body)
    return path


def test_config_errors(tmp_path, gripper_ini):
    with pytest.raises(ConfigError, match="does not exist"):
        pd.load_config(tmp_path / "missing.ini")

    path = _minimal_ini(tmp_path)
    good = pd.load_config(path)
    assert good.source == "analytic"
    assert good.structure["props"].length == 1.0

    bad = path.read_text().replace("[material]", "[materials]")
    path.write_text(bad)
    with pytest.raises(ConfigError, match=r"\[material\]"):
        pd.load_config(path)

    path = _minimal_ini(tmp_path)
    path.write_text(path.read_text().replace("EI_Nm2 = 1.0", "EI_Nm2 = soft"))
    with pytest.raises(ConfigError, match="not a number"):
        pd.load_config(path)

    path = _minimal_ini(tmp_path)
    path.write_text(path.read_text().replace(
        "host_thickness_m = 0.002",
        "host_thickness_m = 0.002\nz_offset_m = 0.001"))
    with pytest.raises(ConfigError, match="exactly one"):
        pd.load_config(path)

    path = _minimal_ini(tmp_path)
    path.write_text(path.read_text().replace("gains = 1, 2", "gains = 2, 1"))
    with pytest.raises(ConfigError, match="increasing"):
        pd.load_config(path)

    path = _minimal_ini(tmp_path)
    path.write_text(path.read_text().replace("band_hz = 0.4, 0.7",
                                             "band_hz = 0.7"))
    with pytest.raises(ConfigError, match="band_hz"):
        pd.load_config(path)

    path = _minimal_ini(tmp_path, extra="\n[analysis2]\n")
    pd.load_config(path)  # unknown sections are ignored

    path = _minimal_ini(tmp_path)
    path.write_text(path.read_text().replace("source = analytic",
                                             "source = guesswork"))
    with pytest.raises(ConfigError, match="source"):
        pd.load_config(path)

    # '%' is literal text, not configparser interpolation syntax.
    path = _minimal_ini(tmp_path)
    path.write_text(path.read_text().replace("length_m = 0.1",
                                             "length_m = 5%"))
    with pytest.raises(ConfigError, match=r"\[patch\] length_m .* not a number"):
        pd.load_config(path)

    path = _minimal_ini(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"zeta = 0.3", b"zeta = 0.3\xe9"))
    with pytest.raises(ConfigError, match="not UTF-8 text: cannot decode byte 0xe9"):
        pd.load_config(path)

    for old, new, where in [
            ("freq_hz = 3.5", "freq_hz = nan", r"\[ppf\] freq_hz"),
            ("band_hz = 0.4, 0.7", "band_hz = nan, 0.7", r"\[analysis\] band_hz"),
            ("gains = 1, 2", "gains = 1, inf", r"\[ppf\] gains"),
            ("EI_Nm2 = 1.0", "EI_Nm2 = -inf", r"\[structure\] EI_Nm2"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:nan, 2:1.0",
             r"\[analysis\] mode_weights")]:
        path = _minimal_ini(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=where + ".* is not finite"):
            pd.load_config(path)

    for old, new, message in [
            ("EI_Nm2 = 1.0\n", "", r"\[structure\] is missing key 'EI_Nm2'"),
            ("n_modes = 2\n", "", r"\[structure\] is missing key 'n_modes'"),
            ("band_hz = 0.4, 0.7\n", "",
             r"\[analysis\] is missing key 'band_hz'"),
            ("length_m = 1.0", "length_m = -1.0",
             r"\[structure\]: beam length must be positive"),
            ("s11E_perPa = 1.6e-11", "s11E_perPa = -1.6e-11",
             r"\[material\]: s11E must be positive"),
            ("width_m = 0.02", "width_m = 0",
             r"\[patch\]: patch length, width and thickness must be positive"),
            ("n_modes = 2", "n_modes = 0", r"\[structure\] n_modes must be >= 1"),
            ("freq_hz = 3.5", "freq_hz = 0", r"\[ppf\] freq_hz must be positive"),
            ("gains = 1, 2", "gains = -1, 2", r"\[ppf\] gains must be >= 0"),
            ("step_m = 0.1", "step_m = 0.1\nn_freq = 1",
             r"\[analysis\] n_freq must be >= 2"),
            ("step_m = 0.1", "step_m = 0.1\nmin_prominence_db = 0",
             r"\[analysis\] min_prominence_db must be positive"),
            ("step_m = 0.1", "step_m = 0", r"\[analysis\] step_m must be positive"),
            ("step_m = 0.1", "step_m = 0.1\nn_patches = 0",
             r"\[analysis\] n_patches must be >= 1"),
            ("step_m = 0.1", "step_m = 0.1\nmin_gap_m = -0.01",
             r"\[analysis\] min_gap_m must be >= 0"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 0:1.0, 1:1.0",
             r"\[analysis\] mode_weights indices are 1-based"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:1, 5:1",
             r"\[analysis\] mode_weights index 5 is above the 2 modes of "
             r"\[structure\]"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:1.0, 2:-0.5",
             r"\[analysis\] mode_weights must be >= 0"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:1.0, 2:1.0, 1:0.0",
             r"\[analysis\] mode_weights: entry '1:0.0' repeats mode 1"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:1.0, two:1.0",
             r"\[analysis\] mode_weights: entry 'two:1.0' must look like "
             r"'mode:weight'"),
            ("zeta = 0.3", "zeta = 1.0", r"\[ppf\] zeta must lie in \(0, 1\)"),
            ("zeta = 0.3", "zeta = 0", r"\[ppf\] zeta must lie in \(0, 1\)")]:
        path = _minimal_ini(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=message):
            pd.load_config(path)

    (tmp_path / "shapes.csv").write_text("x_m,mode1\n")
    measured = "[structure]\nsource = measured\nfrequencies_hz = 10\n"
    path = _minimal_ini(tmp_path, structure=measured)
    with pytest.raises(ConfigError, match="measured source needs shapes_file"):
        pd.load_config(path)
    path = _minimal_ini(tmp_path, structure=measured
                        + "shapes_file = shapes.csv\nsmooth = maybe\n")
    with pytest.raises(ConfigError,
                       match=r"\[structure\] smooth = 'maybe' is not a boolean"):
        pd.load_config(path)


def test_config_patch_z_offset(tmp_path):
    host = _minimal_ini(tmp_path)
    text = host.read_text()
    assert "host_thickness_m = 0.002" in text
    z_ini = tmp_path / "z_offset.ini"
    z_ini.write_text(text.replace("host_thickness_m = 0.002",
                                  "z_offset_m = 0.00125"))
    cfg = pd.load_config(z_ini)
    assert cfg.patch.z_offset == 0.00125
    # The host-thickness form puts the patch mid-plane at the same offset,
    # (0.002 + 0.0005) / 2, so both give the same coupling table.
    for ini, out in ((z_ini, tmp_path / "z"), (host, tmp_path / "host")):
        assert _run(["coupling", "--config", str(ini), "--out-dir", str(out),
                     "--quiet"]) == 0
    assert ((tmp_path / "z" / "coupling.csv").read_text()
            == (tmp_path / "host" / "coupling.csv").read_text())


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=600))
def test_load_config_arbitrary_bytes_raise_only_toolkit_errors(
        tmp_path_factory, data):
    path = tmp_path_factory.mktemp("bytes") / "project.ini"
    path.write_bytes(data)
    try:
        pd.load_config(path)
    except PiezodampError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_config_with_one_arbitrary_value_raises_only_toolkit_errors(
        tmp_path_factory, gripper_ini, gripper_shapes_csv, data):
    lines = gripper_ini.read_text().splitlines()
    value_lines = [i for i, line in enumerate(lines)
                   if "=" in line and not line.lstrip().startswith("#")]
    i = data.draw(st.sampled_from(value_lines), label="line")
    key = lines[i].split("=", 1)[0]
    lines[i] = key + "= " + data.draw(st.text(max_size=40), label="value")
    root = tmp_path_factory.mktemp("value")
    shutil.copy(gripper_shapes_csv, root / gripper_shapes_csv.name)
    path = root / "project.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        pd.load_config(path)
    except PiezodampError:
        pass


def test_config_measured_missing_file(tmp_path):
    structure = ("[structure]\nsource = measured\nshapes_file = gone.csv\n"
                 "frequencies_hz = 10\n")
    path = _minimal_ini(tmp_path, structure=structure)
    with pytest.raises(ConfigError, match="gone.csv"):
        pd.load_config(path)
    # A name longer than the file system allows is missing too, not an OSError.
    path = _minimal_ini(tmp_path, structure=structure.replace("gone", "g" * 300))
    with pytest.raises(ConfigError, match="does not exist"):
        pd.load_config(path)


def test_config_weights_parse(tmp_path):
    path = _minimal_ini(tmp_path, extra="")
    text = path.read_text().replace("step_m = 0.1",
                                    "step_m = 0.1\nmode_weights = 1:2.0, 2:0")
    path.write_text(text)
    cfg = pd.load_config(path)
    assert cfg.mode_weights == {1: 2.0, 2: 0.0}
    path.write_text(text.replace("1:2.0, 2:0", "1=2.0"))
    with pytest.raises(ConfigError, match="mode:weight"):
        pd.load_config(path)


def test_config_without_weights_weights_every_mode_1(tmp_path):
    implicit = _minimal_ini(tmp_path)
    assert pd.load_config(implicit).mode_weights == {1: 1.0, 2: 1.0}
    explicit = tmp_path / "explicit.ini"
    explicit.write_text(implicit.read_text()
                        + "mode_weights = 1:1.0, 2:1.0\n")
    for ini, out in ((implicit, tmp_path / "implicit"),
                     (explicit, tmp_path / "explicit")):
        assert _run(["place", "--config", str(ini), "--out-dir", str(out),
                     "--quiet"]) == 0
    assert ((tmp_path / "implicit" / "scan.csv").read_bytes()
            == (tmp_path / "explicit" / "scan.csv").read_bytes())


_FE_STRUCTURE = ("[structure]\nsource = finite_element\nlength_m = 1.0\n"
                 "EI_Nm2 = 1.0\nmass_per_length_kgpm = 1.0\n")


@pytest.mark.parametrize("structure, message", [
    ("[structure]\nsource = analytic\nlength_m = 1.0\nEI_Nm2 = 1.0\n"
     "mass_per_length_kgpm = 1.0\nn_modes = 2\nn_grid = 5\n",
     "n_grid must be >= 16"),
    (_FE_STRUCTURE + "n_modes = 2\nn_elements = 2\n",
     "n_elements must be >= 4"),
    (_FE_STRUCTURE + "n_modes = 9\nn_elements = 8\n",
     "n_modes must lie in 1..8 for 8 elements"),
], ids=["n_grid", "n_elements", "n_modes_above_n_elements"])
def test_model_size_errors_name_the_structure_section(tmp_path, capsys,
                                                      structure, message):
    # The builder checks these when a command builds the model, not on load.
    ini = _minimal_ini(tmp_path, structure=structure)
    cfg = pd.load_config(ini)
    with pytest.raises(ConfigError, match=r"^\[structure\]: " + message):
        cfg.build_model()
    assert _run(["modes", "--config", str(ini), "--out-dir",
                 str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: [structure]: {message}\n"


def _run(argv):
    return cli.main(argv)


def test_cli_runs_all_subcommands(gripper_ini, gripper_frf_csv, tmp_path):
    out = tmp_path / "out"
    for sub in SUBCOMMANDS:
        code = _run([sub, "--config", str(gripper_ini),
                     "--out-dir", str(out), "--quiet"])
        assert code == 0, sub
    code = _run(["analyze", "--frf", str(gripper_frf_csv),
                 "--band", "50,90", "--out-dir", str(out), "--quiet"])
    assert code == 0
    expected = ["modes.csv", "shapes.csv", "coupling.csv", "scan.csv",
                "placement.csv", "ppf_summary.csv", "plant_modes.csv",
                "plant_ss.csv", "controller_ss.csv", "sweep.csv",
                "bode_01.csv", "analyze.csv"]
    for name in expected:
        assert (out / name).is_file(), name


def test_cli_global_flags_before_subcommand(gripper_ini, tmp_path):
    out = tmp_path / "o1"
    code = _run(["--config", str(gripper_ini), "--out-dir", str(out),
                 "--quiet", "modes"])
    assert code == 0
    assert (out / "modes.csv").is_file()


def test_cli_unit_beam_modes_values(tmp_path):
    ini = _minimal_ini(tmp_path)
    out = tmp_path / "out"
    assert _run(["modes", "--config", str(ini), "--out-dir", str(out),
                 "--quiet"]) == 0
    lines = (out / "modes.csv").read_text().splitlines()
    assert lines[0] == "mode,freq_hz,omega_rad_s,zeta,modal_mass_kg"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(0.5595912099683767, rel=1e-9)
    assert float(first[4]) == 1.0


def test_cli_sweep_damping_increases_with_gain(gripper_ini, tmp_path):
    out = tmp_path / "out"
    assert _run(["sweep", "--config", str(gripper_ini), "--out-dir",
                 str(out), "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "gain,stable,f_peak_hz,Q,zeta,damping_pct"
    zetas = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(b > a for a, b in zip(zetas, zetas[1:]))


def test_cli_sweep_writes_all_three_kinds_of_row(gripper_ini, tmp_path,
                                                caplog):
    # 0.1, 0.2 and 1.1 times the critical gain 211905.872 of the gripper.
    # At 0.2 g* the loop is stable but its response has no peak of 1 dB.
    ini = tmp_path / "gripper.ini"
    ini.write_text(gripper_ini.read_text().replace(
        "gains = 1500, 3000, 4500, 6000", "gains = 21190.6, 42381.2, 233096"))
    shutil.copy(gripper_ini.parent / "gripper_shapes.csv", tmp_path)
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="piezodamp"):
        assert _run(["sweep", "--config", str(ini), "--out-dir", str(out),
                     "--quiet"]) == 0
    assert (out / "sweep.csv").read_text().splitlines() == [
        "gain,stable,f_peak_hz,Q,zeta,damping_pct",
        "21190.6,1,76.575,4.09567391,0.122080032,12.2080032",
        "42381.2,1,,,,",
        "233096,0,,,,"]
    assert sorted(p.name for p in out.iterdir()) == [
        "bode_01.csv", "bode_02.csv", "sweep.csv"]
    warnings = [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "gain 42381.2" in warnings[0]


def test_cli_sweep_warning_reaches_stderr_with_prefix(gripper_ini, tmp_path,
                                                     capsys):
    ini = tmp_path / "gripper.ini"
    ini.write_text(gripper_ini.read_text().replace(
        "gains = 1500, 3000, 4500, 6000", "gains = 21190.6, 42381.2, 233096"))
    shutil.copy(gripper_ini.parent / "gripper_shapes.csv", tmp_path)
    assert _run(["sweep", "--config", str(ini), "--out-dir",
                 str(tmp_path / "out"), "--quiet"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "warning: gain 42381.2: no half-power estimate: ")


@pytest.mark.parametrize("flag_first", [True, False])
def test_cli_verbose_adds_only_info_lines(tmp_path, capsys, flag_first):
    ini = _minimal_ini(tmp_path, structure=_FE_STRUCTURE
                       + "n_modes = 3\nn_elements = 16\n")
    args = ["--config", str(ini), "--quiet"]
    log = logging.getLogger("piezodamp")
    level = log.level
    assert _run(["modes", "--out-dir", str(tmp_path / "plain")] + args) == 0
    assert capsys.readouterr().err == ""
    argv = ["modes", "--out-dir", str(tmp_path / "verbose")] + args
    argv.insert(0 if flag_first else 1, "-v")
    assert _run(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("info: beam eigensolve: ")
    assert "block width 14" in lines[0]
    for name in ("modes.csv", "shapes.csv"):
        assert ((tmp_path / "verbose" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())
    assert log.level == level
    assert not log.handlers


def test_cli_sweep_solves_each_gain_once(gripper_ini, tmp_path, monkeypatch):
    from piezodamp import frf
    solves = []
    solve = frf.closed_loop_frf

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(frf, "closed_loop_frf", counting_solve)
    out = tmp_path / "out"
    assert _run(["sweep", "--config", str(gripper_ini), "--out-dir",
                 str(out), "--quiet"]) == 0
    assert len(solves) == len(list(out.glob("bode_*.csv"))) == 4


def test_cli_place_scans_once(gripper_ini, tmp_path, monkeypatch):
    # Every scan of the candidate grid goes through one slope-difference
    # evaluation, whoever calls scan_objective.
    from piezodamp import placement
    scans = []
    scan = placement.delta_thetas

    def counting_scan(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(placement, "delta_thetas", counting_scan)
    assert _run(["place", "--config", str(gripper_ini), "--out-dir",
                 str(tmp_path), "--quiet"]) == 0
    assert len(scans) == 1


def test_cli_analyze_takes_band_from_config(gripper_ini, gripper_frf_csv,
                                            tmp_path):
    # gripper.ini sets band_hz = 65, 90.
    for out, band in ((tmp_path / "config", ["--config", str(gripper_ini)]),
                      (tmp_path / "band", ["--band", "65,90"])):
        assert _run(["analyze", "--frf", str(gripper_frf_csv), "--out-dir",
                     str(out), "--quiet"] + band) == 0
    assert ((tmp_path / "config" / "analyze.csv").read_bytes()
            == (tmp_path / "band" / "analyze.csv").read_bytes())


@pytest.mark.parametrize("sub, old, message", [
    ("place", "step_m = 0.1\n",
     "[analysis] step_m is required for the place command"),
    ("sweep", "gains = 1, 2\n", "[ppf] gains is required for the sweep command"),
])
def test_cli_command_without_its_key_exits_1(tmp_path, capsys, sub, old,
                                             message):
    ini = _minimal_ini(tmp_path)
    ini.write_text(ini.read_text().replace(old, ""))
    assert _run([sub, "--config", str(ini), "--out-dir", str(tmp_path),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_deterministic_outputs(gripper_ini, gripper_frf_csv, tmp_path):
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        for sub in SUBCOMMANDS:
            assert _run([sub, "--config", str(gripper_ini),
                         "--out-dir", str(out), "--quiet"]) == 0
        assert _run(["analyze", "--frf", str(gripper_frf_csv),
                     "--band", "50,90", "--out-dir", str(out),
                     "--quiet"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                               shallow=False)
    assert mismatch == [] and errors == []


def test_cli_gripper_outputs_match_golden_hashes(gripper_ini, gripper_frf_csv,
                                                tmp_path):
    # fixtures/gripper/expected.sha256 pins every gripper output byte for
    # byte, in the format ``sha256sum -c`` reads. Any warning fails the run.
    out = tmp_path / "out"
    for sub in SUBCOMMANDS:
        assert _run([sub, "--config", str(gripper_ini), "--out-dir", str(out),
                     "--quiet"]) == 0
    assert _run(["analyze", "--frf", str(gripper_frf_csv), "--band", "50,90",
                 "--out-dir", str(out), "--quiet"]) == 0
    expected = {}
    for line in (gripper_ini.parent / "expected.sha256").read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        expected[name] = digest
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    differ = sorted(n for n in expected.keys() | got.keys()
                    if expected.get(n) != got.get(n))
    assert differ == [], f"outputs differ from expected.sha256: {differ}"


def test_cli_quiet_suppresses_stdout(gripper_ini, tmp_path, capsys):
    assert _run(["modes", "--config", str(gripper_ini),
                 "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert _run(["modes", "--config", str(gripper_ini),
                 "--out-dir", str(tmp_path / "o2")]) == 0
    assert "mode 1" in capsys.readouterr().out


def test_cli_exit_code_validation_error(tmp_path, capsys):
    code = _run(["modes", "--config", str(tmp_path / "nope.ini"),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err

    code = _run(["modes", "--out-dir", str(tmp_path)])
    assert code == 1


def test_cli_analyze_rounded_polar_record(gripper_frf_csv, tmp_path):
    # Magnitudes rounded to three digits flatten both peaks into plateaus;
    # the estimates stay near the full-precision 1.547 % and 1.000 %.
    frf = pd.load_frf_csv(gripper_frf_csv)
    record = tmp_path / "rounded.csv"
    with open(record, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,mag,phase_deg\n")
        for f, v in zip(frf.freqs_hz, frf.values):
            fh.write("%.17g,%.3g,%.17g\n" % (f, abs(v), np.degrees(np.angle(v))))
    assert _run(["analyze", "--frf", str(record), "--band", "50,90",
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    table = np.loadtxt(tmp_path / "analyze.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(table[:, -1], [1.54830845, 0.999775424],
                               rtol=1e-8)


def test_cli_exit_code_data_error(gripper_frf_csv, tmp_path, capsys):
    # Flat region of the record: no peaks, a data condition, not a crash.
    code = _run(["analyze", "--frf", str(gripper_frf_csv),
                 "--band", "84,89", "--out-dir", str(tmp_path), "--quiet"])
    assert code == 1
    assert "no peaks" in capsys.readouterr().err

    code = _run(["analyze", "--frf", str(gripper_frf_csv),
                 "--band", "nonsense", "--out-dir", str(tmp_path)])
    assert code == 1
    capsys.readouterr()

    for band in ("50,x", "nan,90", "50,inf", "50,70,90"):
        code = _run(["analyze", "--frf", str(gripper_frf_csv),
                     "--band", band, "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --band must look like 'lo,hi' in Hz\n"), band

    # A threshold at or below 0 dB would count every ripple as a peak.
    for prominence in ("0", "-1", "nan", "inf"):
        code = _run(["analyze", "--frf", str(gripper_frf_csv), "--band",
                     "50,90", "--min-prominence-db", prominence,
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "min_prominence_db must be positive and finite" in (
            capsys.readouterr().err), prominence

    code = _run(["analyze", "--frf", str(gripper_frf_csv),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: analyze needs --band or a --config with an [analysis] "
        "band_hz\n")


def test_cli_exit_code_numerical_error(monkeypatch, gripper_ini, tmp_path,
                                       capsys):
    def boom(args):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "cmd_modes", boom)
    code = _run(["modes", "--config", str(gripper_ini),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "synthetic failure" in capsys.readouterr().err


_ERROR_CLASSES = [name for name in pd.__all__
                  if isinstance(getattr(pd, name), type)
                  and issubclass(getattr(pd, name), Exception)]


@pytest.mark.parametrize("name", _ERROR_CLASSES)
def test_cli_maps_every_error_class_to_its_exit_code(name, monkeypatch,
                                                     gripper_ini, tmp_path,
                                                     capsys):
    error = getattr(pd, name)

    def boom(args):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "cmd_modes", boom)
    code = _run(["modes", "--config", str(gripper_ini),
                 "--out-dir", str(tmp_path)])
    assert code == (2 if issubclass(error, NumericalError) else 1)
    assert "synthetic failure" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, subcommands", [
    # The patch offset squared overflows in the coupling multiplier.
    ("thickness_m = 0.0005", "thickness_m = 1e300", ["coupling", "place"]),
    # The mode's omega squared overflows.
    ("frequencies_hz = 58.0, 76.0", "frequencies_hz = 58.0, 1e300",
     SUBCOMMANDS),
])
def test_cli_absurd_finite_value_exits_1(gripper_ini, tmp_path, capsys, old,
                                         new, subcommands):
    project = tmp_path / "project"
    shutil.copytree(gripper_ini.parent, project)
    ini = project / gripper_ini.name
    text = ini.read_text()
    assert old in text
    ini.write_text(text.replace(old, new))
    for sub in subcommands:
        code = _run([sub, "--config", str(ini), "--out-dir",
                     str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1, sub
        assert err.startswith("error: ") and "Traceback" not in err, sub


def test_cli_exit_code_io_error(gripper_ini, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    code = _run(["modes", "--config", str(gripper_ini),
                 "--out-dir", str(blocker / "sub")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_state_space_export_round_trip(tmp_path):
    plant = pd.ModalPlant([2.0, 5.0], [0.01, 0.02], [1.0, -0.5])
    sys_ = pd.plant_system(plant)
    path = tmp_path / "ss.csv"
    cli.write_state_space_csv(sys_, path)
    lines = [l for l in path.read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "A,4,4"
    a_rows = [list(map(float, l.split(","))) for l in lines[1:5]]
    np.testing.assert_allclose(np.array(a_rows), sys_.A, rtol=1e-8)
    assert lines[5] == "B,4,1"


# Makes every scipy import raise, then runs each command line given as JSON in
# argv[1]; a lazy scipy import anywhere on those paths fails the run. Prints
# whether the block took effect and the scipy modules loaded after importing
# the CLI and after the runs.
_NO_SCIPY_PROBE = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: import {name}")
        return None

sys.meta_path.insert(0, BlockScipy())

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

try:
    import scipy.linalg
    blocked = False
except ImportError:
    blocked = True

from piezodamp import cli

after_import = scipy_modules()
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"exit {code} from {argv}")
print(json.dumps([blocked, after_import, scipy_modules()]))
"""


def _run_without_scipy(argvs):
    src = Path(pd.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    # Any warning on these runs fails them too.
    env["PYTHONWARNINGS"] = "error"
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE,
                          json.dumps(argvs)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _config_runs(ini, out):
    return [[sub, "--config", str(ini), "--out-dir", str(out), "--quiet"]
            for sub in SUBCOMMANDS]


def test_cli_measured_and_analytic_runs_load_no_scipy(gripper_ini,
                                                      gripper_frf_csv,
                                                      tmp_path):
    # Analytic modes come from the closed-form cantilever roots, solved with
    # numpy, and peaks from a numpy prominence routine, not scipy.
    out = tmp_path / "out"
    argvs = (_config_runs(gripper_ini, out)
             + [["analyze", "--frf", str(gripper_frf_csv), "--band", "50,90",
                 "--out-dir", str(out), "--quiet"]]
             + _config_runs(_minimal_ini(tmp_path), tmp_path / "analytic"))
    blocked, after_import, after_run = _run_without_scipy(argvs)
    assert blocked
    assert after_import == []
    assert after_run == []


def test_cli_finite_element_run_loads_only_scipy_linalg(tmp_path):
    # The beam eigensolve is subspace iteration on the closed-form
    # flexibility, so a finite element project loads no scipy module at all,
    # scipy.linalg included.
    ini = _minimal_ini(tmp_path, structure=(
        "[structure]\nsource = finite_element\nlength_m = 1.0\n"
        "EI_Nm2 = 1.0\nmass_per_length_kgpm = 1.0\nn_modes = 2\n"
        "n_elements = 16\n"))
    blocked, after_import, after_run = _run_without_scipy(
        _config_runs(ini, tmp_path / "out"))
    assert blocked
    assert after_import == []
    assert after_run == []
