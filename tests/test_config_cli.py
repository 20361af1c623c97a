import filecmp
import hashlib
import json
import logging
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import piezodamp as pd
from piezodamp import cli, config
from piezodamp.errors import (ConfigError, InvalidInputError, NumericalError,
                              PiezodampError)

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
            ("band_hz = 0.4, 0.7", "band_hz = nan, 0.7",
             r"\[analysis\] band_hz must be 'lo,hi' in Hz with 0 < lo < hi"),
            ("band_hz = 0.4, 0.7", "band_hz = 0, 0.7",
             r"\[analysis\] band_hz must be 'lo,hi' in Hz with 0 < lo < hi"),
            ("length_m = 1.0", "length_m = -1.0",
             r"\[structure\]: beam length must be positive"),
            ("s11E_perPa = 1.6e-11", "s11E_perPa = -1.6e-11",
             r"\[material\]: s11E must be positive"),
            ("width_m = 0.02", "width_m = 0",
             r"\[patch\]: patch length, width and thickness must be positive"),
            ("n_modes = 2", "n_modes = 0", r"\[structure\]: n_modes must be >= 1"),
            ("n_modes = 2", "n_modes = 2\ndamping = 1.0",
             r"\[structure\]: structural damping must lie in \[0, 1\)"),
            ("freq_hz = 3.5", "freq_hz = 0",
             r"\[ppf\]: filter frequency must be positive and finite"),
            # Finite in Hz, but not in rad/s.
            ("freq_hz = 3.5", "freq_hz = 1e308",
             r"\[ppf\]: filter frequency must be positive and finite"),
            ("gains = 1, 2", "gains = -1, 2",
             r"\[ppf\]: gains must be finite and >= 0"),
            ("step_m = 0.1", "step_m = 0.1\nn_freq = 1",
             r"\[analysis\]: need at least two frequency points"),
            ("step_m = 0.1", "step_m = 0",
             r"\[analysis\]: step must be positive and finite"),
            ("step_m = 0.1", "step_m = 0.1\nn_patches = 0",
             r"\[analysis\] n_patches: place picks one patch; scan.csv "
             r"holds every candidate position"),
            ("step_m = 0.1", "step_m = 0.1\nn_patches = 2",
             r"\[analysis\] n_patches: place picks one patch; scan.csv "
             r"holds every candidate position"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 0:1.0, 1:1.0",
             r"\[analysis\]: mode_weights index 0 is outside the modes 1\.\.2"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:1, 5:1",
             r"\[analysis\]: mode_weights index 5 is outside the modes 1\.\.2"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:1.0, 2:-0.5",
             r"\[analysis\]: mode_weights: weight of mode 2 must be finite "
             r"and >= 0"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:0, 2:0",
             r"\[analysis\]: mode_weights needs at least one positive weight"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = ,",
             r"\[analysis\]: mode_weights needs at least one positive weight"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:1.0, 2:1.0, 1:0.0",
             r"\[analysis\] mode_weights: entry '1:0.0' repeats mode 1"),
            ("step_m = 0.1", "step_m = 0.1\nmode_weights = 1:1.0, two:1.0",
             r"\[analysis\] mode_weights: entry 'two:1.0' must look like "
             r"'mode:weight'"),
            ("zeta = 0.3", "zeta = 1.0",
             r"\[ppf\]: filter damping must lie in \(0, 1\)"),
            ("zeta = 0.3", "zeta = 0",
             r"\[ppf\]: filter damping must lie in \(0, 1\)")]:
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
    path = _minimal_ini(tmp_path, structure=measured
                        + "shapes_file = shapes.csv\ndamping = 2.0\n")
    with pytest.raises(ConfigError, match=r"^\[structure\]: damping ratios must "
                                          r"lie in \[0, 1\)$"):
        pd.load_config(path)


@pytest.mark.parametrize("token", ["2_001", "\u0662\u0660\u0660\u0661",
                                   "0.0_1"])
def test_every_number_reader_refuses_what_the_csv_reader_refuses(
        tmp_path, gripper_frf_csv, capsys, token):
    # float() and int() take digit separators and non-ASCII digits;
    # np.loadtxt does not, and no other number the tool reads does either.
    for old, new, message in [
            ("step_m = 0.1", f"step_m = 0.1\nn_freq = {token}",
             rf"\[analysis\] n_freq = '{token}' is not an integer"),
            ("step_m = 0.1", f"step_m = {token}",
             rf"\[analysis\] step_m = '{token}' is not a number"),
            ("gains = 1, 2", f"gains = 1, {token}",
             r"\[ppf\] gains = .* is not a comma list of numbers"),
            ("band_hz = 0.4, 0.7", f"band_hz = 0.4, {token}",
             r"\[analysis\] band_hz must be 'lo,hi' in Hz"),
            ("step_m = 0.1", f"step_m = 0.1\nmode_weights = 1:{token}",
             r"\[analysis\] mode_weights: entry .* must look like"),
            ("step_m = 0.1", f"step_m = 0.1\nmode_weights = {token}:1",
             r"\[analysis\] mode_weights: entry .* must look like")]:
        path = _minimal_ini(tmp_path)
        path.write_text(path.read_text().replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            pd.load_config(path)
    analyze = ["analyze", "--frf", str(gripper_frf_csv), "--out-dir",
               str(tmp_path / "out"), "--quiet"]
    assert _run(analyze + ["--band", f"50,{token}"]) == 1
    assert capsys.readouterr().err == (
        "error: --band must be 'lo,hi' in Hz with 0 < lo < hi\n")


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


_GAINS = st.lists(st.floats() | st.sampled_from([0.0, 1.0, 1e308]),
                  min_size=1, max_size=5)
_WEIGHTS = st.none() | st.dictionaries(
    st.integers(-1, 4), st.floats() | st.sampled_from([0.0, -0.0, 1.0]),
    max_size=4)
# Whole-number frequencies: values whose modes a ModalModel holds, so that
# only the list rule can refuse them. A mode's own limit on an overflowing
# omega squared is checked when a command builds the model. Damping ratios
# are drawn on both sides of [0, 1), a rule of the lists.
_FREQUENCIES = st.lists(st.integers(-100, 1000).map(float)
                        | st.sampled_from([10.0, float("nan"), float("inf")]),
                        max_size=3)
_DAMPING = st.none() | st.lists(
    st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, float("nan"),
                                            float("inf")]),
    max_size=3)


@settings(max_examples=300, deadline=None)
@given(part=st.sampled_from(["gains", "modes"]), gains=_GAINS,
       weights=_WEIGHTS, frequencies=_FREQUENCIES, damping=_DAMPING)
def test_load_config_refuses_what_gain_sweep_and_find_peaks_refuse(
        tmp_path_factory, part, gains, weights, frequencies, damping):
    # One rule set: the INI's [ppf] gains, [analysis] mode_weights and the
    # measured [structure] lists are refused exactly when the library
    # functions and types that use them refuse them. One part is drawn and
    # the others are valid, so each rule shows on its own; the mode weights
    # are drawn with the lists that set the mode count.
    if part != "gains":
        gains = [1.0, 2.0]
    if part != "modes":
        weights, frequencies, damping = None, [10.0, 20.0], None
    root = tmp_path_factory.mktemp("rules")
    n_modes = len(frequencies)
    x = np.linspace(0.0, 1.0, 9)
    np.savetxt(root / "shapes.csv",
               np.column_stack([x] + [(k + 1) * x * x for k in range(n_modes)]),
               delimiter=",", comments="",
               header=",".join(["x_m"] + [f"mode{k + 1}" for k in range(n_modes)]))
    plant = pd.ModalPlant([10.0], [0.05], [1.0])
    material = pd.PiezoMaterial(-1.8e-10, 1.6e-11, 1.6e-8)
    patch = pd.PatchGeometry.on_host(0.1, 0.02, 0.0005, 0.002)
    library_refuses = False
    try:
        pd.gain_sweep(plant, pd.PPFConfig(10.0, 0.3), gains,
                      freqs_hz=[1.0, 1.5, 2.0])
    except InvalidInputError:
        library_refuses = True
    try:
        pd.load_measured_modes(root / "shapes.csv", frequencies, damping)
    except InvalidInputError:
        library_refuses = True
    if n_modes:
        model = pd.load_measured_modes(root / "shapes.csv",
                                       range(1, n_modes + 1))
        default = {i: 1.0 for i in range(1, n_modes + 1)}  # the INI's
        try:
            pd.PlacementProblem(model, patch, material,
                                default if weights is None else weights, 0.1)
        except InvalidInputError:
            library_refuses = True
    structure = ("[structure]\nsource = measured\nshapes_file = shapes.csv\n"
                 "frequencies_hz = " + ", ".join(map(repr, frequencies)) + "\n")
    if damping is not None:
        structure += "damping = " + ", ".join(map(repr, damping)) + "\n"
    extra = ""
    if weights is not None:
        extra += "mode_weights = " + ", ".join(
            f"{k}:{w!r}" for k, w in weights.items()) + "\n"
    path = _minimal_ini(root, structure=structure, extra=extra)
    path.write_text(path.read_text().replace(
        "gains = 1, 2", "gains = " + ", ".join(map(repr, gains))))
    try:
        pd.load_config(path)
    except ConfigError:
        assert library_refuses
    else:
        assert not library_refuses


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
# A valid [structure] section per source; the measured one needs a
# shapes.csv next to the INI.
_STRUCTURES = {
    "analytic": _FE_STRUCTURE.replace("finite_element", "analytic")
    + "n_modes = 2\n",
    "finite_element": _FE_STRUCTURE + "n_modes = 2\n",
    "measured": "[structure]\nsource = measured\nshapes_file = shapes.csv\n"
                "frequencies_hz = 10, 20\n",
}


def _ini_for(root, source, section, line):
    """A valid INI for ``source`` with ``line`` added to [section]."""
    (root / "shapes.csv").write_text("x_m,mode1,mode2\n")
    path = _minimal_ini(root, structure=_STRUCTURES[source])
    path.write_text(path.read_text().replace(f"[{section}]\n",
                                             f"[{section}]\n{line}\n"))
    return path


_TABLE_KEYS = [(section, source, row[0])
               for section, rows in config._SCHEMA.items()
               for row in rows for source in row[1]]
_KEY_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_config_refuses_a_one_edit_misspelling_of_every_key(
        tmp_path_factory, data):
    section, source, key = data.draw(st.sampled_from(_TABLE_KEYS))
    kind = data.draw(st.sampled_from(
        ["insert", "delete", "substitute", "transpose"]))
    last = len(key) + (kind == "insert") - (kind == "transpose") - 1
    i = data.draw(st.integers(0, last), label="position")
    c = data.draw(st.sampled_from(_KEY_CHARS), label="char")
    if kind == "insert":
        edited = key[:i] + c + key[i:]
    elif kind == "delete":
        edited = key[:i] + key[i + 1:]
    elif kind == "substitute":
        edited = key[:i] + c + key[i + 1:]
    else:
        edited = key[:i] + key[i + 1] + key[i] + key[i + 2:]
    edited = edited.lower()
    # configparser folds case, so a case-only edit is the key itself.
    assume(edited not in {row[0].lower() for row in config._SCHEMA[section]})
    path = _ini_for(tmp_path_factory.mktemp("edit"), source, section,
                    f"{edited} = 1")
    with pytest.raises(ConfigError) as err:
        pd.load_config(path)
    assert str(err.value).startswith(f"[{section}] unknown key {edited!r}")


@pytest.mark.parametrize("source, line, message", [
    ("analytic", "n_elements = 64",
     "[structure] n_elements belongs to source = finite_element, not analytic"),
    ("finite_element", "n_grid = 201",
     "[structure] n_grid belongs to source = analytic, not finite_element"),
    ("analytic", "shapes_file = shapes.csv",
     "[structure] shapes_file belongs to source = measured, not analytic"),
    ("measured", "EI_Nm2 = 1.0",
     "[structure] EI_Nm2 belongs to source = analytic or finite_element, "
     "not measured"),
])
def test_load_config_refuses_a_key_of_another_source(tmp_path, source, line,
                                                     message):
    path = _ini_for(tmp_path, source, "structure", line)
    with pytest.raises(ConfigError) as err:
        pd.load_config(path)
    assert str(err.value) == message


def test_cli_refuses_misspelt_keys_naming_the_first(gripper_ini, tmp_path,
                                                    capsys):
    # Each of these used to fall back to its default without a word.
    shutil.copy(gripper_ini.parent / "gripper_shapes.csv", tmp_path)
    ini = tmp_path / "typos.ini"
    ini.write_text(gripper_ini.read_text()
                   + "n_freqs = 21\nmode_weight = 1:1.0\nbogus_key = 3\n")
    out = tmp_path / "out"
    assert _run(["sweep", "--config", str(ini), "--out-dir", str(out),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: [analysis] unknown key 'n_freqs'; did you mean 'n_freq'?\n")
    assert not out.exists()
    ini.write_text(gripper_ini.read_text() + "bogus_key = 3\n")
    with pytest.raises(ConfigError, match=r"^\[analysis\] unknown key "
                                          r"'bogus_key'$"):
        pd.load_config(ini)


@pytest.mark.parametrize("sub, frf", [(sub, None) for sub in SUBCOMMANDS] + [
    ("analyze", "gripper_frf.csv"),
    # A bad record as well: the INI's error still comes first.
    ("analyze", "bad_frf.csv")])
def test_cli_reads_the_ini_before_it_writes(sub, frf, gripper_ini, tmp_path,
                                            capsys):
    project = tmp_path / "project"
    shutil.copytree(gripper_ini.parent, project)
    (project / "bad_frf.csv").write_text("freq_hz,real,imag\n1,2,3\n")
    ini = project / "typo.ini"
    ini.write_text(gripper_ini.read_text() + "n_freqs = 21\n")
    out = tmp_path / "out"
    argv = [sub, "--config", str(ini), "--out-dir", str(out), "--quiet"]
    assert _run(argv + (["--frf", str(project / frf)] if frf else [])) == 1
    assert capsys.readouterr().err == (
        "error: [analysis] unknown key 'n_freqs'; did you mean 'n_freq'?\n")
    assert not out.exists()


def test_cli_notes_retired_keys_only_with_verbose(gripper_ini,
                                                  gripper_frf_csv, tmp_path,
                                                  capsys):
    shutil.copy(gripper_ini.parent / "gripper_shapes.csv", tmp_path)
    ini = tmp_path / "retired.ini"
    ini.write_text(gripper_ini.read_text() + "min_gap_m = 0.05\n"
                   "target_mode = 2\nmin_prominence_db = 60\n")
    args = ["place", "--config", str(ini), "--out-dir", str(tmp_path),
            "--quiet"]
    assert _run(args) == 0
    assert capsys.readouterr().err == ""
    assert _run(args + ["-v"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "info: [analysis] min_gap_m is retired and ignored",
        "info: [analysis] target_mode is retired and ignored",
        "info: [analysis] min_prominence_db is retired and ignored"]
    # A threshold no peak of the record reaches changes no output.
    for config, out in ((gripper_ini, "plain"), (ini, "retired")):
        assert _run(["analyze", "--frf", str(gripper_frf_csv), "--config",
                     str(config), "--out-dir", str(tmp_path / out),
                     "--quiet"]) == 0
    assert ((tmp_path / "plain" / "analyze.csv").read_bytes()
            == (tmp_path / "retired" / "analyze.csv").read_bytes())


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


def test_cli_sweep_leaves_an_unresolved_peak_without_estimate(
        gripper_ini, tmp_path, capsys):
    # Three points over 65-90 Hz put no sample above the half-power level
    # beside the 77.5 Hz peak; the estimate read from them would be 5.6-6.2 %.
    for name in ("gripper.ini", "gripper_shapes.csv"):
        shutil.copy(gripper_ini.parent / name, tmp_path / name)
    ini = tmp_path / "gripper.ini"
    ini.write_text(ini.read_text().replace("n_freq = 2001", "n_freq = 3"))
    out = tmp_path / "out"
    assert _run(["sweep", "--config", str(ini), "--out-dir", str(out),
                 "--quiet"]) == 0
    assert (out / "sweep.csv").read_text().splitlines() == [
        "gain,stable,f_peak_hz,Q,zeta,damping_pct", "1500,1,,,,",
        "3000,1,,,,", "4500,1,,,,", "6000,1,,,,"]
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 4
    assert all("peak at 77.5 Hz not resolved" in w for w in warnings)


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
    # The worst residual over each mode's own mu is at least the worst over
    # mu_1, the largest mu; a mode short of convergence shows only there.
    head, _, relative = lines[0].rpartition(", worst relative residual ")
    to_mu1 = head.rpartition(" worst residual ")[2].removesuffix(" mu_1")
    assert float(to_mu1) <= float(relative) < 1e-12
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


def test_cli_place_accepts_the_one_patch_keys(gripper_ini, tmp_path):
    # INIs that spell out n_patches = 1 and a clearance keep working: the
    # clearance is an ignored key and the outputs do not change.
    shutil.copy(gripper_ini.parent / "gripper_shapes.csv", tmp_path)
    ini = tmp_path / "keys.ini"
    ini.write_text(gripper_ini.read_text() + "n_patches = 1\nmin_gap_m = 0.05\n")
    for config, out in ((gripper_ini, "plain"), (ini, "keys")):
        assert _run(["place", "--config", str(config), "--out-dir",
                     str(tmp_path / out), "--quiet"]) == 0
    for name in ("scan.csv", "placement.csv"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "keys" / name).read_bytes())


def test_cli_place_reports_one_position(gripper_ini, tmp_path, capsys):
    assert _run(["place", "--config", str(gripper_ini), "--out-dir",
                 str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "patch at x_start = 0 m, objective 0.000301705784"
    assert len(lines) == 4


def test_cli_analyze_takes_band_from_config(gripper_ini, gripper_frf_csv,
                                            tmp_path):
    # gripper.ini sets band_hz = 65, 90.
    for out, band in ((tmp_path / "config", ["--config", str(gripper_ini)]),
                      (tmp_path / "band", ["--band", "65,90"])):
        assert _run(["analyze", "--frf", str(gripper_frf_csv), "--out-dir",
                     str(out), "--quiet"] + band) == 0
    assert ((tmp_path / "config" / "analyze.csv").read_bytes()
            == (tmp_path / "band" / "analyze.csv").read_bytes())


def test_cli_names_a_repeated_measured_frequency(gripper_ini, tmp_path,
                                                capsys):
    for name in ("gripper.ini", "gripper_shapes.csv"):
        shutil.copy(gripper_ini.parent / name, tmp_path / name)
    ini = tmp_path / "gripper.ini"
    ini.write_text(ini.read_text().replace("frequencies_hz = 58.0, 76.0",
                                           "frequencies_hz = 76.0, 76.0"))
    assert _run(["modes", "--config", str(ini), "--out-dir",
                 str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: [structure]: measured frequency 76 Hz is listed twice\n")


@pytest.mark.parametrize("frequencies, message", [
    ("58.0, 58.0", "measured frequency 58 Hz is listed twice"),
    ("58.0, -76.0", "frequencies_hz must list positive, finite frequencies"),
    (",", "frequencies_hz must list positive, finite frequencies"),
    ("58.0", "damping must list one ratio per frequency: 2 for 1"),
])
def test_cli_analyze_refuses_measured_lists_on_load(
        gripper_ini, gripper_frf_csv, tmp_path, capsys, frequencies, message):
    # analyze builds no model, so only a check on load can refuse these.
    for name in ("gripper.ini", "gripper_shapes.csv"):
        shutil.copy(gripper_ini.parent / name, tmp_path / name)
    ini = tmp_path / "gripper.ini"
    text = ini.read_text()
    assert "frequencies_hz = 58.0, 76.0\n" in text
    ini.write_text(text.replace("frequencies_hz = 58.0, 76.0",
                                "frequencies_hz = " + frequencies))
    assert _run(["analyze", "--config", str(ini), "--frf",
                 str(gripper_frf_csv), "--out-dir", str(tmp_path / "out"),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: [structure]: {message}\n"


def test_cli_analyze_refuses_a_damping_ratio_outside_0_1_on_load(
        gripper_ini, gripper_frf_csv, tmp_path, capsys):
    # The same rule and message as modes, which builds the model.
    for name in ("gripper.ini", "gripper_shapes.csv"):
        shutil.copy(gripper_ini.parent / name, tmp_path / name)
    ini = tmp_path / "gripper.ini"
    text = ini.read_text()
    assert "damping = 0.01, 0.01\n" in text
    ini.write_text(text.replace("damping = 0.01, 0.01", "damping = 2.0, 2.0"))
    for argv in (["analyze", "--frf", str(gripper_frf_csv)], ["modes"]):
        assert _run(argv + ["--config", str(ini), "--out-dir",
                            str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: [structure]: damping ratios must lie in [0, 1)\n")


def _src_env(**extra):
    """This environment with the tested source tree first on PYTHONPATH."""
    src = Path(pd.__file__).resolve().parent.parent
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def test_python_m_piezodamp_exits_like_the_cli():
    env = _src_env()
    for argv, code in ((["--help"], 0), (["bogus"], 1)):
        out = subprocess.run([sys.executable, "-m", "piezodamp", *argv],
                             env=env, capture_output=True, text=True)
        assert out.returncode == code, (argv, out.stderr)
        assert "usage: piezodamp" in out.stdout + out.stderr


def test_cli_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    for argv in (["analyze"], ["bogus"]):
        assert _run(argv) == 1, argv
        assert "usage: piezodamp" in capsys.readouterr().err
    # The peak threshold is the half-power level, not an option.
    assert _run(["analyze", "--frf", str(tmp_path / "r.csv"), "--band",
                 "50,90", "--min-prominence-db", "3"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: --min-prominence-db 3\n")
    assert _run(["--help"]) == 0
    assert "usage: piezodamp" in capsys.readouterr().out


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


def _golden_hash_mismatches(ini, frf_csv, out, golden):
    """The gripper outputs of all six subcommands on ``ini`` and ``frf_csv``
    that differ from, or are missing in, the ``golden`` sha256sum file."""
    for sub in SUBCOMMANDS:
        assert _run([sub, "--config", str(ini), "--out-dir", str(out),
                     "--quiet"]) == 0
    assert _run(["analyze", "--frf", str(frf_csv), "--band", "50,90",
                 "--out-dir", str(out), "--quiet"]) == 0
    expected = {}
    for line in golden.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        expected[name] = digest
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    return sorted(n for n in expected.keys() | got.keys()
                  if expected.get(n) != got.get(n))


def test_cli_gripper_outputs_match_golden_hashes(gripper_ini, gripper_frf_csv,
                                                tmp_path):
    # fixtures/gripper/expected.sha256 pins every gripper output byte for
    # byte, in the format ``sha256sum -c`` reads. Any warning fails the run.
    differ = _golden_hash_mismatches(gripper_ini, gripper_frf_csv,
                                     tmp_path / "out",
                                     gripper_ini.parent / "expected.sha256")
    assert differ == [], f"outputs differ from expected.sha256: {differ}"


def test_cli_reads_inputs_that_start_with_a_byte_order_mark(gripper_ini,
                                                            tmp_path):
    # Excel's "CSV UTF-8" and Notepad write EF BB BF first; it must not hide
    # a comment's '#', a header or the INI's first section.
    fixtures = gripper_ini.parent
    for name in ("gripper.ini", "gripper_shapes.csv", "gripper_frf.csv"):
        (tmp_path / name).write_bytes(
            b"\xef\xbb\xbf" + (fixtures / name).read_bytes())
    differ = _golden_hash_mismatches(tmp_path / "gripper.ini",
                                     tmp_path / "gripper_frf.csv",
                                     tmp_path / "out",
                                     fixtures / "expected.sha256")
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

    # The rule of [analysis] band_hz, with 0 < lo < hi.
    for band in ("50,x", "nan,90", "50,inf", "50,70,90", "0,90",
                 "90,50", "50,50"):
        code = _run(["analyze", "--frf", str(gripper_frf_csv),
                     "--band", band, "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --band must be 'lo,hi' in Hz with 0 < lo < hi\n"), band

    code = _run(["analyze", "--frf", str(gripper_frf_csv),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: analyze needs --band or a --config with an [analysis] "
        "band_hz\n")


def test_cli_exit_code_numerical_error(monkeypatch, gripper_ini, tmp_path,
                                       capsys):
    def boom(*_):
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

    def boom(*_):
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


def _cap_address_space():
    """Hold a CLI child to 4 GiB, so an input that slips past its check
    fails to allocate instead of filling the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("sub, old, new, names", [
    ("place", "step_m = 0.01", "step_m = 1e-310", "step 1e-310 m gives inf"),
    ("place", "step_m = 0.01", "step_m = 1e-9",
     "step 1e-09 m gives 350,000,001 candidate positions"),
    ("sweep", "n_freq = 2001", "n_freq = 100000000000", "out of memory"),
    ("ppf-design", "freq_hz = 76.7", "freq_hz = 1e200",
     "[ppf]: filter frequency"),
    ("sweep", "freq_hz = 76.7", "freq_hz = 1e200", "[ppf]: filter frequency"),
    ("analyze", None, None, "--band"),
], ids=["step_1e-310", "step_1e-9", "n_freq_1e11", "ppf_design_freq_1e200",
        "sweep_freq_1e200", "analyze_bad_band_missing_record"])
def test_cli_refuses_an_input_it_cannot_run_in_one_error_line(
        gripper_ini, tmp_path, sub, old, new, names):
    project = tmp_path / "project"
    shutil.copytree(gripper_ini.parent, project)
    if sub == "analyze":
        argv = ["--frf", str(project / "missing.csv"), "--band", "8,abc"]
    else:
        ini = project / gripper_ini.name
        assert old in ini.read_text()
        ini.write_text(ini.read_text().replace(old, new))
        argv = ["--config", str(ini)]
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-m", "piezodamp", sub, *argv, "--out-dir", str(out),
         "--quiet"], env=_src_env(), capture_output=True, text=True,
        preexec_fn=_cap_address_space)
    assert run.returncode == 1, run.stderr
    assert len(run.stderr.splitlines()) == 1, run.stderr
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
    assert names in run.stderr
    assert not out.exists() or not any(out.iterdir())


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
    # Any warning on these runs fails them too.
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE,
                          json.dumps(argvs)],
                         env=_src_env(PYTHONWARNINGS="error"),
                         capture_output=True, text=True)
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


def test_importing_the_cli_loads_only_stdlib_numpy_and_piezodamp():
    # numpy is the one run-time dependency, so the CLI's start-up may add
    # nothing else to what a bare interpreter has loaded.
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "import piezodamp.cli\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    added = json.loads(out.stdout)
    assert "piezodamp.cli" in added and "numpy" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "piezodamp"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []
