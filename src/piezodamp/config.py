"""Project configuration: one INI file describing the structure, the patch
material and geometry, the controller, and the analysis settings.

Sections and keys:

    [structure]    source = analytic | finite_element | measured
                   analytic/finite_element: length_m, EI_Nm2, mass_per_length_kgpm,
                     n_modes, damping (optional), n_grid / n_elements (optional)
                   measured: shapes_file, frequencies_hz (comma list),
                     damping (optional comma list), smooth (optional)
    [material]     d31_CpN, s11E_perPa, epsT_FpM
    [patch]        length_m, width_m, thickness_m, x_start_m (optional),
                   z_offset_m or host_thickness_m (exactly one)
    [ppf]          freq_hz, zeta, gains (comma list for sweeps)
    [analysis]     band_hz = lo,hi; n_freq (optional);
                   min_prominence_db (optional); placement: step_m,
                   mode_weights (optional "1:1.0,2:0.5", default all 1)

Values are checked on load: numbers must be finite and files must exist. A
rule that a library type or function states, the measured frequency and
damping lists, the mode count, n_freq, step_m and the mode weights included,
is checked by handing the values to it, and its error reads
``[section]: message``. The model's size limits, each mode's limits and the
shapes file are checked so when a command builds it. ``parse_band`` reads
band_hz and ``analyze --band`` alike. Unknown keys are ignored, ``%`` is
literal.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, InvalidInputError
from .frf import _check_gains, _check_point_count, _check_prominence
from .modal import (DEFAULT_DAMPING, SOURCE_ANALYTIC, SOURCE_FE,
                    SOURCE_MEASURED, BeamProperties, ModalModel,
                    _check_mode_count, _measured_lists,
                    analytic_cantilever_modes, fe_beam_modes,
                    load_measured_modes)
from .piezo import PatchGeometry, PiezoMaterial
from .placement import _check_mode_weights, _check_step
from .ppf import PPFConfig

_BUILDERS = {SOURCE_ANALYTIC: analytic_cantilever_modes,
             SOURCE_FE: fe_beam_modes,
             SOURCE_MEASURED: load_measured_modes}


def _section(cp: configparser.ConfigParser, name: str):
    if not cp.has_section(name):
        raise ConfigError(f"missing [{name}] section")
    return cp[name]


def _checked(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose input errors name [section]."""
    try:
        return make(*args, **kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _finite(sect, key: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"[{sect.name}] {key} = {sect[key]!r} is not finite")
    return value


def _get(sect, key: str, parse, noun: str, default=None):
    """``parse`` of the key's text, ``default`` if the key is absent."""
    if key not in sect:
        if default is not None:
            return default
        raise ConfigError(f"[{sect.name}] is missing key {key!r}")
    try:
        return parse(sect[key])
    except ValueError:
        raise ConfigError(
            f"[{sect.name}] {key} = {sect[key]!r} is not {noun}") from None


def _float(sect, key: str, default=None) -> float:
    return _finite(sect, key, _get(sect, key, float, "a number", default))


def _int(sect, key: str, default=None) -> int:
    return _get(sect, key, int, "an integer", default)


def _float_list(sect, key: str, default=None) -> list[float]:
    return _get(sect, key, lambda text: [_finite(sect, key, float(t))
                                         for t in text.split(",") if t.strip()],
                "a comma list of numbers", default)


def _weights(sect, key: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for item in sect[key].split(","):
        item = item.strip()
        if not item:
            continue
        mode_s, _, weight_s = item.partition(":")
        try:  # without a colon, weight_s is empty
            mode, weight = int(mode_s), _finite(sect, key, float(weight_s))
        except ValueError:
            raise ConfigError(
                f"[{sect.name}] {key}: entry {item!r} must look like "
                "'mode:weight'") from None
        if mode in out:
            raise ConfigError(
                f"[{sect.name}] {key}: entry {item!r} repeats mode {mode}")
        out[mode] = weight
    return out


def parse_band(text: str, name: str) -> tuple[float, float]:
    """The band ``'lo,hi'`` in Hz, finite with 0 < lo < hi; ``name`` is its key."""
    try:
        lo, hi = map(float, text.split(","))
        if 0.0 < lo < hi < math.inf:
            return lo, hi
    except ValueError:  # not two numbers
        pass
    raise ConfigError(f"{name} must be 'lo,hi' in Hz with 0 < lo < hi")


@dataclass
class ProjectConfig:
    """Validated contents of one project INI file, defaults resolved;
    ``structure`` holds the keyword arguments of ``source``'s model builder."""

    source: str
    structure: dict
    material: PiezoMaterial
    patch: PatchGeometry
    ppf_freq_hz: float
    ppf_zeta: float
    gains: list[float]
    band_hz: tuple[float, float]
    n_freq: int
    min_prominence_db: float
    placement_step: float
    mode_weights: dict[int, float]

    def build_model(self) -> ModalModel:
        """Materialize the modal model the config describes."""
        return _checked("structure", _BUILDERS[self.source], **self.structure)


def load_config(path) -> ProjectConfig:
    """Parse and validate a project INI file, as the module docstring says."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: cannot decode byte "
                          f"0x{exc.object[exc.start]:02x}") from None

    st = _section(cp, "structure")
    source = st.get("source", "").strip()
    if source not in _BUILDERS:
        raise ConfigError(
            f"[structure] source must be one of {', '.join(_BUILDERS)}; "
            f"got {source!r}")
    if source == SOURCE_MEASURED:
        if "shapes_file" not in st:
            raise ConfigError("[structure] measured source needs shapes_file")
        shapes_file = path.parent / st["shapes_file"]
        # os.path.isfile gives False, not an OSError, for a name the file
        # system rejects (too long, for one).
        if not os.path.isfile(shapes_file):
            raise ConfigError(f"shapes file {shapes_file} does not exist")
        freqs = _float_list(st, "frequencies_hz")
        damping = _float_list(st, "damping") if "damping" in st else None
        _checked("structure", _measured_lists, freqs, damping)
        smooth = _get(st, "smooth", lambda _: st.getboolean("smooth"),
                      "a boolean", False)
        structure = {"path": shapes_file, "frequencies_hz": freqs,
                     "damping": damping, "smooth": smooth}
        n_modes = len(freqs)
    else:
        props = _checked("structure", BeamProperties,
                         _float(st, "length_m"), _float(st, "EI_Nm2"),
                         _float(st, "mass_per_length_kgpm"),
                         _float(st, "damping", DEFAULT_DAMPING))
        n_modes = _int(st, "n_modes")
        _checked("structure", _check_mode_count, n_modes)
        # Both sizes are checked on load; the source's builder takes one.
        sizes = {"n_grid": _int(st, "n_grid", 201),
                 "n_elements": _int(st, "n_elements", 64)}
        size = "n_grid" if source == SOURCE_ANALYTIC else "n_elements"
        structure = {"props": props, "n_modes": n_modes, size: sizes[size]}

    mt = _section(cp, "material")
    material = _checked("material", PiezoMaterial, _float(mt, "d31_CpN"),
                        _float(mt, "s11E_perPa"), _float(mt, "epsT_FpM"))

    pt = _section(cp, "patch")
    has_z = "z_offset_m" in pt
    if has_z == ("host_thickness_m" in pt):
        raise ConfigError(
            "[patch] needs exactly one of z_offset_m or host_thickness_m")
    make, offset = ((PatchGeometry, "z_offset_m") if has_z else
                    (PatchGeometry.on_host, "host_thickness_m"))
    patch = _checked("patch", make, _float(pt, "length_m"),
                     _float(pt, "width_m"), _float(pt, "thickness_m"),
                     _float(pt, offset), _float(pt, "x_start_m", 0.0))

    pf = _section(cp, "ppf")
    # The INI values themselves are kept, so outputs echo them bit for bit.
    ppf_freq = _float(pf, "freq_hz")
    ppf_zeta = _float(pf, "zeta")
    _checked("ppf", PPFConfig.from_hz, ppf_freq, ppf_zeta)
    gains = _float_list(pf, "gains", [])
    _checked("ppf", _check_gains, gains)

    an = _section(cp, "analysis")
    band = parse_band(_get(an, "band_hz", str, "text"), "[analysis] band_hz")
    n_freq = _int(an, "n_freq", 2001)
    _checked("analysis", _check_point_count, n_freq)
    min_prom = _float(an, "min_prominence_db", 1.0)
    _checked("analysis", _check_prominence, min_prom)
    step = _float(an, "step_m", 0.0)
    if "step_m" in an:
        _checked("analysis", _check_step, step)
    # Refused rather than ignored like other unknown keys, so an INI that
    # asks for several patches does not silently get one.
    if _int(an, "n_patches", 1) != 1:
        raise ConfigError("[analysis] n_patches: place picks one patch; "
                          "scan.csv holds every candidate position")
    weights = (_weights(an, "mode_weights") if "mode_weights" in an
               else {i: 1.0 for i in range(1, n_modes + 1)})
    _checked("analysis", _check_mode_weights, weights, n_modes)

    return ProjectConfig(source, structure, material, patch, ppf_freq,
                         ppf_zeta, gains, band, n_freq, min_prom, step, weights)
