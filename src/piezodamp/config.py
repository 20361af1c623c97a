"""Project configuration: one INI file describing the structure, the patch
material and geometry, the controller, and the analysis settings.

``_SCHEMA`` lists each section's keys; others, and those of another
``[structure] source``, are refused. Unknown sections are ignored and ``%``
is literal. A library type or function checks the rule it states when the
values are handed to it on load; its error reads ``[section]: message``.
Model sizes, mode limits and the shapes file wait for a model build.
"""

from __future__ import annotations

import configparser
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, InvalidInputError
from .frf import _check_gains, _check_point_count
from .modal import (DEFAULT_DAMPING, DEFAULT_N_GRID, SOURCE_ANALYTIC,
                    SOURCE_FE, SOURCE_MEASURED, BeamProperties, ModalModel,
                    _check_mode_count, _measured_lists, _numeral,
                    analytic_cantilever_modes, fe_beam_modes,
                    load_measured_modes)
from .piezo import PatchGeometry, PiezoMaterial
from .placement import _check_mode_weights, _check_step
from .ppf import PPFConfig

log = logging.getLogger(__name__)
_BUILDERS = {SOURCE_ANALYTIC: analytic_cantilever_modes,
             SOURCE_FE: fe_beam_modes, SOURCE_MEASURED: load_measured_modes}


def _checked(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose input errors name [section]."""
    try:
        return make(*args, **kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _reader(parse, noun: str):
    """A reader of a key's text and name: ``parse`` of the text, not nan/inf."""
    def read(text: str, name: str):
        try:
            value = parse(text)
        except (KeyError, ValueError):
            raise ConfigError(f"{name} = {text!r} is not {noun}") from None
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{name} = {text!r} is not finite")
        return value
    return read


_text, _float = _reader(str, "text"), _reader(_numeral, "a number")
_int = _reader(lambda text: _numeral(text, int), "an integer")
_floats = _reader(lambda text: [_numeral(t) for t in text.split(",")
                                if t.strip()], "a comma list of numbers")
_bool = _reader(lambda text: configparser.ConfigParser.BOOLEAN_STATES[
    text.lower()], "a boolean")


def _weights(text: str, name: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for item in filter(None, map(str.strip, text.split(","))):
        mode_s, _, weight_s = item.partition(":")
        try:  # without a colon, weight_s is empty
            mode, weight = _numeral(mode_s, int), _numeral(weight_s)
        except ValueError:
            raise ConfigError(f"{name}: entry {item!r} must look like "
                              "'mode:weight'") from None
        if not math.isfinite(weight):
            raise ConfigError(f"{name} = {text!r} is not finite")
        if mode in out:
            raise ConfigError(f"{name}: entry {item!r} repeats mode {mode}")
        out[mode] = weight
    return out


def parse_band(text: str, name: str) -> tuple[float, float]:
    """The band ``'lo,hi'`` in Hz, finite with 0 < lo < hi; ``name`` is its key."""
    try:
        lo, hi = map(_numeral, text.split(","))
        if 0.0 < lo < hi < math.inf:
            return lo, hi
    except ValueError:  # not two numbers
        pass
    raise ConfigError(f"{name} must be 'lo,hi' in Hz with 0 < lo < hi")


REQUIRED, ALL = object(), tuple(_BUILDERS)
BEAM, MEASURED = (SOURCE_ANALYTIC, SOURCE_FE), (SOURCE_MEASURED,)
# One row per key: key, its sources, reader, default or REQUIRED, and owner
# rules of a value the INI gives. A retired key has no reader.
_SCHEMA = {
    "structure": [
        ("source", ALL, _text, REQUIRED),
        ("length_m", BEAM, _float, REQUIRED),
        ("EI_Nm2", BEAM, _float, REQUIRED),
        ("mass_per_length_kgpm", BEAM, _float, REQUIRED),
        ("n_modes", BEAM, _int, REQUIRED, _check_mode_count),
        ("n_grid", (SOURCE_ANALYTIC,), _int, DEFAULT_N_GRID),
        ("n_elements", (SOURCE_FE,), _int, 64),
        ("damping", BEAM, _float, DEFAULT_DAMPING),
        ("shapes_file", MEASURED, _text, None),
        ("frequencies_hz", MEASURED, _floats, REQUIRED),
        ("damping", MEASURED, _floats, None),
        ("smooth", MEASURED, _bool, False)],
    "material": [(key, ALL, _float, REQUIRED)
                 for key in ("d31_CpN", "s11E_perPa", "epsT_FpM")],
    "patch": [("length_m", ALL, _float, REQUIRED),
              ("width_m", ALL, _float, REQUIRED),
              ("thickness_m", ALL, _float, REQUIRED),
              ("z_offset_m", ALL, _float, None),
              ("host_thickness_m", ALL, _float, None),
              ("x_start_m", ALL, _float, 0.0)],
    "ppf": [("freq_hz", ALL, _float, REQUIRED),
            ("zeta", ALL, _float, REQUIRED),
            ("gains", ALL, _floats, (), _check_gains)],
    "analysis": [
        ("band_hz", ALL, parse_band, REQUIRED),
        ("n_freq", ALL, _int, 2001, _check_point_count),
        ("step_m", ALL, _float, 0.0, _check_step),
        ("n_patches", ALL, _int, 1),
        ("mode_weights", ALL, _weights, None),
        ("min_gap_m", ALL, None, None),  # from multi-patch placement
        ("target_mode", ALL, None, None),  # the benchmark INIs write it
        # find_peaks reports the peaks that reach the half-power level.
        ("min_prominence_db", ALL, None, None)],
}


def _read(cp: configparser.ConfigParser, name: str, source: str) -> dict:
    """Section ``name``'s values for ``source`` by key, as ``_SCHEMA`` says."""
    if not cp.has_section(name):
        raise ConfigError(f"missing [{name}] section")
    sect, out = cp[name], {}
    rows = {row[0].lower(): row for row in _SCHEMA[name] if source in row[1]}
    for key in (k for k in sect if k not in rows):
        for other, sources, *_ in _SCHEMA[name]:
            if other.lower() == key:
                raise ConfigError(f"[{name}] {other} belongs to source = "
                                  f"{' or '.join(sources)}, not {source}")
        from difflib import get_close_matches  # only this error needs it
        close = get_close_matches(key, [k for k in rows if rows[k][2]], 1)
        hint = f"; did you mean {rows[close[0]][0]!r}?" if close else ""
        raise ConfigError(f"[{name}] unknown key {key!r}{hint}")
    for key, _, reader, default, *owners in rows.values():
        if key not in sect:
            if default is REQUIRED:
                raise ConfigError(f"[{name}] is missing key {key!r}")
            out[key] = default
        elif reader is None:
            log.info("[%s] %s is retired and ignored", name, key)
        else:
            out[key] = reader(sect[key], f"[{name}] {key}")
            for owner in owners:
                _checked(name, owner, out[key])
    return out


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
        with open(path, "r", encoding="utf-8-sig") as fh:
            cp.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: cannot decode byte "
                          f"0x{exc.object[exc.start]:02x}") from None
    source = cp.get("structure", "source", fallback="").strip()
    if source not in _BUILDERS and cp.has_section("structure"):
        raise ConfigError(f"[structure] source must be one of "
                          f"{', '.join(_BUILDERS)}; got {source!r}")
    st = _read(cp, "structure", source)
    if source == SOURCE_MEASURED:
        if st["shapes_file"] is None:
            raise ConfigError("[structure] measured source needs shapes_file")
        shapes_file = path.parent / st["shapes_file"]
        # os.path.isfile gives False, not an OSError, for a name the file
        # system rejects (too long, for one).
        if not os.path.isfile(shapes_file):
            raise ConfigError(f"shapes file {shapes_file} does not exist")
        freqs, damping = st["frequencies_hz"], st["damping"]
        n_modes = len(_checked("structure", _measured_lists, freqs, damping)[0])
        structure = {"path": shapes_file, "frequencies_hz": freqs,
                     "damping": damping, "smooth": st["smooth"]}
    else:
        props = _checked("structure", BeamProperties, *(st[k] for k in (
            "length_m", "EI_Nm2", "mass_per_length_kgpm", "damping")))
        n_modes = st["n_modes"]
        size = "n_grid" if source == SOURCE_ANALYTIC else "n_elements"
        structure = {"props": props, "n_modes": n_modes, size: st[size]}
    material = _checked("material", PiezoMaterial,
                        *_read(cp, "material", source).values())
    length, width, thickness, z_offset, host, x_start = _read(
        cp, "patch", source).values()
    if (z_offset is None) == (host is None):
        raise ConfigError(
            "[patch] needs exactly one of z_offset_m or host_thickness_m")
    make = PatchGeometry if host is None else PatchGeometry.on_host
    patch = _checked("patch", make, length, width, thickness,
                     z_offset if host is None else host, x_start)
    # The INI values themselves are kept, so outputs echo them bit for bit.
    freq, zeta, gains = _read(cp, "ppf", source).values()
    _checked("ppf", PPFConfig.from_hz, freq, zeta)
    an = _read(cp, "analysis", source)
    if an["n_patches"] != 1:
        raise ConfigError("[analysis] n_patches: place picks one patch; "
                          "scan.csv holds every candidate position")
    weights = (dict.fromkeys(range(1, n_modes + 1), 1.0)
               if an["mode_weights"] is None else an["mode_weights"])
    _checked("analysis", _check_mode_weights, weights, n_modes)
    return ProjectConfig(source, structure, material, patch, freq, zeta,
                         list(gains), an["band_hz"], an["n_freq"],
                         an["step_m"], weights)
