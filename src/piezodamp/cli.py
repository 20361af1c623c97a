"""Command line front end.

Subcommands: modes, coupling, place, ppf-design, sweep, analyze. All take a
project INI file via --config (analyze can run from an FRF file alone) and
write CSV results into --out-dir, which is made only once the INI has
loaded. Exit codes: 0 success, 1 usage, validation or data error (an
input too large for memory too), 2 numerical failure, 3 file system error.
Floats in CSV files and reports carry 9 significant digits.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .config import ProjectConfig, load_config, parse_band
from .errors import (ConfigError, InvalidInputError, NumericalError,
                     PiezodampError)
from .frf import (bode_table, find_peaks, gain_sweep, half_power_damping,
                  load_frf_csv)
from .modal import SOURCE_MEASURED, TWO_PI
from .piezo import coupling_factor
from .placement import PlacementProblem, optimize_placement
from .ppf import (LinearSystem, PPFConfig, build_plant, critical_gain,
                  plant_system, ppf_controller)


# The one number format of CSV files and reports.
_FLOAT = "%.9g"


def _fmt(v) -> str:
    return _FLOAT % float(v)


# Rows formatted per ``%`` call: a few hundred kB of text at a time.
_BLOCK = 4096


def _write_csv(path: Path, header: list[str], rows,
               preamble: str = "") -> None:
    """Write rows of numbers under the header, each value as ``_fmt``
    formats it. ``rows`` is a 2-D array or a list of tuples; each block of
    up to ``_BLOCK`` rows is formatted by one ``%``. A tuple shorter than
    the header leaves its trailing fields empty."""
    n = len(header)
    full = ",".join([_FLOAT] * n) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(preamble + ",".join(header) + "\n")
        for i in range(0, len(rows), _BLOCK):
            block = rows[i:i + _BLOCK]
            if isinstance(block, np.ndarray):
                fmt, values = full * len(block), block.ravel().tolist()
            else:
                fmt = "".join(",".join([_FLOAT] * len(r)) + "," * (n - len(r))
                              + "\n" for r in block)
                values = [v for r in block for v in r]
            fh.write(fmt % tuple(values))


def write_state_space_csv(sys_: LinearSystem, path: Path) -> None:
    """Write A, B, C and the zero D as blocks: 'name,rows,cols', then rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# state-space blocks: 'name,rows,cols' header then row values\n")
        for name, mat in (("A", sys_.A), ("B", sys_.B), ("C", sys_.C)):
            rows, cols = mat.shape
            fh.write(f"{name},{rows},{cols}\n")
            fh.write((",".join([_FLOAT] * cols) + "\n") * rows
                     % tuple(mat.ravel().tolist()))
        fh.write("D,1,1\n0\n")


def _loop(cfg: ProjectConfig):
    """The plant over every mode of the configured model, and the filter."""
    plant = build_plant(cfg.build_model(), cfg.patch)
    return plant, PPFConfig.from_hz(cfg.ppf_freq_hz, cfg.ppf_zeta)


def cmd_modes(args, cfg: ProjectConfig, out: Path, say) -> None:
    """Build the configured modal model and export frequencies and shapes."""
    model = cfg.build_model()
    numbers = range(1, model.n_modes + 1)
    _write_csv(out / "modes.csv",
               ["mode", "freq_hz", "omega_rad_s", "zeta", "modal_mass_kg"],
               [(k, m.freq_hz, m.omega, m.zeta, 1.0)
                for k, m in zip(numbers, model.modes)])
    header = (["x_m"] + [f"phi{k}" for k in numbers]
              + [f"theta{k}" for k in numbers])
    _write_csv(out / "shapes.csv", header, np.column_stack(
        [model.grid] + [m.phi for m in model.modes]
        + [m.theta for m in model.modes]))
    say(f"{model.source} model, {model.n_modes} modes on "
        f"{model.grid.size} points over {_fmt(model.length)} m")
    for k, m in zip(numbers, model.modes):
        say(f"  mode {k}: {_fmt(m.freq_hz)} Hz, zeta {_fmt(m.zeta)}")
    say(f"wrote {out / 'modes.csv'} and {out / 'shapes.csv'}")


def cmd_coupling(args, cfg: ProjectConfig, out: Path, say) -> None:
    """Coupling factor of every mode for the patch at its configured position."""
    model = cfg.build_model()
    results = [coupling_factor(model, cfg.patch, cfg.material, k)
               for k in range(1, model.n_modes + 1)]
    _write_csv(out / "coupling.csv",
               ["mode", "freq_hz", "delta_theta_per_m", "K2", "f_open_hz",
                "relative"],
               [(r.mode_index, model.mode(r.mode_index).freq_hz,
                 r.delta_theta, r.k2, r.f_open_hz, r.relative)
                for r in results])
    say(f"patch [{_fmt(cfg.patch.x_start)}, "
        f"{_fmt(cfg.patch.x_start + cfg.patch.length)}] m")
    for r in results:
        note = " (relative scale)" if r.relative else ""
        say(f"  mode {r.mode_index}: K2 = {_fmt(r.k2)}, open-circuit "
            f"{_fmt(r.f_open_hz)} Hz{note}")
    say(f"wrote {out / 'coupling.csv'}")


def cmd_place(args, cfg: ProjectConfig, out: Path, say) -> None:
    """Scan candidate positions and pick the best patch placement."""
    if cfg.placement_step <= 0.0:
        raise ConfigError("[analysis] step_m is required for the place command")
    model = cfg.build_model()
    problem = PlacementProblem(model, cfg.patch, cfg.material,
                               cfg.mode_weights, cfg.placement_step)
    result = optimize_placement(problem)
    scan = result.scan
    header = (["x_start_m", "objective"]
              + [f"K2_mode{k}" for k in range(1, model.n_modes + 1)])
    table = np.column_stack([scan.x_starts, scan.objective, scan.k2])
    _write_csv(out / "scan.csv", header, table)
    _write_csv(out / "placement.csv", header, table[[result.row]])
    if model.source == SOURCE_MEASURED:
        say("note: unit-peak shapes, coupling values are comparative only")
    say(f"scanned {scan.x_starts.size} candidates, step "
        f"{_fmt(problem.step)} m")
    say(f"patch at x_start = {_fmt(result.positions[0])} m, "
        f"objective {_fmt(result.objective)}")
    say(f"wrote {out / 'scan.csv'} and {out / 'placement.csv'}")


def cmd_ppf_design(args, cfg: ProjectConfig, out: Path, say) -> None:
    """Size the filter against the plant and report the critical gain."""
    plant, filt = _loop(cfg)
    gcrit = critical_gain(plant, filt)
    _write_csv(out / "ppf_summary.csv",
               ["filter_freq_hz", "filter_zeta", "critical_gain"],
               [(cfg.ppf_freq_hz, cfg.ppf_zeta, gcrit)])
    _write_csv(out / "plant_modes.csv",
               ["mode", "freq_hz", "zeta", "influence"],
               [(i + 1, plant.omegas[i] / TWO_PI,
                 plant.zetas[i], plant.b[i]) for i in range(plant.n_modes)])
    write_state_space_csv(plant_system(plant), out / "plant_ss.csv")
    unit_gain = PPFConfig(filt.omega_f, filt.zeta_f, 1.0)
    write_state_space_csv(ppf_controller(unit_gain), out / "controller_ss.csv")
    say(f"filter at {_fmt(cfg.ppf_freq_hz)} Hz, zeta {_fmt(cfg.ppf_zeta)}")
    say(f"critical gain {_fmt(gcrit)}")
    say(f"wrote {out / 'ppf_summary.csv'}, {out / 'plant_modes.csv'}, "
        f"{out / 'plant_ss.csv'}, {out / 'controller_ss.csv'} "
        "(controller exported at unit gain)")


def cmd_sweep(args, cfg: ProjectConfig, out: Path, say) -> None:
    """Close the loop over the configured gains and report peak damping."""
    if not cfg.gains:
        raise ConfigError("[ppf] gains is required for the sweep command")
    plant, filt = _loop(cfg)
    freqs = np.linspace(cfg.band_hz[0], cfg.band_hz[1], cfg.n_freq)
    rows = gain_sweep(plant, filt, cfg.gains, freqs_hz=freqs)
    _write_csv(out / "sweep.csv",
               ["gain", "stable", "f_peak_hz", "Q", "zeta", "damping_pct"],
               [(r.gain, r.stable) if r.estimate is None else
                (r.gain, r.stable, r.estimate.f_peak, r.estimate.q_factor,
                 r.estimate.zeta, r.estimate.damping_pct) for r in rows])
    for k, row in enumerate(rows):
        if not row.stable:
            say(f"  gain {_fmt(row.gain)}: unstable, no output written")
            continue
        resp = row.response
        mag_db, phase = bode_table(resp)
        _write_csv(out / f"bode_{k + 1:02d}.csv",
                   ["freq_hz", "mag_db", "phase_deg"],
                   np.column_stack([resp.freqs_hz, mag_db, phase]),
                   preamble=f"# gain = {_fmt(row.gain)}\n")
        e = row.estimate
        if e is None:
            say(f"  gain {_fmt(row.gain)}: no half-power estimate")
            continue
        say(f"  gain {_fmt(row.gain)}: peak {_fmt(e.f_peak)} Hz, "
            f"Q {_fmt(e.q_factor)}, damping {_fmt(e.damping_pct)} %")
    say(f"wrote {out / 'sweep.csv'} and one Bode file per stable gain")


def cmd_analyze(args, cfg: ProjectConfig | None, out: Path, say) -> None:
    """Peak table (frequency, Q, damping) of a measured or simulated FRF CSV."""
    if args.band:
        band = parse_band(args.band, "--band")
    elif cfg is not None:
        band = cfg.band_hz
    else:
        raise InvalidInputError("analyze needs --band or a --config with an "
                                "[analysis] band_hz")
    frf = load_frf_csv(args.frf)
    peaks = find_peaks(frf, band)
    if not peaks:
        raise InvalidInputError(
            f"no peaks in [{band[0]:g}, {band[1]:g}] Hz reach the half-power "
            "level")
    rows = []
    for idx in peaks:
        e = half_power_damping(frf, idx)
        rows.append((e.f_peak, e.peak_mag, e.f_lo, e.f_hi, e.q_factor,
                     e.zeta, e.damping_pct))
        say(f"  peak {_fmt(e.f_peak)} Hz: Q {_fmt(e.q_factor)}, "
            f"damping {_fmt(e.damping_pct)} %")
    _write_csv(out / "analyze.csv",
               ["f_peak_hz", "peak_mag", "f_lo_hz", "f_hi_hz", "Q", "zeta",
                "damping_pct"], rows)
    say(f"wrote {out / 'analyze.csv'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piezodamp",
        description="Design and simulation toolkit for piezoelectric patch "
                    "damping of flexible structures.")
    # Every flag goes before or after the subcommand; one given after it
    # overrides the same flag given before it.
    shared = argparse.ArgumentParser(add_help=False)
    for names, default, kw in (
            (("--config", "-c"), None, {"help": "project INI file"}),
            (("--out-dir", "-o"), ".",
             {"help": "directory for CSV outputs (default: current)"}),
            (("--quiet", "-q"), False,
             {"action": "store_true", "help": "suppress the stdout report"}),
            (("--verbose", "-v"), False,
             {"action": "store_true", "help": "log progress notes on stderr"})):
        parser.add_argument(*names, default=default, **kw)
        shared.add_argument(*names, default=argparse.SUPPRESS, **kw)
    sub = parser.add_subparsers(dest="command", required=True)
    # Built per call, so it looks up the cmd_* functions bound at that time.
    for name, func, text in (
            ("modes", cmd_modes, "export modal frequencies and shapes"),
            ("coupling", cmd_coupling,
             "coupling factors at the configured patch position"),
            ("place", cmd_place, "scan positions and place the patch"),
            ("ppf-design", cmd_ppf_design, "filter summary and critical gain"),
            ("sweep", cmd_sweep, "closed-loop damping over the configured gains"),
            ("analyze", cmd_analyze, "peak table of an FRF CSV file")):
        sub.add_parser(name, parents=[shared], help=text).set_defaults(func=func)
    an = sub.choices["analyze"]
    an.add_argument("--frf", required=True, help="FRF CSV file to analyze")
    an.add_argument("--band", default=None, help="frequency band 'lo,hi' in Hz")
    return parser


class _LevelPrefix(logging.Formatter):
    """``warning: message``, ``info: message``: the level in lower case."""

    def format(self, record: logging.LogRecord) -> str:
        return f"{record.levelname.lower()}: {super().format(record)}"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage or help
        return 0 if exc.code == 0 else 1
    # Bound to this call's stderr, so a caller that swaps sys.stderr between
    # calls gets the messages of each call.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.INFO if args.verbose else logging.WARNING)
    handler.setFormatter(_LevelPrefix())
    log = logging.getLogger("piezodamp")
    old_level = log.level
    log.addHandler(handler)
    if args.verbose:
        log.setLevel(logging.INFO)
    try:
        # Every command reads its INI before anything is written.
        if args.config:
            cfg = load_config(args.config)
        elif args.command == "analyze":
            cfg = None
        else:
            raise ConfigError("this command needs --config pointing to a "
                              "project INI file")
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, cfg, out, (lambda text: None) if args.quiet else print)
        return 0
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except PiezodampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input asked for more than the machine has
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)


if __name__ == "__main__":
    sys.exit(main())
