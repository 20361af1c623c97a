"""Command line front end.

Subcommands: modes, coupling, place, ppf-design, sweep, analyze. All take a
project INI file via --config (analyze can run from an FRF file alone) and
write CSV results into --out-dir. Exit codes: 0 success, 1 validation or
data error, 2 numerical failure, 3 file system error. Floats in CSV files
and reports carry 9 significant digits.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .config import ProjectConfig, load_config
from .errors import (ConfigError, InvalidInputError, NumericalError,
                     PiezodampError)
from .frf import (bode_table, find_peaks, gain_sweep, half_power_damping,
                  load_frf_csv)
from .modal import SOURCE_MEASURED, TWO_PI
from .piezo import coupling_factor
from .placement import PlacementProblem, optimize_placement
from .ppf import (LinearSystem, PPFConfig, build_plant, critical_gain,
                  plant_system, ppf_controller)


def _fmt(v) -> str:
    return f"{float(v):.9g}"


def _write_csv(path: Path, header: list[str], rows,
               preamble: str = "") -> None:
    """Write rows of numbers under the header, each value as ``_fmt``
    formats it, with one ``%`` format per row. A row shorter than the header
    leaves its trailing fields empty."""
    n = len(header)
    row = ",".join(["%.9g"] * n) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(preamble + ",".join(header) + "\n")
        fh.writelines(row % r if len(r) == n else ",".join(["%.9g"] * len(r))
                      % r + "," * (n - len(r)) + "\n" for r in rows)


def write_state_space_csv(sys_: LinearSystem, path: Path) -> None:
    """Write A, B, C, D as labelled blocks: 'name,rows,cols' then the rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# state-space blocks: 'name,rows,cols' header then row values\n")
        for name, mat in (("A", sys_.A), ("B", sys_.B), ("C", sys_.C),
                          ("D", sys_.D)):
            fh.write(f"{name},{mat.shape[0]},{mat.shape[1]}\n")
            for row in mat:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _require_config(args) -> ProjectConfig:
    if not args.config:
        raise ConfigError("this command needs --config pointing to a project "
                          "INI file")
    return load_config(args.config)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _loop(cfg: ProjectConfig):
    """The plant over every mode of the configured model, and the filter."""
    model = cfg.build_model()
    plant = build_plant(model, cfg.patch, range(1, model.n_modes + 1))
    return plant, PPFConfig.from_hz(cfg.ppf_freq_hz, cfg.ppf_zeta)


def cmd_modes(args) -> int:
    """Build the configured modal model and export frequencies and shapes."""
    cfg = _require_config(args)
    out = _out_dir(args)
    model = cfg.build_model()
    numbers = range(1, model.n_modes + 1)
    _write_csv(out / "modes.csv",
               ["mode", "freq_hz", "omega_rad_s", "zeta", "modal_mass_kg"],
               [(k, m.freq_hz, m.omega, m.zeta, 1.0)
                for k, m in zip(numbers, model.modes)])
    header = (["x_m"] + [f"phi{k}" for k in numbers]
              + [f"theta{k}" for k in numbers])
    _write_csv(out / "shapes.csv", header, zip(*(
        c.tolist() for c in [model.grid] + [m.phi for m in model.modes]
        + [m.theta for m in model.modes])))
    _say(args, f"{model.source} model, {model.n_modes} modes on "
               f"{model.grid.size} points over {_fmt(model.length)} m")
    for k, m in zip(numbers, model.modes):
        _say(args, f"  mode {k}: {_fmt(m.freq_hz)} Hz, "
                   f"zeta {_fmt(m.zeta)}")
    _say(args, f"wrote {out / 'modes.csv'} and {out / 'shapes.csv'}")
    return 0


def cmd_coupling(args) -> int:
    """Coupling factor of every mode for the patch at its configured position."""
    cfg = _require_config(args)
    out = _out_dir(args)
    model = cfg.build_model()
    results = [coupling_factor(model, cfg.patch, cfg.material, k)
               for k in range(1, model.n_modes + 1)]
    _write_csv(out / "coupling.csv",
               ["mode", "freq_hz", "delta_theta_per_m", "K2", "f_open_hz",
                "relative"],
               [(r.mode_index, model.mode(r.mode_index).freq_hz,
                 r.delta_theta, r.k2, r.f_open_hz, r.relative)
                for r in results])
    _say(args, f"patch [{_fmt(cfg.patch.x_start)}, "
               f"{_fmt(cfg.patch.x_start + cfg.patch.length)}] m")
    for r in results:
        note = " (relative scale)" if r.relative else ""
        _say(args, f"  mode {r.mode_index}: K2 = {_fmt(r.k2)}, open-circuit "
                   f"{_fmt(r.f_open_hz)} Hz{note}")
    _say(args, f"wrote {out / 'coupling.csv'}")
    return 0


def cmd_place(args) -> int:
    """Scan candidate positions and pick the best patch placement."""
    cfg = _require_config(args)
    out = _out_dir(args)
    if cfg.placement_step <= 0.0:
        raise ConfigError("[analysis] step_m is required for the place command")
    model = cfg.build_model()
    problem = PlacementProblem(model, cfg.patch, cfg.material,
                               cfg.mode_weights, cfg.placement_step,
                               cfg.n_patches, cfg.min_gap)
    result = optimize_placement(problem)
    scan, rows = result.scan, result.rows
    header = (["x_start_m", "objective"]
              + [f"K2_mode{k}" for k in range(1, model.n_modes + 1)])
    table = np.column_stack([scan.x_starts, scan.objective, scan.k2])
    _write_csv(out / "scan.csv", header, map(tuple, table.tolist()))
    _write_csv(out / "placement.csv", header,
               map(tuple, table[rows].tolist()))
    if model.source == SOURCE_MEASURED:
        _say(args, "note: unit-peak shapes, coupling values are comparative only")
    _say(args, f"scanned {scan.x_starts.size} candidates, step "
               f"{_fmt(problem.step)} m")
    for pos in result.positions:
        _say(args, f"  patch at x_start = {_fmt(pos)} m")
    _say(args, f"total objective {_fmt(result.objective)}")
    _say(args, f"wrote {out / 'scan.csv'} and {out / 'placement.csv'}")
    return 0


def cmd_ppf_design(args) -> int:
    """Size the filter against the plant and report the critical gain."""
    cfg = _require_config(args)
    out = _out_dir(args)
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
    write_state_space_csv(ppf_controller(PPFConfig(filt.omega_f, filt.zeta_f,
                                                   1.0)),
                          out / "controller_ss.csv")
    _say(args, f"filter at {_fmt(cfg.ppf_freq_hz)} Hz, zeta "
               f"{_fmt(cfg.ppf_zeta)}")
    _say(args, f"critical gain {_fmt(gcrit)}")
    _say(args, f"wrote {out / 'ppf_summary.csv'}, {out / 'plant_modes.csv'}, "
               f"{out / 'plant_ss.csv'}, {out / 'controller_ss.csv'} "
               "(controller exported at unit gain)")
    return 0


def cmd_sweep(args) -> int:
    """Close the loop over the configured gains and report peak damping."""
    cfg = _require_config(args)
    out = _out_dir(args)
    if not cfg.gains:
        raise ConfigError("[ppf] gains is required for the sweep command")
    plant, filt = _loop(cfg)
    freqs = np.linspace(cfg.band_hz[0], cfg.band_hz[1], cfg.n_freq)
    rows = gain_sweep(plant, filt, cfg.gains, freqs_hz=freqs,
                      min_prominence_db=cfg.min_prominence_db)
    _write_csv(out / "sweep.csv",
               ["gain", "stable", "f_peak_hz", "Q", "zeta", "damping_pct"],
               [(r.gain, r.stable) if r.estimate is None else
                (r.gain, r.stable, r.estimate.f_peak, r.estimate.q_factor,
                 r.estimate.zeta, r.estimate.damping_pct) for r in rows])
    for k, row in enumerate(rows):
        if not row.stable:
            _say(args, f"  gain {_fmt(row.gain)}: unstable, no output written")
            continue
        resp = row.response
        mag_db, phase = bode_table(resp)
        _write_csv(out / f"bode_{k + 1:02d}.csv",
                   ["freq_hz", "mag_db", "phase_deg"],
                   zip(resp.freqs_hz.tolist(), mag_db.tolist(),
                       phase.tolist()),
                   preamble=f"# gain = {_fmt(row.gain)}\n")
        e = row.estimate
        if e is None:
            _say(args, f"  gain {_fmt(row.gain)}: no half-power estimate")
            continue
        _say(args, f"  gain {_fmt(row.gain)}: peak {_fmt(e.f_peak)} Hz, "
                   f"Q {_fmt(e.q_factor)}, damping {_fmt(e.damping_pct)} %")
    _say(args, f"wrote {out / 'sweep.csv'} and one Bode file per stable gain")
    return 0


def cmd_analyze(args) -> int:
    """Peak table (frequency, Q, damping) of a measured or simulated FRF CSV."""
    out = _out_dir(args)
    frf = load_frf_csv(args.frf)
    if args.band:
        try:
            lo, hi = (float(t) for t in args.band.split(","))
        except ValueError:  # not two numbers
            lo = hi = np.nan
        if not np.isfinite([lo, hi]).all():
            raise InvalidInputError("--band must look like 'lo,hi' in Hz")
        band = (lo, hi)
    elif args.config:
        band = load_config(args.config).band_hz
    else:
        raise InvalidInputError("analyze needs --band or a --config with an "
                                "[analysis] band_hz")
    prom = args.min_prominence_db
    peaks = find_peaks(frf, band, prom)
    if not peaks:
        raise InvalidInputError(
            f"no peaks with prominence >= {prom:g} dB found in "
            f"[{band[0]:g}, {band[1]:g}] Hz")
    rows = []
    for idx in peaks:
        e = half_power_damping(frf, idx)
        rows.append((e.f_peak, e.peak_mag, e.f_lo, e.f_hi, e.q_factor,
                     e.zeta, e.damping_pct))
        _say(args, f"  peak {_fmt(e.f_peak)} Hz: Q {_fmt(e.q_factor)}, "
                   f"damping {_fmt(e.damping_pct)} %")
    _write_csv(out / "analyze.csv",
               ["f_peak_hz", "peak_mag", "f_lo_hz", "f_hi_hz", "Q", "zeta",
                "damping_pct"], rows)
    _say(args, f"wrote {out / 'analyze.csv'}")
    return 0


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
    sub.add_parser("modes", parents=[shared],
                   help="export modal frequencies and shapes").set_defaults(
        func=cmd_modes)
    sub.add_parser("coupling", parents=[shared],
                   help="coupling factors at the configured patch position"
                   ).set_defaults(func=cmd_coupling)
    sub.add_parser("place", parents=[shared],
                   help="scan positions and place the patch").set_defaults(
        func=cmd_place)
    sub.add_parser("ppf-design", parents=[shared],
                   help="filter summary and critical gain").set_defaults(
        func=cmd_ppf_design)
    sub.add_parser("sweep", parents=[shared],
                   help="closed-loop damping over the configured gains"
                   ).set_defaults(func=cmd_sweep)
    an = sub.add_parser("analyze", parents=[shared],
                        help="peak table of an FRF CSV file")
    an.add_argument("--frf", required=True, help="FRF CSV file to analyze")
    an.add_argument("--band", default=None, help="frequency band 'lo,hi' in Hz")
    an.add_argument("--min-prominence-db", type=float, default=3.0,
                    help="peak prominence threshold in dB (default 3)")
    an.set_defaults(func=cmd_analyze)
    return parser


class _LevelPrefix(logging.Formatter):
    """``warning: message``, ``info: message``: the level in lower case."""

    def format(self, record: logging.LogRecord) -> str:
        return f"{record.levelname.lower()}: {super().format(record)}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except PiezodampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)


if __name__ == "__main__":
    sys.exit(main())
