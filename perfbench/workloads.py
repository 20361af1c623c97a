"""Benchmark projects: the shipped gripper fixture and two seeded synthetic
projects, plus the facts the output checks compare against.

Every synthetic input is computed here with numpy alone (closed-form
cantilever roots and shapes, a modal sum for the FRF records), never with
piezodamp, so a change to the program cannot change what it is fed.

    python3 perfbench/workloads.py --workload measured_dense --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import configparser
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("gripper", "measured_dense", "beam_fe")

# Material and patch shared by all three projects (the gripper fixture's).
MATERIAL = {"d31_CpN": "-1.8e-10", "s11E_perPa": "1.6e-11",
            "epsT_FpM": "1.6e-8"}
PATCH_LENGTH = 0.05
PATCH = {"length_m": "0.05", "width_m": "0.02", "thickness_m": "0.0005",
         "host_thickness_m": "0.002", "x_start_m": "0.0"}

# beam_fe: a 1 m cantilever whose 20-mode plant has g* = 1/G(0) ~ 1.59e6, just
# above the program's 1e6 critical-gain search cap, with the loop on mode 4.
BEAM = {"length_m": 1.0, "EI_Nm2": 20.0, "mass_per_length_kgpm": 1.0,
        "damping": 0.01, "n_modes": 20, "n_elements": 800}


@dataclass
class Project:
    """One workload's inputs and the facts its outputs are checked against.

    ``peaks`` lists (freq_hz, zeta) of every resonance that generated the
    analyze record; ``band`` is the analyze band, or None to take the INI's.
    """

    name: str
    config: Path
    frf: Path
    band: str | None
    peaks: list[tuple[float, float]]

    def analyze_args(self) -> list[str]:
        args = ["--frf", str(self.frf)]
        return args + (["--band", self.band] if self.band else
                       ["--config", str(self.config)])


def cantilever_roots(n: int) -> np.ndarray:
    """First n roots of cos(x) cosh(x) = -1, by Newton on cos x + 1/cosh x."""
    i = np.arange(1, n + 1, dtype=float)
    x = (i - 0.5) * np.pi
    x[0] = 1.875
    for _ in range(60):
        f = np.cos(x) + 1.0 / np.cosh(x)
        df = -np.sin(x) - np.tanh(x) / np.cosh(x)
        x = x - f / df
    return x


def cantilever_frequencies_hz(length, ei, rho_a, n) -> np.ndarray:
    bl = cantilever_roots(n)
    return bl * bl * np.sqrt(ei / (rho_a * length ** 4)) / (2.0 * np.pi)


def _cantilever_shapes(x, length, n):
    """Clamped-free shapes and slopes (n, x.size), in the form that avoids
    the cosh/sinh cancellation of higher modes."""
    bl = cantilever_roots(n)[:, None]
    beta = bl / length
    denom = np.sinh(bl) + np.sin(bl)
    sigma = (np.cosh(bl) + np.cos(bl)) / denom
    one_minus_sigma = (np.sin(bl) - np.cos(bl) - np.exp(-bl)) / denom
    bx = beta * x[None, :]
    grow = 0.5 * one_minus_sigma * np.exp(bx)
    decay = 0.5 * (1.0 + sigma) * np.exp(-bx)
    phi = grow + decay - np.cos(bx) + sigma * np.sin(bx)
    theta = beta * (grow - decay + np.sin(bx) + sigma * np.cos(bx))
    return phi, theta


def modal_record(freqs_hz, peaks, rng) -> np.ndarray:
    """Receptance sum_i r_i / (w_i^2 - w^2 + 2j zeta_i w_i w).

    Residues scale with w_i, so the mass lines of the modes below a peak and
    the stiffness lines of those above it roughly cancel there, which keeps
    the half-power bias of the record small."""
    w = 2.0 * np.pi * np.asarray(freqs_hz)[:, None]
    wi = 2.0 * np.pi * np.array([p[0] for p in peaks])[None, :]
    zi = np.array([p[1] for p in peaks])[None, :]
    r = wi * rng.uniform(0.5, 1.5, size=wi.shape) * 1e-3
    return np.sum(r / (wi ** 2 - w ** 2 + 2j * zi * wi * w), axis=1)


def _write_record(path: Path, freqs, values) -> None:
    cols = np.column_stack([freqs, values.real, values.imag])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# synthetic receptance from a seeded modal sum\n")
        fh.write("freq_hz,real,imag\n")
        fh.write("\n".join(f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in cols))
        fh.write("\n")


def _write_ini(path: Path, sections: dict) -> None:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for name, values in sections.items():
        cp[name] = {k: str(v) for k, v in values.items()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cp.write(fh)


def _round6(values) -> np.ndarray:
    """Round to the 6 significant digits the INI files carry."""
    return np.array([float(f"{v:.6g}") for v in values])


def _g(values) -> str:
    return ", ".join(f"{v:.6g}" for v in values)


def gripper(root: Path, out: Path, seed: int) -> Project:
    """The shipped fixture; the seed is unused. Its FRF record was made with
    zeta = 1 % on both modes (the [structure] damping of its INI)."""
    src = root / "fixtures" / "gripper"
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(src / "gripper.ini", encoding="utf-8")
    freqs = [float(t) for t in cp["structure"]["frequencies_hz"].split(",")]
    zetas = [float(t) for t in cp["structure"]["damping"].split(",")]
    return Project("gripper", src / "gripper.ini", src / "gripper_frf.csv",
                   None, list(zip(freqs, zetas)))


def measured_dense(root: Path, out: Path, seed: int) -> Project:
    """8 measured modes at 12-260 Hz on a 2001-point line of 0.6 m, 1101
    placement candidates, 8 gains from about 3 % to 75 % of g* on 20001
    points, and a 400001-row record of the same 8 modes."""
    rng = np.random.default_rng([seed, 1])
    n, length = 8, 0.6
    log_f = np.linspace(np.log(12.0), np.log(260.0), n)
    step = log_f[1] - log_f[0]
    log_f[1:-1] += rng.uniform(-0.1, 0.1, n - 2) * step
    freqs = _round6(np.exp(log_f))
    zetas = _round6(rng.uniform(0.003, 0.007, n))
    x = np.linspace(0.0, length, 2001)
    phi, theta = _cantilever_shapes(x, length, n)
    peak = np.max(np.abs(phi), axis=1)
    x0 = float(PATCH["x_start_m"])
    ends = np.array([x0, x0 + PATCH_LENGTH])
    _, theta_ends = _cantilever_shapes(ends, length, n)
    dth = (theta_ends[:, 1] - theta_ends[:, 0]) / peak
    b = dth / np.max(np.abs(dth))
    g_star = 1.0 / np.sum(b ** 2 / (2.0 * np.pi * freqs) ** 2)
    gains = g_star * np.geomspace(0.03, 0.75, 8)
    target = 5
    f_t = freqs[target - 1]

    out.mkdir(parents=True, exist_ok=True)
    shapes = out / "shapes.csv"
    with open(shapes, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x_m," + ",".join(f"mode{i + 1}" for i in range(n)) + "\n")
        for k in range(x.size):
            fh.write(f"{x[k]:.10g}," + ",".join(f"{v:.10g}" for v in phi[:, k])
                     + "\n")
    record = out / "record.csv"
    f_rec = np.linspace(5.0, 300.0, 400001)
    peaks = list(zip(freqs.tolist(), zetas.tolist()))
    _write_record(record, f_rec, modal_record(f_rec, peaks, rng))
    config = out / "measured_dense.ini"
    _write_ini(config, {
        "structure": {"source": "measured", "shapes_file": shapes.name,
                      "frequencies_hz": _g(freqs), "damping": _g(zetas)},
        "material": MATERIAL, "patch": PATCH,
        "ppf": {"freq_hz": f"{f_t:.6g}", "zeta": 0.3, "gains": _g(gains)},
        "analysis": {"band_hz": _g([0.8 * f_t, 1.2 * f_t]), "n_freq": 20001,
                     "target_mode": target, "step_m": 0.0005},
    })
    return Project("measured_dense", config, record, "8,290", peaks)


def beam_fe(root: Path, out: Path, seed: int) -> Project:
    """800-element, 20-mode cantilever, 9501 placement candidates, a 42-state
    loop on mode 4, 6 gains on 20001 points, and a log-spaced record of the
    beam's 20 closed-form modes with seeded damping ratios."""
    rng = np.random.default_rng([seed, 2])
    freqs = cantilever_frequencies_hz(BEAM["length_m"], BEAM["EI_Nm2"],
                                      BEAM["mass_per_length_kgpm"],
                                      BEAM["n_modes"])
    zetas = _round6(rng.uniform(0.002, 0.005, freqs.size))
    # All below the 1e6 cap, so all below g*.
    gains = np.array([5e4, 1e5, 2e5, 4e5, 6e5, 8e5]) * rng.uniform(0.95, 1.05)
    f_t = 87.0

    out.mkdir(parents=True, exist_ok=True)
    record = out / "record.csv"
    f_rec = np.geomspace(1.5, 3200.0, 60001)
    peaks = list(zip(freqs.tolist(), zetas.tolist()))
    _write_record(record, f_rec, modal_record(f_rec, peaks, rng))
    config = out / "beam_fe.ini"
    _write_ini(config, {
        "structure": {"source": "finite_element", **BEAM},
        "material": MATERIAL, "patch": PATCH,
        "ppf": {"freq_hz": f_t, "zeta": 0.3, "gains": _g(gains)},
        "analysis": {"band_hz": _g([0.8 * f_t, 1.2 * f_t]), "n_freq": 20001,
                     "target_mode": 4, "step_m": 0.0001},
    })
    return Project("beam_fe", config, record, "2,3000", peaks)


def make(name: str, root: Path, out: Path, seed: int) -> Project:
    return {"gripper": gripper, "measured_dense": measured_dense,
            "beam_fe": beam_fe}[name](root, out, seed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    project = make(args.workload, root, args.out, args.seed)
    print(json.dumps({"config": str(project.config), "peaks": project.peaks}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
