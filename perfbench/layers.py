"""Per-layer measurement: spans around piezodamp's public functions during an
in-process design pass, import time from ``python -X importtime``, and kernel
scaling probes.

Spans are recorded here, from outside the package: ``patched`` rebinds each
traced function in every ``piezodamp`` module that holds it (``from x import
f`` copies included) and restores the originals on exit. A span's self time
is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

# Span name -> (module, attribute); "Class.method" patches the class.
SPANS = {
    "config.load_config": ("piezodamp.config", "load_config"),
    "modal.build_model": ("piezodamp.config", "ProjectConfig.build_model"),
    "piezo.coupling_factor": ("piezodamp.piezo", "coupling_factor"),
    "placement.scan_objective": ("piezodamp.placement", "scan_objective"),
    "placement.optimize_placement": ("piezodamp.placement",
                                     "optimize_placement"),
    "ppf.build_plant": ("piezodamp.ppf", "build_plant"),
    "ppf.critical_gain": ("piezodamp.ppf", "critical_gain"),
    "ppf.close_loop": ("piezodamp.ppf", "close_loop"),
    "ppf.stability": ("piezodamp.ppf", "stability"),
    "frf.gain_sweep": ("piezodamp.frf", "gain_sweep"),
    "frf.frf_of": ("piezodamp.frf", "frf_of"),
    "frf.bode_table": ("piezodamp.frf", "bode_table"),
    "frf.load_frf_csv": ("piezodamp.frf", "load_frf_csv"),
    "frf.find_peaks": ("piezodamp.frf", "find_peaks"),
    "frf.half_power_damping": ("piezodamp.frf", "half_power_damping"),
    "kernels.frf_solve": ("piezodamp._kernels", "frf_solve"),
    "kernels.delta_theta_scan": ("piezodamp._kernels", "delta_theta_scan"),
}


class Tracer:
    """Spans kept in memory: [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct_responses: set[bytes] = set()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result
        return traced

    def _count(self, name, args, result) -> None:
        """Counts taken at the same boundaries as the spans."""
        c = self.counts
        if name == "kernels.frf_solve":
            n, points = args[0].shape[0], len(args[4])
            c["kernels.frf_solve_states"] = max(c["kernels.frf_solve_states"], n)
            # Computed, not counted: per point one complex LU factorization
            # and two triangular solves, 8 real flops per complex multiply-add.
            c["kernels.frf_solve_flops"] += points * 8 * (
                2 * n ** 3 / 3 + 2 * n ** 2)
        elif name == "frf.frf_of":
            sys_, freqs = args[0], np.asarray(args[1])
            c["frf.points_solved"] += freqs.size
            key = hashlib.sha256()
            for arr in (sys_.A, sys_.B, sys_.C, sys_.D, freqs):
                key.update(np.ascontiguousarray(arr).tobytes())
            self.distinct_responses.add(key.digest())
        elif name == "placement.scan_objective":
            c["placement.candidates"] += result.x_starts.size
        elif name == "frf.load_frf_csv":
            c["frf.rows_parsed"] += result.freqs_hz.size

    def self_times(self):
        """(name, top-level ancestor name, self seconds) per span."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = []
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            top = i
            while self.spans[top][1] is not None:
                top = self.spans[top][1]
            out.append((name, self.spans[top][0], t1 - t0 - child[i]))
        return out


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time and calls per span, summed over one traced pass; the
    subcommand spans ("<sub>.cli") report self time only."""
    values = dict.fromkeys([f"{n}_s" for n in SPANS]
                           + [f"{n}_calls" for n in SPANS], 0.0)
    for name, _, self_s in tracer.self_times():
        if name.endswith(".cli"):
            values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + self_s
        else:
            values[f"{name}_s"] += self_s
            values[f"{name}_calls"] += 1
    for key in ("kernels.frf_solve_states", "kernels.frf_solve_flops",
                "frf.points_solved", "placement.candidates", "frf.rows_parsed"):
        values[key] = tracer.counts[key]
    calls = values["frf.frf_of_calls"]
    values["frf.solve_useful_ratio"] = (
        len(tracer.distinct_responses) / calls if calls else 0.0)
    return values


def shares(tracer: Tracer, import_s: float) -> dict[str, dict[str, float]]:
    """Per subcommand, the share of import and of each layer's self time,
    with import measured from outside and the rest from one traced pass."""
    split: dict[str, dict[str, float]] = {}
    for name, top, self_s in tracer.self_times():
        parts = split.setdefault(top[:-len(".cli")], {"import": import_s})
        layer = "cli" if name == top else name
        parts[layer] = parts.get(layer, 0.0) + self_s
    return {sub: {k: round(v / sum(parts.values()), 4)
                  for k, v in sorted(parts.items(), key=lambda kv: -kv[1])}
            for sub, parts in split.items()}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls, meth = attr.split(".")
        owner = getattr(owner, cls)
        attr = meth
    return owner, attr


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Rebind every traced function in every loaded piezodamp module."""
    saved = []
    try:
        for name, (module, attr) in SPANS.items():
            owner, attr = _resolve(module, attr)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            targets = [(owner, attr)]
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("piezodamp") and mod is not owner:
                    targets += [(mod, k) for k, v in vars(mod).items()
                                if v is original]
            for obj, key in targets:
                saved.append((obj, key, original))
                setattr(obj, key, wrapper)
        yield tracer
    finally:
        for obj, key, original in reversed(saved):
            setattr(obj, key, original)


def import_split(python: str, env: dict, cwd, runs: int) -> dict:
    """Median import time of piezodamp.cli, in total and for numpy and scipy,
    summed from the self times ``-X importtime`` prints."""
    samples = defaultdict(list)
    for _ in range(runs):
        err = subprocess.run([python, "-X", "importtime", "-c",
                              "import piezodamp.cli"], env=env, cwd=cwd,
                             capture_output=True, text=True, check=True).stderr
        total = defaultdict(float)
        for line in err.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            total["import.total_s"] += int(self_us) * 1e-6
            if top in ("numpy", "scipy"):
                total[f"import.{top}_s"] += int(self_us) * 1e-6
        for key in ("import.total_s", "import.numpy_s", "import.scipy_s"):
            samples[key].append(total[key])
    return {k: statistics.median(v) for k, v in samples.items()}


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_scaling() -> dict:
    """The public kernels called directly: frf_solve on 20001 points for a
    modal plant of 4, 20 and 40 states, delta_theta_scan on 8 modes."""
    from piezodamp import _kernels

    out = {}
    omegas = 2.0 * np.pi * np.linspace(5.0, 250.0, 20001)
    for n in (4, 20, 40):
        w = 2.0 * np.pi * np.linspace(10.0, 200.0, n // 2)
        A = np.zeros((n, n))
        i = np.arange(n // 2)
        A[2 * i, 2 * i + 1] = 1.0
        A[2 * i + 1, 2 * i] = -w * w
        A[2 * i + 1, 2 * i + 1] = -0.02 * w
        b = np.zeros(n)
        b[2 * i + 1] = 1.0
        c = np.zeros(n)
        c[2 * i] = 1.0
        out[f"kernels.frf_solve.n{n}_s"] = _median_time(
            lambda: _kernels.frf_solve(A, b, c, 0.0, omegas), 3)
    x = np.linspace(0.0, 1.0, 2001)
    theta = np.sin(np.outer(np.arange(1, 9), np.pi * x))
    for n in (2001, 20001):
        starts = np.linspace(0.0, 0.95, n)
        out[f"kernels.delta_theta_scan.c{n}_s"] = _median_time(
            lambda: _kernels.delta_theta_scan(x, theta, starts, 0.05), 9)
    return out
