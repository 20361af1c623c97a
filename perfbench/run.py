"""piezodamp benchmark: one closed-loop client runs design passes through the
real CLI, one subcommand process at a time, and checks every output.

    python3 perfbench/run.py --workload gripper --seed 1 --seconds 54 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: import time of a fresh
interpreter (``setup_s``), the wall time of a whole pass, and the largest
max-RSS of any subcommand process; the median wall time of each subcommand
process is printed on the line before the result. With
``--trace 1`` it reports the per-layer metrics of in-process passes instead
(see layers.py). The last stdout line is the JSON result; lines before it
give machine facts, defect counts and the first problems found.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 4
IMPORT_SAMPLES = 3


def _metric_key(sub: str) -> str:
    return sub.replace("-", "_")


def machine_facts() -> dict:
    blas_threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "libscipy_openblas*.so"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, fn):
                blas_threads = int(getattr(dll, fn)())
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba": (importlib.metadata.version("numba")
                  if importlib.util.find_spec("numba") else "absent"),
        "blas_threads": blas_threads,
    }


class Client:
    """Runs piezodamp subprocesses the way a user's shell does."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))

    def run(self, argv: list[str]):
        """(wall seconds, max RSS in MB, exit code, stderr tail)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.work,
                                    env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        tail = err_path.read_text(errors="replace")[-300:]
        return (wall, usage.ru_maxrss / 1024.0,
                os.waitstatus_to_exitcode(status), tail)

    def setup_time(self) -> float:
        wall, _, code, tail = self.run(["-c", "import piezodamp.cli"])
        if code != 0:
            raise SystemExit(f"import piezodamp.cli failed: {tail}")
        return wall


def argv_for(sub: str, project, out: Path) -> list[str]:
    argv = ["-c", str(project.config), "-o", str(out), sub]
    return argv + (project.analyze_args() if sub == "analyze" else [])


def file_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.verdicts: dict[str, list[str]] = {}
        self.defects: dict[str, int] | None = None

    def record(self, out: Path, codes: dict, exp) -> None:
        """Check one pass: exit codes, oracles, and byte identity with the
        first pass. Files identical to the first pass's keep its verdict, so
        only the first pass and any pass that differs are checked in full."""
        hashes = file_hashes(out)
        if self.reference is None:
            self.reference = hashes
        changed = {checks.owner(name)
                   for name in set(hashes) | set(self.reference)
                   if hashes.get(name) != self.reference.get(name)}
        ran = [s for s in checks.SUBCOMMANDS if codes.get(s) == 0
               and (s in changed or s not in self.verdicts)]
        problems, defects = checks.check_pass(out, exp, ran)
        if self.defects is None:
            self.defects = defects
        for sub in ran:
            self.verdicts.setdefault(sub, problems[sub])
        for sub, code in codes.items():
            found = (problems.get(sub) if sub in ran
                     else list(self.verdicts.get(sub, [])))
            if code != 0:
                found = [f"exit code {code}"]
            if sub in changed:
                found.append("output differs from the first pass")
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems += [f"{sub}: {p}" for p in found]


def repeat(seconds: float, step, min_runs: int) -> None:
    """Call step(k) for k = 0, 1, ... at least min_runs times, then while
    another call is expected to end within ``seconds`` of the start."""
    deadline = time.perf_counter() + seconds
    costs: list[float] = []
    while len(costs) < min_runs or (
            time.perf_counter() + statistics.median(costs) <= deadline):
        t0 = time.perf_counter()
        step(len(costs))
        costs.append(time.perf_counter() - t0)


def end_to_end(project, work: Path, seconds: float):
    client = Client(work)
    exp = checks.Expected(project)
    ledger = Ledger()
    setup = statistics.median(client.setup_time()
                              for _ in range(SETUP_SAMPLES))
    passes: list[dict] = []

    def design_pass(k: int) -> None:
        out = work / f"pass{k}"
        out.mkdir()
        walls, codes, rss = {}, {}, []
        t0 = time.perf_counter()
        for sub in checks.SUBCOMMANDS:
            wall, peak, code, tail = client.run(
                ["-m", "piezodamp"] + argv_for(sub, project, out))
            walls[sub], codes[sub] = wall, code
            rss.append(peak)
            if code != 0:
                ledger.problems.append(f"{sub}: {tail.strip()}")
        walls["pipeline"] = time.perf_counter() - t0
        walls["peak_rss_mb"] = max(rss)
        ledger.record(out, codes, exp)
        if k:
            shutil.rmtree(out)
        passes.append(walls)

    # Two passes at least, so byte identity between passes is checked.
    repeat(seconds, design_pass, 2)
    metrics = {"setup_s": setup,
               "pipeline_s": statistics.median(p["pipeline"] for p in passes),
               "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}
    # Reported, not gated: one ~1.3 s process varies by +-25 % on a shared
    # 2-vCPU machine, too much for a bound on medians of 3-4 passes.
    per_sub = {f"{_metric_key(s)}_s": {"value": statistics.median(
        p[s] for p in passes), "unit": "s"} for s in checks.SUBCOMMANDS}
    return metrics, ledger, {"passes": len(passes), "subcommands": per_sub}


def _in_process_pass(cli, project, out: Path, tracer=None):
    """Run the six subcommands through cli.main in this process; returns
    (wall seconds, {subcommand: exit code})."""
    codes = {}
    out.mkdir()
    t0 = time.perf_counter()
    for sub in checks.SUBCOMMANDS:
        span = (tracer.span(f"{_metric_key(sub)}.cli") if tracer
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(io.StringIO()):
            try:
                codes[sub] = cli.main(argv_for(sub, project, out))
            except Exception as exc:  # a crash is one failed operation
                codes[sub] = repr(exc)
    return time.perf_counter() - t0, codes


def output_volume(out: Path) -> tuple[int, int]:
    """Bytes written, and numeric fields in the data lines of all outputs."""
    n_bytes = n_values = 0
    for path in out.iterdir():
        text = path.read_text()
        n_bytes += len(text.encode())
        for line in text.splitlines():
            fields = line.split(",")
            try:
                float(fields[0])
            except ValueError:
                continue
            n_values += sum(1 for f in fields if f)
    return n_bytes, n_values


def traced(project, work: Path, seconds: float):
    import layers

    client = Client(work)
    exp = checks.Expected(project)
    ledger = Ledger()
    metrics = layers.import_split(sys.executable, client.env, work,
                                  IMPORT_SAMPLES)
    sys.path.insert(0, str(ROOT / "src"))
    from piezodamp import cli

    plain, traced_walls, tracers = [], [], []

    def pass_pair(k: int) -> None:
        wall, codes = _in_process_pass(cli, project, work / f"plain{k}")
        plain.append(wall)
        ledger.record(work / f"plain{k}", codes, exp)
        tracer = layers.Tracer()
        with layers.patched(tracer):
            wall, codes = _in_process_pass(cli, project, work / f"traced{k}",
                                           tracer)
        traced_walls.append(wall)
        tracers.append(tracer)
        ledger.record(work / f"traced{k}", codes, exp)
        if k:
            shutil.rmtree(work / f"plain{k}")
            shutil.rmtree(work / f"traced{k}")

    repeat(seconds, pass_pair, 1)
    per_pass = [layers.pass_metrics(t) for t in tracers]
    for key in per_pass[0]:
        metrics[key] = statistics.median(v[key] for v in per_pass)
    metrics.update(ledger.defects)
    metrics["cli.bytes_written"], metrics["cli.values_formatted"] = (
        output_volume(work / "traced0"))
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain))
    metrics.update(layers.kernel_scaling())
    shares = layers.shares(tracers[-1], metrics["import.total_s"])
    return metrics, ledger, {"passes": len(tracers),
                             "share_of_subcommand": shares}


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("flops"):
        return "flop"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in (ROOT / "src" / "piezodamp" / "cli.py",
                 ROOT / "fixtures" / "gripper" / "gripper.ini"):
        if not need.is_file():
            print(f"error: {need} not found; run from a piezodamp checkout",
                  file=sys.stderr)
            return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        project = workloads.make(args.workload, ROOT, work / "inputs",
                                 args.seed)
        measure = traced if args.trace else end_to_end
        metrics, ledger, info = measure(project, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps({"defects": ledger.defects, **info,
                      "problems": ledger.problems[:20]}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
