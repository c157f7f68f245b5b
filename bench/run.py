"""Benchmark of cavitytd: CQ time solves and a frequency sweep, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--save FILE]

Each workload is one `cavity-td` command on a refined reference scene.  The
benchmark generates the config from the seed into a temporary directory
under `.bench_tmp/` in the checkout, runs `cavitytd.cli.main` on it in a
fresh child process (bench/child.py) with `--threads 1` and BLAS/OpenMP
pinned to one thread, checks the outputs and deletes the directory.  Runs
are closed-loop: one process at a time.

--trace 0 repeats the untraced run until about S seconds are measured (at
least once) and times the set-up in separate fresh processes; it reports
the end-to-end metrics of BENCHMARK.json as medians.  --trace 1 makes one
untraced and one traced run (spans from bench/tracer.py) and reports the
per-layer metrics plus the tracing overhead.  `--workload all` runs every
workload both ways and prints every metric; --save writes that record,
with provenance, the span-to-metric mapping and the predictions, as JSON.

A run fails if its process exits non-zero, if its outputs are malformed,
or, at the default seed, if they differ from bench/reference/ by more than
the workload's stated tolerance.  Manifest checks that read false are
counted in `checks_failed`; only the ones listed as known findings for the
workload are allowed.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

`--write-reference` regenerates bench/reference/<workload>.json from the
default seed; it is for changes to the benchmark itself, not to cavitytd.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Whole-invocation budget per workload and mode, below the 180 s limit.
BUDGET_S = 170.0
PINNED_THREADS = {
    var: "1" for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

sys.path.insert(0, str(BENCH))
from tracer import LAYER_METRICS  # noqa: E402

# Per-layer metrics that come from the run's outputs rather than its spans.
OUTPUT_LAYER_METRICS = ("diagnostics.checks_failed",)

# The shipped reference_three / reference_two scenes; each workload refines
# one of them and the seed moves the pulse, probes and sweep frequencies.
_THREE = {
    "scene": {
        "eps0": 1.0, "mu0": 1.0, "polarization": "TE",
        "cavities": [
            {"aperture": [-1.7, -0.9], "depth": 0.9, "epsilon": 1.0, "mu": 1.0},
            {"aperture": [-0.5, 0.5], "depth": 1.3, "epsilon": 1.0, "mu": 1.0},
            {"aperture": [0.9, 1.6], "depth": 0.7, "epsilon": 1.0, "mu": 1.0},
        ],
    },
    "trace": {"L": 8.0},
    "incident": {
        "profile": {"kind": "gaussian-pulse", "width": 0.75, "amplitude": 1.0},
        "theta": 1.5707963267948966,
    },
    "scheme": {"dt": 0.125, "contour_tol": 1e-20},
    "seed": 20240803,
}
_TWO = {
    "scene": {
        "eps0": 1.0, "mu0": 1.0, "polarization": "TE",
        "cavities": [
            {"aperture": [-1.5, -0.5], "depth": 1.3, "epsilon": 1.0, "mu": 1.0},
            {"aperture": [0.5, 1.5], "depth": 0.9,
             "epsilon": "1.5 + 0.25*sin(pi*x)", "mu": 1.0},
        ],
    },
    "trace": {"L": 6.0},
    "incident": {
        "profile": {"kind": "gaussian-pulse", "width": 0.75, "amplitude": 1.0},
        "theta": 1.2566370614359172,
    },
    "scheme": {"dt": 0.125, "contour_tol": 1e-20},
    "seed": 20240802,
}
SWEEP_BAND = (0.25, 8.0)


@dataclass(frozen=True)
class Workload:
    command: str
    base: dict
    h: float
    N: int
    steps: int = 128
    snapshot_every: int = 0
    sweep_count: int = 20
    # Manifest checks known to read false on this workload, with the reason.
    known_failing: dict = field(default_factory=dict)
    # Largest |output - reference| allowed, relative to the column's peak.
    rtol: float = 1e-8


WORKLOADS = {
    # Late-time probe values carry round-off amplified by lambda^-n; a change
    # of LU ordering alone moves them by 1.1e-5 of their peak.
    "cq-many-nodes": Workload(
        "solve-time", _THREE, h=0.025, N=512, steps=512, snapshot_every=128,
        known_failing={"energy-dissipation": (
            "late-time round-off, amplified by lambda^-n over 512 steps at "
            "contour_tol 1e-20, sits above the check's 1e-13 energy floor "
            "(violation 0.438 on the shipped reference_three pulse)")},
        rtol=1e-4,
    ),
    "cq-fine-mesh": Workload(
        "solve-time", _THREE, h=0.0125, N=1024, steps=96, snapshot_every=24, rtol=1e-4,
    ),
    "freq-sweep": Workload("solve-freq", _TWO, h=0.025, N=512, sweep_count=192),
}

REFERENCE_TABLES = {
    "solve-time": ("probes.csv", "energy.csv"),
    "solve-freq": ("estimate_report.csv",),
}

# Which end-to-end metric each layer metric should move, and where.
PREDICTIONS = [
    {"layer_metrics": ["fem.factorize_s", "fem.lu_nnz_max", "fem.lu_nnz_sum"],
     "moves": "wall_s", "most_on": ["cq-fine-mesh", "cq-many-nodes"],
     "little_on": ["freq-sweep"]},
    {"layer_metrics": ["fem.build_s", "trace.apply_B_s", "cq.self_s"],
     "moves": "wall_s", "most_on": ["cq-many-nodes"], "little_on": ["freq-sweep"]},
    {"layer_metrics": ["freq.lu_bytes_held", "freq.operator_hits",
                       "freq.operator_calls"],
     "moves": "peak_rss_mb", "most_on": ["cq-many-nodes", "freq-sweep"],
     "little_on": []},
    {"layer_metrics": ["io.csv_s"], "moves": "wall_s", "most_on": ["freq-sweep"],
     "little_on": ["cq-many-nodes", "cq-fine-mesh"]},
    {"layer_metrics": ["io.vtk_s"], "moves": "wall_s", "most_on": ["cq-fine-mesh"],
     "little_on": ["freq-sweep"]},
    {"layer_metrics": ["scene.mesh_s", "fem.assemble_s", "fem.assemble_calls"],
     "moves": "setup_s", "most_on": ["cq-fine-mesh"], "little_on": []},
    {"layer_metrics": ["diagnostics.energy_s", "diagnostics.stability_s",
                       "diagnostics.apriori_s", "diagnostics.estimate_s",
                       "incident.series_s", "incident.freq_data_s"],
     "moves": "wall_s", "most_on": ["cq-many-nodes"], "little_on": ["freq-sweep"],
     "note": "about 2% of wall_s on cq-many-nodes"},
]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_config(name: str, seed: int) -> dict:
    """The workload's config for this seed; mesh, N, steps and counts are fixed."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    cfg = copy.deepcopy(w.base)
    cfg["mesh"] = {"h": w.h}
    cfg["trace"]["N"] = w.N
    cfg["scheme"]["steps"] = w.steps
    cfg["snapshots"] = {"every": w.snapshot_every}
    profile = cfg["incident"]["profile"]
    # A centre of at least 7 widths keeps the pulse at rest at t = 0.
    profile["center"] = 7.0 * profile["width"] + rng.uniform(0.0, 1.5)
    cfg["probes"] = [
        [a + (b - a) * rng.uniform(0.15, 0.85), -cav["depth"] * rng.uniform(0.15, 0.85)]
        for cav in cfg["scene"]["cavities"]
        for a, b in [cav["aperture"]]
    ]
    lo, hi = SWEEP_BAND
    s_values = sorted(lo * (hi / lo) ** rng.random() for _ in range(w.sweep_count))
    cfg["sweep"] = {"s_values": [[s, 0.0] for s in s_values]}
    return cfg


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def read_table(path: Path) -> tuple[str, list[list[float]]]:
    """Header line (probe labels hold commas) and the numeric rows of a CSV."""
    with open(path, newline="", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        rows = [[float(v) for v in row] for row in csv.reader(f)]
    return header, rows


def _columns(rows: list[list[float]]) -> list[list[float]]:
    return [list(col) for col in zip(*rows)]


def _finite(rows: list[list[float]]) -> bool:
    return all(math.isfinite(v) for row in rows for v in row)


def table_mismatch(got, ref, rtol: float) -> str | None:
    (g_head, g_rows), (r_head, r_rows) = got, ref
    if g_head != r_head or len(g_rows) != len(r_rows):
        return f"{len(g_rows)} rows of {g_head!r}, expected {len(r_rows)} of {r_head!r}"
    for j, (g, r) in enumerate(zip(_columns(g_rows), _columns(r_rows))):
        peak = max(abs(v) for v in r) or 1.0
        err = max(abs(a - b) for a, b in zip(g, r)) / peak
        if not err <= rtol:
            return f"column {j} differs by {err:.3e} of its peak (tolerance {rtol:g})"
    return None


def _check_time_outputs(w: Workload, cfg: dict, out: Path) -> list[str]:
    problems = []
    n1 = w.steps + 1
    dt = cfg["scheme"]["dt"]
    _, rows = read_table(out / "probes.csv")
    if len(rows) != n1 or any(len(row) != 1 + len(cfg["probes"]) for row in rows):
        problems.append(f"probes.csv has {len(rows)} rows, expected {n1}")
    elif not _finite(rows):
        problems.append("probes.csv holds a non-finite value")
    elif any(abs(row[0] - n * dt) > 1e-9 for n, row in enumerate(rows)):
        problems.append("probes.csv time column is not n*dt")
    _, rows = read_table(out / "energy.csv")
    if len(rows) != n1:
        problems.append(f"energy.csv has {len(rows)} rows, expected {n1}")
    elif not _finite(rows):
        problems.append("energy.csv holds a non-finite value")
    else:
        total, kinetic, potential = _columns(rows)[1:4]
        peak = max(total)
        if not peak > 0.0 or min(kinetic + potential) < -1e-12 * peak:
            problems.append("energy.csv has a non-positive energy")
        if any(abs(t - k - p) > 1e-12 * peak for t, k, p in zip(total, kinetic, potential)):
            problems.append("energy.csv total is not kinetic + potential")
    for n in range(0, n1, w.snapshot_every):
        snap = out / f"snapshot_{n:05d}.vtk"
        if not snap.is_file() or snap.stat().st_size == 0:
            problems.append(f"missing snapshot {snap.name}")
    return problems


def _check_freq_outputs(w: Workload, cfg: dict, out: Path) -> list[str]:
    problems = []
    s_values = [s for s, _ in cfg["sweep"]["s_values"]]
    _, rows = read_table(out / "estimate_report.csv")
    if len(rows) != len(s_values):
        return [f"estimate_report.csv has {len(rows)} rows, expected {len(s_values)}"]
    for s, (s1, s2, lhs, rhs, ratio) in zip(s_values, rows):
        if s1 != s or s2 != 0.0:
            problems.append(f"estimate row for s={s} reports s={s1}+{s2}j")
        elif not (lhs > 0.0 and rhs > 0.0 and math.isclose(ratio, lhs / rhs, rel_tol=1e-12)):
            problems.append(f"estimate row at s={s} is not lhs/rhs > 0")
    n_cav = len(cfg["scene"]["cavities"])
    written = list(out.glob("solution_s*_cavity*.csv"))
    if len(written) != len(s_values) * n_cav:
        problems.append(f"{len(written)} solution files, expected {len(s_values) * n_cav}")
    return problems


def check_run(name: str, cfg: dict, out: Path, seed: int) -> dict:
    """Verdicts on one finished run: problems, failing checks, mismatches."""
    w = WORKLOADS[name]
    verdict = {"problems": [], "checks_false": [], "mismatches": []}
    try:
        checks = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["checks"]
        verdict["checks_false"] = sorted(k for k, ok in checks.items() if not ok)
        check = _check_time_outputs if w.command == "solve-time" else _check_freq_outputs
        verdict["problems"] = check(w, cfg, out)
        if seed == DEFAULT_SEED:
            ref = json.loads((BENCH / "reference" / f"{name}.json").read_text("utf-8"))
            for table in REFERENCE_TABLES[w.command]:
                got = read_table(out / table)
                bad = table_mismatch(got, (ref[table]["header"], ref[table]["rows"]), w.rtol)
                if bad:
                    verdict["mismatches"].append(f"{table}: {bad}")
    except (OSError, ValueError, KeyError) as exc:
        verdict["problems"].append(f"unreadable outputs: {type(exc).__name__}: {exc}")
    return verdict


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def run_child(args: list[str], result: Path, deadline: float) -> dict:
    """Run bench/child.py once; the result dict carries its exit code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": "timed out"}
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stderr[-4000:])
        return {"rc": proc.returncode, "error": f"exit code {proc.returncode}"}
    data = json.loads(result.read_text(encoding="utf-8"))
    data["rc"] = proc.returncode
    return data


class WorkloadRun:
    """Runs of one workload at one seed inside one temporary directory."""

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.deadline = time.monotonic() + BUDGET_S
        self.cfg = make_config(name, seed)
        tmp_root = ROOT / ".bench_tmp"
        tmp_root.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.cfg, indent=1), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.unexpected_checks: set[str] = set()
        self.checks_failed = 0
        self.versions: dict = {}
        self.runs = self.setups = 0  # successful timed runs and set-ups
        self._k = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds stray files

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)

    def solve(self, mode: str) -> dict | None:
        """One `run` or `trace` child, checked; None if it failed."""
        self._k += 1
        out, result = self.dir / f"out{self._k}", self.dir / f"result{self._k}.json"
        self.attempted += 1
        w = WORKLOADS[self.name]
        data = run_child([mode, w.command, str(self.config), str(out), str(result)],
                         result, self.deadline)
        if data["rc"] != 0:
            self._fail(f"{mode}: {data['error']}")
            shutil.rmtree(out, ignore_errors=True)
            return None
        verdict = check_run(self.name, self.cfg, out, self.seed)
        shutil.rmtree(out, ignore_errors=True)
        self.versions = data["versions"]
        self.checks_failed = len(verdict["checks_false"]) + len(verdict["mismatches"])
        self.unexpected_checks |= set(verdict["checks_false"]) - set(w.known_failing)
        bad = verdict["problems"] + verdict["mismatches"]
        if bad:
            self._fail(f"{mode}: " + "; ".join(bad))
            return None
        return data

    def setup(self) -> float | None:
        self._k += 1
        result = self.dir / f"result{self._k}.json"
        self.attempted += 1
        data = run_child(["setup", str(self.config), str(result)], result, self.deadline)
        if data["rc"] != 0:
            self._fail(f"setup: {data['error']}")
            return None
        return data["setup_s"]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.unexpected_checks


def measure_end_to_end(name: str, seed: int, seconds: float) -> tuple[WorkloadRun, dict]:
    run = WorkloadRun(name, seed)
    try:
        runs, measured = [], 0.0
        while True:
            data = run.solve("run")
            if data is None:
                break
            runs.append(data)
            measured += data["wall_s"]
            # Stop once another run would overshoot the time asked for.
            if measured + 0.5 * data["wall_s"] >= seconds:
                break
        setups = []
        if runs:
            setups = [s for s in (run.setup() for _ in range(SETUP_REPEATS)) if s is not None]
        metrics = {}
        if runs and setups:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in runs),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            }
        run.runs, run.setups = len(runs), len(setups)
        return run, metrics
    finally:
        run.close()


def measure_layers(name: str, seed: int) -> tuple[WorkloadRun, dict, float | None]:
    run = WorkloadRun(name, seed)
    try:
        plain = run.solve("run")
        traced = run.solve("trace") if plain is not None else None
        if traced is None:
            return run, {}, None
        layers = dict(traced["layers"])
        layers["diagnostics.checks_failed"] = run.checks_failed
        return run, layers, traced["wall_s"] - plain["wall_s"]
    finally:
        run.close()


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def provenance(versions: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
    }


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def print_metrics(metrics: dict, section: str) -> None:
    units = _units(section)
    for key, value in metrics.items():
        label = " (computed: LU nnz x 20 B)" if key == "freq.lu_bytes_held" else ""
        print(f"  {key:<26} {value:>16.6g} {units[key]}{label}")


def report_end_to_end(name: str, run: WorkloadRun, metrics: dict) -> dict:
    w = WORKLOADS[name]
    print(f"{name} (seed {run.seed}, trace 0): {run.runs} run(s) of "
          f"{w.command}, {run.setups} set-ups")
    print_metrics(metrics, "end_to_end")
    known = ", ".join(sorted(w.known_failing)) or "none"
    print(f"  {'checks_failed':<26} {run.checks_failed:>16d} count "
          f"(known findings: {known})")
    _print_errors(run)
    return {"end_to_end": metrics, "checks_failed": run.checks_failed}


def report_layers(name: str, run: WorkloadRun, layers: dict, overhead: float | None) -> dict:
    print(f"{name} (seed {run.seed}, trace 1): one untraced and one traced run")
    print_metrics(layers, "per_layer")
    if overhead is not None:
        print(f"  {'tracing_overhead_s':<26} {overhead:>16.6g} s (traced minus untraced wall_s)")
    _print_errors(run)
    return {"per_layer": layers, "tracing_overhead_s": overhead}


def _print_errors(run: WorkloadRun) -> None:
    for err in run.errors:
        print(f"  FAILED: {err}")
    if run.unexpected_checks:
        print(f"  FAILED: manifest checks read false: {sorted(run.unexpected_checks)}")


def write_reference(name: str) -> None:
    w = WORKLOADS[name]
    run = WorkloadRun(name, DEFAULT_SEED)
    try:
        out, result = run.dir / "out", run.dir / "result.json"
        data = run_child(["run", w.command, str(run.config), str(out), str(result)],
                         result, run.deadline)
        if data["rc"] != 0:
            raise SystemExit(f"{name}: reference run failed: {data['error']}")
        tables = {}
        for table in REFERENCE_TABLES[w.command]:
            header, rows = read_table(out / table)
            tables[table] = {"header": header, "rows": rows}
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": DEFAULT_SEED, **tables}) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    finally:
        run.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="with --workload all: write the record")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavitytd" / "__init__.py").is_file():
        print(f"cavitytd sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = {m["name"] for m in SPEC["per_layer"]}
    if declared != set(LAYER_METRICS) | set(OUTPUT_LAYER_METRICS):
        print("per-layer metrics of BENCHMARK.json and bench/tracer.py differ", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for name in names:
            write_reference(name)
        return 0
    modes = (0, 1) if args.workload == "all" else (args.trace,)

    record, totals, versions = {}, {"attempted": 0, "failed": 0, "correct": True}, {}
    for name in names:
        entry = record.setdefault(name, {"why": next(
            w["why"] for w in SPEC["workloads"] if w["name"] == name)})
        for mode in modes:
            if mode == 0:
                run, metrics = measure_end_to_end(name, args.seed, args.seconds)
                entry.update(report_end_to_end(name, run, metrics))
                complete = len(metrics) == len(SPEC["end_to_end"])
            else:
                run, layers, overhead = measure_layers(name, args.seed)
                entry.update(report_layers(name, run, layers, overhead))
                complete = bool(layers)
            versions = versions or run.versions
            totals["attempted"] += run.attempted
            totals["failed"] += run.failed
            totals["correct"] &= run.correct and complete

    prov = provenance(versions)
    print("provenance: " + ", ".join(f"{k} {v}" for k, v in prov.items()))
    if args.save:
        args.save.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "provenance": prov,
            "known_findings": {n: w.known_failing for n, w in WORKLOADS.items()},
            "span_metrics": {**LAYER_METRICS,
                             "diagnostics.checks_failed": "manifest checks reading false"},
            "predictions": PREDICTIONS, "workloads": record,
        }, indent=2) + "\n", encoding="utf-8")

    if len(names) == 1:
        section = "per_layer" if modes == (1,) else "end_to_end"
        values = record[names[0]].get(section, {})
    else:
        values = {f"{n}.{k}": v for n, e in record.items()
                  for part in ("end_to_end", "per_layer") for k, v in e.get(part, {}).items()}
    units = {**_units("end_to_end"), **_units("per_layer")}
    metrics = {k: {"value": v, "unit": units[k.split(".", 1)[1] if len(names) > 1 else k]}
               for k, v in values.items()}
    print(json.dumps({"correct": totals["correct"], "attempted": totals["attempted"],
                      "failed": totals["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
