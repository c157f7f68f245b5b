"""Batch command-line entry point.

Subcommands: validate, solve-freq, solve-time, sweep, mesh-export.  All
numerical tunables live in the JSON config document; flags only select
paths, thread counts and seeds.  Exit codes: 0 success, 1 run/property
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .cq import CqScheme, run_time_domain
from .errors import (
    CavityError,
    ConfigError,
    DomainError,
    MeshFailure,
    UnsupportedPolarization,
)
from .fem import assemble_all  # noqa: F401  (span seam of bench/tracer.py)
from .freq import FrequencySolver, estimate_report, save_solution_csv
from .incident import PlaneWave, WaveProfile, boundary_data_bundle, boundary_data_freq
from .io import RunManifest, probe_matrix, write_csv, write_vtk_snapshot
from .scene import (
    Scene,
    build_scene,
    check_mesh_size,
    config_block,
    finite_number,
    load_config,
    mesh_scene,
    save_mesh,
)
from .trace import (
    DtnSymbol,
    TraceGrid,
    TraceVector,
    apply_B,
    beta,
    dtn_dense,
    trace_norm,
)


# ---------------------------------------------------------------------------
# Config parse step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """What one command reads from its config; fields it does not read keep
    their defaults."""

    scene: Scene
    grid: TraceGrid | None = None
    h: float = 0.0
    wave: PlaneWave | None = None
    scheme: CqScheme | None = None
    s_values: tuple[complex, ...] = ()
    probes: tuple[tuple[float, float], ...] = ()
    snap_every: int = 0
    trials: int = 0
    seed: int | None = None


def _int(value) -> int:
    # A Python int stays exact (a seed may exceed 2**53); Infinity cannot reach int().
    return int(value) if isinstance(value, int) else int(finite_number(value))


def _parse_config(args) -> RunConfig:
    """Load args.config and build what the command reads from it.

    args.reads names the blocks it reads besides "scene"; the rest stay
    unread.  Runs before any meshing: every config-determined error leaves
    here as ConfigError, DomainError, MeshFailure or UnsupportedPolarization,
    which main() maps to exit 2.
    """
    config = load_config(args.config)
    reads = args.reads
    scene = build_scene(config)
    run = {}
    if "trace" in reads:
        with config_block("trace block"):
            block = config.get("trace", {})
            if "L" in block and "N" in block:
                L, N = finite_number(block["L"]), _int(block["N"])
                run["grid"] = TraceGrid(L, N, scene.apertures)
            else:
                min_samples = _int(block.get("min_samples", 32))
                run["grid"] = TraceGrid.for_apertures(scene.apertures, min_samples)
    if "mesh" in reads:
        with config_block("mesh block"):
            run["h"] = finite_number(config["mesh"]["h"])
        for cav in scene.cavities:
            check_mesh_size(cav, run["h"])
    if "incident" in reads:
        with config_block("incident block"):
            block = config["incident"]
            prof = block["profile"]
            tol = prof.get("causality_tol")
            profile = WaveProfile(
                kind=prof.get("kind", "gaussian-pulse"),
                center=finite_number(prof["center"]),
                width=finite_number(prof["width"]),
                amplitude=finite_number(prof.get("amplitude", 1.0)),
                causality_tol=None if tol is None else finite_number(tol),
            )
            theta = finite_number(block.get("theta", math.pi / 2))
            run["wave"] = PlaneWave(
                profile, theta, scene.eps0, scene.mu0, scene.polarization
            )
        if scene.polarization != "TE":
            raise UnsupportedPolarization("the solve commands support TE scenes only")
    if "scheme" in reads:
        with config_block("scheme block"):
            block = config["scheme"]
            run["scheme"] = CqScheme(
                dt=finite_number(block["dt"]),
                steps=_int(block["steps"]),
                contour_tol=finite_number(block.get("contour_tol", 1e-14)),
            )
    if "sweep" in reads:
        s_flag = getattr(args, "s", None)
        with config_block("--s list" if s_flag else "sweep block"):
            block = config.get("sweep", {})
            if s_flag:
                values = [complex(tok) for tok in s_flag.split(",") if tok.strip()]
            elif "s_values" in block:
                values = [complex(v[0], v[1]) for v in block["s_values"]]
            else:
                lo, hi = map(finite_number, block.get("s_re", (0.25, 8.0)))
                im = finite_number(block.get("s_im", 0.0))
                re = np.geomspace(lo, hi, _int(block.get("count", 20)))
                values = [complex(v, im) for v in re]
            values = [complex(finite_number(s.real), finite_number(s.imag)) for s in values]
        for s in values:
            if not s.real > 0.0:
                raise DomainError(f"sweep frequency {s} violates Re s > 0")
        run["s_values"] = tuple(values)
    if "probes" in reads:
        with config_block("probes list"):
            run["probes"] = tuple(
                (finite_number(x), finite_number(y)) for x, y in config.get("probes", [])
            )
        for x, y in run["probes"]:
            if not any(cav.contains(x, y) for cav in scene.cavities):
                raise ConfigError(f"probe point ({x}, {y}) lies outside every cavity")
    if "snapshots" in reads:
        with config_block("snapshots block"):
            run["snap_every"] = _int(config.get("snapshots", {}).get("every", 0))
    if "validate" in reads:
        with config_block("validate block"):
            run["trials"] = _int(config.get("validate", {}).get("trials", 1000))
        if run["trials"] < 1:
            raise ConfigError(f"validate.trials must be at least 1, got {run['trials']}")
        with config_block("seed"):
            run["seed"] = _int(config.get("seed", 0)) if args.seed is None else args.seed
    return RunConfig(scene=scene, **run)


def _out_dir(args) -> Path:
    path = Path(os.environ.get("CAVITY_TD_OUT", args.out))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(args, run: RunConfig, meshes=(), **fields) -> RunManifest:
    manifest = RunManifest(
        command=args.command,
        config_sha256=RunManifest.hash_config(args.config),
        mesh_stats=[
            {"vertices": m.n_vertices, "triangles": m.n_triangles,
             "aperture_nodes": int(m.aperture_nodes.size)}
            for m in meshes
        ],
        **fields,
    )
    if run.grid is not None:
        manifest.metrics["trace"] = {"L": run.grid.L, "N": run.grid.N}
    return manifest


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _trace_property_checks(grid: TraceGrid, sym: DtnSymbol, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # Branch invariant on random (xi, s).
    xi = rng.uniform(-50.0, 50.0, 10_000)
    s = 100.0 * (1.0 - rng.random(10_000)) + 1j * rng.uniform(-100.0, 100.0, 10_000)
    worst_re, worst_eq = -math.inf, 0.0
    for chunk in range(0, xi.size, 2000):
        xs, ss = xi[chunk : chunk + 2000], s[chunk : chunk + 2000]
        roots = np.array([beta(x, sv, sym.c) for x, sv in zip(xs, ss)])
        worst_re = max(worst_re, float(np.max(roots.real)))
        target = xs**2 + (ss / sym.c) ** 2
        worst_eq = max(
            worst_eq, float(np.max(np.abs(roots**2 - target) / np.abs(target)))
        )
    checks.append(
        {"name": "symbol-branch-re", "value": worst_re, "limit": 0.0,
         "passed": worst_re < 0.0}
    )
    checks.append(
        {"name": "symbol-branch-eq", "value": worst_eq, "limit": 1e-12,
         "passed": worst_eq <= 1e-12}
    )

    # Mode-wise symbol bound and operator continuity.
    worst_bound, worst_cont = -math.inf, -math.inf
    for _ in range(20):
        sv = complex(10.0 * (1.0 - rng.random()), rng.uniform(-10.0, 10.0))
        a = (sv.real**2 - sv.imag**2) / sym.c**2
        b = 2.0 * sv.real * sv.imag / sym.c**2
        const = max((a * a + b * b) ** 0.25, 1.0)
        bvals = beta(grid.xi, sv, sym.c)
        worst_bound = max(
            worst_bound,
            float(np.max(np.abs(bvals) / np.sqrt(1.0 + grid.xi**2)) - const),
        )
        for _ in range(5):
            u = TraceVector(rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N))
            lhs = trace_norm(apply_B(u, sv, grid, sym), -0.5, grid)
            rhs = const * trace_norm(u, 0.5, grid)
            worst_cont = max(worst_cont, lhs - rhs)
    checks.append(
        {"name": "symbol-bound", "value": worst_bound, "limit": 1e-9,
         "passed": worst_bound <= 1e-9}
    )
    checks.append(
        {"name": "operator-continuity", "value": worst_cont, "limit": 1e-9,
         "passed": worst_cont <= 1e-9}
    )

    # FFT path against the dense oracle (capped at the oracle's size limit).
    oracle_grid = grid if grid.N <= 1024 else TraceGrid(
        L=grid.L, N=1024, apertures=grid.apertures
    )
    dense = dtn_dense(oracle_grid, 1.0 + 2.0j, sym)
    worst_oracle = 0.0
    for _ in range(20):
        u = TraceVector(
            rng.standard_normal(oracle_grid.N) + 1j * rng.standard_normal(oracle_grid.N)
        )
        ref = dense @ u.values
        got = apply_B(u, 1.0 + 2.0j, oracle_grid, sym).values
        worst_oracle = max(
            worst_oracle, float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        )
    checks.append(
        {"name": "oracle-equivalence", "value": worst_oracle, "limit": 1e-10,
         "passed": worst_oracle <= 1e-10}
    )
    return checks


def cmd_validate(args) -> int:
    run = _parse_config(args)
    out = _out_dir(args)

    manifest = _manifest(args, run, seed=run.seed)
    sym = DtnSymbol(run.scene.c)
    t0 = time.perf_counter()
    checks = _trace_property_checks(run.grid, sym, run.seed)
    report = diagnostics.passivity_suite(
        run.grid, sym, trials=run.trials, seed=run.seed, mu0=run.scene.mu0
    )
    manifest.wall_times["suite"] = time.perf_counter() - t0

    for name, worst in report.min_defects.items():
        limit = -1e-12 if name != "time-domain" else -1e-10
        checks.append(
            {"name": f"passivity-{name}", "value": worst, "limit": limit,
             "passed": report.failures[name] == 0}
        )

    rows = [
        (c["name"], float(c["value"]), float(c["limit"]), str(c["passed"]))
        for c in checks
    ]
    report_path = out / "validate_report.csv"
    write_csv(report_path, ["check", "value", "limit", "passed"], rows)
    manifest.add_output(report_path)

    summary_path = out / "validate_summary.txt"
    with open(summary_path, "w", encoding="utf-8") as f:
        for c in checks:
            f.write(
                f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
                f"{c['value']:.3e} (limit {c['limit']:.1e})\n"
            )
        f.write(report.summary() + "\n")
    manifest.add_output(summary_path)

    manifest.checks = {c["name"]: bool(c["passed"]) for c in checks}
    manifest.write(out / "manifest.json")
    ok = manifest.passed()
    print(f"validate: {'PASS' if ok else 'FAIL'} ({len(checks)} checks)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# solve-freq / sweep
# ---------------------------------------------------------------------------

def cmd_freq(args) -> int:
    """solve-freq, or sweep: the same solves without the solution files."""
    run = _parse_config(args)
    meshes = mesh_scene(run.scene, run.h)
    out = _out_dir(args)

    manifest = _manifest(args, run, meshes)
    solver = FrequencySolver(run.scene, meshes, run.grid)
    t0 = time.perf_counter()

    def solve_one(s):
        data = boundary_data_freq(run.wave, run.grid, s)
        return solver.solve(s, data), data

    threads = max(1, args.threads)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            solved = list(pool.map(solve_one, run.s_values))
    else:
        solved = [solve_one(s) for s in run.s_values]

    # Solves may run concurrently; writing stays serialized and ordered.
    records = []
    for idx, (sol, data) in enumerate(solved):
        records.append(estimate_report(sol, data, run.grid, solver.fems))
        if args.command == "solve-freq":
            for j, mesh in enumerate(meshes):
                path = out / f"solution_s{idx:03d}_cavity{j}.csv"
                save_solution_csv(path, mesh, sol.fields[j])
                manifest.add_output(path)
    manifest.wall_times["solves"] = time.perf_counter() - t0

    table = out / "estimate_report.csv"
    write_csv(
        table,
        ["s1", "s2", "lhs", "rhs", "ratio"],
        [(r["s1"], r["s2"], r["lhs"], r["rhs"], r["ratio"]) for r in records],
    )
    manifest.add_output(table)
    ratios = [r["ratio"] for r in records if r["ratio"] > 0.0]
    if ratios:
        limit = diagnostics.PINNED_FREQ_RATIO_MAX * diagnostics.PIN_MARGIN
        manifest.record_check("estimate-band", "estimate_ratio_max", max(ratios), limit)
    manifest.write(out / "manifest.json")
    print(
        f"{manifest.command}: {len(run.s_values)} frequencies, "
        f"max ratio {max(ratios) if ratios else 0.0:.3f}"
    )
    # Exit reflects solver health only; the estimate band is report content.
    return 0


# ---------------------------------------------------------------------------
# solve-time
# ---------------------------------------------------------------------------

def cmd_solve_time(args) -> int:
    run = _parse_config(args)
    scene, grid, pw, scheme = run.scene, run.grid, run.wave, run.scheme
    meshes = mesh_scene(scene, run.h)
    with config_block("probes list"):  # safety net behind the parse step's check
        stencils = probe_matrix(meshes, run.probes)
    out = _out_dir(args)

    manifest = _manifest(args, run, meshes, scheme=scheme.serialize())
    t0 = time.perf_counter()
    sol = run_time_domain(scene, meshes, grid, pw, scheme, threads=args.threads)
    manifest.wall_times["time-solve"] = time.perf_counter() - t0
    manifest.metrics["max_residual"] = sol.max_residual
    manifest.metrics["worst_s"] = [sol.worst_s.real, sol.worst_s.imag]

    series = boundary_data_bundle(pw, grid, sol.times)
    et = diagnostics.energy(sol, meshes, scene, fems=sol.fems, series=series, grid=grid)
    energy_path = out / "energy.csv"
    diagnostics.save_energy_csv(energy_path, et)
    manifest.add_output(energy_path)

    t_star = diagnostics.shutoff_time(pw, grid)
    violation = diagnostics.dissipation_violation(et, t_star)
    manifest.record_check("energy-dissipation", "dissipation_violation", violation, 1e-8)

    stability = diagnostics.stability_check(sol, series, grid, meshes, scene, fems=sol.fems)
    apriori = diagnostics.apriori_check(sol, series, grid, meshes, scene, fems=sol.fems)
    report_path = out / "stability_report.csv"
    write_csv(
        report_path,
        ["check", "lhs", "rhs", "ratio", "passed"],
        [
            ("stability", stability.lhs, stability.rhs, stability.ratio,
             str(stability.passed)),
            ("apriori-linf", 0.0, 0.0, apriori.linf_ratio, "True"),
            ("apriori-l2", 0.0, 0.0, apriori.l2_ratio, "True"),
            ("dissipation-violation", violation, 1e-8, 0.0, str(violation <= 1e-8)),
        ],
    )
    manifest.add_output(report_path)
    limit = stability.pinned * diagnostics.PIN_MARGIN
    manifest.record_check("stability-ratio", "stability_ratio", stability.ratio, limit)

    if run.probes:
        probe_path = out / "probes.csv"
        header = ["t"] + [f"u(x={p[0]:g},y={p[1]:g})" for p in run.probes]
        rows = [
            [float(t)] + [float(w @ sol.fields[ci][n]) for ci, w in stencils]
            for n, t in enumerate(sol.times)
        ]
        write_csv(probe_path, header, rows)
        manifest.add_output(probe_path)

    if run.snap_every > 0:
        for n in range(0, sol.times.size, run.snap_every):
            snap = out / f"snapshot_{n:05d}.vtk"
            write_vtk_snapshot(snap, meshes, [f[n] for f in sol.fields])
            manifest.add_output(snap)

    manifest.record_check("causality", "initial_ratio", sol.initial_ratio, 1e-8)
    manifest.record_check("realness", "imag_residue", sol.imag_residue, 1e-10)
    manifest.write(out / "manifest.json")
    print(
        f"solve-time: {scheme.steps} steps, energy peak {et.total.max():.6g}, "
        f"dissipation violation {violation:.2e}"
    )
    # CausalityViolation and solver failures raise; property records are
    # report content and do not flip the exit status.
    return 0


# ---------------------------------------------------------------------------
# mesh-export
# ---------------------------------------------------------------------------

def cmd_mesh_export(args) -> int:
    run = _parse_config(args)
    meshes = mesh_scene(run.scene, run.h)
    out = _out_dir(args)
    manifest = _manifest(args, run, meshes)
    for j, mesh in enumerate(meshes):
        path = out / f"cavity{j}.mesh.txt"
        save_mesh(path, mesh)
        manifest.add_output(path)
    manifest.write(out / "manifest.json")
    print(f"mesh-export: {len(meshes)} meshes written to {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity-td",
        description="Time-domain multi-cavity scattering: batch solver and validator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command with the config blocks it reads besides "scene".
    for name, fn, reads in (
        ("validate", cmd_validate, ("trace", "validate")),
        ("solve-freq", cmd_freq, ("trace", "mesh", "incident", "sweep")),
        ("solve-time", cmd_solve_time,
         ("trace", "mesh", "incident", "scheme", "probes", "snapshots")),
        ("sweep", cmd_freq, ("trace", "mesh", "incident", "sweep")),
        ("mesh-export", cmd_mesh_export, ("mesh",)),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out", default="out", help="output directory "
                       "(env CAVITY_TD_OUT overrides)")
        if name in ("solve-freq", "solve-time", "sweep"):
            p.add_argument("--threads", type=int, default=1)
        if name == "validate":
            p.add_argument("--seed", type=int, default=None)
        if name == "solve-freq":
            p.add_argument("--s", default=None,
                           help="comma-separated complex frequencies, e.g. '1+0.5j,2'")
        p.set_defaults(handler=fn, reads=reads)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DomainError, MeshFailure, UnsupportedPolarization) as exc:
        # Everything the config document determines maps to exit 2.
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CavityError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
