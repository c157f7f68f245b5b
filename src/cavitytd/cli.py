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
from .scene import Scene, build_scene, load_config, mesh_scene, save_mesh
from .trace import (
    DtnSymbol,
    TraceGrid,
    TraceVector,
    apply_B,
    beta,
    dtn_dense,
    trace_norm,
)

_DEFAULT_SWEEP = {"s_re": [0.25, 8.0], "count": 20, "s_im": 0.0}


# ---------------------------------------------------------------------------
# Config helpers
# ---------------------------------------------------------------------------

def _grid_from_config(scene: Scene, cfg: dict) -> TraceGrid:
    block = cfg.get("trace", {})
    try:
        if "L" in block and "N" in block:
            return TraceGrid(
                L=float(block["L"]), N=int(block["N"]), apertures=scene.apertures
            )
        return TraceGrid.for_apertures(
            scene.apertures, min_samples=int(block.get("min_samples", 32))
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed trace block: {exc}") from exc


def _mesh_h(cfg: dict) -> float:
    try:
        return float(cfg["mesh"]["h"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config needs a mesh block with target h: {exc}") from exc


def _plane_wave_from_config(scene: Scene, cfg: dict) -> PlaneWave:
    try:
        block = cfg["incident"]
        prof = block["profile"]
        profile = WaveProfile(
            kind=prof.get("kind", "gaussian-pulse"),
            center=float(prof["center"]),
            width=float(prof["width"]),
            amplitude=float(prof.get("amplitude", 1.0)),
            causality_tol=prof.get("causality_tol"),
        )
        return PlaneWave(
            profile=profile,
            theta=float(block.get("theta", math.pi / 2)),
            eps0=scene.eps0,
            mu0=scene.mu0,
            polarization=scene.polarization,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed incident block: {exc}") from exc


def _scheme_from_config(cfg: dict) -> CqScheme:
    try:
        block = cfg["scheme"]
        return CqScheme(
            dt=float(block["dt"]),
            steps=int(block["steps"]),
            contour_tol=float(block.get("contour_tol", 1e-14)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scheme block: {exc}") from exc


def _sweep_values(cfg: dict, override: str | None = None) -> list[complex]:
    if override:
        try:
            values = [complex(tok) for tok in override.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --s list {override!r}: {exc}") from exc
    else:
        block = cfg.get("sweep", _DEFAULT_SWEEP)
        try:
            if "s_values" in block:
                values = [complex(v[0], v[1]) for v in block["s_values"]]
            else:
                lo, hi = block.get("s_re", _DEFAULT_SWEEP["s_re"])
                count = int(block.get("count", _DEFAULT_SWEEP["count"]))
                im = float(block.get("s_im", 0.0))
                values = [
                    complex(v, im) for v in np.geomspace(float(lo), float(hi), count)
                ]
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed sweep block: {exc}") from exc
    for s in values:
        if s.real <= 0.0:
            raise DomainError(f"sweep frequency {s} violates Re s > 0")
    return values


def _block_int(cfg: dict, block: str, key: str, default: int) -> int:
    try:
        return int(cfg.get(block, {}).get(key, default))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {block}.{key}: {exc}") from exc


def _probes_from_config(cfg: dict) -> list[tuple[float, float]]:
    try:
        return [(float(x), float(y)) for x, y in cfg.get("probes", [])]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed probes list: {exc}") from exc


def _out_dir(args) -> Path:
    out = os.environ.get("CAVITY_TD_OUT", args.out)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _mesh_stats(meshes) -> list[dict[str, int]]:
    return [
        {"vertices": m.n_vertices, "triangles": m.n_triangles,
         "aperture_nodes": int(m.aperture_nodes.size)}
        for m in meshes
    ]


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
    config = load_config(args.config)
    scene = build_scene(config)
    grid = _grid_from_config(scene, config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    trials = _block_int(config, "validate", "trials", 1000)
    if trials < 1:
        raise ConfigError(f"validate.trials must be at least 1, got {trials}")
    out = _out_dir(args)

    manifest = RunManifest(
        command="validate",
        config_sha256=RunManifest.hash_config(args.config),
        seed=seed,
    )
    sym = DtnSymbol(scene.c)
    t0 = time.perf_counter()
    checks = _trace_property_checks(grid, sym, seed)
    report = diagnostics.passivity_suite(grid, sym, trials=trials, seed=seed, mu0=scene.mu0)
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

def _freq_run(args, write_solutions: bool) -> int:
    config = load_config(args.config)
    scene = build_scene(config)
    grid = _grid_from_config(scene, config)
    pw = _plane_wave_from_config(scene, config)
    s_values = _sweep_values(config, getattr(args, "s", None))
    meshes = mesh_scene(scene, _mesh_h(config))
    out = _out_dir(args)

    manifest = RunManifest(
        command="solve-freq" if write_solutions else "sweep",
        config_sha256=RunManifest.hash_config(args.config),
        mesh_stats=_mesh_stats(meshes),
    )
    solver = FrequencySolver(scene, meshes, grid)
    t0 = time.perf_counter()

    def solve_one(s):
        data = boundary_data_freq(pw, grid, s)
        return solver.solve(s, data), data

    threads = max(1, args.threads)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            solved = list(pool.map(solve_one, s_values))
    else:
        solved = [solve_one(s) for s in s_values]

    # Solves may run concurrently; writing stays serialized and ordered.
    records = []
    for idx, (sol, data) in enumerate(solved):
        records.append(estimate_report(sol, data, grid, solver.fems))
        if write_solutions:
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
        manifest.checks["estimate-band"] = bool(
            max(ratios) <= diagnostics.PINNED_FREQ_RATIO_MAX * diagnostics.PIN_MARGIN
        )
    manifest.write(out / "manifest.json")
    print(
        f"{manifest.command}: {len(s_values)} frequencies, "
        f"max ratio {max(ratios) if ratios else 0.0:.3f}"
    )
    # Exit reflects solver health only; the estimate band is report content.
    return 0


def cmd_solve_freq(args) -> int:
    return _freq_run(args, write_solutions=True)


def cmd_sweep(args) -> int:
    return _freq_run(args, write_solutions=False)


# ---------------------------------------------------------------------------
# solve-time
# ---------------------------------------------------------------------------

def cmd_solve_time(args) -> int:
    config = load_config(args.config)
    scheme = _scheme_from_config(config)
    scene = build_scene(config)
    grid = _grid_from_config(scene, config)
    pw = _plane_wave_from_config(scene, config)
    probes = _probes_from_config(config)
    snap_every = _block_int(config, "snapshots", "every", 0)
    meshes = mesh_scene(scene, _mesh_h(config))
    try:
        stencils = probe_matrix(meshes, probes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args)

    manifest = RunManifest(
        command="solve-time",
        config_sha256=RunManifest.hash_config(args.config),
        scheme=scheme.serialize(),
        mesh_stats=_mesh_stats(meshes),
    )
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
    manifest.checks["energy-dissipation"] = bool(violation <= 1e-8)

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
    manifest.checks["stability-ratio"] = bool(stability.passed)

    if probes:
        probe_path = out / "probes.csv"
        header = ["t"] + [f"u(x={p[0]:g},y={p[1]:g})" for p in probes]
        rows = []
        for n, t in enumerate(sol.times):
            row = [float(t)]
            for ci, w in stencils:
                row.append(float(w @ sol.fields[ci][n]))
            rows.append(row)
        write_csv(probe_path, header, rows)
        manifest.add_output(probe_path)

    if snap_every > 0:
        for n in range(0, sol.times.size, snap_every):
            snap = out / f"snapshot_{n:05d}.vtk"
            write_vtk_snapshot(snap, meshes, [f[n] for f in sol.fields])
            manifest.add_output(snap)

    manifest.checks["causality"] = bool(sol.initial_ratio <= 1e-8)
    manifest.checks["realness"] = bool(sol.imag_residue <= 1e-10)
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
    config = load_config(args.config)
    scene = build_scene(config)
    meshes = mesh_scene(scene, _mesh_h(config))
    out = _out_dir(args)
    manifest = RunManifest(
        command="mesh-export",
        config_sha256=RunManifest.hash_config(args.config),
        mesh_stats=_mesh_stats(meshes),
    )
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
    for name, fn in (
        ("validate", cmd_validate),
        ("solve-freq", cmd_solve_freq),
        ("solve-time", cmd_solve_time),
        ("sweep", cmd_sweep),
        ("mesh-export", cmd_mesh_export),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out", default="out", help="output directory "
                       "(env CAVITY_TD_OUT overrides)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        if name == "solve-freq":
            p.add_argument("--s", default=None,
                           help="comma-separated complex frequencies, e.g. '1+0.5j,2'")
        p.set_defaults(handler=fn)
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
