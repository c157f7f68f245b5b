"""Batch command-line entry point.

Subcommands: validate, solve-freq, solve-time, sweep, mesh-export.  All
numerical tunables live in the JSON config document; flags only select
paths, and solve-freq's --s a frequency list in place of the config's
sweep.  Every command writes manifest.json, the one record of each
check's value, limit and verdict.  Exit codes: 0 success, 1 run/property
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .cq import MAX_MARCH_SAMPLES, REALNESS_LIMIT, CqScheme, run_time_domain
from .errors import CavityError, ConfigError, DomainError, MeshFailure
from .fem import ORDERING
from .fem import assemble_all  # noqa: F401  (span seam of bench/tracer.py)
from .freq import (
    MAX_SWEEP_FREQUENCIES,
    FrequencySolver,
    estimate_report,
    frequency_groups,
    save_solution_csv,
    solution_csv_format,
)
from .incident import (
    CAUSALITY_LIMIT,
    PlaneWave,
    WaveProfile,
    boundary_data_bundle,
    boundary_data_freq,
)
from .io import RunManifest, probe_matrix, vtk_mesh_part, write_csv, write_vtk_snapshot
from .scene import (
    Scene,
    build_scene,
    check_mesh_size,
    config_block,
    finite_number,
    load_config,
    mesh_scene,
    number_pair,
    read_bytes,
    save_mesh,
)
from .trace import DENSE_ORACLE_MAX, TraceGrid, apply_B, beta, dtn_dense


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


def _int(value) -> int:
    # A Python int stays exact, also beyond 2**53; Infinity cannot reach
    # int(), and a fractional number or a boolean is refused.
    exact = isinstance(value, int) and not isinstance(value, bool)
    x = value if exact else finite_number(value)
    if x != int(x):
        raise ValueError(f"{value!r} is not an integer")
    return int(x)


def _parse_config(args) -> RunConfig:
    """Load args.config and build what the command reads from it.

    The file is read once, so that a pipe works: args.config_sha256
    receives the SHA-256 of the bytes parsed, for the manifest.  args.reads
    names the blocks it reads besides "scene"; the rest stay unread.  Runs
    before any meshing: every config-determined error leaves here as
    ConfigError, DomainError or MeshFailure, which main() maps to exit 2.
    """
    raw = read_bytes(args.config, ConfigError, "config file")
    args.config_sha256 = hashlib.sha256(raw).hexdigest()
    config = load_config(args.config, raw)
    reads = args.reads
    scene = build_scene(config)
    run = {}
    if "trace" in reads:
        with config_block("trace block"):
            block = config.get("trace", {})
            explicit = [key for key in ("L", "N") if key in block]
            if explicit and (len(explicit) == 1 or "min_samples" in block):
                raise ConfigError(
                    "trace block: give both L and N, or neither (min_samples then "
                    f"sizes the grid); got {sorted(block)}"
                )
            if explicit:
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
            run["wave"] = PlaneWave(profile, theta, scene.eps0, scene.mu0)
            if args.command == "solve-time":
                # The march refuses a state at t = 0 that is not at rest; the
                # frequency commands keep the profile's rule at the origin.
                run["wave"].check_rest(scene.apertures)
    if "scheme" in reads:
        with config_block("scheme block"):
            block = config["scheme"]
            run["scheme"] = CqScheme(
                dt=finite_number(block["dt"]), steps=_int(block["steps"])
            )
        n_trace = run["grid"].N
        if (run["scheme"].steps + 1) * n_trace > MAX_MARCH_SAMPLES:
            raise ConfigError(
                f"scheme.steps may be at most {MAX_MARCH_SAMPLES // n_trace - 1} at trace "
                f"N={n_trace}: (steps + 1) * N may not exceed {MAX_MARCH_SAMPLES}"
            )
        # The pulse peak reaches the first aperture at center - max(c1*x).  A
        # march ending over four widths before that fails its causality
        # check; the shipped configs run once within about three widths.
        wave = run["wave"]
        arrival = wave.profile.center - max(wave.c1 * x for ap in scene.apertures for x in ap)
        horizon = run["scheme"].steps * run["scheme"].dt
        if not horizon >= arrival - 4.0 * wave.profile.width:
            raise ConfigError(
                f"scheme: the horizon steps*dt = {horizon:g} ends more than four pulse widths "
                f"before the pulse peak reaches the first aperture at t = {arrival:g}"
            )
    if "sweep" in reads:
        s_flag = getattr(args, "s", None)
        source = "--s list" if s_flag else "sweep block"
        with config_block(source):
            block = config.get("sweep", {})
            if s_flag:
                values = [complex(tok) for tok in s_flag.split(",") if tok.strip()]
            elif "s_values" in block:
                values = [complex(*number_pair(s)) for s in block["s_values"]]
            else:
                lo, hi = number_pair(block.get("s_re", (0.25, 8.0)))
                im = finite_number(block.get("s_im", 0.0))
                count = _int(block.get("count", 20))
                if count > MAX_SWEEP_FREQUENCIES:
                    raise ConfigError(
                        f"sweep.count may be at most {MAX_SWEEP_FREQUENCIES}, got {count}"
                    )
                values = [complex(v, im) for v in np.geomspace(lo, hi, count)]
            values = [complex(finite_number(s.real), finite_number(s.imag)) for s in values]
        if not 0 < len(values) <= MAX_SWEEP_FREQUENCIES:
            raise ConfigError(
                f"{source} lists {len(values)} frequencies; give 1 to {MAX_SWEEP_FREQUENCIES}"
            )
        for s in values:
            run["wave"].check_frequency(s)
        run["s_values"] = tuple(values)
    if "probes" in reads:
        with config_block("probes list"):
            run["probes"] = tuple(map(number_pair, config.get("probes", [])))
        for x, y in run["probes"]:
            if not any(cav.contains(x, y) for cav in scene.cavities):
                raise ConfigError(f"probe point ({x}, {y}) lies outside every cavity")
    if "snapshots" in reads:
        with config_block("snapshots block"):
            run["snap_every"] = _int(config.get("snapshots", {}).get("every", 0))
        if run["snap_every"] < 0:
            raise ConfigError(f"snapshots.every must be non-negative, got {run['snap_every']}")
    return RunConfig(scene=scene, **run)


def _out_dir(args) -> Path:
    path = Path(os.environ.get("CAVITY_TD_OUT", args.out))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(args, run: RunConfig, meshes=(), **fields) -> RunManifest:
    manifest = RunManifest(
        command=args.command,
        config_sha256=args.config_sha256,
        mesh_stats=[
            {"vertices": m.n_vertices, "triangles": m.n_triangles,
             "aperture_nodes": int(m.aperture_nodes.size)}
            for m in meshes
        ],
        **fields,
    )
    if run.grid is not None:
        manifest.metrics["trace"] = {"L": run.grid.L, "N": run.grid.N}
    if run.grid is not None and run.h:
        # The solve commands' resolution: mesh size against trace spacing,
        # and for the march the step against the pulse width.
        res = {"h": run.h, "dx": run.grid.dx, "h_over_dx": run.h / run.grid.dx, "L": run.grid.L}
        if run.scheme is not None:
            res["dt"] = run.scheme.dt
            res["dt_over_width"] = run.scheme.dt / run.wave.profile.width
        manifest.metrics["resolution"] = {key: float(v) for key, v in res.items()}
    return manifest


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

# The frequencies of the certificates over the modes of the trace grid:
# 64 real parts geometric over [1e-3, 10] by 65 imaginary parts over [-10, 10].
_S_LATTICE = (np.geomspace(1e-3, 10.0, 64)[:, None] + 1j * np.linspace(-10.0, 10.0, 65)).ravel()


def _trace_property_checks(grid: TraceGrid, c: float, mu0: float) -> list[tuple]:
    """(name, value, limit) of each check of the line operators; a check
    passes at a value at most its limit."""
    # Branch invariant on a lattice over xi in [-50, 50], Re s in
    # [1e-3, 100] and Im s in [-100, 100].
    xi = np.linspace(-50.0, 50.0, 101)[:, None, None]
    s = np.geomspace(1e-3, 100.0, 32)[:, None] + 1j * np.linspace(-100.0, 100.0, 33)
    roots = beta(xi, s, c)
    target = xi**2 + (s / c) ** 2
    checks = [
        ("symbol-branch-re", float(np.max(roots.real)), 0.0),
        ("symbol-branch-eq", float(np.max(np.abs(roots**2 - target) / np.abs(target))), 1e-12),
    ]

    # Mode-wise symbol bound |beta| <= max(|s|/c, 1) sqrt(1 + xi^2).  Both
    # trace norms weight the same modes, so it is the continuity bound of
    # B(s) from the 1/2 to the -1/2 trace norm.
    const = np.maximum(np.abs(_S_LATTICE) / c, 1.0)[:, None]
    worst_bound = float(np.max([
        np.max(np.abs(symbol) / np.sqrt(1.0 + grid.rfft_xi[modes] ** 2) - const)
        for modes, symbol in diagnostics.symbol_blocks(grid, c, _S_LATTICE)
    ]))
    checks.append(("symbol-bound", worst_bound, 1e-9))

    # FFT path against the dense oracle on every column, on a grid of the
    # same period capped at the oracle's size limit (the line operators do
    # not read apertures).
    oracle_grid = grid if grid.N <= DENSE_ORACLE_MAX else TraceGrid(
        L=grid.L, N=DENSE_ORACLE_MAX
    )
    dense = dtn_dense(oracle_grid, 1.0 + 2.0j, c)
    got = apply_B(np.eye(oracle_grid.N), 1.0 + 2.0j, oracle_grid, c)
    worst_oracle = float(np.max(
        np.linalg.norm(got - dense, axis=0) / np.linalg.norm(dense, axis=0)
    ))
    checks.append(("oracle-equivalence", worst_oracle, 1e-10))

    checks.append(("passivity-frequency",
                   diagnostics.frequency_passivity(grid, c, _S_LATTICE, mu0),
                   diagnostics.DEFECT_TOL))
    checks.append(("passivity-time-domain", diagnostics.time_passivity(grid, c),
                   diagnostics.TIME_DEFECT_TOL))
    return checks


def cmd_validate(args) -> int:
    run = _parse_config(args)
    out = _out_dir(args)

    manifest = _manifest(args, run)
    t0 = time.perf_counter()
    checks = _trace_property_checks(run.grid, run.scene.c, run.scene.mu0)
    manifest.wall_times["suite"] = time.perf_counter() - t0
    for name, value, limit in checks:
        manifest.record_check(name, name, value, limit)
    manifest.write(out / "manifest.json")
    ok = manifest.passed()
    print(f"validate: {'PASS' if ok else 'FAIL'} ({len(manifest.checks)} checks)")
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
    write_fields = args.command == "solve-freq"
    formats = [solution_csv_format(mesh) for mesh in meshes] if write_fields else []
    records, solves = [], []

    def write_one(sol, data):
        idx = len(records)
        records.append(estimate_report(sol, data, run.grid, solver.fems))
        solves.append((sol.residual, sol.lu_nnz, sol.s, sol.triangular_solves))
        if write_fields:
            for j, (mesh, fmt) in enumerate(zip(meshes, formats)):
                path = out / f"solution_s{idx:03d}_cavity{j}.csv"
                save_solution_csv(path, mesh, sol.fields[j], fmt)
                manifest.add_output(path)

    for group in frequency_groups(run.s_values):
        data = [boundary_data_freq(run.wave, run.grid, s) for s in group]
        pairs = list(zip(solver.solve_group(group, data), data))
        # Written in sweep order and popped as written: no field of this
        # group is held while the next one is solved.
        while pairs:
            write_one(*pairs.pop(0))
    manifest.wall_times["solves"] = time.perf_counter() - t0
    manifest.metrics["dofs"] = solver.pattern.shape[0]
    residuals, lu_nnz, frequencies, triangular_solves = zip(*solves)
    # Only a solve that factorized its own operator reports LU fill.
    manifest.metrics["factorizations"] = sum(nnz > 0 for nnz in lu_nnz)
    manifest.metrics["triangular_solves"] = sum(triangular_solves)
    manifest.metrics["ordering"] = ORDERING
    manifest.metrics["lu_nnz"] = max(lu_nnz)
    worst = max(range(len(residuals)), key=residuals.__getitem__)
    s = frequencies[worst]
    manifest.metrics["max_residual"] = residuals[worst]
    manifest.metrics["worst_frequency"] = {"index": worst, "s": [s.real, s.imag]}

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

    manifest = _manifest(args, run, meshes, scheme={"dt": scheme.dt, "steps": scheme.steps})
    observe = None
    if run.snap_every > 0:
        mesh_part = vtk_mesh_part(meshes)

        def observe(n, fields):
            # Fields leave the march only here, at every snap_every-th step.
            snap = out / f"snapshot_{n:05d}.vtk"
            write_vtk_snapshot(snap, mesh_part, fields)
            manifest.add_output(snap)

    t0 = time.perf_counter()
    sol = run_time_domain(scene, meshes, grid, pw, scheme, observe,
                          probes=stencils, observe_every=max(run.snap_every, 1))
    manifest.wall_times["time-solve"] = time.perf_counter() - t0
    manifest.metrics["dofs"] = sol.n_dofs
    manifest.metrics["factorizations"] = 1  # the march's one step matrix
    manifest.metrics["ordering"] = ORDERING
    manifest.metrics["lu_nnz"] = sol.lu_nnz
    manifest.metrics["max_residual"] = sol.max_residual
    manifest.metrics["worst_step"] = {
        "step": sol.worst_step, "t": float(sol.times[sol.worst_step])
    }

    # The march recorded the norm row of g; the bundle streams the norm rows
    # of its two derivatives.
    et = diagnostics.energy(sol, boundary_data_bundle(pw, grid, sol.times, sol.g))
    energy_path = out / "energy.csv"
    diagnostics.save_energy_csv(energy_path, et)
    manifest.add_output(energy_path)

    stability = diagnostics.stability_check(et)
    stability_limit = diagnostics.PINNED_STABILITY_RATIO * diagnostics.PIN_MARGIN
    manifest.record_check("stability-ratio", "stability_ratio", stability.ratio, stability_limit)
    deficit = diagnostics.passivity_deficit(et)
    limit = diagnostics.TIME_DEFECT_TOL
    manifest.record_check("boundary-passivity", "passivity_deficit", deficit, limit)
    # Reported without a check: the a-priori constants are pinned only by
    # the growth study at doubled horizons (acceptance criterion 09).
    apriori = diagnostics.apriori_check(et)
    manifest.metrics["apriori_ratio"] = {"linf": apriori.linf_ratio, "l2": apriori.l2_ratio}

    if run.probes:
        probe_path = out / "probes.csv"
        header = ["t"] + [f"u(x={p[0]:g},y={p[1]:g})" for p in run.probes]
        write_csv(probe_path, header, np.column_stack([sol.times, sol.probes.T]).tolist())
        manifest.add_output(probe_path)

    # run_time_domain raised above the limit, so the ratio is reported, not checked.
    manifest.metrics["initial_ratio"] = {"value": sol.initial_ratio, "limit": CAUSALITY_LIMIT}
    manifest.record_check("realness", "imag_residue", sol.imag_residue, REALNESS_LIMIT)
    manifest.write(out / "manifest.json")
    print(
        f"solve-time: {scheme.steps} steps, energy peak {et.total.max():.6g}, "
        f"passivity deficit {deficit:.2e}"
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
        ("validate", cmd_validate, ("trace",)),
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
            # Accepted for scripts that pass it to every solve command.
            p.add_argument("--threads", type=int, default=1,
                           help="accepted and ignored: every solve runs serially")
        if name == "solve-freq":
            p.add_argument("--s", default=None,
                           help="comma-separated complex frequencies, e.g. '1+0.5j,2'")
        p.set_defaults(handler=fn, reads=reads)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DomainError, MeshFailure) as exc:
        # Everything the config document determines maps to exit 2.
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CavityError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
