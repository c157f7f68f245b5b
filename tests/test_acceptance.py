"""Acceptance criteria for the primary component.

One test per criterion, each printing a single verdict line with the
measured quantities (run pytest with -s to see every line).  Tolerances
and regression pins are fixed here and in cavitytd.diagnostics; nothing is
calibrated at run time.
"""

import time

import numpy as np
import pytest

import cavitytd as ct
from cavitytd import diagnostics
from cavitytd.cq import CqScheme
from cavitytd.fem import assemble_all
from cavitytd.freq import FrequencySolver, estimate_report
from cavitytd.incident import boundary_data_bundle, boundary_data_freq
from cavitytd.trace import apply_B, dtn_dense, restrict, trace_norm

from conftest import build_system_single, growth_study, load_reference, run_recorded


def report(num, label, detail):
    print(f"ACCEPTANCE {num:2d} PASS  {label}: {detail}")


@pytest.fixture(scope="module")
def reference_runs():
    """Time-domain runs of the three shipped reference configurations."""
    runs = {}
    for name in ("reference_single", "reference_two", "reference_three"):
        config, scene, meshes, grid, pw, scheme = load_reference(name)
        sol = ct.run_time_domain(scene, meshes, grid, pw, scheme)
        runs[name] = (scene, meshes, grid, pw, scheme, sol)
    return runs


def test_criterion_01_symbol_branch():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_eq = 0.0
    for _ in range(10_000):
        xi = rng.uniform(-100.0, 100.0)
        s = complex(100.0 * (1.0 - rng.random()), rng.uniform(-100.0, 100.0))
        b = ct.beta(xi, s, 1.0)
        assert b.real < 0.0
        target = xi * xi + s * s
        worst_eq = max(worst_eq, abs(b * b - target) / abs(target))
    elapsed = time.perf_counter() - t0
    assert worst_eq <= 1e-12
    assert elapsed < 1.0
    report(1, "symbol branch", f"10^4 samples, max square defect {worst_eq:.2e}, {elapsed:.2f}s")


def test_criterion_02_operator_continuity():
    rng = np.random.default_rng(202)
    grid = ct.TraceGrid(L=4.0, N=128, apertures=((-0.5, 0.5),))
    c = 1.0
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(20):
        s = complex(10.0 * (1.0 - rng.random()), rng.uniform(-10.0, 10.0))
        a = s.real**2 - s.imag**2
        b = 2.0 * s.real * s.imag
        const = max((a * a + b * b) ** 0.25, 1.0)
        for _ in range(100):
            u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
            lhs = trace_norm(apply_B(u, s, grid, c), -0.5, grid)
            rhs = const * trace_norm(u, 0.5, grid)
            worst = max(worst, lhs - rhs)
            assert lhs <= rhs + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, "operator continuity", f"2000 cases, worst slack {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_passivity():
    apertures = tuple(
        (c - 0.3, c + 0.3) for c in (-1.6, -0.8, 0.0, 0.8, 1.6)
    )
    grid = ct.TraceGrid(L=8.0, N=256, apertures=apertures)
    c = 1.0
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    mins = {}
    for label, count in (("single", 1), ("two", 2), ("five", 5)):
        worst = np.inf
        for _ in range(1000):
            s = complex(10.0 * (1.0 - rng.random()), rng.uniform(-10.0, 10.0))
            traces = [
                restrict(
                    rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N),
                    j,
                    grid,
                )
                for j in range(count)
            ]
            scale = sum(np.linalg.norm(t) ** 2 for t in traces)
            d = ct.passivity_defect(traces, s, 1.0, grid, c) / scale
            worst = min(worst, d)
        mins[label] = worst
        assert worst >= -1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        3,
        "passivity",
        "min defects "
        + ", ".join(f"{k}: {v:.2e}" for k, v in mins.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(404)
    c = 1.0
    t0 = time.perf_counter()
    worst = 0.0
    for n in (64, 128, 256):
        grid = ct.TraceGrid(L=4.0, N=n, apertures=((-0.5, 0.5),))
        s = complex(rng.uniform(0.5, 5.0), rng.uniform(-5.0, 5.0))
        dense = dtn_dense(grid, s, c)
        for _ in range(20):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = dense @ u
            got = apply_B(u, s, grid, c)
            rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            worst = max(worst, rel)
            assert rel < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, "oracle equivalence", f"N in (64,128,256), worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_frequency_estimate_band():
    config, scene, meshes, grid, pw, _ = load_reference("reference_single")
    solver = FrequencySolver(scene, meshes, grid)
    t0 = time.perf_counter()
    ratios = []
    for s1 in np.geomspace(0.25, 8.0, 20):
        s = complex(s1, 0.0)
        data = boundary_data_freq(pw, grid, s)
        sol = solver.solve(s, data)
        ratios.append(estimate_report(sol, data, grid, solver.fems)["ratio"])
    elapsed = time.perf_counter() - t0
    band = diagnostics.PINNED_FREQ_RATIO_MAX * diagnostics.PIN_MARGIN
    assert max(ratios) <= band
    assert max(ratios) / min(ratios) <= 50.0
    assert elapsed < 120.0
    report(
        5,
        "frequency estimate band",
        f"ratio in [{min(ratios):.3f}, {max(ratios):.3f}], pin {band:.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_single_cavity_degeneracy():
    # A complex s (complex symmetric matrix) and a real s (real symmetric).
    _, scene, meshes, grid, pw, _ = load_reference("reference_single")
    solver = FrequencySolver(scene, meshes, grid)
    fem = solver.fems[0]
    worst = 0.0
    for s in (1.1 + 1.9j, 1.3 + 0.0j):
        general = solver.operator(s)
        single = build_system_single(scene, meshes[0], grid, s)
        assert general.matrix.dtype == single.matrix.dtype
        assert np.array_equal(general.matrix.toarray(), single.matrix.toarray())
        data = boundary_data_freq(pw, grid, s)
        load = ct.apply_rhs(data, fem.restriction, grid)[fem.free_nodes]
        xg = general.solve(load)
        xs = single.solve(load)
        worst = max(worst, np.linalg.norm(xg - xs) / np.linalg.norm(xs))
    assert worst <= 1e-12
    report(6, "n=1 degeneracy", f"matrices bitwise equal, solution rel diff {worst:.2e}")


def test_criterion_07_cq_temporal_convergence():
    _, scene, meshes, grid, _, _ = load_reference("reference_single")
    profile = ct.WaveProfile(kind="gaussian-pulse", center=4.2, width=0.6)
    pw = ct.PlaneWave(profile=profile, theta=np.pi / 2)
    horizon = 6.5
    fems = assemble_all(scene, meshes, grid)
    m1 = fems[0].mass_unit

    def l2(u):
        return float(np.sqrt(abs(u @ (m1 @ u))))

    t0 = time.perf_counter()
    final = {}
    for steps in (64, 128, 256, 512):
        scheme = CqScheme(dt=horizon / steps, steps=steps)
        _, fields = run_recorded(scene, meshes, grid, pw, scheme)
        final[steps] = fields[0][-1]
    errors = [l2(final[steps] - final[512]) for steps in (64, 128, 256)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0
    assert min(orders) >= 1.7
    assert elapsed < 600.0
    report(
        7,
        "CQ temporal convergence",
        f"errors {['%.2e' % e for e in errors]}, orders "
        f"{['%.2f' % o for o in orders]}, {elapsed:.1f}s",
    )


def test_criterion_08_energy_dissipation(reference_runs):
    # The apertures dissipate: the cumulative outflow F_n through them never
    # falls below zero, at the shipped step and as it is refined.  The cavity
    # energy itself may rise while the exterior returns its wake, so only
    # the outflow is asserted.
    t0 = time.perf_counter()
    details = []
    for name, (scene, meshes, grid, pw, scheme, sol) in reference_runs.items():
        worst = []
        for refine in (1, 2, 4):
            fine = CqScheme(dt=scheme.dt / refine, steps=scheme.steps * refine)
            run = sol if refine == 1 else ct.run_time_domain(scene, meshes, grid, pw, fine)
            et = diagnostics.energy(run, boundary_data_bundle(pw, grid, run.times))
            deficit = diagnostics.passivity_deficit(et)
            assert deficit <= diagnostics.TIME_DEFECT_TOL, f"{name} at dt/{refine}: {deficit:.2e}"
            worst.append(deficit)
        details.append(f"{name.split('_')[1]}: {max(worst):.1e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, "boundary passivity", "worst outflow deficit at dt, dt/2, dt/4 "
           + ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_09_apriori_growth(reference_runs):
    scene, meshes, grid, pw, scheme, sol = reference_runs["reference_single"]
    base = 6.0
    records = growth_study(scene, meshes, grid, horizons=(base, 2 * base, 4 * base))
    ratios = [r.linf_ratio for r in records]
    for earlier, later in zip(ratios, ratios[1:]):
        assert later <= 1.25 * earlier
    assert ratios[0] <= diagnostics.PINNED_APRIORI_LINF * diagnostics.PIN_MARGIN

    # Homogeneity of every checked ratio under amplitude doubling.
    fems = assemble_all(scene, meshes, grid)
    measured = []
    for amp in (1.0, 2.0):
        profile = ct.WaveProfile(
            kind="gaussian-pulse", center=pw.profile.center, width=pw.profile.width,
            amplitude=amp,
        )
        wave = ct.PlaneWave(profile=profile, theta=pw.theta)
        small = CqScheme(dt=scheme.dt, steps=64)
        run = ct.run_time_domain(scene, meshes, grid, wave, small)
        et = diagnostics.energy(run, boundary_data_bundle(wave, grid, run.times))
        stab = diagnostics.stability_check(et)
        apr = diagnostics.apriori_check(et)
        s = 1.5 + 0.0j
        data = boundary_data_freq(wave, grid, s)
        fsol = FrequencySolver(scene, meshes, grid).solve(s, data)
        freq_ratio = estimate_report(fsol, data, grid, fems)["ratio"]
        measured.append((stab.ratio, apr.linf_ratio, apr.l2_ratio, freq_ratio))
    for a, b in zip(measured[0], measured[1]):
        assert b == pytest.approx(a, rel=1e-12)
    report(
        9,
        "a-priori growth",
        f"linf ratios {['%.4f' % r for r in ratios]} (non-increasing), "
        f"ratios amplitude-invariant to 1e-12",
    )


def test_criterion_10_cross_cavity_decoupling():
    s = 1.0 + 1.0j
    profile = ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5)
    pw = ct.PlaneWave(profile=profile, theta=np.pi / 2)
    diffs = []
    for sep in (2.0, 4.0, 8.0):
        w = 1.0
        cav1 = {"aperture": [-sep / 2 - w, -sep / 2], "depth": 1.0, "epsilon": 1.0, "mu": 1.0}
        cav2 = {"aperture": [sep / 2, sep / 2 + w], "depth": 0.8, "epsilon": 1.0, "mu": 1.0}
        coupled = ct.build_scene(
            {"scene": {"eps0": 1.0, "mu0": 1.0, "polarization": "TE",
                       "cavities": [cav1, cav2]}}
        )
        meshes = ct.mesh_scene(coupled, 0.125)
        L = 4.0 * (sep / 2 + w)
        n = 64
        while n * w / L < 16:
            n *= 2
        grid = ct.TraceGrid(L=L, N=n, apertures=coupled.apertures)
        data = boundary_data_freq(pw, grid, s)
        sol_c = FrequencySolver(coupled, meshes, grid).solve(s, data)
        worst = 0.0
        for j, cav in enumerate((cav1, cav2)):
            single = ct.build_scene(
                {"scene": {"eps0": 1.0, "mu0": 1.0, "polarization": "TE",
                           "cavities": [cav]}}
            )
            grid_j = ct.TraceGrid(L=L, N=n, apertures=single.apertures)
            data_j = boundary_data_freq(pw, grid_j, s)
            sol_j = FrequencySolver(single, [meshes[j]], grid_j).solve(s, data_j)
            worst = max(
                worst,
                np.linalg.norm(sol_c.fields[j] - sol_j.fields[0])
                / np.linalg.norm(sol_j.fields[0]),
            )
        diffs.append(worst)
    assert diffs[0] > diffs[1] > diffs[2]
    report(
        10,
        "cross-cavity decoupling",
        f"rel diff at separations (2w,4w,8w): {['%.2e' % d for d in diffs]}",
    )


def test_criterion_11_causality_and_realness(reference_runs):
    scene, meshes, grid, pw, scheme, sol = reference_runs["reference_single"]
    norms = sol.state_norm
    peak = norms.max()
    arrival = pw.profile.center - 6.0 * pw.profile.width
    early = norms[sol.times < arrival]
    assert early.size > 0
    worst_early = float(early.max() / peak)
    assert worst_early <= 1e-6
    assert sol.imag_residue <= 1e-10
    report(
        11,
        "causality and realness",
        f"pre-arrival norm {worst_early:.2e} of peak, discarded imaginary part "
        f"{sol.imag_residue:.2e}",
    )
