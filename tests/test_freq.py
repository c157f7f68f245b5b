import re
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import cavitytd as ct
from cavitytd import freq
from cavitytd.cq import CqScheme
from cavitytd.errors import DimensionMismatch, DomainError, FactorizationFailure
from cavitytd.fem import SystemOperator
from cavitytd.freq import (
    FrequencySolver,
    estimate_report,
    frequency_groups,
    save_solution_csv,
    solution_csv_format,
)

from conftest import REFERENCE_CONTOUR_TOL, cq_frequencies, load_reference


class TestSolveFrequency:
    def test_zero_data_zero_solution(self, unit_solver, unit_grid):
        sol = unit_solver.solve(1.0 + 1.0j, np.zeros(unit_grid.N, complex))
        assert not any(np.any(f) for f in sol.fields)
        assert sol.residual == 0.0

    def test_rejects_bad_frequency(self, unit_solver, unit_grid):
        for s in (-1.0 + 0.0j, complex("nan")):
            with pytest.raises(DomainError):
                unit_solver.solve(s, np.zeros(unit_grid.N, complex))

    def test_residual_small(self, unit_solver, unit_grid, gaussian_wave):
        s = 1.3 + 0.9j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        sol = unit_solver.solve(s, data)
        assert sol.residual <= 1e-10
        assert any(np.any(f) for f in sol.fields)

    @pytest.mark.parametrize("s", [1.7, 1.3 + 0.9j])
    def test_certificate_holds_at_any_load_scale(self, unit_solver, unit_grid,
                                                 gaussian_wave, s):
        # Scaling the load by a power of two scales the solve exactly; the
        # certificate then reads the same residual, also where the load's
        # squares underflow (2**-600) or overflow (2**600), and without a
        # warning, which the suite's filterwarnings setting makes an error.
        op = unit_solver.operator(s)
        b = unit_solver.load(ct.boundary_data_freq(gaussian_wave, unit_grid, s))
        x, residual = freq.certified_solve(op, b, "at scale 1")
        assert 0.0 < residual <= 1e-10
        for shift in (-600, 600):
            xs, rs = freq.certified_solve(op, b * 2.0**shift, f"at scale 2**{shift}")
            assert np.array_equal(xs, x * 2.0**shift)
            assert rs == pytest.approx(residual, rel=1e-12)

    def test_real_s_gives_exactly_real_fields(self, unit_solver, unit_grid, gaussian_wave):
        # The dtype follows s from the data to the fields: float64 at real
        # s, where the data and the matrix are real, complex128 otherwise.
        for s, dtype in ((1.7, np.float64), (1.7 + 0.3j, np.complex128)):
            data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
            assert data.dtype == unit_solver.load(data).dtype == dtype
            sol = unit_solver.solve(s, data)
            assert sol.lu_nnz > 0 and sol.residual <= 1e-10
            assert all(f.dtype == dtype and np.any(f) for f in sol.fields)

    def test_linearity_in_data(self, unit_solver, unit_grid, gaussian_wave):
        s = 2.0 + 0.4j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        sol1 = unit_solver.solve(s, data)
        sol2 = unit_solver.solve(s, 2.0 * data)
        for f1, f2 in zip(sol1.fields, sol2.fields):
            assert np.allclose(f2, 2.0 * f1, rtol=1e-12, atol=1e-15)

    def test_grid_with_extra_aperture_rejected_at_construction(self, unit_scene, unit_meshes):
        # The grid carries the scene's aperture and one more: the solver
        # refuses it once, before any operator is built.
        grid = ct.TraceGrid(L=8.0, N=256, apertures=unit_scene.apertures + ((1.0, 1.5),))
        with pytest.raises(DimensionMismatch, match="1 cavities, the grid 2 apertures"):
            FrequencySolver(unit_scene, unit_meshes, grid)

    def test_grid_with_moved_aperture_rejected(self, unit_scene, unit_meshes):
        # Same aperture count, one end moved by 1e-13: the pairing of
        # cavities and grid apertures is exact, in the solver and in assemble.
        ((a, b),) = unit_scene.apertures
        grid = ct.TraceGrid(L=4.0, N=128, apertures=((a, b + 1e-13),))
        with pytest.raises(DimensionMismatch, match="exactly the scene's apertures"):
            FrequencySolver(unit_scene, unit_meshes, grid)
        with pytest.raises(DimensionMismatch, match="not present on the trace grid"):
            ct.assemble(unit_meshes[0], unit_scene.cavities[0], grid)

    def test_mirror_symmetry(self, unit_solver, unit_meshes, unit_grid, gaussian_wave):
        # Symmetric scene + even data (normal incidence): the solution is
        # even about x = 0; compare against the x-reflected nodal field.
        s = 1.0 + 1.5j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        sol = unit_solver.solve(s, data)
        mesh = unit_meshes[0]
        field = sol.fields[0]
        order = np.lexsort((mesh.vertices[:, 1], np.round(mesh.vertices[:, 0], 12)))
        mirror = np.lexsort((mesh.vertices[:, 1], np.round(-mesh.vertices[:, 0], 12)))
        diff = np.max(np.abs(field[order] - field[mirror]))
        assert diff <= 1e-10 * max(1.0, np.max(np.abs(field)))

    def test_no_lu_outlives_its_solve(self, unit_scene, unit_meshes, unit_grid,
                                      gaussian_wave, monkeypatch):
        # Count operators from their first factorization until they are
        # collected: the march holds its one LU for the run and drops it
        # on return, and a frequency solve drops its LU with the solve.
        lock = threading.Lock()
        live, peak = [0], [0]
        factorize = SystemOperator.factorize

        def release():
            with lock:
                live[0] -= 1

        def counting_factorize(op):
            if op._lu is None:
                weakref.finalize(op, release)
                with lock:
                    live[0] += 1
                    peak[0] = max(peak[0], live[0])
            return factorize(op)

        monkeypatch.setattr(SystemOperator, "factorize", counting_factorize)
        scheme = CqScheme(dt=0.125, steps=48)
        ct.run_time_domain(unit_scene, unit_meshes, unit_grid, gaussian_wave, scheme)
        assert live[0] == 0
        assert peak[0] == 1
        solver = FrequencySolver(unit_scene, unit_meshes, unit_grid)
        s = 1.1 + 2.2j
        solver.solve(s, ct.boundary_data_freq(gaussian_wave, unit_grid, s))
        assert live[0] == 0
        # A sweep group holds its anchor's LU until the group ends, and
        # drops it before a CG miss factorizes the next anchor.
        group = [1.0, 1.1, 1.2 + 0.1j, 1.24]
        data = [ct.boundary_data_freq(gaussian_wave, unit_grid, s) for s in group]
        for cap in (freq._CG_MAX_ITER, 0):
            monkeypatch.setattr(freq, "_CG_MAX_ITER", cap)
            solver.solve_group(group, data)
            assert live[0] == 0
        assert peak[0] == 1


@pytest.fixture(scope="module")
def three_solver():
    """reference_three's solver (229 free DOFs) and its CQ contour nodes."""
    _, scene, meshes, grid, pw, scheme = load_reference("reference_three")
    return FrequencySolver(scene, meshes, grid), pw, cq_frequencies(scheme, REFERENCE_CONTOUR_TOL)


class TestFactorization:
    def test_matches_independent_solve(self, three_solver):
        # A real s and the CQ node with the smallest Re s / |s|.
        solver, pw, s_nodes = three_solver
        for s in (1.3 + 0.0j, s_nodes[np.argmin(s_nodes.real / np.abs(s_nodes))]):
            data = ct.boundary_data_freq(pw, solver.grid, s)
            sol = solver.solve(s, data)
            ref = spla.spsolve(solver.operator(s).matrix, solver.load(data))
            got = np.concatenate(
                [u[f.free_nodes] for f, u in zip(solver.fems, sol.fields)]
            )
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_symmetric_mode_pins(self, three_solver):
        # Symmetric mode keeps the minimum-degree ordering on A^T + A and
        # every pivot on the diagonal; the default mode post-orders by the
        # column elimination tree of A^T A and fills about twice as much.
        solver, _, s_nodes = three_solver
        op = solver.operator(s_nodes[1])
        lu = op.factorize()
        assert op.n_dofs == 229
        assert lu.nnz == 4056
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert lu.nnz < spla.splu(op.matrix, permc_spec="MMD_AT_PLUS_A").nnz


class TestEstimateReport:
    def test_zero_data_reports_zero_ratio(self, unit_solver, unit_grid):
        sol = unit_solver.solve(1.0 + 0.0j, np.zeros(unit_grid.N, complex))
        rec = estimate_report(sol, np.zeros(unit_grid.N, complex), unit_grid, unit_solver.fems)
        assert rec["ratio"] == 0.0
        assert rec["lhs"] == 0.0

    def test_ratio_invariant_under_scaling(self, unit_solver, unit_grid, gaussian_wave):
        s = 1.2 + 0.6j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        r1 = estimate_report(unit_solver.solve(s, data), data, unit_grid, unit_solver.fems)
        doubled = 2.0 * data
        r2 = estimate_report(unit_solver.solve(s, doubled), doubled, unit_grid, unit_solver.fems)
        assert r2["ratio"] == pytest.approx(r1["ratio"], rel=1e-12)

    def test_sweep_band(self, unit_solver, unit_grid, gaussian_wave):
        s_values = [complex(v, 0.0) for v in np.geomspace(0.25, 8.0, 20)]
        ratios = []
        for s in s_values:
            data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
            sol = unit_solver.solve(s, data)
            ratios.append(estimate_report(sol, data, unit_grid, unit_solver.fems)["ratio"])
        assert all(r > 0 for r in ratios)
        assert max(ratios) / min(ratios) <= 50.0

    def test_solution_csv(self, unit_solver, unit_meshes, unit_grid, gaussian_wave, tmp_path):
        s = 1.0 + 0.5j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        sol = unit_solver.solve(s, data)
        path = tmp_path / "sol.csv"
        save_solution_csv(path, unit_meshes[0], sol.fields[0])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,re_u,im_u"
        assert len(lines) == unit_meshes[0].n_vertices + 1

    def test_solution_csv_matches_row_writer(self, unit_meshes, tmp_path):
        mesh = unit_meshes[0]
        rng = np.random.default_rng(7)
        field = rng.standard_normal(mesh.n_vertices) * (1.0 + 1.0j)
        special = [0.0, -0.0, 5e-324, -2.2e-308, 1e-300, 1.7976931348623157e308,
                   -1e300, 0.1, 1.0 / 3.0, 123456789.0]
        field.real[: len(special)] = special
        field.imag[: len(special)] = special[::-1]
        field[len(special)] = complex(-0.0, -0.0)
        # A real field (any real s) prints im_u as 0, the bytes %.17g gives
        # +0.0: the same file as the complex field with +0.0 imaginary
        # parts.  One -0.0 among them must still print as -0.
        real = rng.standard_normal(mesh.n_vertices)
        real[: len(special)] = special
        zero_imag = real.astype(np.complex128)
        signed = zero_imag.copy()
        signed.imag[3] = -0.0
        fmt = solution_csv_format(mesh)
        for name, f in (("complex", field), ("real", real), ("zero_imag", zero_imag),
                        ("signed", signed)):
            path = tmp_path / f"{name}.csv"
            save_solution_csv(path, mesh, f, fmt)
            # Reference: the per-row formatting the writer must reproduce byte for byte.
            expected = "x,y,re_u,im_u\n" + "".join(
                f"{x:.17g},{y:.17g},{complex(v).real:.17g},{complex(v).imag:.17g}\n"
                for (x, y), v in zip(mesh.vertices, f)
            )
            assert path.read_bytes() == expected.encode("utf-8"), name
            assert "e-324," in expected
        assert ",-0,-0\n" in (tmp_path / "complex.csv").read_text()
        assert ",-0\n" not in (tmp_path / "real.csv").read_text()
        assert (tmp_path / "real.csv").read_bytes() == (tmp_path / "zero_imag.csv").read_bytes()
        assert (tmp_path / "signed.csv").read_text().count(",-0\n") == 1


class TestMultiCavity:
    def test_coupled_vs_independent_decay(self, gaussian_wave):
        # Cross-cavity influence shrinks monotonically as the separation
        # doubles (2w, 4w, 8w for aperture width w).
        s = 1.0 + 1.0j
        diffs = []
        for sep in (2.0, 4.0, 8.0):
            w = 1.0
            cav1 = {"aperture": [-sep / 2 - w, -sep / 2], "depth": 1.0,
                    "epsilon": 1.0, "mu": 1.0}
            cav2 = {"aperture": [sep / 2, sep / 2 + w], "depth": 0.8,
                    "epsilon": 1.0, "mu": 1.0}
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
            data = ct.boundary_data_freq(gaussian_wave, grid, s)
            sol_c = FrequencySolver(coupled, meshes, grid).solve(s, data)
            worst = 0.0
            for j, cav in enumerate((cav1, cav2)):
                single = ct.build_scene(
                    {"scene": {"eps0": 1.0, "mu0": 1.0, "polarization": "TE",
                               "cavities": [cav]}}
                )
                grid_j = ct.TraceGrid(L=L, N=n, apertures=single.apertures)
                data_j = ct.boundary_data_freq(gaussian_wave, grid_j, s)
                sol_j = FrequencySolver(single, [meshes[j]], grid_j).solve(s, data_j)
                worst = max(
                    worst,
                    np.linalg.norm(sol_c.fields[j] - sol_j.fields[0])
                    / np.linalg.norm(sol_j.fields[0]),
                )
            diffs.append(worst)
        assert diffs[0] > diffs[1] > diffs[2]


# A dense real sweep and a complex sweep s = 0.5 + i*omega on reference_two.
SWEEPS = {
    "real": [complex(v) for v in np.geomspace(0.25, 8.0, 48)],
    "complex": [complex(0.5, w) for w in np.linspace(0.5, 6.0, 32)],
}


@pytest.fixture(scope="module")
def two_sweeps():
    """reference_two's solver and wave, and per sweep its data and direct
    solutions."""
    _, scene, meshes, grid, pw, _ = load_reference("reference_two")
    solver = FrequencySolver(scene, meshes, grid)
    out = {}
    for kind, s_values in SWEEPS.items():
        data = [ct.boundary_data_freq(pw, grid, s) for s in s_values]
        out[kind] = data, [solver.solve(s, d) for s, d in zip(s_values, data)]
    return solver, pw, out


def anchored_sweep(solver, s_values, data):
    sols = []
    for group in frequency_groups(s_values):
        sols += solver.solve_group(group, data[len(sols) : len(sols) + len(group)])
    return sols


def spy_solves(monkeypatch):
    """Count the calls of SystemOperator.solve from here on."""
    calls = [0]
    solve = SystemOperator.solve

    def counting_solve(op, b):
        calls[0] += 1
        return solve(op, b)

    monkeypatch.setattr(SystemOperator, "solve", counting_solve)
    return calls


def spy_cg_dtypes(monkeypatch):
    """Record, per CG call from here on, the dtypes of its seeds and the
    set of dtypes of its seeds, load, operator and anchor."""
    calls = []
    cocg = freq._cocg

    def spy(op, anchor, b, seeds):
        held = [v.dtype for v in seeds]
        calls.append((held, set(held) | {b.dtype, op.matrix.dtype, anchor.matrix.dtype}))
        return cocg(op, anchor, b, seeds)

    monkeypatch.setattr(freq, "_cocg", spy)
    return calls


def relative_difference(sol, ref):
    diff = np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(sol.fields, ref.fields)))
    return diff / np.sqrt(sum(np.vdot(f, f).real for f in ref.fields))


class TestAnchoredSweep:
    def test_groups_by_distance_to_first_member(self):
        s_values = [1.0, 1.2, 1.25, 1.26, 1.26 + 0.3j, 4.0, 5.0, 5.01, 1.0]
        assert frequency_groups(s_values) == [
            [1.0, 1.2, 1.25], [1.26, 1.26 + 0.3j], [4.0, 5.0], [5.01], [1.0]
        ]
        assert frequency_groups([]) == []

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_matches_direct_solves(self, two_sweeps, kind):
        solver, _, sweeps = two_sweeps
        data, direct = sweeps[kind]
        sols = anchored_sweep(solver, SWEEPS[kind], data)
        factorizations = sum(sol.lu_nnz > 0 for sol in sols)
        assert factorizations == len(frequency_groups(SWEEPS[kind]))
        assert factorizations < len(sols)
        for s, sol, ref in zip(SWEEPS[kind], sols, direct):
            assert sol.s == s and 0.0 < sol.residual <= 1e-10
            assert relative_difference(sol, ref) <= 1e-12
            assert all(f.dtype == ref.fields[0].dtype for f in sol.fields)

    def test_real_member_of_complex_anchor_stays_real(self, two_sweeps):
        # The real s joins the group of a complex anchor but runs no CG on
        # it: it is factorized in real arithmetic and becomes the anchor,
        # so its fields are its direct solve's, float64.
        solver, pw, _ = two_sweeps
        s_values = [1.0 + 0.2j, 1.1]
        assert len(frequency_groups(s_values)) == 1
        data = [ct.boundary_data_freq(pw, solver.grid, s) for s in s_values]
        anchor, member = solver.solve_group(s_values, data)
        ref = solver.solve(s_values[1], data[1])
        assert anchor.lu_nnz > 0 and member.lu_nnz == ref.lu_nnz > 0
        assert all(f.dtype == np.float64 for f in member.fields)
        assert all(np.array_equal(a, b) for a, b in zip(member.fields, ref.fields))

    def test_member_certificate_miss_names_its_frequency(self, two_sweeps, monkeypatch):
        # CG stopped far above the certificate: the member's fresh residual
        # fails the 1e-10 check, and the error names the member.
        monkeypatch.setattr(freq, "_CG_TOL", 1e-6)
        solver, _, sweeps = two_sweeps
        s_values, data = SWEEPS["real"][:2], sweeps["real"][0][:2]
        assert len(frequency_groups(s_values)) == 1
        with pytest.raises(FactorizationFailure, match=re.escape(f"at s={s_values[1]}")):
            solver.solve_group(s_values, data)

    @pytest.mark.parametrize("kind, parent, bound", [("real", 288, 230), ("complex", 287, 258)])
    def test_seeded_start_saves_triangular_solves(self, two_sweeps, kind, parent, bound,
                                                  monkeypatch):
        # Every solve made with a factorization, the anchors' own included.
        # Started from A(s_anchor)^-1 b, the sweeps made `parent` of them;
        # started from the group's earlier solutions they make 221 and 254.
        # Their groups hold 4 and at most 6 frequencies, so a member has at
        # most 5 seeds; the dense sweep below shows the saving on longer
        # groups.
        solver, _, sweeps = two_sweeps
        calls = spy_solves(monkeypatch)
        sols = anchored_sweep(solver, SWEEPS[kind], sweeps[kind][0])
        assert sum(sol.triangular_solves for sol in sols) == calls[0] <= bound < parent

    def test_seeded_start_halves_triangular_solves_on_long_groups(self, two_sweeps,
                                                                 monkeypatch):
        # 192 real frequencies in 15 groups, as many as the benchmark's
        # sweep: 1286 solves from A(s_anchor)^-1 b, 402 from the seeds.
        solver, pw, _ = two_sweeps
        s_values = [complex(v) for v in np.geomspace(0.25, 8.0, 192)]
        data = [ct.boundary_data_freq(pw, solver.grid, s) for s in s_values]
        calls = spy_solves(monkeypatch)
        sols = anchored_sweep(solver, s_values, data)
        assert sum(sol.lu_nnz > 0 for sol in sols) == len(frequency_groups(s_values)) == 15
        assert sum(sol.triangular_solves for sol in sols) == calls[0] <= 1286 // 2
        assert all(0.0 < sol.residual <= 1e-10 for sol in sols)
        for s, d, sol in list(zip(s_values, data, sols))[::7]:
            assert relative_difference(sol, solver.solve(s, d)) <= 1e-12

    def test_zero_member_direction_is_skipped(self, two_sweeps):
        # The second member has zero data: its zero solution becomes a seed
        # with p^T A p == 0, which the next member's start skips.  The last,
        # complex member is factorized: it runs no CG on the real anchor.
        solver, pw, _ = two_sweeps
        s_values = [1.0, 1.05, 1.1, 1.15 + 0.05j]
        data = [ct.boundary_data_freq(pw, solver.grid, s) for s in s_values]
        data[1] = np.zeros_like(data[1])
        sols = solver.solve_group(s_values, data)
        assert [sol.lu_nnz > 0 for sol in sols] == [True, False, False, True]
        zero = sols[1]
        assert zero.residual == 0.0 and zero.triangular_solves == 0
        assert all(not np.any(f) for f in zero.fields)
        for s, d, sol in zip(s_values[2:], data[2:], sols[2:]):
            assert 0.0 < sol.residual <= 1e-10
            assert relative_difference(sol, solver.solve(s, d)) <= 1e-12

    def test_real_members_after_complex_seeds_stay_real(self, two_sweeps, monkeypatch):
        # Realness switches three times in one group: each switch drops the
        # old anchor and its seeds and factorizes, so the last real member
        # runs CG on a real anchor from real seeds only.
        calls = spy_cg_dtypes(monkeypatch)
        solver, pw, _ = two_sweeps
        s_values = [1.0 + 0.2j, 1.1, 1.05 + 0.1j, 1.15, 1.12]
        assert len(frequency_groups(s_values)) == 1
        data = [ct.boundary_data_freq(pw, solver.grid, s) for s in s_values]
        sols = solver.solve_group(s_values, data)
        assert [sol.lu_nnz > 0 for sol in sols] == [True, True, True, True, False]
        assert [dtypes for _, dtypes in calls] == [{np.dtype(np.float64)}]
        for s, d, sol in zip(s_values, data, sols):
            dtype = np.float64 if s.imag == 0.0 else np.complex128
            assert all(f.dtype == dtype for f in sol.fields)
            assert relative_difference(sol, solver.solve(s, d)) <= 1e-12

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_dtype_follows_s_from_data_to_seeds(self, two_sweeps, kind, monkeypatch):
        # Data, load, CG seeds and fields: float64 at real s, complex128 at
        # complex s, with no copy or split between them.
        dtype = np.dtype(np.float64 if kind == "real" else np.complex128)
        calls = spy_cg_dtypes(monkeypatch)
        solver, _, sweeps = two_sweeps
        data, _ = sweeps[kind]
        assert {d.dtype for d in data} == {solver.load(d).dtype for d in data} == {dtype}
        sols = anchored_sweep(solver, SWEEPS[kind], data)
        assert len(calls) == len(sols) - len(frequency_groups(SWEEPS[kind])) > 0
        assert all(dtypes == {dtype} for _, dtypes in calls)
        assert {f.dtype for sol in sols for f in sol.fields} == {dtype}

    @pytest.mark.parametrize("k", [-480, -600])
    @pytest.mark.parametrize("kind", SWEEPS)
    def test_members_scale_exactly(self, two_sweeps, kind, k):
        # The members' CG once took its inner products unscaled: data at
        # 2**-480 missed the certificate.  It runs at unit peak now, so the
        # fields of scaled data are 2**k times the fields at scale 1, bitwise.
        solver, _, sweeps = two_sweeps
        data = sweeps[kind][0]
        ref = anchored_sweep(solver, SWEEPS[kind], data)
        sols = anchored_sweep(solver, SWEEPS[kind], [d * 2.0**k for d in data])
        assert sum(sol.lu_nnz == 0 for sol in sols) > 0
        for sol, r in zip(sols, ref):
            assert sol.residual <= 1e-10
            assert all(np.array_equal(a, b * 2.0**k) for a, b in zip(sol.fields, r.fields))

    @pytest.mark.parametrize("cap", [freq._SEED_VECTORS, 2])
    def test_at_most_the_cap_of_seeds_is_held(self, two_sweeps, cap, monkeypatch):
        # One group of 16 real frequencies, whose solutions are float64.
        monkeypatch.setattr(freq, "_SEED_VECTORS", cap)
        calls = spy_cg_dtypes(monkeypatch)
        solver, pw, _ = two_sweeps
        s_values = [complex(v) for v in np.linspace(2.0, 2.5, 16)]
        assert len(frequency_groups(s_values)) == 1
        data = [ct.boundary_data_freq(pw, solver.grid, s) for s in s_values]
        sols = solver.solve_group(s_values, data)
        assert [len(held) for held, _ in calls] == [min(k, cap) for k in range(1, 16)]
        assert all(dtypes == {np.dtype(np.float64)} for _, dtypes in calls)
        for s, d, sol in zip(s_values, data, sols):
            assert relative_difference(sol, solver.solve(s, d)) <= 1e-12

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_cg_cap_zero_makes_every_frequency_an_anchor(self, two_sweeps, kind,
                                                         monkeypatch):
        monkeypatch.setattr(freq, "_CG_MAX_ITER", 0)
        solver, _, sweeps = two_sweeps
        data, direct = sweeps[kind]
        sols = anchored_sweep(solver, SWEEPS[kind], data)
        for sol, ref in zip(sols, direct):
            assert sol.lu_nnz == ref.lu_nnz > 0
            assert sol.residual == ref.residual
            assert all(np.array_equal(a, b) for a, b in zip(sol.fields, ref.fields))
