import threading
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import cavitytd as ct
from cavitytd.cq import CqScheme, cq_frequencies
from cavitytd.errors import DomainError
from cavitytd.fem import SystemOperator
from cavitytd.freq import FrequencySolver, estimate_report, save_solution_csv
from cavitytd.trace import TraceVector

from conftest import load_reference


@pytest.fixture(scope="module")
def unit_solver(unit_scene, unit_meshes, unit_grid):
    return FrequencySolver(unit_scene, unit_meshes, unit_grid)


class TestSolveFrequency:
    def test_zero_data_zero_solution(self, unit_solver, unit_grid):
        sol = unit_solver.solve(1.0 + 1.0j, TraceVector.zero(unit_grid))
        assert sol.norm() == 0.0
        assert sol.residual == 0.0

    def test_rejects_bad_frequency(self, unit_solver, unit_grid):
        with pytest.raises(DomainError):
            unit_solver.solve(-1.0 + 0.0j, TraceVector.zero(unit_grid))

    def test_residual_small(self, unit_solver, unit_grid, gaussian_wave):
        s = 1.3 + 0.9j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        sol = unit_solver.solve(s, data)
        assert sol.residual <= 1e-10
        assert sol.norm() > 0.0

    def test_real_s_gives_exactly_real_fields(self, unit_solver, unit_grid, gaussian_wave):
        # At real s the gaussian data and the matrix are real, so the
        # complex fields carry exact zeros as imaginary parts.
        s = 1.7
        sol = unit_solver.solve(s, ct.boundary_data_freq(gaussian_wave, unit_grid, s))
        assert sol.lu_nnz > 0 and sol.residual <= 1e-10
        for f in sol.fields:
            assert f.dtype == np.complex128
            assert np.any(f.real != 0.0) and np.all(f.imag == 0.0)

    def test_linearity_in_data(self, unit_solver, unit_grid, gaussian_wave):
        s = 2.0 + 0.4j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        sol1 = unit_solver.solve(s, data)
        sol2 = unit_solver.solve(s, TraceVector(2.0 * data.values))
        for f1, f2 in zip(sol1.fields, sol2.fields):
            assert np.allclose(f2, 2.0 * f1, rtol=1e-12, atol=1e-15)

    def test_mirror_symmetry(self, unit_scene, unit_meshes, unit_grid, gaussian_wave):
        # Symmetric scene + even data (normal incidence): the solution is
        # even about x = 0; compare against the x-reflected nodal field.
        s = 1.0 + 1.5j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        sol = ct.solve_frequency(unit_scene, unit_meshes, unit_grid, s, data)
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


@pytest.fixture(scope="module")
def three_solver():
    """reference_three's solver (229 free DOFs) and its CQ contour nodes."""
    _, scene, meshes, grid, pw, scheme = load_reference("reference_three")
    return FrequencySolver(scene, meshes, grid), pw, cq_frequencies(scheme)


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
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert lu.nnz < spla.splu(op.matrix, permc_spec="MMD_AT_PLUS_A").nnz


class TestEstimateReport:
    def test_zero_data_reports_zero_ratio(self, unit_solver, unit_grid):
        sol = unit_solver.solve(1.0 + 0.0j, TraceVector.zero(unit_grid))
        rec = estimate_report(sol, TraceVector.zero(unit_grid), unit_grid, unit_solver.fems)
        assert rec["ratio"] == 0.0
        assert rec["lhs"] == 0.0

    def test_ratio_invariant_under_scaling(self, unit_solver, unit_grid, gaussian_wave):
        s = 1.2 + 0.6j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        r1 = estimate_report(unit_solver.solve(s, data), data, unit_grid, unit_solver.fems)
        doubled = TraceVector(2.0 * data.values)
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
        field = np.random.default_rng(7).standard_normal(mesh.n_vertices) * (1.0 + 1.0j)
        special = [0.0, -0.0, 5e-324, -2.2e-308, 1e-300, 1.7976931348623157e308,
                   -1e300, 0.1, 1.0 / 3.0, 123456789.0]
        field.real[: len(special)] = special
        field.imag[: len(special)] = special[::-1]
        field[len(special)] = complex(-0.0, -0.0)
        path = tmp_path / "sol.csv"
        save_solution_csv(path, mesh, field)
        # Reference: the per-row formatting the writer must reproduce byte for byte.
        expected = "x,y,re_u,im_u\n" + "".join(
            f"{x:.17g},{y:.17g},{complex(v).real:.17g},{complex(v).imag:.17g}\n"
            for (x, y), v in zip(mesh.vertices, field)
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert ",-0,-0\n" in expected and "e-324," in expected


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
