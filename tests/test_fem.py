import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cavitytd as ct
from cavitytd import cq
from cavitytd.errors import DimensionMismatch, DomainError
from cavitytd.fem import SystemPattern, assemble, assemble_all
from cavitytd.trace import apply_B
from conftest import build_system_single, load_reference


@pytest.fixture(scope="module")
def unit_fem(unit_scene, unit_meshes, unit_grid):
    return assemble(unit_meshes[0], unit_scene.cavities[0], unit_grid)


class TestAssemble:
    def test_mass_partition_of_unity(self, unit_fem):
        # sum_pq M_pq = integral of eps over the cavity = cavity area
        assert unit_fem.mass.sum() == pytest.approx(1.0, rel=1e-12)

    def test_stiffness_annihilates_constants(self, unit_fem):
        ones = np.ones(unit_fem.n_nodes)
        assert np.max(np.abs(unit_fem.stiffness @ ones)) <= 1e-12

    def test_material_weight_is_linear(self, unit_scene, unit_meshes, unit_grid):
        doubled = ct.build_scene(
            {
                "scene": {
                    "eps0": 1.0,
                    "mu0": 1.0,
                    "polarization": "TE",
                    "cavities": [
                        {"aperture": [-0.5, 0.5], "depth": 1.0, "epsilon": 2.0, "mu": 1.0}
                    ],
                }
            }
        )
        base = assemble(unit_meshes[0], unit_scene.cavities[0], unit_grid)
        twice = assemble(unit_meshes[0], doubled.cavities[0], unit_grid)
        assert np.allclose(
            twice.mass.toarray(), 2.0 * base.mass.toarray(), rtol=1e-13, atol=1e-15
        )

    def test_definiteness_after_elimination(self, unit_fem):
        free = unit_fem.free_nodes
        m = unit_fem.mass[free][:, free].toarray()
        k = unit_fem.stiffness[free][:, free].toarray()
        assert np.min(np.linalg.eigvalsh(m)) > 0.0
        assert np.min(np.linalg.eigvalsh(k)) > 0.0

    def test_restriction_structure(self, unit_fem, unit_grid):
        r = unit_fem.restriction
        mask = unit_grid.masks[0]
        rows_nnz = np.diff(r.tocsr().indptr)
        assert np.all(rows_nnz[~mask] == 0)
        assert np.all(rows_nnz[mask] == 2)

    def test_restriction_reproduces_linear_functions(self, unit_fem, unit_grid, unit_meshes):
        nodes = unit_meshes[0].vertices
        vals = 3.0 * nodes[:, 0] + 0.5
        trace = unit_fem.restriction @ vals
        mask = unit_grid.masks[0]
        assert np.allclose(trace[mask], 3.0 * unit_grid.x[mask] + 0.5, rtol=1e-13)


class TestApplyRhs:
    def test_zero_data(self, unit_fem, unit_grid):
        g = np.zeros(unit_grid.N, complex)
        load = ct.apply_rhs(g, unit_fem.restriction, unit_grid)
        assert np.all(load == 0.0)

    def test_hat_weights_for_constant_data(self, unit_fem, unit_meshes, unit_grid):
        # Aligned sample/node layout: interior hats integrate to h, the two
        # corner hats to h/2.
        g = np.ones(unit_grid.N, dtype=complex)
        mesh = unit_meshes[0]
        h = 0.125
        ap = mesh.aperture_nodes
        b = ct.apply_rhs(g, unit_fem.restriction, unit_grid).real
        assert np.allclose(b[ap[1:-1]], h, rtol=1e-12)
        assert b[ap[0]] == pytest.approx(h / 2, rel=1e-12)
        assert b[ap[-1]] == pytest.approx(h / 2, rel=1e-12)
        off = np.setdiff1d(np.arange(mesh.n_vertices), ap)
        assert np.all(b[off] == 0.0)

    def test_linearity(self, unit_fem, unit_grid, rng):
        r = unit_fem.restriction
        g1 = rng.standard_normal(unit_grid.N) + 0j
        g2 = rng.standard_normal(unit_grid.N) + 0j
        b1 = ct.apply_rhs(g1, r, unit_grid)
        b2 = ct.apply_rhs(g2, r, unit_grid)
        b12 = ct.apply_rhs(g1 + g2, r, unit_grid)
        assert np.allclose(b12, b1 + b2, rtol=1e-13, atol=1e-15)

    def test_dimension_mismatch(self, unit_fem, unit_grid):
        with pytest.raises(DimensionMismatch):
            ct.apply_rhs(np.zeros(32), unit_fem.restriction, unit_grid)
        with pytest.raises(DimensionMismatch):
            ct.apply_rhs(np.zeros(unit_grid.N), unit_fem.restriction.T, unit_grid)

    def test_real_data_gives_real_load(self, unit_fem, unit_grid, rng):
        # The real part of the complex-data load, bit for bit.
        re, im = rng.standard_normal((2, unit_grid.N))
        real_load = ct.apply_rhs(re, unit_fem.restriction, unit_grid)
        complex_load = ct.apply_rhs(re + 1j * im, unit_fem.restriction, unit_grid)
        assert real_load.dtype == np.float64
        assert complex_load.dtype == np.complex128
        assert np.array_equal(real_load, complex_load.real)

    def test_non_aligned_layout_matches_hat_quadrature(self, rng):
        # h = 0.025 against dx = 6/512: samples fall between aperture nodes.
        # Each load entry is sum_k w_k g_k hat_i(x_k) with the hats
        # evaluated independently, and the stacked free-DOF map gives the
        # same entries as the per-cavity maps.
        _, scene, _, _, _, _ = load_reference("reference_two")
        meshes = ct.mesh_scene(scene, 0.025)
        grid = ct.TraceGrid(L=6.0, N=512, apertures=scene.apertures)
        fems = assemble_all(scene, meshes, grid)
        g = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
        free_loads = []
        for mesh, f, mask in zip(meshes, fems, grid.masks):
            ap = mesh.aperture_nodes
            xa = mesh.vertices[ap, 0]
            ks = np.nonzero(mask)[0]
            w = np.full(ks.size, grid.dx)
            w[[0, -1]] = grid.dx / 2
            hats = np.stack([np.interp(grid.x[ks], xa, e) for e in np.eye(ap.size)])
            expected = np.zeros(mesh.n_vertices, dtype=complex)
            expected[ap] = hats @ (w * g[ks])
            got = ct.apply_rhs(g, f.restriction, grid)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
            free_loads.append(got[f.free_nodes])
        stacked = ct.apply_rhs(g, SystemPattern.from_fems(fems).restriction, grid)
        assert np.array_equal(stacked, np.concatenate(free_loads))


class TestSystemOperator:
    S = 1.2 + 2.3j

    def test_rejects_bad_frequency(self, unit_solver, unit_scene, unit_meshes, unit_grid):
        # NaN compares false both ways, so it must not pass `Re s <= 0`.
        for s in (-1.0 + 1.0j, complex("nan")):
            with pytest.raises(DomainError):
                unit_solver.operator(s)
            with pytest.raises(DomainError):
                build_system_single(unit_scene, unit_meshes[0], unit_grid, s)

    def test_dtype_follows_s(self, unit_solver):
        # Real symmetric at real s, complex symmetric otherwise.
        for s, dtype in ((1.3, np.float64), (1.3 + 0.0j, np.float64),
                         (1.0 + 0.5j, np.complex128)):
            op = unit_solver.operator(s)
            assert op.matrix.dtype == dtype
            assert abs(op.matrix - op.matrix.T).max() <= 1e-14 * abs(op.matrix).max()

    def test_complex_load_on_real_operator(self, unit_solver, rng):
        # A real operator solves in real arithmetic: a real load gives a
        # float64 solution that matches a complex LU of the same matrix,
        # and a complex load is refused rather than split.
        op = unit_solver.operator(1.3)
        b = rng.standard_normal(op.n_dofs)
        x = op.solve(b)
        ref = spla.splu(op.matrix.astype(np.complex128).tocsc()).solve(b + 0j)
        assert x.dtype == np.float64
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert op.triangular_solves == 1
        with pytest.raises(TypeError):
            op.solve(b + 1j * rng.standard_normal(op.n_dofs))

    def test_quadratic_form_two_paths(self, unit_solver, unit_scene, unit_grid, unit_fem, rng):
        # Assemble-then-dot against dot-then-assemble from the primitives.
        op = unit_solver.operator(self.S)
        fem = unit_fem
        free = fem.free_nodes
        c = unit_scene.c
        for _ in range(5):
            u = rng.standard_normal(op.n_dofs) + 1j * rng.standard_normal(op.n_dofs)
            via_matrix = np.vdot(u, op.matvec(u))
            m = fem.mass[free][:, free]
            k = fem.stiffness[free][:, free]
            ru = (fem.restriction[:, free] @ u).astype(np.complex128)
            bru = apply_B(ru[:, None], self.S, unit_grid, c)[:, 0]
            boundary = unit_grid.dx * np.sum(bru * np.conj(ru))
            via_parts = (
                self.S * np.vdot(u, m @ u)
                + (1.0 / self.S) * np.vdot(u, k @ u)
                - boundary / (self.S * unit_scene.mu0)
            )
            assert abs(via_matrix - via_parts) <= 1e-12 * abs(via_matrix)

    def test_dense_dtn_consistency(self, unit_solver, unit_scene, unit_grid, unit_fem, rng):
        # Replace the FFT coupling with the dense oracle; matvecs agree.
        op = unit_solver.operator(self.S)
        fem = unit_fem
        free = fem.free_nodes
        dense_b = ct.dtn_dense(unit_grid, self.S, unit_scene.c)
        r = fem.restriction[:, free].toarray()
        m = fem.mass[free][:, free]
        k = fem.stiffness[free][:, free]
        coupling = r.T @ (unit_grid.dx * (dense_b @ r))
        for _ in range(3):
            u = rng.standard_normal(op.n_dofs) + 1j * rng.standard_normal(op.n_dofs)
            ref = (
                self.S * (m @ u)
                + (1.0 / self.S) * (k @ u)
                - coupling @ u / (self.S * unit_scene.mu0)
            )
            got = op.matvec(u)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_symmetric_not_hermitian(self, unit_solver):
        a = unit_solver.operator(self.S).matrix.toarray()
        assert np.allclose(a, a.T, rtol=1e-12, atol=1e-14)
        assert not np.allclose(a, a.conj().T, rtol=1e-6, atol=1e-8)

    def test_transposed_sweep_solves_the_symmetric_operators(self, rng, monkeypatch):
        # solve takes SuperLU's transposed sweep, which solves A^T x = b:
        # the system itself only because every matrix the package
        # factorizes equals its plain transpose.  Checked on variable
        # epsilon at a real and a complex s, and on the march's W0.
        _, scene, meshes, grid, pw, scheme = load_reference("reference_two")
        solver = ct.FrequencySolver(scene, meshes, grid)
        step_ops = []
        solve = cq.certified_solve
        monkeypatch.setattr(cq, "certified_solve",
                            lambda op, *a: step_ops.append(op) or solve(op, *a))
        ct.run_time_domain(scene, meshes, grid, pw, scheme)
        for op in (solver.operator(1.3), solver.operator(1.1 + 1.9j), step_ops[0]):
            a = op.matrix
            assert abs(a - a.T).max() <= 1e-14 * abs(a).max()
            b = rng.standard_normal(op.n_dofs).astype(a.dtype)
            if np.iscomplexobj(a):
                b += 1j * rng.standard_normal(op.n_dofs)
            ref = spla.spsolve(a, b)
            assert np.linalg.norm(op.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_cross_blocks_only_through_boundary(self, two_scene, two_meshes, two_grid):
        solver = ct.FrequencySolver(two_scene, two_meshes, two_grid)
        op = solver.operator(self.S)
        fems = solver.fems
        volume = sp.block_diag(
            [
                (self.S * f.mass[f.free_nodes][:, f.free_nodes]
                 + (1.0 / self.S) * f.stiffness[f.free_nodes][:, f.free_nodes])
                for f in fems
            ]
        ).toarray()
        dtn_part = op.matrix.toarray() - volume
        # the off-diagonal block is nonzero (coupling exists) ...
        n0 = fems[0].n_free
        assert np.max(np.abs(dtn_part[:n0, n0:])) > 0.0
        # ... and is supported on aperture rows/columns only
        ap_free = []
        offset = 0
        for f, mesh in zip(fems, two_meshes):
            lookup = {node: i for i, node in enumerate(f.free_nodes)}
            ap_free.extend(
                offset + lookup[n] for n in mesh.aperture_nodes if n in lookup
            )
            offset += f.n_free
        outside = np.setdiff1d(np.arange(op.n_dofs), np.array(ap_free))
        assert np.max(np.abs(dtn_part[np.ix_(outside, outside)])) == 0.0

    def test_coercivity(self, unit_solver, unit_scene, rng):
        # Re a(u, u) >= min(1/mu_max, eps_min) * s1/|s|^2 * (|grad u|^2 + |s u|^2)
        bounds = [cav.material_bounds() for cav in unit_scene.cavities]
        eps_min = min(eb[0] for eb, _ in bounds)
        mu_max = max(mb[1] for _, mb in bounds)
        const = min(1.0 / mu_max, eps_min)
        f = unit_solver.fems[0]
        free = f.free_nodes
        k1 = f.stiffness_unit[free][:, free]
        m1 = f.mass_unit[free][:, free]
        for _ in range(100):
            s = complex(rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0))
            op = unit_solver.operator(s)
            u = rng.standard_normal(op.n_dofs) + 1j * rng.standard_normal(op.n_dofs)
            lhs = np.vdot(u, op.matvec(u)).real
            grad_sq = np.vdot(u, k1 @ u).real
            su_sq = abs(s) ** 2 * np.vdot(u, m1 @ u).real
            rhs = const * (s.real / abs(s) ** 2) * (grad_sq + su_sq)
            assert lhs >= rhs - 1e-9

    def test_continuity_constant_finite(self, unit_solver, rng):
        # |a(u, v)| <= C(s) |u|_H1 |v|_H1 with C(s) finite over the sample set.
        f = unit_solver.fems[0]
        free = f.free_nodes
        h1 = (f.stiffness_unit + f.mass_unit)[free][:, free]
        worst = 0.0
        for _ in range(20):
            s = complex(rng.uniform(0.25, 8.0), rng.uniform(-8.0, 8.0))
            op = unit_solver.operator(s)
            u = rng.standard_normal(op.n_dofs) + 1j * rng.standard_normal(op.n_dofs)
            v = rng.standard_normal(op.n_dofs) + 1j * rng.standard_normal(op.n_dofs)
            a_uv = abs(np.vdot(v, op.matvec(u)))
            nu = np.sqrt(np.vdot(u, h1 @ u).real)
            nv = np.sqrt(np.vdot(v, h1 @ v).real)
            worst = max(worst, a_uv / (nu * nv))
        assert np.isfinite(worst)
        assert worst < 100.0


def _aperture_restriction(fems):
    """Free aperture columns of the stacked restriction, and its dense block."""
    r = sp.hstack([f.restriction[:, f.free_nodes] for f in fems], format="csc")
    ap = np.nonzero(np.diff(r.indptr) > 0)[0]
    return ap, r[:, ap].toarray()


class TestFixedPattern:
    S_VALUES = (0.3 + 0.0j, 1.2 + 2.3j, 4.0 - 7.5j)

    def test_matches_block_assembly_bitwise(self):
        # Two cavities, one with variable epsilon: the fixed-pattern fill
        # equals the block-diagonal volume part plus the COO of the
        # pattern's own aperture coupling block, scattered bit for bit.
        _, scene, meshes, grid, _, _ = load_reference("reference_two")
        fems = assemble_all(scene, meshes, grid)
        solver = ct.FrequencySolver(scene, meshes, grid)
        c = scene.c
        ap, _ = _aperture_restriction(fems)
        for s in self.S_VALUES:
            volume = sp.block_diag(
                [s * f.mass[f.free_nodes][:, f.free_nodes]
                 + (1.0 / s) * f.stiffness[f.free_nodes][:, f.free_nodes]
                 for f in fems],
                format="csr",
            )
            coupling = solver.pattern.coupling(s, grid, c)
            dtn = sp.coo_matrix(
                ((-1.0 / (s * scene.mu0)) * coupling.ravel(),
                 (np.repeat(ap, ap.size), np.tile(ap, ap.size))),
                shape=volume.shape,
            )
            expected = (volume + dtn).toarray()
            op = solver.operator(s)
            assert np.array_equal(op.matrix.toarray(), expected)  # bit for bit

    def test_stacks_each_cavity_free_block(self, two_scene, two_meshes, two_grid):
        # mass and stiffness are block-diagonal CSR stacks (the march reads
        # them too): block j is cavity j's free-node block, entry for entry,
        # and nothing lies off the diagonal blocks.
        fems = assemble_all(two_scene, two_meshes, two_grid)
        pattern = SystemPattern.from_fems(fems)
        for name in ("mass", "stiffness"):
            stacked = getattr(pattern, name)
            assert sp.issparse(stacked) and stacked.format == "csr"
            assert stacked.shape == pattern.shape
            blocks = [getattr(f, name)[f.free_nodes][:, f.free_nodes] for f in fems]
            for f, lo, block in zip(fems, pattern.free_offsets, blocks):
                diag = stacked[lo : lo + f.n_free, lo : lo + f.n_free]
                assert np.array_equal(diag.toarray(), block.toarray())
            assert stacked.nnz == sum(b.nnz for b in blocks)

    @pytest.mark.parametrize("name", ["reference_single", "reference_two", "reference_three"])
    def test_unit_twin_is_shared_exactly_when_equal(self, name):
        # A stacked unit-weight twin is the weighted matrix object exactly
        # when the cavities' stacked twins store the weighted matrix's CSR
        # arrays; either way it equals that stack bit for bit.
        _, scene, meshes, grid, _, _ = load_reference(name)
        fems = assemble_all(scene, meshes, grid)
        pattern = SystemPattern.from_fems(fems)
        arrays = ("indptr", "indices", "data")
        for weight in ("mass", "stiffness"):
            weighted = getattr(pattern, weight)
            twin = getattr(pattern, f"{weight}_unit")
            stacked = sp.block_diag(
                [getattr(f, f"{weight}_unit")[f.free_nodes][:, f.free_nodes] for f in fems],
                format="csr",
            )
            equal = all(np.array_equal(getattr(weighted, a), getattr(stacked, a)) for a in arrays)
            assert (twin is weighted) == equal
            assert twin.dtype == stacked.dtype
            for a in arrays:
                assert np.array_equal(getattr(twin, a), getattr(stacked, a))

    def test_variable_epsilon_keeps_its_own_mass_twin(self):
        # reference_two's second cavity has a variable epsilon and unit mu.
        _, scene, meshes, grid, _, _ = load_reference("reference_two")
        fems = assemble_all(scene, meshes, grid)
        assert fems[0].mass_unit is fems[0].mass
        assert fems[1].mass_unit is not fems[1].mass
        assert all(f.stiffness_unit is f.stiffness for f in fems)
        pattern = SystemPattern.from_fems(fems)
        assert pattern.mass_unit is not pattern.mass
        assert pattern.stiffness_unit is pattern.stiffness

    def test_circulant_coupling_matches_column_fft_and_dense(self):
        # The one-kernel-column circulant block equals the FFT of every
        # aperture column and the dense oracle, to round-off.
        _, scene, meshes, grid, _, _ = load_reference("reference_two")
        solver = ct.FrequencySolver(scene, meshes, grid)
        c = scene.c
        _, ra = _aperture_restriction(solver.fems)
        for s in self.S_VALUES:
            got = solver.pattern.coupling(s, grid, c)
            # At real s the block and the real-column path are exactly real.
            assert got.dtype == (np.float64 if s.imag == 0.0 else np.complex128)
            by_columns = ra.T @ (grid.dx * apply_B(ra.astype(np.complex128), s, grid, c))
            real_columns = ra.T @ (grid.dx * apply_B(ra, s, grid, c))
            dense = ra.T @ (grid.dx * ct.dtn_dense(grid, s, c)) @ ra
            for ref in (by_columns, real_columns, dense):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSingleCavityDegeneracy:
    def test_bitwise_matrix_match(self, unit_solver, unit_scene, unit_meshes, unit_grid):
        for s in (0.9 + 1.7j, 0.9 + 0.0j):
            general = unit_solver.operator(s)
            single = build_system_single(unit_scene, unit_meshes[0], unit_grid, s)
            a = general.matrix.toarray()
            b = single.matrix.toarray()
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)  # bit for bit

    def test_solutions_match(self, unit_solver, unit_scene, unit_meshes, unit_grid, unit_fem,
                             gaussian_wave):
        s = 1.4 + 0.8j
        data = ct.boundary_data_freq(gaussian_wave, unit_grid, s)
        general = unit_solver.operator(s)
        single = build_system_single(unit_scene, unit_meshes[0], unit_grid, s)
        fem = unit_fem
        load = ct.apply_rhs(data, fem.restriction, unit_grid)[fem.free_nodes]
        xg = general.solve(load)
        xs = single.solve(load)
        assert np.linalg.norm(xg - xs) <= 1e-12 * np.linalg.norm(xs)


class TestApertureQuadrature:
    def test_weights_sum_to_span(self, unit_grid, two_grid):
        # Trapezoid weights: each aperture's sum is the span of its samples,
        # and the ground plane between the apertures carries none.
        for grid in (unit_grid, two_grid):
            w = grid.aperture_weights
            assert w.shape == (grid.N,)
            for mask in grid.masks:
                ks = np.nonzero(mask)[0]
                span = grid.x[ks[-1]] - grid.x[ks[0]]
                assert w[mask].sum() == pytest.approx(span, rel=1e-12)
            assert np.all(w[~grid.union_mask] == 0.0)
