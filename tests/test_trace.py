import numpy as np
import pytest

import cavitytd as ct
from cavitytd.errors import DomainError, GridMismatch, SizeError
from cavitytd.trace import aperture_norm_rows

C = 1.0  # exterior light speed


class TestBeta:
    def test_zero_mode_real_frequency(self):
        assert ct.beta(0.0, 1.0 + 0.0j, 1.0) == pytest.approx(-1.0)

    def test_three_four_five(self):
        assert ct.beta(3.0, 4.0 + 0.0j, 1.0) == pytest.approx(-5.0)

    def test_complex_frequency(self):
        # s^2 = 2i, principal sqrt is 1 + i; verified by squaring below.
        b = ct.beta(0.0, 1.0 + 1.0j, 1.0)
        assert b == pytest.approx(-(1.0 + 1.0j))
        assert b * b == pytest.approx((1.0 + 1.0j) ** 2)

    def test_rejects_closed_half_plane(self):
        with pytest.raises(DomainError):
            ct.beta(1.0, -0.5 + 1.0j, 1.0)
        with pytest.raises(DomainError):
            ct.beta(1.0, 0.0 + 1.0j, 1.0)
        with pytest.raises(DomainError):
            ct.beta(0.5, complex("nan"), 1.0)

    def test_rejects_bad_speed(self, unit_grid):
        with pytest.raises(DomainError):
            ct.beta(1.0, 1.0 + 0.0j, -1.0)
        with pytest.raises(DomainError):
            ct.beta(1.0, 1.0 + 0.0j, float("nan"))
        for c in (0.0, float("nan")):
            with pytest.raises(DomainError):
                ct.apply_B(np.ones(unit_grid.N), 1.0, unit_grid, c)

    def test_branch_and_square_identity(self, rng):
        for _ in range(2000):
            xi = rng.uniform(-100.0, 100.0)
            s = complex(100.0 * (1.0 - rng.random()), rng.uniform(-100.0, 100.0))
            b = ct.beta(xi, s, 1.0)
            assert b.real < 0.0
            target = xi * xi + s * s
            assert abs(b * b - target) <= 1e-12 * abs(target)

    def test_even_in_xi(self, rng):
        for _ in range(100):
            xi = rng.uniform(0.1, 50.0)
            s = complex(rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0))
            assert ct.beta(xi, s, 1.0) == ct.beta(-xi, s, 1.0)

    def test_symbol_bound(self, unit_grid, rng):
        # |beta| / (1+xi^2)^(1/2) <= max((a^2+b^2)^(1/4), 1) mode-wise.
        for _ in range(50):
            s = complex(10.0 * (1.0 - rng.random()), rng.uniform(-10.0, 10.0))
            a = s.real**2 - s.imag**2
            b = 2.0 * s.real * s.imag
            const = max((a * a + b * b) ** 0.25, 1.0)
            vals = ct.beta(unit_grid.xi, s, 1.0)
            ratio = np.abs(vals) / np.sqrt(1.0 + unit_grid.xi**2)
            assert np.max(ratio) <= const + 1e-9


class TestTraceGrid:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            ct.TraceGrid(L=4.0, N=100, apertures=((-0.5, 0.5),))

    def test_period_must_be_positive(self):
        for L in (0.0, -4.0, float("nan")):
            with pytest.raises(ValueError):
                ct.TraceGrid(L, 64, ())

    def test_margin_enforced(self):
        with pytest.raises(ValueError):
            ct.TraceGrid(L=4.0, N=128, apertures=((0.5, 1.5),))

    def test_min_samples_enforced(self):
        with pytest.raises(ValueError):
            ct.TraceGrid(L=8.0, N=64, apertures=((-0.5, 0.5),))

    def test_auto_sizing(self):
        grid = ct.TraceGrid.for_apertures([(-0.5, 0.5), (1.0, 1.6)])
        assert grid.L >= 4.0 * 1.6
        for mask in grid.masks:
            assert mask.sum() >= 16
        assert grid.N & (grid.N - 1) == 0

    def test_masks_disjoint(self, two_grid):
        overlap = np.logical_and(two_grid.masks[0], two_grid.masks[1])
        assert not overlap.any()


class TestApplyB:
    def test_constant_vector(self, unit_grid):
        u = np.ones(unit_grid.N, dtype=complex)
        out = ct.apply_B(u, 1.0 + 0.0j, unit_grid, C)
        expected = ct.beta(0.0, 1.0 + 0.0j, 1.0)
        assert np.allclose(out, expected, rtol=1e-13, atol=1e-13)

    def test_fourier_eigenfunction(self, unit_grid):
        m = 3
        xi3 = 2.0 * np.pi * m / unit_grid.L
        u = np.exp(1j * xi3 * unit_grid.x)
        s = 2.0 + 1.0j
        out = ct.apply_B(u, s, unit_grid, C)
        assert np.allclose(out, ct.beta(xi3, s, 1.0) * u, rtol=1e-12)

    def test_matches_dense_oracle(self, unit_grid, rng):
        u = rng.standard_normal(unit_grid.N) + 1j * rng.standard_normal(unit_grid.N)
        s = 1.3 + 2.1j
        dense = ct.dtn_dense(unit_grid, s, C)
        ref = dense @ u
        got = ct.apply_B(u, s, unit_grid, C)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        # A real trace at real s stays real, through the rfft modes.
        real = rng.standard_normal(unit_grid.N)
        got = ct.apply_B(real, 1.3, unit_grid, C)
        ref = ct.dtn_dense(unit_grid, 1.3, C) @ real
        assert got.dtype == np.float64
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        # Each column of an (N, 3) block is the call on that one trace.
        real = rng.standard_normal((unit_grid.N, 3))
        for block in (real, real + 1j * rng.standard_normal((unit_grid.N, 3))):
            for sv in (1.3, s):
                got = ct.apply_B(block, sv, unit_grid, C)
                assert got.shape == block.shape
                for k in range(3):
                    one = ct.apply_B(block[:, k], sv, unit_grid, C)
                    assert got[:, k].tobytes() == one.tobytes()

    def test_linearity(self, unit_grid, rng):
        u = rng.standard_normal(unit_grid.N) + 1j * rng.standard_normal(unit_grid.N)
        v = rng.standard_normal(unit_grid.N) + 1j * rng.standard_normal(unit_grid.N)
        s = 0.7 + 3.0j
        alpha = 2.5 - 0.5j
        lhs = ct.apply_B(alpha * u + v, s, unit_grid, C)
        rhs = alpha * ct.apply_B(u, s, unit_grid, C) + ct.apply_B(v, s, unit_grid, C)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_grid_mismatch(self, unit_grid):
        with pytest.raises(GridMismatch):
            ct.apply_B(np.ones(64), 1.0, unit_grid, C)


class TestDtnDense:
    def test_two_point_hand_formula(self):
        grid = ct.TraceGrid(L=2.0, N=2)
        s = 1.5 + 0.5j
        b0 = ct.beta(0.0, s, 1.0)
        b1 = ct.beta(-np.pi, s, 1.0)
        # Two modes (m = 0, -1); the off-diagonal phase is exp(+-i pi) = -1.
        expected = 0.5 * np.array([[b0 + b1, b0 - b1], [b0 - b1, b0 + b1]])
        got = ct.dtn_dense(grid, s, C)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-14)

    def test_row_sums_equal_zero_mode(self, unit_grid):
        s = 2.0 + 1.0j
        dense = ct.dtn_dense(unit_grid, s, C)
        sums = dense.sum(axis=1)
        assert np.allclose(sums, ct.beta(0.0, s, 1.0), rtol=1e-11, atol=1e-11)

    def test_size_cap(self):
        grid = ct.TraceGrid(L=8.0, N=2048, apertures=())
        with pytest.raises(SizeError):
            ct.dtn_dense(grid, 1.0 + 0.0j, C)

    def test_symmetric(self, unit_grid):
        dense = ct.dtn_dense(unit_grid, 1.0 + 2.0j, C)
        assert np.allclose(dense, dense.T, rtol=1e-12, atol=1e-12)


class TestRestrict:
    def test_supported_vector_roundtrip(self, two_grid, rng):
        # Complex and real data; the dtype follows the data.
        for raw in (rng.standard_normal(two_grid.N) + 0j, rng.standard_normal(two_grid.N)):
            u = ct.restrict(raw, 0, two_grid)
            assert u.dtype == raw.dtype
            again = ct.restrict(u, 0, two_grid)
            assert np.array_equal(u, again)
            other = ct.restrict(u, 1, two_grid)
            assert np.all(other == 0.0)

    def test_constant_not_partitioned(self, two_grid):
        u = np.ones(two_grid.N, dtype=complex)
        total = ct.restrict(u, 0, two_grid) + ct.restrict(u, 1, two_grid)
        assert not np.array_equal(total, u)  # nonzero off the apertures

    def test_partition_on_union(self, two_grid, rng):
        u = rng.standard_normal(two_grid.N) + 1j * rng.standard_normal(two_grid.N)
        u[~two_grid.union_mask] = 0.0
        total = sum(ct.restrict(u, j, two_grid) for j in range(2))
        assert np.array_equal(total, u)

    def test_index_error(self, two_grid):
        with pytest.raises(IndexError):
            ct.restrict(np.zeros(two_grid.N), 5, two_grid)


class TestCoupledRow:
    def test_cross_term_decays_with_separation(self, rng):
        # Localized pulse on the left aperture; its image on the right one
        # must weaken monotonically as the separation doubles.
        norms = []
        for sep in (2.0, 4.0, 8.0):
            apertures = ((-sep / 2 - 1.0, -sep / 2), (sep / 2, sep / 2 + 1.0))
            L = 4.0 * (sep / 2 + 1.0)
            n = 64
            while n / L < 16:
                n *= 2
            grid = ct.TraceGrid(L=L, N=n, apertures=apertures)
            center = -sep / 2 - 0.5
            pulse = np.exp(-((grid.x - center) ** 2) / 0.02).astype(complex)
            u = ct.restrict(pulse, 0, grid)
            cross = ct.restrict(ct.apply_B(u, 1.0 + 0.0j, grid, C), 1, grid)
            norms.append(np.linalg.norm(cross) / np.linalg.norm(u))
        assert norms[0] > norms[1] > norms[2]


class TestTraceNorm:
    def test_zero(self, unit_grid):
        assert ct.trace_norm(np.zeros(unit_grid.N, complex), 0.5, unit_grid) == 0.0

    def test_constant_zero_mode_only(self, unit_grid):
        u = np.ones(unit_grid.N, dtype=complex)
        l2 = np.sqrt(unit_grid.dx * unit_grid.N)
        for order in (-0.5, 0.0, 0.5):
            assert ct.trace_norm(u, order, unit_grid) == pytest.approx(l2, rel=1e-13)

    def test_real_equals_complex_cast(self, unit_grid, rng):
        u = rng.standard_normal(unit_grid.N)
        for order in (-0.5, 0.0, 0.5):
            assert ct.trace_norm(u, order, unit_grid) == ct.trace_norm(
                u.astype(np.complex128), order, unit_grid
            )

    def test_parseval(self, unit_grid, rng):
        u = rng.standard_normal(unit_grid.N) + 1j * rng.standard_normal(unit_grid.N)
        direct = np.sqrt(unit_grid.dx * np.sum(np.abs(u) ** 2))
        assert abs(ct.trace_norm(u, 0.0, unit_grid) - direct) <= 1e-12 * direct

    def test_homogeneous_degree_one(self, unit_grid, rng):
        u = rng.standard_normal(unit_grid.N) + 1j * rng.standard_normal(unit_grid.N)
        n1 = ct.trace_norm(u, 0.5, unit_grid)
        n2 = ct.trace_norm(3.0 * u, 0.5, unit_grid)
        assert n2 == pytest.approx(3.0 * n1, rel=1e-13)

    def test_operator_continuity(self, unit_grid, rng):
        for _ in range(20):
            s = complex(10.0 * (1.0 - rng.random()), rng.uniform(-10.0, 10.0))
            a = s.real**2 - s.imag**2
            b = 2.0 * s.real * s.imag
            const = max((a * a + b * b) ** 0.25, 1.0)
            u = rng.standard_normal(unit_grid.N) + 1j * rng.standard_normal(unit_grid.N)
            lhs = ct.trace_norm(ct.apply_B(u, s, unit_grid, C), -0.5, unit_grid)
            rhs = const * ct.trace_norm(u, 0.5, unit_grid)
            assert lhs <= rhs + 1e-9


class TestPassivity:
    def test_zero_traces(self, two_grid):
        d = ct.passivity_defect(
            [np.zeros(two_grid.N, complex), np.zeros(two_grid.N, complex)],
            1.0 + 2.0j, 1.0, two_grid, C,
        )
        assert d == 0.0

    def test_constant_trace_strictly_positive(self, unit_grid):
        u = ct.restrict(np.ones(unit_grid.N, dtype=complex), 0, unit_grid)
        d = ct.passivity_defect([u], 1.0 + 0.0j, 1.0, unit_grid, C)
        # Independent mode sum: D = -Re (1/s) L sum beta_m |u_m|^2.
        coeff = np.fft.fft(u) / unit_grid.N
        b = ct.beta(unit_grid.xi, 1.0 + 0.0j, 1.0)
        expected = -np.real(unit_grid.L * np.sum(b * np.abs(coeff) ** 2))
        assert d > 0.0
        assert d == pytest.approx(expected, rel=1e-12)

    def test_randomized_single_and_coupled(self, two_grid, rng):
        for _ in range(300):
            s = complex(10.0 * (1.0 - rng.random()), rng.uniform(-10.0, 10.0))
            traces = [
                ct.restrict(
                    rng.standard_normal(two_grid.N) + 1j * rng.standard_normal(two_grid.N),
                    j, two_grid,
                )
                for j in range(2)
            ]
            scale = sum(np.linalg.norm(t) ** 2 for t in traces)
            assert ct.passivity_defect(traces, s, 1.0, two_grid, C) >= -1e-12 * scale
            assert ct.passivity_defect(traces[:1], s, 1.0, two_grid, C) >= -1e-12 * scale

    def test_rejects_bad_frequency(self, unit_grid):
        for s in (-1.0, complex("nan")):
            with pytest.raises(DomainError):
                ct.passivity_defect([np.zeros(unit_grid.N, complex)], s, 1.0, unit_grid, C)


class TestPeriodization:
    def test_margin_controls_truncation_error(self):
        # Same sample spacing, doubling the period: the operator restricted
        # to the aperture converges fast as the zero-extension margin grows.
        s = 1.0 + 0.5j
        results = {}
        for L, n in ((4.0, 128), (8.0, 256), (16.0, 512)):
            grid = ct.TraceGrid(L=L, N=n, apertures=((-0.5, 0.5),))
            pulse = np.exp(-grid.x**2 / 0.05).astype(complex)
            u = ct.restrict(pulse, 0, grid)
            results[L] = ct.apply_B(u, s, grid, C)[grid.masks[0]]
        d_small = np.linalg.norm(results[4.0] - results[8.0]) / np.linalg.norm(results[8.0])
        d_large = np.linalg.norm(results[8.0] - results[16.0]) / np.linalg.norm(results[16.0])
        assert d_small < 1e-3
        assert d_large < d_small / 10.0


class TestApertureNorm:
    def test_rows_equal_zero_extended_trace_norm(self, two_grid, rng):
        # Each of 130 rows normed at once is the -1/2 trace norm of its
        # zero extension, bit for bit.
        real = rng.standard_normal((130, two_grid.N))
        for rows in (real, real + 1j * rng.standard_normal((130, two_grid.N))):
            got = aperture_norm_rows(rows, two_grid)
            ref = [ct.trace_norm(np.where(two_grid.union_mask, row, 0), -0.5, two_grid)
                   for row in rows]
            assert got.shape == (130,)
            assert got.tolist() == ref
            extended = np.where(two_grid.union_mask, rows, 0)
            assert ct.trace_norm(extended, -0.5, two_grid).tolist() == got.tolist()

    def test_grid_mismatch(self, two_grid):
        for rows in (np.ones((3, 1)), np.ones(two_grid.N), np.ones((3, 64))):
            with pytest.raises(GridMismatch):
                aperture_norm_rows(rows, two_grid)
