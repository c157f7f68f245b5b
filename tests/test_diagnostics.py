import json

import numpy as np
import pytest

import cavitytd as ct
from cavitytd import cli, cq, diagnostics
from cavitytd.cq import CqScheme, dtn_weights
from cavitytd.errors import DimensionMismatch
from cavitytd.fem import assemble_all
from cavitytd.incident import boundary_data_bundle
from cavitytd.trace import pairing_terms

from conftest import (
    CONFIG_DIR,
    DTN_MUTATIONS,
    mutate_dtn_weights,
    run_recorded,
    time_derivative,
)


def element_loop_energy(mesh, cavity, u, du):
    """Independent oracle: triangle-by-triangle 3-point quadrature."""
    kin = 0.0
    pot = 0.0
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        area = 0.5 * (
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
        )
        gx = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]]) / (2 * area)
        gy = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]]) / (2 * area)
        grad = np.array([gx @ u[tri], gy @ u[tri]])
        lam = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        qpts = lam @ p
        eps_q = cavity.epsilon(qpts[:, 0], qpts[:, 1])
        inv_mu_q = 1.0 / cavity.mu(qpts[:, 0], qpts[:, 1])
        du_q = lam @ du[tri]
        kin += (area / 3.0) * np.sum(eps_q * du_q**2)
        pot += (area / 3.0) * np.sum(inv_mu_q) * (grad @ grad)
    return kin, pot


@pytest.fixture(scope="module")
def small_run(unit_scene, unit_meshes, unit_grid, gaussian_wave):
    scheme = CqScheme(dt=10.0 / 80, steps=80)
    sol, fields = run_recorded(unit_scene, unit_meshes, unit_grid, gaussian_wave, scheme)
    series = boundary_data_bundle(gaussian_wave, unit_grid, sol.times)
    et = diagnostics.energy(sol, series)
    return sol, fields, et


def rest_wave():
    """A plane wave of zero amplitude."""
    prof = ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5, amplitude=0.0)
    return ct.PlaneWave(profile=prof, theta=np.pi / 2)


def rest_series(grid, times):
    """Zero boundary data on the given time grid."""
    return boundary_data_bundle(rest_wave(), grid, times)


def flux_trace(flux):
    """A record with the given boundary flux on t = 0, 1, ...; all else zero."""
    zero = np.zeros(flux.size)
    rows = dict.fromkeys(cq.FORMS, zero) | {"flux": flux}
    return diagnostics.EnergyTrace(
        np.arange(float(flux.size)), **rows, g_norm=zero, dg_norm=zero, d2g_norm=zero
    )


class TestEnergy:
    def test_zero_solution(self, unit_scene, unit_meshes, unit_grid):
        scheme = CqScheme(dt=0.1, steps=5)
        sol = ct.run_time_domain(unit_scene, unit_meshes, unit_grid, rest_wave(), scheme)
        et = diagnostics.energy(sol, rest_series(unit_grid, sol.times))
        assert np.all(et.total == 0.0)

    def test_mismatched_inputs_rejected(self, unit_scene, unit_meshes, unit_grid):
        scheme = CqScheme(dt=0.1, steps=5)
        sol = ct.run_time_domain(unit_scene, unit_meshes, unit_grid, rest_wave(), scheme)
        with pytest.raises(DimensionMismatch):
            diagnostics.energy(sol, rest_series(unit_grid, 2.0 * sol.times))

    def test_linear_history_constant_kinetic(self, unit_scene, unit_meshes, unit_grid, rng,
                                             monkeypatch):
        # u(., t) = t*w in place of the step solves: the march's
        # second-order difference quotient returns w exactly from step 1,
        # so the kinetic term is constant and the potential grows like t^2.
        fems = assemble_all(unit_scene, unit_meshes, unit_grid)
        free = fems[0].free_nodes
        w = np.zeros(fems[0].n_nodes)
        w[free] = rng.standard_normal(free.size)
        scheme = CqScheme(dt=0.1, steps=7)
        t = scheme.times()
        steps = iter(t)
        monkeypatch.setattr(cq, "certified_solve", lambda op, b, where: (next(steps) * w[free], 0.0))
        sol = ct.run_time_domain(unit_scene, unit_meshes, unit_grid, rest_wave(), scheme)
        et = diagnostics.energy(sol, rest_series(unit_grid, t))
        expected = float(w @ (fems[0].mass @ w))
        assert np.allclose(et.kinetic[1:], expected, rtol=1e-12)
        pot1 = float(w @ (fems[0].stiffness @ w))
        assert np.allclose(et.potential, pot1 * t**2, rtol=1e-12, atol=1e-13)

    def test_matrix_path_equals_element_loop(self, unit_scene, unit_meshes, small_run):
        sol, fields, et = small_run
        du = time_derivative(fields[0], sol.scheme.dt)
        n = 40
        kin, pot = element_loop_energy(
            unit_meshes[0], unit_scene.cavities[0], fields[0][n], du[n]
        )
        total = kin + pot
        assert et.total[n] == pytest.approx(total, rel=1e-12)

    def test_initial_energy_negligible(self, small_run):
        *_, et = small_run
        assert et.total[0] <= 1e-10 * et.total.max()

    def test_data_norm_columns(self, small_run, tmp_path):
        *_, et = small_run
        assert et.g_l1 is not None and et.dg_max is not None
        assert np.all(np.diff(et.g_l1) >= 0.0)
        assert np.all(np.diff(et.dg_max) >= 0.0)
        path = tmp_path / "energy.csv"
        diagnostics.save_energy_csv(path, et)
        header = path.read_text().splitlines()[0]
        assert header == "t,total,kinetic,potential,g_l1,dg_max,d2g_l1"


class TestDissipation:
    # The apertures dissipate: the cumulative outflow F_n never falls below
    # zero, whatever the cavity energy does from step to step.
    def test_monotone_series_passes(self):
        et = flux_trace(np.array([0.0, 1.0, 3.0, 2.0, 0.0]))
        assert diagnostics.passivity_deficit(et) == 0.0
        et = flux_trace(np.array([1.0, 1.0, -0.5, 0.25]))
        assert diagnostics.passivity_deficit(et) == pytest.approx(-1.0 / 2.0, rel=1e-12)

    def test_negative_partial_sum_detected(self):
        # F = (1, 3, -1, 1): the outflow dips below zero after step 2.
        et = flux_trace(np.array([1.0, 2.0, -4.0, 2.0]))
        assert diagnostics.passivity_deficit(et) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert not diagnostics.passivity_deficit(et) <= diagnostics.TIME_DEFECT_TOL

    def test_zero_outflow_reads_zero(self):
        assert diagnostics.passivity_deficit(flux_trace(np.zeros(5))) == 0.0

    def test_nan_flux_reads_false(self):
        et = flux_trace(np.array([1.0, np.nan, 1.0]))
        assert not diagnostics.passivity_deficit(et) <= diagnostics.TIME_DEFECT_TOL

    def test_reference_run_dissipates(self, reference_single):
        _, scene, meshes, grid, pw, scheme = reference_single
        sol = ct.run_time_domain(scene, meshes, grid, pw, scheme)
        et = diagnostics.energy(sol, boundary_data_bundle(pw, grid, sol.times))
        assert diagnostics.passivity_deficit(et) <= 0.0


class TestStabilityChecks:
    def test_stability_record(self, small_run):
        # The shipped pin belongs to the reference configuration; this run's
        # ratio passes a pin of 0.5 and fails one of 0.1 (with PIN_MARGIN).
        *_, et = small_run
        rec = diagnostics.stability_check(et)
        assert rec.lhs > 0.0 and rec.rhs > 0.0
        assert rec.ratio == rec.lhs / rec.rhs
        assert 0.1 * diagnostics.PIN_MARGIN < rec.ratio <= 0.5 * diagnostics.PIN_MARGIN

    def test_homogeneity_under_amplitude(self, unit_scene, unit_meshes, unit_grid):
        ratios = []
        for amp in (1.0, 2.0):
            prof = ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5, amplitude=amp)
            pw = ct.PlaneWave(profile=prof, theta=np.pi / 2)
            scheme = CqScheme(dt=0.125, steps=48)
            sol = ct.run_time_domain(unit_scene, unit_meshes, unit_grid, pw, scheme)
            et = diagnostics.energy(sol, boundary_data_bundle(pw, unit_grid, sol.times))
            stab = diagnostics.stability_check(et)
            apr = diagnostics.apriori_check(et)
            ratios.append((stab.ratio, apr.linf_ratio, apr.l2_ratio))
        for a, b in zip(ratios[0], ratios[1]):
            assert b == pytest.approx(a, rel=1e-12)

    def test_zero_data_zero_ratios(self, unit_scene, unit_meshes, unit_grid):
        prof = ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5, amplitude=0.0)
        pw = ct.PlaneWave(profile=prof, theta=np.pi / 2)
        scheme = CqScheme(dt=0.25, steps=24)
        sol = ct.run_time_domain(unit_scene, unit_meshes, unit_grid, pw, scheme)
        et = diagnostics.energy(sol, boundary_data_bundle(pw, unit_grid, sol.times))
        rec = diagnostics.stability_check(et)
        assert rec.lhs == 0.0
        assert rec.ratio == 0.0
        apr = diagnostics.apriori_check(et)
        assert apr.linf_ratio == 0.0 and apr.l2_ratio == 0.0

    def test_two_resolution_robustness(self, reference_single):
        # Refining both mesh and step leaves the stability ratio within 20%.
        _, scene, _, grid, pw, _ = reference_single
        ratios = []
        for h, steps in ((0.1, 128), (0.05, 256)):
            meshes = ct.mesh_scene(scene, h)
            scheme = CqScheme(dt=16.0 / steps, steps=steps)
            sol = ct.run_time_domain(scene, meshes, grid, pw, scheme)
            et = diagnostics.energy(sol, boundary_data_bundle(pw, grid, sol.times))
            rec = diagnostics.stability_check(et)
            ratios.append(rec.ratio)
        assert abs(ratios[1] - ratios[0]) <= 0.2 * ratios[0]

    def test_apriori_deterministic(self, small_run):
        *_, et = small_run
        a = diagnostics.apriori_check(et)
        b = diagnostics.apriori_check(et)
        assert a.linf_ratio == b.linf_ratio
        assert a.l2_ratio == b.l2_ratio


def shipped_grid(name):
    """A shipped config's scene and trace grid, without meshing."""
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    scene = ct.build_scene(config)
    return scene, ct.TraceGrid(config["trace"]["L"], config["trace"]["N"], scene.apertures)


# The frequencies validate certifies.
S_LATTICE = cli._S_LATTICE


class TestPassivityCertificates:
    @pytest.mark.parametrize("name", ["reference_single", "reference_two", "reference_three"])
    def test_clean_weights_read_below_zero(self, name):
        scene, grid = shipped_grid(name)
        assert diagnostics.time_passivity(grid, scene.c) < 0.0
        assert diagnostics.frequency_passivity(grid, scene.c, S_LATTICE, scene.mu0) < 0.0

    @pytest.mark.parametrize("mutation", sorted(DTN_MUTATIONS))
    def test_mutated_weights_read_above_limit(self, monkeypatch, mutation):
        # Each edit makes the pairing indefinite for some history of the
        # certificate's 35 steps; "omega1-negated" is the flipped_dtn_weight
        # fixture's edit.
        scene, grid = shipped_grid("reference_three")
        mutate_dtn_weights(monkeypatch, *DTN_MUTATIONS[mutation])
        assert diagnostics.time_passivity(grid, scene.c) > diagnostics.TIME_DEFECT_TOL

    def test_extreme_eigenvector_is_a_witness(self, two_grid):
        # The top eigenvector of a mutated S_m, as the history of mode m
        # alone, paired as the march pairs it (direct causal convolution,
        # BDF2 difference, trace.pairing_terms): the pairing is
        # -(dx/(mu0 N)) mult_m lambda_max, negative.
        mu0, dt = 1.3, diagnostics._TD_DT
        omega, _ = dtn_weights(two_grid, 1.0, CqScheme(dt=dt, steps=diagnostics._TD_STEPS))
        omega[1:] *= -1.0
        lam, vec = np.linalg.eigh(diagnostics.pairing_forms(omega, dt))
        m = int(np.argmax(lam[:, -1]))
        assert lam[m, -1] > 0.0
        n1 = omega.shape[0]
        hist = np.zeros((n1, omega.shape[1]), complex)
        hist[:, m] = vec[m, :, -1]
        conv = np.zeros_like(hist)
        for k in range(n1):
            conv[k:] += omega[k] * hist[: n1 - k]
        d1 = np.zeros_like(hist)
        for k, b in enumerate(cq.BDF2):
            d1[k:] += b * hist[: n1 - k]
        d1 /= dt
        pairing = float(np.sum(pairing_terms(conv, d1, two_grid, mu0)))
        weight = two_grid.dx / (mu0 * two_grid.N) * two_grid.rfft_multiplicity[m]
        assert -pairing / weight == pytest.approx(lam[m, -1], rel=1e-12)

    @pytest.mark.parametrize("s", [1.0 + 0.0j, 0.01 + 7.0j, 3.0 - 2.0j])
    def test_single_mode_defect_is_the_form_coefficient(self, two_grid, s):
        # The trace exp(i xi_m x) has the one coefficient 1 at mode m, so its
        # defect is L c_m(s) / mult_m.
        mu0 = 1.3
        forms = np.concatenate(list(diagnostics.frequency_forms(two_grid, 1.0, [s], mu0)), axis=1)
        for m in (0, 1, 17, two_grid.N // 2):
            u = np.exp(1j * two_grid.xi[m] * two_grid.x)
            defect = ct.passivity_defect([u], s, mu0, two_grid, 1.0)
            expected = two_grid.L * forms[0, m] / two_grid.rfft_multiplicity[m]
            assert defect == pytest.approx(expected, rel=1e-12)
