import re

import numpy as np
import pytest

import cavitytd as ct
from cavitytd import cq, fem, freq
from cavitytd.cq import CqScheme
from cavitytd.errors import DimensionMismatch, FactorizationFailure
from cavitytd.incident import ROW_BLOCK, boundary_data_series
from cavitytd.io import probe_matrix
from cavitytd.trace import aperture_norm_rows, pairing_terms

from conftest import (
    REFERENCE_CONTOUR_TOL,
    FieldRecorder,
    contour_radius,
    cq_frequencies,
    laplace_inversion,
    load_reference,
    run_all_at_once,
    run_recorded,
    time_derivative,
)

# Aliasing target of the contour tests.
CONTOUR_TOL = 1e-14


class TestCqScheme:
    def test_validation(self):
        with pytest.raises(ValueError):
            CqScheme(dt=0.0, steps=16)
        with pytest.raises(ValueError):
            CqScheme(dt=float("nan"), steps=16)
        with pytest.raises(ValueError):
            CqScheme(dt=0.1, steps=1)
        with pytest.raises(ValueError):
            cq_frequencies(CqScheme(dt=0.1, steps=16), 1.5)

    def test_generating_symbol(self):
        assert CqScheme.generating_symbol(1.0) == 0.0
        assert CqScheme.generating_symbol(0.0) == 1.5

    def test_first_node_real_positive(self):
        scheme = CqScheme(dt=0.05, steps=32)
        s = cq_frequencies(scheme, CONTOUR_TOL)
        lam = contour_radius(scheme, CONTOUR_TOL)
        expected = (3.0 - 4.0 * lam + lam * lam) / (2.0 * 0.05)
        assert s[0].imag == 0.0
        assert s[0].real == pytest.approx(expected, rel=1e-14)

    def test_radius_near_one_stays_admissible(self):
        # contour radius -> 1: the first node approaches 0 from the right
        scheme = CqScheme(dt=0.1, steps=32)
        s = cq_frequencies(scheme, 0.999)
        assert s[0].real > 0.0
        assert s[0].real < 0.2

    def test_all_nodes_admissible(self):
        for steps in (16, 31, 64):
            s = cq_frequencies(CqScheme(dt=0.02, steps=steps), CONTOUR_TOL)
            assert np.all(s.real > 0.0)

    def test_conjugate_symmetry(self):
        scheme = CqScheme(dt=0.05, steps=33)
        s = cq_frequencies(scheme, CONTOUR_TOL)
        n1 = scheme.steps + 1
        for l in range(1, n1):
            assert s[n1 - l] == pytest.approx(np.conj(s[l]), rel=1e-14)


def _seven_smooth(m):
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


class TestDtnWeights:
    @pytest.mark.parametrize("steps", [128, 512, 2048])
    def test_smooth_contour_matches_the_4n_contour(self, steps, unit_scene, unit_grid,
                                                   monkeypatch):
        # The weight contour takes the smallest 7-smooth length M >= 4(N+1);
        # any M with rho^M = 1e-16 gives the weights to round-off.
        n1 = steps + 1
        m = cq._contour_length(n1)
        assert _seven_smooth(m) and m >= 4 * n1
        assert not any(_seven_smooth(k) for k in range(4 * n1, m))
        scheme = CqScheme(dt=16.0 / steps, steps=steps)
        omega, imag = cq.dtn_weights(unit_grid, unit_scene.c, scheme)
        monkeypatch.setattr(cq, "_contour_length", lambda n1: 4 * n1)
        ref, _ = cq.dtn_weights(unit_grid, unit_scene.c, scheme)
        assert np.max(np.abs(omega - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert imag <= cq.REALNESS_LIMIT


class TestRunTimeDomain:
    def run(self, scene, meshes, grid, pw, steps=48, T=6.0):
        return ct.run_time_domain(scene, meshes, grid, pw, CqScheme(dt=T / steps, steps=steps))

    def run_recorded(self, scene, meshes, grid, pw, steps=48, T=6.0):
        return run_recorded(scene, meshes, grid, pw, CqScheme(dt=T / steps, steps=steps))

    def run_observed(self, scene, meshes, grid, pw, observer, steps=48, T=6.0, **kwargs):
        scheme = CqScheme(dt=T / steps, steps=steps)
        return ct.run_time_domain(scene, meshes, grid, pw, scheme, observer, **kwargs)

    def test_zero_data_zero_solution(self, unit_scene, unit_meshes, unit_grid):
        prof = ct.WaveProfile(kind="gaussian-pulse", center=3.0, width=0.4, amplitude=0.0)
        pw = ct.PlaneWave(profile=prof, theta=1.0)
        sol, fields = self.run_recorded(unit_scene, unit_meshes, unit_grid, pw)
        assert all(np.all(f == 0.0) for f in fields)
        assert np.all(sol.forms == 0.0) and np.all(sol.state_norm == 0.0)
        assert sol.initial_ratio == 0.0

    def test_rejects_wave_of_another_exterior(self, unit_meshes, unit_grid, gaussian_wave):
        # The DtN weights take the scene's exterior and the data the wave's;
        # a wave built for eps0 = 1 does not drive a scene with eps0 = 4.
        dense = ct.build_scene(
            {"scene": {"eps0": 4.0, "mu0": 1.0,
                       "cavities": [{"aperture": [-0.5, 0.5], "depth": 1.0,
                                     "epsilon": 4.0, "mu": 1.0}]}}
        )
        with pytest.raises(DimensionMismatch):
            self.run(dense, unit_meshes, unit_grid, gaussian_wave)

    def test_amplitude_linearity(self, unit_scene, unit_meshes, unit_grid):
        sols = []
        for amp in (1.0, 2.0):
            prof = ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5, amplitude=amp)
            pw = ct.PlaneWave(profile=prof, theta=np.pi / 2)
            sols.append(self.run_recorded(unit_scene, unit_meshes, unit_grid, pw)[1])
        scale = np.max(np.abs(sols[1][0]))
        assert np.max(np.abs(sols[1][0] - 2.0 * sols[0][0])) <= 1e-10 * scale

    def test_initial_rest_state(self, unit_scene, unit_meshes, unit_grid):
        # 8-width delay: the data tail at t = 0 sits below the rest-state bar
        prof = ct.WaveProfile(kind="gaussian-pulse", center=4.0, width=0.5)
        pw = ct.PlaneWave(profile=prof, theta=np.pi / 2)
        sol, fields = self.run_recorded(unit_scene, unit_meshes, unit_grid, pw, T=7.0)
        norms = sol.state_norm
        assert norms[0] <= 1e-10 * norms.max()
        deriv = [time_derivative(u, sol.scheme.dt) for u in fields]
        d0 = np.sqrt(sum(np.sum(d[0] ** 2) for d in deriv))
        dmax = max(np.max(np.abs(d)) for d in deriv)
        assert d0 <= 1e-10 * max(dmax, 1.0)

    def test_causality_before_arrival(self, unit_scene, unit_meshes, unit_grid, gaussian_wave):
        sol = self.run(unit_scene, unit_meshes, unit_grid, gaussian_wave, steps=96, T=7.0)
        norms = sol.state_norm
        peak = norms.max()
        arrival = gaussian_wave.profile.center - 6.0 * gaussian_wave.profile.width
        early = norms[sol.times < arrival]
        assert np.all(early <= 1e-6 * peak)

    def test_streamed_data_norm_row(self, unit_scene, unit_meshes, unit_grid, gaussian_wave):
        # The march samples g one block of ROW_BLOCK steps at a time and
        # records its norm row, which equals the full series' bitwise, over
        # a partial last block too.
        sol = self.run(unit_scene, unit_meshes, unit_grid, gaussian_wave, steps=100, T=7.0)
        assert sol.times.size % ROW_BLOCK != 0
        full = boundary_data_series(gaussian_wave, unit_grid, sol.times)
        assert np.array_equal(sol.g, aperture_norm_rows(full, unit_grid))

    def test_imag_residue_small(self, unit_scene, unit_meshes, unit_grid,
                                gaussian_wave, monkeypatch):
        splu, calls = fem.spla.splu, []
        monkeypatch.setattr(fem.spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        sol = self.run(unit_scene, unit_meshes, unit_grid, gaussian_wave)
        assert 0.0 < sol.imag_residue <= 1e-10
        # One factorization of the step matrix, whatever the step count.
        assert len(calls) == 1
        assert sol.lu_nnz > 0 and sol.n_dofs > 0

    def test_imag_residue_detects_injected_imag(self, unit_scene, unit_meshes, unit_grid,
                                                gaussian_wave, monkeypatch):
        # W0 is real by construction, so the DtN weights are the one place
        # the march drops an imaginary part.  Turning the weight contour's
        # frequencies by a small angle eps breaks their conjugate symmetry:
        # the weights gain imaginary parts proportional to eps, which show
        # in the residue and fail the 1e-10 realness check.
        delta = CqScheme.generating_symbol
        residues = []
        for eps in (1e-6, 2e-6):
            turned = staticmethod(lambda zeta, e=eps: delta(zeta) * (1.0 + 1j * e))
            monkeypatch.setattr(CqScheme, "generating_symbol", turned)
            sol = self.run(unit_scene, unit_meshes, unit_grid, gaussian_wave)
            residues.append(sol.imag_residue)
        assert residues[0] > 1e-10
        assert residues[1] == pytest.approx(2.0 * residues[0], rel=1e-3)

    def test_node_solves_certified(self, unit_scene, unit_meshes, unit_grid,
                                   gaussian_wave, monkeypatch):
        sol = self.run(unit_scene, unit_meshes, unit_grid, gaussian_wave)
        assert 0.0 < sol.max_residual <= 1e-10
        assert 0 <= sol.worst_step <= sol.scheme.steps
        # Above the limit the run fails and names the step and its time.
        monkeypatch.setattr(freq, "_RESIDUAL_LIMIT", 1e-300)
        with pytest.raises(FactorizationFailure, match=re.escape("at step 0 (t=0)")):
            self.run(unit_scene, unit_meshes, unit_grid, gaussian_wave)

    def test_threads_deterministic(self, unit_scene, unit_meshes, unit_grid, gaussian_wave):
        sol1, fields1 = self.run_recorded(unit_scene, unit_meshes, unit_grid, gaussian_wave)
        sol2, fields2 = self.run_recorded(unit_scene, unit_meshes, unit_grid, gaussian_wave)
        for f1, f2 in zip(fields1, fields2):
            assert np.array_equal(f1, f2)
        assert np.array_equal(sol1.forms, sol2.forms)

    @pytest.mark.parametrize("name", ["reference_single", "reference_two", "reference_three"])
    def test_march_matches_all_at_once(self, name):
        # The CQ calculus is an algebra homomorphism: the march and the
        # contour realization of the same scheme agree up to round-off.
        _, scene, meshes, grid, pw, scheme = load_reference(name)
        assert scheme.steps == 128
        _, march = run_recorded(scene, meshes, grid, pw, scheme)
        ref = run_all_at_once(scene, meshes, grid, pw, scheme, REFERENCE_CONTOUR_TOL)
        peak = max(np.max(np.abs(f)) for f in ref)
        diff = max(np.max(np.abs(a - b)) for a, b in zip(march, ref))
        assert diff <= 1e-8 * peak

    @pytest.mark.parametrize("name, edits", [
        pytest.param(name, None, id=name)
        for name in ("reference_single", "reference_two", "reference_three")
    ] + [
        # Variable permeability too, so that all four form matrices are
        # distinct: mu is 1 on a collar of depth 0.3 beneath the aperture
        # and 1 - 0.3 sin(pi x) (y + 0.3) below it.
        pytest.param("reference_two",
                     {1: {"mu": "1 + 0.15*sin(pi*x)*(abs(y + 0.3) - (y + 0.3))",
                          "collar": 0.3}},
                     id="reference_two_variable_mu"),
    ])
    def test_streamed_forms_match_the_history_walk(self, name, edits):
        # The march accumulates its forms step by step from the products of
        # each form matrix with the latest states; walking the recorded
        # history afterwards, with time_derivative building du/dt and the
        # DtN convolution of the whole trace history, gives the same record
        # up to the order of summation.
        _, scene, meshes, grid, pw, scheme = load_reference(name, edits)
        sol, fields = run_recorded(scene, meshes, grid, pw, scheme)
        fems = fem.assemble_all(scene, meshes, grid)
        if edits is not None:
            pattern = fem.SystemPattern.from_fems(fems)
            assert pattern.stiffness_unit is not pattern.stiffness
            assert pattern.mass_unit is not pattern.mass

        def form(block, matrix):
            return np.einsum("ni,ni->n", block, (matrix @ block.T).T)

        walked = dict.fromkeys(cq.FORMS, 0.0)
        for f, u in zip(fems, fields):
            du = time_derivative(u, scheme.dt)
            for key, block, matrix in (
                ("kinetic", du, f.mass), ("potential", u, f.stiffness),
                ("du_l2", du, f.mass_unit), ("du_h1", du, f.stiffness_unit),
                ("u_l2", u, f.mass_unit), ("u_h1", u, f.stiffness_unit),
            ):
                walked[key] = walked[key] + form(block, matrix)
        trace = np.fft.rfft(sum(f.restriction @ u.T for f, u in zip(fems, fields)).T, axis=1)
        omega, _ = cq.dtn_weights(grid, scene.c, scheme)
        conv = np.zeros_like(trace)
        for k in range(scheme.steps + 1):
            conv[k:] += omega[k] * trace[: scheme.steps + 1 - k]
        # The BDF2 difference of a history at rest before t = 0.
        d1 = 3.0 * trace
        d1[1:] -= 4.0 * trace[:-1]
        d1[2:] += trace[:-2]
        d1 /= 2.0 * scheme.dt
        walked["flux"] = np.sum(pairing_terms(conv, d1, grid, scene.mu0), axis=1)
        for key, got in zip(cq.FORMS, sol.forms):
            ref = walked[key]
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), key
        norms = np.sqrt(sum(np.sum(u * u, axis=1) for u in fields))
        assert np.allclose(sol.state_norm, norms, rtol=1e-12, atol=0.0)

    def test_probe_record_matches_the_recorded_fields(self):
        # The march records its probes from free-DOF rows of the probe
        # stencils; the stencils applied to the full fields give the same
        # values up to the order of summation.
        config, scene, meshes, grid, pw, scheme = load_reference("reference_three")
        points = config["probes"] + [
            [a + 0.3 * (b - a), -0.4 * cav["depth"]]
            for cav in config["scene"]["cavities"] for a, b in [cav["aperture"]]
        ]
        stencils = probe_matrix(meshes, points)
        recorder = FieldRecorder()
        sol = ct.run_time_domain(scene, meshes, grid, pw, scheme, recorder, probes=stencils)
        fields = recorder.fields
        expected = np.stack([fields[ci] @ w for ci, w in stencils])
        assert sol.probes.shape == (len(points), scheme.steps + 1)
        assert {ci for ci, _ in stencils} == {0, 1, 2}
        peak = np.max(np.abs(expected))
        assert peak > 0.0
        assert np.max(np.abs(sol.probes - expected)) <= 1e-14 * peak
        bare = ct.run_time_domain(scene, meshes, grid, pw, scheme)
        assert bare.probes.shape == (0, scheme.steps + 1)

    @pytest.mark.parametrize("every", [1, 5, 48, 49])
    def test_observer_cadence(self, unit_scene, unit_meshes, unit_grid, gaussian_wave, every):
        seen = []
        self.run_observed(unit_scene, unit_meshes, unit_grid, gaussian_wave,
                          lambda n, fields: seen.append(n), observe_every=every)
        assert seen == [n for n in range(49) if n % every == 0]
        with pytest.raises(ValueError):
            self.run_observed(unit_scene, unit_meshes, unit_grid, gaussian_wave,
                              lambda n, fields: None, observe_every=0)

    def test_default_cadence_delivers_every_step(self, unit_scene, unit_meshes, unit_grid,
                                                 gaussian_wave):
        _, fields = self.run_recorded(unit_scene, unit_meshes, unit_grid, gaussian_wave)
        assert all(f.shape[0] == 49 for f in fields)

    @pytest.mark.parametrize("steps, every, observed", [(100, 7, True), (127, 1, True),
                                                        (128, 1, False)])
    def test_march_dispatch_counts(self, unit_scene, unit_meshes, unit_grid, gaussian_wave,
                                   monkeypatch, steps, every, observed):
        # The march loads one block of ROW_BLOCK steps per apply_rhs call
        # and expands fields only on the steps its observer sees: a march
        # that goes back to a load or an expansion per step fails here.
        calls = {"apply_rhs": 0, "expand": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cq, "apply_rhs", counting("apply_rhs", cq.apply_rhs))
        monkeypatch.setattr(freq.FrequencySolver, "expand",
                            counting("expand", freq.FrequencySolver.expand))
        observer = (lambda n, fields: None) if observed else None
        self.run_observed(unit_scene, unit_meshes, unit_grid, gaussian_wave, observer,
                          steps=steps, observe_every=every)
        assert calls["apply_rhs"] == -(-(steps + 1) // ROW_BLOCK)
        assert calls["expand"] == (-(-(steps + 1) // every) if observed else 0)

    def test_multi_cavity_coupling_reaches_far_cavity(self, two_scene, two_meshes, two_grid):
        # Oblique pulse arriving from the left: the right cavity's field is
        # nonzero well before its direct illumination would vanish, and the
        # run reports energy in both cavities.
        prof = ct.WaveProfile(kind="gaussian-pulse", center=4.0, width=0.5)
        pw = ct.PlaneWave(profile=prof, theta=2.0)
        _, fields = self.run_recorded(two_scene, two_meshes, two_grid, pw, steps=64, T=8.0)
        assert np.max(np.abs(fields[0])) > 0.0
        assert np.max(np.abs(fields[1])) > 0.0


# The time-exact reference: inversion along Re s = 0.3 with step 2 pi / 96
# up to omega = 14, and a second setting that must agree with it.
INVERSION = (0.3, 96.0, 14.0)
INVERSION_CHECK = (0.4, 128.0, 18.0)
# The march's largest error at the shipped dt = 0.125 against the reference,
# relative to its peak over every node and step (t <= 16), rounded up from
# the measured 0.156 and 0.145.
SHIPPED_DT_ERROR = {"reference_single": 0.16, "reference_three": 0.15}


class TestTimeExactReference:
    def test_inversion_agrees_with_itself(self, reference_single):
        # A change of (a, P, Omega) moves the reference by under 1e-8 of peak.
        _, scene, meshes, grid, pw, scheme = reference_single
        solver = freq.FrequencySolver(scene, meshes, grid)
        refs = [np.concatenate(laplace_inversion(solver, pw, scheme.times(), *setting),
                               axis=1)
                for setting in (INVERSION, INVERSION_CHECK)]
        peak = np.max(np.abs(refs[0]))
        assert np.max(np.abs(refs[0] - refs[1])) <= 1e-8 * peak

    @pytest.mark.parametrize("name", SHIPPED_DT_ERROR)
    def test_march_converges_at_second_order(self, name):
        # The march at the shipped dt, dt/2 and dt/4 against the time-exact
        # reference: BDF2's order, at least 1.7 per halving, and no more
        # error at the shipped dt than measured.
        _, scene, meshes, grid, pw, scheme = load_reference(name)
        assert scheme.dt == 0.125 and scheme.steps == 128
        solver = freq.FrequencySolver(scene, meshes, grid)
        fine = CqScheme(dt=scheme.dt / 4, steps=4 * scheme.steps)
        ref = np.concatenate(laplace_inversion(solver, pw, fine.times(), *INVERSION), axis=1)
        peak = np.max(np.abs(ref))
        errors = []
        for k in (1, 2, 4):
            march = CqScheme(dt=scheme.dt / k, steps=k * scheme.steps)
            _, fields = run_recorded(scene, meshes, grid, pw, march)
            diff = np.concatenate(fields, axis=1) - ref[:: 4 // k]
            errors.append(np.max(np.abs(diff)) / peak)
        orders = np.log2(errors[:-1]) - np.log2(errors[1:])
        assert errors[0] <= SHIPPED_DT_ERROR[name]
        assert np.all(orders >= 1.7)


class TestTimeDerivative:
    def test_constant_history(self):
        w = np.array([1.0, 2.0, 3.0])
        d = time_derivative(np.tile(w, (6, 1)), 0.1)
        assert np.allclose(d, 0.0, atol=1e-14)

    def test_exact_on_linear(self):
        dt = 0.1
        w = np.array([1.0, -2.0, 0.5])
        t = dt * np.arange(7)
        d = time_derivative(np.outer(t, w), dt)
        for n in range(1, 7):
            assert np.allclose(d[n], w, rtol=1e-13)

    def test_exact_on_quadratic(self):
        dt = 0.05
        w = np.array([2.0, 1.0])
        t = dt * np.arange(9)
        d = time_derivative(np.outer(t**2, w), dt)
        for n in range(2, 9):
            assert np.allclose(d[n], 2.0 * t[n] * w, rtol=1e-12)

    def test_requires_two_steps(self):
        with pytest.raises(ValueError):
            time_derivative(np.zeros((2, 3)), 0.1)
