import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

import cavitytd as ct
from cavitytd.errors import DomainError
from cavitytd.incident import (
    CAUSALITY_LIMIT,
    MAX_AMPLITUDE,
    ROW_BLOCK,
    _quad_g_laplace,
    boundary_data_bundle,
    boundary_data_series,
)
from cavitytd.trace import aperture_norm_rows

from conftest import evaluate_incident, evaluate_reflected


@pytest.fixture
def gauss():
    return ct.WaveProfile(kind="gaussian-pulse", center=3.0, width=0.4)


@pytest.fixture
def bump():
    return ct.WaveProfile(kind="smooth-bump", center=3.0, width=1.0)


class TestWaveProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            ct.WaveProfile(kind="square", center=1.0, width=0.5)
        with pytest.raises(ValueError):
            ct.WaveProfile(kind="gaussian-pulse", center=-1.0, width=0.5)
        with pytest.raises(ValueError):
            ct.WaveProfile(kind="gaussian-pulse", center=1.0, width=0.0)
        # NaN compares false both ways, so it must not pass `x <= 0`.
        for center, width in ((np.nan, 0.5), (3.5, np.nan)):
            with pytest.raises(ValueError):
                ct.WaveProfile(kind="gaussian-pulse", center=center, width=width)

    def test_amplitude_range(self):
        # 0 and moduli in [2**-300, 2**300] construct; NaN and any modulus
        # outside, where the march's quadratic forms would leave the normal
        # range, do not.
        assert MAX_AMPLITUDE == 2.0**300
        for amplitude in (0.0, 2.0**-300, -(2.0**-300), 2.0**300, -(2.0**300)):
            ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5, amplitude=amplitude)
        for amplitude in (np.nan, 2.0**-301, -(2.0**-301), 2.0**301, -(2.0**301), np.inf,
                          5e-324):
            with pytest.raises(ValueError, match="amplitude"):
                ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5,
                               amplitude=amplitude)

    def test_causal_tail_enforced(self):
        # center only 2 widths from the origin: tail e^-2 >> tolerance
        with pytest.raises(ValueError):
            ct.WaveProfile(kind="gaussian-pulse", center=1.0, width=0.5)
        with pytest.raises(ValueError):
            ct.WaveProfile(kind="smooth-bump", center=0.5, width=1.0)

    def test_peak_value(self, gauss, bump):
        assert gauss.derivative(3.0, 0) == pytest.approx(1.0)
        assert bump.derivative(3.0, 0) == pytest.approx(1.0)
        assert bump.derivative(4.5, 0) == 0.0  # outside compact support

    @pytest.mark.parametrize("kind", ["gaussian-pulse", "smooth-bump"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, kind, order):
        # loose causality tolerance: this checks calculus, not causality
        prof = ct.WaveProfile(kind=kind, center=3.0, width=0.8, causality_tol=1e-2)
        taus = np.linspace(2.3, 3.7, 11)
        h = 1e-5
        if order == 1:
            fd = (prof.derivative(taus + h, 0) - prof.derivative(taus - h, 0)) / (2 * h)
        elif order == 2:
            fd = (prof.derivative(taus + h, 1) - prof.derivative(taus - h, 1)) / (2 * h)
        else:
            fd = (prof.derivative(taus + h, 2) - prof.derivative(taus - h, 2)) / (2 * h)
        assert np.allclose(prof.derivative(taus, order), fd, rtol=1e-7, atol=1e-6)


class TestPlaneWave:
    def test_angle_validation(self, gauss):
        with pytest.raises(ValueError):
            ct.PlaneWave(profile=gauss, theta=0.0)
        with pytest.raises(ValueError):
            ct.PlaneWave(profile=gauss, theta=np.pi)
        for eps0, mu0 in ((0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError):
                ct.PlaneWave(profile=gauss, theta=np.pi / 2, eps0=eps0, mu0=mu0)

    def test_speed_components(self, gauss):
        pw = ct.PlaneWave(profile=gauss, theta=np.pi / 3, eps0=2.0, mu0=0.5)
        assert pw.c1**2 + pw.c2**2 == pytest.approx(1.0 / (2.0 * 0.5), rel=1e-12)
        assert pw.c2 > 0

    def test_incident_at_origin(self, gauss):
        pw = ct.PlaneWave(profile=gauss, theta=np.pi / 4)
        got = evaluate_incident(pw, 0.0, 0.0, 0.0)
        assert got == pytest.approx(np.exp(-(3.0**2) / (2 * 0.4**2)))

    def test_constant_along_characteristics(self, gauss, rng):
        pw = ct.PlaneWave(profile=gauss, theta=1.1)
        t0, x0, y0 = 2.0, 0.3, 1.5
        phase = t0 + pw.c1 * x0 + pw.c2 * y0
        ref = evaluate_incident(pw, x0, y0, t0)
        for _ in range(20):
            x = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            t = phase - pw.c1 * x - pw.c2 * y
            assert evaluate_incident(pw, x, y, t) == pytest.approx(ref, rel=1e-12)

    def test_normal_incidence_independent_of_x(self, gauss):
        pw = ct.PlaneWave(profile=gauss, theta=np.pi / 2)
        vals = evaluate_incident(pw, np.linspace(-3, 3, 7), 0.5, 2.0)
        assert np.allclose(vals, vals[0])

    def test_trace_cancellation(self, gauss, rng):
        pw = ct.PlaneWave(profile=gauss, theta=1.3)
        x = np.linspace(-2, 2, 41)
        for _ in range(100):
            t = rng.uniform(-1.0, 8.0)
            total = evaluate_incident(pw, x, 0.0, t) + evaluate_reflected(pw, x, 0.0, t)
            assert np.max(np.abs(total)) <= 1e-14 * gauss.amplitude

    def test_sum_nonzero_above_ground(self, gauss):
        pw = ct.PlaneWave(profile=gauss, theta=1.3)
        total = evaluate_incident(pw, 0.0, 0.7, 2.2) + evaluate_reflected(pw, 0.0, 0.7, 2.2)
        assert abs(total) > 1e-6

    @pytest.mark.parametrize("field", ["incident", "reflected"])
    def test_free_space_wave_equation_residual(self, gauss, field):
        # Second-order finite-difference residual of eps0 u_tt - (1/mu0) lap u
        # halves by ~4x per step halving (exterior constants eps0 = mu0 = 1).
        pw = ct.PlaneWave(profile=gauss, theta=1.2)
        fn = evaluate_incident if field == "incident" else evaluate_reflected
        x0, y0, t0 = 0.2, 0.8, 2.4

        def residual(h):
            u_tt = (fn(pw, x0, y0, t0 + h) - 2 * fn(pw, x0, y0, t0) + fn(pw, x0, y0, t0 - h)) / h**2
            u_xx = (fn(pw, x0 + h, y0, t0) - 2 * fn(pw, x0, y0, t0) + fn(pw, x0 - h, y0, t0)) / h**2
            u_yy = (fn(pw, x0, y0 + h, t0) - 2 * fn(pw, x0, y0, t0) + fn(pw, x0, y0 - h, t0)) / h**2
            return abs(u_tt - u_xx - u_yy)

        r1, r2 = residual(2e-3), residual(1e-3)
        assert r1 <= 1e-2  # residual itself is truncation-size, not O(1)
        assert r2 <= r1 / 3.0  # O(h^2) decay


class TestBoundaryData:
    def test_zero_amplitude_gives_zero(self, unit_grid):
        prof = ct.WaveProfile(kind="gaussian-pulse", center=3.0, width=0.4, amplitude=0.0)
        pw = ct.PlaneWave(profile=prof, theta=1.0)
        g = boundary_data_series(pw, unit_grid, [2.0])[0]
        assert np.all(g == 0.0)

    def test_normal_incidence_closed_form(self, gauss, unit_grid):
        pw = ct.PlaneWave(profile=gauss, theta=np.pi / 2)
        t = 2.7
        g = boundary_data_series(pw, unit_grid, [t])[0]
        assert g.dtype == np.float64
        expected = 2.0 * gauss.derivative(np.full(unit_grid.N, t), 1)
        assert np.allclose(g.real, expected, rtol=1e-13)
        assert np.allclose(g, g[0])  # x-independent

    def test_matches_normal_derivative_fd(self, gauss, unit_grid):
        # g equals d/dy (incident + reflected) at y = 0 to O(h^2).
        pw = ct.PlaneWave(profile=gauss, theta=1.2)
        t = 2.9
        g = boundary_data_series(pw, unit_grid, [t])[0].real
        h = 1e-5
        x = unit_grid.x
        up = evaluate_incident(pw, x, h, t) + evaluate_reflected(pw, x, h, t)
        dn = evaluate_incident(pw, x, -h, t) + evaluate_reflected(pw, x, -h, t)
        fd = (up - dn) / (2 * h)
        assert np.allclose(g, fd, rtol=1e-8, atol=1e-8)

    def test_causality(self, gauss, unit_grid):
        # Before t = 0 the data g stays within 1e-6 of the amplitude on the
        # whole grid and the waveform within causality_tol; wherever the
        # wavefront has not arrived (t + c1 x <= 0), g = 2 c2 w' stays within
        # CAUSALITY_LIMIT of its peak, the march's rest-state bar.  The peak
        # of |w'| sits one width before the center.
        pw = ct.PlaneWave(profile=gauss, theta=1.3)
        peak = 2.0 * pw.c2 * abs(gauss.derivative(gauss.center - gauss.width, 1))
        for t in np.linspace(-5.0, 0.0, 21):
            assert abs(gauss.derivative(t, 0)) <= gauss.causality_tol
            g = boundary_data_series(pw, unit_grid, [t])[0]
            assert np.max(np.abs(g)) <= 1e-6 * abs(gauss.amplitude)
            ahead = t + pw.c1 * unit_grid.x <= 0.0
            assert np.max(np.abs(g[ahead])) <= CAUSALITY_LIMIT * peak

    def test_series_matches_pointwise(self, gauss, unit_grid):
        pw = ct.PlaneWave(profile=gauss, theta=1.0)
        times = np.linspace(0.0, 6.0, 13)
        series = boundary_data_series(pw, unit_grid, times)
        for n, t in enumerate(times):
            assert np.allclose(series[n], boundary_data_series(pw, unit_grid, [t])[0].real)

    def test_bundle_derivative_orders(self, gauss, unit_grid):
        # Orders 1 and 2 of the series are the time derivatives of order 0,
        # and the bundle's rows are the norm rows of the series of each
        # order, bitwise, though it streams them one block at a time.
        pw = ct.PlaneWave(profile=gauss, theta=1.0)
        times = np.linspace(0.0, 6.0, 601)  # not a multiple of ROW_BLOCK
        g, dg, d2g = (boundary_data_series(pw, unit_grid, times, order) for order in range(3))
        dt = times[1] - times[0]
        fd = np.gradient(g, dt, axis=0)
        scale = np.max(np.abs(dg))
        assert np.allclose(fd[2:-2], dg[2:-2], rtol=0.01, atol=1e-3 * scale)
        fd2 = np.gradient(dg, dt, axis=0)
        scale2 = np.max(np.abs(d2g))
        assert np.allclose(fd2[2:-2], d2g[2:-2], rtol=0.01, atol=1e-3 * scale2)
        assert times.size % ROW_BLOCK != 0
        bundle = boundary_data_bundle(pw, unit_grid, times)
        assert np.array_equal(bundle.times, times)
        for row, series in ((bundle.g, g), (bundle.dg, dg), (bundle.d2g, d2g)):
            assert np.array_equal(row, aperture_norm_rows(series, unit_grid))


class TestBoundaryDataFreq:
    def test_zero_amplitude(self, unit_grid):
        prof = ct.WaveProfile(kind="gaussian-pulse", center=3.0, width=0.4, amplitude=0.0)
        pw = ct.PlaneWave(profile=prof, theta=1.0)
        gf = ct.boundary_data_freq(pw, unit_grid, 1.0 + 1.0j)
        assert np.all(gf == 0.0)

    def test_rejects_bad_frequency(self, gauss, unit_grid):
        pw = ct.PlaneWave(profile=gauss, theta=1.0)
        for s in (-1.0 + 0.0j, complex("nan")):
            with pytest.raises(DomainError):
                ct.boundary_data_freq(pw, unit_grid, s)

    def test_rejects_overflowing_frequency(self, gauss, bump, unit_grid):
        # |s| * width past MAX_S_WIDTH would overflow the gaussian's
        # (s * width)**2; the bound holds for real s and for the bump too.
        for profile in (gauss, bump):
            pw = ct.PlaneWave(profile=profile, theta=1.0)
            for s in (1.0 + 1e155j, 1e155 + 0j):
                with pytest.raises(DomainError, match="too large"):
                    ct.boundary_data_freq(pw, unit_grid, s)

    def test_closed_form_against_quadrature(self, gauss, unit_grid, rng):
        # Independent oracle: direct numerical Laplace transform of g(x, .)
        pw = ct.PlaneWave(profile=gauss, theta=1.2)
        for _ in range(10):
            k = rng.integers(0, unit_grid.N)
            x = unit_grid.x[k]
            s = complex(rng.uniform(0.3, 4.0), rng.uniform(-4.0, 4.0))
            got = ct.boundary_data_freq(pw, unit_grid, s)[k]
            t_hi = gauss.support[1] - pw.c1 * x + 2.0

            def integrand(t, part):
                val = 2.0 * pw.c2 * gauss.derivative(np.array(t + pw.c1 * x), 1)
                return float((np.exp(-s * t) * val).real if part == "re" else (np.exp(-s * t) * val).imag)

            re, _ = quad(integrand, 0.0, t_hi, args=("re",), limit=300, epsabs=1e-12, epsrel=1e-12)
            im, _ = quad(integrand, 0.0, t_hi, args=("im",), limit=300, epsabs=1e-12, epsrel=1e-12)
            assert abs(got - complex(re, im)) <= 1e-8 * max(1.0, abs(got))

    @pytest.mark.parametrize("s", [9.5, 12.0, 20.0, 9.5 + 3.0j])
    def test_gaussian_both_branches_against_quadrature(self, unit_grid, s):
        # Re zeta >= 0 takes the direct wofz branch, Re zeta < 0 the
        # reflected one; at s = 9.5 Re zeta changes sign along the line.
        prof = ct.WaveProfile(kind="gaussian-pulse", center=5.25, width=0.75)
        pw = ct.PlaneWave(profile=prof, theta=0.4 * np.pi)
        x = unit_grid.x[::4]
        zeta = (pw.c1 * x - prof.center + s * prof.width**2) / (np.sqrt(2.0) * prof.width)
        assert np.any(zeta.real >= 0.0)
        if s == 9.5:
            assert np.any(zeta.real < 0.0)
        got = ct.boundary_data_freq(pw, unit_grid, s)[::4]
        for xk, gk in zip(x, got):
            def part(t, f):
                g = 2.0 * pw.c2 * prof.derivative(np.array(t + pw.c1 * xk), 1)
                return f(np.exp(-s * t) * g)

            t_hi = prof.support[1] - pw.c1 * xk
            re, _ = quad(part, 0.0, t_hi, args=(np.real,), limit=300, epsabs=0.0, epsrel=1e-12)
            im, _ = quad(part, 0.0, t_hi, args=(np.imag,), limit=300, epsabs=0.0, epsrel=1e-12)
            assert abs(gk - complex(re, im)) <= 1e-11 * abs(complex(re, im))

    def test_bump_against_fine_trapezoid(self, bump, unit_grid):
        pw = ct.PlaneWave(profile=bump, theta=np.pi / 2)
        s = 0.8 + 1.5j
        got = ct.boundary_data_freq(pw, unit_grid, s)[0]
        t = np.linspace(0.0, bump.support[1] + 0.5, 40001)
        g = 2.0 * pw.c2 * bump.derivative(t, 1)
        oracle = np.trapezoid(np.exp(-s * t) * g, t)
        assert abs(got - oracle) <= 1e-8 * max(1.0, abs(oracle))

    # (center, theta): normal incidence; reference_two's oblique angle; and
    # an oblique bump whose support is cut at t = 0 where c1*x > 0.5.
    BUMP_CASES = [(3.0, np.pi / 2), (3.0, 0.4 * np.pi), (1.5, 0.2 * np.pi)]

    # At s = 400 a shared transform taken from tau = 0 underflows to 0.
    @pytest.mark.parametrize("s", [0.25, 2.0, 1.0 + 4.0j, 400.0])
    @pytest.mark.parametrize("center, theta", BUMP_CASES)
    def test_bump_matches_per_sample_quadrature(self, unit_grid, center, theta, s):
        prof = ct.WaveProfile(kind="smooth-bump", center=center, width=1.0)
        pw = ct.PlaneWave(profile=prof, theta=theta)
        cut = pw.c1 * unit_grid.x > prof.support[0]
        assert cut.any() == (center == 1.5)
        got = ct.boundary_data_freq(pw, unit_grid, s)
        assert got.dtype == (np.float64 if complex(s).imag == 0.0 else np.complex128)
        ref = np.array([_quad_g_laplace(pw, xk, complex(s)) for xk in unit_grid.x])
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_bump_one_quadrature_per_frequency_plus_cut_samples(self, unit_grid, monkeypatch):
        calls = []

        def counted(*args, **kw):
            calls.append(1)
            return quad(*args, **kw)

        monkeypatch.setattr(scipy.integrate, "quad", counted)
        n_cuts = []
        for center, theta in self.BUMP_CASES:
            prof = ct.WaveProfile(kind="smooth-bump", center=center, width=1.0)
            pw = ct.PlaneWave(profile=prof, theta=theta)
            # A sample past the support's end (c1*x >= hi) is zero without one.
            delay = pw.c1 * unit_grid.x
            lo, hi = prof.support
            n_cuts.append(int(np.sum((delay > lo) & (delay < hi))))
            for s in (0.25, 1.0 + 4.0j):
                calls.clear()
                ct.boundary_data_freq(pw, unit_grid, s)
                assert len(calls) == 1 + n_cuts[-1]
        assert n_cuts[-1] > 0

    def test_linear_in_amplitude(self, unit_grid):
        s = 1.1 + 0.7j
        vals = []
        for amp in (1.0, 2.0):
            prof = ct.WaveProfile(kind="gaussian-pulse", center=3.0, width=0.4, amplitude=amp)
            pw = ct.PlaneWave(profile=prof, theta=1.2)
            vals.append(ct.boundary_data_freq(pw, unit_grid, s))
        assert np.allclose(vals[1], 2.0 * vals[0], rtol=1e-12)

    def test_agrees_with_transform_of_time_series(self, gauss, unit_grid):
        # Laplace transform consistency: quadrature of the sampled series.
        pw = ct.PlaneWave(profile=gauss, theta=np.pi / 2)
        s = 1.4 + 0.9j
        times = np.linspace(0.0, 10.0, 8001)
        series = boundary_data_series(pw, unit_grid, times)
        transform = np.trapezoid(
            np.exp(-s * times)[:, None] * series, times, axis=0
        )
        got = ct.boundary_data_freq(pw, unit_grid, s)
        assert np.allclose(got, transform, rtol=1e-7, atol=1e-9)
