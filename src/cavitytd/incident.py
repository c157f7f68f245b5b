"""Plane-wave excitation and the aperture boundary data it induces.

The pulse shape is specified as the waveform observed at the coordinate
origin: a causal signal w(t) that peaks at t = center and is numerically
zero for t <= 0.  The traveling field shifts that waveform along the
downward characteristic,

    u_inc(x, y, t) = w(t + c1*x + c2*y),
    u_ref(x, y, t) = -w(t + c1*x - c2*y),

with c1 = cos(theta)/sqrt(eps0*mu0), c2 = sin(theta)/sqrt(eps0*mu0) and
0 < theta < pi, so the wavefront arrives at the apertures around
t = center.  The field is the TE electric field, the only polarization
the package discretizes: the conducting ground plane reflects it with
the sign flipped, so the incident-plus-reflected trace vanishes
identically on the ground line.  Because of that cancellation the
aperture data reduces to the closed form

    g(x, t) = d/dy (u_inc + u_ref) |_{y=0} = 2*c2*w'(t + c1*x),

which is what the solvers consume; the nonlocal term of the exact
boundary condition drops out analytically and is retained only as a test
oracle.  The Laplace transform of g is evaluated in closed form for the
gaussian profile (scaled complementary error function).  For the compactly
supported bump it is one adaptive quadrature per frequency, shared by every
sample the pulse reaches after t = 0; only the samples whose support is cut
at t = 0 take a quadrature each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure
from .trace import TraceGrid, aperture_norm_rows

__all__ = [
    "WaveProfile",
    "PlaneWave",
    "boundary_data_series",
    "boundary_data_freq",
    "BoundaryDataNorms",
    "boundary_data_bundle",
]

GAUSSIAN = "gaussian-pulse"
BUMP = "smooth-bump"
# Largest t = 0 state norm, relative to the trajectory peak, that the march
# accepts as the rest state (above it, cq.run_time_domain raises
# CausalityViolation).  The default causality_tol derives from it.
CAUSALITY_LIMIT = 1e-8
# Times per block in which the march (cq.run_time_domain) and the data-norm
# rows sample the aperture data: neither holds a full space-time series.
ROW_BLOCK = 64
# Bound on |s| * width below which the gaussian transform's (s * width)**2
# stays finite; PlaneWave.check_frequency refuses any frequency at or above
# it, real ones and the bump profile's included.
MAX_S_WIDTH = math.sqrt(sys.float_info.max)
# Largest |amplitude|, and the inverse of the smallest nonzero one.  The
# march's quadratic forms scale as amplitude**2 and leave the normal range
# first: at 2**-520 the t = 0 state norm underflows and initial_ratio reads 0,
# at 2**-600 every state and data norm reads 0 and the ratios fall back to
# their 0/0 guard; at 2**-480 a sweep member's CG on reference_two fails its
# residual certificate.  At 2**300 and 2**-300 every solve-time check and
# ratio on reference_single is bitwise its value at amplitude 1.
MAX_AMPLITUDE = 2.0**300
# Absolute and relative tolerance of the bump profile's Laplace quadrature.
_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class WaveProfile:
    """Causal pulse waveform with analytic derivatives up to third order.

    kind : "gaussian-pulse" or "smooth-bump"
    center : arrival delay tau0 > 0 (pulse peak)
    width : sigma > 0
    amplitude : peak value, 0 or of modulus in [1/MAX_AMPLITUDE, MAX_AMPLITUDE]
    causality_tol : admissible waveform magnitude at t <= 0 (defaults
        to CAUSALITY_LIMIT * |amplitude| * width / (sqrt(e) * center))

    gaussian-pulse:  A * exp(-(tau - tau0)^2 / (2 sigma^2))
    smooth-bump:     A * exp(1 - 1/(1 - u^2)), u = (tau - tau0)/sigma,
                     supported on |u| < 1
    """

    kind: str
    center: float
    width: float
    amplitude: float = 1.0
    causality_tol: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, BUMP):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not self.center > 0.0:  # also rejects NaN
            raise ValueError(f"profile center must be positive, got {self.center}")
        if not self.width > 0.0:
            raise ValueError(f"profile width must be positive, got {self.width}")
        size = abs(self.amplitude)
        if not size <= MAX_AMPLITUDE or 0.0 < size < 1.0 / MAX_AMPLITUDE:  # NaN too
            raise ValueError(
                f"profile amplitude must be 0 or of modulus in [2**-300, 2**300], "
                f"got {self.amplitude}"
            )
        tol = self.causality_tol
        if tol is None:
            # The data g is 2 c2 w', and the march refuses a state at t = 0
            # above CAUSALITY_LIMIT of its peak.  A gaussian tail w(0) puts
            # w'(0) at w(0) (center/width) sqrt(e) / |amplitude| of the peak
            # of |w'|: the default tail is the one that keeps that at the limit.
            tol = (CAUSALITY_LIMIT * abs(self.amplitude) * self.width
                   / (math.sqrt(math.e) * self.center))
            object.__setattr__(self, "causality_tol", tol)
        self.check_rest(0.0)

    def check_rest(self, t: float) -> None:
        """Raise ValueError unless the waveform is at rest for tau <= t.

        sup |w| over tau <= t sits at tau = min(t, center) for the gaussian,
        which must stay within causality_tol there; it is exactly zero while
        the bump support starts after t.
        """
        if self.kind == GAUSSIAN:
            lag = self.center - min(t, self.center)
            tail = abs(self.amplitude) * math.exp(-(lag**2) / (2 * self.width**2))
            if self.amplitude != 0.0 and tail > self.causality_tol:
                raise ValueError(
                    f"gaussian tail at t<={t:.6g} is {tail:.3e} > causality tolerance "
                    f"{self.causality_tol:.3e}; increase center/width ratio"
                )
        elif self.center - self.width < t:
            raise ValueError(
                f"bump support [{self.center - self.width}, "
                f"{self.center + self.width}] reaches t <= {t:.6g}"
            )

    @property
    def support(self) -> tuple[float, float]:
        """Interval outside which the waveform is numerically negligible."""
        if self.kind == BUMP:
            return (self.center - self.width, self.center + self.width)
        return (self.center - 8.0 * self.width, self.center + 8.0 * self.width)

    def derivative(self, tau, order: int = 1):
        """d^order w / d tau^order, analytic, orders 0..3."""
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be 0..3, got {order}")
        tau = np.asarray(tau, dtype=float)
        if self.kind == GAUSSIAN:
            return self._gaussian_derivative(tau, order)
        return self._bump_derivative(tau, order)

    def _gaussian_derivative(self, tau: np.ndarray, order: int):
        z = (tau - self.center) / self.width
        base = self.amplitude * np.exp(-0.5 * z * z)
        if order == 0:
            return base
        if order == 1:
            return base * (-z) / self.width
        if order == 2:
            return base * (z * z - 1.0) / self.width**2
        return base * z * (3.0 - z * z) / self.width**3

    def _bump_derivative(self, tau: np.ndarray, order: int):
        u = (tau - self.center) / self.width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        if not np.any(inside):
            return out
        ui = u[inside]
        q = 1.0 - ui * ui
        body = self.amplitude * np.exp(1.0 - 1.0 / q)
        if order == 0:
            out[inside] = body
            return out
        h1 = -2.0 * ui / q**2
        if order == 1:
            out[inside] = body * h1 / self.width
            return out
        h2 = -2.0 * (1.0 + 3.0 * ui * ui) / q**3
        if order == 2:
            out[inside] = body * (h2 + h1 * h1) / self.width**2
            return out
        h3 = -24.0 * ui * (1.0 + ui * ui) / q**4
        out[inside] = body * (h3 + 3.0 * h1 * h2 + h1**3) / self.width**3
        return out


@dataclass(frozen=True)
class PlaneWave:
    """Incident TE plane wave: pulse profile plus incidence geometry.

    eps0 and mu0 are the exterior constants the wave travels in; a solve
    requires them to match its scene's.
    """

    profile: WaveProfile
    theta: float
    eps0: float = 1.0
    mu0: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"incidence angle must lie in (0, pi), got {self.theta}")
        if not (self.eps0 > 0.0 and self.mu0 > 0.0):  # also rejects NaN
            raise ValueError("exterior constants must be positive")

    @property
    def c1(self) -> float:
        return math.cos(self.theta) / math.sqrt(self.eps0 * self.mu0)

    @property
    def c2(self) -> float:
        return math.sin(self.theta) / math.sqrt(self.eps0 * self.mu0)

    def check_rest(self, apertures) -> None:
        """Raise ValueError unless the field is at rest at t = 0 on every
        aperture.

        Point x sees the waveform at t + c1*x, so an oblique wave reaches
        the aperture end with the largest c1*x first: the profile is tested
        up to t = max(0, c1*x) over the aperture ends.
        """
        arrival = max([0.0] + [self.c1 * x for ap in apertures for x in ap])
        self.profile.check_rest(arrival)

    def check_frequency(self, s: complex) -> None:
        """Raise DomainError unless Re s > 0 and |s| * width < MAX_S_WIDTH."""
        if not s.real > 0.0:
            raise DomainError(f"frequency must satisfy Re s > 0, got s={s}")
        if not abs(s) * self.profile.width < MAX_S_WIDTH:
            raise DomainError(
                f"frequency s={s} is too large: |s| * width must stay below {MAX_S_WIDTH:.4g}"
            )


def _g_closed_form(pw: PlaneWave, x, t, order: int = 0):
    """g and its time derivatives: 2*c2 * w^(1+order)(t + c1*x)."""
    return 2.0 * pw.c2 * pw.profile.derivative(
        np.asarray(t, dtype=float) + pw.c1 * np.asarray(x, dtype=float),
        order=1 + order,
    )


def boundary_data_series(
    pw: PlaneWave, grid: TraceGrid, times: np.ndarray, order: int = 0
) -> np.ndarray:
    """g (or its order-th time derivative) on the grid for every time.

    Returns a real (n_times, N) array; rows follow `times`.  The package
    asks for at most ROW_BLOCK times at once.
    """
    times = np.asarray(times, dtype=float)
    return _g_closed_form(pw, grid.x[None, :], times[:, None], order=order)


def boundary_data_freq(pw: PlaneWave, grid: TraceGrid, s: complex) -> np.ndarray:
    """Laplace transform of the aperture data at frequency s.

    Gaussian profiles use the closed form through the scaled complementary
    error function.  The bump profile takes one adaptive quadrature to
    _QUAD_TOL per frequency, shared by every sample the pulse reaches after
    t = 0, and one more per sample whose support is cut at t = 0.  The
    transform of real data is real at real s: the result is float64 there,
    like the operator of real s, and complex128 otherwise.
    """
    s = complex(s)
    pw.check_frequency(s)
    if pw.profile.kind == GAUSSIAN:
        g = _gaussian_g_laplace(pw, grid.x, s)
    else:
        g = _bump_g_laplace(pw, grid.x, s)
    return g.real.copy() if s.imag == 0.0 else g


def _gaussian_g_laplace(pw: PlaneWave, x: np.ndarray, s: complex) -> np.ndarray:
    """Closed form of int_0^inf e^{-st} 2 c2 w'(t + c1 x) dt for the gaussian.

    With r0 = c1*x - tau0 and zeta = (r0 + s*sigma^2)/(sqrt(2)*sigma):

        g^(x, s) = 2 c2 A [ s*sigma*sqrt(pi/2) * E - exp(-r0^2/(2 sigma^2)) ],
        E = exp(-r0^2/(2 sigma^2)) * wofz(i*zeta),

    where E is evaluated through the Faddeeva reflection when Re(zeta) < 0
    so both branches stay bounded for strongly delayed pulses.
    """
    # Imported here: only the frequency commands need it, and scipy.special
    # adds about 3.7 MB to every process that loads it.
    from scipy.special import wofz

    prof = pw.profile
    sigma, tau0, amp = prof.width, prof.center, prof.amplitude
    r0 = pw.c1 * np.asarray(x, dtype=float) - tau0
    zeta = (r0 + s * sigma**2) / (math.sqrt(2.0) * sigma)
    gauss = np.exp(-(r0**2) / (2.0 * sigma**2))

    E = np.empty_like(zeta, dtype=np.complex128)
    neg = zeta.real < 0.0
    # wofz grows like 2 exp(zeta^2) in the lower half-plane; fold that growth
    # into the (tiny) explicit delay factor instead.
    if np.any(neg):
        E[neg] = 2.0 * np.exp(s * r0[neg] + 0.5 * (s * sigma) ** 2) - gauss[neg] * wofz(
            -1j * zeta[neg]
        )
    if np.any(~neg):
        E[~neg] = gauss[~neg] * wofz(1j * zeta[~neg])
    return 2.0 * pw.c2 * amp * (s * sigma * math.sqrt(math.pi / 2.0) * E - gauss)


def _bump_g_laplace(pw: PlaneWave, x: np.ndarray, s: complex) -> np.ndarray:
    """Laplace transform of the bump data at every x.

    A sample with c1*x <= lo, the start of the support, is at rest at t = 0,
    and its transform is the shared one delayed:

        g^(x, s) = exp(-s (lo - c1 x)) * W(s),
        W(s) = int_0^{hi-lo} e^{-s t} 2 c2 w'(t + lo) dt,

    W taken from the support start so that neither factor overflows.  The
    samples with c1*x > lo, whose support is cut at t = 0, keep their own
    quadrature; x = 0, a sample of every trace grid, is never cut.
    """
    lo = pw.profile.support[0]
    delay = pw.c1 * x
    cut = delay > lo
    g = np.empty(x.shape, dtype=np.complex128)
    g[~cut] = np.exp(-s * (lo - delay[~cut])) * _quad_g_laplace(pw, None, s)
    g[cut] = [_quad_g_laplace(pw, xk, s) for xk in x[cut]]
    return g


def _quad_g_laplace(pw: PlaneWave, x: float | None, s: complex) -> complex:
    """int_0^inf e^{-st} g(x, t) dt by adaptive quadrature to _QUAD_TOL.

    x = None gives the shared transform W(s) of _bump_g_laplace: the one at
    a point the support start reaches at t = 0 exactly.
    """
    # Imported here: only the bump profile needs it, and scipy.integrate
    # (with the scipy.optimize it pulls in) is a large share of start-up.
    from scipy.integrate import quad

    lo, hi = pw.profile.support
    delay = lo if x is None else pw.c1 * x
    t0 = max(0.0, lo - delay)
    t1 = hi - delay
    if t1 <= t0:
        return 0.0 + 0.0j

    value, err = quad(
        lambda t: np.exp(-s * t) * (2.0 * pw.c2 * pw.profile.derivative(t + delay, 1)),
        t0, t1,
        epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200, complex_func=True,
    )
    scale = max(abs(value.real) + abs(value.imag), abs(pw.profile.amplitude))
    worst = max(err.real, err.imag)
    if worst > 100.0 * _QUAD_TOL * scale + 10.0 * _QUAD_TOL:
        where = "in the shared transform at" if x is None else f"at x={x},"
        raise QuadratureFailure(
            f"Laplace quadrature error {worst:.2e} above tolerance {where} s={s}"
        )
    return value


@dataclass(frozen=True)
class BoundaryDataNorms:
    """Per-time data norms of the estimate checks: the zero-extended -1/2
    aperture norms (trace.aperture_norm_rows) of g and of its first two
    time derivatives, each an (n_times,) row."""

    times: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


def _norm_rows(pw: PlaneWave, grid: TraceGrid, times: np.ndarray, order: int) -> np.ndarray:
    # Sampled and normed one block of ROW_BLOCK times at a time, as the
    # march streams g: no full series is held.
    return np.concatenate([
        aperture_norm_rows(
            boundary_data_series(pw, grid, times[lo : lo + ROW_BLOCK], order=order), grid
        )
        for lo in range(0, times.size, ROW_BLOCK)
    ])


def boundary_data_bundle(
    pw: PlaneWave, grid: TraceGrid, times: np.ndarray, g: np.ndarray | None = None
) -> BoundaryDataNorms:
    """The data-norm rows of g and its analytic time derivatives on `times`.

    `g` is the order-0 row when the caller has it already, as the march
    does (TimeSolution.g); g is then not sampled again.
    """
    times = np.asarray(times, dtype=float)
    return BoundaryDataNorms(
        times=times,
        g=_norm_rows(pw, grid, times, 0) if g is None else g,
        dg=_norm_rows(pw, grid, times, 1),
        d2g=_norm_rows(pw, grid, times, 2),
    )
