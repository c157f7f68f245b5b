"""Time-domain solution by BDF2 convolution quadrature, marched step by step.

The reduced problem A(s) u = b(g^(s)), with

    A(s) = s*M + (1/s)*K - (1/(s*mu0)) * Rf^T (dx B(s)) Rf,

is discretized in time with BDF2 convolution quadrature (Lubich,
"Convolution quadrature and discretized operational calculus I", Numer.
Math. 52, 1988).  The discrete operational calculus is an algebra
homomorphism, so the system may be multiplied by s exactly: the marched
operator is s*A(s) = s^2*M + K - (1/mu0) Rf^T (dx B(s)) Rf with load
b(s g^), and every factor gets its own convolution weights, all from the
one BDF2 row (3/2, -2, 1/2) of delta(zeta) = 3/2 - 2 zeta + zeta^2/2:

- s^2: the five weights d2 = (9, -24, 22, -8, 1) / (4 dt^2) of delta^2,
- s g^: the BDF2 difference D1 g_n = (3 g_n - 4 g_{n-1} + g_{n-2}) / (2 dt)
  of the sampled data, at rest before t = 0,
- B(s): per Fourier mode xi, the real weights omega_k(xi) of the symbol
  beta(xi, delta(zeta)/dt), from one contour FFT of the symbol (no solves).

Step n then solves

    W0 u_n = Rf^T W D1 g_n - M sum_{j=1..4} d2_j u_{n-j}
             + (dx/mu0) Rf^T irfft(sum_{k>=1} omega_k rfft(Rf u_{n-k}))

with W the aperture trapezoid weights and the real matrix
W0 = s0*A(s0), s0 = 3/(2 dt), the same at every step: one factorization
per run, one certified solve per step.  M, K and Rf, the stacked free-DOF
mass, stiffness and trace restriction, are the solver's own
(SystemPattern).  Rf is zero off the aperture DOFs, so the loads and
both ends of the DtN history are sparse products with its aperture
columns Rf_a alone.  The history keeps rfft(Rf_a u_n) for every past
step, so the sum costs one pass over N + 1 spectra of N_trace/2 + 1 bins
per step.  The march keeps its step state in one ring of four rows: row
n % 4 holds u_n and each distinct matrix among M, K and their unit-weight
twins times u_n, so the mass history weights the ring's M column, and du
with A du for every form matrix A is one BDF2 combination of the ring's
rows.  Where the twins are the weighted matrices, a step makes five
sparse products: the DtN history's Rf_a^T, the residual's W0 u_n, M u_n,
K u_n and Rf_a u_n, and a sixth with the probe rows when the run has
probes.  The loads Rf_a^T W D1 g take one product per block of ROW_BLOCK
steps.

The march keeps no field history and no space-time data array: besides
the ring, what it holds grows with N only through the DtN weights and spectra
(3 (N+1)(N_trace/2+1) numbers) and the per-step record ((9 + P)(N+1) for
P probes); the fields would add (N+1) n_nodes, the sampled data
(N+1) N_trace.  It samples g one block of ROW_BLOCK steps at a time,
with the two previous rows that D1 g reads.  Each step adds its column
to the record: the rows of FORMS that the energy and passivity checks
read, the state norm behind the causality check, the -1/2 aperture norm
of g_n and the field at the probe points.  It hands its fields to the
caller's observer, if any, at every k-th step (k = 1 by default).

The flux row is the pairing -(dx/mu0) <(omega * Rf u)_n, D1(Rf u)_n>
(trace.pairing_terms), which `validate` certifies on random histories
(diagnostics.passivity_suite).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import CausalityViolation, DimensionMismatch
from .fem import SystemOperator, apply_rhs
from .freq import FrequencySolver, certified_solve
from .incident import CAUSALITY_LIMIT, ROW_BLOCK, PlaneWave, boundary_data_series
from .scene import Mesh, Scene
from .trace import TraceGrid, aperture_norm_rows, beta, pairing_terms

__all__ = [
    "CqScheme",
    "FORMS",
    "TimeSolution",
    "dtn_weights",
    "run_time_domain",
]

# Largest imaginary part of the DtN weights, relative to the largest weight,
# that the real march may discard (TimeSolution.imag_residue).
REALNESS_LIMIT = 1e-10
# rho^M of the weight contour: the aliasing level of the DtN weights.
_WEIGHT_ALIASING = 1e-16
# Most complex entries in a temporary of the weight transform.  A block of
# Fourier modes holds M contour samples per mode, so it takes
# max(1, _WEIGHT_ENTRIES // M) modes: 1 MiB per temporary up to M = 2**16,
# one mode of M samples beyond.  Each block pays for one FFT plan of
# length M: at the 2048-step length 8196 (prime factor 683), blocks of one
# mode took 2.4 times as long as blocks of seven.
_WEIGHT_ENTRIES = 2**16
# The BDF2 difference dt * D1 x_n = sum_i BDF2[i] x_{n-i}; every time
# stencil of the package derives from it.
BDF2 = np.array([1.5, -2.0, 0.5])
# BDF2 convolution weights of s^2, times dt^2: those of delta^2.
_D2 = np.convolve(BDF2, BDF2)
# Weights of x_n, x_{n-1}, x_{n-2} in dt * du_n: zero at rest, the first-
# order difference at step 1, the BDF2 difference after.
_DU_WEIGHTS = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0], BDF2])
# Largest (steps + 1) * N_trace.  The DtN weights and spectra the march
# holds are about 1.5 times that many float64 (768 MiB at the cap).
MAX_MARCH_SAMPLES = 2**26


@dataclass(frozen=True)
class CqScheme:
    """BDF2 convolution-quadrature discretization of the time axis.

    dt : step size
    steps : number of steps N (time grid t_n = n*dt, n = 0..N)
    """

    dt: float
    steps: int

    def __post_init__(self) -> None:
        if not self.dt > 0.0:  # also rejects NaN
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.steps}")

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @staticmethod
    def generating_symbol(zeta):
        """BDF2 generating polynomial delta(zeta) = (3 - 4 zeta + zeta^2)/2."""
        zeta = np.asarray(zeta, dtype=np.complex128)
        return BDF2[0] + BDF2[1] * zeta + BDF2[2] * (zeta * zeta)


# Rows of TimeSolution.forms: the per-step forms the energy, stability,
# a-priori and passivity checks read (see diagnostics.EnergyTrace).
FORMS = ("kinetic", "potential", "du_l2", "du_h1", "u_l2", "u_h1", "flux")


@dataclass
class TimeSolution:
    """The march's per-step record on the time grid; it holds no field.

    forms is the (7, N+1) array of the rows named by FORMS: by quadrature,
    kinetic = du^T M du and potential = u^T K u with the material weights,
    du_l2, du_h1, u_l2 and u_h1 with the unit weights, du the backward
    difference of u (zero at step 0, first order at step 1, the BDF2
    difference after); flux the summed trace.pairing_terms.  state_norm is
    the Euclidean norm of the stacked nodal vector at each step and g the
    (N+1,) row of zero-extended -1/2 aperture norms of the data that drove
    the march (trace.aperture_norm_rows).  probes is the (n_probes, N+1)
    array of the field at the march's probe points, one row per point.
    imag_residue is the largest imaginary part the march discarded from
    the DtN weights, relative to the largest weight (the step matrix W0
    is real by construction);
    initial_ratio the t = 0 state norm relative to the trajectory peak;
    max_residual the largest relative residual of the step solves,
    reached at step worst_step; n_dofs and lu_nnz the size and fill of
    the one factorization.
    """

    times: np.ndarray
    scheme: CqScheme
    forms: np.ndarray
    state_norm: np.ndarray
    g: np.ndarray = field(repr=False)
    probes: np.ndarray = field(repr=False)
    imag_residue: float = 0.0
    initial_ratio: float = 0.0
    max_residual: float = 0.0
    worst_step: int = 0
    n_dofs: int = 0
    lu_nnz: int = 0


def _contour_length(n1: int) -> int:
    """The smallest 7-smooth integer >= 4 n1: the FFT length of the weight
    contour.  Any M >= 4 n1 keeps rho^M = 1e-16 and a rounding level
    eps * rho^(-N) no worse than M = 4 n1; a prime factor such as 683 in
    4 * 2049 = 8196 made the transform several times slower."""
    m = 4 * n1
    while True:
        rest = m
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def dtn_weights(grid: TraceGrid, c: float, scheme: CqScheme) -> tuple[np.ndarray, float]:
    """BDF2 convolution weights of the DtN symbol on the rfft modes.

    Returns the real (N+1, N_trace/2+1) array omega[k, m], the k-th weight
    of beta(xi_m, delta(zeta)/dt) = sum_k omega_k zeta^k, and the largest
    discarded imaginary part relative to the largest weight.  The weights
    are the Cauchy integrals over |zeta| = rho on M points with
    rho^M = 1e-16, M the smallest 7-smooth integer >= 4(N+1)
    (_contour_length), taken in blocks of modes so that no temporary holds
    more than max(2**16, M) complex entries.  Every contour frequency has
    Re s > 0 (BDF2 is A-stable), so trace.beta samples the symbol there.
    """
    n1 = scheme.steps + 1
    m = _contour_length(n1)
    rho = _WEIGHT_ALIASING ** (1.0 / m)
    s = CqScheme.generating_symbol(rho * np.exp(2j * np.pi * np.arange(m) / m)) / scheme.dt
    xi = grid.rfft_xi
    scale = (rho ** -np.arange(n1) / m)[:, None]
    weights = np.empty((n1, xi.size))
    imag = 0.0
    modes = max(1, _WEIGHT_ENTRIES // m)
    for lo in range(0, xi.size, modes):
        block = xi[lo : lo + modes]
        symbol = beta(block[None, :], s[:, None], c)
        w = scale * np.fft.fft(symbol, axis=0)[:n1]
        weights[:, lo : lo + block.size] = w.real
        imag = max(imag, float(np.max(np.abs(w.imag))))
    return weights, imag / float(np.max(np.abs(weights)))


def run_time_domain(
    scene: Scene,
    meshes: list[Mesh],
    grid: TraceGrid,
    pw: PlaneWave,
    scheme: CqScheme,
    observer: Callable[[int, list[np.ndarray]], None] | None = None,
    *,
    probes: Sequence[tuple[int, np.ndarray]] = (),
    observe_every: int = 1,
) -> TimeSolution:
    """Marched CQ solution of the reduced initial-boundary value problem.

    Factorizes the real step matrix W0 once and solves one certified step
    per time level; a residual above the limit raises FactorizationFailure
    naming the step.  Each step adds its column of the record (the forms,
    the state norm and the values at `probes`, (cavity index, node
    weights) pairs as io.probe_matrix returns them); `observer(n, fields)`,
    when given, receives step n's full per-cavity node values at every
    step n with n % observe_every == 0, fresh arrays it may keep.  The
    observer is the only way fields leave the march.  Raises
    CausalityViolation when the state at t = 0 is not at rest relative to
    the trajectory peak.  Raises DimensionMismatch when the wave assumes
    other exterior constants than the scene: the DtN weights take the
    scene's, the data the wave's.
    """
    if (pw.eps0, pw.mu0) != (scene.eps0, scene.mu0):
        raise DimensionMismatch(
            f"the wave's exterior (eps0={pw.eps0}, mu0={pw.mu0}) is not the "
            f"scene's (eps0={scene.eps0}, mu0={scene.mu0})"
        )
    if observe_every < 1:
        raise ValueError(f"observe_every must be at least 1, got {observe_every}")
    n1 = scheme.steps + 1
    dt = scheme.dt
    times = scheme.times()

    solver = FrequencySolver(scene, meshes, grid)
    s0 = float(BDF2[0]) / dt
    # A(s0) is real at the real s0, and so is W0.
    w0 = SystemOperator(s=s0, matrix=s0 * solver.operator(s0).matrix)
    lu_nnz = w0.factorize().nnz
    omega, weight_imag = dtn_weights(grid, scene.c, scheme)

    pattern = solver.pattern
    # Rf is zero off the aperture DOFs ap: the trace reads and the loads
    # touch only its aperture columns rf_a.
    ap = pattern.aperture_dofs
    rf_a = pattern.restriction[:, ap]
    rf_a_t = rf_a.T
    dtn_scale = grid.dx / scene.mu0
    d2 = _D2 / (dt * dt)
    # Each distinct form matrix multiplies x_n once per step, into its own
    # ring column; a unit twin that is its weighted matrix shares its column.
    named = (pattern.mass, pattern.stiffness, pattern.mass_unit, pattern.stiffness_unit)
    distinct = [a for i, a in enumerate(named) if all(a is not b for b in named[:i])]
    col_m, col_k, col_mu, col_ku = (
        1 + next(j for j, b in enumerate(distinct) if a is b) for a in named
    )
    probe_rows = solver.free_rows(probes)

    # Row n % 4 of the ring holds step n: x_n, then each distinct matrix
    # times x_n, written over step n - 4 after the solve.  All rows are
    # zero before t = 0, so the negated mass history
    # -sum_{j=1..4} d2_j M x_{n-j}, where each step's load starts, weights
    # ring[:, col_m] by mass_weights[n % 4], and du with every A du is one
    # combination of the ring's rows by du_weights[min(n, 2), n % 4], which
    # weights row (n - i) % 4 by _DU_WEIGHTS[min(n, 2), i] / dt.  The DtN
    # history reaches every past step through rfft(Rf u_n), stored latest
    # first from the end (row N - n holds step n, so spectra[N + 1 - n:]
    # lists steps n - 1 down to 0) and with real and imaginary parts apart
    # so its sum runs on real arrays.
    ring = np.zeros((4, 1 + len(distinct), w0.n_dofs))
    mass_weights = -np.array([d2[1 + (r - 1 - np.arange(4)) % 4] for r in range(4)])
    du_weights = np.zeros((3, 4, 4))
    for r in range(4):
        du_weights[:, r, (r - np.arange(3)) % 4] = _DU_WEIGHTS / dt
    du = np.empty(ring.shape[1:])
    spectra = np.zeros((n1, 2, omega.shape[1]))
    residuals = np.zeros(n1)
    forms = np.zeros((len(FORMS), n1))
    state_norm = np.zeros(n1)
    g_norm = np.zeros(n1)
    probe_values = np.zeros((probe_rows.shape[0], n1))
    # The loads of g_{n-2}, g_{n-1} before a block and the spectra z_{n-1},
    # z_{n-2}: at rest before t = 0.
    past = np.zeros((2, ap.size))
    z1 = z2 = np.zeros(omega.shape[1], dtype=complex)
    for n in range(n1):
        if n % ROW_BLOCK == 0:
            # The data of the next block of steps, its norm row and the
            # loads of its BDF2 difference D1 g: the block is loaded in one
            # product and differenced after, on the aperture DOFs, which
            # is the same by linearity and holds no second block of data.
            block = boundary_data_series(pw, grid, times[n : n + ROW_BLOCK])
            g_norm[n : n + ROW_BLOCK] = aperture_norm_rows(block, grid)
            rows = np.concatenate([past, apply_rhs(block, rf_a, grid)])
            loads = sum(c * rows[2 - i : rows.shape[0] - i] for i, c in enumerate(BDF2)) / dt
            past = rows[-2:]
        r = n % 4
        rhs = mass_weights[r] @ ring[:, col_m]
        re, im = np.einsum("kb,kcb->cb", omega[1 : n + 1], spectra[n1 - n :])
        history = re + 1j * im
        rhs[ap] += loads[n % ROW_BLOCK] + rf_a_t @ (dtn_scale * np.fft.irfft(history, n=grid.N))
        x, residuals[n] = certified_solve(w0, rhs, f"at step {n} (t={times[n]:g})")
        ring[r, 0] = x
        for j, a in enumerate(distinct, 1):
            ring[r, j] = a @ x
        # du/dt by backward differences: zero at rest, first order at
        # step 1, then the BDF2 difference.  Row j of du is du for j = 0,
        # A du for the ring's column-j matrix A.
        np.dot(du_weights[min(n, 2), r], ring.reshape(4, -1), out=du.reshape(-1))
        du_forms, x_forms = du @ du[0], ring[r] @ x
        # The flux pairs the whole DtN convolution with D1 of the spectra.
        z = np.fft.rfft(rf_a @ x[ap])
        flux = pairing_terms(omega[0] * z + history, BDF2 @ [z, z1, z2] / dt, grid, scene.mu0)
        forms[:, n] = (du_forms[col_m], x_forms[col_k], du_forms[col_mu], du_forms[col_ku],
                       x_forms[col_mu], x_forms[col_ku], np.sum(flux))
        state_norm[n] = np.sqrt(x_forms[0])
        spectra[n1 - 1 - n] = z.real, z.imag
        z1, z2 = z, z1
        if probe_values.size:
            probe_values[:, n] = probe_rows @ x
        if observer is not None and n % observe_every == 0:
            observer(n, solver.expand(x))

    worst = int(np.argmax(residuals))
    peak_norm = float(np.max(state_norm))
    initial_ratio = float(state_norm[0] / peak_norm) if peak_norm > 0.0 else 0.0
    if initial_ratio > CAUSALITY_LIMIT:
        raise CausalityViolation(
            f"state at t=0 has norm {initial_ratio:.3e} of the trajectory "
            f"peak (limit {CAUSALITY_LIMIT:.0e}); check the pulse delay"
        )
    return TimeSolution(
        times=times,
        scheme=scheme,
        forms=forms,
        state_norm=state_norm,
        g=g_norm,
        probes=probe_values,
        imag_residue=weight_imag,
        initial_ratio=initial_ratio,
        max_residual=float(residuals[worst]),
        worst_step=worst,
        n_dofs=w0.n_dofs,
        lu_nnz=lu_nnz,
    )
