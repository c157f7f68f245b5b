"""Time-domain solution by convolution quadrature over the frequency solver.

The reduced problem is discretized in time with BDF2 convolution
quadrature, realized all at once: scale the sampled aperture data by
lambda^n, diagonalize the discrete convolution with an FFT over the
N + 1 contour frequencies s_l = delta(lambda * zeta_l) / dt, solve one
coupled frequency problem per node, and transform back.  BDF2 is A-stable,
so every contour frequency stays strictly inside the admissible half-plane
Re s > 0; conjugate-pair frequencies share one solve and their symmetry is
enforced exactly, which keeps the reconstruction real to machine noise.

The contour radius trades aliasing of the time window against round-off
amplification: lambda = contour_tol**(1/(2N+2)) leaks roughly
contour_tol**(1/2) of the late-time field back into the early steps and
amplifies solver noise by its inverse at the final step.  Runs that must
hold the rest state at t = 0 to a tight floor should lower contour_tol
below its 1e-14 default (the reference configurations use 1e-20).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CausalityViolation, ContractViolation, UnsupportedPolarization
from .fem import FemMatrices
from .fem import apply_rhs  # noqa: F401  (span seam of bench/tracer.py)
from .freq import FrequencySolver
from .incident import PlaneWave, boundary_data_series
from .scene import Mesh, Scene
from .trace import TraceGrid, TraceVector

__all__ = [
    "CqScheme",
    "TimeSolution",
    "cq_frequencies",
    "run_time_domain",
    "time_derivative",
]

_CAUSALITY_LIMIT = 1e-8


@dataclass(frozen=True)
class CqScheme:
    """BDF2 convolution-quadrature discretization of the time axis.

    dt : step size
    steps : number of steps N (time grid t_n = n*dt, n = 0..N)
    contour_tol : target aliasing level; the inversion contour radius is
        lambda = contour_tol ** (1 / (2*steps + 2))
    """

    dt: float
    steps: int
    contour_tol: float = 1e-14

    def __post_init__(self) -> None:
        if not self.dt > 0.0:  # also rejects NaN
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.steps}")
        if not 0.0 < self.contour_tol < 1.0:
            raise ValueError(
                f"contour tolerance must lie in (0, 1), got {self.contour_tol}"
            )

    @property
    def lam(self) -> float:
        return self.contour_tol ** (1.0 / (2 * self.steps + 2))

    @property
    def horizon(self) -> float:
        return self.dt * self.steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @staticmethod
    def generating_symbol(zeta):
        """BDF2 generating polynomial delta(zeta) = (3 - 4 zeta + zeta^2)/2."""
        zeta = np.asarray(zeta, dtype=np.complex128)
        return (3.0 - 4.0 * zeta + zeta * zeta) / 2.0

    def serialize(self) -> dict:
        return {"dt": self.dt, "steps": self.steps, "contour_tol": self.contour_tol}


def cq_frequencies(scheme: CqScheme) -> np.ndarray:
    """Contour frequencies s_l = delta(lambda e^{-2 pi i l/(N+1)}) / dt.

    All N + 1 nodes must satisfy Re s > 0; a violation signals an
    inadmissible lambda / dt pairing and raises ContractViolation.
    """
    n1 = scheme.steps + 1
    zeta = scheme.lam * np.exp(-2j * np.pi * np.arange(n1) / n1)
    s = CqScheme.generating_symbol(zeta) / scheme.dt
    if np.any(s.real <= 0.0):
        bad = int(np.argmin(s.real))
        raise ContractViolation(
            f"contour frequency s_{bad}={s[bad]} left the half-plane Re s > 0"
        )
    return s


@dataclass
class TimeSolution:
    """Real nodal fields on the time grid, one (N+1, n_nodes) block per cavity.

    imag_residue is the measured conjugation defect at the mirror of node 1
    (mirror matrix versus conjugate, and the residual of the conjugate
    solution against the mirror system); initial_ratio the t = 0 state norm
    relative to the trajectory peak; max_residual the largest relative
    residual of the half-spectrum node solves, reached at frequency worst_s;
    fems the per-cavity matrices the solver assembled.
    """

    times: np.ndarray
    fields: list[np.ndarray]
    scheme: CqScheme
    imag_residue: float = 0.0
    initial_ratio: float = 0.0
    max_residual: float = 0.0
    worst_s: complex = 0j
    fems: list[FemMatrices] | None = field(default=None, repr=False)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def step_norms(self) -> np.ndarray:
        """Euclidean norm of the stacked nodal vector at each step."""
        sq = np.zeros(self.times.size)
        for block in self.fields:
            sq += np.sum(block * block, axis=1)
        return np.sqrt(sq)


def _conjugation_residue(
    solver: FrequencySolver, s: complex, x: np.ndarray, mirror_data: TraceVector
) -> float:
    """Conjugation defect of the node solve x at s, with no factorization.

    The larger of two relative measures: the entrywise distance of the
    mirror matrix A(conj s) from conj(A(s)) on the shared fixed pattern,
    and the residual of conj(x) against the mirror system with load
    `mirror_data` (the conjugate data).
    """
    a = solver.operator(s).matrix
    a_mirror = solver.operator(np.conj(s)).matrix
    scale = float(np.max(np.abs(a.data)))
    matrix_defect = float(np.max(np.abs(a_mirror.data - np.conj(a.data)))) / scale
    b = solver.load(mirror_data)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return matrix_defect
    residual = float(np.linalg.norm(a_mirror @ np.conj(x) - b)) / b_norm
    return max(matrix_defect, residual)


def run_time_domain(
    scene: Scene,
    meshes: list[Mesh],
    grid: TraceGrid,
    pw: PlaneWave,
    scheme: CqScheme,
    threads: int = 1,
) -> TimeSolution:
    """All-at-once CQ solution of the reduced initial-boundary value problem.

    Samples the aperture data on the time grid, solves the coupled
    frequency problem at every contour node (conjugate pairs deduplicated,
    optionally in parallel), and reconstructs the real time history.
    Raises CausalityViolation when the reconstructed state at t = 0 is not
    at rest relative to the trajectory peak.
    """
    if scene.polarization != "TE":
        raise UnsupportedPolarization("time-domain solves support TE only")
    s_nodes = cq_frequencies(scheme)
    n1 = scheme.steps + 1
    lam = scheme.lam
    times = scheme.times()

    g_series = boundary_data_series(pw, grid, times)  # (N+1, Ng) real
    scaled = g_series * lam ** np.arange(n1)[:, None]
    g_hat = np.fft.rfft(scaled, axis=0)  # nodes l = 0 .. n1//2

    solver = FrequencySolver(scene, meshes, grid)
    n_half = n1 // 2
    loads = [solver.load(TraceVector(g_hat[l])) for l in range(n_half + 1)]
    u_hat = np.empty((n_half + 1, loads[0].size), dtype=np.complex128)
    residuals = np.empty(n_half + 1)

    # Each solve factorizes, certifies and frees its own LU, so at most
    # `threads` factorizations are alive at once.
    def solve_node(l: int) -> tuple[int, np.ndarray, float]:
        return (l, *solver.solve_load(s_nodes[l], loads[l], node=l))

    indices = range(n_half + 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for l, x, res in pool.map(solve_node, indices):
                u_hat[l], residuals[l] = x, res
    else:
        for l in indices:
            _, u_hat[l], residuals[l] = solve_node(l)

    # Half-spectrum synthesis: the mirrored nodes are conjugates by
    # construction, so the inverse transform is real structurally.  The
    # residue reported below measures the one place realness could leak,
    # without factorizing the mirror of node 1 (node n1 - 1).
    hist = np.fft.irfft(u_hat, n=n1, axis=0)
    hist *= lam ** (-np.arange(n1, dtype=float))[:, None]
    imag_residue = 0.0
    if n1 >= 3:
        imag_residue = _conjugation_residue(
            solver, s_nodes[1], u_hat[1], TraceVector(np.conj(g_hat[1]))
        )
    worst = int(np.argmax(residuals))

    sol = TimeSolution(
        times=times,
        fields=solver.expand(hist),
        scheme=scheme,
        imag_residue=imag_residue,
        max_residual=float(residuals[worst]),
        worst_s=complex(s_nodes[worst]),
        fems=solver.fems,
    )
    norms = sol.step_norms()
    peak_norm = float(np.max(norms))
    sol.initial_ratio = float(norms[0] / peak_norm) if peak_norm > 0.0 else 0.0
    if sol.initial_ratio > _CAUSALITY_LIMIT:
        raise CausalityViolation(
            f"state at t=0 has norm {sol.initial_ratio:.3e} of the trajectory "
            f"peak (limit {_CAUSALITY_LIMIT:.0e}); lower contour_tol or check "
            f"the pulse delay"
        )
    return sol


def time_derivative(sol: TimeSolution, scheme: CqScheme | None = None) -> list[np.ndarray]:
    """Backward-difference time derivatives of the nodal history.

    Step 0 is the rest state (derivative zero), step 1 uses the first-order
    difference, and steps n >= 2 the second-order three-term formula, which
    is exact on linear histories from step 1 and quadratic ones from step 2.
    """
    if scheme is None:
        scheme = sol.scheme
    if sol.n_steps < 2:
        raise ValueError("need at least 2 steps for BDF2 differences")
    dt = scheme.dt
    out = []
    for block in sol.fields:
        d = np.zeros_like(block)
        d[1] = (block[1] - block[0]) / dt
        d[2:] = (3.0 * block[2:] - 4.0 * block[1:-1] + block[:-2]) / (2.0 * dt)
        out.append(d)
    return out
