import json
import math
from pathlib import Path

import numpy as np
import pytest

import cavitytd as ct
from cavitytd import diagnostics
from cavitytd.cq import CqScheme, dtn_weights
from cavitytd.errors import DimensionMismatch, DomainError
from cavitytd.fem import SystemOperator, SystemPattern, assemble
from cavitytd.freq import FrequencySolver
from cavitytd.incident import BoundaryDataNorms, boundary_data_freq, boundary_data_series
from cavitytd.trace import aperture_norm_rows

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class FieldRecorder:
    """run_time_domain observer that keeps every step's fields.

    `fields` stacks them into one (N+1, n_nodes) history per cavity.
    """

    def __init__(self):
        self.steps = []

    def __call__(self, n, fields):
        assert n == len(self.steps)
        self.steps.append(fields)

    @property
    def fields(self):
        return [np.stack(blocks) for blocks in zip(*self.steps)]


def run_recorded(scene, meshes, grid, pw, scheme):
    """A marched run and the field history its observer recorded."""
    recorder = FieldRecorder()
    sol = ct.run_time_domain(scene, meshes, grid, pw, scheme, recorder)
    return sol, recorder.fields


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _scene(cavities, eps0=1.0, mu0=1.0, polarization="TE"):
    return ct.build_scene(
        {
            "scene": {
                "eps0": eps0,
                "mu0": mu0,
                "polarization": polarization,
                "cavities": cavities,
            }
        }
    )


@pytest.fixture(scope="session")
def unit_scene():
    """One unit-square cavity centered on the origin, identity materials."""
    return _scene(
        [{"aperture": [-0.5, 0.5], "depth": 1.0, "epsilon": 1.0, "mu": 1.0}]
    )


@pytest.fixture(scope="session")
def unit_grid(unit_scene):
    # dx = 1/32 divides the aperture ends and the mesh nodes below.
    return ct.TraceGrid(L=4.0, N=128, apertures=unit_scene.apertures)


@pytest.fixture(scope="session")
def unit_meshes(unit_scene):
    # h = 0.125 aligns mesh aperture nodes with every fourth grid sample.
    return ct.mesh_scene(unit_scene, 0.125)


@pytest.fixture(scope="session")
def unit_solver(unit_scene, unit_meshes, unit_grid):
    return ct.FrequencySolver(unit_scene, unit_meshes, unit_grid)


@pytest.fixture(scope="session")
def two_scene():
    return _scene(
        [
            {"aperture": [-1.25, -0.25], "depth": 1.0, "epsilon": 1.0, "mu": 1.0},
            {"aperture": [0.25, 1.25], "depth": 0.8, "epsilon": 1.0, "mu": 1.0},
        ]
    )


@pytest.fixture(scope="session")
def two_grid(two_scene):
    return ct.TraceGrid(L=6.0, N=128, apertures=two_scene.apertures)


@pytest.fixture(scope="session")
def two_meshes(two_scene):
    return ct.mesh_scene(two_scene, 0.125)


@pytest.fixture(scope="session")
def gaussian_wave():
    profile = ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5)
    return ct.PlaneWave(profile=profile, theta=np.pi / 2)


def load_reference(name, cavity_edits=None):
    """A shipped config's scene, meshes, grid, wave and scheme.

    cavity_edits, when given, maps a cavity index to keys that replace or
    extend that cavity's entry in the config.
    """
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    for j, edit in (cavity_edits or {}).items():
        config["scene"]["cavities"][j].update(edit)
    scene = ct.build_scene(config)
    meshes = ct.mesh_scene(scene, config["mesh"]["h"])
    grid = ct.TraceGrid(
        L=config["trace"]["L"], N=config["trace"]["N"], apertures=scene.apertures
    )
    prof_cfg = config["incident"]["profile"]
    profile = ct.WaveProfile(
        kind=prof_cfg["kind"],
        center=prof_cfg["center"],
        width=prof_cfg["width"],
        amplitude=prof_cfg.get("amplitude", 1.0),
    )
    pw = ct.PlaneWave(
        profile=profile,
        theta=config["incident"]["theta"],
        eps0=scene.eps0,
        mu0=scene.mu0,
    )
    scheme = ct.CqScheme(dt=config["scheme"]["dt"], steps=config["scheme"]["steps"])
    return config, scene, meshes, grid, pw, scheme


@pytest.fixture(scope="session")
def reference_single():
    return load_reference("reference_single")


# ---------------------------------------------------------------------------
# Test references: the all-at-once CQ realization, the time-exact Laplace
# inversion, the single-cavity assembly, the block time derivative, the
# free-space fields and the sustained-data growth study.  The package runs none of them; the tests
# compare it against them.
# ---------------------------------------------------------------------------

# Aliasing level of the all-at-once contour in the reference comparisons.
REFERENCE_CONTOUR_TOL = 1e-20


def contour_radius(scheme, contour_tol):
    """lambda = contour_tol ** (1 / (2N + 2)), for a tolerance in (0, 1)."""
    if not 0.0 < contour_tol < 1.0:
        raise ValueError(f"contour tolerance must lie in (0, 1), got {contour_tol}")
    return contour_tol ** (1.0 / (2 * scheme.steps + 2))


def cq_frequencies(scheme, contour_tol):
    """Contour frequencies s_l = delta(lambda e^{-2 pi i l/(N+1)}) / dt.

    All N + 1 nodes lie in Re s > 0 for every admissible lambda and dt.
    """
    n1 = scheme.steps + 1
    zeta = contour_radius(scheme, contour_tol) * np.exp(-2j * np.pi * np.arange(n1) / n1)
    s = CqScheme.generating_symbol(zeta) / scheme.dt
    assert np.all(s.real > 0.0), f"a contour frequency left Re s > 0: {s[np.argmin(s.real)]}"
    return s


def run_all_at_once(scene, meshes, grid, pw, scheme, contour_tol):
    """All-at-once CQ solution: one certified solve per contour node.

    Scales the sampled aperture data by lambda^n, transforms it over the
    N + 1 contour frequencies, solves the half spectrum (the mirrored nodes
    are conjugates) and synthesizes the real history, which equals the
    march's up to round-off amplified by lambda^-n at step n.  Returns the
    real nodal history of each cavity, one (N+1, n_nodes) block per cavity.
    """
    s_nodes = cq_frequencies(scheme, contour_tol)
    n1 = scheme.steps + 1
    lam = contour_radius(scheme, contour_tol)
    g_series = boundary_data_series(pw, grid, scheme.times())
    g_hat = np.fft.rfft(g_series * lam ** np.arange(n1)[:, None], axis=0)
    solver = FrequencySolver(scene, meshes, grid)
    # Node l = 0 is real: its operator is real, and so is its transform.
    u_hat = np.stack([
        solver.solve_load(s_nodes[l], solver.load(g_hat[l] if l else g_hat[0].real))[0]
        for l in range(n1 // 2 + 1)
    ])
    hist = np.fft.irfft(u_hat, n=n1, axis=0)
    hist *= lam ** (-np.arange(n1, dtype=float))[:, None]
    return solver.expand(hist)


def laplace_inversion(solver, pw, times, a, period, omega_max):
    """Time-exact nodal fields: the frequency solves inverted along Re s = a.

        u(t) = (e^{a t} / pi) Re int_0^inf U(a + i w) e^{i w t} dw,

    by the trapezoid rule in w with step 2 pi / period up to omega_max, one
    `solver.solve` of `boundary_data_freq` per node; the w = 0 node is the
    real solve of s = a.  Aliasing is about e^{-a (period - t)}, and the
    truncation is negligible once the data spectrum is.  The reference has
    the march's mesh, trace grid and L, so their difference is the time
    error alone.  Returns one (len(times), n_nodes) block per cavity.
    """
    dw = 2.0 * np.pi / period
    omegas = dw * np.arange(int(omega_max / dw) + 1)
    u_hat = np.stack([
        np.concatenate(solver.solve(s, boundary_data_freq(pw, solver.grid, s)).fields)
        for s in a + 1j * omegas
    ])
    times = np.asarray(times, dtype=float)
    weights = np.full(omegas.size, dw)
    weights[0] = dw / 2.0
    hist = (np.exp(1j * np.outer(times, omegas)) * weights) @ u_hat
    hist = hist.real * (np.exp(a * times) / np.pi)[:, None]
    return np.split(hist, np.cumsum([f.n_nodes for f in solver.fems])[:-1], axis=1)


def build_system_single(scene, mesh, grid, s, fem=None):
    """Single-cavity assembly (degeneracy reference path).

    Builds the one-block pattern of a lone cavity directly, without the
    scene checks of the general path, and fills it with the same value
    kernel; the general path with one cavity must reproduce it bit for bit.
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"frequency must satisfy Re s > 0, got s={s}")
    if scene.n_cavities != 1:
        raise DimensionMismatch("single-cavity path requires exactly one cavity")
    if fem is None:
        fem = assemble(mesh, scene.cavities[0], grid)
    pattern = SystemPattern.from_fems([fem])
    return SystemOperator(s=s, matrix=pattern.matrix(s, grid, scene.c, scene.mu0))


def time_derivative(block, dt):
    """Backward-difference time derivative of one (N+1, n_nodes) history.

    Step 0 is the rest state (derivative zero), step 1 uses the first-order
    difference, and steps n >= 2 the second-order three-term formula, which
    is exact on linear histories from step 1 and quadratic ones from step 2.
    The march forms the same differences step by step.
    """
    if block.shape[0] < 3:
        raise ValueError("need at least 2 steps for BDF2 differences")
    d = np.zeros_like(block)
    d[1] = (block[1] - block[0]) / dt
    d[2:] = (3.0 * block[2:] - 4.0 * block[1:-1] + block[:-2]) / (2.0 * dt)
    return d


def evaluate_incident(pw, x, y, t):
    """Incident field w(t + c1 x + c2 y) at (x, y, t)."""
    x, y, t = (np.asarray(v, dtype=float) for v in (x, y, t))
    return pw.profile.derivative(t + pw.c1 * x + pw.c2 * y, 0)


def evaluate_reflected(pw, x, y, t):
    """Ground-plane reflection; cancels the incident trace on y = 0."""
    x, y, t = (np.asarray(v, dtype=float) for v in (x, y, t))
    return -pw.profile.derivative(t + pw.c1 * x - pw.c2 * y, 0)


def data_norms(pw, grid, times):
    """The estimate checks' data-norm rows, from the full sampled series of
    each order at once (the package streams them block by block)."""
    return BoundaryDataNorms(times, *(
        aperture_norm_rows(boundary_data_series(pw, grid, times, order), grid)
        for order in range(3)
    ))


# Time steps of each growth-study march, whatever its horizon.
GROWTH_STEPS = 128


def growth_study(scene, meshes, grid, horizons):
    """A-priori ratios for a data family sustained over growing horizons.

    The family at horizon H is a unit-amplitude wide pulse (width H/14,
    centered at H/2) at normal incidence that keeps the apertures driven
    through most of the window, marched in GROWTH_STEPS steps; the
    field-level ratio must not grow as the horizon doubles.
    """
    records = []
    for horizon in horizons:
        profile = ct.WaveProfile(
            kind="gaussian-pulse", center=horizon / 2.0, width=horizon / 14.0, amplitude=1.0
        )
        pw = ct.PlaneWave(profile=profile, theta=math.pi / 2, eps0=scene.eps0, mu0=scene.mu0)
        scheme = CqScheme(dt=horizon / GROWTH_STEPS, steps=GROWTH_STEPS)
        sol = ct.run_time_domain(scene, meshes, grid, pw, scheme)
        et = diagnostics.energy(sol, data_norms(pw, grid, sol.times))
        records.append(diagnostics.apriori_check(et))
    return records


# Edits (rows, factor) of the DtN weights omega[k, m] that break the
# time-domain passivity of the march's weights on reference_three.
DTN_MUTATIONS = {
    "history-negated": (slice(1, None), -1.0),
    "omega1-x1.5": (1, 1.5),
    "omega5-x1.1": (5, 1.1),
    "omega1-negated": (1, -1.0),
}


def mutate_dtn_weights(monkeypatch, rows, factor):
    """diagnostics reads DtN weights whose `rows` are scaled by `factor`."""
    def mutated(*args):
        omega, imag = dtn_weights(*args)
        omega[rows] *= factor
        return omega, imag

    monkeypatch.setattr(diagnostics, "dtn_weights", mutated)


@pytest.fixture
def flipped_dtn_weight(monkeypatch):
    """diagnostics reads DtN weights whose row omega_1 is negated."""
    mutate_dtn_weights(monkeypatch, *DTN_MUTATIONS["omega1-negated"])
