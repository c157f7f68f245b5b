"""Energy functionals and numerical certification of the stability theory.

Every inequality checked here has an unquantified analytic constant, so
each check measures its ratio on a pinned reference configuration and
asserts non-regression afterwards: the pins below were recorded on the
shipped reference scenes and subsequent runs may not exceed them by more
than PIN_MARGIN.

The passivity suite exercises the sign-definiteness of the boundary
quadratic form three ways: single trace, coupled two-trace, and n-trace
random configurations in the frequency domain, plus the time-domain
pairing (trace.pairing_terms) of the march's own BDF2 DtN weights
(cq.dtn_weights) with the BDF2 difference.  BDF2 is A-stable, so by
Parseval on |zeta| = 1 that pairing is nonnegative mode by mode for every
causal history that returns to rest (Lubich, Numer. Math. 67, 1994; Banjai,
Lubich & Sayas, Numer. Math. 129, 2015).

The time-domain checks read one per-step record: the march
(cq.run_time_domain) accumulates every quadratic form of u and du/dt and
that same pairing on its own trajectory as it runs, `energy` adds the
three data-norm rows of the boundary data (incident.boundary_data_bundle)
and keeps it all in an EnergyTrace, and the stability, a-priori and
passivity checks are arithmetic on that record.  No check needs a field.
The commands keep each value, limit and verdict in manifest.json alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .cq import BDF2, FORMS, CqScheme, TimeSolution, dtn_weights
from .errors import DimensionMismatch
from .incident import BoundaryDataNorms
from .io import write_csv
from .trace import TraceGrid, pairing_terms, passivity_defect, restrict

__all__ = [
    "EnergyTrace",
    "StabilityRecord",
    "AprioriRecord",
    "PassivityReport",
    "energy",
    "stability_check",
    "apriori_check",
    "passivity_suite",
    "passivity_deficit",
    "save_energy_csv",
]

# ---------------------------------------------------------------------------
# Regression pins, measured on the shipped reference configurations.
# ---------------------------------------------------------------------------
PIN_MARGIN = 1.05
# reference_single.json, 20-point sweep s1 in [0.25, 8]: max measured ratio.
PINNED_FREQ_RATIO_MAX = 2.417
# Worst stability ratio across the three reference time runs
# (single 0.2973, two 0.2426, three 0.2102).
PINNED_STABILITY_RATIO = 0.2974
# Sustained-data growth study on reference_single at the base horizon T=6
# (the tests' growth_study, acceptance criterion 09).
PINNED_APRIORI_LINF = 0.229

# Passivity-suite failure limits on the normalized defect (a trial fails
# below minus the limit): frequency-domain configurations, time-domain form
# (also the limit of solve-time's passivity_deficit).
DEFECT_TOL, TIME_DEFECT_TOL = 1e-12, 1e-10
# Time-domain passivity histories: random signals under a sin^2 envelope
# that returns to rest at step _TD_REST, then _TD_STEPS - _TD_REST rest
# steps, so that the pairing covers every step where D1 u is nonzero.
_TD_DT, _TD_REST, _TD_STEPS = 0.1, 32, 34


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

@dataclass
class EnergyTrace:
    """Per-step record of a time solution: the march's forms and the data norms.

    kinetic = |eps^(1/2) du/dt|^2 and potential = |mu^(-1/2) grad u|^2, both
    by finite-element quadrature.  du_l2, du_h1, u_l2 and u_h1 are the
    squared unit-weight L2 norms and H1 seminorms of du/dt and u, which the
    stability and a-priori checks read, flux the per-step boundary flux the
    passivity check reads.  g_norm, dg_norm and d2g_norm are the
    zero-extended -1/2 trace norms of the boundary data and its first two
    time derivatives; the cumulative data norms behind the stability
    right-hand sides derive from them: running L1-in-time of g and of its
    second derivative, and the running max for the first.
    """

    times: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    du_l2: np.ndarray
    du_h1: np.ndarray
    u_l2: np.ndarray
    u_h1: np.ndarray
    flux: np.ndarray
    g_norm: np.ndarray
    dg_norm: np.ndarray
    d2g_norm: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.kinetic + self.potential

    @property
    def g_l1(self) -> np.ndarray:
        return _cumulative_trapezoid(self.g_norm, self.times)

    @property
    def dg_max(self) -> np.ndarray:
        return np.maximum.accumulate(self.dg_norm)

    @property
    def d2g_l1(self) -> np.ndarray:
        return _cumulative_trapezoid(self.d2g_norm, self.times)


def energy(sol: TimeSolution, norms: BoundaryDataNorms) -> EnergyTrace:
    """The march's per-step forms plus the three data-norm rows of `norms`.

    The rows must be taken on the solution's time grid.
    """
    if not np.array_equal(norms.times, sol.times):
        raise DimensionMismatch("boundary data norms are not taken on the solution times")
    return EnergyTrace(
        times=sol.times.copy(),
        **dict(zip(FORMS, sol.forms)),
        g_norm=norms.g,
        dg_norm=norms.dg,
        d2g_norm=norms.d2g,
    )


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


# ---------------------------------------------------------------------------
# Stability and a-priori ratio checks
# ---------------------------------------------------------------------------

@dataclass
class StabilityRecord:
    lhs: float
    rhs: float
    ratio: float


@dataclass
class AprioriRecord:
    linf_ratio: float
    l2_ratio: float


def stability_check(et: EnergyTrace) -> StabilityRecord:
    """Discrete form of the main stability estimate.

    lhs = max_n (|du/dt|_L2 + |grad du/dt|_L2); rhs combines the L1-in-time
    data norm, the max first-derivative norm and the L1 second-derivative
    norm, all in the zero-extended -1/2 trace norm.  Both sides are
    1-homogeneous in the data, so the ratio is amplitude invariant.
    """
    lhs = float(np.max(np.sqrt(et.du_l2) + np.sqrt(et.du_h1)))
    t = et.times
    rhs = float(np.trapezoid(et.g_norm, t) + np.max(et.dg_norm) + np.trapezoid(et.d2g_norm, t))
    return StabilityRecord(lhs=lhs, rhs=rhs, ratio=lhs / rhs if rhs > 0.0 else 0.0)


def apriori_check(et: EnergyTrace) -> AprioriRecord:
    """Field-level bounds with explicit horizon weights.

    linf_ratio divides the max-in-time L2 norms by the T-weighted data
    norm; l2_ratio uses the time-integrated norms against T^(3/2), T^(1/2)
    weights, with T the last time of the record.  Acceptance criterion 09
    reruns this at doubled horizons with a sustained data family and
    expects no growth of linf_ratio.
    """
    t = et.times
    horizon = float(t[-1])
    g_l1 = float(np.trapezoid(et.g_norm, t))
    dg_l1 = float(np.trapezoid(et.dg_norm, t))

    linf_lhs = float(np.max(np.sqrt(et.u_l2)) + np.max(np.sqrt(et.u_h1)))
    linf_rhs = horizon * g_l1 + dg_l1
    l2_lhs = float(
        np.sqrt(np.trapezoid(et.u_l2, t)) + np.sqrt(np.trapezoid(et.u_h1, t))
    )
    l2_rhs = horizon**1.5 * g_l1 + horizon**0.5 * dg_l1
    return AprioriRecord(
        linf_ratio=linf_lhs / linf_rhs if linf_rhs > 0.0 else 0.0,
        l2_ratio=l2_lhs / l2_rhs if l2_rhs > 0.0 else 0.0,
    )


def passivity_deficit(et: EnergyTrace) -> float:
    """How far the cumulative outflow through the apertures falls below zero.

    Returns -min_n F_n / max_n |F_n| for F_n = dt sum_{m<=n} flux_m (dt
    cancels): at most 0 while the outflow stays nonnegative, as the energy
    identity gives whatever the cavity energy does step by step; 0 when F
    is identically 0; NaN when the record is.
    """
    outflow = np.cumsum(et.flux)
    peak = float(np.max(np.abs(outflow)))
    return -float(np.min(outflow)) / peak if peak != 0.0 else 0.0


# ---------------------------------------------------------------------------
# Passivity suite
# ---------------------------------------------------------------------------

@dataclass
class PassivityReport:
    """Per configuration: the worst normalized defect and the trials that failed."""

    min_defects: dict[str, float] = dc_field(default_factory=dict)
    failures: dict[str, int] = dc_field(default_factory=dict)


def _random_trace(rng: np.random.Generator, grid: TraceGrid, j: int) -> np.ndarray:
    vals = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    return restrict(vals, j, grid)


def _random_s(rng: np.random.Generator) -> complex:
    return complex(10.0 * (1.0 - rng.random()), rng.uniform(-10.0, 10.0))


def passivity_suite(
    grid: TraceGrid,
    c: float,
    trials: int = 1000,
    seed: int = 0,
    mu0: float = 1.0,
) -> PassivityReport:
    """Randomized sign checks of the boundary quadratic form.

    Frequency-domain configurations run with one trace, two traces and all
    apertures of the grid (whichever exist); the time-domain configuration
    pairs random causal trace histories with the march's DtN weights,
    built once here.  Failures (normalized defect below -DEFECT_TOL, or
    -TIME_DEFECT_TOL in the time domain) are report content, not exceptions.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    rng = np.random.default_rng(seed)
    report = PassivityReport()

    configs = [("single", 1)]
    if grid.n_apertures >= 2:
        configs.append(("two-trace", 2))
    if grid.n_apertures > 2:
        configs.append((f"{grid.n_apertures}-trace", grid.n_apertures))

    for name, n_traces in configs:
        worst = math.inf
        fails = 0
        for _ in range(trials):
            s = _random_s(rng)
            traces = [_random_trace(rng, grid, j) for j in range(n_traces)]
            scale = max(
                sum(float(np.linalg.norm(t)) ** 2 for t in traces), 1.0
            )
            d = passivity_defect(traces, s, mu0, grid, c) / scale
            worst = min(worst, d)
            if d < -DEFECT_TOL:
                fails += 1
        report.min_defects[name] = worst
        report.failures[name] = fails

    worst = math.inf
    fails = 0
    td_trials = max(1, trials // 10)  # each trial is a full space-time history
    omega, _ = dtn_weights(grid, c, CqScheme(dt=_TD_DT, steps=_TD_STEPS))
    for _ in range(td_trials):
        d = _time_domain_defect(rng, grid, omega, mu0)
        worst = min(worst, d)
        if d < -TIME_DEFECT_TOL:
            fails += 1
    report.min_defects["time-domain"] = worst
    report.failures["time-domain"] = fails
    return report


def _time_domain_defect(
    rng: np.random.Generator, grid: TraceGrid, omega: np.ndarray, mu0: float
) -> float:
    """Normalized time-domain passivity pairing of the march's DtN weights.

    For a random real causal history u_n on the apertures, at rest from
    step _TD_REST on, evaluates
        D = -(dx/mu0) sum_n <(omega * u)_n, (D1 u)_n>
    on the rfft modes, with omega the (N+1, N_trace/2+1) weights of
    cq.dtn_weights, * their causal convolution in time and D1 the BDF2
    difference, and returns D over the sum of the magnitudes of its
    (step, mode) terms, a number in [-1, 1].  D1 u vanishes after step
    _TD_REST + 1, so the finite sum is the |zeta| = 1 integral exactly.
    """
    n1 = omega.shape[0]
    t = _TD_DT * np.arange(n1)
    envelope = np.sin(np.pi * np.minimum(t / t[_TD_REST], 1.0)) ** 2
    hist = np.zeros((n1, grid.N))
    for j in range(grid.n_apertures):
        base = restrict(rng.standard_normal(grid.N), j, grid)
        signal = np.zeros(n1)
        for _ in range(3):
            om = rng.uniform(0.5, 4.0)
            signal += rng.standard_normal() * np.sin(om * t + rng.uniform(0, 2 * np.pi))
        hist += (envelope * signal)[:, None] * base[None, :]

    u_hat = np.fft.rfft(hist, axis=1)
    conv = np.zeros_like(u_hat)
    for k in range(n1):
        conv[k:] += omega[k] * u_hat[: n1 - k]
    d1 = np.zeros_like(u_hat)
    for k, b in enumerate(BDF2):
        d1[k:] += b * u_hat[: n1 - k]
    d1 /= _TD_DT
    terms = pairing_terms(conv, d1, grid, mu0)
    scale = float(np.sum(np.abs(terms)))
    return float(np.sum(terms)) / scale if scale > 0.0 else 0.0


def save_energy_csv(path: str | Path, et: EnergyTrace) -> None:
    write_csv(
        path,
        ["t", "total", "kinetic", "potential", "g_l1", "dg_max", "d2g_l1"],
        zip(et.times, et.total, et.kinetic, et.potential, et.g_l1, et.dg_max, et.d2g_l1),
    )
