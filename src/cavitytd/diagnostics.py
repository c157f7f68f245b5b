"""Energy functionals and numerical certification of the stability theory.

Every inequality checked here has an unquantified analytic constant, so
each check measures its ratio on a pinned reference configuration and
asserts non-regression afterwards: the pins below were recorded on the
shipped reference scenes and subsequent runs may not exceed them by more
than PIN_MARGIN.

The passivity certificates are exact, and they need no random samples:
every boundary form is diagonal in the Fourier modes.  In the frequency
domain the form of any set of aperture traces is that of their sum, so
one sign per (mode, frequency) certifies it for every trace.  In the time
domain the pairing (trace.pairing_terms) of the march's own BDF2 DtN
weights (cq.dtn_weights) with the BDF2 difference is one quadratic form
per mode over the history, nonnegative for every history exactly when its
matrix is negative semidefinite.  The symbol has Re(beta/s) < 0 wherever
Re s > 0, and BDF2 is A-stable, so both hold up to the weights' round-off
(Lubich, Numer. Math. 67, 1994; Banjai, Lubich & Sayas, Numer. Math. 129,
2015).

The time-domain checks read one per-step record: the march
(cq.run_time_domain) accumulates every quadratic form of u and du/dt and
that same pairing on its own trajectory as it runs, `energy` adds the
three data-norm rows of the boundary data (incident.boundary_data_bundle)
and keeps it all in an EnergyTrace, and the stability, a-priori and
passivity checks are arithmetic on that record.  No check needs a field.
The commands keep each value, limit and verdict in manifest.json alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cq import BDF2, FORMS, CqScheme, TimeSolution, dtn_weights
from .errors import DimensionMismatch
from .incident import BoundaryDataNorms
from .io import write_csv
from .trace import TraceGrid, beta

__all__ = [
    "EnergyTrace",
    "StabilityRecord",
    "AprioriRecord",
    "energy",
    "stability_check",
    "apriori_check",
    "passivity_deficit",
    "symbol_blocks",
    "frequency_forms",
    "frequency_passivity",
    "pairing_forms",
    "time_passivity",
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

# Passivity certificate limits: frequency domain, time domain (also the
# limit of solve-time's passivity_deficit).
DEFECT_TOL, TIME_DEFECT_TOL = 1e-12, 1e-10
# The time-domain certificate's step and step count.
_TD_DT, _TD_STEPS = 0.1, 34
# Most symbol values or pairing-matrix entries a certificate holds at once.
_CERT_ENTRIES = 2**18

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
# Passivity certificates
# ---------------------------------------------------------------------------

def symbol_blocks(
    grid: TraceGrid, c: float, s: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """The symbol on the rfft modes of `grid` at the frequencies `s`.

    Yields (modes, beta(grid.rfft_xi[modes], s[:, None])) for consecutive
    slices of the modes, each symbol block of at most _CERT_ENTRIES values.
    """
    s = np.ravel(s)[:, None]
    step = max(1, _CERT_ENTRIES // s.size)
    for lo in range(0, grid.rfft_xi.size, step):
        modes = slice(lo, lo + step)
        yield modes, beta(grid.rfft_xi[modes], s, c)


def frequency_forms(
    grid: TraceGrid, c: float, s: np.ndarray, mu0: float
) -> Iterator[np.ndarray]:
    """The boundary form's mode coefficients at the frequencies `s`.

    The coupled form of any set of traces (trace.passivity_defect) is that
    of their sum, L sum_m c_m(s) |u_m|^2 over its rfft coefficients u_m,
    with c_m(s) = -mult_m Re(beta(xi_m, s) / (s mu0)) and mult_m the
    TraceGrid.rfft_multiplicity.  Yields c_m(s), one (s.size, modes) block
    per block of symbol_blocks.
    """
    s_col = np.ravel(s)[:, None]
    for modes, symbol in symbol_blocks(grid, c, s):
        yield -grid.rfft_multiplicity[modes] * (symbol / (s_col * mu0)).real


def frequency_passivity(grid: TraceGrid, c: float, s: np.ndarray, mu0: float) -> float:
    """Exact certificate of the boundary form at the frequencies `s`.

    The form is nonnegative for every set of aperture traces exactly when
    every coefficient c_m(s) of frequency_forms is.  Returns
    -min c_m(s) / max |c_m(s)| over the modes and frequencies: at most 0
    exactly then, 0 when every c_m(s) is 0, NaN when any is NaN.
    """
    lows, peaks = zip(*((f.min(), np.abs(f).max()) for f in frequency_forms(grid, c, s, mu0)))
    peak = np.max(peaks)
    return float(-np.min(lows) / peak) if peak != 0.0 else 0.0


def pairing_forms(omega: np.ndarray, dt: float) -> np.ndarray:
    """The time-domain pairing of each mode as a symmetric matrix.

    For the (n1, modes) DtN weights omega (cq.dtn_weights), returns the
    (modes, n1, n1) stack S_m = sym(T_delta^T T_omega(m)), T_omega(m) the
    lower-triangular Toeplitz matrix of omega[:, m] and T_delta that of the
    BDF2 row over dt.  A history h of n1 steps in mode m then pairs as
    sum_n Re((omega * h)_n conj((D1 h)_n)) = h^H S_m h, and
    trace.pairing_terms weights that by -(dx/(mu0 N)) mult_m.
    """
    n1 = omega.shape[0]
    lag = np.subtract.outer(np.arange(n1), np.arange(n1))
    causal = lag >= 0
    lag = np.where(causal, lag, 0)
    delta = np.zeros(n1)
    delta[: BDF2.size] = BDF2 / dt
    t_omega = np.moveaxis(omega[lag], -1, 0) * causal
    a = (delta[lag] * causal).T @ t_omega
    return 0.5 * (a + np.swapaxes(a, 1, 2))


def time_passivity(grid: TraceGrid, c: float) -> float:
    """Exact certificate of the march's time-domain boundary pairing.

    Takes the march's own DtN weights (cq.dtn_weights) at step _TD_DT over
    _TD_STEPS steps.  The pairing trace.pairing_terms forms of (omega * u)
    and D1 u is nonnegative for every full-line history u of those steps,
    aperture histories among them, exactly when every pairing_forms matrix
    S_m is negative semidefinite (discrete positivity: Banjai, Lubich &
    Sayas, Numer. Math. 129, 2015).  Returns max_m lambda_max(S_m) over the
    largest |lambda| of all S_m: at most 0 exactly then.
    """
    omega, _ = dtn_weights(grid, c, CqScheme(dt=_TD_DT, steps=_TD_STEPS))
    step = max(1, _CERT_ENTRIES // omega.shape[0] ** 2)
    ends = np.concatenate([
        np.linalg.eigvalsh(pairing_forms(omega[:, lo : lo + step], _TD_DT))[:, [0, -1]]
        for lo in range(0, omega.shape[1], step)
    ])
    peak = np.max(np.abs(ends))
    return float(np.max(ends[:, 1]) / peak) if peak != 0.0 else 0.0


def save_energy_csv(path: str | Path, et: EnergyTrace) -> None:
    write_csv(
        path,
        ["t", "total", "kinetic", "potential", "g_l1", "dg_max", "d2g_l1"],
        zip(et.times, et.total, et.kinetic, et.potential, et.g_l1, et.dg_max, et.d2g_l1),
    )
