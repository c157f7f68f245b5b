"""Nonlocal machinery on the aperture line y = 0.

The exterior half-space is eliminated through a Dirichlet-to-Neumann map
whose Fourier symbol is ``beta(xi, s) = -sqrt(xi**2 + s**2/c**2)`` with the
root chosen so that ``Re beta < 0`` for every admissible frequency
``Re s > 0``.  All operators here act on a uniform periodic sampling of the
line, with apertures marked by boolean masks and the conducting ground plane
realized as exact zeros between them.

Trace data are plain length-N numpy arrays, and every operator that needs
the symbol takes its one parameter, the exterior light speed ``c``
(`beta` rejects ``c <= 0`` and NaN).  The dtype follows the data: the
restrictions keep a real trace real, and so does `apply_B` at real s,
where the symbol is real (through the rfft modes `TraceGrid.rfft_xi`).
This module is the one owner of how B(s) is applied, which modes it acts
on, how two rfft spectra pair (`pairing_terms`) and how traces are normed.

Transform convention, fixed here and used everywhere in the package:

    coefficients   c_m = (1/N) * sum_k u(x_k) exp(-i xi_m x_k)
    synthesis      u(x_k) = sum_m c_m exp(+i xi_m x_k)

with ``xi_m = 2*pi*m/L`` for ``m in [-N/2, N/2)``.  The symbol is even in
``xi``, so applying a multiplier ``g(xi)`` reduces to
``ifft(g(xi) * fft(u))`` with numpy's default ordering; the origin phase
cancels identically.  The dense oracle `dtn_dense` is built from the same
mode set, so FFT/dense agreement is a convention-free check.

Quadrature on the line is the periodic trapezoidal rule (uniform weight
``dx`` per sample).  For vectors supported on the apertures this coincides
with the aperture-interval pairing and keeps the discrete passivity
identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, GridMismatch, SizeError

__all__ = [
    "TraceGrid",
    "beta",
    "apply_B",
    "dtn_dense",
    "restrict",
    "trace_norm",
    "aperture_norm_rows",
    "pairing_terms",
    "passivity_defect",
]

MIN_SAMPLES_PER_APERTURE = 16
# Smallest sample count `TraceGrid.for_apertures` chooses.
MIN_TRACE_SAMPLES = 64
# Largest trace sample count a grid may have (8 MiB per real sample vector).
MAX_TRACE_SAMPLES = 2**20
DENSE_ORACLE_MAX = 1024


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TraceGrid:
    """Uniform periodic sampling of the truncated ground line.

    Parameters
    ----------
    L : float
        Period of the truncated line; samples live on [-L/2, L/2).
    N : int
        Number of samples, a power of two, at most MAX_TRACE_SAMPLES.
    apertures : tuple of (float, float)
        Aperture intervals on y = 0, ordered and pairwise disjoint.

    All apertures must fit inside [-L/4, L/4] so the zero-extension tail
    has at least a quarter period of conducting plane on each side, and
    each aperture must contain at least MIN_SAMPLES_PER_APERTURE samples.
    """

    L: float
    N: int
    apertures: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.L > 0.0:  # also rejects NaN
            raise ValueError(f"period must be positive, got L={self.L}")
        if not (_is_power_of_two(self.N) and self.N <= MAX_TRACE_SAMPLES):
            raise ValueError(
                f"sample count must be a power of two up to {MAX_TRACE_SAMPLES}, got N={self.N}"
            )
        aps = tuple((float(a), float(b)) for a, b in self.apertures)
        object.__setattr__(self, "apertures", aps)
        quarter = self.L / 4.0 + 1e-12 * self.L
        prev_end = None
        for a, b in aps:
            if not a < b:
                raise ValueError(f"empty aperture interval [{a}, {b}]")
            if a < -quarter or b > quarter:
                raise ValueError(
                    f"aperture [{a}, {b}] leaves the zero-extension margin "
                    f"[-L/4, L/4] = [{-self.L / 4}, {self.L / 4}]"
                )
            if prev_end is not None and a <= prev_end:
                raise ValueError("apertures must be ordered with positive gaps")
            prev_end = b
        for j, m in enumerate(self.masks):
            if int(m.sum()) < MIN_SAMPLES_PER_APERTURE:
                raise ValueError(
                    f"aperture {j} contains {int(m.sum())} samples; "
                    f"at least {MIN_SAMPLES_PER_APERTURE} required (increase N)"
                )

    @cached_property
    def dx(self) -> float:
        return self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        return -self.L / 2.0 + self.dx * np.arange(self.N)

    @cached_property
    def xi(self) -> np.ndarray:
        """Angular frequencies 2*pi*m/L in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    @cached_property
    def rfft_xi(self) -> np.ndarray:
        """The rfft modes xi[: N/2 + 1].  The symbol is even in xi, so the
        sign numpy gives the last one (Nyquist) does not matter."""
        return self.xi[: self.N // 2 + 1]

    @cached_property
    def masks(self) -> tuple[np.ndarray, ...]:
        out = []
        for a, b in self.apertures:
            out.append((self.x >= a) & (self.x <= b))
        return tuple(out)

    @cached_property
    def aperture_weights(self) -> np.ndarray:
        """Trapezoid weights of the aperture integrals, one per sample.

        dx on the samples inside each aperture, half of it on the first and
        last of them, and zero on the ground plane.  Used for load vectors,
        where the integrand need not vanish at the aperture ends; the
        nonlocal pairings keep the uniform periodic weights instead.
        """
        w = np.zeros(self.N)
        for mask in self.masks:
            ks = np.nonzero(mask)[0]
            w[ks] = self.dx
            w[ks[[0, -1]]] *= 0.5
        return w

    @cached_property
    def union_mask(self) -> np.ndarray:
        m = np.zeros(self.N, dtype=bool)
        for mask in self.masks:
            m |= mask
        return m

    @property
    def n_apertures(self) -> int:
        return len(self.apertures)

    @classmethod
    def for_apertures(
        cls,
        apertures: Sequence[tuple[float, float]],
        min_samples: int = 32,
    ) -> "TraceGrid":
        """Choose L and N automatically for the given apertures.

        L is the smallest value with every aperture inside [-L/4, L/4]
        (at least four times the widest half-extent), N the smallest power
        of two, at least MIN_TRACE_SAMPLES, giving `min_samples` samples in
        the narrowest aperture; a ValueError if that takes more than
        MAX_TRACE_SAMPLES.
        """
        if not apertures:
            raise ValueError("at least one aperture required")
        reach = max(max(abs(a), abs(b)) for a, b in apertures)
        width = min(b - a for a, b in apertures)
        L = 4.0 * max(reach, width)
        n = MIN_TRACE_SAMPLES
        while n * width / L < min_samples and n < MAX_TRACE_SAMPLES:
            n *= 2
        if n * width / L < min_samples:
            raise ValueError(f"min_samples={min_samples} needs N > {MAX_TRACE_SAMPLES}")
        return cls(L=L, N=n, apertures=tuple(apertures))


def beta(xi, s, c: float):
    """Root of xi**2 + s**2/c**2 with strictly negative real part.

    ``xi`` (real) and ``s`` (complex) are scalars or arrays that broadcast
    against each other.  Raises DomainError if any Re s <= 0, or if a
    principal root lands on the imaginary axis (unreachable for Re s > 0;
    an explicit failure beats a silent branch flip).
    """
    s = np.asarray(s, dtype=np.complex128)
    outside = ~(s.real > 0.0)  # also catches NaN
    if np.any(outside):
        raise DomainError(f"frequency must satisfy Re s > 0, got s={complex(s[outside][0])}")
    if not c > 0.0:  # also rejects NaN
        raise DomainError(f"light speed must be positive, got {c}")
    xi = np.asarray(xi, dtype=float)
    root = np.sqrt(xi * xi + (s / c) ** 2)
    degenerate = root.real <= 0.0
    if np.any(degenerate):
        raise DomainError(f"principal root degenerated at {int(np.sum(degenerate))} (xi, s) pairs")
    return -root


def _check_grid(u: np.ndarray, grid: TraceGrid) -> None:
    if u.shape != (grid.N,):
        raise GridMismatch(
            f"trace vector of length {u.shape} does not match grid N={grid.N}"
        )


def apply_B(u: np.ndarray, s: complex, grid: TraceGrid, c: float) -> np.ndarray:
    """Apply the DtN boundary operator: multiply mode m by beta(xi_m, s).

    Acts along axis 0 of a trace or of an (N, k) array of columns; linear
    in u, O(N log N).  At real s the symbol is real, so a real input goes
    through rfft / irfft and comes back as an exactly real float64 array;
    otherwise the result is complex.  The dense counterpart `dtn_dense`
    reproduces this exactly (same modes, same normalization).
    """
    if u.ndim not in (1, 2) or u.shape[0] != grid.N:
        raise GridMismatch(f"trace array of shape {u.shape} does not match grid N={grid.N}")
    axis0 = (slice(None),) + (None,) * (u.ndim - 1)  # the symbol along axis 0
    if complex(s).imag == 0.0 and not np.iscomplexobj(u):
        b = beta(grid.rfft_xi, s, c).real
        return np.fft.irfft(b[axis0] * np.fft.rfft(u, axis=0), n=grid.N, axis=0)
    b = beta(grid.xi, s, c)
    return np.fft.ifft(b[axis0] * np.fft.fft(u, axis=0), axis=0)


def dtn_dense(grid: TraceGrid, s: complex, c: float) -> np.ndarray:
    """Dense N x N realization of the boundary operator (independent oracle).

    Entry (p, q) = (1/N) * sum_m beta(xi_m, s) e^{-i xi_m x_p} e^{+i xi_m x_q}.
    O(N^2) memory by construction; capped at N <= DENSE_ORACLE_MAX.
    """
    if grid.N > DENSE_ORACLE_MAX:
        raise SizeError(f"dense oracle capped at N={DENSE_ORACLE_MAX}, got N={grid.N}")
    b = beta(grid.xi, s, c)
    phase = np.exp(-1j * np.outer(grid.x, grid.xi))
    return (phase * b) @ phase.conj().T / grid.N


def restrict(u: np.ndarray, j: int, grid: TraceGrid) -> np.ndarray:
    """Copy values on aperture j's samples, exact zeros elsewhere."""
    _check_grid(u, grid)
    if not 0 <= j < grid.n_apertures:
        raise IndexError(f"aperture index {j} out of range [0, {grid.n_apertures})")
    return np.where(grid.masks[j], u, 0)


def trace_norm(u: np.ndarray, order: float, grid: TraceGrid) -> float | np.ndarray:
    """Fourier-multiplier Sobolev norm with weight (1 + xi^2)**order.

    Normalized so that order = 0 reproduces the discrete L2 norm
    sqrt(dx * sum |u_k|^2); orders +-1/2 are the trace norms paired by the
    boundary-operator continuity estimate.  Homogeneous of degree one.
    A float for one trace, one norm per row (last axis) of a 2-D array.
    """
    if u.ndim not in (1, 2) or u.shape[-1] != grid.N:
        raise GridMismatch(f"trace array of shape {u.shape} does not match grid N={grid.N}")
    coeff = np.fft.fft(u, axis=-1) / grid.N
    weight = (1.0 + grid.xi**2) ** order
    norm = np.sqrt(grid.L * np.sum(weight * np.abs(coeff) ** 2, axis=-1))
    return float(norm) if u.ndim == 1 else norm


def aperture_norm_rows(rows: np.ndarray, grid: TraceGrid) -> np.ndarray:
    """-1/2 trace norm of each row of aperture data, zero-extended across
    the ground plane: the one data norm of the stability estimates.
    """
    if rows.ndim != 2 or rows.shape[1] != grid.N:
        raise GridMismatch(f"rows of shape {rows.shape} do not match grid N={grid.N}")
    return trace_norm(np.where(grid.union_mask, rows, 0.0), -0.5, grid)


def pairing_terms(a: np.ndarray, b: np.ndarray, grid: TraceGrid, mu0: float) -> np.ndarray:
    """Per-mode terms of the pairing -(dx/mu0) <a, b> of two real traces,
    given as rfft spectra (last axis).  The rfft multiplicities weight the
    terms to sum to the pairing of the full spectrum: inner modes twice,
    (N even) zero and Nyquist once.
    """
    mult = np.full(a.shape[-1], 2.0)
    mult[[0, -1]] = 1.0
    return -(grid.dx / (mu0 * grid.N)) * mult * (a * np.conj(b)).real


def passivity_defect(
    traces: Sequence[np.ndarray],
    s: complex,
    mu0: float,
    grid: TraceGrid,
    c: float,
) -> float:
    """Negated real part of the coupled boundary quadratic form.

    D = -Re sum_j sum_i <(s mu0)^{-1} B u_i, u_j>_{Gamma_j} with the
    periodic-trapezoid pairing.  Because the traces vanish off their own
    apertures, the double sum collapses onto the full-line form of the
    summed trace, and the mode-wise sign identity of the symbol makes
    D >= 0 exact up to roundoff.  `beta` refuses Re s <= 0 (DomainError).
    """
    s = complex(s)
    for t in traces:
        _check_grid(t, grid)
    total = sum(traces, np.zeros(grid.N))
    bw = apply_B(total, s, grid, c)
    pairing = grid.dx * np.sum(bw * np.conj(total))
    return float(-np.real(pairing / (s * mu0)))
