"""Frequency-domain solves and the resolvent-bound report.

The solver is a streaming engine: everything that does not depend on the
frequency (the per-cavity matrices, the sparsity pattern of the coupled
system and the aperture restriction) is built once, and each solve fills
the pattern's values at its s, factorizes, solves, certifies the relative
residual and drops the factorization.

A sweep is solved in groups of nearby frequencies (`frequency_groups`).
The first frequency of a group, its anchor, is solved directly; the
others are solved by conjugate gradients on their own operator,
preconditioned by the anchor's factorization, and carry the same
residual certificate.  Each member's CG starts from the Galerkin
projection of its own operator onto the group's most recent solutions,
which costs sparse products but no triangular solve.  The anchor's
factorization is dropped when its group ends, so memory stays flat in
the number of solves and at most one factorization is alive.  The
estimate report measures the discrete counterpart of the resolvent bound

    ||grad u|| + ||s u||  <=  C * |s| / Re(s) * ||data||_{-1/2}

whose constant is pinned empirically on the reference scene.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, FactorizationFailure
from .fem import (
    FemMatrices,
    SystemOperator,
    SystemPattern,
    apply_rhs,
    assemble_all,
    build_system,
)
from .scene import Mesh, Scene
from .trace import TraceGrid, aperture_norm_rows

__all__ = [
    "FrequencySolution",
    "FrequencySolver",
    "certified_solve",
    "frequency_groups",
    "estimate_report",
    "save_solution_csv",
    "solution_csv_format",
]

_RESIDUAL_LIMIT = 1e-10
# Load norms inside which np.linalg.norm, a root of summed squares, loses
# nothing to their underflow (entries below about 1e-154) or overflow.
_NORM_RANGE = (2.0**-460, 2.0**460)
# Most frequencies one sweep may list, checked before any is generated:
# the benchmark sweeps 192 and the shipped configs 20.
MAX_SWEEP_FREQUENCIES = 2**16

# A sweep frequency joins its group while |s - s_anchor| <= _GROUP_RADIUS
# * |s_anchor|.  A group member's CG stops at a relative residual of
# _CG_TOL, 1000x under the certificate; one that has not converged after
# _CG_MAX_ITER iterations, or whose realness differs from the anchor's,
# is factorized and becomes the group's anchor.
# A member's CG starts from the group's _SEED_VECTORS most recent solutions.
_GROUP_RADIUS = 0.25
_CG_TOL = 1e-13
_CG_MAX_ITER = 20
_SEED_VECTORS = 8


@dataclass
class FrequencySolution:
    """Nodal fields at one frequency, full node set per cavity.

    The fields take the dtype of the load: float64 at real s, where the
    operator and boundary_data_freq's data are real, and complex128
    otherwise.  residual is the relative residual of the solve and lu_nnz
    the fill of its factorization: 0 for a zero load, which needs none,
    and for a sweep member solved on its group anchor's factorization.
    triangular_solves counts the solves it made with a factorization, its
    own or its anchor's.
    """

    s: complex
    fields: list[np.ndarray]
    residual: float
    lu_nnz: int = 0
    triangular_solves: int = 0


class FrequencySolver:
    """Streaming solver: fixed pattern, short-lived LUs.

    Construction checks that the grid carries exactly the scene's apertures
    and assembles the cavities and the coupled sparsity pattern.  `operator(s)`
    is the one builder of the coupled operator: it returns a fresh,
    unfactorized SystemOperator, which SuperLU orders when it factorizes.  The solve methods check every
    relative residual against 1e-10 and let each factorization go when
    they return: `solve` holds one LU for one frequency, `solve_group`
    one LU at a time for a group of nearby frequencies.
    """

    def __init__(
        self,
        scene: Scene,
        meshes: list[Mesh],
        grid: TraceGrid,
    ) -> None:
        if grid.apertures != scene.apertures:
            raise DimensionMismatch(
                f"scene has {scene.n_cavities} cavities, the grid "
                f"{grid.n_apertures} apertures; the grid must carry exactly the "
                f"scene's apertures {scene.apertures}, got {grid.apertures}"
            )
        self.scene = scene
        self.grid = grid
        self.fems: list[FemMatrices] = assemble_all(scene, meshes, grid)
        self.pattern = SystemPattern.from_fems(self.fems)

    def operator(self, s: complex) -> SystemOperator:
        return build_system(self.pattern, self.grid, s, self.scene.c, self.scene.mu0)

    def load(self, data: np.ndarray) -> np.ndarray:
        """Free-DOF load vector of aperture data, stacked over the cavities."""
        return apply_rhs(data, self.pattern.restriction, self.grid)

    def expand(self, x: np.ndarray) -> list[np.ndarray]:
        """Full per-cavity node blocks of free-DOF values (last axis)."""
        out = []
        for f, lo in zip(self.fems, self.pattern.free_offsets):
            full = np.zeros(x.shape[:-1] + (f.n_nodes,), dtype=x.dtype)
            full[..., f.free_nodes] = x[..., lo : lo + f.n_free]
            out.append(full)
        return out

    def free_rows(self, stencils) -> sp.csr_matrix:
        """Sparse rows over the free DOFs of per-cavity node weights.

        `stencils` lists (cavity index, weights over that cavity's nodes)
        pairs, as io.probe_matrix returns them.  Row i applied to free-DOF
        values x gives w_i @ expand(x)[c_i] up to the order of summation:
        the wall nodes drop out exactly, since the field is zero there.
        """
        dense = np.zeros((len(stencils), self.pattern.shape[0]))
        for row, (ci, w) in zip(dense, stencils):
            f, lo = self.fems[ci], self.pattern.free_offsets[ci]
            row[lo : lo + f.n_free] = w[f.free_nodes]
        return sp.csr_matrix(dense)

    def solve(
        self, s: complex, data: np.ndarray, op: SystemOperator | None = None
    ) -> FrequencySolution:
        """Direct solve of the coupled problem at s for aperture data (Re s > 0).

        `op` is `self.operator(s)` when the caller built it; the caller
        then keeps the factorization for as long as it keeps `op`.
        """
        if op is None:
            op = self.operator(s)
        x, residual = certified_solve(op, self.load(data), f"at s={s}")
        return self._solution(s, x, residual, op.lu_nnz, op.triangular_solves)

    def solve_group(
        self, s_values: list[complex], data: list[np.ndarray]
    ) -> list[FrequencySolution]:
        """Solve one group of `frequency_groups` on its anchor's factorization.

        The first frequency, the anchor, is a direct solve.  Each other one
        runs preconditioned CG on its own operator (`_cocg`), started from
        the solutions of the anchor and the members after it (at most
        _SEED_VECTORS, the most recent), and is certified like a direct
        solve.  CG runs only on an anchor of the member's own arithmetic,
        real or complex.  A member whose realness differs from the
        anchor's, or whose CG does not converge, is solved directly and
        becomes the anchor for the rest of the group, its solution the only
        seed.
        """
        out = []
        anchor, seeds = None, deque(maxlen=_SEED_VECTORS)
        for s, d in zip(s_values, data):
            op = self.operator(s)
            sol = None
            if anchor is not None and anchor.matrix.dtype == op.matrix.dtype:
                b = self.load(d)
                done = anchor.triangular_solves
                x = _cocg(op, anchor, b, seeds)
                if x is not None:
                    residual = _certify(op, x, b, f"at s={s}")
                    sol = self._solution(s, x, residual, 0, anchor.triangular_solves - done)
            if sol is None:
                # Drop the old LU and seeds before factorizing the new one.
                anchor = None
                seeds.clear()
                sol = self.solve(s, d, op)
                # A zero load leaves op unfactorized; it cannot precondition.
                anchor = op if op.lu_nnz else None
            # Held at unit peak, as _cocg takes its seeds.
            seed = np.concatenate([u[f.free_nodes] for f, u in zip(self.fems, sol.fields)])
            seeds.append(_unit_scaled(seed)[0])
            out.append(sol)
        return out

    def _solution(self, s, x, residual, lu_nnz, triangular_solves) -> FrequencySolution:
        return FrequencySolution(
            s=complex(s), fields=self.expand(x), residual=residual, lu_nnz=lu_nnz,
            triangular_solves=triangular_solves,
        )

    def solve_load(self, s: complex, b: np.ndarray) -> tuple[np.ndarray, float]:
        """Certified solve of a free-DOF load: the solution and its residual.

        Serves the tests' all-at-once CQ reference and the benchmark's
        per-node counter; no command calls it.
        """
        return certified_solve(self.operator(s), b, f"at s={s}")


def certified_solve(op: SystemOperator, b: np.ndarray, where: str) -> tuple[np.ndarray, float]:
    """Solve op x = b and certify the relative residual (one matvec).

    A zero load returns the zero solution without a solve; a residual
    above 1e-10 raises FactorizationFailure with `where` naming the solve.
    Unless the load's norm is 0 or leaves _NORM_RANGE, taking that norm
    is the one pass over b.
    """
    with np.errstate(over="ignore"):  # an infinite norm takes the scaled branch
        b_norm = np.linalg.norm(b)
    if b_norm == 0.0 and not np.any(b):
        return np.zeros_like(b), 0.0
    x = op.solve(b)
    return x, _certify(op, x, b, where, b_norm)


def _certify(
    op: SystemOperator, x: np.ndarray, b: np.ndarray, where: str, b_norm: float | None = None
) -> float:
    """Relative residual of x for op x = b (one matvec), at most 1e-10.

    A larger residual raises FactorizationFailure with `where` naming the
    solve; a zero load has residual 0.  `b_norm` is the caller's
    np.linalg.norm(b), if it took it.  When that norm leaves _NORM_RANGE,
    where the squares inside it underflow or overflow, both norms are
    taken of moduli scaled by the power of two that brings max|b| into
    [1/2, 1): exact, so the certificate holds at any representable load.
    """
    if b_norm is None:
        with np.errstate(over="ignore"):
            b_norm = np.linalg.norm(b)
    r = op.matvec(x) - b
    if _NORM_RANGE[0] <= b_norm <= _NORM_RANGE[1]:
        residual = float(np.linalg.norm(r) / b_norm)
    else:
        moduli = np.abs(b)
        peak = np.max(moduli)
        if peak == 0.0:
            return 0.0
        shift = -np.frexp(peak)[1]
        residual = float(np.linalg.norm(np.ldexp(np.abs(r), shift))
                         / np.linalg.norm(np.ldexp(moduli, shift)))
    if not residual <= _RESIDUAL_LIMIT:
        raise FactorizationFailure(
            f"solve residual {residual:.3e} exceeds {_RESIDUAL_LIMIT} {where}"
        )
    return residual


def frequency_groups(s_values) -> list[list[complex]]:
    """Split s_values, in order, into groups of nearby frequencies.

    A frequency joins the current group while it lies within
    _GROUP_RADIUS * |s_anchor| of the group's first frequency s_anchor,
    and starts a new group otherwise.
    """
    groups: list[list[complex]] = []
    for s in map(complex, s_values):
        if groups and abs(s - groups[-1][0]) <= _GROUP_RADIUS * abs(groups[-1][0]):
            groups[-1].append(s)
        else:
            groups.append([s])
    return groups


def _cocg(
    op: SystemOperator, anchor: SystemOperator, b: np.ndarray, seeds
) -> np.ndarray | None:
    """Solve op x = b by CG preconditioned with anchor's factorization,
    started from the Galerkin projection onto the span of `seeds`, each
    scaled to a peak modulus in [1/2, 1) (`_unit_scaled`).

    Returns None when CG has not reached a relative residual of _CG_TOL
    within _CG_MAX_ITER iterations, and the zero solution for a zero load.
    """
    # Conjugate orthogonal CG: the recurrence of CG in the unconjugated form
    # x^T y.  It is plain CG on the real symmetric operators of real s and
    # serves the complex symmetric ones as well.  x0 is the Galerkin
    # projection onto the seeds (Fischer, CMAME 163, 1998), reached by
    # conjugate-direction steps in the same form: each seed is made
    # op-conjugate to the directions before it, and x and r step along it.
    # A step costs one matvec and no triangular solve; a direction with
    # p^T op p == 0, such as a zero solution, is skipped.
    # The load runs scaled, as the seeds are, by the power of two that
    # brings its peak modulus into [1/2, 1).  That is exact: the iterates
    # are 2**k times the unscaled ones bit for bit, and no inner product
    # underflows or overflows at any load scale.
    b, shift = _unit_scaled(b)
    tol = _CG_TOL * np.linalg.norm(b)
    x, r, steps = np.zeros_like(b), b, []
    for v in seeds:
        p = v
        for pj, qj, pqj in steps:
            p = p - ((qj @ p) / pqj) * pj
        q = op.matvec(p)
        pq = p @ q
        if pq == 0.0:
            continue
        alpha = (p @ r) / pq
        x = x + alpha * p
        r = r - alpha * q
        steps.append((p, q, pq))
    del steps  # CG keeps none of the directions
    p, rz = None, 1.0
    for _ in range(_CG_MAX_ITER):
        if np.linalg.norm(r) <= tol:
            return _scaled(x, -shift)
        z = anchor.solve(r)
        rz, rz_old = r @ z, rz
        p = z if p is None else z + (rz / rz_old) * p
        q = op.matvec(p)
        alpha = rz / (p @ q)
        x = x + alpha * p
        r = r - alpha * q
    return _scaled(x, -shift) if np.linalg.norm(r) <= tol else None


def _scaled(v: np.ndarray, k: int) -> np.ndarray:
    """v times 2**k, exact short of underflow, for real or complex v."""
    return np.ldexp(v.view(np.float64), k).view(v.dtype)


def _unit_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v scaled by the 2**k that brings max|v| into [1/2, 1), and k (0 for v = 0)."""
    k = -int(np.frexp(np.max(np.abs(v)))[1])
    return _scaled(v, k), k


def estimate_report(
    sol: FrequencySolution,
    data: np.ndarray,
    grid: TraceGrid,
    fems: list[FemMatrices],
) -> dict[str, float]:
    """Measure both sides of the frequency stability bound.

    lhs = ||grad u||_L2 + ||s u||_L2 over all cavities; rhs weights the
    zero-extended -1/2 trace norm of the data by |s| / Re(s).  A zero
    right-hand side reports ratio 0 by convention.
    """
    s = sol.s
    grad = np.sqrt(sum(f.h1_seminorm(u) ** 2 for f, u in zip(fems, sol.fields)))
    l2 = np.sqrt(sum(f.l2_norm(u) ** 2 for f, u in zip(fems, sol.fields)))
    lhs = float(grad + abs(s) * l2)
    rhs = float((abs(s) / s.real) * aperture_norm_rows(data[None, :], grid)[0])
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return {
        "s1": s.real,
        "s2": s.imag,
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
    }


def solution_csv_format(mesh: Mesh) -> tuple[str, str]:
    """The solution file of a mesh as %-formats: one over (re_u, im_u)
    pairs, and one over re_u alone whose rows end in a literal im_u of 0.

    The coordinates are formatted here, once per mesh; formatted floats
    hold no '%', so the text is safe inside the formats.
    """
    coords = tuple(mesh.vertices.ravel().tolist())
    head = "x,y,re_u,im_u\n"
    return (
        head + "%.17g,%.17g,%%.17g,%%.17g\n" * mesh.n_vertices % coords,
        head + "%.17g,%.17g,%%.17g,0\n" * mesh.n_vertices % coords,
    )


def save_solution_csv(
    path: str | Path, mesh: Mesh, field: np.ndarray, fmt: tuple[str, str] | None = None
) -> None:
    """One row `x,y,re_u,im_u` per vertex, every value at 17 significant digits.

    `fmt` is `solution_csv_format(mesh)`; pass it to reuse it across fields.
    A real field (any real `s`) fills the format whose im_u is a literal 0,
    and a complex one prints every imaginary part, a -0.0 as -0.
    """
    if fmt is None:
        fmt = solution_csv_format(mesh)
    if np.iscomplexobj(field):
        values = np.ascontiguousarray(field, dtype=np.complex128).view(np.float64)
        text = fmt[0] % tuple(values.tolist())
    else:
        text = fmt[1] % tuple(np.asarray(field, dtype=np.float64).tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
