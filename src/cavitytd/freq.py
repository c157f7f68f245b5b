"""Frequency-domain solves and the resolvent-bound report.

The solver is a streaming engine: everything that does not depend on the
frequency (the per-cavity matrices, the sparsity pattern of the coupled
system, its elimination order and the aperture restriction) is built
once, and each solve fills the pattern's values at its s, factorizes,
solves, certifies the relative residual and drops the factorization.
Nothing is cached across frequencies, so memory stays flat in the number
of solves and at most one factorization per worker thread is alive.  The
estimate report measures the discrete counterpart of the resolvent bound

    ||grad u|| + ||s u||  <=  C * |s| / Re(s) * ||data||_{-1/2}

whose constant is pinned empirically on the reference scene.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, FactorizationFailure
from .fem import (
    FemMatrices,
    SystemOperator,
    SystemPattern,
    apply_rhs,
    assemble_all,
    build_system,
    restrict_loads,
)
from .scene import Mesh, Scene
from .trace import TraceGrid, TraceVector, restrict_union, trace_norm

__all__ = [
    "FrequencySolution",
    "FrequencySolver",
    "certified_solve",
    "solve_frequency",
    "estimate_report",
    "save_solution_csv",
    "solution_csv_format",
]

_RESIDUAL_LIMIT = 1e-10


@dataclass
class FrequencySolution:
    """Complex nodal fields at one frequency, full node set per cavity.

    residual is the relative residual of the solve and lu_nnz the fill of
    its factorization (0 for a zero load, which needs none).  At real s
    with real data the fields have exactly zero imaginary parts.
    """

    s: complex
    fields: list[np.ndarray]
    residual: float
    lu_nnz: int = 0

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(f, f).real for f in self.fields)))


class FrequencySolver:
    """Streaming direct solver: fixed pattern, one short-lived LU per solve.

    Construction assembles the cavities and the coupled sparsity pattern
    with its elimination order; `operator(s)` returns a fresh,
    unfactorized SystemOperator, and the solve methods factorize it,
    check the relative residual against 1e-10 and let the factorization
    go when they return.
    """

    def __init__(
        self,
        scene: Scene,
        meshes: list[Mesh],
        grid: TraceGrid,
    ) -> None:
        if len(meshes) != scene.n_cavities:
            raise DimensionMismatch(
                f"{len(meshes)} meshes for {scene.n_cavities} cavities"
            )
        self.scene = scene
        self.meshes = meshes
        self.grid = grid
        self.fems: list[FemMatrices] = assemble_all(scene, meshes, grid)
        self.pattern = SystemPattern.from_fems(self.fems)

    def operator(self, s: complex):
        return build_system(
            self.scene, self.meshes, self.grid, complex(s),
            fems=self.fems, pattern=self.pattern,
        )

    def load(self, data: TraceVector) -> np.ndarray:
        """Free-DOF load vector of aperture data, stacked over the cavities."""
        return restrict_loads(apply_rhs(data, self.meshes, self.grid), self.fems)

    def expand(self, x: np.ndarray) -> list[np.ndarray]:
        """Full per-cavity node blocks of free-DOF values (last axis)."""
        out = []
        for f, lo in zip(self.fems, self.pattern.free_offsets):
            full = np.zeros(x.shape[:-1] + (f.n_nodes,), dtype=x.dtype)
            full[..., f.free_nodes] = x[..., lo : lo + f.n_free]
            out.append(full)
        return out

    def solve(self, s: complex, data: TraceVector) -> FrequencySolution:
        """Solve the coupled problem at s for aperture data (Re s > 0)."""
        op = self.operator(s)
        x, residual = certified_solve(op, self.load(data), f"at s={s}")
        return FrequencySolution(
            s=complex(s),
            fields=self.expand(x),
            residual=residual,
            lu_nnz=op.lu_nnz,
        )

    def solve_load(
        self, s: complex, b: np.ndarray, node: int | None = None
    ) -> tuple[np.ndarray, float]:
        """Certified solve of a free-DOF load (all-at-once CQ reference).

        Returns the solution and its relative residual; `node` names the
        CQ contour node in the error raised above the residual limit.
        """
        where = f"at s={s}" if node is None else f"at CQ node {node} (s={s})"
        return certified_solve(self.operator(s), b, where)


def certified_solve(op: SystemOperator, b: np.ndarray, where: str) -> tuple[np.ndarray, float]:
    """Solve op x = b and certify the relative residual (one matvec).

    A zero load returns the zero solution without a solve; a residual
    above 1e-10 raises FactorizationFailure with `where` naming the solve.
    """
    if not np.any(b):
        return np.zeros_like(b), 0.0
    x = op.solve(b)
    residual = float(np.linalg.norm(op.matvec(x) - b) / np.linalg.norm(b))
    if not residual <= _RESIDUAL_LIMIT:
        raise FactorizationFailure(
            f"direct solve residual {residual:.3e} exceeds "
            f"{_RESIDUAL_LIMIT} {where}"
        )
    return x, residual


def solve_frequency(
    scene: Scene,
    meshes: list[Mesh],
    grid: TraceGrid,
    s: complex,
    data: TraceVector,
) -> FrequencySolution:
    """One-shot coupled solve at a single frequency."""
    return FrequencySolver(scene, meshes, grid).solve(s, data)


def estimate_report(
    sol: FrequencySolution,
    data: TraceVector,
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
    rhs = float(
        (abs(s) / s.real) * trace_norm(restrict_union(data, grid), -0.5, grid)
    )
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return {
        "s1": s.real,
        "s2": s.imag,
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
    }


def solution_csv_format(mesh: Mesh) -> str:
    """The solution file of a mesh as one %-format over (re_u, im_u) pairs.

    The coordinates are formatted here, once per mesh; formatted floats
    hold no '%', so the text is safe inside the format.
    """
    rows = "%.17g,%.17g,%%.17g,%%.17g\n" * mesh.n_vertices
    return "x,y,re_u,im_u\n" + rows % tuple(mesh.vertices.ravel().tolist())


def save_solution_csv(
    path: str | Path, mesh: Mesh, field: np.ndarray, fmt: str | None = None
) -> None:
    """One row `x,y,re_u,im_u` per vertex, every value at 17 significant digits.

    `fmt` is `solution_csv_format(mesh)`; pass it to reuse it across fields.
    """
    if fmt is None:
        fmt = solution_csv_format(mesh)
    values = np.ascontiguousarray(field, dtype=np.complex128).view(np.float64)
    with open(path, "w", encoding="utf-8") as f:
        f.write(fmt % tuple(values.tolist()))
