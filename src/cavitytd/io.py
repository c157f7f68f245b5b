"""Output writers: CSV tables, legacy-VTK snapshots, run manifests."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .scene import Mesh

__all__ = [
    "write_csv",
    "write_vtk_snapshot",
    "probe_matrix",
    "RunManifest",
]


def write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """CSV with every float printed at 17 significant digits (bit-stable)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(
                ",".join(
                    f"{v:.17g}" if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )


def write_vtk_snapshot(
    path: str | Path,
    meshes: Sequence[Mesh],
    fields: Sequence[np.ndarray],
    name: str = "u",
) -> None:
    """Legacy-VTK unstructured snapshot merging all cavity meshes.

    Every float is printed at 17 significant digits; each section is one
    bulk %-format over all of its lines.
    """
    n_pts = sum(m.n_vertices for m in meshes)
    n_cells = sum(m.n_triangles for m in meshes)
    points = np.concatenate([m.vertices for m in meshes])
    offsets = np.cumsum([0] + [m.n_vertices for m in meshes])[:-1]
    cells = np.concatenate([m.triangles + lo for m, lo in zip(meshes, offsets)])
    values = np.concatenate([np.asarray(v, dtype=float) for v in fields])
    with open(path, "w", encoding="utf-8") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("cavity field snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n_pts} double\n")
        f.write("%.17g %.17g 0\n" * n_pts % tuple(points.ravel().tolist()))
        f.write(f"CELLS {n_cells} {4 * n_cells}\n")
        f.write("3 %d %d %d\n" * n_cells % tuple(cells.ravel().tolist()))
        f.write(f"CELL_TYPES {n_cells}\n")
        f.write("5\n" * n_cells)
        f.write(f"POINT_DATA {n_pts}\n")
        f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        f.write("%.17g\n" * values.size % tuple(values.tolist()))


def probe_matrix(
    meshes: Sequence[Mesh], points: Sequence[tuple[float, float]]
) -> list[tuple[int, np.ndarray]]:
    """P1 interpolation stencils for probe points.

    For each point, locate the containing triangle across all cavities and
    return (cavity index, weight vector over that cavity's nodes).  Raises
    ValueError for points outside every cavity.
    """
    out = []
    for px, py in points:
        hit = None
        for ci, mesh in enumerate(meshes):
            w = _locate(mesh, px, py)
            if w is not None:
                hit = (ci, w)
                break
        if hit is None:
            raise ValueError(f"probe point ({px}, {py}) lies outside every cavity")
        out.append(hit)
    return out


def _locate(mesh: Mesh, px: float, py: float) -> np.ndarray | None:
    p = mesh.vertices[mesh.triangles]
    x0, y0 = p[:, 0, 0], p[:, 0, 1]
    det = (p[:, 1, 0] - x0) * (p[:, 2, 1] - y0) - (p[:, 2, 0] - x0) * (p[:, 1, 1] - y0)
    l1 = ((px - x0) * (p[:, 2, 1] - y0) - (py - y0) * (p[:, 2, 0] - x0)) / det
    l2 = ((p[:, 1, 0] - x0) * (py - y0) - (p[:, 1, 1] - y0) * (px - x0)) / det
    l0 = 1.0 - l1 - l2
    eps = 1e-12
    ok = (l0 >= -eps) & (l1 >= -eps) & (l2 >= -eps)
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        return None
    t = int(idx[0])
    w = np.zeros(mesh.n_vertices)
    w[mesh.triangles[t]] = (l0[t], l1[t], l2[t])
    return w


@dataclass
class RunManifest:
    """Reproducibility record written next to every command's outputs."""

    command: str
    config_sha256: str
    seed: int | None = None
    scheme: dict[str, Any] | None = None
    mesh_stats: list[dict[str, int]] = field(default_factory=list)
    wall_times: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)

    @staticmethod
    def hash_config(path: str | Path) -> str:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    def add_output(self, path: str | Path) -> None:
        self.outputs.append(str(path))

    def record_check(self, check: str, metric: str, value: float, limit: float) -> None:
        """Record a check's verdict and, under metrics, its value and limit."""
        self.metrics[metric] = {"value": value, "limit": limit}
        self.checks[check] = bool(value <= limit)

    def passed(self) -> bool:
        return all(self.checks.values())

    def write(self, path: str | Path) -> None:
        data = {
            "command": self.command,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "scheme": self.scheme,
            "mesh_stats": self.mesh_stats,
            "wall_times": self.wall_times,
            "metrics": self.metrics,
            "outputs": self.outputs,
            "checks": self.checks,
            "passed": self.passed(),
        }
        def coerce(obj):
            if isinstance(obj, (np.bool_,)):
                return bool(obj)
            if isinstance(obj, np.integer):
                return int(obj)
            if isinstance(obj, np.floating):
                return float(obj)
            raise TypeError(f"not JSON serializable: {type(obj)}")

        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=2, sort_keys=True, default=coerce)
            f.write("\n")
