"""Output writers: CSV tables, legacy-VTK snapshots, run manifests."""

from __future__ import annotations

import json
import resource
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .scene import Mesh

__all__ = [
    "write_csv",
    "vtk_mesh_part",
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


def vtk_mesh_part(meshes: Sequence[Mesh]) -> bytes:
    """The part of a legacy-VTK BINARY snapshot that no field changes.

    All cavity meshes merge into one unstructured grid: `>f8` points
    (x, y, 0), `>i4` cells (3, i, j, k) with each cavity's vertices offset
    by the vertex counts before it, and `>i4` cell types (5, triangle).
    The bytes end with the header of the point-data scalar u, so a
    snapshot is these bytes followed by its values; a run encodes them
    once.  Each binary block ends with a newline, as VTK's writer does.
    """
    n_pts = sum(m.n_vertices for m in meshes)
    n_cells = sum(m.n_triangles for m in meshes)
    points = np.zeros((n_pts, 3), dtype=">f8")
    points[:, :2] = np.concatenate([m.vertices for m in meshes])
    offsets = np.cumsum([0] + [m.n_vertices for m in meshes])[:-1]
    cells = np.full((n_cells, 4), 3, dtype=">i4")
    cells[:, 1:] = np.concatenate([m.triangles + lo for m, lo in zip(meshes, offsets)])
    return b"".join([
        b"# vtk DataFile Version 3.0\ncavity field snapshot\nBINARY\n"
        b"DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n_pts} double\n".encode(), points.tobytes(), b"\n",
        f"CELLS {n_cells} {4 * n_cells}\n".encode(), cells.tobytes(), b"\n",
        f"CELL_TYPES {n_cells}\n".encode(), np.full(n_cells, 5, ">i4").tobytes(), b"\n",
        f"POINT_DATA {n_pts}\nSCALARS u double 1\nLOOKUP_TABLE default\n".encode(),
    ])


def write_vtk_snapshot(
    path: str | Path, mesh_part: bytes, fields: Sequence[np.ndarray]
) -> None:
    """One legacy-VTK BINARY snapshot: `mesh_part` (`vtk_mesh_part` of the
    meshes the fields live on), then the fields, cavity after cavity, as
    `>f8` values of the scalar u."""
    # concatenate returns native byte order whatever its inputs hold.
    values = np.concatenate(fields).astype(">f8")
    with open(path, "wb") as f:
        f.write(mesh_part)
        f.write(values.tobytes())
        f.write(b"\n")


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
    """Reproducibility record written next to every command's outputs.

    `write` adds the process's peak RSS at that moment (peak_rss_mb); it and
    wall_times are the only fields that differ between reruns.  Values are
    plain Python types: a numpy scalar makes `write` raise TypeError.
    """

    command: str
    config_sha256: str
    scheme: dict[str, Any] | None = None
    mesh_stats: list[dict[str, int]] = field(default_factory=list)
    wall_times: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)

    def add_output(self, path: str | Path) -> None:
        self.outputs.append(str(path))

    def record_check(self, check: str, metric: str, value: float, limit: float) -> None:
        """Record a check's verdict and, under metrics, its value and limit."""
        self.metrics[metric] = {"value": value, "limit": limit}
        self.checks[check] = bool(value <= limit)

    def passed(self) -> bool:
        return all(self.checks.values())

    def write(self, path: str | Path) -> None:
        data = asdict(self) | {
            # Peak resident set of the process so far, in MiB (Linux reports KiB).
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed": self.passed(),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")
