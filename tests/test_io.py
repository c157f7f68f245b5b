import numpy as np

from cavitytd.io import write_vtk_snapshot


def _row_writer_vtk(meshes, fields, name="u"):
    """The per-line formatting the bulk writer must reproduce byte for byte."""
    n_pts = sum(m.n_vertices for m in meshes)
    n_cells = sum(m.n_triangles for m in meshes)
    out = ["# vtk DataFile Version 3.0\n",
           "cavity field snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n",
           f"POINTS {n_pts} double\n"]
    for m in meshes:
        for x, y in m.vertices:
            out.append(f"{x:.17g} {y:.17g} 0\n")
    out.append(f"CELLS {n_cells} {4 * n_cells}\n")
    offset = 0
    for m in meshes:
        for i, j, k in m.triangles:
            out.append(f"3 {i + offset} {j + offset} {k + offset}\n")
        offset += m.n_vertices
    out.append(f"CELL_TYPES {n_cells}\n")
    out.append("5\n" * n_cells)
    out.append(f"POINT_DATA {n_pts}\n")
    out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
    for values in fields:
        for v in np.asarray(values, dtype=float):
            out.append(f"{v:.17g}\n")
    return "".join(out)


def test_vtk_snapshot_matches_row_writer(two_meshes, tmp_path):
    rng = np.random.default_rng(3)
    fields = [rng.standard_normal(m.n_vertices) for m in two_meshes]
    special = [0.0, -0.0, 5e-324, -2.2e-308, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.0]
    fields[0][: len(special)] = special
    fields[1][: len(special)] = special[::-1]
    path = tmp_path / "snap.vtk"
    write_vtk_snapshot(path, two_meshes, fields)
    expected = _row_writer_vtk(two_meshes, fields)
    assert path.read_bytes() == expected.encode("utf-8")
    assert "\n-0\n" in expected and "e-324\n" in expected
