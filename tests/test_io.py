import numpy as np

from cavitytd.io import vtk_mesh_part, write_vtk_snapshot


def _read_vtk(data):
    """Parse a legacy-VTK BINARY unstructured grid by its keywords and counts.

    Returns the header lines, the points, cells and cell types, the
    point-data header lines and the values, each block read with
    np.frombuffer at the byte count its keyword line announces.
    """
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text = data[pos:end].decode("ascii")
        pos = end + 1
        return text

    def block(dtype, count):
        nonlocal pos
        size = np.dtype(dtype).itemsize * count
        out = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        assert data[pos + size:pos + size + 1] == b"\n"  # newline after each block
        pos += size + 1
        return out

    header = [line() for _ in range(4)]
    keyword, n_pts, kind = line().split()
    assert (keyword, kind) == ("POINTS", "double")
    points = block(">f8", 3 * int(n_pts)).reshape(-1, 3)
    keyword, n_cells, size = line().split()
    assert keyword == "CELLS" and int(size) == 4 * int(n_cells)
    cells = block(">i4", int(size)).reshape(-1, 4)
    assert line() == f"CELL_TYPES {n_cells}"
    types = block(">i4", int(n_cells))
    data_header = [line() for _ in range(3)]
    values = block(">f8", int(n_pts))
    assert pos == len(data)
    return header, points, cells, types, data_header, values


def _bits(a):
    """The float64 bit patterns, in native order, so that -0.0 != 0.0."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_vtk_snapshot_binary_roundtrip(two_meshes, tmp_path):
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -2.2e-308, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.0]
    runs = []
    for snap in range(2):
        fields = [rng.standard_normal(m.n_vertices) for m in two_meshes]
        fields[0][: len(special)] = special
        fields[1][: len(special)] = special[::-1]
        runs.append(fields)
    mesh_part = vtk_mesh_part(two_meshes)
    paths = [tmp_path / f"snap{i}.vtk" for i in range(2)]
    for path, fields in zip(paths, runs):
        write_vtk_snapshot(path, mesh_part, fields)
    blobs = [path.read_bytes() for path in paths]
    # Both snapshots of the run start with the one encoded mesh part.
    assert blobs[0][: len(mesh_part)] == blobs[1][: len(mesh_part)] == mesh_part
    assert mesh_part.endswith(b"LOOKUP_TABLE default\n")

    n_pts = sum(m.n_vertices for m in two_meshes)
    vertices = np.concatenate([m.vertices for m in two_meshes])
    offset = two_meshes[0].n_vertices
    triangles = np.concatenate([two_meshes[0].triangles, two_meshes[1].triangles + offset])
    for blob, fields in zip(blobs, runs):
        header, points, cells, types, data_header, values = _read_vtk(blob)
        assert header == ["# vtk DataFile Version 3.0", "cavity field snapshot",
                          "BINARY", "DATASET UNSTRUCTURED_GRID"]
        assert points.shape == (n_pts, 3)
        assert np.array_equal(_bits(points[:, :2]), _bits(vertices))
        assert np.all(_bits(points[:, 2]) == 0)  # z = +0.0
        assert np.array_equal(cells[:, 0], np.full(len(triangles), 3))
        assert np.array_equal(cells[:, 1:], triangles)
        assert np.array_equal(types, np.full(len(triangles), 5))
        assert data_header == [f"POINT_DATA {n_pts}", "SCALARS u double 1",
                               "LOOKUP_TABLE default"]
        assert np.array_equal(_bits(values), _bits(np.concatenate(fields)))
        assert np.signbit(values[1]) and values[1] == 0.0
        assert values[2] == 5e-324 and values[offset] == 123456789.0
        assert values[5] == 1.7976931348623157e308 and values[6] == -values[5]
        assert values[8] == 1.0 / 3.0
