import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cavitytd as ct
import cavitytd.scene as scene_module
from cavitytd.errors import (
    ApertureCollarViolation,
    CavityError,
    ConfigError,
    MeshFailure,
    NonPositiveMaterial,
    OverlappingApertures,
)
from cavitytd.scene import APERTURE, WALL, MaterialField, load_mesh, save_mesh

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_config(cavities, **scene_extra):
    scene = {"eps0": 1.0, "mu0": 1.0, "polarization": "TE", "cavities": cavities}
    scene.update(scene_extra)
    return {"scene": scene}


RECT = {"aperture": [0.0, 1.0], "depth": 1.0, "epsilon": 1.0, "mu": 1.0}


class TestBuildScene:
    def test_identity_materials(self):
        scene = ct.build_scene(make_config([RECT]))
        assert scene.c == 1.0
        assert scene.n_cavities == 1
        assert scene.apertures == ((0.0, 1.0),)

    def test_light_speed_derived(self):
        scene = ct.build_scene(make_config([RECT], eps0=4.0, mu0=1.0))
        assert scene.c == pytest.approx(0.5)

    def test_touching_apertures_rejected(self):
        cavities = [
            {"aperture": [0.0, 1.0], "depth": 1.0, "epsilon": 1.0, "mu": 1.0},
            {"aperture": [1.0, 2.0], "depth": 1.0, "epsilon": 1.0, "mu": 1.0},
        ]
        with pytest.raises(OverlappingApertures):
            ct.build_scene(make_config(cavities))

    def test_expression_material_accepted(self):
        cav = dict(RECT, epsilon="2 + sin(pi*x)")
        scene = ct.build_scene(make_config([cav]))
        (eps_lo, eps_hi), _ = scene.cavities[0].material_bounds()
        assert eps_lo == pytest.approx(2.0, abs=1e-3)
        assert eps_hi == pytest.approx(3.0, abs=1e-3)
        assert 1.0 <= eps_lo <= eps_hi <= 3.0

    def test_nonpositive_material_rejected(self):
        with pytest.raises(NonPositiveMaterial):
            ct.build_scene(make_config([dict(RECT, epsilon=-2.0)]))
        with pytest.raises(NonPositiveMaterial):
            ct.build_scene(make_config([dict(RECT, epsilon="sin(pi*x)")]))

    def test_nonpositive_exterior_rejected(self):
        with pytest.raises(NonPositiveMaterial):
            ct.build_scene(make_config([RECT], eps0=0.0))

    def test_collar_violation_constant(self):
        with pytest.raises(ApertureCollarViolation):
            ct.build_scene(make_config([dict(RECT, mu=2.0)]))

    def test_collar_violation_near_aperture(self):
        cav = dict(RECT, mu="1 + 0.5*exp(-(y*y)/0.01)")
        with pytest.raises(ApertureCollarViolation):
            ct.build_scene(make_config([cav]))

    def test_variable_mu_away_from_aperture_ok(self):
        cav = dict(RECT, mu="1 + 0.3*exp(-((y+1)/0.05)**2)")
        scene = ct.build_scene(make_config([cav]))
        assert scene.n_cavities == 1

    @pytest.mark.parametrize(
        "expr",
        [
            "().__class__.__mro__[1].__subclasses__().__len__() * 0 + 1.0",
            "9**9**9",
            "((9**16)**16)**16",
            "(1 + 9**4)**8",
            "2**x",
            "__import__('os').getpid() * 0 + 1",
            "x.real + 1",
            "[1.0][0]",
            "sin(x, y) + 2",
            "exp(x=1.0)",
            "1.0 if x else 2.0",
            "x % 2 + 1",
            "1j + 1",
        ],
    )
    def test_expression_outside_whitelist_rejected(self, expr):
        with pytest.raises(ConfigError):
            MaterialField(expr)

    def test_whitelisted_expressions_load(self):
        for expr in ("2 + sin(pi*x)", "sin(pi*x)", "1 + 0.5*exp(-(y*y)/0.01)",
                     "1 + 0.3*exp(-((y+1)/0.05)**2)", "1.5 + 0.25*sin(pi*x)",
                     "-x**-2.5 + abs(+y) / sqrt(tan(cos(x)) + 3) - 1e-3",
                     "(2 + x**2)**8 * 1e-9 + (y**4)**4 + 1"):
            MaterialField(expr)
        for path in sorted(CONFIG_DIR.glob("*.json")):
            assert ct.build_scene(ct.load_config(path)).n_cavities >= 1

    def test_bad_polarization(self):
        for value in ("TEM", "TM"):
            with pytest.raises(ConfigError):
                ct.build_scene(make_config([RECT], polarization=value))

    def test_empty_scene(self):
        with pytest.raises(ConfigError):
            ct.build_scene(make_config([]))

    def test_apertures_reordered_by_x(self):
        cavities = [
            {"aperture": [2.0, 3.0], "depth": 0.8, "epsilon": 1.0, "mu": 1.0},
            {"aperture": [0.0, 1.0], "depth": 1.0, "epsilon": 1.0, "mu": 1.0},
        ]
        scene = ct.build_scene(make_config(cavities))
        assert scene.apertures == ((0.0, 1.0), (2.0, 3.0))
        assert [c.id for c in scene.cavities] == [0, 1]


class TestPolygon:
    POLY = {
        "aperture": [0.0, 1.0],
        "vertices": [[0.0, 0.0], [-0.2, -1.0], [1.2, -1.0], [1.0, 0.0]],
        "epsilon": 1.0,
        "mu": 1.0,
    }

    def test_valid_polygon_accepted(self):
        scene = ct.build_scene(make_config([self.POLY]))
        assert not scene.cavities[0].is_rectangle
        assert scene.cavities[0].max_depth == pytest.approx(1.0)

    def test_vertex_above_ground_rejected(self):
        bad = dict(self.POLY, vertices=[[0.0, 0.0], [-0.2, 0.1], [1.2, -1.0], [1.0, 0.0]])
        with pytest.raises(ConfigError):
            ct.build_scene(make_config([bad]))

    def test_top_edge_must_match_aperture(self):
        bad = dict(self.POLY, vertices=[[0.1, 0.0], [-0.2, -1.0], [1.2, -1.0], [1.0, 0.0]])
        with pytest.raises(ConfigError):
            ct.build_scene(make_config([bad]))

    def test_self_intersection_rejected(self):
        bad = dict(
            self.POLY,
            vertices=[[0.0, 0.0], [1.2, -1.0], [-0.2, -1.0], [1.0, 0.0]],
        )
        with pytest.raises(ConfigError):
            ct.build_scene(make_config([bad]))

    def test_polygon_requires_imported_mesh(self):
        scene = ct.build_scene(make_config([self.POLY]))
        with pytest.raises(MeshFailure):
            ct.mesh_cavity(scene.cavities[0], 0.1)

    @pytest.mark.parametrize("mesh_file", [0, 1, True, ["m.txt"]])
    def test_mesh_file_must_be_a_path_string(self, mesh_file):
        # open() takes an int (or bool) as a file descriptor: 0 would read
        # the mesh from stdin, and 1 would close stdout once read.
        with pytest.raises(ConfigError, match="mesh_file"):
            ct.build_scene(make_config([dict(self.POLY, mesh_file=mesh_file)]))

    def test_polygon_with_imported_mesh(self, tmp_path):
        # A rectangle expressed as a polygon, meshed via the import path.
        rect_scene = ct.build_scene(make_config([RECT]))
        mesh = ct.mesh_cavity(rect_scene.cavities[0], 0.25)
        path = tmp_path / "cavity.mesh.txt"
        save_mesh(path, mesh)
        poly = {
            "aperture": [0.0, 1.0],
            "vertices": [[0.0, 0.0], [0.0, -1.0], [1.0, -1.0], [1.0, 0.0]],
            "epsilon": 1.0,
            "mu": 1.0,
            "mesh_file": str(path),
        }
        scene = ct.build_scene(make_config([poly]))
        imported = ct.mesh_cavity(scene.cavities[0], 0.25)
        assert imported.n_vertices == mesh.n_vertices
        assert np.allclose(imported.vertices, mesh.vertices)


    def test_aperture_node_is_not_the_first_layer(self, tmp_path):
        # The node at y = -5e-13 is on the ground line, so the first layer
        # below the aperture is the full depth, wider than the collar.
        path = tmp_path / "cavity.mesh.txt"
        path.write_text("5\n0 0\n0 -1\n1 -1\n1 0\n0.5 -5e-13\n3\n0 1 4\n1 2 4\n2 3 4\n"
                        "5\n0 1 0\n1 2 0\n2 3 0\n3 4 1\n4 0 1\n")
        poly = {
            "aperture": [0.0, 1.0],
            "vertices": [[0.0, 0.0], [0.0, -1.0], [1.0, -1.0], [1.0, 0.0]],
            "epsilon": 1.0,
            "mu": "1 + 0.3*exp(-((y+0.8)/0.05)**2)",
            "collar": 0.05,
            "mesh_file": str(path),
        }
        cavity = ct.build_scene(make_config([poly])).cavities[0]
        assert load_mesh(path).aperture_nodes.tolist() == [0, 4, 3]
        with pytest.raises(ApertureCollarViolation, match=r"first mesh layer \(1\.0\)"):
            ct.mesh_cavity(cavity, 0.25)


class TestMeshCavity:
    def test_structured_counts(self):
        scene = ct.build_scene(make_config([RECT]))
        mesh = ct.mesh_cavity(scene.cavities[0], 0.5)
        assert mesh.n_vertices == 9
        assert mesh.n_triangles == 8
        assert mesh.aperture_nodes.size == 3

    def test_triangulation_order(self):
        # 4 columns x 2 rows; the VTK cells and mesh-export files follow this
        # order: triangles by row, column, then the cell's first/second, and
        # edges bottom, left/right per row, then the aperture.
        scene = ct.build_scene(make_config([dict(RECT, depth=0.5)]))
        mesh = ct.mesh_cavity(scene.cavities[0], 0.25)
        triangles = [
            [0, 1, 6], [0, 6, 5], [1, 2, 7], [1, 7, 6], [2, 3, 7], [3, 8, 7],
            [3, 4, 8], [4, 9, 8], [5, 6, 11], [5, 11, 10], [6, 7, 12], [6, 12, 11],
            [7, 8, 12], [8, 13, 12], [8, 9, 13], [9, 14, 13],
        ]
        edges = [
            [0, 1], [1, 2], [2, 3], [3, 4], [0, 5], [4, 9], [5, 10], [9, 14],
            [10, 11], [11, 12], [12, 13], [13, 14],
        ]
        for got, want in (
            (mesh.triangles, triangles),
            (mesh.boundary_edges, edges),
            (mesh.boundary_tags, [WALL] * 8 + [APERTURE] * 4),
            (mesh.aperture_nodes, [10, 11, 12, 13, 14]),
        ):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("depth, h", [(0.75, 0.15), (1.0, 0.1), (0.3, 0.14)])
    def test_triangulation_matches_cell_loop(self, depth, h):
        # Reference: the cell-by-cell loop that the index arithmetic replaces.
        scene = ct.build_scene(make_config([dict(RECT, depth=depth)]))
        mesh = ct.mesh_cavity(scene.cavities[0], h)
        nx = mesh.aperture_nodes.size - 1
        ny = mesh.n_vertices // (nx + 1) - 1

        def vid(i, j):
            return i * (nx + 1) + j

        tris = []
        for i in range(ny):
            for j in range(nx):
                v00, v10, v01, v11 = vid(i, j), vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)
                if j < nx // 2:
                    tris += [(v00, v10, v11), (v00, v11, v01)]
                else:
                    tris += [(v00, v10, v01), (v10, v11, v01)]
        edges = [(vid(0, j), vid(0, j + 1)) for j in range(nx)]
        for i in range(ny):
            edges += [(vid(i, 0), vid(i + 1, 0)), (vid(i, nx), vid(i + 1, nx))]
        edges += [(vid(ny, j), vid(ny, j + 1)) for j in range(nx)]
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.boundary_edges, edges)
        assert np.array_equal(mesh.boundary_tags, [WALL] * (nx + 2 * ny) + [APERTURE] * nx)
        assert np.array_equal(mesh.aperture_nodes, [vid(ny, j) for j in range(nx + 1)])

    def test_too_coarse_rejected(self):
        scene = ct.build_scene(make_config([RECT]))
        with pytest.raises(MeshFailure):
            ct.mesh_cavity(scene.cavities[0], 1.1)

    def test_tiny_h_rejected_before_allocating(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the mesh arrays were built")

        # Without the cap, h = 1e-9 would ask numpy for about 7.5 GiB.
        monkeypatch.setattr(scene_module, "_structured_rectangle", no_grid)
        cavity = ct.build_scene(make_config([RECT])).cavities[0]
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(MeshFailure, match="vertices"):
                ct.mesh_cavity(cavity, 1e-9)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and elapsed < 1.0

    def test_vertex_cap_admits_finest_benchmark_mesh(self):
        # bench's cq-fine-mesh meshes reference_three at h = 0.0125.
        scene = ct.build_scene(ct.load_config(CONFIG_DIR / "reference_three.json"))
        meshes = ct.mesh_scene(scene, 0.0125)
        assert sum(m.n_vertices for m in meshes) > 16_000

    def test_area_partition(self):
        scene = ct.build_scene(make_config([dict(RECT, depth=0.7)]))
        mesh = ct.mesh_cavity(scene.cavities[0], 0.11)
        assert mesh.areas().sum() == pytest.approx(0.7, rel=1e-12)

    def test_refinement_quadruples_triangles(self):
        scene = ct.build_scene(make_config([RECT]))
        for h in (0.5, 0.25):
            coarse = ct.mesh_cavity(scene.cavities[0], h)
            fine = ct.mesh_cavity(scene.cavities[0], h / 2)
            assert fine.n_triangles >= 4 * coarse.n_triangles

    def test_max_edge_bound(self):
        scene = ct.build_scene(make_config([dict(RECT, depth=0.9)]))
        h = 0.13
        mesh = ct.mesh_cavity(scene.cavities[0], h)
        p = mesh.vertices[mesh.triangles]
        edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
        assert np.max(np.linalg.norm(edges, axis=2)) <= 1.5 * h

    def test_boundary_tags_partition(self):
        scene = ct.build_scene(make_config([RECT]))
        mesh = ct.mesh_cavity(scene.cavities[0], 0.25)
        assert set(np.unique(mesh.boundary_tags)) == {WALL, APERTURE}
        ap_edges = mesh.boundary_edges[mesh.boundary_tags == APERTURE]
        assert np.allclose(mesh.vertices[ap_edges.ravel(), 1], 0.0)
        # every boundary edge carries exactly one tag by construction
        assert mesh.boundary_edges.shape[0] == mesh.boundary_tags.size

    def test_aperture_nodes_ordered_and_complete(self):
        scene = ct.build_scene(make_config([RECT]))
        mesh = ct.mesh_cavity(scene.cavities[0], 0.25)
        xs = mesh.vertices[mesh.aperture_nodes, 0]
        assert np.all(np.diff(xs) > 0)
        assert xs[0] == pytest.approx(0.0)
        assert xs[-1] == pytest.approx(1.0)
        on_line = np.nonzero(np.isclose(mesh.vertices[:, 1], 0.0))[0]
        assert set(on_line) == set(mesh.aperture_nodes)

    def test_wall_nodes_include_corners(self):
        scene = ct.build_scene(make_config([RECT]))
        mesh = ct.mesh_cavity(scene.cavities[0], 0.25)
        walls = set(mesh.wall_nodes())
        assert mesh.aperture_nodes[0] in walls
        assert mesh.aperture_nodes[-1] in walls

    def test_collar_must_resolve(self):
        cav = dict(RECT, mu="1 + 0.3*exp(-((y+1)/0.05)**2)", collar=0.05)
        scene = ct.build_scene(make_config([cav]))
        with pytest.raises(ApertureCollarViolation):
            ct.mesh_cavity(scene.cavities[0], 0.2)

    def test_text_roundtrip(self, tmp_path):
        scene = ct.build_scene(make_config([RECT]))
        mesh = ct.mesh_cavity(scene.cavities[0], 0.3)
        path = tmp_path / "m.txt"
        save_mesh(path, mesh)
        back = load_mesh(path)
        assert np.allclose(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
        assert np.array_equal(back.boundary_tags, mesh.boundary_tags)
        assert np.array_equal(back.aperture_nodes, mesh.aperture_nodes)


def _mutations(data: bytes, replacements: list[bytes], rng, count: int) -> list[bytes]:
    """Seeded malformed copies of `data`: truncated at a random byte, one
    byte set to 0xff, or one token (number, word or quoted string) replaced."""
    tokens = [m.span() for m in re.finditer(rb'[^\s,:\[\]{}]+', data)]
    out = []
    for _ in range(count):
        kind = rng.integers(3)
        if kind == 0:
            out.append(data[: rng.integers(len(data))])
        elif kind == 1:
            at = rng.integers(len(data))
            out.append(data[:at] + b"\xff" + data[at + 1 :])
        else:
            lo, hi = tokens[rng.integers(len(tokens))]
            out.append(data[:lo] + replacements[rng.integers(len(replacements))] + data[hi:])
    return out


def test_malformed_bytes_raise_cavity_error(tmp_path):
    # Both readers of config-named files either succeed or raise a
    # CavityError on any corruption of a valid file; nothing else escapes.
    rng = np.random.default_rng(0)
    rect = ct.build_scene(make_config([RECT])).cavities[0]
    mesh = ct.mesh_cavity(rect, 0.25)
    mesh_path = tmp_path / "cavity.mesh.txt"
    save_mesh(mesh_path, mesh)
    poly = dict(RECT, vertices=[[0.0, 0.0], [0.0, -1.0], [1.0, -1.0], [1.0, 0.0]],
                mesh_file=str(mesh_path))
    del poly["depth"]
    cavity = ct.build_scene(make_config([poly])).cavities[0]
    replacements = [b"-1", str(mesh.n_vertices).encode(), b"7", b"x"]

    config_path = tmp_path / "config.json"
    config = (CONFIG_DIR / "reference_single.json").read_bytes()
    for data in _mutations(config, replacements, rng, 300):
        config_path.write_bytes(data)
        try:
            ct.load_config(config_path)
        except CavityError:
            pass

    for data in _mutations(mesh_path.read_bytes(), replacements, rng, 300):
        mesh_path.write_bytes(data)
        try:
            ct.mesh_cavity(cavity, 0.25)
        except CavityError:
            pass
