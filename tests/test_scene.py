import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cavitytd as ct
import cavitytd.scene as scene_module
from cavitytd.errors import (
    ApertureCollarViolation,
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

    def test_tm_accepted_at_build(self):
        scene = ct.build_scene(make_config([RECT], polarization="TM"))
        assert scene.polarization == "TM"

    def test_bad_polarization(self):
        with pytest.raises(ConfigError):
            ct.build_scene(make_config([RECT], polarization="TEM"))

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

    def test_serialize_roundtrip(self):
        cavities = [
            dict(RECT, epsilon="2 + sin(pi*x)"),
            {"aperture": [2.0, 3.5], "depth": 0.7, "epsilon": 1.5, "mu": 1.0,
             "collar": 0.2},
        ]
        scene = ct.build_scene(make_config(cavities))
        rebuilt = ct.build_scene(scene.serialize())
        assert rebuilt == scene


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


class TestMeshCavity:
    def test_structured_counts(self):
        scene = ct.build_scene(make_config([RECT]))
        mesh = ct.mesh_cavity(scene.cavities[0], 0.5)
        assert mesh.n_vertices == 9
        assert mesh.n_triangles == 8
        assert mesh.aperture_nodes.size == 3

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
        assert mesh.max_edge_length() <= 1.5 * h

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
