import json
from pathlib import Path

import numpy as np
import pytest

import cavitytd as ct

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class FieldRecorder:
    """run_time_domain observer that keeps every step's fields.

    `fields` stacks them into one (N+1, n_nodes) history per cavity.
    """

    def __init__(self):
        self.steps = []

    def __call__(self, n, fields):
        assert n == len(self.steps)
        self.steps.append(fields)

    @property
    def fields(self):
        return [np.stack(blocks) for blocks in zip(*self.steps)]


def run_recorded(scene, meshes, grid, pw, scheme):
    """A marched run and the field history its observer recorded."""
    recorder = FieldRecorder()
    sol = ct.run_time_domain(scene, meshes, grid, pw, scheme, recorder)
    return sol, recorder.fields


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _scene(cavities, eps0=1.0, mu0=1.0, polarization="TE"):
    return ct.build_scene(
        {
            "scene": {
                "eps0": eps0,
                "mu0": mu0,
                "polarization": polarization,
                "cavities": cavities,
            }
        }
    )


@pytest.fixture(scope="session")
def unit_scene():
    """One unit-square cavity centered on the origin, identity materials."""
    return _scene(
        [{"aperture": [-0.5, 0.5], "depth": 1.0, "epsilon": 1.0, "mu": 1.0}]
    )


@pytest.fixture(scope="session")
def unit_grid(unit_scene):
    # dx = 1/32 divides the aperture ends and the mesh nodes below.
    return ct.TraceGrid(L=4.0, N=128, apertures=unit_scene.apertures)


@pytest.fixture(scope="session")
def unit_meshes(unit_scene):
    # h = 0.125 aligns mesh aperture nodes with every fourth grid sample.
    return ct.mesh_scene(unit_scene, 0.125)


@pytest.fixture(scope="session")
def two_scene():
    return _scene(
        [
            {"aperture": [-1.25, -0.25], "depth": 1.0, "epsilon": 1.0, "mu": 1.0},
            {"aperture": [0.25, 1.25], "depth": 0.8, "epsilon": 1.0, "mu": 1.0},
        ]
    )


@pytest.fixture(scope="session")
def two_grid(two_scene):
    return ct.TraceGrid(L=6.0, N=128, apertures=two_scene.apertures)


@pytest.fixture(scope="session")
def two_meshes(two_scene):
    return ct.mesh_scene(two_scene, 0.125)


@pytest.fixture(scope="session")
def gaussian_wave():
    profile = ct.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5)
    return ct.PlaneWave(profile=profile, theta=np.pi / 2)


def load_reference(name):
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    scene = ct.build_scene(config)
    meshes = ct.mesh_scene(scene, config["mesh"]["h"])
    grid = ct.TraceGrid(
        L=config["trace"]["L"], N=config["trace"]["N"], apertures=scene.apertures
    )
    prof_cfg = config["incident"]["profile"]
    profile = ct.WaveProfile(
        kind=prof_cfg["kind"],
        center=prof_cfg["center"],
        width=prof_cfg["width"],
        amplitude=prof_cfg.get("amplitude", 1.0),
    )
    pw = ct.PlaneWave(
        profile=profile,
        theta=config["incident"]["theta"],
        eps0=scene.eps0,
        mu0=scene.mu0,
    )
    scheme = ct.CqScheme(
        dt=config["scheme"]["dt"],
        steps=config["scheme"]["steps"],
        contour_tol=config["scheme"]["contour_tol"],
    )
    return config, scene, meshes, grid, pw, scheme


@pytest.fixture(scope="session")
def reference_single():
    return load_reference("reference_single")
