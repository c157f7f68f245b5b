"""Geometry, materials and meshing for the multi-cavity scene.

The scene is the single source of truth for the cavity domains, their
apertures on the ground line y = 0, and the material fields.  Cavities sit
strictly below y = 0 with flat aperture openings; the exterior half-space
carries constant eps0, mu0.  Rectangles are meshed with a structured
triangulation; polygon cavities use an imported triangulation in the
plain-text format documented at the bottom of this module.
"""

from __future__ import annotations

import ast
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .errors import (
    ApertureCollarViolation,
    ConfigError,
    MeshFailure,
    NonPositiveMaterial,
    OverlappingApertures,
    UnsupportedPolarization,
)

__all__ = [
    "WALL",
    "APERTURE",
    "MaterialField",
    "CavitySpec",
    "Scene",
    "Mesh",
    "build_scene",
    "load_config",
    "config_block",
    "finite_number",
    "number_pair",
    "check_mesh_size",
    "mesh_cavity",
    "mesh_scene",
    "save_mesh",
    "load_mesh",
]

WALL = 0
APERTURE = 1

# Relative tolerance for "mu equals mu0" on the aperture collar.
_COLLAR_RTOL = 1e-9
# A vertex is on the ground line when |y| <= _GROUND_TOL, above it when
# y > _GROUND_TOL and below it when y < -_GROUND_TOL.
_GROUND_TOL = 1e-12
_BOUNDS_SAMPLES = 96
# Vertex cap for one structured cavity mesh, checked before any array is
# built: about 60 times the largest mesh the benchmark runs (16.5k).
MAX_MESH_VERTICES = 1_000_000


_SAFE_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_SIGNS = (ast.UAdd, ast.USub)
_MAX_EXPONENT = 16


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _check_expression(node: ast.AST, spec: str, budget: float = _MAX_EXPONENT) -> None:
    """Admit numbers, x, y, pi, one-argument _SAFE_FUNCS calls and + - * / **.

    The exponent of a power must be a (signed) numeric literal, and the
    exponents of nested powers multiply: their product may not exceed
    _MAX_EXPONENT in magnitude, which rules out towers such as 9**9**9 and
    ((9**16)**16)**16 alike.  Anything else raises ConfigError before the
    expression is ever evaluated.
    """
    if _is_number(node) or (isinstance(node, ast.Name) and node.id in ("x", "y", "pi")):
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
        return _check_expression(node.operand, spec, budget)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITHMETIC):
        if not isinstance(node.op, ast.Pow):
            _check_expression(node.left, spec, budget)
            return _check_expression(node.right, spec, budget)
        exp = node.right
        if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, _SIGNS):
            exp = exp.operand
        if not (_is_number(exp) and abs(exp.value) <= budget):
            raise ConfigError(
                f"material expression {spec!r}: an exponent must be a numeric "
                f"literal, and nested exponents may multiply to at most "
                f"{_MAX_EXPONENT} in magnitude"
            )
        return _check_expression(node.left, spec, budget / max(abs(exp.value), 1.0))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SAFE_FUNCS
        and len(node.args) == 1
        and not node.keywords
    ):
        return _check_expression(node.args[0], spec, budget)
    raise ConfigError(
        f"material expression {spec!r}: {type(node).__name__} is not allowed; "
        f"use numbers, x, y, pi, {', '.join(_SAFE_FUNCS)} and + - * / **"
    )


@dataclass(frozen=True)
class MaterialField:
    """Scalar material coefficient: a constant or an expression in (x, y)."""

    spec: float | str

    def __post_init__(self) -> None:
        if isinstance(self.spec, str):
            try:
                tree = ast.parse(self.spec, "<material>", "eval")
            except SyntaxError as exc:
                raise ConfigError(f"bad material expression {self.spec!r}: {exc}") from exc
            _check_expression(tree.body, self.spec)

    @property
    def is_constant(self) -> bool:
        return not isinstance(self.spec, str)

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.is_constant:
            return np.full(np.broadcast(x, y).shape, float(self.spec))
        namespace = {"x": x, "y": y, "pi": np.pi, **_SAFE_FUNCS}
        out = eval(self.spec, {"__builtins__": {}}, namespace)  # noqa: S307
        return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast(x, y).shape).copy()


def _sampled_bounds(
    fld: MaterialField,
    box: tuple[float, float, float, float],
    inside=None,
    n: int = _BOUNDS_SAMPLES,
) -> tuple[float, float]:
    """Min/max of the field sampled on a dense grid over the cavity box.

    Desk-scale stand-in for interval analysis: the sampling grid includes
    the box edges, which pins extrema of the smooth expressions this
    package accepts.  `inside` optionally masks samples to the cavity.
    """
    x0, x1, y0, y1 = box
    xs, ys = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n))
    vals = fld(xs, ys)
    if inside is not None:
        keep = inside(xs, ys)
        vals = vals[keep]
    return float(np.min(vals)), float(np.max(vals))


def _point_in_polygon(px, py, vertices: np.ndarray) -> np.ndarray:
    """Vectorized ray-casting point-in-polygon test (boundary counts as in)."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    inside = np.zeros(px.shape, dtype=bool)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = np.where(crosses, (x2 - x1) * (py - y1) / (y2 - y1) + x1, np.inf)
        inside ^= crosses & (px < xint)
    return inside


def _segments_intersect(p, q, r, t) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p, q, r), orient(p, q, t)
    d3, d4 = orient(r, t, p), orient(r, t, q)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class CavitySpec:
    """One cavity: aperture interval, shape below y = 0, material fields.

    Rectangles are [x_a, x_b] x [-depth, 0].  Polygons list their vertices
    counterclockwise; the two vertices on y = 0 must be the aperture
    endpoints and every other vertex must lie strictly below.  `collar` is
    the declared depth of the strip under the aperture on which mu equals
    the exterior mu0 (the boundary operator is derived with exterior
    constants, so the interior mu must match it at the opening).
    """

    id: int
    aperture: tuple[float, float]
    epsilon: MaterialField
    mu: MaterialField
    depth: float | None = None
    vertices: tuple[tuple[float, float], ...] | None = None
    collar: float | None = None
    mesh_file: str | None = None

    @property
    def is_rectangle(self) -> bool:
        return self.depth is not None

    @property
    def width(self) -> float:
        return self.aperture[1] - self.aperture[0]

    @property
    def max_depth(self) -> float:
        if self.is_rectangle:
            return float(self.depth)
        return float(-min(v[1] for v in self.vertices))

    @property
    def collar_depth(self) -> float:
        if self.collar is not None:
            return float(self.collar)
        # A constant mu either matches mu0 everywhere or fails validation
        # outright, so the collar spans the cavity; variable fields default
        # to a tenth of the depth and must be declared wider if needed.
        if self.mu.is_constant:
            return self.max_depth
        return 0.1 * self.max_depth

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        a, b = self.aperture
        if self.is_rectangle:
            return (a, b, -float(self.depth), 0.0)
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), max(xs), min(ys), 0.0)

    def contains(self, x, y) -> np.ndarray:
        a, b = self.aperture
        if self.is_rectangle:
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return (x >= a) & (x <= b) & (y >= -self.depth) & (y <= 0.0)
        return _point_in_polygon(x, y, np.asarray(self.vertices, dtype=float))

    def material_bounds(self) -> tuple[tuple[float, float], tuple[float, float]]:
        inside = None if self.is_rectangle else self.contains
        eb = _sampled_bounds(self.epsilon, self.bounding_box, inside)
        mb = _sampled_bounds(self.mu, self.bounding_box, inside)
        return eb, mb


def _validate_cavity(cav: CavitySpec, mu0: float) -> None:
    a, b = cav.aperture
    if not a < b:
        raise ConfigError(f"cavity {cav.id}: aperture [{a}, {b}] is empty")
    if cav.is_rectangle == (cav.vertices is not None):
        raise ConfigError(f"cavity {cav.id}: give exactly one of depth or vertices")
    if cav.is_rectangle and cav.depth <= 0.0:
        raise ConfigError(f"cavity {cav.id}: depth must be positive")
    if cav.vertices is not None:
        _validate_polygon(cav)
    if cav.collar is not None and not 0.0 < cav.collar <= cav.max_depth:
        raise ConfigError(f"cavity {cav.id}: collar must lie in (0, depth]")

    # The expressions' first evaluation, where 1/0 or 1e20**16 would raise.
    with config_block(f"cavity {cav.id} material"):
        (eps_lo, eps_hi), (mu_lo, mu_hi) = cav.material_bounds()
    for name, lo, hi in (("epsilon", eps_lo, eps_hi), ("mu", mu_lo, mu_hi)):
        if not (0.0 < lo <= hi < math.inf) or not np.isfinite(hi):
            raise NonPositiveMaterial(
                f"cavity {cav.id}: {name} sampled bounds [{lo}, {hi}] violate "
                f"0 < min <= max < inf"
            )

    # mu must equal mu0 on the declared collar beneath the aperture.
    collar = cav.collar_depth
    xs, ys = np.meshgrid(
        np.linspace(a, b, _BOUNDS_SAMPLES),
        np.linspace(-collar, 0.0, 16),
    )
    if not cav.is_rectangle:
        keep = cav.contains(xs, ys)
        xs, ys = xs[keep], ys[keep]
    mu_vals = cav.mu(xs, ys)
    if np.any(np.abs(mu_vals - mu0) > _COLLAR_RTOL * abs(mu0)):
        raise ApertureCollarViolation(
            f"cavity {cav.id}: mu deviates from mu0={mu0} on the collar of "
            f"depth {collar} beneath the aperture"
        )


def _validate_polygon(cav: CavitySpec) -> None:
    verts = np.asarray(cav.vertices, dtype=float)
    if len(verts) < 3:
        raise ConfigError(f"cavity {cav.id}: polygon needs at least 3 vertices")
    a, b = cav.aperture
    on_line = np.abs(verts[:, 1]) <= _GROUND_TOL
    if int(on_line.sum()) != 2:
        raise ConfigError(
            f"cavity {cav.id}: polygon must touch y=0 at exactly the two "
            f"aperture endpoints"
        )
    xs_top = sorted(verts[on_line, 0])
    if not (np.isclose(xs_top[0], a) and np.isclose(xs_top[1], b)):
        raise ConfigError(
            f"cavity {cav.id}: polygon top edge {xs_top} differs from the "
            f"aperture [{a}, {b}]"
        )
    idx = np.nonzero(on_line)[0]
    n = len(verts)
    if (idx[1] - idx[0]) % n not in (1, n - 1):
        raise ConfigError(f"cavity {cav.id}: aperture endpoints must be adjacent vertices")
    if np.any(verts[:, 1] > _GROUND_TOL):
        raise ConfigError(f"cavity {cav.id}: polygon vertices must lie below y=0")
    # Simplicity: no two non-adjacent edges may cross.
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _segments_intersect(*edges[i], *edges[j]):
                raise ConfigError(f"cavity {cav.id}: polygon is self-intersecting")


@dataclass(frozen=True)
class Scene:
    """Validated multi-cavity scene with derived exterior quantities."""

    cavities: tuple[CavitySpec, ...]
    eps0: float
    mu0: float

    @property
    def c(self) -> float:
        return 1.0 / math.sqrt(self.eps0 * self.mu0)

    @property
    def n_cavities(self) -> int:
        return len(self.cavities)

    @property
    def apertures(self) -> tuple[tuple[float, float], ...]:
        return tuple(c.aperture for c in self.cavities)


def read_bytes(path: str | Path, error: type[Exception], what: str) -> bytes:
    """The bytes of the config or of a file it names, read once; a file
    that cannot be opened raises `error` naming `what` and the path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def _read_text(path: str | Path, error: type[Exception], what: str,
               raw: bytes | None = None) -> str:
    """The UTF-8 text of the file at `path`, decoded from `raw` when the
    caller has read its bytes already; a file that cannot be opened or
    decoded raises `error` naming `what` and the path."""
    if raw is None:
        raw = read_bytes(path, error, what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str | Path, raw: bytes | None = None) -> dict[str, Any]:
    """The parsed config document at `path`, parsed from `raw` when the
    caller has read its bytes already (the command line hashes the bytes
    it parses).  ConfigError if the file cannot be read, or its bytes
    decoded as UTF-8 or parsed as JSON, over-deep nesting and over-long
    integers included."""
    text = _read_text(path, ConfigError, "config file", raw)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


@contextmanager
def config_block(name: str):
    """Report a malformed config entry read inside the block as ConfigError.

    Arithmetic errors count: a JSON integer beyond float range, or a
    material expression that divides by zero or overflows.
    """
    try:
        yield
    except (AttributeError, ArithmeticError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"malformed {name}: {exc}") from exc


def finite_number(value: Any) -> float:
    """float(value) for a config entry; NaN, +-inf, booleans and anything
    that is not a real number (a string such as "1.0") raise ValueError.

    Every non-integer number read from a config passes through here, so
    no later `x <= 0` test can be passed by NaN, JSON `true` is not 1 and
    a quoted number is not read as one.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{value!r} is not a number")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def number_pair(value: Any) -> tuple[float, float]:
    """(x, y) for a config entry that is exactly two finite numbers, such
    as an aperture, a polygon vertex, a probe or an [re, im] frequency.
    Any other length or entry raises ValueError or TypeError."""
    x, y = value
    return finite_number(x), finite_number(y)


def _material(spec: Any) -> MaterialField:
    return MaterialField(spec if isinstance(spec, str) else finite_number(spec))


def build_scene(config: dict[str, Any]) -> Scene:
    """Validate a parsed config document and return the Scene.

    The document layout is::

        {"scene": {"eps0": ..., "mu0": ..., "polarization": "TE",
                   "cavities": [{"aperture": [a, b],
                                 "depth": d | "vertices": [[x, y], ...],
                                 "epsilon": 1.0 | "expr(x, y)",
                                 "mu": 1.0 | "expr(x, y)",
                                 "collar": ..., "mesh_file": ...}, ...]}}

    Each entry becomes one CavitySpec; the cavities are sorted by aperture,
    numbered 0, 1, ... in that order, and must keep positive gaps.  A
    mesh_file, when given, must be a path string (ConfigError otherwise).
    TE is the only polarization the package discretizes, and this is the
    one place that decides it: any other "polarization" raises
    UnsupportedPolarization.
    """
    with config_block("scene block"):
        sc = config["scene"]
        eps0 = finite_number(sc.get("eps0", 1.0))
        mu0 = finite_number(sc.get("mu0", 1.0))
        polarization = str(sc.get("polarization", "TE")).upper()
        raw_cavities = sc["cavities"]

    if eps0 <= 0.0 or mu0 <= 0.0:
        raise NonPositiveMaterial(f"exterior constants must be positive: eps0={eps0}, mu0={mu0}")
    if polarization != "TE":
        raise UnsupportedPolarization(
            f"polarization must be TE (the only one discretized), got {polarization!r}"
        )
    if not raw_cavities:
        raise ConfigError("scene must declare at least one cavity")

    cavities = []
    for raw in raw_cavities:
        with config_block(f"cavity entry {raw!r}"):
            mesh_file = raw.get("mesh_file")
            if not isinstance(mesh_file, (str, type(None))):
                raise TypeError(f"mesh_file must be a path string, got {mesh_file!r}")
            cav = CavitySpec(
                id=0,  # numbered after ordering
                aperture=number_pair(raw["aperture"]),
                epsilon=_material(raw.get("epsilon", 1.0)),
                mu=_material(raw.get("mu", 1.0)),
                depth=finite_number(raw["depth"]) if "depth" in raw else None,
                vertices=tuple(map(number_pair, raw["vertices"]))
                if "vertices" in raw
                else None,
                collar=finite_number(raw["collar"]) if "collar" in raw else None,
                mesh_file=mesh_file,
            )
        cavities.append(cav)

    cavities.sort(key=lambda c: c.aperture[0])
    cavities = [replace(c, id=j) for j, c in enumerate(cavities)]

    for prev, nxt in zip(cavities, cavities[1:]):
        if nxt.aperture[0] <= prev.aperture[1]:
            raise OverlappingApertures(
                f"apertures {prev.aperture} and {nxt.aperture} must be "
                f"separated by a positive gap"
            )
    for cav in cavities:
        _validate_cavity(cav, mu0)

    return Scene(cavities=tuple(cavities), eps0=eps0, mu0=mu0)


# ---------------------------------------------------------------------------
# Meshing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of one cavity.

    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, positively oriented
    boundary_edges : (ne, 2) int array
    boundary_tags : (ne,) int array of WALL / APERTURE
    aperture_nodes : vertex indices with y = 0, sorted by x
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    aperture_nodes: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_vertices
        for name, index in (("triangle", self.triangles),
                            ("boundary edge", self.boundary_edges)):
            if index.size and (index.min() < 0 or index.max() >= n):
                raise MeshFailure(f"a {name} names a vertex outside [0, {n})")
        if np.any((self.boundary_tags != WALL) & (self.boundary_tags != APERTURE)):
            raise MeshFailure(f"boundary tags must be {WALL} (wall) or {APERTURE} (aperture)")
        areas = self.areas()
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise MeshFailure(f"triangle {bad} has non-positive area {areas[bad]}")
        ap_x = self.vertices[self.aperture_nodes, 0]
        if np.any(np.diff(ap_x) <= 0.0):
            raise MeshFailure("aperture node x-coordinates must be strictly increasing")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    def wall_nodes(self) -> np.ndarray:
        """Dirichlet set: every node on a WALL edge (aperture corners included)."""
        edges = self.boundary_edges[self.boundary_tags == WALL]
        return np.unique(edges)


def check_mesh_size(cavity: CavitySpec, h: float) -> None:
    """Raise MeshFailure unless h resolves the cavity within MAX_MESH_VERTICES.

    h must satisfy 0 < h <= min(width, depth) / 2.  For a rectangle the
    structured grid's exact vertex count (nx + 1)(ny + 1) must not exceed
    MAX_MESH_VERTICES, and the grid's first layer depth/ny must fit in the
    mu collar (ApertureCollarViolation); both are known from h before any
    array is built.  A polygon needs an imported triangulation (mesh_file),
    whose size and layers h does not set; it is checked once loaded.
    """
    if not h > 0.0:
        raise MeshFailure(f"target edge length must be positive, got h={h}")
    if not cavity.is_rectangle and cavity.mesh_file is None:
        raise MeshFailure(
            f"cavity {cavity.id}: polygon cavities require an imported "
            f"triangulation (mesh_file)"
        )
    limit = min(cavity.width, cavity.max_depth) / 2.0
    if h > limit:
        raise MeshFailure(
            f"h={h} too coarse for cavity {cavity.id}: requires h <= "
            f"min(width, depth)/2 = {limit}"
        )
    if cavity.is_rectangle:
        if math.isinf(max(cavity.width, cavity.max_depth) / h):  # subnormal h
            raise MeshFailure(f"h={h} is too small to grid cavity {cavity.id}")
        nx, ny = _grid_shape(cavity, h)
        vertices = (nx + 1) * (ny + 1)
        if vertices > MAX_MESH_VERTICES:
            raise MeshFailure(
                f"h={h} would give cavity {cavity.id} {vertices} vertices, "
                f"above the limit of {MAX_MESH_VERTICES}"
            )
        _check_collar_resolved(cavity, cavity.max_depth / ny)


def mesh_cavity(cavity: CavitySpec, h: float) -> Mesh:
    """Triangulate one cavity with target edge length h.

    Rectangles get a structured grid (max edge <= 1.5 h); polygon cavities
    load their imported triangulation and validate it against the declared
    geometry.  h is checked by check_mesh_size first.
    """
    check_mesh_size(cavity, h)
    if cavity.is_rectangle:
        mesh = _structured_rectangle(cavity, h)
    else:
        mesh = load_mesh(cavity.mesh_file)
        _check_imported_mesh(mesh, cavity)
        below = mesh.vertices[mesh.vertices[:, 1] < -_GROUND_TOL, 1]
        if below.size == 0:
            raise MeshFailure(f"cavity {cavity.id}: mesh has no interior below y=0")
        _check_collar_resolved(cavity, float(-np.max(below)))
    return mesh


def _grid_shape(cavity: CavitySpec, h: float) -> tuple[int, int]:
    """Element columns and rows (nx, ny) of a rectangle's structured grid.

    At least two of each, and an even column count so the split mirrors
    cleanly.  h is positive and at most half the width and depth.
    """
    nx = max(2, math.ceil(cavity.width / h))
    return nx + nx % 2, max(2, math.ceil(cavity.max_depth / h))


def _structured_rectangle(cavity: CavitySpec, h: float) -> Mesh:
    a, b = cavity.aperture
    nx, ny = _grid_shape(cavity, h)
    xs = np.linspace(a, b, nx + 1)
    ys = np.linspace(-float(cavity.depth), 0.0, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # vid[i, j]: the vertex of row i (y index, bottom row 0) and column j.
    vid = np.arange(vertices.shape[0], dtype=np.int64).reshape(ny + 1, nx + 1)
    v00, v10, v01, v11 = vid[:-1, :-1], vid[:-1, 1:], vid[1:, :-1], vid[1:, 1:]

    # Cells left of the cavity midline split along one diagonal, cells right
    # of it along the mirrored one, so the triangulation (and with it the
    # whole discrete operator) commutes with x-reflection of the cavity.
    # Triangles run by row, then column, then first/second of the cell.
    left = (np.arange(nx) < nx // 2)[:, None]
    first = np.where(left, np.stack([v00, v10, v11], -1), np.stack([v00, v10, v01], -1))
    second = np.where(left, np.stack([v00, v11, v01], -1), np.stack([v10, v11, v01], -1))
    triangles = np.stack([first, second], axis=2).reshape(-1, 3)

    # Bottom wall, then the left/right side-wall pair of each row, then the
    # aperture along the top row.
    sides = vid[:, [0, nx]]
    edges = np.concatenate([
        np.column_stack([vid[0, :-1], vid[0, 1:]]),
        np.stack([sides[:-1], sides[1:]], axis=-1).reshape(-1, 2),
        np.column_stack([vid[-1, :-1], vid[-1, 1:]]),
    ])
    tags = np.repeat(np.array([WALL, APERTURE], dtype=np.int64), [nx + 2 * ny, nx])
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=edges,
        boundary_tags=tags,
        aperture_nodes=vid[-1].copy(),
    )


def _check_imported_mesh(mesh: Mesh, cavity: CavitySpec) -> None:
    a, b = cavity.aperture
    ap = mesh.aperture_nodes
    if ap.size < 2:
        raise MeshFailure(f"cavity {cavity.id}: imported mesh has no aperture edge")
    x = mesh.vertices[ap, 0]
    if not (np.isclose(x[0], a) and np.isclose(x[-1], b)):
        raise MeshFailure(
            f"cavity {cavity.id}: imported aperture [{x[0]}, {x[-1]}] does not "
            f"span [{a}, {b}]"
        )
    if np.any(mesh.vertices[:, 1] > _GROUND_TOL):
        raise MeshFailure(f"cavity {cavity.id}: imported mesh has vertices above y=0")


def _check_collar_resolved(cavity: CavitySpec, first_layer: float) -> None:
    """The first element layer below the aperture must fit in the collar."""
    if first_layer > cavity.collar_depth + 1e-12:
        raise ApertureCollarViolation(
            f"cavity {cavity.id}: first mesh layer ({first_layer}) exceeds the "
            f"declared mu collar ({cavity.collar_depth}); refine h or widen the collar"
        )


def mesh_scene(scene: Scene, h: float) -> list[Mesh]:
    return [mesh_cavity(cav, h) for cav in scene.cavities]


# ---------------------------------------------------------------------------
# Plain-text mesh format
#
#   n_vertices
#   x y                (one line per vertex)
#   n_triangles
#   i j k              (one line per triangle, 0-based)
#   n_boundary_edges
#   i j tag            (tag: 0 = wall, 1 = aperture)
# ---------------------------------------------------------------------------

def save_mesh(path: str | Path, mesh: Mesh) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        f.write(f"{mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            f.write(f"{i} {j} {k}\n")
        f.write(f"{len(mesh.boundary_edges)}\n")
        for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            f.write(f"{i} {j} {tag}\n")


def load_mesh(path: str | Path) -> Mesh:
    """Read a mesh in the format above.  MeshFailure if the file cannot be
    read, ends early, or holds anything but the three sections: negative
    counts, non-finite coordinates and trailing tokens count as malformed."""
    tokens = _read_text(path, MeshFailure, "mesh file").split()
    pos = 0

    def take(n: int) -> list[str]:
        nonlocal pos
        if pos + n > len(tokens):
            raise MeshFailure(f"mesh file {path} is truncated")
        out = tokens[pos : pos + n]
        pos += n
        return out

    def count() -> int:
        n = int(take(1)[0])
        if n < 0:
            raise ValueError(f"negative count {n}")
        return n

    try:
        nv = count()
        vertices = np.array(take(2 * nv), dtype=float).reshape(nv, 2)
        if not np.all(np.isfinite(vertices)):
            raise ValueError("a vertex coordinate is not finite")
        nt = count()
        triangles = np.array(take(3 * nt), dtype=np.int64).reshape(nt, 3)
        ne = count()
        raw = np.array(take(3 * ne), dtype=np.int64).reshape(ne, 3)
        if pos < len(tokens):
            raise ValueError(f"{len(tokens) - pos} tokens follow the boundary edges")
    except (ValueError, OverflowError) as exc:
        raise MeshFailure(f"mesh file {path} is malformed: {exc}") from exc

    on_line = np.abs(vertices[:, 1]) <= _GROUND_TOL
    ap_nodes = np.nonzero(on_line)[0]
    ap_nodes = ap_nodes[np.argsort(vertices[ap_nodes, 0])]
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=raw[:, :2],
        boundary_tags=raw[:, 2],
        aperture_nodes=ap_nodes,
    )
