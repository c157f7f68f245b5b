"""P1 finite elements for the coupled frequency-domain cavity problem.

Each cavity is discretized independently: an epsilon-weighted mass matrix,
a (1/mu)-weighted stiffness matrix (3-point triangle quadrature for the
variable coefficients), homogeneous Dirichlet walls eliminated exactly,
and a sparse interpolation matrix R carrying the finite-element aperture
trace onto the uniform line grid.  R is the one map between nodal values
and trace samples: the load of aperture data g is R^T W g, with W the
aperture trapezoid weights (TraceGrid.aperture_weights).  The cavities
couple only through the shared line operator: the assembled action at
frequency s is

    u  ->  s*M u + (1/s)*K u - (1/(s*mu0)) * R^T Q B R u

with Q the uniform line quadrature and B the FFT boundary operator over
the union of the zero-extended aperture traces.  The coupled matrix lives
on one sparsity pattern per scene (SystemPattern), built once from the
cavities' free-DOF blocks; a frequency only fills its values, and
SuperLU orders each factorization.
B is a circulant on the uniform grid, so one FFT kernel column per
frequency gives the whole aperture block.  At real s the symbol is
real, so the matrix is real symmetric and is built, factorized and solved
in real arithmetic; otherwise it is complex symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, DomainError, FactorizationFailure
from .scene import CavitySpec, Mesh, Scene
from .trace import TraceGrid, apply_B as apply_B_columns  # span seam of bench/tracer.py

__all__ = [
    "ORDERING",
    "FemMatrices",
    "SystemOperator",
    "SystemPattern",
    "assemble",
    "assemble_all",
    "apply_rhs",
    "build_system",
]

# Barycentric coordinates of the three edge midpoints (degree-2 exact rule).
_MIDPOINT_LAMBDAS = np.array(
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
)


@dataclass
class FemMatrices:
    """Per-cavity discrete operators on the full node set.

    mass / stiffness carry the material weights (epsilon, 1/mu); the unit
    variants (the weighted matrix itself where its weight is 1) back the
    L2 / H1-seminorm evaluations of the estimate checks.
    restriction interpolates nodal aperture values onto the trace grid
    (one linear-interpolation pair per sample under the aperture, zero
    rows elsewhere).
    """

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    mass_unit: sp.csr_matrix
    stiffness_unit: sp.csr_matrix
    free_nodes: np.ndarray
    restriction: sp.csr_matrix

    @property
    def n_nodes(self) -> int:
        return self.mass.shape[0]

    @property
    def n_free(self) -> int:
        return self.free_nodes.size

    def l2_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(abs(np.vdot(u, self.mass_unit @ u).real)))

    def h1_seminorm(self, u: np.ndarray) -> float:
        return float(np.sqrt(abs(np.vdot(u, self.stiffness_unit @ u).real)))


def assemble(mesh: Mesh, cavity: CavitySpec, grid: TraceGrid) -> FemMatrices:
    """Assemble the P1 matrices of one cavity (and its trace restriction)."""
    areas = mesh.areas()  # all positive: Mesh refuses any other
    tris = mesh.triangles
    p = mesh.vertices[tris]  # (nt, 3, 2)

    # Constant P1 gradients: grad(lambda_i) = rot(edge opposite i) / (2A).
    gx = np.stack(
        [
            p[:, 1, 1] - p[:, 2, 1],
            p[:, 2, 1] - p[:, 0, 1],
            p[:, 0, 1] - p[:, 1, 1],
        ],
        axis=1,
    ) / (2.0 * areas[:, None])
    gy = np.stack(
        [
            p[:, 2, 0] - p[:, 1, 0],
            p[:, 0, 0] - p[:, 2, 0],
            p[:, 1, 0] - p[:, 0, 0],
        ],
        axis=1,
    ) / (2.0 * areas[:, None])

    # Material samples at the edge midpoints.
    qpts = _MIDPOINT_LAMBDAS @ p.reshape(-1, 3, 2)  # (nt, 3q, 2) via broadcasting
    qx, qy = qpts[..., 0], qpts[..., 1]
    eps_q = cavity.epsilon(qx, qy)
    inv_mu_q = 1.0 / cavity.mu(qx, qy)
    w = areas[:, None] / 3.0

    grad_dot = gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    k_local = grad_dot * np.sum(w * inv_mu_q, axis=1)[:, None, None]
    k1_local = grad_dot * areas[:, None, None]

    lam = _MIDPOINT_LAMBDAS  # (3q, 3i)
    lam_outer = lam[:, :, None] * lam[:, None, :]  # (3q, 3i, 3j)
    m_local = np.einsum("tq,qij->tij", w * eps_q, lam_outer)
    m1_local = np.einsum("tq,qij->tij", w * np.ones_like(eps_q), lam_outer)

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = mesh.n_vertices

    def to_csr(local: np.ndarray) -> sp.csr_matrix:
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    free = np.setdiff1d(np.arange(n), mesh.wall_nodes())
    mass, stiffness = to_csr(m_local), to_csr(k_local)
    return FemMatrices(
        mass=mass,
        stiffness=stiffness,
        mass_unit=mass if np.array_equal(m1_local, m_local) else to_csr(m1_local),
        stiffness_unit=stiffness if np.array_equal(k1_local, k_local) else to_csr(k1_local),
        free_nodes=free,
        restriction=_trace_restriction(mesh, cavity, grid),
    )


def assemble_all(scene: Scene, meshes: list[Mesh], grid: TraceGrid) -> list[FemMatrices]:
    if len(meshes) != scene.n_cavities:
        raise DimensionMismatch(
            f"{len(meshes)} meshes for {scene.n_cavities} cavities"
        )
    return [assemble(m, c, grid) for m, c in zip(meshes, scene.cavities)]


def _trace_restriction(mesh: Mesh, cavity: CavitySpec, grid: TraceGrid) -> sp.csr_matrix:
    """Linear interpolation from aperture nodal values to trace samples.

    Sample k under the aperture gets the pair (1 - t, t) on the aperture
    nodes left and right of it; rows off the aperture are empty.  The
    cavity's aperture must be one of the grid's apertures, exactly.
    """
    try:
        ks = np.nonzero(grid.masks[grid.apertures.index(cavity.aperture)])[0]
    except ValueError:
        raise DimensionMismatch(
            f"cavity aperture {cavity.aperture} not present on the trace grid"
        ) from None
    ap = mesh.aperture_nodes
    xa = mesh.vertices[ap, 0]
    seg = np.clip(np.searchsorted(xa, grid.x[ks], side="right"), 1, len(xa) - 1)
    t = (grid.x[ks] - xa[seg - 1]) / (xa[seg] - xa[seg - 1])
    rows = np.repeat(ks, 2)
    cols = np.stack([ap[seg - 1], ap[seg]], axis=1).ravel()
    vals = np.stack([1.0 - t, t], axis=1).ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.N, mesh.n_vertices))


def apply_rhs(g: np.ndarray, restriction: sp.spmatrix, grid: TraceGrid) -> np.ndarray:
    """Load vector R^T W g of line data g: entry i is <g, hat_i> over the apertures.

    `restriction` is a trace restriction R: one cavity's
    (FemMatrices.restriction, full node set), the stacked free-DOF one
    (SystemPattern.restriction) or its aperture columns.  W is the aperture
    trapezoid rule, which reproduces the exact hat integrals (h inside, h/2
    at the corner nodes) when grid samples align with the aperture nodes.
    Real data gives a real load.  A (rows, N) array of data, one trace per
    row, gives the (rows, n) array of their loads in one sparse product.
    """
    if g.ndim not in (1, 2) or g.shape[-1] != grid.N or restriction.shape[0] != grid.N:
        raise DimensionMismatch(
            f"data of shape {g.shape} and a restriction of {restriction.shape[0]} "
            f"rows do not match grid N={grid.N}"
        )
    return (restriction.T @ (grid.aperture_weights * g).T).T


@dataclass
class SystemOperator:
    """Frequency-domain coupled operator with a lazy direct factorization.

    SuperLU orders each factorization itself, by minimum degree on
    A^T + A in symmetric mode (ORDERING).  The matrix is symmetric by
    construction (SystemPattern.matrix: real symmetric at real s, complex
    symmetric, A^T = A but not Hermitian, otherwise), and so is any real
    multiple of it such as the march's W0; solve relies on that and takes
    SuperLU's transposed sweep, which solves A^T x = b.  triangular_solves
    counts the solves made with the factorization.
    """

    s: complex
    matrix: sp.csc_matrix
    _lu: spla.SuperLU | None = field(default=None, repr=False)
    triangular_solves: int = field(default=0, repr=False)

    @property
    def n_dofs(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def factorize(self) -> spla.SuperLU:
        if self._lu is None:
            # Symmetric mode keeps the minimum-degree order (no elimination-
            # tree post-order) and prefers diagonal pivots; partial pivoting
            # keeps its default threshold.
            try:
                self._lu = spla.splu(
                    self.matrix, permc_spec=ORDERING, options={"SymmetricMode": True}
                )
            except RuntimeError as exc:
                raise FactorizationFailure(
                    f"sparse factorization failed at s={self.s}: {exc}"
                ) from exc
        return self._lu

    @property
    def lu_nnz(self) -> int:
        """Stored entries of the factorization; 0 while there is none."""
        return 0 if self._lu is None else self._lu.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve with the factorization, in its arithmetic: a real matrix
        takes a real load (SuperLU raises TypeError on a complex one)."""
        self.triangular_solves += 1
        # Every matrix here is symmetric (A^T = A, complex symmetric off the
        # real axis), so A^T x = b is the same system, and SuperLU's
        # transposed sweep solves it faster than the plain one.
        return self.factorize().solve(b, trans="T")


@dataclass(frozen=True)
class SystemPattern:
    """Fixed CSC sparsity of the coupled matrix, shared by every frequency.

    The pattern is the union of the block-diagonal free-node volume part
    and the dense aperture block.  mass / stiffness are the stacked
    free-DOF matrices (one shared pattern), whose data land at positions
    vol_index of the data array; the aperture coupling block lands at
    positions ap_index, row-major.  Building the matrix at one frequency
    then fills a single data array.  The march reads them too, and their
    unit-weight twins, each the weighted matrix itself when every cavity's
    twin is.  from_fems is the one place where free DOFs are stacked.

    restriction is Rf, the trace restriction of the free DOFs stacked over
    the cavities (CSC, N x n_free): loads and the time-domain DtN history
    read it.  aperture_dofs lists its nonempty columns, the free DOFs on
    the apertures; every other column of Rf is zero.  The boundary
    operator is a circulant on the uniform trace grid: entry (p, q) is its
    kernel column B e_0 at lag[p, q] = (k_p - k_q) mod N.  The coupling
    block is therefore rt (dx B) rt^T, where rt is the sparse transpose of
    Rf on the aperture columns, limited to the trace samples k under the
    apertures.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    vol_index: np.ndarray
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    mass_unit: sp.csr_matrix
    stiffness_unit: sp.csr_matrix
    ap_index: np.ndarray
    restriction: sp.csc_matrix
    aperture_dofs: np.ndarray
    rt: sp.csr_matrix
    lag: np.ndarray
    free_offsets: np.ndarray

    @classmethod
    def from_fems(cls, fems: list[FemMatrices]) -> "SystemPattern":
        def stack(name: str) -> sp.csr_matrix:
            blocks = [getattr(f, name)[f.free_nodes][:, f.free_nodes] for f in fems]
            return sp.block_diag(blocks, format="csr")

        mass, stiffness = stack("mass"), stack("stiffness")
        n = mass.shape[0]

        r_stack = sp.hstack(
            [f.restriction[:, f.free_nodes] for f in fems], format="csc"
        )
        ap_cols = np.nonzero(np.diff(r_stack.indptr) > 0)[0]
        r_ap = r_stack[:, ap_cols]
        samples = np.unique(r_ap.indices)

        # CSC order is (column, row); unique keys give the union pattern.
        vol = mass.tocoo()
        vol_keys = vol.col.astype(np.int64) * n + vol.row
        ap_keys = np.tile(ap_cols, ap_cols.size) * n + np.repeat(ap_cols, ap_cols.size)
        keys, inverse = np.unique(np.concatenate([vol_keys, ap_keys]), return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
        indices = keys % n
        return cls(
            shape=(n, n),
            indptr=indptr.astype(np.int32),
            indices=indices.astype(np.int32),
            vol_index=inverse[: vol_keys.size],
            mass=mass,
            stiffness=stiffness,
            mass_unit=mass if all(f.mass_unit is f.mass for f in fems) else stack("mass_unit"),
            stiffness_unit=(stiffness if all(f.stiffness_unit is f.stiffness for f in fems)
                            else stack("stiffness_unit")),
            ap_index=inverse[vol_keys.size :],
            restriction=r_stack,
            aperture_dofs=ap_cols,
            rt=r_ap[samples].T.tocsr(),
            lag=(samples[:, None] - samples[None, :]) % r_stack.shape[0],
            free_offsets=np.concatenate([[0], np.cumsum([f.n_free for f in fems])[:-1]]),
        )

    def coupling(self, s: complex, grid: TraceGrid, c: float) -> np.ndarray:
        """Dense aperture block R^T Q B(s) R over the free aperture DOFs.

        Real at real s, where the symbol is real; complex otherwise.
        """
        impulse = np.zeros((grid.N, 1), dtype=type(_real_if_real(s)))
        impulse[0] = 1.0
        kernel = grid.dx * apply_B_columns(impulse, s, grid, c)[:, 0]
        return self.rt @ kernel[self.lag] @ self.rt.T

    def matrix(self, s: complex, grid: TraceGrid, c: float, mu0: float) -> sp.csc_matrix:
        """s*M + (1/s)*K - (1/(s*mu0)) * R^T Q B(s) R on the fixed pattern.

        The data are float64 at real s (the matrix is real symmetric) and
        complex128 otherwise (complex symmetric).
        """
        s = _real_if_real(s)
        data = np.zeros(self.indices.size, dtype=type(s))
        data[self.vol_index] = s * self.mass.data + (1.0 / s) * self.stiffness.data
        data[self.ap_index] += (-1.0 / (s * mu0)) * self.coupling(s, grid, c).ravel()
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


def _real_if_real(s: complex) -> float | complex:
    """s as a float when its imaginary part is zero, else as a complex."""
    s = complex(s)
    return s.real if s.imag == 0.0 else s


# SuperLU's fill-reducing column ordering, the only one the package uses.
ORDERING = "MMD_AT_PLUS_A"


def build_system(
    pattern: SystemPattern, grid: TraceGrid, s: complex, c: float, mu0: float
) -> SystemOperator:
    """The coupled operator of all cavities at frequency s (Re s > 0), filled
    on the scene's fixed pattern.

    Cross-cavity blocks enter only through the boundary operator applied
    to the union of zero-extended traces; everything else is block
    diagonal per cavity.
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"frequency must satisfy Re s > 0, got s={s}")
    return SystemOperator(s=s, matrix=pattern.matrix(s, grid, c, mu0))
