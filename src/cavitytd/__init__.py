"""Time-domain multi-cavity electromagnetic scattering.

Cavities recessed in a conducting ground plane are truncated at their
apertures by the exact half-space Dirichlet-to-Neumann condition; the
reduced coupled problem is solved directly in the Laplace domain and in
the time domain through BDF2 convolution quadrature, with a diagnostics
layer that certifies passivity, coercivity and the stability estimates at
the discrete level.
"""

from .cq import CqScheme, TimeSolution, run_time_domain
from .diagnostics import (
    EnergyTrace,
    apriori_check,
    energy,
    passivity_deficit,
    passivity_suite,
    stability_check,
)
from .errors import (
    ApertureCollarViolation,
    CausalityViolation,
    CavityError,
    ConfigError,
    DimensionMismatch,
    DomainError,
    FactorizationFailure,
    GridMismatch,
    MeshFailure,
    NonPositiveMaterial,
    OverlappingApertures,
    QuadratureFailure,
    SizeError,
    UnsupportedPolarization,
)
from .fem import FemMatrices, SystemOperator, apply_rhs, assemble, build_system
from .freq import FrequencySolution, FrequencySolver, estimate_report
from .incident import PlaneWave, WaveProfile, boundary_data_freq
from .scene import CavitySpec, MaterialField, Mesh, Scene, build_scene, load_config, mesh_cavity, mesh_scene
from .trace import TraceGrid, apply_B, beta, dtn_dense, passivity_defect, restrict, trace_norm

__version__ = "0.1.0"
