"""Exception types shared across the package."""


class CavityError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CavityError):
    """Configuration document is malformed or internally inconsistent."""


class OverlappingApertures(ConfigError):
    """Two aperture intervals intersect or touch; a positive gap is required."""


class NonPositiveMaterial(ConfigError):
    """A material field violates its positive lower/upper bounds."""


class ApertureCollarViolation(ConfigError):
    """mu differs from the exterior mu0 in the collar beneath an aperture."""


class UnsupportedPolarization(ConfigError):
    """A scene asks for a polarization other than TE, the only one discretized.

    TM exchanges the material roles and needs Neumann walls; the package
    has neither, so the scene parser refuses it."""


class MeshFailure(CavityError):
    """Triangulation could not be built or fails its structural checks."""


class DomainError(CavityError, ValueError):
    """Complex frequency outside the admissible half-plane Re s > 0."""


class GridMismatch(CavityError, ValueError):
    """A trace vector does not live on the grid it is used with."""


class SizeError(CavityError, ValueError):
    """Dense-oracle operation requested above its size cap."""


class DimensionMismatch(CavityError, ValueError):
    """Scene, meshes and trace grid disagree on shapes or counts, or an
    incident wave assumes other exterior constants than its scene."""


class CausalityViolation(CavityError):
    """The reconstructed field is non-negligible before the data arrives."""


class QuadratureFailure(CavityError):
    """Adaptive quadrature did not reach the requested tolerance."""


class FactorizationFailure(CavityError):
    """A sparse direct solve failed to factorize or missed its residual
    certificate; reported with the frequency."""
