"""Exception types shared across the package."""


class FinslerCheckError(Exception):
    """Base class for all package-specific errors."""


# --- finite differencing ---

class NonFiniteEvaluation(FinslerCheckError):
    """A stencil evaluation returned NaN or infinity."""


class StencilOutsideDomain(FinslerCheckError):
    """A stencil point was rejected by the field's validity predicate."""


# --- linear algebra ---

class HermitianViolation(FinslerCheckError):
    """A matrix expected to be Hermitian is conjugate-asymmetric beyond tolerance."""


class SingularMatrix(FinslerCheckError):
    """A pivot / eigenvalue magnitude fell below the singularity threshold."""


# --- profiles ---

class InvalidCatalogEntry(FinslerCheckError):
    """A 1-D function descriptor or profile ingredient is malformed or unusable."""


class DomainViolation(FinslerCheckError):
    """A requested (t, s) point lies outside the profile's validity region."""


class InvalidCurvatureTag(FinslerCheckError):
    """Constant-curvature model tag is not one of +4, 0, -4."""


# --- tensors ---

class ZeroVector(FinslerCheckError):
    """The tangent vector v must be nonzero."""


class DegenerateK1(FinslerCheckError):
    """The determinant factor k1 vanished; the spray/curvature formulas degenerate."""


# --- curvature ---

class NotWeaklyKahler(FinslerCheckError):
    """The weakly-Kahler residual is too large for the specialised curvature formula."""


class DegenerateUs(FinslerCheckError):
    """U_s vanished; the weakly-Kahler curvature formula degenerates."""


# --- harness ---

class ConfigError(FinslerCheckError, ValueError):
    """Suite or CLI configuration failed validation (also a ValueError)."""


class EmptyAfterRejection(FinslerCheckError):
    """Domain sampling rejected more than 90% of draws."""


class ReportIOError(FinslerCheckError):
    """Writing a report to its destination failed."""
