"""Verification of unitary-invariant complex Finsler metrics F = sqrt(r phi(t, s)).

Closed-form tensors (Levi matrix, spray coefficients, Chern-Finsler connection,
holomorphic curvature, Kahler-type torsion residuals) evaluated pointwise and
cross-checked against independent Wirtinger finite-difference oracles.
"""

from .curvature import (
    CurvatureReport,
    KahlerReport,
    UWData,
    curvature_report,
    holomorphic_curvature_closed,
    holomorphic_curvature_direct,
    holomorphic_curvature_wk,
    k2_k3_identity_residual,
    kahler_classify,
    lemma_integrability_residual,
    uw,
    wk_residual_phi,
    wk_residual_uw,
)
from .errors import (
    ConfigError,
    DegenerateK1,
    DegenerateUs,
    DomainViolation,
    EmptyAfterRejection,
    FinslerCheckError,
    HermitianViolation,
    InvalidCatalogEntry,
    InvalidCurvatureTag,
    NonFiniteEvaluation,
    NotWeaklyKahler,
    ReportIOError,
    SingularMatrix,
    StencilOutsideDomain,
    ZeroVector,
)
from .functions1d import (
    Constant,
    Exponential,
    Linear,
    Power,
    Rational,
    Scaled,
    SumFn,
    WkG,
    WkH,
    function_from_descriptor,
)
from .numerics import (
    FDConfig,
    hermitian_inverse_det,
    positive_definite,
    wirtinger_gradient,
    wirtinger_mixed_hessian,
    wirtinger_second,
)
from .profiles import (
    MetricProfile,
    euclidean_profile,
    hermitian_profile,
    model_profile,
    profile_from_descriptor,
    randers_profile,
    wk_randers_profile,
)
from .report import emit_report
from .sampling import SampleSpec, sample_domain, seeded_unitary
from .suite import SuiteConfig, SuiteReport, run_suite
from .tensors import (
    ConnectionData,
    LeviData,
    PointVector,
    SprayData,
    connection_coefficients,
    det_closed,
    invariants,
    levi_closed,
    levi_oracle,
    nonlinear_connection_fd,
    pseudoconvexity_check,
    spray_coefficients,
)

__version__ = "0.1.0"
