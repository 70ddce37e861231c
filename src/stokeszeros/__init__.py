"""Stokes complexes and eigenfunction zero asymptotics for polynomial potentials.

The package traces the Stokes complexes of the quadratic differentials
((-1)^l (iz)^d - 1) dz^2, solves the associated boundary eigenvalue
problems by complex shooting, and measures how the zeros of rescaled
eigenfunctions settle onto the exceptional set as the index grows.
"""

from .errors import (
    CertificateError,
    DomainError,
    GeometryError,
    IntegrationError,
    QuadratureError,
    RootFindingError,
    StokesZerosError,
    StructuralError,
    TraceError,
)
from .polynomials import ComplexPolynomial, roots
from .quaddiff import (
    QuadDiff,
    StokesDirections,
    StokesLine,
    TraceCaps,
    build_quad_diff,
    launch_directions,
    stokes_directions,
    trace_trajectory,
    turning_points,
)
from .stokescomplex import (
    AdmissibilityResult,
    Region,
    StokesComplex,
    is_admissible,
    stokes_complex,
)
from .transport import TaylorStep, TransportState, transport, transport_states
from .wkb import (
    PhaseIntegral,
    WKBParameters,
    WKBValue,
    arc_mass_profile,
    eigenvalue_estimate,
    growth_constant,
    h0_bound,
    liouville_g,
    wkb_approximant,
)
from .spectral import (
    Eigenpair,
    EigenfunctionEvaluator,
    ProblemSpec,
    RescaledEigenfunction,
    ShootingFrame,
    envelope_deviation,
    miss_function,
    miss_surrogate,
    rescale,
    solve_eigenpair,
    wkb_seed,
)
from .zeros import (
    ComparisonReport,
    EmpiricalMeasure,
    PolynomialStates,
    ZeroSet,
    compare_to_limit,
    count_zeros_rect,
    empirical_measure,
    locate_zeros,
)

__all__ = [
    "ComplexPolynomial",
    "roots",
    "QuadDiff",
    "build_quad_diff",
    "turning_points",
    "stokes_directions",
    "StokesDirections",
    "trace_trajectory",
    "launch_directions",
    "TraceCaps",
    "StokesLine",
    "StokesComplex",
    "Region",
    "stokes_complex",
    "is_admissible",
    "AdmissibilityResult",
    "TransportState",
    "TaylorStep",
    "transport",
    "transport_states",
    "PhaseIntegral",
    "growth_constant",
    "eigenvalue_estimate",
    "arc_mass_profile",
    "liouville_g",
    "h0_bound",
    "WKBParameters",
    "WKBValue",
    "wkb_approximant",
    "ProblemSpec",
    "Eigenpair",
    "ShootingFrame",
    "wkb_seed",
    "miss_function",
    "miss_surrogate",
    "solve_eigenpair",
    "EigenfunctionEvaluator",
    "RescaledEigenfunction",
    "rescale",
    "envelope_deviation",
    "ZeroSet",
    "EmpiricalMeasure",
    "PolynomialStates",
    "count_zeros_rect",
    "locate_zeros",
    "empirical_measure",
    "ComparisonReport",
    "compare_to_limit",
    "StokesZerosError",
    "DomainError",
    "RootFindingError",
    "TraceError",
    "StructuralError",
    "IntegrationError",
    "QuadratureError",
    "CertificateError",
    "GeometryError",
]

__version__ = "0.1.0"
