"""Numerical laboratory for billiards in convex bodies.

Reflection laws driven by a second convex body, projective and
Minkowski-Finsler reflection structures, osculating conics and quadrics
with their contact asymptotics, and minimal-action closed orbits with
the derived capacity and volume-product quantities.
"""

from .bodies import (
    Ball,
    ConvexBody,
    Ellipsoid,
    GraphGerm,
    LinearImageBody,
    OrientedLine,
    PlanarGerm,
    PolarBody,
    Polygon2D,
    RadialBody2D,
    Superellipse,
    SupportBody2D,
    body_from_text,
    legendre_point,
    load_body,
    polar_dual,
    unit_vector,
)
from .dynamics import (
    CapacityReport,
    KTOrbit,
    KTSegment,
    Orbit,
    capacity_estimate,
    closed_orbit_search,
    finsler_length,
    iterate_t_billiard,
    lift_kt_orbit,
    mahler_product,
    viterbo_ratio,
)
from .errors import (
    BoundaryMembershipError,
    ConvergenceError,
    ConvexityViolationError,
    DegenerateChordError,
    DegenerateDataError,
    DomainError,
    FrameNormalizationError,
    GeometryError,
    GrazingError,
    IndistinguishableError,
    OriginNotInteriorError,
    PreconditionError,
    PrecisionError,
    SamplePlanError,
    SolverError,
)
from .osculation import (
    ConicGraphBranch,
    ConicQuadric,
    NormalGapFit,
    PlanarSectionFrame,
    affine_curvature,
    affine_curvature_from_jet,
    conic_from_graph_coefficients,
    fifth_order_gap,
    fit_conic_2d,
    germ_at,
    height_match,
    height_partner,
    is_sextactic,
    normal_field_gap,
    osculating_conic,
    osculating_quadric_along_curve,
    planar_section_conic_residual,
    quadric_graph_germ,
    sextactic_scan,
    slope_point,
)
from .projectivity import (
    ProjectiveMap,
    SamplePlan,
    SphereInvolutionSampler,
    cross_ratio,
    cross_ratio_rp1,
    deviation_exponent,
    fit_projective_involution,
    projectivity_residual,
    rp_distance,
    two_jet_at_fixed_point,
)
from .reflection import (
    ParallelClass,
    TransversalField,
    euclidean_reflect,
    finsler_reflect_concurrency,
    finsler_reflect_legendre,
    parallel_chord_involution,
    projective_billiard_map,
    projective_billiard_reflect,
    rescale_conjugate,
    t_billiard_reflect,
)

__version__ = "0.1.0"
