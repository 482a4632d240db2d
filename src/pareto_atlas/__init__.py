"""Pareto sets of strongly convex multiobjective problems.

Weighted-sum scalarization over the weight simplex, solved by damped Newton,
with numerical certificates for the geometry of the solution map: Jacobian
corank bounds, face consistency (each boundary node's x is critical for its
face weight; no solve), injectivity scans, non-domination
(pairs within the strong-convexity radius in x), and perturbation
(genericity and stability) experiments.
"""
from .apps import (
    LocationInstance,
    LocationReport,
    RidgePathReport,
    location_pareto_set,
    read_ridge_csv,
    ridge_lambda,
    ridge_path,
    write_ridge_csv,
)
from .atlas import (
    ParetoAtlas,
    SimplexGrid,
    build_atlas,
    face_consistency,
    injectivity_scan,
)
from .diagnostics import (
    DEFAULT_RANK_TOL,
    CorankCertificate,
    certify_corank_on_atlas,
    cokernel_basis,
    corank_at,
)
from .ordering import dominates, dominating_pairs
from .perturb import (
    corank2_system,
    corank2_tracker,
    draw_perturbation,
    genericity_experiment,
    perturb_problem,
    stability_experiment,
)
from .problems import (
    BUILTIN_NAMES,
    DistanceSquared,
    Example31,
    Example31Perturbed,
    Example32,
    GenericQuadratic,
    Phenotypic,
    Problem,
    ProblemFormatError,
    RemarkG,
    RidgePair,
    build_problem,
    builtin_problem,
    check_strong_convexity,
    parse_problem,
    serialize_problem,
    simplex_weight,
)
from .solver import (
    MaxIterExceeded,
    NewtonResult,
    ParetoPoint,
    SingularNewtonSystem,
    SolverConfig,
    SolverError,
    minimize_weighted,
    raise_unconverged,
    scalarize,
    x_star_derivative,
)

__version__ = "0.1.0"
