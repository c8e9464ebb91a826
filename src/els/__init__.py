"""Toolkit for linear objectives over the Stiefel manifold with linear
trace constraints: convex relaxation, exact recovery by rank reduction,
global-optimality certificates, range probes and search oracles."""

from .certificate import (
    ActiveSet,
    CertificateVerdict,
    KktFit,
    active_set,
    certify_global,
    fit_multipliers,
    licq_check,
    second_order_check,
)
from .errors import (
    ElsError,
    Infeasible,
    InvalidInput,
    NoFeasiblePoint,
    ParseError,
    UnknownFixture,
    ValidationError,
)
from .fixtures import build_fixture
from .lift import ExactnessConditions, exactness_conditions, lift_constraints, lift_point
from .linalg import (
    SymEig,
    numeric_rank,
    nullspace_basis,
    random_stiefel,
    sym_eig,
    thin_svd,
)
from .minimax import MinimaxSolution, piece_subproblem, solve_minimax, solve_minimax_epigraph
from .oracle import assignment_oracle, minimax_oracle, oracle_solve
from .pipeline import solve_report
from .problem import (
    ElsProblem,
    LinearConstraint,
    MinimaxPiece,
    MinimaxProblem,
    StiefelPoint,
    parse_minimax_problem,
    parse_point,
    parse_problem,
    residuals,
    serialize_minimax_problem,
    serialize_problem,
)
from .rangeprobe import G2Membership, RangeQuery, membership_g2, recover_g1
from .reduction import Direction, InexactnessReport, ReductionStep, find_direction, reduce_to_stiefel
from .solver import CrSolution, SolverConfig, solve_cr, solve_ls_svd

__version__ = "0.1.0"
