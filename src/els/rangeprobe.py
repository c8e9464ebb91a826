"""Joint-range membership probes.

For constraint matrices A_1..A_k the map X -> (tr(A_1 X), ..., tr(A_k X))
sends the manifold to a set G1 and its convex hull (the spectral ball) to a
convex set G2.  Membership of a target vector in G2 is a feasibility solve;
when p <= n - k a manifold preimage always exists (G1 = G2) and is recovered
constructively by rank reduction of the lifted feasibility optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lift import lift_constraints, lift_point
from .linalg import DEFAULT_TOL, as_matrix
from .problem import ElsProblem, LinearConstraint, StiefelPoint
from .reduction import InexactnessReport, reduce_to_stiefel
from .solver import SolverConfig, solve_cr


@dataclass
class RangeQuery:
    """Target vector for the joint range of k trace functionals."""

    matrices: list[np.ndarray]  # each p x n
    target: np.ndarray

    def __post_init__(self):
        self.matrices = [as_matrix(A, f"matrix {i}") for i, A in enumerate(self.matrices)]
        self.target = np.asarray(self.target, dtype=float).ravel()
        if len(self.matrices) != self.target.size:
            raise ValueError("one target entry per matrix is required")
        shapes = {A.shape for A in self.matrices}
        if len(shapes) > 1:
            raise ValueError(f"inconsistent matrix shapes {shapes}")

    @property
    def k(self) -> int:
        return len(self.matrices)

    def problem(self) -> ElsProblem:
        """Feasibility instance: zero objective, equality targets."""
        p, n = self.matrices[0].shape
        cons = [
            LinearConstraint(A=A, lower=float(a), upper=float(a))
            for A, a in zip(self.matrices, self.target)
        ]
        return ElsProblem(n=n, p=p, A0=np.zeros((p, n)), constraints=cons)


@dataclass
class G2Membership:
    feasible: bool
    X: np.ndarray | None  # ball witness when feasible
    max_residual: float


def membership_g2(query: RangeQuery, cfg: SolverConfig | None = None) -> G2Membership:
    """Test whether the target is attained over the spectral ball."""
    cfg = cfg or SolverConfig()
    prob = query.problem()
    sol = solve_cr(prob, cfg)
    if sol.status != "optimal":
        return G2Membership(feasible=False, X=None, max_residual=float("inf"))
    values = prob.constraint_values(sol.X)
    resid = float(np.abs(values - query.target).max()) if query.k else 0.0
    return G2Membership(feasible=True, X=sol.X, max_residual=resid)


def recover_g1(
    query: RangeQuery,
    cfg: SolverConfig | None = None,
    rank_tol: float = DEFAULT_TOL,
    member: G2Membership | None = None,
):
    """Recover a manifold preimage of the target, witnessing it in G1.

    Returns a StiefelPoint on success.  Returns an InexactnessReport when
    the target is not attained over the ball at all, or when rank reduction
    fails (only possible outside the p <= n - k regime).  A ``member``
    already computed by ``membership_g2`` for this query is used instead of
    solving again.
    """
    cfg = cfg or SolverConfig()
    if member is None:
        member = membership_g2(query, cfg)
    if not member.feasible:
        return InexactnessReport(reason="target is not attained over the spectral ball")
    prob = query.problem()
    lifted = lift_constraints(prob)
    outcome = reduce_to_stiefel(lift_point(member.X, lifted), lifted, rank_tol)
    if isinstance(outcome, InexactnessReport):
        return outcome
    point, _trace = outcome
    return point


def probe_rows(
    queries: list[RangeQuery],
    cfg: SolverConfig | None = None,
) -> list[dict]:
    """Membership/recovery summary rows for a batch of targets."""
    rows = []
    for q in queries:
        member = membership_g2(q, cfg)
        recovered = False
        residual = float("inf")
        if member.feasible:
            outcome = recover_g1(q, cfg, member=member)
            if isinstance(outcome, StiefelPoint):
                recovered = True
                residual = outcome.max_residual
        rows.append(
            {
                "target": q.target.tolist(),
                "g2_feasible": member.feasible,
                "g1_recovered": recovered,
                "residual": residual,
            }
        )
    return rows
