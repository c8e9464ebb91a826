"""Pointwise-maximum objectives by decomposition.

min over the feasible set of max_i (tr(A_i X) + c_i) equals the minimum over
i of the instances "minimize tr(A_i X) subject to piece i dominating every
other piece", each of which is a plain instance with k + m - 1 linear
constraints.  When p <= n - (k + m - 1) every branch is solved exactly
through the rank-reduction pipeline and the winner comes with a feasible
manifold point.

A single epigraph relaxation (extra scalar t bounding every piece over the
ball) is provided as an independent cross-check of the decomposition value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .lift import exactness_conditions
from .linalg import DEFAULT_TOL
from .problem import ElsProblem, LinearConstraint, MinimaxProblem, StiefelPoint
from .reduction import InexactnessReport, reduce_to_stiefel
from .solver import STATUS_INFEASIBLE, STATUS_OPTIMAL, SolverConfig, solve_cr, solve_epigraph


def piece_subproblem(mm: MinimaxProblem, q: int) -> ElsProblem:
    """Branch q: minimize piece q where it dominates all other pieces."""
    base = mm.base
    piece = mm.pieces[q]
    cons = list(base.constraints)
    for j, other in enumerate(mm.pieces):
        if j == q:
            continue
        # tr((A_j - A_q) X) <= c_q - c_j
        cons.append(LinearConstraint(A=other.A - piece.A, upper=piece.c - other.c))
    return ElsProblem(n=base.n, p=base.p, A0=piece.A, constraints=cons)


@dataclass
class MinimaxSolution:
    value: float
    piece: int                     # winning piece index, lowest on ties
    point: StiefelPoint | None     # manifold witness when recovery succeeded
    exact: bool                    # True when the winner went through rank reduction
    branch_values: list[float]     # relaxation value + offset per piece (inf if infeasible)


def solve_minimax(
    mm: MinimaxProblem,
    cfg: SolverConfig | None = None,
    rank_tol: float = DEFAULT_TOL,
) -> MinimaxSolution:
    """Solve by branch decomposition; raises Infeasible when no branch is."""
    cfg = cfg or SolverConfig()
    cond = exactness_conditions(mm.base.n, mm.base.p, mm.base.k + mm.m - 1)

    branch_values: list[float] = []
    branch_points: list[StiefelPoint | None] = []
    for q in range(mm.m):
        sub = piece_subproblem(mm, q)
        sol = solve_cr(sub, cfg)
        if sol.status != STATUS_OPTIMAL:
            branch_values.append(math.inf)
            branch_points.append(None)
            continue
        point = None
        if cond.exact:
            outcome = reduce_to_stiefel(sub, sol.X, rank_tol)
            if not isinstance(outcome, InexactnessReport):
                point = outcome[0]
        branch_values.append(sol.value + mm.pieces[q].c)
        branch_points.append(point)

    best = int(np.argmin(branch_values))  # argmin takes the lowest index on ties
    if math.isinf(branch_values[best]):
        raise Infeasible("every branch of the decomposition is infeasible")
    return MinimaxSolution(
        value=float(branch_values[best]),
        piece=best,
        point=branch_points[best],
        exact=branch_points[best] is not None,
        branch_values=branch_values,
    )


def solve_minimax_epigraph(mm: MinimaxProblem, cfg: SolverConfig | None = None) -> float:
    """Value of the single epigraph relaxation (cross-check route).

    Minimizes t subject to tr(A_i X) + c_i <= t for every piece, the base
    constraints, and the spectral ball; see ``solver.solve_epigraph``.
    """
    sol = solve_epigraph(mm, cfg)
    if sol.status == STATUS_INFEASIBLE:
        raise Infeasible("base constraints are infeasible")
    if sol.status != STATUS_OPTIMAL:
        raise Infeasible("epigraph relaxation did not converge")
    return sol.value
