"""Lifted (semidefinite) view of an instance, for diagnostics and tests,
plus the exactness-condition predicates.

A point X is lifted to the (n+p) x (n+p) block matrix
``Y = [[I_n, X], [X.T, I_p]]``, which is PSD exactly when X.T @ X <= I_p and
has rank n exactly when X has orthonormal columns.  Each constraint matrix A
lifts to ``B = [[0, A.T], [A, 0]] / 2`` so that tr(B @ Y) = tr(A @ X).

Rank reduction (``els.reduction``) works on the factor pair (X, C) and never
forms these matrices; they are here to check its algebra against the lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, as_matrix, numeric_rank
from .problem import ElsProblem


def lift_matrix(A: np.ndarray) -> np.ndarray:
    """Symmetric lift of a single p x n matrix."""
    p, n = A.shape
    B = np.zeros((n + p, n + p))
    B[:n, n:] = 0.5 * A.T
    B[n:, :n] = 0.5 * A
    return B


def lift_constraints(prob: ElsProblem) -> np.ndarray:
    """Lifts B[0], ..., B[k] of the objective and every constraint matrix,
    stacked as a (k+1, n+p, n+p) array."""
    return np.stack([lift_matrix(A) for A in prob.trace_matrices()])


@dataclass
class LiftedSolution:
    """A lifted matrix with rank diagnostics.

    ``rank`` is computed as n + rank(I_p - X.T @ X) on the off-diagonal
    block, which is better conditioned than factoring Y directly.
    """

    Y: np.ndarray
    n: int
    p: int
    rank: int
    objective: float | None = None


def lift_point(
    X,
    lifted: np.ndarray | None = None,
    rank_tol: float = DEFAULT_TOL,
) -> LiftedSolution:
    """Lift an n x p point into its block matrix form; ``lifted`` from
    ``lift_constraints`` adds the objective tr(B[0] @ Y)."""
    X = as_matrix(X, "X")
    n, p = X.shape
    Y = np.empty((n + p, n + p))
    Y[:n, :n] = np.eye(n)
    Y[:n, n:] = X
    Y[n:, :n] = X.T
    Y[n:, n:] = np.eye(p)
    rank = n + numeric_rank(np.eye(p) - X.T @ X, rank_tol)
    objective = None
    if lifted is not None:
        objective = float(np.sum(lifted[0] * Y))
    return LiftedSolution(Y=Y, n=n, p=p, rank=rank, objective=objective)


def lift_factor(X, C) -> np.ndarray:
    """U = [[I_n, 0], [X.T, C]], so that U @ U.T is the lift of X whenever
    C @ C.T = I_p - X.T @ X."""
    X, C = as_matrix(X, "X"), as_matrix(C, "C")
    n, s = X.shape[0], C.shape[1]
    return np.block([[np.eye(n), np.zeros((n, s))], [X.T, C]])


@dataclass(frozen=True)
class ExactnessConditions:
    """The three sufficient-condition thresholds for (n, p, k).

    ``beck``: relaxation exact when p(p+1)/2 <= n - k.
    ``exact``: relaxation exact when p <= n - k (strictly weaker requirement).
    ``no_local_nonglobal``: under LICQ no local non-global minimizers when
    p + 1 <= n - k.
    """

    beck: bool
    exact: bool
    no_local_nonglobal: bool

    def as_dict(self) -> dict:
        return {
            "beck": self.beck,
            "exact": self.exact,
            "no_local_nonglobal": self.no_local_nonglobal,
        }


def exactness_conditions(n: int, p: int, k: int) -> ExactnessConditions:
    return ExactnessConditions(
        beck=p * (p + 1) // 2 <= n - k,
        exact=p <= n - k,
        no_local_nonglobal=p + 1 <= n - k,
    )
