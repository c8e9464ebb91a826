"""Rank reduction of optimal relaxation points, in factor space.

A point X of the spectral ball lifts to Y = U @ U.T with
U = [[I_n, 0], [X.T, C]], where C (p x s) factors C @ C.T = I_p - X.T @ X
and n + s = rank(Y).  A direction U @ D @ U.T keeps the leading identity
block of Y only when the leading n x n block of D vanishes, so
D = [[0, E], [E.T, F]] with E (n x s) and F (s x s, symmetric).  Such a
direction moves X to X + eps * E @ C.T, and it keeps

* the trailing identity block when X.T @ E @ C.T + C @ E.T @ X
  + C @ F @ C.T = 0, and
* every constraint trace when <A_i.T @ C, E> = 0.

F is eliminated.  Write C = Q_c @ R_c and let Q_perp complete Q_c to an
orthonormal basis of R^p.  B = X @ Q_perp has orthonormal columns (as
C.T @ Q_perp = 0), and the trailing-block equation splits into its
Q_perp x Q_perp block, which vanishes for every E; its Q_perp x Q_c block,
B.T @ E = 0; and its Q_c x Q_c block, which fixes F = -(H + H.T) with
H = R_c^-1 @ Q_c.T @ X.T @ E.  So the directions are E = N @ Z, with N
(n x (n-p+s)) an orthonormal basis of range(B)'s complement, and Z solving
the k short rows <N.T @ A_i.T @ C, Z> = 0.  Their null space has dimension
(n-p+s) s - rank, which is at least s^2 when p <= n - k: a nonzero
direction then always exists.  Outside that regime the rows can leave none,
which is reported as possible inexactness of the relaxation.

The step length eps = -1/lambda, with lambda the eigenvalue of D of largest
magnitude, makes I + eps*D singular PSD, so each step drops the rank by at
least one while preserving feasibility exactly and the objective up to the
solver's optimality gap.  After at most s steps X has orthonormal columns.
This is the purification argument of Barvinok (1995) and Pataki (1998).
Only (X, C) and the p x n data matrices are touched: no (n+p) x (n+p)
lifted matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .linalg import DEFAULT_TOL, as_matrix, sym_eig
from .problem import ElsProblem, residuals


@dataclass
class ReductionState:
    """A ball point X with its factor C, C @ C.T = I_p - X.T @ X.

    C is p x s with full column rank; the rank excess s equals
    rank(Y) - n for the lift Y of X.
    """

    X: np.ndarray
    C: np.ndarray
    s: int


@dataclass
class Direction:
    """D = [[0, E], [E.T, F]] of unit Frobenius norm, with its singularizing
    step ``epsilon`` and the dimension ``null_dim`` of the trace-preserving
    direction space it was taken from."""

    E: np.ndarray
    F: np.ndarray
    epsilon: float
    null_dim: int


@dataclass
class ReductionStep:
    """One trace entry: the state after an iteration.

    ``null_dim`` is the dimension of the trace-preserving direction space
    at this state; it is 0 at rank n and when no direction exists.
    """

    rank: int
    objective: float
    max_drift: float  # largest constraint-trace drift from the initial point
    null_dim: int = 0

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "objective": self.objective,
            "max_drift": self.max_drift,
            "null_dim": self.null_dim,
        }


@dataclass
class InexactnessReport:
    """Rank reduction could not reach rank n.

    Only possible outside the p <= n - k guarantee; signals that the
    relaxation may be inexact for this instance.
    """

    reason: str
    trace: list[ReductionStep] = field(default_factory=list)
    state: ReductionState | None = None


def factor_state(X, rank_tol: float = DEFAULT_TOL) -> ReductionState:
    """Factor I_p - X.T @ X of a point of the spectral ball.

    C keeps the eigenpairs above ``rank_tol`` (relative to max(1, largest
    eigenvalue)), columns scaled by sqrt(eigenvalue).  Raises InvalidInput
    when the lift of X is not PSD, i.e. X lies outside the ball.
    """
    X = as_matrix(X, "X")
    n, p = X.shape
    eig = sym_eig(np.eye(p) - X.T @ X)
    # The lift [[I, X], [X.T, I]] has smallest eigenvalue 1 - sigma_max(X).
    min_eig = 1.0 - math.sqrt(max(1.0 - float(eig.eigenvalues[0]), 0.0))
    lift_norm = math.sqrt(n + p + 2.0 * float(np.sum(X * X)))
    if min_eig < -1e-8 * (1.0 + lift_norm):
        raise InvalidInput(f"lifted matrix is not PSD within tolerance (min eig {min_eig:.3e})")
    thresh = rank_tol * max(1.0, float(eig.eigenvalues[-1]))
    keep = eig.eigenvalues > thresh
    C = eig.eigenvectors[:, keep] * np.sqrt(eig.eigenvalues[keep])
    return ReductionState(X=X, C=C, s=int(keep.sum()))


def find_direction(
    state: ReductionState,
    mats: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> Direction | None:
    """A unit direction D = [[0, E], [E.T, F]] that keeps the trailing
    identity block and every constraint trace, from the eliminated system
    E = N Z, <N.T A_i.T C, Z> = 0 of the module docstring.

    ``mats`` stacks A0 and the constraint matrices as (k+1, p, n), as
    returned by ``ElsProblem.trace_matrices``.  Returns None only when the
    rows leave no Z, which cannot happen when p <= n - k.  A Z that also
    annihilates the objective row is preferred when the null space has
    dimension >= 2 (it keeps the objective drift at rounding level).
    """
    if state.s < 1:
        raise InvalidInput("find_direction requires rank excess s >= 1")
    X, C, s = state.X, state.C, state.s
    n, p = X.shape
    Q, R = np.linalg.qr(C, mode="complete")
    Qc, Rc = Q[:, :s], R[:s]
    # X Q_perp has orthonormal columns, since C C.T = I - X.T X.
    N = np.linalg.qr(X @ Q[:, s:], mode="complete").Q[:, p - s :]
    rows = (N.T @ (mats.transpose(0, 2, 1) @ C)).reshape(len(mats), -1)

    _, sigma, Vt = np.linalg.svd(rows[1:], full_matrices=False)
    rank = int(np.sum(sigma > tol * max(1.0, sigma[0]))) if sigma.size else 0
    null_dim = rows.shape[1] - rank
    if null_dim == 0:
        return None
    basis = Vt[:rank]
    if null_dim >= 2:
        obj = rows[0] - basis.T @ (basis @ rows[0])
        norm = float(np.linalg.norm(obj))
        if norm > tol * max(1.0, norm):
            basis = np.vstack([basis, obj / norm])
    # The coordinate vector farthest from span(basis), projected onto its
    # complement: a null vector for any basis, chosen without a full SVD.
    j = int(np.argmin(np.einsum("rm,rm->m", basis, basis)))
    z = -basis.T @ basis[:, j]
    z[j] += 1.0

    Z = z.reshape(n - p + s, s)
    E = N @ Z
    H = np.linalg.solve(Rc, Qc.T @ (X.T @ E))
    F = -(H + H.T)
    scale = math.sqrt(2.0 * float(np.sum(E * E)) + float(np.sum(F * F)))
    E, F = E / scale, F / scale
    # With Z = Q R, D = V [[0, R], [R.T, F]] V.T for V = diag(N Q, I_s) with
    # orthonormal columns, so D's nonzero eigenvalues are those of this 2s x 2s
    # matrix (Z has n - p + s >= s rows).
    M = np.zeros((2 * s, 2 * s))
    M[:s, s:] = np.linalg.qr(Z / scale, mode="r")
    M[s:, s:] = F
    eigvals = np.linalg.eigvalsh(M, UPLO="U")  # reads the upper triangle only
    lam = eigvals[np.argmax(np.abs(eigvals))]
    return Direction(E=E, F=F, epsilon=-1.0 / lam, null_dim=null_dim)


def reduce_to_stiefel(prob: ElsProblem, X, rank_tol: float = DEFAULT_TOL):
    """Purify an optimal relaxation point X of ``prob`` down to rank n.

    Returns (StiefelPoint, trace) on success, or an InexactnessReport when
    no direction exists, the rank excess stalls, or the iteration fails to
    terminate within p steps (all only possible when p > n - k).  Raises
    InvalidInput when X lies outside the spectral ball.
    """
    mats = prob.trace_matrices()
    state = factor_state(X, rank_tol)
    targets = np.einsum("mpn,np->m", mats, state.X)  # frozen at the input, 0 = objective
    trace = [ReductionStep(rank=prob.n + state.s, objective=float(targets[0]), max_drift=0.0)]

    for _ in range(prob.p):
        if state.s == 0:
            break
        direction = find_direction(state, mats)
        if direction is None:
            return InexactnessReport(
                reason="no trace-preserving direction exists at rank excess "
                f"s={state.s}; the relaxation may be inexact",
                trace=trace,
                state=state,
            )
        trace[-1].null_dim = direction.null_dim
        X_next = state.X + direction.epsilon * (direction.E @ state.C.T)

        values = np.einsum("mpn,np->m", mats, X_next)
        drift = float(np.abs(values[1:] - targets[1:]).max()) if prob.k else 0.0
        new_state = factor_state(X_next, rank_tol)
        if new_state.s >= state.s:
            return InexactnessReport(
                reason=f"rank excess stalled at s={state.s}",
                trace=trace,
                state=state,
            )
        state = new_state
        trace.append(
            ReductionStep(rank=prob.n + state.s, objective=float(values[0]), max_drift=drift)
        )

    if state.s != 0:
        return InexactnessReport(
            reason=f"rank excess s={state.s} remains after {prob.p} steps",
            trace=trace,
            state=state,
        )
    point = residuals(prob, state.X)
    return point, trace
