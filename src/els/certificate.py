"""Global-optimality certificates for candidate feasible points.

Two routes are checked at a feasible point X*:

* multiplier route: fit multipliers (lambda, Lambda) to the stationarity
  equation A0.T + sum_i lambda_i A_i.T + X* Lambda = 0 with the
  complementarity sign pattern built in; if the fit is exact and Lambda is
  PSD, X* is a global minimizer.
* local route: when LICQ holds, the fit is exact, the second-order
  necessary condition holds on the critical subspace, and p + 1 <= n - k,
  local optimality already implies global optimality.

When neither route applies the verdict is inconclusive, not a disproof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import DEFAULT_TOL, numeric_rank, nullspace_basis, symmetric_basis
from .problem import ElsProblem, StiefelPoint, residuals

ROUTE_MULTIPLIER = "lemma-5.1"
ROUTE_LOCAL = "theorem-5.1"
ROUTE_NONE = "none"


@dataclass
class ActiveSet:
    """Indices of constraints active at a point, split by side."""

    upper_active: list[int]
    lower_active: list[int]
    equality_active: list[int]
    act_tol: float

    @property
    def indices(self) -> list[int]:
        return sorted(set(self.upper_active) | set(self.lower_active) | set(self.equality_active))


def active_set(prob: ElsProblem, X, act_tol: float = 1e-6) -> ActiveSet:
    """Detect active constraints with tolerance act_tol * (1 + |bound|)."""
    values = prob.constraint_values(X)
    up, lo, eq = [], [], []
    for i, (c, v) in enumerate(zip(prob.constraints, values)):
        if c.is_equality:
            eq.append(i)
            continue
        if math.isfinite(c.upper) and abs(v - c.upper) <= act_tol * (1.0 + abs(c.upper)):
            up.append(i)
        if math.isfinite(c.lower) and abs(v - c.lower) <= act_tol * (1.0 + abs(c.lower)):
            lo.append(i)
    return ActiveSet(upper_active=up, lower_active=lo, equality_active=eq, act_tol=act_tol)


@dataclass
class KktFit:
    """Fitted multipliers and their residuals."""

    lam: np.ndarray            # signed multiplier per constraint, zero if inactive
    Lambda: np.ndarray         # p x p symmetric multiplier of the orthonormality block
    stationarity_residual: float
    complementarity_residual: float
    kkt_ok: bool


def _point_matrix(prob: ElsProblem, Xstar) -> np.ndarray:
    if isinstance(Xstar, StiefelPoint):
        return Xstar.X
    return np.asarray(Xstar, dtype=float)


def fit_multipliers(prob: ElsProblem, Xstar, act: ActiveSet, kkt_tol: float = 1e-6) -> KktFit:
    """Least-squares multiplier fit with complementarity by construction.

    Minimizes the Frobenius norm of the stationarity matrix over symmetric
    Lambda and sign-constrained lambda: nonnegative where only the upper
    bound is active, nonpositive where only the lower bound is active, free
    on equality rows, fixed to zero elsewhere.  Solved as a bounded-variable
    linear least-squares problem (active-set iteration).
    """
    # scipy.optimize takes most of `import els`; only this fit needs it.
    from scipy.optimize import lsq_linear

    X = _point_matrix(prob, Xstar)
    point = residuals(prob, X)
    if not point.feasible(1e-6):
        raise InvalidInput(
            f"multiplier fit needs a feasible point; residual {point.max_residual:.3e}"
        )
    n, p = prob.n, prob.p

    cols, lb, ub, owners = [], [], [], []
    for i in sorted(set(act.upper_active) | set(act.lower_active) | set(act.equality_active)):
        up = i in act.upper_active or i in act.equality_active
        lo = i in act.lower_active or i in act.equality_active
        cols.append(prob.constraints[i].A.T.ravel(order="F"))
        lb.append(-math.inf if lo else 0.0)
        ub.append(math.inf if up else 0.0)
        owners.append(i)
    basis = symmetric_basis(p)
    for S in basis:
        cols.append((X @ S).ravel(order="F"))
        lb.append(-math.inf)
        ub.append(math.inf)

    M = np.array(cols).T
    rhs = -prob.A0.T.ravel(order="F")
    if M.shape[1] <= M.shape[0]:
        res = lsq_linear(M, rhs, bounds=(np.array(lb), np.array(ub)), method="bvls", tol=1e-13)
    else:
        res = lsq_linear(M, rhs, bounds=(np.array(lb), np.array(ub)), method="trf", tol=1e-13)
    z = res.x

    lam = np.zeros(prob.k)
    for j, i in enumerate(owners):
        lam[i] = z[j]
    Lambda = sum(c * S for c, S in zip(z[len(owners):], basis)) if basis else np.zeros((p, p))
    Lambda = 0.5 * (Lambda + Lambda.T)

    stationarity = prob.A0.T + X @ Lambda
    for l, c in zip(lam, prob.constraints):
        stationarity = stationarity + l * c.A.T
    stat = float(np.linalg.norm(stationarity))
    values = prob.constraint_values(X)
    comp = 0.0
    for i, (c, v) in enumerate(zip(prob.constraints, values)):
        lam_plus = max(lam[i], 0.0)
        lam_minus = max(-lam[i], 0.0)
        if math.isfinite(c.upper):
            comp = max(comp, abs(lam_plus * (v - c.upper)))
        if math.isfinite(c.lower):
            comp = max(comp, abs(lam_minus * (v - c.lower)))
    kkt_ok = stat <= kkt_tol * (1.0 + float(np.linalg.norm(prob.A0)))
    return KktFit(
        lam=lam,
        Lambda=Lambda,
        stationarity_residual=stat,
        complementarity_residual=comp,
        kkt_ok=kkt_ok,
    )


def _orthonormality_gradients(X: np.ndarray, halve_diagonal: bool) -> list[np.ndarray]:
    """Gradients of the constraints X_i . X_j = delta_ij, as n x p matrices.

    ``halve_diagonal`` uses X_i instead of 2 X_i on the diagonal rows; the
    scaling never changes ranks or null spaces.
    """
    n, p = X.shape
    grads = []
    for i in range(p):
        for j in range(i, p):
            G = np.zeros((n, p))
            if i == j:
                G[:, i] = X[:, i] if halve_diagonal else 2.0 * X[:, i]
            else:
                G[:, i] = X[:, j]
                G[:, j] = X[:, i]
            grads.append(G)
    return grads


def licq_check(prob: ElsProblem, Xstar, act: ActiveSet) -> tuple[bool, int]:
    """Rank test of the stacked gradients of all orthonormality constraints
    and the active linear constraints; LICQ holds when they are independent.
    """
    X = _point_matrix(prob, Xstar)
    grads = [G.ravel(order="F") for G in _orthonormality_gradients(X, halve_diagonal=True)]
    for i in act.indices:
        grads.append(prob.constraints[i].A.T.ravel(order="F"))
    J = np.array(grads)
    rank = numeric_rank(J, DEFAULT_TOL)
    return rank == J.shape[0], rank


def critical_subspace(prob: ElsProblem, Xstar, act: ActiveSet) -> np.ndarray:
    """Orthonormal basis (columns) of the directions V with tr(A_i V) = 0 for
    every active i and V_i . X_j + V_j . X_i = 0 for all i <= j."""
    X = _point_matrix(prob, Xstar)
    rows = [G.ravel(order="F") for G in _orthonormality_gradients(X, halve_diagonal=False)]
    for i in act.indices:
        rows.append(prob.constraints[i].A.T.ravel(order="F"))
    return nullspace_basis(np.array(rows), DEFAULT_TOL)


def second_order_check(
    prob: ElsProblem,
    Xstar,
    act: ActiveSet,
    fit: KktFit,
    so_tol: float = 1e-7,
) -> bool:
    """Second-order necessary condition on the critical subspace.

    Checks that the quadratic form V -> tr(Lambda V.T V) is PSD on the
    subspace of ``critical_subspace``; vacuously true when it is trivial.
    """
    Z = critical_subspace(prob, Xstar, act)
    if Z.shape[1] == 0:
        return True
    reduced = _critical_form(Z, fit.Lambda)
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T)).min()) >= -so_tol


def _critical_form(Z: np.ndarray, Lambda: np.ndarray) -> np.ndarray:
    """Z.T (Lambda (x) I_n) Z for a basis Z of column-stacked n x p matrices.

    Column j of Z is vec(V_j), which reshapes row-major to V_j.T, and
    (Lambda (x) I_n) vec(V_j) = vec(V_j Lambda.T) reshapes to Lambda V_j.T.
    """
    p = Lambda.shape[0]
    d = Z.shape[1]
    Zt = Z.T
    return Zt @ (Lambda @ Zt.reshape(d, p, -1)).reshape(d, -1).T


@dataclass
class CertificateVerdict:
    """Outcome of the certificate checks at a candidate point."""

    kkt_ok: bool
    lambda_psd: bool
    licq: bool
    second_order_ok: bool
    is_global: bool
    route: str  # lemma-5.1 | theorem-5.1 | none
    jacobian_rank: int = 0
    fit: KktFit | None = None
    active: ActiveSet | None = None

    def as_dict(self) -> dict:
        d = {
            "kkt_ok": self.kkt_ok,
            "lambda_psd": self.lambda_psd,
            "licq": self.licq,
            "second_order_ok": self.second_order_ok,
            "global": self.is_global,
            "route": self.route,
            "jacobian_rank": self.jacobian_rank,
        }
        if self.fit is not None:
            d["lambda"] = self.fit.lam.tolist()
            d["Lambda"] = self.fit.Lambda.tolist()
            d["stationarity_residual"] = self.fit.stationarity_residual
            d["complementarity_residual"] = self.fit.complementarity_residual
        return d


def certify_global(
    prob: ElsProblem,
    Xstar,
    act_tol: float = 1e-6,
    kkt_tol: float = 1e-6,
    psd_tol: float = 1e-7,
    so_tol: float = 1e-7,
) -> CertificateVerdict:
    """Run both certificate routes at a feasible candidate point.

    A negative verdict is inconclusive unless the local route's hypotheses
    all hold, in which case failure of second-order necessity rules out
    local minimality as well.
    """
    X = _point_matrix(prob, Xstar)
    act = active_set(prob, X, act_tol)
    fit = fit_multipliers(prob, X, act, kkt_tol)
    lambda_psd = bool(
        np.linalg.eigvalsh(fit.Lambda).min() >= -psd_tol * (1.0 + np.linalg.norm(fit.Lambda))
    )
    licq, jac_rank = licq_check(prob, X, act)
    second_ok = second_order_check(prob, X, act, fit, so_tol) if fit.kkt_ok else False

    dimension_ok = prob.p + 1 <= prob.n - prob.k
    if fit.kkt_ok and lambda_psd:
        route, is_global = ROUTE_MULTIPLIER, True
    elif licq and fit.kkt_ok and second_ok and dimension_ok:
        route, is_global = ROUTE_LOCAL, True
    else:
        route, is_global = ROUTE_NONE, False
    return CertificateVerdict(
        kkt_ok=fit.kkt_ok,
        lambda_psd=lambda_psd,
        licq=licq,
        second_order_ok=second_ok,
        is_global=is_global,
        route=route,
        jacobian_rank=jac_rank,
        fit=fit,
        active=act,
    )
