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

The multiplier fit is plain numpy.  For fixed lambda the best symmetric
Lambda has a closed form from one p x p eigendecomposition of X*.T X*, so
Lambda is eliminated first; what is left is a sign-constrained
least-squares problem in the active lambda only, solved by a Lawson-Hanson
active-set iteration (``linalg.signed_lstsq``).

Both local-route tests work in the tangent space (Edelman, Arias & Smith
1998): LICQ ranks the active rows' tangent projections, and the
second-order test (``second_order_check``) is closed-form unless
n - p <= |act|.  With the fixed tolerances below the local route can only
confirm lemma 5.1 (see ``certify_global``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import DEFAULT_TOL, numeric_rank, nullspace_basis, signed_lstsq, symmetric_basis
from .problem import ElsProblem, StiefelPoint, residuals

ROUTE_MULTIPLIER = "lemma-5.1"
ROUTE_LOCAL = "theorem-5.1"
ROUTE_NONE = "none"

ACT_TOL = 1e-6  # a bound is active within ACT_TOL * (1 + |bound|)
KKT_TOL = 1e-6  # stationarity residual allowed, relative to 1 + ||A0||
PSD_TOL = 1e-7  # Lambda is PSD when lambda_min >= -PSD_TOL * (1 + ||Lambda||)
SO_TOL = 1e-7   # second order holds when the critical form's minimum >= -SO_TOL


@dataclass
class ActiveSet:
    """Indices of constraints active at a point, split by side."""

    upper_active: list[int]
    lower_active: list[int]
    equality_active: list[int]

    @property
    def indices(self) -> list[int]:
        return sorted(set(self.upper_active) | set(self.lower_active) | set(self.equality_active))


def active_set(prob: ElsProblem, X) -> ActiveSet:
    """Detect active constraints with tolerance ACT_TOL * (1 + |bound|)."""
    values = prob.constraint_values(X)
    up, lo, eq = [], [], []
    for i, (c, v) in enumerate(zip(prob.constraints, values)):
        if c.is_equality:
            eq.append(i)
            continue
        if math.isfinite(c.upper) and abs(v - c.upper) <= ACT_TOL * (1.0 + abs(c.upper)):
            up.append(i)
        if math.isfinite(c.lower) and abs(v - c.lower) <= ACT_TOL * (1.0 + abs(c.lower)):
            lo.append(i)
    return ActiveSet(upper_active=up, lower_active=lo, equality_active=eq)


@dataclass
class KktFit:
    """Fitted multipliers and their residuals."""

    lam: np.ndarray            # signed multiplier per constraint, zero if inactive
    Lambda: np.ndarray         # p x p symmetric multiplier of the orthonormality block
    stationarity_residual: float
    complementarity_residual: float
    kkt_ok: bool


def _point_matrix(Xstar) -> np.ndarray:
    if isinstance(Xstar, StiefelPoint):
        return Xstar.X
    return np.asarray(Xstar, dtype=float)


def _eliminate_lambda(X: np.ndarray, A: np.ndarray):
    """Minimize ||A_j.T + X Lambda_j||_F over symmetric Lambda_j in closed
    form, for a stack of p x n matrices A.

    The minimizer solves sym(X.T X Lambda) = -sym(X.T A.T).  With
    X.T X = W diag(g) W.T, Y = X W and K = W.T A Y, it is Lambda = W L W.T
    with L_ij = -(K + K.T)_ij / (g_i + g_j): exact for any full-rank X, and
    -sym(A X) when X.T X = I.  Returns W, the stack of L and the stack of
    rotated residuals W.T (A + Lambda X.T), whose norms are those of
    A.T + X Lambda.
    """
    g, W = np.linalg.eigh(X.T @ X)
    Y = X @ W
    P = W.T @ A
    K = P @ Y
    L = -(K + np.swapaxes(K, 1, 2)) / (g[:, None] + g[None, :])
    return W, L, P + L @ Y.T


def fit_multipliers(prob: ElsProblem, Xstar, act: ActiveSet) -> KktFit:
    """Least-squares multiplier fit with complementarity by construction.

    Minimizes the Frobenius norm of the stationarity matrix
    A0.T + sum_i lambda_i A_i.T + X Lambda over symmetric Lambda and
    sign-constrained lambda: nonnegative where only the upper bound is
    active, nonpositive where only the lower bound is active, free on
    equality rows and where both sides are active, zero elsewhere.

    Lambda is eliminated in closed form (``_eliminate_lambda``): for fixed
    lambda the best Lambda is linear in A0 + sum_i lambda_i A_i, so mapping
    A0 and each active A_i to its residual leaves a small sign-constrained
    least-squares problem in the active lambda only.  It is solved by the
    Lawson-Hanson active-set iteration of ``signed_lstsq``; Lambda is then
    the closed form at A0 + sum_i lambda_i A_i.
    """
    X = _point_matrix(Xstar)
    point = residuals(prob, X)
    if not point.feasible(1e-6):
        raise InvalidInput(
            f"multiplier fit needs a feasible point; residual {point.max_residual:.3e}"
        )
    lower, upper = prob.bounds()
    owners = act.indices
    upper_side = set(act.upper_active) | set(act.equality_active)
    lower_side = set(act.lower_active) | set(act.equality_active)
    up = np.array([i in upper_side for i in owners], dtype=bool)
    lo = np.array([i in lower_side for i in owners], dtype=bool)
    flip = np.where(lo & ~up, -1.0, 1.0)  # lower-only rows: lambda <= 0

    A = np.stack([prob.A0] + [prob.constraints[i].A for i in owners])
    W, L, R = _eliminate_lambda(X, A)
    B = R[1:].reshape(len(owners), R[0].size).T * flip
    lam_act = flip * signed_lstsq(B, -R[0].ravel(), up != lo)
    lam = np.zeros(prob.k)
    lam[owners] = lam_act

    # inactive rows have lambda = 0 and add nothing to either residual
    coef = np.concatenate(([1.0], lam_act))
    Lambda = W @ (coef @ L.reshape(coef.size, -1)).reshape(L.shape[1:]) @ W.T
    Lambda = 0.5 * (Lambda + Lambda.T)
    stationarity = (coef @ A.reshape(coef.size, -1)).reshape(A.shape[1:]) + Lambda @ X.T
    stat = float(np.linalg.norm(stationarity))
    values = np.trace(A[1:] @ X, axis1=1, axis2=2)  # of the active rows
    gap = values - np.where(lam_act > 0.0, upper[owners], lower[owners])
    comp = float(np.abs(lam_act * np.where(lam_act != 0.0, gap, 0.0)).max(initial=0.0))
    kkt_ok = stat <= KKT_TOL * (1.0 + float(np.linalg.norm(prob.A0)))
    return KktFit(
        lam=lam,
        Lambda=Lambda,
        stationarity_residual=stat,
        complementarity_residual=comp,
        kkt_ok=kkt_ok,
    )


def licq_check(prob: ElsProblem, Xstar, act: ActiveSet) -> tuple[bool, int]:
    """Rank test of the gradients of all orthonormality constraints and the
    active linear constraints; LICQ holds when they are independent.

    The orthonormality gradients span the normal space {X S : S symmetric},
    of dimension p(p+1)/2, so the rank is that plus the rank of the active
    rows' tangent projections, the residuals of ``_eliminate_lambda``.
    """
    X = _point_matrix(Xstar)
    owners = act.indices
    R = _eliminate_lambda(X, prob.constraint_matrices()[owners])[2]
    normal = prob.p * (prob.p + 1) // 2
    rank = normal + numeric_rank(R.reshape(len(owners), X.size), DEFAULT_TOL)
    return rank == normal + len(owners), rank


def second_order_check(prob: ElsProblem, Xstar, act: ActiveSet, fit: KktFit) -> bool:
    """Second-order necessary condition on the critical subspace.

    Checks that the quadratic form V -> tr(Lambda V.T V) is PSD, to SO_TOL,
    on the tangent directions V with tr(A_i V) = 0 for every active i.  With
    omega = lambda_min(Lambda) and eigenvector w:

    * omega >= -SO_TOL passes, since tr(Lambda V.T V) >= omega ||V||^2;
    * otherwise n - p > |act| fails: some u != 0 in R^(n-p) is orthogonal
      to every X_perp.T A_i.T w, and V = X_perp u w.T is critical with form
      value omega ||V||^2;
    * otherwise the form is reduced to an n p sized null-space basis of the
      critical subspace; vacuously true when that is trivial.
    """
    if np.linalg.eigvalsh(fit.Lambda).min() >= -SO_TOL:
        return True
    if prob.n - prob.p > len(act.indices):
        return False
    X = _point_matrix(Xstar)
    rows = [(X @ S).ravel(order="F") for S in symmetric_basis(prob.p)]
    rows += [prob.constraints[i].A.T.ravel(order="F") for i in act.indices]
    Z = nullspace_basis(np.array(rows), DEFAULT_TOL)
    if Z.shape[1] == 0:
        return True
    reduced = _critical_form(Z, fit.Lambda)
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T)).min()) >= -SO_TOL


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


def certify_global(prob: ElsProblem, Xstar) -> CertificateVerdict:
    """Run both certificate routes at a feasible candidate point.

    A negative verdict is inconclusive unless the local route's hypotheses
    all hold, in which case failure of second-order necessity rules out
    local minimality as well.
    """
    X = _point_matrix(Xstar)
    act = active_set(prob, X)
    fit = fit_multipliers(prob, X, act)
    lambda_psd = bool(
        np.linalg.eigvalsh(fit.Lambda).min() >= -PSD_TOL * (1.0 + np.linalg.norm(fit.Lambda))
    )
    licq, jac_rank = licq_check(prob, X, act)
    second_ok = second_order_check(prob, X, act, fit) if fit.kkt_ok else False

    dimension_ok = prob.p + 1 <= prob.n - prob.k
    if fit.kkt_ok and lambda_psd:
        route, is_global = ROUTE_MULTIPLIER, True
    # Only confirms lemma 5.1: p + 1 <= n - k gives n - p > |act|, where
    # second order holds only if lambda_min(Lambda) >= -SO_TOL, and
    # PSD_TOL (1 + ||Lambda||) >= SO_TOL makes Lambda PSD there as well.
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
