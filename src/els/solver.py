"""Solver for the convex relaxation, plus the closed-form k=0 case.

The relaxation replaces the orthonormality constraint X.T @ X = I_p by the
spectral-ball constraint X.T @ X <= I_p (the convex hull of the manifold) and
keeps the k linear trace constraints.  It is solved in the X variable with a
damped-Newton barrier path: -log det(I_p - X.T @ X) plus one -log term per
finite one-sided bound, equality rows (lower == upper) kept as linear
equalities in the Newton KKT system.

Phase-I minimizes a single elastic slack tau that relaxes every finite bound
by +/- tau, starting from X = 0 which is always strictly inside the ball; the
instance is declared infeasible when the optimal tau exceeds ``feas_tol``.
A bound outside the range [-||A_i||_*, ||A_i||_*] of tr(A_i X) over the ball
is declared infeasible before phase I, and a bound at an end of that range
is decided at the single point of the ball where it holds.

The path follows the analytic center, so the returned optimum has maximal
rank within the optimal face; rank purification is delegated to the
rank-reduction module.

The unconstrained case k = 0 is solved exactly by the SVD: the optimal value
is minus the sum of the singular values of the objective matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, as_matrix, thin_svd
from .problem import ElsProblem, StiefelPoint, bound_violations

_STATUS_OPTIMAL = "optimal"
_STATUS_INFEASIBLE = "infeasible"
_STATUS_FAILURE = "numerical-failure"

_MAX_OUTER = 140
_MAX_INNER = 60

# A bound this close to the reach ||A_i||_*, relative to 1 + ||A_i||_*, is
# taken to sit at it.
_REACH_ROUNDING = 16 * np.finfo(float).eps


@dataclass
class SolverConfig:
    """Tolerances and path parameters for the barrier solver."""

    tol: float = 1e-8          # duality-gap tolerance, relative to 1 + |value|
    max_newton: int = 200      # Newton-step budget per phase
    barrier_mu: float = 5.0    # path parameter multiplier per outer step
    feas_tol: float = 1e-9     # phase-I infeasibility threshold
    seed: int = 0              # echoed into reports; the solver is deterministic

    def __post_init__(self):
        if self.tol <= 0.0 or self.feas_tol <= 0.0:
            raise ValueError("tol and feas_tol must be positive")
        if self.barrier_mu <= 1.0:
            raise ValueError("barrier_mu must exceed 1")


@dataclass
class CrSolution:
    """Result of a relaxation solve."""

    X: np.ndarray
    value: float
    status: str  # optimal | infeasible | numerical-failure
    gap_estimate: float


@dataclass
class _Row:
    """Linear row <A, X> + g.w with two-sided bounds."""

    A: np.ndarray | None
    g: np.ndarray | None
    lower: float
    upper: float


@dataclass
class _CoreResult:
    z: np.ndarray
    value: float
    gap: float
    status: str
    newton_used: int


class _BallProgram:
    """min c.z subject to row bounds and the spectral-ball constraint.

    Variables are z = (vec(X), w) with X of shape (n, p) column-stacked and
    w a (possibly empty) vector of auxiliary scalars.
    """

    def __init__(self, n: int, p: int, q: int, c: np.ndarray, rows: list[_Row]):
        self.n, self.p, self.q = n, p, q
        self.dim = n * p + q
        self.c = c
        self._eye_p = np.eye(p)
        self._eye_n = np.eye(n)

        eq_rows, up_rows, lo_rows, up_b, lo_b, eq_b = [], [], [], [], [], []
        for row in rows:
            r = np.zeros(self.dim)
            if row.A is not None:
                r[: n * p] = row.A.ravel()  # vec(A.T) in column-stacking
            if row.g is not None:
                r[n * p :] = row.g
            if math.isfinite(row.lower) and row.lower == row.upper:
                eq_rows.append(r)
                eq_b.append(row.lower)
                continue
            if math.isfinite(row.upper):
                up_rows.append(r)
                up_b.append(row.upper)
            if math.isfinite(row.lower):
                lo_rows.append(r)
                lo_b.append(row.lower)
        self.R_eq = np.array(eq_rows).reshape(len(eq_rows), self.dim)
        self.b_eq = np.array(eq_b)
        self.RU = np.array(up_rows).reshape(len(up_rows), self.dim)
        self.bu = np.array(up_b)
        self.RL = np.array(lo_rows).reshape(len(lo_rows), self.dim)
        self.bl = np.array(lo_b)
        self.m_eq = len(eq_rows)
        # Barrier parameter: p for the ball plus one per one-sided bound.
        self.nu_barrier = float(p + len(up_rows) + len(lo_rows))
        self._c_scale = 1.0 + float(np.abs(c).max()) if c.size else 1.0

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = z[: self.n * self.p].reshape(self.n, self.p, order="F")
        return X, z[self.n * self.p :]

    def strictly_feasible(self, z: np.ndarray) -> bool:
        X, _ = self.unpack(z)
        S = self._eye_p - X.T @ X
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return False
        if self.RU.shape[0] and np.any(self.bu - self.RU @ z <= 0.0):
            return False
        if self.RL.shape[0] and np.any(self.RL @ z - self.bl <= 0.0):
            return False
        return True

    def _grad_parts(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient at z, with X and the symmetrized inverse Si of I - X.T @ X."""
        n, p = self.n, self.p
        X, _ = self.unpack(z)
        S = self._eye_p - X.T @ X
        Si = np.linalg.inv(S)
        Si = 0.5 * (Si + Si.T)

        g = np.zeros(self.dim)
        g[: n * p] = (2.0 * X @ Si).ravel(order="F")
        if self.RU.shape[0]:
            g += self.RU.T @ (1.0 / (self.bu - self.RU @ z))
        if self.RL.shape[0]:
            g -= self.RL.T @ (1.0 / (self.RL @ z - self.bl))
        return g, X, Si

    def grad(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the full barrier at a strictly feasible z."""
        return self._grad_parts(z)[0]

    def grad_hess(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the full barrier at a strictly feasible z.

        The ball's Hessian is 2 (Si (x) I + Si (x) X Si X.T + (Si X.T (x) X Si) K)
        with K the commutation matrix.  The last term only permutes columns,
        so its entries are written out as single products instead.
        """
        n, p = self.n, self.p
        g, X, Si = self._grad_parts(z)
        XSi = X @ Si
        Hx = 2.0 * np.kron(Si, self._eye_n)
        Hx += 2.0 * np.kron(Si, XSi @ X.T)
        Hx += 2.0 * np.einsum("aj,bi->baji", XSi, Si @ X.T).reshape(n * p, n * p)
        H = np.zeros((self.dim, self.dim))
        H[: n * p, : n * p] = Hx
        if self.RU.shape[0]:
            su = self.bu - self.RU @ z
            H += (self.RU / su[:, None] ** 2).T @ self.RU
        if self.RL.shape[0]:
            sl = self.RL @ z - self.bl
            H += (self.RL / sl[:, None] ** 2).T @ self.RL
        return g, 0.5 * (H + H.T)

    # -- Newton path ------------------------------------------------------

    def _kkt_solve(self, H, rd, rp):
        """Solve the (regularized if needed) Newton KKT system."""
        m = self.m_eq
        for reg in (0.0, 1e-12, 1e-9, 1e-6):
            Hr = H if reg == 0.0 else H + reg * (1.0 + np.trace(H) / H.shape[0]) * np.eye(H.shape[0])
            try:
                if m == 0:
                    dz = np.linalg.solve(Hr, -rd)
                    dnu = np.zeros(0)
                else:
                    KKT = np.block([[Hr, self.R_eq.T], [self.R_eq, np.zeros((m, m))]])
                    sol = np.linalg.solve(KKT, np.concatenate([-rd, -rp]))
                    dz, dnu = sol[: self.dim], sol[self.dim :]
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(dz)) and np.all(np.isfinite(dnu)):
                return dz, dnu
        return None, None

    def _residual(self, z, nu, t):
        g = self.grad(z)
        rd = t * self.c + g + (self.R_eq.T @ nu if self.m_eq else 0.0)
        rp = self.R_eq @ z - self.b_eq if self.m_eq else np.zeros(0)
        return math.sqrt(float(rd @ rd) + float(rp @ rp))

    def _center(self, z, nu, t, budget):
        """Damped Newton to the analytic center at path parameter t.

        Returns (z, nu, used, ok).  Infeasible-start formulation: the
        equality residual enters the Newton system and shrinks geometrically
        with the step length.  The line search tolerates rounding-level
        non-decrease so high path parameters do not stall prematurely.
        """
        b_scale = 1.0 + (np.abs(self.b_eq).max() if self.m_eq else 0.0)
        noise = 1e-14 * t * self._c_scale * math.sqrt(self.dim)
        used = 0
        dec = math.inf
        while used < min(budget, _MAX_INNER):
            g, H = self.grad_hess(z)
            rd = t * self.c + g + (self.R_eq.T @ nu if self.m_eq else 0.0)
            rp = self.R_eq @ z - self.b_eq if self.m_eq else np.zeros(0)
            rnorm = math.sqrt(float(rd @ rd) + float(rp @ rp))
            dz, dnu = self._kkt_solve(H, rd, rp)
            if dz is None:
                return z, nu, used, False
            dec = math.sqrt(max(float(dz @ H @ dz), 0.0))
            pri_ok = self.m_eq == 0 or np.abs(rp).max() <= 1e-11 * b_scale
            if pri_ok and dec <= 1e-4:
                return z, nu, used, True

            s = 1.0
            accepted = False
            for _ in range(60):
                z_new = z + s * dz
                if self.strictly_feasible(z_new):
                    nu_new = nu + s * dnu
                    rnorm_new = self._residual(z_new, nu_new, t)
                    if rnorm_new <= (1.0 - 0.01 * s) * rnorm + noise:
                        z, nu = z_new, nu_new
                        accepted = True
                        break
                s *= 0.5
            used += 1
            if not accepted:
                # Stalled at the rounding floor: accept the center if the
                # iterate is already well inside the quadratic-convergence
                # region (value error from imperfect centering <= dec^2 / t).
                return z, nu, used, bool(pri_ok and dec <= 0.25)
        return z, nu, used, bool(dec <= 0.25)

    def solve(self, z0, cfg: SolverConfig, gap_target) -> _CoreResult:
        """Follow the central path from the strictly feasible z0."""
        z = z0.copy()
        nu = np.zeros(self.m_eq)
        t = 1.0
        used = 0
        status = _STATUS_FAILURE
        for _ in range(_MAX_OUTER):
            z, nu, inner, ok = self._center(z, nu, t, cfg.max_newton - used)
            used += inner
            if not ok:
                status = _STATUS_FAILURE
                break
            value = float(self.c @ z)
            gap = self.nu_barrier / t
            if gap <= gap_target(value):
                status = _STATUS_OPTIMAL
                break
            if used >= cfg.max_newton:
                status = _STATUS_FAILURE
                break
            t *= cfg.barrier_mu
        return _CoreResult(
            z=z,
            value=float(self.c @ z),
            gap=self.nu_barrier / t,
            status=status,
            newton_used=used,
        )


# ---------------------------------------------------------------------------
# Phase-I / phase-II drivers.
# ---------------------------------------------------------------------------

def _project_equalities(prob: ElsProblem, X: np.ndarray) -> np.ndarray:
    """Least-norm correction making every equality row exact."""
    eq = [(c.A.ravel(), c.lower) for c in prob.constraints if c.is_equality]
    if not eq:
        return X
    E = np.array([r for r, _ in eq])
    b = np.array([v for _, v in eq])
    x = X.ravel(order="F")
    corr, *_ = np.linalg.lstsq(E, b - E @ x, rcond=None)
    return (x + corr).reshape(prob.n, prob.p, order="F")


def _max_violation(prob: ElsProblem, X: np.ndarray) -> float:
    """Largest constraint violation, including the spectral-ball constraint."""
    viol = float(np.max(bound_violations(prob.constraint_values(X), *prob.bounds()), initial=0.0))
    if X.size:
        sig_max = float(np.linalg.norm(X, 2))
        viol = max(viol, sig_max - 1.0)
    return viol


def _interior_start(prob: ElsProblem, X: np.ndarray) -> bool:
    """True when X is strictly inside the ball and every finite inequality."""
    if float(np.linalg.norm(X, 2)) >= 1.0:
        return False
    values = prob.constraint_values(X)
    lower, upper = prob.bounds()
    # Infinite bounds never bind; equality rows (lower == upper) are skipped.
    touching = (values >= upper) | (values <= lower)
    return not np.any(touching & (lower != upper))


def _effective_constraints(prob: ElsProblem) -> tuple[list, bool]:
    """Drop constraints with a zero matrix (their value is constantly zero).

    Returns (constraints, infeasible); infeasible is True when a zero-matrix
    constraint excludes the value 0 from its interval.
    """
    kept = []
    for c in prob.constraints:
        if not c.A.any():
            if c.violation(0.0) > 0.0:
                return [], True
            continue
        kept.append(c)
    return kept, False


def _phase1(prob: ElsProblem, cfg: SolverConfig) -> tuple[bool, np.ndarray, float, str]:
    """Elastic feasibility solve.

    Relaxes every finite bound by +/- tau and minimizes tau from X = 0.
    Returns (feasible, X, tau, status).  When equality rows are present the
    elastic optimum is approached asymptotically, so the decision also
    accepts the candidate obtained by projecting the iterate exactly onto
    the equality rows.
    """
    n, p = prob.n, prob.p
    rows = []
    tau0 = 0.0
    for c in prob.constraints:
        if math.isfinite(c.upper):
            rows.append(_Row(A=c.A, g=np.array([-1.0]), lower=-math.inf, upper=c.upper))
            tau0 = max(tau0, -c.upper)
        if math.isfinite(c.lower):
            rows.append(_Row(A=c.A, g=np.array([1.0]), lower=c.lower, upper=math.inf))
            tau0 = max(tau0, c.lower)
    if not rows:
        return True, np.zeros((n, p)), 0.0, _STATUS_OPTIMAL

    prog = _BallProgram(n, p, 1, np.concatenate([np.zeros(n * p), [1.0]]), rows)
    z = np.zeros(prog.dim)
    z[-1] = tau0 + 1.0
    nu = np.zeros(prog.m_eq)
    margin = max(10.0 * cfg.feas_tol, 1e-7)
    gap_floor = max(0.25 * cfg.feas_tol, 1e-13)

    t = 1.0
    used = 0
    stalled = False
    for _ in range(_MAX_OUTER):
        z, nu, inner, ok = prog._center(z, nu, t, cfg.max_newton - used)
        used += inner
        tau = float(z[-1])
        X, _ = prog.unpack(z)
        gap = prog.nu_barrier / t
        if tau <= -margin:
            # Comfortably interior point of the unrelaxed constraints.
            return True, X, tau, _STATUS_OPTIMAL
        Xp = _project_equalities(prob, X)
        if _max_violation(prob, Xp) <= 0.9 * cfg.feas_tol and _interior_start(prob, Xp):
            return True, Xp, max(tau, 0.0), _STATUS_OPTIMAL
        if not ok or used >= cfg.max_newton:
            stalled = True
            break
        if tau - 2.0 * gap > cfg.feas_tol:
            return False, X, tau, _STATUS_OPTIMAL
        if gap <= gap_floor:
            break
        t *= cfg.barrier_mu

    tau = float(z[-1])
    X, _ = prog.unpack(z)
    if tau <= cfg.feas_tol:
        return True, X, tau, _STATUS_OPTIMAL
    Xp = _project_equalities(prob, X)
    if _max_violation(prob, Xp) <= 0.9 * cfg.feas_tol and _interior_start(prob, Xp):
        return True, Xp, max(tau, 0.0), _STATUS_OPTIMAL
    if stalled:
        return False, X, tau, _STATUS_FAILURE
    return False, X, tau, _STATUS_OPTIMAL


def _reach_verdict(prob: ElsProblem, feas_tol: float) -> CrSolution | None:
    """Decide the instance from the reach ||A_i||_* of its rows, when a bound
    leaves the barrier no interior; None when no bound does.

    tr(A_i X) ranges over exactly [-||A_i||_*, ||A_i||_*] on the ball.  A
    finite bound beyond that range by more than feas_tol (1 + ||A_i||_*)
    gives ``infeasible``; phase I cannot decide such bounds once they are so
    large that its start tau0 + 1 rounds to tau0.

    A binding bound at the reach (lower = ||A_i||_*, upper = -||A_i||_*, or
    an equality row at either) leaves one point of the ball when A_i =
    U S V^T has full row rank p: X* = V U^T at +||A_i||_*, -V U^T at -||A_i||_*.
    The instance is then ``optimal`` at X* when the other rows hold there
    within feas_tol, and ``infeasible`` otherwise.  A bound short of the
    reach by a few rounding units counts as at the reach; ``gap_estimate``
    bounds how far the objective can then move over the feasible cap.
    """
    at_reach = []
    for i, c in enumerate(prob.constraints):
        reach = float(np.linalg.norm(c.A, "nuc"))
        limit = reach + feas_tol * (1.0 + reach)
        if c.lower > limit or c.upper < -limit:
            return _infeasible(prob)
        near = reach - _REACH_ROUNDING * (1.0 + reach)
        if c.lower >= near:
            at_reach.append((i, 1.0, reach - c.lower))
        elif c.upper <= -near:
            at_reach.append((i, -1.0, c.upper + reach))
    for i, sign, short in at_reach:
        U, sigma, Vt = np.linalg.svd(prob.constraints[i].A, full_matrices=False)
        if sigma[-1] <= DEFAULT_TOL * sigma[0]:
            continue  # rank deficient: a face of the ball, not a single point
        X = sign * (Vt.T @ U.T)
        viol = bound_violations(prob.constraint_values(X), *prob.bounds())
        viol[i] = 0.0  # within the reach allowance above
        if viol.max() > feas_tol:
            return _infeasible(prob)
        # Every feasible X lies within sqrt(2 short / sigma_min) of X* (Frobenius).
        spread = math.sqrt(2.0 * max(short, 0.0) / sigma[-1])
        return CrSolution(
            X=X,
            value=float(np.trace(prob.A0 @ X)),
            status=_STATUS_OPTIMAL,
            gap_estimate=float(np.linalg.norm(prob.A0)) * spread,
        )
    return None


def _infeasible(prob: ElsProblem) -> CrSolution:
    return CrSolution(
        X=np.zeros((prob.n, prob.p)), value=math.inf, status=_STATUS_INFEASIBLE, gap_estimate=math.inf
    )


def _zero_start_ok(prob: ElsProblem) -> bool:
    """True when X = 0 is strictly feasible for every finite inequality bound
    and exactly satisfies every equality row."""
    for c in prob.constraints:
        if c.is_equality:
            if c.lower != 0.0:
                return False
        else:
            if math.isfinite(c.upper) and c.upper <= 0.0:
                return False
            if math.isfinite(c.lower) and c.lower >= 0.0:
                return False
    return True


def solve_cr(prob: ElsProblem, cfg: SolverConfig | None = None) -> CrSolution:
    """Solve the relaxation; see the module docstring for the method."""
    cfg = cfg or SolverConfig()
    n, p = prob.n, prob.p
    obj_norm = float(np.linalg.norm(prob.A0))

    kept, zero_infeasible = _effective_constraints(prob)
    if zero_infeasible:
        return _infeasible(prob)
    verdict = _reach_verdict(prob, cfg.feas_tol)
    if verdict is not None:
        return verdict
    if len(kept) != prob.k:
        prob = ElsProblem(n=n, p=p, A0=prob.A0, constraints=kept)

    if _zero_start_ok(prob):
        X0 = np.zeros((n, p))
        phase1_gap = 0.0
    else:
        feasible, X0, tau, status = _phase1(prob, cfg)
        if status != _STATUS_OPTIMAL:
            return CrSolution(X=X0, value=math.nan, status=_STATUS_FAILURE, gap_estimate=math.inf)
        if not feasible:
            return CrSolution(X=X0, value=math.inf, status=_STATUS_INFEASIBLE, gap_estimate=math.inf)
        phase1_gap = max(tau, 0.0)

    if obj_norm == 0.0:
        # Any feasible point is optimal; the phase-I point is already one.
        return CrSolution(X=X0, value=0.0, status=_STATUS_OPTIMAL, gap_estimate=phase1_gap)

    rows = [_Row(A=c.A, g=None, lower=c.lower, upper=c.upper) for c in prob.constraints]
    prog = _BallProgram(n, p, 0, prob.A0.ravel().astype(float), rows)
    z0 = X0.ravel(order="F").copy()
    if not prog.strictly_feasible(z0):
        for shrink in (1e-12, 1e-9, 1e-6):
            if prog.strictly_feasible(z0 * (1.0 - shrink)):
                z0 = z0 * (1.0 - shrink)
                break
        else:
            return CrSolution(X=X0, value=math.nan, status=_STATUS_FAILURE, gap_estimate=math.inf)

    res = prog.solve(z0, cfg, gap_target=lambda v: cfg.tol * (1.0 + abs(v)))
    X, _ = prog.unpack(res.z)
    return CrSolution(
        X=X,
        value=float(np.trace(prob.A0 @ X)),
        status=res.status,
        gap_estimate=res.gap,
    )


def solve_ls_svd(A0) -> tuple[StiefelPoint, float]:
    """Closed-form solve of the unconstrained (k = 0) problem.

    With thin SVD A0 = Q diag(sigma) P.T the minimizer is X = -P @ Q.T and
    the optimal value is -sum(sigma).
    """
    A0 = as_matrix(A0, "A0")
    p, n = A0.shape
    if p > n:
        raise ValueError(f"objective must be p x n with p <= n, got {A0.shape}")
    if not A0.any():
        X = -np.eye(n, p)
        value = 0.0
    else:
        Q, sigma, P = thin_svd(A0)
        X = -(P @ Q.T)
        value = -float(sigma.sum())
    orth = float(np.linalg.norm(X.T @ X - np.eye(p)))
    return StiefelPoint(X=X, orth_residual=orth, lin_residuals=np.zeros(0)), value
