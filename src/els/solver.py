"""Solver for the convex relaxation, plus the closed-form k=0 case.

The relaxation replaces the orthonormality constraint X.T @ X = I_p by the
spectral-ball constraint X.T @ X <= I_p (the convex hull of the manifold) and
keeps the k linear trace constraints.  It is solved in the X variable with a
damped-Newton barrier path: -log det(I_p - X.T @ X) plus one -log term per
finite one-sided bound, equality rows (lower == upper) kept as linear
equalities in the Newton KKT system.

Each Newton step is structured; no np x np matrix is formed.  The ball is a
homogeneous (Cartan type I) domain, so its barrier Hessian is block
diagonal in the singular basis of X = P diag(sigma) Q.T: 2 x 2 blocks
coupling the entries (i, j) and (j, i) of P.T V Q, and a scaling of each
column of the part of V Q outside range(P).  One p x p eigendecomposition of
I - X.T X (which gives Q and 1 - sigma**2) per step inverts it in closed
form, applied as batched products to the residual and to every row.  The
rows then leave one dense system in their multipliers and the q <= 1
auxiliary variables, of size m_in + m_eq + q, plus one unknown per row
combination that vanishes on X (found once per program), so that dependent
rows that are all near active cannot swamp the step.  A refinement pass on
the row equations keeps it accurate when the rows pin X at tiny slacks.
The Newton decrement is dz.H.dz = -dz.rd + rp.dnu.  The same step serves
phase I (q = 1), phase II (q = 0, with equality rows) and the epigraph
relaxation of pointwise-maximum objectives (q = 1); one path-following loop
drives all three, each with its own stop predicate.

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
from .problem import ElsProblem, MinimaxProblem, StiefelPoint, bound_violations

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_FAILURE = "numerical-failure"

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
    phase1_newton: int = 0  # Newton steps of the elastic feasibility phase
    phase2_newton: int = 0  # Newton steps of the optimization phase


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
    gap: float
    verdict: object  # what the stop predicate returned
    newton_used: int


class _BallProgram:
    """min c.z subject to row bounds and the spectral-ball constraint.

    Variables are z = (vec(X), w) with X of shape (n, p) column-stacked and
    w a (possibly empty) vector of q <= 1 auxiliary scalars.  vec(X) is
    X.T in row-major order, so the ball's arithmetic works on X.T.
    """

    def __init__(self, n: int, p: int, q: int, c: np.ndarray, rows: list[_Row]):
        self.n, self.p, self.q = n, p, q
        self.dim = n * p + q
        self.c = c
        self._eye_p = np.eye(p)

        # Inequality rows (one per finite one-sided bound, with the sign
        # that makes slack = sign * (b - r.z) positive inside), then
        # equality rows.
        ineq, signs, b_in, eq, b_eq = [], [], [], [], []
        for row in rows:
            r = np.zeros(self.dim)
            if row.A is not None:
                r[: n * p] = row.A.ravel()  # vec(A.T) in column-stacking
            if row.g is not None:
                r[n * p :] = row.g
            if math.isfinite(row.lower) and row.lower == row.upper:
                eq.append(r)
                b_eq.append(row.lower)
                continue
            for bound, sign in ((row.upper, 1.0), (row.lower, -1.0)):
                if math.isfinite(bound):
                    ineq.append(r)
                    signs.append(sign)
                    b_in.append(bound)
        self.m_in, self.m_eq = len(ineq), len(eq)
        G = np.array(ineq + eq).reshape(self.m_in + self.m_eq, self.dim)
        self.R_in, self.R_eq = G[: self.m_in], G[self.m_in :]
        self.b_in, self.b_eq = np.array(b_in), np.array(b_eq)
        self._sign = np.array(signs)
        # Barrier parameter: p for the ball plus one per one-sided bound.
        self.nu_barrier = float(p + self.m_in)
        self._c_scale = 1.0 + float(np.abs(c).max()) if c.size else 1.0

        # The Newton step's row data: every row's X part as the p x n matrix
        # A (a view of G), a basis N of the row combinations that vanish on
        # X (N.T Gx = 0, such as the two sides of a two-sided bound), and
        # the parts of the Newton system that stay fixed (see _newton_step).
        k, nx = G.shape[0], n * p
        self._Gx = G[:, :nx].reshape(k, p, n)
        if k:
            U, sv, _ = np.linalg.svd(G[:, :nx])
            rank = int(np.sum(sv > sv[0] * max(k, nx) * np.finfo(float).eps))
            N = U[:, rank:]
        else:
            N = np.zeros((0, 0))
        self._null = N
        Gw = G[:, nx:]
        K = np.zeros((k + q + N.shape[1],) * 2)
        K[:k, k : k + q] = Gw
        K[k : k + q, :k] = Gw.T
        K[k : k + q, k + q :] = Gw.T @ N
        K[k + q :, :k] = N.T
        self._kkt = K
        self._diag_in = np.diag_indices(self.m_in)

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = z[: self.n * self.p].reshape(self.n, self.p, order="F")
        return X, z[self.n * self.p :]

    def slacks(self, z: np.ndarray) -> np.ndarray:
        """Slack of each inequality row, positive strictly inside."""
        return self._sign * (self.b_in - self.R_in @ z)

    def _interior(self, z: np.ndarray):
        """The ball's spectral data at z (see _ball), or None unless z is
        strictly inside the ball and every inequality row."""
        if self.m_in and self.slacks(z).min() <= 0.0:
            return None
        return self._ball(z)

    def strictly_feasible(self, z: np.ndarray) -> bool:
        return self._interior(z) is not None

    def _ball(self, z: np.ndarray):
        """The thin SVD X = P diag(sigma) Q.T at z, as (Yt, Pt, sigma, Q, lam)
        with Yt = (X Q).T, Pt = P.T and lam = 1 - sigma**2; None when X is
        not strictly inside the ball.

        Q and lam are the eigendecomposition of S = I - X.T X, so the
        gradient and the interior test see the rounding of S itself: lam
        taken as 1 - sigma**2 from an SVD of X carries a different rounding
        error near the sphere, which left the line search stalled at the
        rounding floor.  P normalizes the columns of X Q; a column with
        sigma = 0 is left zero, where the Hessian's range and complement
        blocks coincide.
        """
        Xt = z[: self.n * self.p].reshape(self.p, self.n)
        lam, Q = np.linalg.eigh(self._eye_p - Xt @ Xt.T)
        if lam[0] <= 0.0:
            return None
        Yt = Q.T @ Xt
        sigma = np.sqrt(np.einsum("ij,ij->i", Yt, Yt))
        Pt = Yt / np.where(sigma > 0.0, sigma, 1.0)[:, None]
        return Yt, Pt, sigma, Q, lam

    def _grad(self, z: np.ndarray, ball) -> np.ndarray:
        """Gradient of the full barrier at z, given _ball(z)."""
        Yt, _, _, Q, lam = ball
        g = np.empty(self.dim)
        # The ball's gradient 2 X S^-1 = 2 X Q diag(1 / lam) Q.T.
        g[: self.n * self.p] = (Q @ (Yt * (2.0 / lam)[:, None])).ravel()
        g[self.n * self.p :] = 0.0
        if self.m_in:
            g += self.R_in.T @ (self._sign / self.slacks(z))
        return g

    # -- Newton path ------------------------------------------------------

    @staticmethod
    def _ball_hess_solve(ball, Vt: np.ndarray) -> np.ndarray:
        """Apply the inverse of the ball's Hessian to a stack of transposed
        n x p matrices, shape (k, p, n).

        The Hessian V -> 2 V S^-1 + 2 X S^-1 (V.T X + X.T V) S^-1 is block
        diagonal in the singular basis of X.  With d = 1 / lam it maps the
        coordinates a = P.T V Q to 2 d_i d_j (a_ij + sigma_i sigma_j a_ji),
        coupling only the pair (i, j), (j, i), and scales column j of
        (I - P P.T) V Q by 2 d_j.
        """
        _, Pt, sigma, Q, lam = ball
        Wt = Q.T @ Vt
        At = Wt @ Pt.T
        Wt -= At @ Pt
        Wt *= (0.5 * lam)[:, None]
        ll = np.multiply.outer(lam, lam)
        C = At * (0.5 * ll)
        rho = np.multiply.outer(sigma, sigma)
        # 1 - rho**2 written in lam, which keeps it accurate as sigma -> 1.
        den = np.add.outer(lam, lam) - ll
        Wt += ((C - rho * C.transpose(0, 2, 1)) / den) @ Pt
        return Q @ Wt

    def _newton_step(self, z, ball, rd, rp):
        """Solve the Newton KKT system [H R_eq.T; R_eq 0] (dz, dnu) = -(rd, rp).

        H is the ball's Hessian plus R.T diag(1/slack**2) R over the
        inequality rows R.  The ball part is inverted in closed form, which
        leaves one dense system in the row multipliers u = (y, dnu), with
        y = R dz / slack**2, and -dw, of size m_in + m_eq + q:

            [M + D  Gw] [u  ]   [Gx v0 + (0, rp)]
            [Gw.T   0 ] [-dw] = [-rd_w          ],   dX = v0 - Z.T u,

        with Z = H_ball^-1 Gx.T, M = Gx Z, D = diag(slack**2, 0) and
        v0 = H_ball^-1 (-rd_x).  M is singular along the row combinations N
        of __init__, so u = w + N alpha is split with N.T w = 0, which adds
        one unknown per column of N: dX reads w alone, and when dependent
        rows are all near active the huge, rounding-led N part of u never
        enters it.  When the rows pin X
        (slack**2 far below M), dX is a small difference of large terms;
        one refinement pass on the row equations Gx dX + Gw dw = D u -
        (0, rp) restores it.  Returns None when the system is singular.
        """
        nx, m, q = self.n * self.p, self.m_in, self.q
        Gx, N, K = self._Gx, self._null, self._kkt
        k, kq = Gx.shape[0], Gx.shape[0] + q
        d2 = np.zeros(k)
        d2[:m] = self.slacks(z) ** 2

        sols = self._ball_hess_solve(
            ball, np.concatenate([-rd[:nx].reshape(1, self.p, self.n), Gx])
        ).reshape(k + 1, nx)
        v0, Z = sols[0], sols[1:]
        Gx = Gx.reshape(k, nx)

        K[:k, :k] = Gx @ Z.T
        K[self._diag_in] += d2[:m]
        K[:k, kq:] = d2[:, None] * N
        rhs = np.zeros(K.shape[0])
        rhs[:k] = Gx @ v0
        rhs[m:k] += rp
        rhs[k:kq] = -rd[nx:]
        try:
            sol = np.linalg.solve(K, rhs)
            dx = v0 - sol[:k] @ Z
            u = sol[:k] + N @ sol[kq:]
            resid = np.zeros(K.shape[0])
            resid[:k] = Gx @ dx - K[:k, k:kq] @ sol[k:kq] - d2 * u
            resid[m:k] += rp
            fix = np.linalg.solve(K, resid)
        except np.linalg.LinAlgError:
            return None
        sol += fix
        dz = np.concatenate([dx - fix[:k] @ Z, -sol[k:kq]])
        dnu = (sol[:k] + N @ sol[kq:])[m:]
        if not (np.isfinite(dz).all() and np.isfinite(dnu).all()):
            return None
        return dz, dnu

    def _residuals(self, z, nu, t, ball):
        rd = t * self.c + self._grad(z, ball) + (self.R_eq.T @ nu if self.m_eq else 0.0)
        rp = self.R_eq @ z - self.b_eq if self.m_eq else np.zeros(0)
        return rd, rp, math.sqrt(float(rd @ rd) + float(rp @ rp))

    def _center(self, z, nu, t, budget):
        """Damped Newton to the analytic center at path parameter t.

        Returns (z, nu, used, ok).  Infeasible-start formulation: the
        equality residual enters the Newton system and shrinks geometrically
        with the step length.  The line search tolerates rounding-level
        non-decrease so high path parameters do not stall prematurely.  The
        decrement dz.H.dz = -dz.rd + rp.dnu needs no Hessian.
        """
        b_scale = 1.0 + (np.abs(self.b_eq).max() if self.m_eq else 0.0)
        noise = 1e-14 * t * self._c_scale * math.sqrt(self.dim)
        used = 0
        dec = math.inf
        ball = self._ball(z)
        if ball is None:
            return z, nu, used, False
        rd, rp, rnorm = self._residuals(z, nu, t, ball)
        while used < min(budget, _MAX_INNER):
            step = self._newton_step(z, ball, rd, rp)
            if step is None:
                return z, nu, used, False
            dz, dnu = step
            dec = math.sqrt(max(float(rp @ dnu) - float(dz @ rd), 0.0))
            pri_ok = self.m_eq == 0 or np.abs(rp).max() <= 1e-11 * b_scale
            if pri_ok and dec <= 1e-4:
                return z, nu, used, True

            s = 1.0
            accepted = False
            for _ in range(60):
                z_new = z + s * dz
                ball_new = self._interior(z_new)
                if ball_new is not None:
                    nu_new = nu + s * dnu
                    rd_new, rp_new, rnorm_new = self._residuals(z_new, nu_new, t, ball_new)
                    if rnorm_new <= (1.0 - 0.01 * s) * rnorm + noise:
                        z, nu, ball = z_new, nu_new, ball_new
                        rd, rp, rnorm = rd_new, rp_new, rnorm_new
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

    def solve(self, z0, cfg: SolverConfig, stop) -> _CoreResult:
        """Follow the central path from the strictly feasible z0.

        After each centering, ``stop(z, gap, centered, spent)`` gets the
        iterate, the duality-gap bound nu / t, whether the centering
        converged and whether the Newton budget (or the last outer step) is
        spent.  It returns the verdict to end with, or None to raise t.
        """
        z = z0.copy()
        nu = np.zeros(self.m_eq)
        t = 1.0
        used = 0
        verdict = None
        for outer in range(_MAX_OUTER):
            z, nu, inner, ok = self._center(z, nu, t, cfg.max_newton - used)
            used += inner
            spent = used >= cfg.max_newton or outer == _MAX_OUTER - 1
            verdict = stop(z, self.nu_barrier / t, ok, spent)
            if verdict is not None:
                break
            t *= cfg.barrier_mu
        return _CoreResult(z=z, gap=self.nu_barrier / t, verdict=verdict, newton_used=used)


def _optimal_within(c: np.ndarray, tol: float):
    """Stop predicate of an optimization phase: optimal once the gap bound
    is at most tol (1 + |c.z|), a failure when centering fails or the
    Newton budget is spent first."""

    def stop(z, gap, centered, spent):
        if not centered:
            return STATUS_FAILURE
        if gap <= tol * (1.0 + abs(float(c @ z))):
            return STATUS_OPTIMAL
        if spent:
            return STATUS_FAILURE
        return None

    return stop


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


def _phase1(prob: ElsProblem, cfg: SolverConfig) -> tuple[bool, np.ndarray, str, int]:
    """Elastic feasibility solve.

    Relaxes every finite bound by +/- tau and minimizes tau from X = 0.
    Returns (feasible, X, status, newton_steps).  When equality rows
    are present the elastic optimum is approached asymptotically, so the
    decision also accepts the candidate obtained by projecting the iterate
    exactly onto the equality rows.
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
        return True, np.zeros((n, p)), STATUS_OPTIMAL, 0

    prog = _BallProgram(n, p, 1, np.concatenate([np.zeros(n * p), [1.0]]), rows)
    z0 = np.zeros(prog.dim)
    z0[-1] = tau0 + 1.0
    margin = max(10.0 * cfg.feas_tol, 1e-7)
    gap_floor = max(0.25 * cfg.feas_tol, 1e-13)

    def decide(z, gap, centered, spent):
        tau = float(z[-1])
        X, _ = prog.unpack(z)
        if tau <= -margin:
            # Comfortably interior point of the unrelaxed constraints.
            return True, X, STATUS_OPTIMAL
        Xp = _project_equalities(prob, X)
        if _max_violation(prob, Xp) <= 0.9 * cfg.feas_tol and _interior_start(prob, Xp):
            return True, Xp, STATUS_OPTIMAL
        stalled = not centered or spent
        if stalled or tau - 2.0 * gap > cfg.feas_tol or gap <= gap_floor:
            if tau <= cfg.feas_tol:
                return True, X, STATUS_OPTIMAL
            return False, X, STATUS_FAILURE if stalled else STATUS_OPTIMAL
        return None

    res = prog.solve(z0, cfg, decide)
    return (*res.verdict, res.newton_used)


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
            status=STATUS_OPTIMAL,
            gap_estimate=float(np.linalg.norm(prob.A0)) * spread,
        )
    return None


def _infeasible(prob: ElsProblem) -> CrSolution:
    return CrSolution(
        X=np.zeros((prob.n, prob.p)), value=math.inf, status=STATUS_INFEASIBLE, gap_estimate=math.inf
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

    steps1 = 0
    if _zero_start_ok(prob):
        X0 = np.zeros((n, p))
    else:
        feasible, X0, status, steps1 = _phase1(prob, cfg)
        if status != STATUS_OPTIMAL:
            return CrSolution(X0, math.nan, STATUS_FAILURE, math.inf, phase1_newton=steps1)
        if not feasible:
            return CrSolution(X0, math.inf, STATUS_INFEASIBLE, math.inf, phase1_newton=steps1)

    if obj_norm == 0.0:
        # Any feasible point is optimal, so the value 0 is exact and the
        # phase-I point is already an optimum.
        return CrSolution(X0, 0.0, STATUS_OPTIMAL, 0.0, phase1_newton=steps1)

    rows = [_Row(A=c.A, g=None, lower=c.lower, upper=c.upper) for c in prob.constraints]
    prog = _BallProgram(n, p, 0, prob.A0.ravel().astype(float), rows)
    z0 = X0.ravel(order="F").copy()
    if not prog.strictly_feasible(z0):
        for shrink in (1e-12, 1e-9, 1e-6):
            if prog.strictly_feasible(z0 * (1.0 - shrink)):
                z0 = z0 * (1.0 - shrink)
                break
        else:
            return CrSolution(X0, math.nan, STATUS_FAILURE, math.inf, phase1_newton=steps1)

    res = prog.solve(z0, cfg, _optimal_within(prog.c, cfg.tol))
    X, _ = prog.unpack(res.z)
    return CrSolution(
        X=X,
        value=float(np.trace(prob.A0 @ X)),
        status=res.verdict,
        gap_estimate=res.gap,
        phase1_newton=steps1,
        phase2_newton=res.newton_used,
    )


def solve_epigraph(mm: MinimaxProblem, cfg: SolverConfig | None = None) -> CrSolution:
    """Relaxation of min over the ball of max_i (tr(A_i X) + c_i) subject to
    the base constraints, as one barrier program in (X, t).

    Minimizes t subject to tr(A_i X) - t <= -c_i for every piece, the base
    rows and the spectral ball, from a strictly feasible point of the base
    constraints found by ``solve_cr``.  ``value`` is the optimal t; the
    status is ``infeasible`` when the base constraints are.
    """
    cfg = cfg or SolverConfig()
    base = mm.base
    n, p = base.n, base.p
    start = solve_cr(
        ElsProblem(n=n, p=p, A0=np.zeros((p, n)), constraints=list(base.constraints)), cfg
    )
    steps1 = start.phase1_newton
    if start.status != STATUS_OPTIMAL:
        return CrSolution(start.X, start.value, start.status, math.inf, phase1_newton=steps1)

    rows = [
        _Row(A=c.A, g=np.zeros(1), lower=c.lower, upper=c.upper)
        for c in base.constraints
        if c.A.any()  # zero rows are vacuous once the base is known feasible
    ]
    for piece in mm.pieces:
        rows.append(_Row(A=piece.A, g=np.array([-1.0]), lower=-math.inf, upper=-piece.c))
    prog = _BallProgram(n, p, 1, np.concatenate([np.zeros(n * p), [1.0]]), rows)

    t0 = float(mm.piece_values(start.X).max()) + 1.0
    z0 = np.concatenate([start.X.ravel(order="F"), [t0]])
    if not prog.strictly_feasible(z0):
        z0[: n * p] *= 1.0 - 1e-9
        z0[-1] += 1.0
    res = prog.solve(z0, cfg, _optimal_within(prog.c, cfg.tol))
    X, w = prog.unpack(res.z)
    return CrSolution(
        X=X,
        value=float(w[0]),
        status=res.verdict,
        gap_estimate=res.gap,
        phase1_newton=steps1,
        phase2_newton=res.newton_used,
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
