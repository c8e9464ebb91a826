"""Independent ground truth at desk scale.

Multistart local search on the manifold: smooth penalized projected-gradient
descent with an increasing penalty schedule, followed by an exact Newton
polish of the active-set KKT system (machine-precision feasibility).  For
tiny dimensions (spheres and frames in R^2/R^3, where the interesting
relaxation-gap instances live) an angular grid is swept as well and its
best points are polished.  The restarts descend together as one stack, so
each backtracking round costs one batched SVD however many restarts are
still moving.  Everything is deterministic given (restarts, seed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFeasiblePoint
from .linalg import random_stiefel, symmetric_basis
from .minimax import piece_subproblem
from .problem import ElsProblem, MinimaxProblem, StiefelPoint, bound_violations, residuals

_FEAS_TOL = 1e-8
_RHO_SCHEDULE = (10.0, 1e2, 1e3, 1e4)


def _polar(X: np.ndarray) -> np.ndarray:
    """Polar retraction of one (n, p) matrix or of an (R, n, p) stack."""
    U, _, Vt = np.linalg.svd(X, full_matrices=False)
    return U @ Vt


def _merits(mats, lower, upper, X: np.ndarray, rho: float) -> np.ndarray:
    """Penalized merit of every point of the (R, n, p) stack ``X``.

    ``mats`` is the (k+1, p, n) stack of A0 and the constraint matrices.
    """
    values = np.trace(mats @ X[:, None], axis1=2, axis2=3)
    viol = bound_violations(values[:, 1:], lower, upper)
    return values[:, 0] + rho * np.sum(np.square(viol), axis=1)


def _merit_grads(mats, lower, upper, X: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean merit gradients, (R, n, p), of the stack ``X``."""
    V = np.trace(mats[1:] @ X[:, None], axis1=2, axis2=3)
    signed = np.maximum(V - upper, 0.0) - np.maximum(lower - V, 0.0)
    G = np.repeat(mats[0].T[None], X.shape[0], axis=0)
    for i in range(signed.shape[1]):
        pushed = signed[:, i] != 0.0
        if pushed.any():
            term = (2.0 * rho * signed[:, i])[:, None, None] * mats[i + 1].T
            # unpushed points are left untouched, signed zeros included
            np.add(G, term, out=G, where=pushed[:, None, None])
    return G


def _penalty_descent(mats, lower, upper, X: np.ndarray, rho: float, max_iter: int = 150) -> np.ndarray:
    """Projected-gradient descent with polar retraction on the penalized merit.

    Every point of the (R, n, p) stack ``X`` descends on its own: it keeps
    its own step size, Armijo test, halving budget and stopping rule, and
    leaves the stack where a descent of that point alone would stop.
    Returns the final stack.
    """
    X = X.copy()
    scale = 1.0 + float(np.linalg.norm(mats[0]))
    alpha = np.full(X.shape[0], 1.0 / (1.0 + math.sqrt(rho)))
    f = _merits(mats, lower, upper, X, rho)
    live = np.arange(X.shape[0])
    for _ in range(max_iter):
        if not live.size:
            break
        Xl = X[live]
        G = _merit_grads(mats, lower, upper, Xl, rho)
        W = Xl.transpose(0, 2, 1) @ G
        PG = G - Xl @ (0.5 * (W + W.transpose(0, 2, 1)))  # Riemannian gradient
        # one flat sum per point, in the order np.sum takes for one point
        gnorm2 = np.sum((PG * PG).reshape(live.size, -1), axis=1)
        moving = np.sqrt(gnorm2) > 1e-10 * scale
        live, Xl, PG, gnorm2 = live[moving], Xl[moving], PG[moving], gnorm2[moving]
        trying = np.arange(live.size)  # positions in live still backtracking
        for _ in range(40):
            if not trying.size:
                break
            idx = live[trying]
            step = alpha[idx]
            X_try = _polar(Xl[trying] - step[:, None, None] * PG[trying])
            f_try = _merits(mats, lower, upper, X_try, rho)
            ok = f_try <= f[idx] - 1e-4 * step * gnorm2[trying]
            won = idx[ok]
            X[won], f[won] = X_try[ok], f_try[ok]
            alpha[won] = np.minimum(step[ok] * 1.5, 1e3)
            alpha[idx[~ok]] = step[~ok] * 0.5
            trying = trying[~ok]
        live = np.delete(live, trying)  # no step accepted: that descent stops
    return X


def _detect_active(prob: ElsProblem, X: np.ndarray, tol: float) -> list[tuple[int, float]]:
    """(index, bound) pairs for constraints judged active at X."""
    act = []
    for i, (c, v) in enumerate(zip(prob.constraints, prob.constraint_values(X))):
        if c.is_equality:
            act.append((i, c.lower))
        elif math.isfinite(c.upper) and abs(v - c.upper) <= tol * (1.0 + abs(c.upper)):
            act.append((i, c.upper))
        elif math.isfinite(c.lower) and abs(v - c.lower) <= tol * (1.0 + abs(c.lower)):
            act.append((i, c.lower))
    return act


def _kkt_polish(
    prob: ElsProblem,
    X: np.ndarray,
    act: list[tuple[int, float]],
    max_iter: int = 40,
) -> np.ndarray | None:
    """Newton solve of the active-set stationarity system.

    Unknowns are (X, lambda, Lambda); equations are stationarity, the active
    constraints at their bounds, and orthonormality.  Least-squares steps
    keep the iteration defined when the constraint gradients are dependent.
    Returns the polished X or None when the iteration does not converge.
    """
    n, p = prob.n, prob.p
    basis = symmetric_basis(p)
    act_mats = [prob.constraints[i].A for i, _ in act]
    act_rhs = np.array([b for _, b in act])
    n_act, n_sym = len(act), len(basis)

    x = X.ravel(order="F").copy()
    cols = [A.T.ravel(order="F") for A in act_mats] + [(X @ S).ravel(order="F") for S in basis]
    M = np.array(cols).T if cols else np.zeros((n * p, 0))
    ml, *_ = np.linalg.lstsq(M, -prob.A0.T.ravel(order="F"), rcond=None)
    lam, lcoef = ml[:n_act], ml[n_act:]

    def system(x, lam, lcoef):
        Xm = x.reshape(n, p, order="F")
        Lam = sum(c * S for c, S in zip(lcoef, basis)) if n_sym else np.zeros((p, p))
        stat = prob.A0.T + Xm @ Lam
        for l, A in zip(lam, act_mats):
            stat = stat + l * A.T
        F1 = stat.ravel(order="F")
        F2 = np.array([float(np.trace(A @ Xm)) for A in act_mats]) - act_rhs
        gram = Xm.T @ Xm - np.eye(p)
        F3 = np.array([gram[i, j] for i in range(p) for j in range(i, p)])
        return np.concatenate([F1, F2, F3]), Xm, Lam

    F, Xm, Lam = system(x, lam, lcoef)
    fnorm = np.linalg.norm(F)
    scale = 1.0 + float(np.linalg.norm(prob.A0))
    for _ in range(max_iter):
        if fnorm <= 1e-13 * scale:
            break
        J1x = np.kron(Lam, np.eye(n))
        J1l = np.array([A.T.ravel(order="F") for A in act_mats]).T if n_act else np.zeros((n * p, 0))
        J1s = np.array([(Xm @ S).ravel(order="F") for S in basis]).T
        J2x = np.array([A.T.ravel(order="F") for A in act_mats]) if n_act else np.zeros((0, n * p))
        rows = []
        for i in range(p):
            for j in range(i, p):
                G = np.zeros((n, p))
                if i == j:
                    G[:, i] = 2.0 * Xm[:, i]
                else:
                    G[:, i] = Xm[:, j]
                    G[:, j] = Xm[:, i]
                rows.append(G.ravel(order="F"))
        J3x = np.array(rows)
        nz = np.zeros
        J = np.block(
            [
                [J1x, J1l, J1s],
                [J2x, nz((n_act, n_act)), nz((n_act, n_sym))],
                [J3x, nz((len(rows), n_act)), nz((len(rows), n_sym))],
            ]
        )
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        s = 1.0
        improved = False
        for _ in range(30):
            xs = x + s * step[: n * p]
            ls = lam + s * step[n * p : n * p + n_act]
            cs = lcoef + s * step[n * p + n_act :]
            F_try, Xm_try, Lam_try = system(xs, ls, cs)
            fn_try = np.linalg.norm(F_try)
            if fn_try <= (1.0 - 0.3 * s) * fnorm or fn_try <= 1e-13 * scale:
                x, lam, lcoef = xs, ls, cs
                F, Xm, Lam, fnorm = F_try, Xm_try, Lam_try, fn_try
                improved = True
                break
            s *= 0.5
        if not improved:
            return None
    if fnorm > 1e-11 * scale:
        return None
    return x.reshape(n, p, order="F")


def _restore_feasibility(
    prob: ElsProblem,
    X: np.ndarray,
    act: list[tuple[int, float]],
    max_iter: int = 300,
) -> np.ndarray:
    """Alternating projections onto the active affine rows and the manifold."""
    if not act:
        return _polar(X)
    E = np.array([prob.constraints[i].A.T.ravel(order="F") for i, _ in act])
    b = np.array([v for _, v in act])
    for _ in range(max_iter):
        x = X.ravel(order="F")
        corr, *_ = np.linalg.lstsq(E, b - E @ x, rcond=None)
        X = _polar((x + corr).reshape(prob.n, prob.p, order="F"))
        if np.abs(E @ X.ravel(order="F") - b).max() <= 1e-13:
            break
    return X


def _polish(prob: ElsProblem, X: np.ndarray) -> StiefelPoint | None:
    """Polish one descended point; the best feasible candidate, or None."""
    candidates = []

    def consider(Xc):
        if Xc is None:
            return
        point = residuals(prob, Xc)
        if point.feasible(_FEAS_TOL):
            candidates.append(point)

    act = _detect_active(prob, X, tol=3e-3)
    consider(_kkt_polish(prob, X, act))
    consider(_restore_feasibility(prob, X, act))
    eq_only = [(i, b) for i, b in act if prob.constraints[i].is_equality]
    if len(eq_only) != len(act):
        consider(_restore_feasibility(prob, X, eq_only))
    if not candidates:
        return None
    return min(candidates, key=lambda pt: prob.objective(pt.X))


# ---------------------------------------------------------------------------
# Angular grids for the tiny dimensions.
# ---------------------------------------------------------------------------

_FINE_STEP = 0.002   # 1- and 2-angle parameterizations
_COARSE_STEP = 0.06  # 3-angle parameterizations, refined by polish


def _rotations_z(angles):
    c, s = np.cos(angles), np.sin(angles)
    R = np.zeros((angles.size, 3, 3))
    R[:, 0, 0], R[:, 0, 1] = c, -s
    R[:, 1, 0], R[:, 1, 1] = s, c
    R[:, 2, 2] = 1.0
    return R


def _rotations_y(angles):
    c, s = np.cos(angles), np.sin(angles)
    R = np.zeros((angles.size, 3, 3))
    R[:, 0, 0], R[:, 0, 2] = c, s
    R[:, 1, 1] = 1.0
    R[:, 2, 0], R[:, 2, 2] = -s, c
    return R


_GRIDS: dict[tuple[int, int], np.ndarray | None] = {}


def _grid_points(n: int, p: int) -> np.ndarray | None:
    """Stacked manifold samples of shape (N, n, p), or None when unsupported.

    Each grid is built once per (n, p) and kept as a read-only array.
    """
    if (n, p) not in _GRIDS:
        pts = _build_grid(n, p)
        if pts is not None:
            pts.flags.writeable = False
        _GRIDS[(n, p)] = pts
    return _GRIDS[(n, p)]


def _build_grid(n: int, p: int) -> np.ndarray | None:
    """One preallocated grid array; reflected halves are written in place."""
    if (n, p) in ((2, 1), (2, 2)):
        t = np.arange(0.0, 2 * np.pi, _FINE_STEP)
        c, s = np.cos(t), np.sin(t)
        m = t.size
        pts = np.empty((p * m, 2, p))
        pts[:m, 0, 0], pts[:m, 1, 0] = c, s
        if p == 2:
            pts[:m, 0, 1], pts[:m, 1, 1] = -s, c
            pts[m:] = pts[:m]
            pts[m:, :, 1] *= -1.0  # reflections
        return pts
    if (n, p) == (3, 1):
        th = np.arange(0.0, np.pi + _FINE_STEP, _FINE_STEP)
        ph = np.arange(0.0, 2 * np.pi, _FINE_STEP)
        st, ct = np.sin(th), np.cos(th)
        cp, sp = np.cos(ph), np.sin(ph)
        # outer products give the full mesh without materializing angle pairs
        pts = np.empty((th.size, ph.size, 3, 1))
        np.multiply.outer(st, cp, out=pts[:, :, 0, 0])
        np.multiply.outer(st, sp, out=pts[:, :, 1, 0])
        pts[:, :, 2, 0] = ct[:, None]
        return pts.reshape(-1, 3, 1)
    if (n, p) in ((3, 2), (3, 3)):
        a = np.arange(0.0, 2 * np.pi, _COARSE_STEP)
        b = np.arange(0.0, np.pi + _COARSE_STEP, _COARSE_STEP)
        g = np.arange(0.0, 2 * np.pi, _COARSE_STEP)
        Rab = np.einsum("aij,bjk->abik", _rotations_z(a), _rotations_y(b))
        m = a.size * b.size * g.size
        pts = np.empty(((p - 1) * m, 3, p))  # p = 3 adds the reflected component
        rotations = pts[:m].reshape(a.size, b.size, g.size, 3, p)
        np.einsum("abij,cjk->abcik", Rab, _rotations_z(g)[:, :, :p], out=rotations)
        if p == 3:
            pts[m:] = pts[:m]
            pts[m:, :, 2] *= -1.0  # second connected component
        return pts
    return None


def _smallest(values: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m smallest values, in stable-argsort order."""
    if values.size <= m:
        return np.argsort(values, kind="stable")
    threshold = values[np.argpartition(values, m - 1)[m - 1]]
    near = np.flatnonzero(values <= threshold)
    return near[np.argsort(values[near], kind="stable")][:m]


def _grid_starts(prob: ElsProblem, max_starts: int = 20) -> np.ndarray:
    """Best grid points by a penalized merit, thinned by pairwise distance.

    Returns an (m, n, p) stack with m <= max_starts (m = 0 without a grid).
    """
    pts = _grid_points(prob.n, prob.p)
    if pts is None:
        return np.zeros((0, prob.n, prob.p))
    N = pts.shape[0]
    flat = pts.reshape(N, -1)
    merit = flat @ prob.A0.T.ravel(order="C")  # tr(A0 X) = sum(A0.T * X)
    for c in prob.constraints:
        vals = flat @ c.A.T.ravel(order="C").T
        viol = np.zeros(N)
        if math.isfinite(c.upper):
            viol = np.maximum(vals - c.upper, viol)
        if math.isfinite(c.lower):
            viol = np.maximum(c.lower - vals, viol)
        merit = merit + 1e3 * viol
    starts: list[np.ndarray] = []
    for idx in _smallest(merit, 40 * max_starts):
        X = pts[idx]
        if all(np.linalg.norm(X - S) > 0.15 for S in starts):
            starts.append(X)
            if len(starts) >= max_starts:
                break
    return np.array(starts).reshape(-1, prob.n, prob.p)


@dataclass(frozen=True)
class OracleDiagnostics:
    """Deterministic counters of one oracle run."""

    starts: int  # random restarts plus grid starts
    feasible_starts: int  # starts whose polish gave a feasible candidate
    winner: tuple[str, int] | None  # ("restart" | "grid", index) of the best start

    def as_dict(self) -> dict:
        winner = None if self.winner is None else {"kind": self.winner[0], "index": self.winner[1]}
        return {"starts": self.starts, "feasible_starts": self.feasible_starts, "winner": winner}


def oracle_solve(
    prob: ElsProblem,
    restarts: int = 40,
    seed: int = 0,
) -> tuple[float, StiefelPoint, OracleDiagnostics]:
    """Best feasible local value over multistart search plus grid sweeps.

    The random restarts descend together as one (R, n, p) stack through the
    penalty schedule, the grid starts as a second stack through its last two
    stages; each descended point is then polished on its own.  Deterministic
    given (restarts, seed); ties broken by lowest restart index, then grid
    index.  Raises NoFeasiblePoint, carrying the diagnostics, when no
    feasible candidate is found.
    """
    n, p = prob.n, prob.p
    mats = prob.trace_matrices()
    lower, upper = prob.bounds()
    starts = np.array(
        [random_stiefel(n, p, np.random.default_rng([seed, r])) for r in range(restarts)]
    ).reshape(-1, n, p)
    grid = _grid_starts(prob)

    best: StiefelPoint | None = None
    best_value = math.inf
    winner = None
    feasible = 0
    for kind, X, schedule in (("restart", starts, _RHO_SCHEDULE), ("grid", grid, (1e3, 1e4))):
        for rho in schedule:
            X = _penalty_descent(mats, lower, upper, X, rho)
        for i, Xi in enumerate(X):
            point = _polish(prob, Xi)
            if point is None:
                continue
            feasible += 1
            value = prob.objective(point.X)
            if value < best_value:
                best, best_value, winner = point, value, (kind, i)

    diagnostics = OracleDiagnostics(len(starts) + len(grid), feasible, winner)
    if best is None:
        raise NoFeasiblePoint(
            f"no feasible point found in {restarts} restarts (inconclusive)", diagnostics
        )
    return best_value, best, diagnostics


def assignment_oracle(A0) -> tuple[float, tuple[int, ...]]:
    """Exhaustive minimum of tr(A0 @ X) over all permutation matrices.

    Returns (value, perm) with perm[j] = i meaning X[i, j] = 1, i.e. the
    permutation written in 0-based column-to-row form.
    """
    A0 = np.asarray(A0, dtype=float)
    n = A0.shape[0]
    if A0.shape != (n, n):
        raise ValueError("assignment objective must be square")
    best_value = math.inf
    best_perm: tuple[int, ...] = tuple(range(n))
    for perm in itertools.permutations(range(n)):
        value = float(sum(A0[j, perm[j]] for j in range(n)))
        if value < best_value:
            best_value, best_perm = value, perm
    return best_value, best_perm


def minimax_oracle(mm: MinimaxProblem, restarts: int = 40, seed: int = 0) -> float:
    """Ground-truth minimax value via the branch decomposition.

    Each branch is a plain instance handled by ``oracle_solve``; infeasible
    branches are skipped.
    """
    best = math.inf
    found = False
    for q in range(mm.m):
        sub = piece_subproblem(mm, q)
        try:
            value, _, _ = oracle_solve(sub, restarts=restarts, seed=seed)
        except NoFeasiblePoint:
            continue
        found = True
        best = min(best, value + mm.pieces[q].c)
    if not found:
        raise NoFeasiblePoint("every branch is infeasible for the oracle")
    return best
