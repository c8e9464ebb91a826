"""Independent ground truth at desk scale.

Multistart local search on the manifold: smooth penalized projected-gradient
descent with an increasing penalty schedule, followed by an exact Newton
polish of the active-set KKT system (machine-precision feasibility).  For
tiny dimensions (spheres and frames in R^2/R^3, where the interesting
relaxation-gap instances live) an angular grid is swept as well and its
best points are polished.  The restarts descend together as one stack, so
each backtracking round costs one batched SVD however many restarts are
still moving.  The descended points are polished as stacks grouped by
active set: one batched SVD per Newton step of each group, one
pseudo-inverse of the active rows per group for the restores.  Everything
is deterministic given (restarts, seed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoFeasiblePoint
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


def _lstsq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions, (q, N, K), of the systems
    ``A[i] @ Z = B[i]`` for the (q, M, N) stack ``A`` and (q, M, K) ``B``.

    One batched SVD; singular values at or below ``eps * max(M, N) *
    sigma_max`` count as zero, the default cutoff of ``np.linalg.lstsq``.
    """
    q, M, N = A.shape
    if not (q and M and N):
        return np.zeros((q, N, B.shape[2]))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > np.finfo(float).eps * max(M, N) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return np.swapaxes(Vt, 1, 2) @ (inv[:, :, None] * (np.swapaxes(U, 1, 2) @ B))


def _vec(Y: np.ndarray) -> np.ndarray:
    """Column-major vectorization of every (n, p) matrix of a stack."""
    return np.swapaxes(Y, -1, -2).reshape(*Y.shape[:-2], -1)


def _active_sides(values, lower, upper, tol: float) -> np.ndarray:
    """Which bound of each constraint is judged active at each point.

    ``values`` is the (R, k) array of constraint values.  Returns (R, k)
    codes: 0 inactive, 1 held at the lower bound (equalities always),
    2 held at the upper bound, which is tried before the lower one.
    """

    def near(bound):
        return np.isfinite(bound) & (np.abs(values - bound) <= tol * (1.0 + np.abs(bound)))

    return np.where(lower == upper, 1, np.where(near(upper), 2, np.where(near(lower), 1, 0)))


def _kkt_polish(
    prob: ElsProblem,
    X: np.ndarray,
    act: np.ndarray,
    rhs: np.ndarray,
    max_iter: int = 40,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton solve of the active-set stationarity system at every point of
    the (q, n, p) stack ``X``, all with constraints ``act`` held at ``rhs``.

    Unknowns are (X, lambda, Lambda); equations are stationarity, the active
    constraints at their bounds, and orthonormality.  Minimum-norm
    least-squares steps keep the iteration defined when the constraint
    gradients are dependent.  Each point keeps its own line search and
    stopping rule.  Returns the polished stack and a mask of the points
    whose iteration converged.
    """
    q, n, p = X.shape
    npp = n * p
    A = prob.constraint_matrices()[act]
    a = len(act)
    basis = np.array(symmetric_basis(p))
    m = len(basis)
    iu, ju = np.triu_indices(p)  # the order of symmetric_basis
    rows = A.reshape(a, npp)  # vec(A_i.T), the gradient of tr(A_i X)
    scale = 1.0 + float(np.linalg.norm(prob.A0))
    D = npp + a + m

    def sym_cols(Xs):
        return np.swapaxes(_vec(Xs[:, None] @ basis), 1, 2)  # vec(X S_t) as columns

    def system(Xs, lam, lcoef):
        Lam = np.einsum("qt,tij->qij", lcoef, basis)
        stat = prob.A0.T + Xs @ Lam + np.einsum("qa,aji->qij", lam, A)
        cons = np.trace(A @ Xs[:, None], axis1=2, axis2=3) - rhs
        gram = np.swapaxes(Xs, 1, 2) @ Xs - np.eye(p)
        F = np.concatenate([_vec(stat), cons, gram[:, iu, ju]], axis=1)
        return F, Lam

    def jacobian(Xs, Lam):
        J = np.zeros((len(Xs), D, D))
        kron = Lam[:, :, None, :, None] * np.eye(n)[:, None, :]  # kron(Lam, I_n)
        J[:, :npp, :npp] = kron.reshape(-1, npp, npp)
        J[:, :npp, npp : npp + a] = rows.T
        J[:, :npp, npp + a :] = sym_cols(Xs)
        J[:, npp : npp + a, :npp] = rows
        # d gram[i, j] = X[:, j] in column i plus X[:, i] in column j
        Xt, t = np.swapaxes(Xs, 1, 2), np.arange(m)
        gram = np.zeros((len(Xs), m, p, n))
        gram[:, t, iu] = Xt[:, ju]
        gram[:, t, ju] += Xt[:, iu]
        J[:, npp + a :, :npp] = gram.reshape(-1, m, npp)
        return J

    X = X.copy()
    cols = np.concatenate([np.broadcast_to(rows.T, (q, npp, a)), sym_cols(X)], axis=2)
    ml = _lstsq(cols, np.broadcast_to(-prob.A0.reshape(npp, 1), (q, npp, 1)))[:, :, 0]
    lam, lcoef = ml[:, :a], ml[:, a:]
    F, Lam = system(X, lam, lcoef)
    fnorm = np.linalg.norm(F, axis=1)
    ok = np.ones(q, dtype=bool)
    for _ in range(max_iter):
        live = np.flatnonzero(ok & (fnorm > 1e-13 * scale))
        if not live.size:
            break
        step = _lstsq(jacobian(X[live], Lam[live]), -F[live, :, None])[:, :, 0]
        dX = np.swapaxes(step[:, :npp].reshape(-1, p, n), 1, 2)
        trying = np.arange(live.size)  # positions in live still halving
        s = 1.0
        for _ in range(30):
            idx = live[trying]
            X_try = X[idx] + s * dX[trying]
            lam_try = lam[idx] + s * step[trying, npp : npp + a]
            lcoef_try = lcoef[idx] + s * step[trying, npp + a :]
            F_try, Lam_try = system(X_try, lam_try, lcoef_try)
            fn_try = np.linalg.norm(F_try, axis=1)
            acc = (fn_try <= (1.0 - 0.3 * s) * fnorm[idx]) | (fn_try <= 1e-13 * scale)
            won = idx[acc]
            X[won], lam[won], lcoef[won] = X_try[acc], lam_try[acc], lcoef_try[acc]
            F[won], Lam[won], fnorm[won] = F_try[acc], Lam_try[acc], fn_try[acc]
            trying = trying[~acc]
            if not trying.size:
                break
            s *= 0.5
        ok[live[trying]] = False  # no step accepted: that iteration fails
    return X, ok & (fnorm <= 1e-11 * scale)


def _restore_feasibility(
    prob: ElsProblem,
    X: np.ndarray,
    act: np.ndarray,
    rhs: np.ndarray,
    max_iter: int = 300,
) -> np.ndarray:
    """Alternating projections onto the active affine rows and the manifold,
    for every point of the (q, n, p) stack ``X``; each point stops on its own."""
    if not len(act):
        return _polar(X)
    q, n, p = X.shape
    A = prob.constraint_matrices()[act]
    # the min-norm correction of the row residual r is sum_i r_i C_i, with
    # C_i column i of the rows' pseudo-inverse as an (n, p) matrix
    pinv = _lstsq(A.reshape(1, len(act), n * p), np.eye(len(act))[None])[0]
    C = np.swapaxes(pinv.T.reshape(-1, p, n), 1, 2)
    X = X.copy()
    live = np.arange(q)
    r = rhs - np.trace(A @ X[:, None], axis1=2, axis2=3)
    for _ in range(max_iter):
        if not live.size:
            break
        Xl = _polar(X[live] + np.einsum("qa,aij->qij", r, C))
        X[live] = Xl
        r = rhs - np.trace(A @ Xl[:, None], axis1=2, axis2=3)
        moving = np.abs(r).max(axis=1) > 1e-13
        live, r = live[moving], r[moving]
    return X


def _polish(prob: ElsProblem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polish the (R, n, p) stack of descended points, as stacks grouped by
    active set.

    The candidates of a point are, in order, the KKT polish, the restore
    onto its active rows and, when an inequality is active, the restore onto
    the equality rows alone.  Returns ``(best, value)``: each point's first
    feasible candidate of least objective and that objective, ``inf`` where
    no candidate is feasible.
    """
    mats = prob.trace_matrices()
    lower, upper = prob.bounds()
    best = X.copy()
    value = np.full(len(X), math.inf)

    def consider(idx, Xc, ok=True):
        vals = np.trace(mats @ Xc[:, None], axis1=2, axis2=3)
        orth = np.linalg.norm(np.swapaxes(Xc, 1, 2) @ Xc - np.eye(prob.p), axis=(1, 2))
        lin = bound_violations(vals[:, 1:], lower, upper)
        feasible = ok & (orth <= _FEAS_TOL) & np.all(lin <= _FEAS_TOL, axis=1)
        better = feasible & (vals[:, 0] < value[idx])
        best[idx[better]], value[idx[better]] = Xc[better], vals[better, 0]

    sides = _active_sides(np.trace(mats[1:] @ X[:, None], axis1=2, axis2=3), lower, upper, tol=3e-3)
    keys, group = np.unique(sides, axis=0, return_inverse=True)
    for g, key in enumerate(keys):
        idx = np.flatnonzero(group == g)
        act = np.flatnonzero(key)
        rhs = np.where(key[act] == 2, upper[act], lower[act])
        consider(idx, *_kkt_polish(prob, X[idx], act, rhs))
        consider(idx, _restore_feasibility(prob, X[idx], act, rhs))
    equality = lower == upper
    idx = np.flatnonzero(np.any(sides[:, ~equality] != 0, axis=1))
    eq = np.flatnonzero(equality)
    consider(idx, _restore_feasibility(prob, X[idx], eq, lower[eq]))
    return best, value


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
    stages; all descended points are then polished together, as stacks
    grouped by active set.  Deterministic given (restarts, seed); ties
    broken by lowest restart index, then grid index.  Raises InvalidInput
    for negative ``restarts`` and NoFeasiblePoint, carrying the diagnostics,
    when no feasible candidate is found.
    """
    if restarts < 0:
        raise InvalidInput(f"restarts must be nonnegative, got {restarts}")
    n, p = prob.n, prob.p
    mats = prob.trace_matrices()
    lower, upper = prob.bounds()
    starts = np.array(
        [random_stiefel(n, p, np.random.default_rng([seed, r])) for r in range(restarts)]
    ).reshape(-1, n, p)
    grid = _grid_starts(prob)
    for rho in _RHO_SCHEDULE:
        starts = _penalty_descent(mats, lower, upper, starts, rho)
    for rho in (1e3, 1e4):
        grid = _penalty_descent(mats, lower, upper, grid, rho)

    best, values = _polish(prob, np.concatenate([starts, grid]))
    feasible = int(np.count_nonzero(np.isfinite(values)))
    if not feasible:
        raise NoFeasiblePoint(
            f"no feasible point found in {restarts} restarts (inconclusive)",
            OracleDiagnostics(len(values), 0, None),
        )
    w = int(np.argmin(values))  # the first of the least values
    winner = ("restart", w) if w < len(starts) else ("grid", w - len(starts))
    diagnostics = OracleDiagnostics(len(values), feasible, winner)
    return float(values[w]), residuals(prob, best[w]), diagnostics


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
    branches are skipped.  Raises InvalidInput for negative ``restarts``.
    """
    if restarts < 0:
        raise InvalidInput(f"restarts must be nonnegative, got {restarts}")
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
