"""Tests for the multistart search oracle and the assignment brute force."""

import math

import numpy as np
import pytest

from els import oracle
from els.errors import NoFeasiblePoint
from els.fixtures import build_fixture
from els.linalg import random_stiefel, symmetric_basis
from els.oracle import assignment_oracle, minimax_oracle, oracle_solve
from els.problem import (
    ElsProblem,
    LinearConstraint,
    MinimaxPiece,
    MinimaxProblem,
    StiefelPoint,
    residuals,
)
from els.solver import solve_cr, solve_ls_svd


def test_oracle_two_sign_constraints_on_circle():
    prob = build_fixture("example-4.1")
    value, point, _ = oracle_solve(prob, restarts=10, seed=0)
    assert value == pytest.approx(1.0, abs=1e-9)
    # minimizers are the axis points (0,-1) and (-1,0)
    x = np.abs(point.X.ravel())
    assert np.allclose(sorted(x), [0.0, 1.0], atol=1e-8)


def test_oracle_forced_zero_entry_instance():
    prob = build_fixture("example-4.2")
    value, point, _ = oracle_solve(prob, restarts=10, seed=0)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert point.feasible(1e-8)


def test_oracle_gap_instance_margin():
    # the relaxation value is -2; on the manifold the optimum is -1
    prob = build_fixture("example-4.3")
    value, point, _ = oracle_solve(prob, restarts=10, seed=0)
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert point.feasible(1e-8)


def test_oracle_matches_svd_unconstrained():
    rng = np.random.default_rng(0)
    for i in range(5):
        n = int(rng.integers(3, 7))
        p = int(rng.integers(1, n))
        A0 = rng.standard_normal((p, n))
        prob = ElsProblem(n=n, p=p, A0=A0)
        value, _, _ = oracle_solve(prob, restarts=15, seed=i)
        _, v = solve_ls_svd(A0)
        assert value == pytest.approx(v, abs=1e-6)


def test_oracle_value_upper_bounds_relaxation():
    from tests.test_solver import random_feasible_problem

    rng = np.random.default_rng(1)
    for i in range(8):
        prob, _ = random_feasible_problem(rng, n_max=5)
        value, point, _ = oracle_solve(prob, restarts=20, seed=i)
        assert point.feasible(1e-8)
        relax = solve_cr(prob)
        assert value >= relax.value - 1e-6


def test_oracle_deterministic():
    prob = build_fixture("example-5.1")
    v1, p1, _ = oracle_solve(prob, restarts=7, seed=42)
    v2, p2, _ = oracle_solve(prob, restarts=7, seed=42)
    assert v1 == v2
    assert np.array_equal(p1.X, p2.X)


def test_oracle_no_feasible_point():
    prob = ElsProblem(
        n=2,
        p=1,
        A0=np.array([[1.0, 0.0]]),
        constraints=[LinearConstraint(A=np.array([[1.0, 0.0]]), lower=2.0)],
    )
    with pytest.raises(NoFeasiblePoint):
        oracle_solve(prob, restarts=5, seed=0)


def test_assignment_oracle_examples():
    value, perm = assignment_oracle(np.eye(2))
    assert value == 0.0 and perm == (1, 0)
    value, perm = assignment_oracle(np.zeros((3, 3)))
    assert value == 0.0 and perm == (0, 1, 2)


def test_assignment_oracle_agrees_with_search():
    rng = np.random.default_rng(2)
    A0 = rng.standard_normal((4, 4))
    brute, _ = assignment_oracle(A0)
    prob = build_fixture("assignment", A0=A0)
    searched, point, _ = oracle_solve(prob, restarts=150, seed=0)
    assert point.feasible(1e-8)
    assert searched == pytest.approx(brute, abs=1e-6)


def test_minimax_oracle_single_piece():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((1, 5))
    mm = MinimaxProblem(
        base=ElsProblem(n=5, p=1, A0=np.zeros((1, 5))),
        pieces=[MinimaxPiece(A=A, c=0.3)],
    )
    _, v = solve_ls_svd(A)
    assert minimax_oracle(mm, restarts=15, seed=0) == pytest.approx(v + 0.3, abs=1e-6)


# ---------------------------------------------------------------------------
# The stacked descent against a serial reference.
# ---------------------------------------------------------------------------

def _serial_merit(prob, X, rho):
    viol = [c.violation(v) for c, v in zip(prob.constraints, prob.constraint_values(X))]
    return prob.objective(X) + rho * float(np.sum(np.square(viol)))


def _serial_merit_grad(prob, X, rho):
    G = prob.A0.T.copy()
    for c, v in zip(prob.constraints, prob.constraint_values(X)):
        signed = max(v - c.upper, 0.0) - max(c.lower - v, 0.0)
        if signed != 0.0:
            G += 2.0 * rho * signed * c.A.T
    return G


def _serial_descent(prob, X, rho, max_iter=150):
    """One point at a time: the descent the stacked one must reproduce."""
    scale = 1.0 + float(np.linalg.norm(prob.A0))
    alpha = 1.0 / (1.0 + math.sqrt(rho))
    f = _serial_merit(prob, X, rho)
    for _ in range(max_iter):
        G = _serial_merit_grad(prob, X, rho)
        W = X.T @ G
        PG = G - X @ (0.5 * (W + W.T))
        gnorm2 = float(np.sum(PG * PG))
        if math.sqrt(gnorm2) <= 1e-10 * scale:
            break
        accepted = False
        for _ in range(40):
            U, _, Vt = np.linalg.svd(X - alpha * PG, full_matrices=False)
            X_try = U @ Vt
            f_try = _serial_merit(prob, X_try, rho)
            if f_try <= f - 1e-4 * alpha * gnorm2:
                X, f = X_try, f_try
                alpha = min(alpha * 1.5, 1e3)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return X


def _criterion5_like(rng, n, p, types):
    """Feasible instance around a random point, one bound type per row."""
    Xbar = random_stiefel(n, p, rng)
    cons = []
    for typ in types:
        A = rng.standard_normal((p, n))
        v = float(np.trace(A @ Xbar))
        lower, upper = [(v, v), (-math.inf, v + 0.3), (v - 0.3, math.inf), (v - 0.2, v + 0.2)][typ]
        cons.append(LinearConstraint(A=A, lower=lower, upper=upper))
    return ElsProblem(n=n, p=p, A0=rng.standard_normal((p, n)), constraints=cons)


def _descent_cases():
    rng = np.random.default_rng(55)
    return [
        ("(6,2,2)", _criterion5_like(rng, 6, 2, (1, 3))),
        ("(6,2,3)", _criterion5_like(rng, 6, 2, (2, 3, 0))),
        ("example-4.1", build_fixture("example-4.1")),
        ("example-4.2", build_fixture("example-4.2")),
        ("example-4.3", build_fixture("example-4.3")),
        ("unconstrained", ElsProblem(n=5, p=2, A0=rng.standard_normal((2, 5)))),
    ]


@pytest.mark.parametrize("name,prob", _descent_cases(), ids=[c[0] for c in _descent_cases()])
def test_stacked_descent_reproduces_serial(name, prob):
    mats = prob.trace_matrices()
    lower, upper = prob.bounds()
    restarts = 6
    starts = np.array(
        [random_stiefel(prob.n, prob.p, np.random.default_rng([9, r])) for r in range(restarts)]
    )
    grid = oracle._grid_starts(prob, max_starts=4)
    for X0, schedule in ((starts, oracle._RHO_SCHEDULE), (grid, (1e3, 1e4))):
        stacked, serial = X0, list(X0)
        for rho in schedule:
            stacked = oracle._penalty_descent(mats, lower, upper, stacked, rho)
            serial = [_serial_descent(prob, X, rho) for X in serial]
            assert stacked.shape == X0.shape
            for X_stacked, X_serial in zip(stacked, serial):
                assert np.array_equal(X_stacked, X_serial), f"{name}: rho={rho}"


def test_stacked_merit_and_gradient_match_serial():
    for _, prob in _descent_cases():
        mats = prob.trace_matrices()
        lower, upper = prob.bounds()
        rng = np.random.default_rng(prob.n * 10 + prob.p)
        X = np.array([random_stiefel(prob.n, prob.p, rng) for _ in range(5)])
        for rho in oracle._RHO_SCHEDULE:
            f = oracle._merits(mats, lower, upper, X, rho)
            G = oracle._merit_grads(mats, lower, upper, X, rho)
            for i in range(X.shape[0]):
                assert f[i] == _serial_merit(prob, X[i], rho)
                assert np.array_equal(G[i], _serial_merit_grad(prob, X[i], rho))


def test_empty_descent_stack():
    prob = build_fixture("example-4.2")
    empty = np.zeros((0, prob.n, prob.p))
    out = oracle._penalty_descent(prob.trace_matrices(), *prob.bounds(), empty, 10.0)
    assert out.shape == empty.shape


# ---------------------------------------------------------------------------
# The stacked polish against the per-point reference.
# ---------------------------------------------------------------------------

# The per-point polish the stacked one replaced, kept unchanged as the
# reference.  lstsq takes no stacks, so the two agree to rounding only.
_FEAS_TOL = oracle._FEAS_TOL
_polar = oracle._polar


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




def _descended(prob, restarts, seed):
    """The restart and grid points oracle_solve hands to the polish."""
    mats = prob.trace_matrices()
    lower, upper = prob.bounds()
    X = np.array(
        [random_stiefel(prob.n, prob.p, np.random.default_rng([seed, r])) for r in range(restarts)]
    ).reshape(-1, prob.n, prob.p)
    grid = oracle._grid_starts(prob)
    for rho in oracle._RHO_SCHEDULE:
        X = oracle._penalty_descent(mats, lower, upper, X, rho)
    for rho in (1e3, 1e4):
        grid = oracle._penalty_descent(mats, lower, upper, grid, rho)
    return np.concatenate([X, grid])


def _assert_polish_agrees(prob, X):
    best, values = oracle._polish(prob, X)
    assert best.shape == X.shape and values.shape == (len(X),)
    for i, Xi in enumerate(X):
        ref = _polish(prob, Xi)
        if ref is None:
            assert values[i] == math.inf, f"point {i}"
            continue
        v = prob.objective(ref.X)
        assert abs(values[i] - v) <= 1e-12 * (1.0 + abs(v)), f"point {i}: {values[i]} vs {v}"
        assert values[i] == prob.objective(best[i])
        assert residuals(prob, best[i]).feasible(oracle._FEAS_TOL)


_FIXTURES = ("example-4.1", "example-4.2", "example-4.3", "example-5.1", "example-5.2")


@pytest.mark.parametrize("name", _FIXTURES)
def test_stacked_polish_matches_reference_on_fixtures(name):
    prob = build_fixture(name)
    _assert_polish_agrees(prob, _descended(prob, restarts=8, seed=0))


@pytest.mark.parametrize("block", range(4))
def test_stacked_polish_matches_reference_on_criterion5_instances(block):
    from tests.test_solver import random_feasible_problem

    rng = np.random.default_rng([505, block])
    for i in range(5):
        prob, _ = random_feasible_problem(rng, n_max=6, k_max=3)
        _assert_polish_agrees(prob, _descended(prob, restarts=6, seed=i))


def test_empty_polish_stack():
    prob = build_fixture("example-4.2")
    best, values = oracle._polish(prob, np.zeros((0, prob.n, prob.p)))
    assert best.shape == (0, prob.n, prob.p) and values.shape == (0,)


def _lstsq_cases():
    rng = np.random.default_rng(21)

    def low_rank(q, m, n, r):
        return rng.standard_normal((q, m, r)) @ rng.standard_normal((q, r, n))

    tall = rng.standard_normal((3, 7, 4))
    tall[1, :, 2] = tall[1, :, 0]  # repeated column
    return [
        ("rank-deficient square", low_rank(4, 6, 6, 3)),
        ("rank-deficient wide", low_rank(3, 3, 8, 2)),
        ("rank-deficient tall", tall),
        ("zero matrices", np.zeros((2, 4, 3))),
        ("full rank", rng.standard_normal((5, 5, 5))),
        ("zero columns", np.zeros((3, 4, 0))),
        ("zero rows", np.zeros((3, 0, 4))),
        ("empty stack", np.zeros((0, 4, 3))),
    ]


@pytest.mark.parametrize("name,A", _lstsq_cases(), ids=[c[0] for c in _lstsq_cases()])
def test_stacked_lstsq_matches_numpy(name, A):
    q, M, N = A.shape
    B = np.random.default_rng(M * 10 + N).standard_normal((q, M, 2))
    Z = oracle._lstsq(A, B)
    assert Z.shape == (q, N, 2)
    for Ai, Bi, Zi in zip(A, B, Z):
        expect = np.linalg.lstsq(Ai, Bi, rcond=None)[0]
        assert np.allclose(Zi, expect, rtol=1e-10, atol=1e-12), name


def test_negative_restarts_are_rejected(monkeypatch):
    from els import pipeline
    from els.errors import InvalidInput

    prob = build_fixture("example-4.2")
    with pytest.raises(InvalidInput, match="restarts"):
        oracle_solve(prob, restarts=-3)
    mm = MinimaxProblem(base=prob, pieces=[MinimaxPiece(A=prob.A0, c=0.0)])
    with pytest.raises(InvalidInput, match="restarts"):
        minimax_oracle(mm, restarts=-1)

    def no_relaxation(*args, **kwargs):
        raise AssertionError("the relaxation ran before the restarts were checked")

    monkeypatch.setattr(pipeline, "solve_cr", no_relaxation)
    with pytest.raises(InvalidInput, match="restarts"):
        pipeline.solve_report(prob, with_oracle=True, restarts=-3)
    monkeypatch.undo()
    # without the oracle the restart count is unused; zero restarts stay legal
    assert pipeline.solve_report(prob, restarts=-3)["oracle"] is None
    value, _, diag = oracle_solve(build_fixture("example-4.1"), restarts=0)
    assert diag.starts == len(oracle._grid_starts(build_fixture("example-4.1"))) > 0
    assert value == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Grids and start selection.
# ---------------------------------------------------------------------------

def _concatenated_grid(n, p):
    """The grid as built by stacking and concatenating (p = 2 reference)."""
    if (n, p) == (2, 2):
        t = np.arange(0.0, 2 * np.pi, oracle._FINE_STEP)
        c, s = np.cos(t), np.sin(t)
        rot = np.stack([np.stack([c, -s], 1), np.stack([s, c], 1)], axis=1)
        refl = rot.copy()
        refl[:, :, 1] *= -1.0
        return np.concatenate([rot, refl])
    a = np.arange(0.0, 2 * np.pi, oracle._COARSE_STEP)
    b = np.arange(0.0, np.pi + oracle._COARSE_STEP, oracle._COARSE_STEP)
    g = np.arange(0.0, 2 * np.pi, oracle._COARSE_STEP)
    Rab = np.einsum("aij,bjk->abik", oracle._rotations_z(a), oracle._rotations_y(b))
    R = np.einsum("abij,cjk->abcik", Rab, oracle._rotations_z(g)).reshape(-1, 3, 3)
    return R[:, :, :p]


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_grid_built_once_and_read_only(n, p):
    pts = oracle._grid_points(n, p)
    assert oracle._grid_points(n, p) is pts
    assert np.array_equal(pts, oracle._build_grid(n, p))
    assert pts.flags.c_contiguous and not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 2.0
    norms = np.einsum("nij,nik->njk", pts[::997], pts[::997])
    assert np.allclose(norms, np.eye(p), atol=1e-12)
    if (n, p) in ((2, 2), (3, 2)):
        assert np.array_equal(pts, _concatenated_grid(n, p))
    assert oracle._grid_points(4, 2) is None


def test_smallest_matches_stable_argsort_prefix():
    rng = np.random.default_rng(8)
    for values in (
        np.round(rng.standard_normal(5000), 1),  # many ties at the threshold
        rng.standard_normal(3000),
        np.zeros(2000),  # all ties
        np.round(rng.standard_normal(50), 1),  # fewer values than requested
    ):
        for m in (1, 37, 800):
            expect = np.argsort(values, kind="stable")[:m]
            assert np.array_equal(oracle._smallest(values, m), expect)


def test_grid_starts_all_ties_take_the_first_points():
    prob = ElsProblem(n=3, p=2, A0=np.zeros((2, 3)))
    pts = oracle._grid_points(3, 2)
    starts = oracle._grid_starts(prob)
    expect = []
    for X in pts[:800]:  # every merit is 0: the stable order is the index order
        if all(np.linalg.norm(X - S) > 0.15 for S in expect):
            expect.append(X)
            if len(expect) == 20:
                break
    assert np.array_equal(starts, np.array(expect))


# ---------------------------------------------------------------------------
# Diagnostics.
# ---------------------------------------------------------------------------

def test_all_ties_winner_is_restart_zero():
    prob = ElsProblem(n=3, p=2, A0=np.zeros((2, 3)))
    value, point, diag = oracle_solve(prob, restarts=5, seed=1)
    assert value == 0.0
    assert diag.winner == ("restart", 0)
    assert diag.starts == 5 + len(oracle._grid_starts(prob)) == 25
    assert diag.feasible_starts == diag.starts
    assert diag.as_dict()["winner"] == {"kind": "restart", "index": 0}


def test_diagnostics_count_starts_and_name_the_winner():
    prob = build_fixture("example-4.1")
    value, point, diag = oracle_solve(prob, restarts=6, seed=0)
    assert diag.starts == 6 + len(oracle._grid_starts(prob))
    assert 1 <= diag.feasible_starts <= diag.starts
    kind, index = diag.winner
    assert kind in ("restart", "grid")
    assert 0 <= index < (6 if kind == "restart" else diag.starts - 6)
    # repeat runs give the same counters
    assert oracle_solve(prob, restarts=6, seed=0)[2] == diag


def test_no_feasible_point_carries_diagnostics():
    prob = ElsProblem(
        n=2,
        p=1,
        A0=np.array([[1.0, 0.0]]),
        constraints=[LinearConstraint(A=np.array([[1.0, 0.0]]), lower=2.0)],
    )
    with pytest.raises(NoFeasiblePoint) as info:
        oracle_solve(prob, restarts=5, seed=0)
    diag = info.value.diagnostics
    assert diag.feasible_starts == 0 and diag.winner is None
    assert diag.as_dict() == {"starts": diag.starts, "feasible_starts": 0, "winner": None}
    assert diag.starts >= 5
