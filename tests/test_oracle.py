"""Tests for the multistart search oracle and the assignment brute force."""

import math

import numpy as np
import pytest

from els import oracle
from els.errors import NoFeasiblePoint
from els.fixtures import build_fixture
from els.linalg import random_stiefel
from els.oracle import assignment_oracle, minimax_oracle, oracle_solve
from els.problem import ElsProblem, LinearConstraint, MinimaxPiece, MinimaxProblem
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
