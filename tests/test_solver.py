"""Tests for the barrier solver and the closed-form k=0 route."""

import math
from fractions import Fraction

import numpy as np
import pytest

from els.fixtures import build_fixture
from els.linalg import random_stiefel
from els.problem import ElsProblem, LinearConstraint, MinimaxPiece, MinimaxProblem
from els.solver import SolverConfig, _BallProgram, _Row, solve_cr, solve_epigraph, solve_ls_svd


def random_feasible_problem(rng, n_max=6, k_max=3, equalities=True):
    """Instance that is feasible by construction around a random point."""
    n = int(rng.integers(3, n_max + 1))
    k = int(rng.integers(0, min(k_max, n - 1) + 1))
    p = int(rng.integers(1, n - k + 1))
    A0 = rng.standard_normal((p, n))
    Xbar = random_stiefel(n, p, rng)
    cons = []
    for _ in range(k):
        A = rng.standard_normal((p, n))
        v = float(np.trace(A @ Xbar))
        typ = int(rng.integers(0, 4)) if equalities else int(rng.integers(1, 4))
        if typ == 0:
            cons.append(LinearConstraint(A=A, lower=v, upper=v))
        elif typ == 1:
            cons.append(LinearConstraint(A=A, upper=v + float(rng.uniform(0.0, 0.6))))
        elif typ == 2:
            cons.append(LinearConstraint(A=A, lower=v - float(rng.uniform(0.0, 0.6))))
        else:
            cons.append(
                LinearConstraint(
                    A=A,
                    lower=v - float(rng.uniform(0.05, 0.5)),
                    upper=v + float(rng.uniform(0.05, 0.5)),
                )
            )
    return ElsProblem(n=n, p=p, A0=A0, constraints=cons), Xbar


def _reference_grad_hess(prog, z):
    """The barrier derivatives as dense matrices, with the ball's Hessian
    2 (Si (x) I + Si (x) X Si X.T + (Si X.T (x) X Si) K) built from Kronecker
    products and the commutation matrix K."""
    n, p = prog.n, prog.p
    X, _ = prog.unpack(z)
    Si = np.linalg.inv(np.eye(p) - X.T @ X)
    Si = 0.5 * (Si + Si.T)
    g = np.zeros(prog.dim)
    g[: n * p] = (2.0 * X @ Si).ravel(order="F")
    XSi = X @ Si
    Hx = 2.0 * np.kron(Si, np.eye(n))
    Hx += 2.0 * np.kron(Si, XSi @ X.T)
    Hx += 2.0 * np.kron(Si @ X.T, XSi) @ _commutation(n, p)
    H = np.zeros((prog.dim, prog.dim))
    H[: n * p, : n * p] = Hx
    if prog.m_in:
        s = prog.slacks(z)
        g += prog.R_in.T @ (prog._sign / s)
        H += (prog.R_in / s[:, None] ** 2).T @ prog.R_in
    return g, 0.5 * (H + H.T)


def _commutation(n, p):
    """K with K @ vec(V) = vec(V.T) for V of shape (n, p), column-stacked."""
    K = np.zeros((n * p, n * p))
    for i in range(n):
        for j in range(p):
            K[j + i * p, i + j * n] = 1.0
    return K


def test_barrier_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    n, p = 3, 2
    rows = [
        _Row(A=rng.standard_normal((p, n)), g=None, lower=-1.5, upper=2.0) for _ in range(2)
    ]
    prog = _BallProgram(n, p, 0, rng.standard_normal(n * p), rows)

    def phi(z):
        X, _ = prog.unpack(z)
        val = -math.log(np.linalg.det(np.eye(p) - X.T @ X))
        val -= float(np.sum(np.log(prog.slacks(z))))
        return val

    z = 0.1 * rng.standard_normal(prog.dim)
    assert prog.strictly_feasible(z)
    g = prog._grad(z, prog._ball(z))
    _, H = _reference_grad_hess(prog, z)
    eps = 1e-6
    for i in range(prog.dim):
        e = np.zeros(prog.dim)
        e[i] = eps
        assert g[i] == pytest.approx((phi(z + e) - phi(z - e)) / (2 * eps), abs=1e-5)
        gp = prog._grad(z + e, prog._ball(z + e))
        gm = prog._grad(z - e, prog._ball(z - e))
        assert np.allclose(H[:, i], (gp - gm) / (2 * eps), atol=1e-4)


def _dense_step(prog, z, rd, rp):
    """The Newton KKT step solved densely with the reference Hessian."""
    _, H = _reference_grad_hess(prog, z)
    m = prog.m_eq
    K = np.zeros((prog.dim + m, prog.dim + m))
    K[: prog.dim, : prog.dim] = H
    K[: prog.dim, prog.dim :] = prog.R_eq.T
    K[prog.dim :, : prog.dim] = prog.R_eq
    sol = np.linalg.solve(K, -np.concatenate([rd, rp]))
    return sol[: prog.dim], sol[prog.dim :]


def _exact_solve(A, b):
    """Gaussian elimination on object arrays of Fractions."""
    A = np.concatenate([A, b[:, None]], axis=1)
    N = A.shape[0]
    for j in range(N):
        piv = next(i for i in range(j, N) if A[i, j] != 0)
        A[[j, piv]] = A[[piv, j]]
        A[j] = A[j] / A[j, j]
        for i in range(N):
            if i != j and A[i, j] != 0:
                A[i] = A[i] - A[i, j] * A[j]
    return A[:, -1]


def _exact_dense_step(prog, z, rd, rp):
    """_dense_step in exact rational arithmetic on the same float data.

    Near the sphere or with a row at a tiny slack, the float64 dense solve
    itself is off by 2e-4 to 4e-2 relative in the cases below (its
    Hessian's condition number reaches 1e16), so they are checked against
    this one.
    """
    exact = np.vectorize(Fraction, otypes=[object])
    n, p = prog.n, prog.p
    X = exact(prog.unpack(z)[0])
    eye_p, eye_n = np.eye(p, dtype=int).astype(object), np.eye(n, dtype=int).astype(object)
    Si = np.array([_exact_solve(eye_p - X.T @ X, eye_p[:, j]) for j in range(p)]).T
    XSi = X @ Si
    Hx = 2 * np.kron(Si, eye_n) + 2 * np.kron(Si, XSi @ X.T)
    Hx = Hx + 2 * np.kron(Si @ X.T, XSi) @ _commutation(n, p).astype(int).astype(object)
    H = np.zeros((prog.dim, prog.dim), dtype=int).astype(object)
    H[: n * p, : n * p] = Hx
    if prog.m_in:
        R = exact(prog.R_in)
        s = exact(prog._sign) * (exact(prog.b_in) - R @ exact(z))
        H = H + (R / (s * s)[:, None]).T @ R
    m = prog.m_eq
    K = np.zeros((prog.dim + m, prog.dim + m), dtype=int).astype(object)
    K[: prog.dim, : prog.dim] = H
    K[: prog.dim, prog.dim :] = exact(prog.R_eq).T
    K[prog.dim :, : prog.dim] = exact(prog.R_eq)
    sol = _exact_solve(K, -exact(np.concatenate([rd, rp]))).astype(float)
    return sol[: prog.dim], sol[prog.dim :]


def _assert_step_matches_dense(prog, z, nu, t=3.0, rtol=1e-10, exact=False):
    """The structured Newton step and decrement equal the dense solve's,
    in float64 or, with ``exact``, in rational arithmetic."""
    assert prog.strictly_feasible(z)
    g_ref, H = _reference_grad_hess(prog, z)
    ball = prog._ball(z)
    # the gradient's rounding grows like 1 / (1 - ||X||^2) near the sphere
    X, _ = prog.unpack(z)
    grad_tol = 1e-14 / (1.0 - np.linalg.norm(X, 2) ** 2) * np.linalg.norm(g_ref)
    assert np.linalg.norm(prog._grad(z, ball) - g_ref) <= grad_tol
    rd, rp, _ = prog._residuals(z, nu, t, ball)
    dz, dnu = prog._newton_step(z, ball, rd, rp)
    dz_ref, dnu_ref = (_exact_dense_step if exact else _dense_step)(prog, z, rd, rp)
    assert np.linalg.norm(dz - dz_ref) <= rtol * np.linalg.norm(dz_ref)
    assert np.linalg.norm(dnu - dnu_ref) <= rtol * max(np.linalg.norm(dnu_ref), 1e-300)
    # the decrement dz.H.dz = -dz.rd + rp.dnu
    dec2 = float(rp @ dnu) - float(dz @ rd)
    assert dec2 == pytest.approx(float(rp @ dnu_ref) - float(dz_ref @ rd), rel=1e-9)
    if not exact:
        assert dec2 == pytest.approx(float(dz_ref @ H @ dz_ref), rel=1e-9)
    return dz


def _point_inside(rng, n, p, sigma_max):
    """z = vec(X) with X = U diag(sigma) V.T and the given largest sigma."""
    U = random_stiefel(n, p, rng)
    V = random_stiefel(p, p, rng)
    sigma = np.sort(rng.uniform(0.0, sigma_max, p))[::-1]
    sigma[0] = sigma_max
    return (U @ np.diag(sigma) @ V.T).ravel(order="F")


def _rows_around(rng, n, p, z, kinds, g=None, slack=0.5):
    """Rows of the given kinds ('upper', 'lower', 'both', 'equality') with
    slack at z; g is the w part of each row."""
    X = z[: n * p].reshape(n, p, order="F")
    rows = []
    for kind in kinds:
        A = rng.standard_normal((p, n))
        v = float(np.trace(A @ X)) + (float(g @ z[n * p :]) if g is not None else 0.0)
        bounds = {
            "upper": (-math.inf, v + slack),
            "lower": (v - slack, math.inf),
            "both": (v - slack, v + 2 * slack),
            "equality": (v + 0.01, v + 0.01),
        }[kind]
        rows.append(_Row(A=A, g=g, lower=bounds[0], upper=bounds[1]))
    return rows


def test_structured_step_matches_dense_kkt_one_sided_rows():
    rng = np.random.default_rng(10)
    for n, p in ((3, 2), (7, 3), (12, 4)):
        z = _point_inside(rng, n, p, 0.8)
        rows = _rows_around(rng, n, p, z, ("upper", "lower", "both"))
        prog = _BallProgram(n, p, 0, rng.standard_normal(n * p), rows)
        assert prog.m_in == 4 and prog.m_eq == 0
        _assert_step_matches_dense(prog, z, np.zeros(0))


def test_structured_step_matches_dense_kkt_with_equality_row():
    rng = np.random.default_rng(11)
    for n, p in ((4, 2), (9, 3)):
        z = _point_inside(rng, n, p, 0.7)
        rows = _rows_around(rng, n, p, z, ("equality", "upper", "both", "equality"))
        prog = _BallProgram(n, p, 0, rng.standard_normal(n * p), rows)
        assert prog.m_eq == 2 and prog.m_in == 3
        _assert_step_matches_dense(prog, z, rng.standard_normal(2))


def test_structured_step_matches_dense_kkt_phase1_elastic_program():
    # every bound relaxed by the auxiliary tau: upper rows carry -tau,
    # lower rows +tau, as in the phase-I program
    rng = np.random.default_rng(12)
    for n, p in ((5, 2), (8, 3)):
        X = _point_inside(rng, n, p, 0.6)
        rows = []
        for _ in range(3):
            A = rng.standard_normal((p, n))
            rows.append(_Row(A=A, g=np.array([-1.0]), lower=-math.inf, upper=0.3))
            rows.append(_Row(A=A, g=np.array([1.0]), lower=-0.2, upper=math.inf))
        prog = _BallProgram(n, p, 1, np.concatenate([np.zeros(n * p), [1.0]]), rows)
        z = np.concatenate([X, [0.0]])
        z[-1] = float(np.max(np.abs(prog.R_in[:, : n * p] @ X))) + 0.7
        assert prog.q == 1 and prog.m_in == 6
        _assert_step_matches_dense(prog, z, np.zeros(0), t=50.0)


def test_structured_step_matches_dense_kkt_epigraph_program():
    # base rows with a zero w part (one an equality) and piece rows
    # tr(A_i X) - t <= -c_i
    rng = np.random.default_rng(13)
    n, p = 6, 2
    X = _point_inside(rng, n, p, 0.75)
    z = np.concatenate([X, [2.0]])
    rows = _rows_around(rng, n, p, z, ("both", "equality"), g=np.zeros(1))
    for _ in range(3):
        A = rng.standard_normal((p, n))
        c = -float(np.trace(A @ X.reshape(n, p, order="F"))) + float(rng.uniform(0.5, 1.5))
        rows.append(_Row(A=A, g=np.array([-1.0]), lower=-math.inf, upper=-c))
    prog = _BallProgram(n, p, 1, np.concatenate([np.zeros(n * p), [1.0]]), rows)
    assert prog.m_eq == 1 and prog.m_in == 5
    _assert_step_matches_dense(prog, z, np.array([0.3]), t=20.0)


def test_structured_step_matches_dense_kkt_near_the_sphere():
    rng = np.random.default_rng(14)
    for n, p in ((4, 2), (5, 2)):
        z = _point_inside(rng, n, p, 1.0 - 1e-8)
        rows = _rows_around(rng, n, p, z, ("upper", "both", "equality"))
        prog = _BallProgram(n, p, 0, rng.standard_normal(n * p), rows)
        _assert_step_matches_dense(prog, z, np.array([-0.4]), t=1e4, exact=True)


def test_structured_step_matches_dense_kkt_when_rows_pin_every_direction():
    # rank(R_x) = n p: the rows alone fix X, and near-active rows make the
    # ball's share of the step a small difference of large terms; with
    # n p + 1 rows they are also dependent
    rng = np.random.default_rng(15)
    for n, p, slack in ((2, 1, 1e-6), (3, 2, 1e-5), (3, 2, 1e-7)):
        for extra in (0, 1):
            z = _point_inside(rng, n, p, 0.3)
            rows = _rows_around(rng, n, p, z, ("upper",) * (n * p + extra), slack=slack)
            prog = _BallProgram(n, p, 0, rng.standard_normal(n * p), rows)
            assert np.linalg.matrix_rank(prog.R_in) == n * p
            _assert_step_matches_dense(prog, z, np.zeros(0), t=1.0 / slack)


def test_structured_step_matches_dense_kkt_one_free_direction_near_active_row():
    # n p - rank(R_x) = 1 and one row at slack 1e-7
    rng = np.random.default_rng(16)
    for n, p in ((3, 1), (2, 2), (5, 1)):
        z = _point_inside(rng, n, p, 0.5)
        rows = _rows_around(rng, n, p, z, ("upper",) * (n * p - 1))
        rows[0].upper -= 0.5 - 1e-7
        prog = _BallProgram(n, p, 0, rng.standard_normal(n * p), rows)
        assert np.linalg.matrix_rank(prog.R_in) == n * p - 1
        assert prog.slacks(z).min() == pytest.approx(1e-7, rel=1e-6)
        _assert_step_matches_dense(prog, z, np.zeros(0), t=1e7, exact=True)


def test_example_4_1_value_and_newton_steps():
    # the rows pin X at the origin, inside the ball; the step's refinement
    # pass keeps the barrier converging to the tolerance there
    sol = solve_cr(build_fixture("example-4.1"), SolverConfig(tol=1e-10))
    assert sol.status == "optimal"
    assert 0.0 <= sol.value <= 1e-10
    assert (sol.phase1_newton, sol.phase2_newton) == (4, 91)


@pytest.mark.parametrize("n", [2, 3])
def test_dependent_active_rows_at_an_interior_optimum(n):
    # x_1 <= 0, x_2 <= 0 and x_1 + x_2 <= 0 all hold with equality at the
    # optimum X = 0, inside the ball: more active rows than they span
    rows = [np.eye(1, n, 0), np.eye(1, n, 1), np.eye(1, n, 0) + np.eye(1, n, 1)]
    prob = ElsProblem(
        n=n, p=1, A0=-rows[2], constraints=[LinearConstraint(A=A, upper=0.0) for A in rows]
    )
    sol = solve_cr(prob, SolverConfig(tol=1e-10))
    assert sol.status == "optimal"
    assert 0.0 <= sol.value <= 1e-10
    assert np.abs(sol.X).max() <= 1e-10


def test_newton_steps_are_counted_per_phase():
    rng = np.random.default_rng(17)
    prob, _ = random_feasible_problem(rng)
    sol = solve_cr(prob)
    assert sol.phase2_newton > 0
    assert solve_cr(prob).phase1_newton == sol.phase1_newton
    # X = 0 starts phase II directly when it is strictly feasible
    unconstrained = solve_cr(ElsProblem(n=4, p=2, A0=rng.standard_normal((2, 4))))
    assert unconstrained.phase1_newton == 0 and unconstrained.phase2_newton > 0


def test_solve_epigraph_single_piece_equals_relaxation():
    rng = np.random.default_rng(18)
    prob, _ = random_feasible_problem(rng, equalities=True)
    mm = MinimaxProblem(base=prob, pieces=[MinimaxPiece(A=prob.A0, c=0.25)])
    cfg = SolverConfig(tol=1e-10)
    epi = solve_epigraph(mm, cfg)
    assert epi.status == "optimal"
    assert epi.value == pytest.approx(solve_cr(prob, cfg).value + 0.25, abs=1e-7)
    assert epi.phase2_newton > 0


def test_solve_epigraph_infeasible_base():
    base = ElsProblem(
        n=2,
        p=1,
        A0=np.zeros((1, 2)),
        constraints=[
            LinearConstraint(A=np.array([[1.0, 0.0]]), lower=0.5),
            LinearConstraint(A=np.array([[1.0, 0.0]]), upper=0.4),
        ],
    )
    mm = MinimaxProblem(base=base, pieces=[MinimaxPiece(A=np.array([[0.0, 1.0]]), c=0.0)])
    assert solve_epigraph(mm).status == "infeasible"


def test_solve_ls_svd_identity():
    point, value = solve_ls_svd(np.eye(2))
    assert value == pytest.approx(-2.0)
    assert np.allclose(point.X, -np.eye(2))


def test_solve_ls_svd_diagonal_against_rotation_grid():
    # independent check: sweep the whole 2x2 orthogonal group
    A0 = np.diag([3.0, 4.0])
    theta = np.linspace(0.0, 2 * np.pi, 20001)
    c, s = np.cos(theta), np.sin(theta)
    rotations = np.stack([np.stack([c, -s], 1), np.stack([s, c], 1)], axis=1)
    reflections = rotations.copy()
    reflections[:, :, 1] *= -1.0
    grid_best = min(
        float(np.einsum("ij,kji->k", A0, rotations).min()),
        float(np.einsum("ij,kji->k", A0, reflections).min()),
    )
    point, value = solve_ls_svd(A0)
    assert value == pytest.approx(-7.0, abs=1e-12)
    assert grid_best == pytest.approx(value, abs=1e-6)
    assert np.trace(A0 @ point.X) == pytest.approx(value, abs=1e-10)


def test_solve_ls_svd_zero_objective():
    point, value = solve_ls_svd(np.zeros((2, 4)))
    assert value == 0.0
    assert np.array_equal(point.X, -np.eye(4, 2))
    assert point.orth_residual <= 1e-12


def test_solve_cr_zero_objective_gap_is_exact():
    # A0 = 0: every feasible point is optimal, so the value 0 carries no
    # gap, also when equality rows send the solve through phase I
    rng = np.random.default_rng(31)
    n, p = 8, 3
    Xbar = random_stiefel(n, p, rng)
    cons = []
    for _ in range(3):
        A = rng.standard_normal((p, n))
        v = float(np.trace(A @ Xbar))
        cons.append(LinearConstraint(A=A, lower=v, upper=v))
    prob = ElsProblem(n=n, p=p, A0=np.zeros((p, n)), constraints=cons)
    sol = solve_cr(prob, SolverConfig(tol=1e-10))
    assert sol.status == "optimal"
    assert sol.phase1_newton > 0
    assert sol.value == 0.0
    assert sol.gap_estimate == 0.0
    assert np.abs(prob.constraint_values(sol.X) - [c.lower for c in cons]).max() <= 1e-6


def test_solve_cr_matches_svd_on_unconstrained():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        A0 = rng.standard_normal((p, n))
        prob = ElsProblem(n=n, p=p, A0=A0)
        sol = solve_cr(prob)
        _, v = solve_ls_svd(A0)
        assert sol.status == "optimal"
        assert abs(sol.value - v) <= 1e-6


def test_solve_cr_gap_instances():
    for name, expected in (("example-4.1", 0.0), ("example-4.2", -1.0), ("example-4.3", -2.0)):
        sol = solve_cr(build_fixture(name), SolverConfig(tol=1e-9))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(expected, abs=1e-7)


def test_example_4_2_relaxation_value_brute_force():
    # the relaxation's feasible set is X = [[0, a], [0, b], [c, d]] with the
    # Gram matrix dominated by the identity; grid the free entries and
    # confirm the minimum of X[2,1] is -1
    grid = np.linspace(-1.0, 1.0, 41)
    a, b, c, d = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    t11 = 1.0 - c**2
    t22 = 1.0 - (a**2 + b**2 + d**2)
    t12 = -(c * d)
    psd = (t11 >= 0) & (t22 >= 0) & (t11 * t22 - t12**2 >= 0)
    best = float(d[psd].min())
    assert best == pytest.approx(-1.0, abs=1e-9)


def test_solve_cr_relaxation_lower_bounds_feasible_values():
    rng = np.random.default_rng(2)
    for _ in range(25):
        prob, Xbar = random_feasible_problem(rng)
        sol = solve_cr(prob)
        assert sol.status == "optimal"
        assert sol.value <= prob.objective(Xbar) + 1e-6


def test_solve_cr_objective_homogeneity():
    rng = np.random.default_rng(3)
    prob, _ = random_feasible_problem(rng)
    doubled = ElsProblem(n=prob.n, p=prob.p, A0=2.0 * prob.A0, constraints=prob.constraints)
    v1 = solve_cr(prob, SolverConfig(tol=1e-10)).value
    v2 = solve_cr(doubled, SolverConfig(tol=1e-10)).value
    assert v2 == pytest.approx(2.0 * v1, abs=1e-6)


def test_solve_cr_feasible_never_infeasible():
    rng = np.random.default_rng(4)
    for _ in range(20):
        prob, _ = random_feasible_problem(rng)
        assert solve_cr(prob).status != "infeasible"


def test_solve_cr_detects_infeasible():
    prob = ElsProblem(
        n=2,
        p=1,
        A0=np.array([[1.0, 0.0]]),
        constraints=[LinearConstraint(A=np.array([[1.0, 0.0]]), lower=2.0)],
    )
    sol = solve_cr(prob)
    assert sol.status == "infeasible"
    assert sol.value == math.inf


def _slack_instance_622(rng):
    """A (6,2,2) instance with two-sided slack bounds around a Stiefel point."""
    Xbar = random_stiefel(6, 2, rng)
    cons = []
    for _ in range(2):
        A = rng.standard_normal((2, 6))
        v = float(np.trace(A @ Xbar))
        cons.append(LinearConstraint(A=A, lower=v - 0.5, upper=v + 0.5))
    return ElsProblem(n=6, p=2, A0=rng.standard_normal((2, 6)), constraints=cons)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_solve_cr_huge_bound_is_infeasible(side):
    # 1e16 + 1 == 1e16, so phase I's elastic start has no slack for this
    # row; the bound lies far beyond ||A_1||_*, which no ball point exceeds
    prob = _slack_instance_622(np.random.default_rng(12))
    first = prob.constraints[0]
    if side == "lower":
        first.lower, first.upper = 1e16, math.inf
    else:
        first.lower, first.upper = -math.inf, -1e16
    sol = solve_cr(prob)
    assert sol.status == "infeasible"
    assert sol.value == math.inf


def test_solve_cr_bounds_at_nuclear_norm_stay_feasible():
    # tr(A_1 X) ranges exactly over [-||A_1||_*, ||A_1||_*] on the ball, so
    # bounds at both ends leave the instance feasible and the value at the
    # unconstrained optimum -||A0||_*
    prob = _slack_instance_622(np.random.default_rng(13))
    first = prob.constraints[0]
    reach = float(np.linalg.svd(first.A, compute_uv=False).sum())
    first.lower, first.upper = -reach, reach
    prob.constraints = [first]
    sol = solve_cr(prob)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(solve_ls_svd(prob.A0)[1], abs=1e-6)
    # a lower bound of exactly ||A_1||_* is attained at one Stiefel point
    first.lower, first.upper = reach, math.inf
    assert solve_cr(prob).status != "infeasible"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["lower", "upper", "equality"])
def test_solve_cr_binding_bound_at_reach_is_one_point(kind):
    # With A_1 = U S V^T of full row rank, tr(A_1 X) = +-||A_1||_* holds at
    # the single ball point X* = +-V U^T, so the relaxation is solved there
    rng = np.random.default_rng({"lower": 21, "upper": 22, "equality": 23}[kind])
    A0, A = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
    reach = float(np.linalg.norm(A, "nuc"))
    bounds = {"lower": (reach, math.inf), "upper": (-math.inf, -reach), "equality": (reach, reach)}
    lower, upper = bounds[kind]
    prob = ElsProblem(n=6, p=2, A0=A0, constraints=[LinearConstraint(A=A, lower=lower, upper=upper)])
    U, _, Vt = np.linalg.svd(A, full_matrices=False)
    X_star = (-1.0 if kind == "upper" else 1.0) * (Vt.T @ U.T)
    sol = solve_cr(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.X, X_star, atol=1e-12)
    assert sol.value == pytest.approx(float(np.trace(A0 @ X_star)), abs=1e-12)
    assert sol.gap_estimate == 0.0
    # the point is a Stiefel point: the pipeline recovers it exactly
    from els.pipeline import solve_report

    assert solve_report(prob)["exact_recovery"] is True


@pytest.mark.filterwarnings("error")
def test_solve_cr_reach_point_excluded_by_another_row():
    rng = np.random.default_rng(24)
    A0, A, B = (rng.standard_normal((2, 6)) for _ in range(3))
    reach = float(np.linalg.norm(A, "nuc"))
    U, _, Vt = np.linalg.svd(A, full_matrices=False)
    at_star = float(np.trace(B @ Vt.T @ U.T))
    rows = [LinearConstraint(A=A, lower=reach), LinearConstraint(A=B, upper=at_star + 1e-3)]
    assert solve_cr(ElsProblem(n=6, p=2, A0=A0, constraints=rows)).status == "optimal"
    rows[1] = LinearConstraint(A=B, upper=at_star - 1e-3)  # X* now violates row 2
    sol = solve_cr(ElsProblem(n=6, p=2, A0=A0, constraints=rows))
    assert sol.status == "infeasible"
    assert sol.value == math.inf


def test_solve_cr_feasibility_of_returned_point():
    rng = np.random.default_rng(5)
    cfg = SolverConfig()
    for _ in range(10):
        prob, _ = random_feasible_problem(rng)
        sol = solve_cr(prob, cfg)
        assert sol.status == "optimal"
        values = prob.constraint_values(sol.X)
        for c, v in zip(prob.constraints, values):
            assert c.violation(v) <= cfg.feas_tol
        gram_slack = np.linalg.eigvalsh(np.eye(prob.p) - sol.X.T @ sol.X).min()
        assert gram_slack >= -cfg.feas_tol


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(barrier_mu=1.0)
