"""Tests for the barrier solver and the closed-form k=0 route."""

import math

import numpy as np
import pytest

from els.fixtures import build_fixture
from els.linalg import random_stiefel
from els.problem import ElsProblem, LinearConstraint
from els.solver import SolverConfig, _BallProgram, _Row, solve_cr, solve_ls_svd


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
        val -= float(np.sum(np.log(prog.bu - prog.RU @ z)))
        val -= float(np.sum(np.log(prog.RL @ z - prog.bl)))
        return val

    z = 0.1 * rng.standard_normal(prog.dim)
    assert prog.strictly_feasible(z)
    g, H = prog.grad_hess(z)
    eps = 1e-6
    for i in range(prog.dim):
        e = np.zeros(prog.dim)
        e[i] = eps
        assert g[i] == pytest.approx((phi(z + e) - phi(z - e)) / (2 * eps), abs=1e-5)
        gp, _ = prog.grad_hess(z + e)
        gm, _ = prog.grad_hess(z - e)
        assert np.allclose(H[:, i], (gp - gm) / (2 * eps), atol=1e-4)


def _commutation(n, p):
    """K with K @ vec(V) = vec(V.T) for V of shape (n, p), column-stacked."""
    K = np.zeros((n * p, n * p))
    for i in range(n):
        for j in range(p):
            K[j + i * p, i + j * n] = 1.0
    return K


def _reference_grad_hess(prog, z):
    """The barrier derivatives with the commuted Hessian term taken as a
    product with the commutation matrix, in the same operation order."""
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
    if prog.RU.shape[0]:
        su = prog.bu - prog.RU @ z
        g += prog.RU.T @ (1.0 / su)
        H += (prog.RU / su[:, None] ** 2).T @ prog.RU
    if prog.RL.shape[0]:
        sl = prog.RL @ z - prog.bl
        g -= prog.RL.T @ (1.0 / sl)
        H += (prog.RL / sl[:, None] ** 2).T @ prog.RL
    return g, 0.5 * (H + H.T)


def _assert_structured_hessian_exact(prog, z):
    assert prog.strictly_feasible(z)
    g, H = prog.grad_hess(z)
    g_ref, H_ref = _reference_grad_hess(prog, z)
    assert np.array_equal(g, g_ref)
    assert np.array_equal(H, H_ref)
    assert np.array_equal(prog.grad(z), g)


def test_structured_hessian_matches_commutation_formula_one_sided_rows():
    rng = np.random.default_rng(10)
    for n, p in ((3, 2), (7, 3), (12, 4)):
        rows = [
            _Row(A=rng.standard_normal((p, n)), g=None, lower=-math.inf, upper=1.0),
            _Row(A=rng.standard_normal((p, n)), g=None, lower=-1.0, upper=math.inf),
            _Row(A=rng.standard_normal((p, n)), g=None, lower=-2.0, upper=2.0),
        ]
        prog = _BallProgram(n, p, 0, rng.standard_normal(n * p), rows)
        assert prog.RU.shape[0] == 2 and prog.RL.shape[0] == 2
        _assert_structured_hessian_exact(prog, 0.3 * rng.standard_normal(prog.dim) / n)


def test_structured_hessian_matches_commutation_formula_with_equality_row():
    rng = np.random.default_rng(11)
    for n, p in ((4, 2), (9, 3)):
        rows = [
            _Row(A=rng.standard_normal((p, n)), g=np.array([0.0]), lower=0.5, upper=0.5),
            _Row(A=rng.standard_normal((p, n)), g=np.array([-1.0]), lower=-math.inf, upper=1.0),
            _Row(A=rng.standard_normal((p, n)), g=np.array([1.0]), lower=-1.0, upper=math.inf),
        ]
        c = np.concatenate([np.zeros(n * p), [1.0]])
        prog = _BallProgram(n, p, 1, c, rows)
        assert prog.m_eq == 1 and prog.dim == n * p + 1
        z = np.concatenate([0.3 * rng.standard_normal(n * p) / n, [0.2]])
        _assert_structured_hessian_exact(prog, z)


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
