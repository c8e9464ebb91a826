"""Tests for the lifted view and the exactness-condition predicates."""

import numpy as np

from els.fixtures import build_fixture
from els.lift import (
    exactness_conditions,
    lift_constraints,
    lift_factor,
    lift_matrix,
    lift_point,
)
from els.linalg import numeric_rank, random_stiefel
from els.problem import ElsProblem


def test_lift_matrix_structure():
    B = lift_matrix(np.array([[1.0, 0.0]]))
    expected = 0.5 * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(B, expected)
    assert np.array_equal(lift_matrix(np.zeros((2, 3))), np.zeros((5, 5)))


def test_lift_trace_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, n + 1))
        A = rng.standard_normal((p, n))
        X = random_stiefel(n, p, rng)
        Y = lift_point(X).Y
        lhs = float(np.sum(lift_matrix(A) * Y))
        rhs = float(np.trace(A @ X))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_lift_point_zero():
    sol = lift_point(np.zeros((3, 2)))
    assert np.array_equal(sol.Y, np.eye(5))
    assert sol.rank == 5


def test_lift_point_stiefel_rank_n():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        X = random_stiefel(n, p, rng)
        assert lift_point(X).rank == n


def test_lift_point_indefinite_when_norm_exceeds_one():
    # eigenvalues of the lift are 1 +/- sigma_j(X)
    X = np.zeros((3, 2))
    X[0, 0] = 1.5
    Y = lift_point(X).Y
    assert np.linalg.eigvalsh(Y).min() < 0.0


def test_lift_rank_formula_random_contractions():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        X = random_stiefel(n, p, rng) * rng.uniform(0.0, 1.0, size=p)
        sol = lift_point(X)
        excess = numeric_rank(np.eye(p) - X.T @ X, 1e-8)
        assert sol.rank == n + excess


def test_extract_round_trip():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 2)) * 0.4
    sol = lift_point(X)
    assert np.array_equal(sol.Y[:4, 4:], X)
    assert np.array_equal(sol.Y[4:, :4], X.T)
    eye = lift_point(np.zeros((3, 1)))
    assert np.array_equal(eye.Y[:3, 3:], np.zeros((3, 1)))


def test_extract_gap_instance_optimum():
    # lifting the rank-deficient optimum of the p=3 gap instance and reading
    # the block back preserves the -1 diagonal entries
    Xbar = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    sol = lift_point(Xbar)
    X = sol.Y[:3, 3:]
    assert X[1, 1] == -1.0 and X[2, 2] == -1.0


def test_lift_constraints_objective_value():
    prob = build_fixture("example-5.1")
    lifted = lift_constraints(prob)
    assert lifted.shape == (2, 3, 3)
    X = np.array([[0.0], [1.0]])
    sol = lift_point(X, lifted)
    assert sol.objective == prob.objective(X)
    assert np.array_equal(lifted[1], lift_matrix(prob.constraints[0].A))


def test_lift_factor_reproduces_lift():
    # U = [[I, 0], [X.T, C]] with C C.T = I - X.T X gives U U.T = lift of X
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        X = random_stiefel(n, p, rng) * rng.uniform(0.0, 1.0, size=p)
        w, Q = np.linalg.eigh(np.eye(p) - X.T @ X)
        C = Q * np.sqrt(np.clip(w, 0.0, None))
        U = lift_factor(X, C)
        assert U.shape == (n + p, n + p)
        assert np.allclose(U @ U.T, lift_point(X).Y, atol=1e-12)


def test_exactness_conditions_table():
    c = exactness_conditions(3, 2, 1)
    assert (c.beck, c.exact, c.no_local_nonglobal) == (False, True, False)
    c = exactness_conditions(5, 5, 0)
    assert c.exact and not c.beck
    c = exactness_conditions(2, 1, 2)
    assert (c.beck, c.exact, c.no_local_nonglobal) == (False, False, False)
    c = exactness_conditions(6, 2, 3)
    assert (c.beck, c.exact, c.no_local_nonglobal) == (True, True, True)


def test_exactness_condition_ordering():
    # the local-route threshold is strictly stronger than plain exactness
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        p = int(rng.integers(1, n + 1))
        k = int(rng.integers(0, 6))
        c = exactness_conditions(n, p, k)
        if c.no_local_nonglobal:
            assert c.exact
        if c.beck:
            assert c.exact  # p <= p(p+1)/2 makes the beck threshold stronger
