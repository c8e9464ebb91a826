"""Tests for the rank-reduction procedure."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from els.errors import InvalidInput
from els.fixtures import build_fixture
from els.lift import lift_constraints, lift_factor, lift_point
from els.linalg import random_stiefel
from els.problem import ElsProblem
from els.reduction import (
    InexactnessReport,
    factor_state,
    find_direction,
    reduce_to_stiefel,
)
from els.solver import SolverConfig, solve_cr, solve_ls_svd
from tests.test_solver import random_feasible_problem

TIGHT = SolverConfig(tol=1e-10)


def direction_matrix(direction):
    """D = [[0, E], [E.T, F]] assembled from the factor-space direction."""
    n, s = direction.E.shape
    return np.block([[np.zeros((n, n)), direction.E], [direction.E.T, direction.F]])


def interior_state(prob):
    """Factor state of a strictly interior feasible point (full rank excess)."""
    sol = solve_cr(
        ElsProblem(n=prob.n, p=prob.p, A0=np.zeros_like(prob.A0), constraints=prob.constraints),
        TIGHT,
    )
    return factor_state(0.9 * sol.X)


def test_factor_state_stiefel_point():
    rng = np.random.default_rng(0)
    X = random_stiefel(5, 2, rng)
    state = factor_state(X)
    assert state.s == 0
    assert state.C.shape == (2, 0)
    U = lift_factor(state.X, state.C)
    assert np.allclose(U, np.vstack([np.eye(5), X.T]))
    Y = lift_point(X).Y
    assert np.linalg.norm(U @ U.T - Y) <= 1e-8 * (1 + np.linalg.norm(Y))


def test_factor_state_identity():
    state = factor_state(np.zeros((3, 2)))
    assert state.s == 2
    assert np.array_equal(state.C, np.eye(2))


def test_factor_state_partial_rank():
    # X with singular values (1, 0): the Gram defect has one eigenpair
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    state = factor_state(X)
    assert state.s == 1
    assert np.allclose(state.C @ state.C.T, np.diag([0.0, 1.0]), atol=1e-12)


def test_factor_state_rejects_indefinite():
    X = np.zeros((3, 2))
    X[0, 0] = 1.5
    with pytest.raises(InvalidInput):
        factor_state(X)
    # the same point is refused by the entry point before any step
    prob = ElsProblem(n=3, p=2, A0=np.zeros((2, 3)))
    with pytest.raises(InvalidInput):
        reduce_to_stiefel(prob, X)


def test_find_direction_guaranteed_regime():
    rng = np.random.default_rng(1)
    for _ in range(20):
        prob, _ = random_feasible_problem(rng)
        # force rank excess by factoring a strictly interior feasible point
        state = interior_state(prob)
        assert state.s >= 1
        direction = find_direction(state, prob.trace_matrices())
        assert direction is not None
        assert direction.null_dim >= 1
        D = direction_matrix(direction)
        assert abs(np.linalg.norm(D) - 1.0) <= 1e-9
        # the update X + eps E C.T keeps every constraint trace
        step = direction.E @ state.C.T
        for con in prob.constraints:
            assert abs(np.trace(con.A @ step)) <= 1e-9
        # ... and the trailing identity block
        X, C, E, F = state.X, state.C, direction.E, direction.F
        block = X.T @ E @ C.T + C @ E.T @ X + C @ F @ C.T
        assert np.abs(block).max() <= 1e-9
        # the step with epsilon stays PSD and singular
        w = np.linalg.eigvalsh(np.eye(D.shape[0]) + direction.epsilon * D)
        assert w.min() >= -1e-10
        assert w.min() <= 1e-10


def test_find_direction_matches_lifted_step():
    # Cross-check of the factor-space rows against the lift: U D U.T built
    # from (E, F) keeps both identity blocks and every tr(B_i .) at zero,
    # and moves the off-diagonal block by E C.T.
    rng = np.random.default_rng(11)
    for _ in range(20):
        prob, _ = random_feasible_problem(rng)
        state = interior_state(prob)
        direction = find_direction(state, prob.trace_matrices())
        D = direction_matrix(direction)
        U = lift_factor(state.X, state.C)
        step = U @ D @ U.T
        n = prob.n
        assert np.abs(step[:n, :n]).max() <= 1e-9
        assert np.abs(step[n:, n:]).max() <= 1e-9
        assert np.allclose(step[:n, n:], direction.E @ state.C.T, atol=1e-12)
        B = lift_constraints(prob)
        for Bi in B[1:]:
            assert abs(np.sum(Bi * step)) <= 1e-9
        M = np.eye(D.shape[0]) + direction.epsilon * D
        w = np.linalg.eigvalsh(M)
        assert w.min() >= -1e-10
        assert w.min() <= 1e-10
        # the stepped lift is the lift of the stepped point, and stays PSD
        Y_next = U @ M @ U.T
        X_next = state.X + direction.epsilon * direction.E @ state.C.T
        assert np.allclose(Y_next, lift_point(X_next).Y, atol=1e-9)
        assert np.linalg.eigvalsh(Y_next).min() >= -1e-9


def test_find_direction_none_outside_guarantee():
    # two sign constraints on the circle pin the relaxation optimum at the
    # origin; the 1-excess system there has no nonzero solution
    prob = build_fixture("example-4.1")
    sol = solve_cr(prob, TIGHT)
    state = factor_state(sol.X)
    assert state.s == 1
    assert find_direction(state, prob.trace_matrices()) is None


def test_find_direction_square_unconstrained_zero_block():
    # n = p, k = 0 with full rank excess: the leading n x n block of D is
    # zero by construction, and the trailing block of the step vanishes
    prob = ElsProblem(n=2, p=2, A0=np.zeros((2, 2)))
    state = factor_state(np.zeros((2, 2)))
    assert state.s == 2
    direction = find_direction(state, prob.trace_matrices())
    assert direction is not None
    assert np.abs(direction_matrix(direction)[:2, :2]).max() <= 1e-12
    C, F = state.C, direction.F
    assert np.abs(C @ F @ C.T).max() <= 1e-12  # at X = 0 the trailing block is C F C.T


def test_find_direction_requires_excess():
    prob = build_fixture("example-5.1")
    X = np.array([[0.0], [1.0]])
    with pytest.raises(InvalidInput):
        find_direction(factor_state(X), prob.trace_matrices())


def test_reduce_unconstrained_recovers_svd_value():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        A0 = rng.standard_normal((p, n))
        prob = ElsProblem(n=n, p=p, A0=A0)
        sol = solve_cr(prob, TIGHT)
        outcome = reduce_to_stiefel(prob, sol.X)
        assert not isinstance(outcome, InexactnessReport)
        point, trace = outcome
        _, v = solve_ls_svd(A0)
        assert point.orth_residual <= 1e-7
        assert prob.objective(point.X) == pytest.approx(v, abs=1e-6)
        assert trace[-1].rank == n


def test_reduce_rank_n_input_returns_immediately():
    rng = np.random.default_rng(3)
    prob, _ = random_feasible_problem(rng, k_max=0)
    X = random_stiefel(prob.n, prob.p, rng)
    outcome = reduce_to_stiefel(prob, X)
    point, trace = outcome
    assert len(trace) == 1
    assert trace[0].null_dim == 0
    assert np.allclose(point.X, X)


def test_reduce_gap_instance_reports_inexactness():
    prob = build_fixture("example-4.3")
    sol = solve_cr(prob, TIGHT)
    outcome = reduce_to_stiefel(prob, sol.X)
    assert isinstance(outcome, InexactnessReport)
    assert "inexact" in outcome.reason
    assert outcome.trace[-1].null_dim == 0


def test_reduce_iteration_invariants():
    rng = np.random.default_rng(4)
    for _ in range(20):
        prob, _ = random_feasible_problem(rng)
        sol = solve_cr(prob, TIGHT)
        assert sol.status == "optimal"
        outcome = reduce_to_stiefel(prob, sol.X)
        assert not isinstance(outcome, InexactnessReport)
        point, trace = outcome
        ranks = [step.rank for step in trace]
        assert all(a > b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] == prob.n
        assert len(trace) - 1 <= prob.p
        for step in trace:
            assert step.max_drift <= 1e-8
            assert abs(step.objective - trace[0].objective) <= 1e-8
        # a direction existed at every state above rank n, none is needed at it
        assert all(step.null_dim >= 1 for step in trace[:-1])
        assert trace[-1].null_dim == 0
        assert point.orth_residual <= 1e-6
        assert point.feasible(1e-6)
        assert prob.objective(point.X) == pytest.approx(sol.value, abs=1e-5)


def test_reduce_full_excess_zero_objective():
    # zero objective keeps every feasible point optimal, so reduction starts
    # from the maximal-rank center and must walk all the way down
    prob = ElsProblem(n=4, p=3, A0=np.zeros((3, 4)))
    outcome = reduce_to_stiefel(prob, np.zeros((4, 3)))
    point, trace = outcome
    assert [step.rank for step in trace] == [7, 6, 5, 4]
    # at X = 0 the trailing-block rows pin F = 0 and leave E (4 x 3) free
    assert [step.null_dim for step in trace] == [12, 6, 2, 0]
    assert point.orth_residual <= 1e-10


def test_reduce_is_deterministic():
    rng = np.random.default_rng(5)
    prob, _ = random_feasible_problem(rng, n_max=8)
    X = interior_state(prob).X
    first = reduce_to_stiefel(prob, X)
    second = reduce_to_stiefel(prob, X)
    assert np.array_equal(first[0].X, second[0].X)
    assert [s.as_dict() for s in first[1]] == [s.as_dict() for s in second[1]]


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_exact_regime_recovers_relaxation_optimum(seed):
    # p <= n - k: the recovered point is feasible, has orthonormal columns
    # and attains the relaxation value
    prob, _ = random_feasible_problem(np.random.default_rng(seed))
    assert prob.p <= prob.n - prob.k
    sol = solve_cr(prob, TIGHT)
    assert sol.status == "optimal"
    outcome = reduce_to_stiefel(prob, sol.X)
    assert not isinstance(outcome, InexactnessReport), outcome.reason
    point, _ = outcome
    assert point.orth_residual <= 1e-6
    assert point.feasible(1e-6)
    assert abs(prob.objective(point.X) - sol.value) <= 1e-5
