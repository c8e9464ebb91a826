"""Tests for the rank-reduction procedure."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from els.errors import InvalidInput
from els.fixtures import build_fixture
from els.lift import lift_constraints, lift_factor, lift_point
from els.linalg import nullspace_basis, random_stiefel
from els.problem import ElsProblem
from els.reduction import (
    InexactnessReport,
    ReductionState,
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


def reference_rows(state, mats):
    """The trace-preserving system before F is eliminated.

    Unknowns are orthonormal coordinates of D: sqrt(2) * E row by row, then
    F over the orthonormal symmetric basis in upper-triangle order.  The rows
    force the upper triangle of X.T E C.T + C E.T X + C F C.T and every
    constraint trace <A_i.T C, E> to vanish.
    """
    X, C, s = state.X, state.C, state.s
    n, p = X.shape
    a, b = np.triu_indices(p)
    i, j = np.triu_indices(s)
    XC = np.einsum("ia,bj->abij", X, C)
    block_E = (XC + XC.transpose(1, 0, 2, 3))[a, b].reshape(a.size, n * s) / math.sqrt(2.0)
    CC = np.einsum("ai,bj->abij", C, C)
    weight = np.where(i == j, 0.5, 1.0 / math.sqrt(2.0))
    block_F = (CC + CC.transpose(0, 1, 3, 2))[a, b][:, i, j] * weight
    traces = np.einsum("mpn,ps->mns", mats[1:], C).reshape(len(mats) - 1, n * s)
    traces = np.hstack([traces / math.sqrt(2.0), np.zeros((len(mats) - 1, i.size))])
    return np.vstack([np.hstack([block_E, block_F]), traces])


def reference_null_dim(state, mats):
    return nullspace_basis(reference_rows(state, mats)).shape[1]


def random_ball_state(rng, n, p, s, k):
    """Factor state of a ball point with rank excess s (p - s singular values
    exactly one), and k random constraint matrices behind a random A0."""
    U = random_stiefel(n, p, rng)
    V = random_stiefel(p, p, rng)
    sigma = np.ones(p)
    sigma[:s] = rng.uniform(0.0, 0.95, s)
    state = factor_state((U * sigma) @ V.T)
    assert state.s == s
    return state, rng.standard_normal((k + 1, p, n))


def assert_valid_direction(state, mats, direction):
    X, C, E, F = state.X, state.C, direction.E, direction.F
    assert abs(np.linalg.norm(direction_matrix(direction)) - 1.0) <= 1e-9
    assert np.abs(X.T @ E @ C.T + C @ E.T @ X + C @ F @ C.T).max() <= 1e-9
    traces = np.einsum("mpn,np->m", mats[1:], E @ C.T)
    assert np.abs(traces).max(initial=0.0) <= 1e-9


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


def test_null_dim_matches_reference_system():
    # the eliminated system counts the same directions as the full
    # (E, F) system, for s < p and for s = p
    rng = np.random.default_rng(12)
    full = 0
    for _ in range(72):
        n = int(rng.integers(3, 14))
        p = int(rng.integers(1, n + 1))
        s = p if rng.uniform() < 0.3 else int(rng.integers(1, p + 1))
        full += s == p
        k = int(rng.integers(0, 2 * n + 1))
        state, mats = random_ball_state(rng, n, p, s, k)
        direction = find_direction(state, mats)
        expected = reference_null_dim(state, mats)
        assert (0 if direction is None else direction.null_dim) == expected
        assert expected == max((n - p + s) * s - k, 0)
        if direction is not None:
            assert_valid_direction(state, mats, direction)
    assert full >= 10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    data=st.data(),
)
def test_property_null_dim_at_least_s_squared_in_exact_regime(n, data):
    # p <= n - k leaves at least s^2 trace-preserving directions
    k = data.draw(st.integers(0, n - 1))
    p = data.draw(st.integers(1, n - k))
    s = data.draw(st.integers(1, p))
    seed = data.draw(st.integers(0, 2**32 - 1))
    state, mats = random_ball_state(np.random.default_rng(seed), n, p, s, k)
    direction = find_direction(state, mats)
    assert direction is not None
    assert direction.null_dim >= s * s
    assert direction.null_dim == (n - p + s) * s - k
    assert_valid_direction(state, mats, direction)


def test_find_direction_square_full_excess():
    # n = p and s = p: X Q_perp is empty, so E ranges over all n x n
    # matrices with <A_i.T C, E> = 0
    rng = np.random.default_rng(13)
    for n, k in ((1, 0), (3, 0), (3, 2), (4, 9)):
        state, mats = random_ball_state(rng, n, n, n, k)
        direction = find_direction(state, mats)
        assert direction.null_dim == n * n - k == reference_null_dim(state, mats)
        assert_valid_direction(state, mats, direction)
    state, mats = random_ball_state(rng, 2, 2, 2, 4)
    assert find_direction(state, mats) is None
    assert reference_null_dim(state, mats) == 0


def test_find_direction_without_constraints():
    # k = 0, and k constraints whose matrices are all zero, leave every
    # E = N Z: (n - p + s) s directions
    rng = np.random.default_rng(14)
    for n, p, s in ((5, 3, 1), (5, 3, 3), (4, 4, 2), (6, 1, 1)):
        state, mats = random_ball_state(rng, n, p, s, 0)
        zero_rows = np.concatenate([mats, np.zeros((3, p, n))])
        for stack in (mats, zero_rows):
            direction = find_direction(state, stack)
            assert direction.null_dim == (n - p + s) * s == reference_null_dim(state, stack)
            assert_valid_direction(state, stack, direction)
    # a zero objective row as well
    state, _ = random_ball_state(rng, 5, 3, 2, 0)
    direction = find_direction(state, np.zeros((2, 3, 5)))
    assert direction.null_dim == 8
    assert_valid_direction(state, np.zeros((2, 3, 5)), direction)


def test_find_direction_prefers_objective_neutral_direction():
    # with two or more directions the chosen one also keeps tr(A0 X)
    rng = np.random.default_rng(15)
    for _ in range(20):
        state, mats = random_ball_state(rng, 7, 3, 2, 3)
        direction = find_direction(state, mats)
        assert direction.null_dim >= 2
        assert abs(np.sum(mats[0].T * (direction.E @ state.C.T))) <= 1e-12


def test_find_direction_with_any_factor():
    # any C with C C.T = I - X.T X serves, not only the eigenvector factor:
    # rotated columns make R_c of C = Q_c R_c a full triangle
    rng = np.random.default_rng(16)
    for s in (1, 2, 4):
        state, mats = random_ball_state(rng, 9, 4, s, 3)
        rotation = random_stiefel(s, s, rng)
        rotated = ReductionState(X=state.X, C=state.C @ rotation, s=s)
        assert np.allclose(rotated.C @ rotated.C.T, np.eye(4) - state.X.T @ state.X)
        direction = find_direction(rotated, mats)
        assert direction.null_dim == (9 - 4 + s) * s - 3 == reference_null_dim(rotated, mats)
        assert_valid_direction(rotated, mats, direction)
