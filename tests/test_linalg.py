"""Tests for the dense linear-algebra kernel."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from els.errors import InvalidInput
from els.linalg import (
    numeric_rank,
    nullspace_basis,
    random_stiefel,
    signed_lstsq,
    sym_eig,
    symmetric_basis,
    thin_svd,
)


def test_thin_svd_identity():
    U, sigma, V = thin_svd(np.eye(2))
    assert np.allclose(sigma, [1.0, 1.0])


def test_thin_svd_diagonal_sorted():
    _, sigma, _ = thin_svd(np.diag([3.0, 4.0]))
    assert np.allclose(sigma, [4.0, 3.0])


def test_thin_svd_rank_one():
    # eigenvalues of A.T A = [[2,2],[2,2]] are 4 and 0 by hand
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    _, sigma, _ = thin_svd(A)
    assert np.allclose(sigma, [2.0, 0.0], atol=1e-12)


def test_thin_svd_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, n = rng.integers(1, 9, size=2)
        A = rng.standard_normal((m, n))
        U, sigma, V = thin_svd(A)
        err = np.linalg.norm(A - U @ np.diag(sigma) @ V.T)
        assert err <= 1e-9 * (1.0 + np.linalg.norm(A))
        r = min(m, n)
        assert np.allclose(U.T @ U, np.eye(r), atol=1e-10)
        assert np.allclose(V.T @ V, np.eye(r), atol=1e-10)


def test_thin_svd_deterministic_signs():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 3))
    U1, s1, V1 = thin_svd(A)
    U2, s2, V2 = thin_svd(A.copy())
    assert np.array_equal(U1, U2) and np.array_equal(V1, V2)
    for j in range(U1.shape[1]):
        nz = np.nonzero(np.abs(U1[:, j]) > 1e-12)[0]
        assert U1[nz[0], j] > 0


def test_singular_value_sum_orthogonal_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p, n = rng.integers(1, 6, size=2)
        A = rng.standard_normal((p, n))
        Q = random_stiefel(p, p, rng)
        P = random_stiefel(n, n, rng)
        s0 = thin_svd(A)[1].sum()
        s1 = thin_svd(Q @ A @ P)[1].sum()
        assert abs(s0 - s1) <= 1e-9 * (1.0 + s0)


def test_thin_svd_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        thin_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sym_eig_zero_and_diagonal():
    eig = sym_eig(np.zeros((2, 2)))
    assert np.allclose(eig.eigenvalues, [0.0, 0.0])
    eig = sym_eig(np.diag([-1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [-1.0, 2.0])


def test_sym_eig_offdiagonal():
    # characteristic polynomial lambda^2 - 1
    eig = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        eig = sym_eig(A)
        Q, w = eig.eigenvectors, eig.eigenvalues
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(Q @ np.diag(w) @ Q.T - A) <= 1e-10 * (1.0 + np.linalg.norm(A))
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-10


def test_sym_eig_rejects_asymmetric_and_nonsquare():
    with pytest.raises(InvalidInput):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInput):
        sym_eig(np.zeros((2, 3)))


def test_numeric_rank_basics():
    assert numeric_rank(np.eye(3), 1e-8) == 3
    assert numeric_rank(np.zeros((3, 3)), 1e-8) == 0
    assert numeric_rank(np.diag([1.0, 1e-12]), 1e-8) == 1


def test_nullspace_basis_examples():
    Z = nullspace_basis(np.array([[1.0, 0.0]]), 1e-8)
    assert Z.shape == (2, 1)
    assert abs(abs(Z[1, 0]) - 1.0) <= 1e-12 and abs(Z[0, 0]) <= 1e-12

    assert nullspace_basis(np.eye(2), 1e-8).shape == (2, 0)

    Z = nullspace_basis(np.array([[1.0, 1.0]]), 1e-8)
    direction = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(float(direction @ Z[:, 0])) - 1.0) <= 1e-12


def test_rank_nullity_sum():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m, n = rng.integers(1, 8, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n)) if r else np.zeros((m, n))
        rank = numeric_rank(A, 1e-8)
        Z = nullspace_basis(A, 1e-8)
        assert rank + Z.shape[1] == n
        if Z.shape[1]:
            assert np.abs(A @ Z).max() <= 1e-8 * (1.0 + np.linalg.norm(A))
            assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-10)


def test_symmetric_basis_orthonormal():
    basis = symmetric_basis(4)
    assert len(basis) == 10
    for a, Sa in enumerate(basis):
        assert np.array_equal(Sa, Sa.T)
        for b, Sb in enumerate(basis):
            ip = float(np.sum(Sa * Sb))
            assert abs(ip - (1.0 if a == b else 0.0)) <= 1e-14


def test_random_stiefel_orthonormal_and_deterministic():
    X1 = random_stiefel(6, 3, np.random.default_rng(7))
    X2 = random_stiefel(6, 3, np.random.default_rng(7))
    assert np.array_equal(X1, X2)
    assert np.linalg.norm(X1.T @ X1 - np.eye(3)) <= 1e-12


def _fix_column_signs_loop(U, partner):
    """Column-by-column reference for the vectorized sign convention."""
    U, P = U.copy(), partner.copy()
    for j in range(U.shape[1]):
        nz = np.nonzero(np.abs(U[:, j]) > 1e-12)[0]
        if nz.size and U[nz[0], j] < 0.0:
            U[:, j] = -U[:, j]
            P[:, j] = -P[:, j]
    return U, P


def test_fix_column_signs_matches_loop_reference():
    from els.linalg import _fix_column_signs

    rng = np.random.default_rng(12)
    for shape in ((5, 3), (1, 4), (6, 6), (3, 0), (0, 0)):
        U = rng.standard_normal(shape)
        if U.size:
            U[0, :] = 0.0  # leading zeros: the sign comes from a later row
            U[: shape[0] // 2, 0] = 1e-13  # below the threshold
            U[:, -1] = 0.0  # an all-zero column keeps its sign
        P = rng.standard_normal((shape[0] + 1, shape[1]))
        got_U, got_P = _fix_column_signs(U, P)
        want_U, want_P = _fix_column_signs_loop(U, P)
        assert np.array_equal(got_U, want_U) and np.array_equal(got_P, want_P)
        assert np.array_equal(_fix_column_signs(U), want_U)


def _brute_signed_lstsq(B, b, signed):
    """Least residual over every passive set of the signed columns whose
    least-squares solution keeps the signs (the optimum is one of them)."""
    best = np.inf
    free = ~signed
    for r in range(int(signed.sum()) + 1):
        for chosen in itertools.combinations(np.flatnonzero(signed), r):
            mask = free.copy()
            mask[list(chosen)] = True
            z = np.zeros(B.shape[1])
            if mask.any():
                z[mask] = np.linalg.lstsq(B[:, mask], b, rcond=None)[0]
            if (z[signed] >= -1e-12).all():
                best = min(best, float(np.linalg.norm(B @ z - b)))
    return best


def _signed_case(kind, rng):
    m = {"random": 5, "rank-deficient": 6, "all-free": 4, "all-signed": 6, "empty": 0}[kind]
    B = rng.standard_normal((8, m))
    if kind == "rank-deficient":
        B = rng.standard_normal((8, 2)) @ rng.standard_normal((2, m))
    signed = rng.random(m) < 0.6
    if kind == "all-free":
        signed[:] = False
    if kind == "all-signed":
        signed[:] = True
    return B, rng.standard_normal(8), signed


@pytest.mark.parametrize("kind", ["random", "rank-deficient", "all-free", "all-signed", "empty"])
def test_signed_lstsq_matches_brute_force(kind):
    rng = np.random.default_rng(71)
    for _ in range(20):
        B, b, signed = _signed_case(kind, rng)
        x = signed_lstsq(B, b, signed)
        assert x.shape == (B.shape[1],)
        assert (x[signed] >= 0.0).all()
        best = _brute_signed_lstsq(B, b, signed)
        assert np.linalg.norm(B @ x - b) == pytest.approx(best, rel=1e-10, abs=1e-12)
        if kind in ("random", "all-signed"):
            # full column rank: the minimizer is unique
            reference = np.linalg.lstsq(B, b, rcond=None)[0]
            if (reference[signed] >= 0.0).all():
                assert np.allclose(x, reference, atol=1e-10)


def test_signed_lstsq_even_split_of_equal_columns():
    # two equal signed columns: every split of the total is optimal, the
    # minimum-norm one is the even split, and it is the same on every call.
    # The third column would take a negative value without its sign, so the
    # split comes from the active-set path, not from the unconstrained solve.
    rng = np.random.default_rng(72)
    col, other = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
    B = np.column_stack([col, col, other])
    b = 2.0 * col - other
    for signed in ([True, True, True], [True, True, False]):
        x = signed_lstsq(B, b, np.array(signed))
        expected = [1.0, 1.0, 0.0] if signed[2] else [1.0, 1.0, -1.0]
        assert np.allclose(x, expected, atol=1e-12)
        assert np.array_equal(x, signed_lstsq(B, b, np.array(signed)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    data=st.integers(0, 6).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=1, max_size=8),
            st.lists(st.booleans(), min_size=m, max_size=m),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_property_signed_lstsq_satisfies_kkt(data):
    rows, signs, seed = data
    B = np.array(rows, dtype=float).reshape(len(rows), len(signs))
    b = np.random.default_rng(seed).standard_normal(B.shape[0])
    signed = np.array(signs, dtype=bool)
    x = signed_lstsq(B, b, signed)
    w = B.T @ (b - B @ x)  # minus the gradient of the half squared residual
    tol = 1e-9 * (1.0 + np.linalg.norm(B)) ** 2 * (1.0 + np.linalg.norm(b) + np.linalg.norm(x))
    assert (x[signed] >= 0.0).all()
    assert (np.abs(w[~signed]) <= tol).all()
    assert (w[signed] <= tol).all()
    assert (np.abs(x[signed] * w[signed]) <= tol * (1.0 + np.abs(x[signed]))).all()
