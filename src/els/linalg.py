"""Dense linear-algebra kernel used by every other module.

Thin wrappers around LAPACK factorizations with fixed sign conventions so
repeated runs produce identical output, plus tolerance-based rank and
null-space routines.  All rank thresholds are relative to the largest
singular value (with an absolute floor of ``tol`` itself), which makes the
results invariant under rescaling of well-scaled input.

Desk scale only: everything is dense, nothing here is tuned for matrices
beyond a few hundred rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

# Default relative threshold for rank decisions and null-space truncation.
DEFAULT_TOL = 1e-8

# Entries below this magnitude are treated as zero when fixing column signs.
_SIGN_EPS = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Convert to a 2-D float array, rejecting NaN/Inf entries."""
    A = np.asarray(a, dtype=float)
    if A.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return A


def _fix_column_signs(U: np.ndarray, partner: np.ndarray | None = None):
    """Flip columns so their first non-negligible entry is nonnegative.

    ``partner`` columns are flipped together with ``U`` columns, which keeps
    products like U @ diag(s) @ partner.T unchanged.
    """
    U = U.copy()
    P = None if partner is None else partner.copy()
    if U.size:
        big = np.abs(U) > _SIGN_EPS
        first = big.argmax(axis=0)
        flip = big.any(axis=0) & (U[first, np.arange(U.shape[1])] < 0.0)
        U[:, flip] = -U[:, flip]
        if P is not None:
            P[:, flip] = -P[:, flip]
    if P is None:
        return U
    return U, P


def thin_svd(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = U @ diag(sigma) @ V.T`` with deterministic signs.

    Returns (U, sigma, V) where sigma is descending and U, V have
    orthonormal columns.
    """
    A = as_matrix(A, "A")
    U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    U, V = _fix_column_signs(U, Vt.T)
    return U, sigma, V


@dataclass(frozen=True)
class SymEig:
    """Symmetric eigendecomposition, eigenvalues sorted ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns paired with eigenvalues


def sym_eig(A) -> SymEig:
    """Eigendecomposition of a symmetric matrix.

    The input is symmetrized as (A + A.T)/2 before factorization; inputs
    whose asymmetry exceeds 1e-10 * (1 + ||A||_F) are rejected.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {A.shape}")
    scale = 1.0 + np.linalg.norm(A)
    if np.linalg.norm(A - A.T) > 1e-10 * scale:
        raise InvalidInput("matrix is not symmetric within tolerance")
    w, Q = np.linalg.eigh(0.5 * (A + A.T))
    return SymEig(w, _fix_column_signs(Q))


def numeric_rank(A, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol * max(1, sigma_max)``."""
    A = as_matrix(A, "A")
    if tol <= 0.0:
        raise InvalidInput("tol must be positive")
    if A.size == 0:
        return 0
    sigma = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(sigma > tol * max(1.0, sigma[0])))


def nullspace_basis(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of ``A``.

    Column count equals ``cols(A) - numeric_rank(A, tol)`` by sharing the
    same singular-value threshold.
    """
    A = as_matrix(A, "A")
    if tol <= 0.0:
        raise InvalidInput("tol must be positive")
    cols = A.shape[1]
    if cols == 0:
        return np.zeros((0, 0))
    if A.shape[0] == 0 or not A.any():
        return np.eye(cols)
    _, sigma, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(sigma > tol * max(1.0, sigma[0]))) if sigma.size else 0
    return _fix_column_signs(Vt[rank:].T)


def symmetric_basis(m: int) -> list[np.ndarray]:
    """Orthonormal basis of m x m symmetric matrices (Frobenius inner product).

    Order: (0,0), (0,1), ..., (0,m-1), (1,1), ... with off-diagonal elements
    (E_ij + E_ji) / sqrt(2).
    """
    basis = []
    for i in range(m):
        for j in range(i, m):
            S = np.zeros((m, m))
            if i == j:
                S[i, i] = 1.0
            else:
                S[i, j] = S[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(S)
    return basis


def random_stiefel(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random n x p matrix with orthonormal columns."""
    A = rng.standard_normal((n, p))
    Q, R = np.linalg.qr(A)
    d = np.diag(R)
    return Q * np.where(d == 0.0, 1.0, np.sign(d))
