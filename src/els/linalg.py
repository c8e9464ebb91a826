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


# relative singular-value cutoff of the passive-set solves in signed_lstsq
_LSTSQ_RCOND = 1e-12


def signed_lstsq(B, b, signed) -> np.ndarray:
    """Minimize ``||B x - b||`` subject to ``x_j >= 0`` where ``signed[j]``.

    Lawson-Hanson active-set iteration with free variables: the unsigned
    columns are always in the passive set, signed ones enter by largest
    gradient and leave when an interpolation step reaches zero.  Each
    passive-set solve is the minimum-norm least-squares solution (singular
    values below ``_LSTSQ_RCOND * sigma_max`` dropped), so dependent
    columns give a deterministic x.  Among all minimizers, the minimum-norm
    one over the columns with zero gradient is returned when it keeps the
    signs; for two equal signed columns that is the even split.  The first
    solve over all columns returns early when it keeps the signs: the loop
    and that last solve would end at the same x, about twice as slowly.
    """
    B = np.asarray(B, dtype=float)
    b = np.asarray(b, dtype=float)
    signed = np.asarray(signed, dtype=bool)
    m = B.shape[1]

    def solve(mask):
        z = np.zeros(m)
        if mask.any():
            z[mask] = np.linalg.lstsq(B[:, mask], b, rcond=_LSTSQ_RCOND)[0]
        return z

    x = np.linalg.lstsq(B, b, rcond=_LSTSQ_RCOND)[0]
    if (x[signed] >= 0.0).all():
        return x  # the unconstrained minimum-norm solution keeps the signs
    passive = ~signed
    x = solve(passive)
    tol = 64.0 * np.finfo(float).eps * max(B.shape) * np.linalg.norm(B) * np.linalg.norm(b)
    for _ in range(3 * m):
        w = B.T @ (b - B @ x)
        enter = signed & ~passive & (w > tol)
        if not enter.any():
            break
        passive[np.argmax(np.where(enter, w, -np.inf))] = True
        while True:
            z = solve(passive)
            neg = np.flatnonzero(passive & signed & (z < 0.0))
            if neg.size == 0:
                x = z
                break
            ratios = x[neg] / (x[neg] - z[neg])
            x = x + ratios.min() * (z - x)
            drop = passive & signed & (x <= 0.0)
            drop[neg[np.argmin(ratios)]] = True
            passive &= ~drop
            x[drop] = 0.0

    w = B.T @ (b - B @ x)
    z = solve(passive | (signed & (np.abs(w) <= tol)))
    return z if np.all(z[signed] >= 0.0) else x


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
