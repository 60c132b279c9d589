"""Dense linear-algebra kernels with explicit accuracy contracts.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects (row-major).  All
functions are pure and hold no global state, so values may be shared freely
across threads.  Factorizations delegate to LAPACK through ``numpy.linalg``;
the contracts below (reconstruction residuals, orthogonality defects) are what
callers may rely on, independent of the backend.

Tolerances are relative to the Frobenius norm of the input with an absolute
floor of 1e-14 so the zero matrix does not divide by zero.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "NoConvergence",
    "RankDeficient",
    "as_matrix",
    "cholesky",
    "sym_eig",
    "svd",
]

_ABS_FLOOR = 1e-14


class NotPositiveDefinite(ValueError):
    """A pivot fell at or below the jitter floor during factorization."""


class NoConvergence(RuntimeError):
    """An iterative eigenvalue/singular-value sweep hit its iteration cap."""


class RankDeficient(ValueError):
    """Smallest singular value below 1e-12 times the largest."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and column, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def _check_symmetric(a: np.ndarray, name: str) -> None:
    scale = max(np.linalg.norm(a), _ABS_FLOOR)
    if np.linalg.norm(a - a.T) > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric within 1e-12 relative tolerance")


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a for symmetric positive-definite a.

    Raises NotPositiveDefinite when a pivot is non-positive, which signals an
    input on (or beyond) the PSD boundary; adding jitter is the caller's call.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky needs a square matrix, got {a.shape}")
    _check_symmetric(a, "a")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthogonal eigenvectors of symmetric ``a``.

    Returns ``(w, V)`` with ``a @ V == V @ diag(w)`` within 1e-9 relative and
    ``V.T @ V == I`` within 1e-10.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"sym_eig needs a square matrix, got {a.shape}")
    _check_symmetric(a, "a")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``a == U @ diag(s) @ V.T``.

    Singular values come back descending and nonnegative; U and V have
    orthonormal columns within 1e-10.
    """
    a = as_matrix(a, "a")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return u, s, vt.T

