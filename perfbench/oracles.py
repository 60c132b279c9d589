"""Correctness oracles that share no code with the library's solver.

The two linear programs are restated from their definitions and solved by
HiGHS through ``scipy.optimize.linprog``; coherence and the Welch bound are
recomputed directly with numpy.  The benchmark calls these outside its timed
region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, hstack as sp_hstack, vstack as sp_vstack


def coherence(mat: np.ndarray) -> float:
    """Largest |cosine| between distinct columns."""
    unit = mat / np.linalg.norm(mat, axis=0)
    gram = np.abs(unit.T @ unit)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def welch_bound(m: int, n_vectors: int) -> float:
    return math.sqrt((n_vectors - m) / (m * (n_vectors - 1)))


def read_matrix(path) -> np.ndarray:
    """The library's text matrix format: a ``rows cols`` header, then rows."""
    with open(path) as fh:
        rows, cols = (int(tok) for tok in fh.readline().split())
        mat = np.loadtxt(fh, ndmin=2)
    if mat.shape != (rows, cols):
        raise ValueError(f"{path}: header says {rows} x {cols}, body is {mat.shape}")
    return mat


def _highs(c, a_ub, b_ub, a_eq, b_eq, bounds) -> float:
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def diagonal_lp_value(phi: np.ndarray) -> float:
    """min q over d >= 0 with sum_k d_k phi_ki^2 = 1 and |sum_k d_k phi_ki phi_kj| <= q."""
    m, n = phi.shape
    iu, ju = np.triu_indices(n, k=1)
    pair = phi[:, iu] * phi[:, ju]                  # (m, pairs)
    ones = np.ones((len(iu), 1))
    a_ub = np.vstack([np.hstack([pair.T, -ones]), np.hstack([-pair.T, -ones])])
    a_eq = np.hstack([(phi**2).T, np.zeros((n, 1))])
    c = np.zeros(m + 1)
    c[-1] = 1.0
    return _highs(c, a_ub, np.zeros(len(a_ub)), a_eq, np.ones(n), [(0, None)] * (m + 1))


def active_pairs(phi: np.ndarray, tau: float) -> tuple[list, list]:
    """Pairs whose inner product sits within tau of +mu / -mu."""
    n = phi.shape[1]
    gram = phi.T @ phi
    iu, ju = np.triu_indices(n, k=1)
    vals = gram[iu, ju]
    mu = np.abs(vals).max()
    pos = [(int(i), int(j)) for i, j, v in zip(iu, ju, vals) if v >= mu - tau]
    neg = [(int(i), int(j)) for i, j, v in zip(iu, ju, vals) if v <= -mu + tau]
    return pos, neg


def certificate_value(phi: np.ndarray, tau: float) -> float:
    """Smallest worst-entry violation t of

        sum_i a_i phi_i phi_i^T + sum_pos r sym(phi_i phi_j^T) - sum_neg r sym(phi_i phi_j^T) = 0

    over free a and r >= 0 with sum r = 1; t <= tol means the identity is
    already coherence-optimal.
    """
    m, n = phi.shape
    pos, neg = active_pairs(phi, tau)
    tr, tc = np.triu_indices(m)

    def entries(i, j):
        outer = 0.5 * (np.outer(phi[:, i], phi[:, j]) + np.outer(phi[:, j], phi[:, i]))
        return outer[tr, tc]

    cols = np.column_stack(
        [entries(i, i) for i in range(n)]
        + [entries(i, j) for i, j in pos]
        + [-entries(i, j) for i, j in neg]
    )
    k = cols.shape[0]
    t_col = -np.ones((k, 1))
    a_ub = sp_vstack([sp_hstack([csr_matrix(cols), t_col]), sp_hstack([csr_matrix(-cols), t_col])])
    n_r = len(pos) + len(neg)
    a_eq = np.zeros((1, n + n_r + 1))
    a_eq[0, n : n + n_r] = 1.0
    c = np.zeros(n + n_r + 1)
    c[-1] = 1.0
    bounds = [(None, None)] * n + [(0, None)] * n_r + [(0, None)]
    return _highs(c, a_ub, np.zeros(2 * k), a_eq, [1.0], bounds)
