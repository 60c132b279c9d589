"""Primal-dual path-following solver for a structured conic family.

The family solved here is

    minimize    q
    subject to  <A_k, X>  +  c_k q  +  (slack)  +  e_k . w  =  b_k
                X PSD (m x m),  q >= 0,  slacks >= 0,  w >= 0,
                optionally  t2 I <= X <= t1 I,

where every coefficient matrix A_k is a symmetrized rank-two outer product
``alpha_k (a_i a_j^T + a_j a_i^T) / 2`` of a pair (i, j) of the problem's
atom vectors and each slack variable appears, with coefficient +1, in
exactly one row.  Linear programs are the special case ``psd_dim == 0``.

The solver follows the central path with the HKM direction and a Mehrotra
predictor-corrector step.  Each side steps SDPT3's fraction (Toh, Todd &
Tutuncu 1999) ``0.9 + 0.09 min(1, a_p, a_d)`` of the way to its cone
boundary, capped at 1 (a_p, a_d: the predictor's steps), so iterates stay
strictly interior.  The loop stops at ``Optimal``, at ``max_iter``, at a
step below 1e-10, or once its merit (the largest of relative gap, objective
difference and scaled residuals) has not improved for ``STALL_ITERS`` steps.

The Schur complement over the row multipliers is ``N + U U^T`` with N
diagonal (slack columns).  The X block enters U in
svec coordinates (the upper triangle, off-diagonal entries scaled by sqrt 2):
with the HKM scaling ``D = X (x)_s S^-1``, the symmetric Kronecker product of
order m(m+1)/2, factored as ``D = R R^T``, row k of U is
``svec(A_k)^T R``, followed by the shared scalar columns (q, extras) scaled
by ``sqrt(x / s)``.  R is kept as ``(P (x)_s P) diag(s) T``: with one PSD
block T is the identity and row k is ``s o svec(P^T A_k P)``, so R acts only
through m x m congruences and is never formed.  The damped slack rows are
eliminated through the Woodbury identity when the free rows (slack-free or
nearly active) and U's width together number fewer than the rows; otherwise
the system is solved densely.  Both paths are exact and polished by
iterative refinement.

The Woodbury path never forms U.  Each row names a pair of the n atoms (for
the coherence program, the frame's columns), so products with U and U^T
reduce to an n x n gather and scatter over the atoms, and the core
``I + U^T B^-1 U`` needs only the weighted Gram
``sum_k b_k svec(P^T A_k P) svec(P^T A_k P)^T``: two fixed gathers of
``K^T W K``, where K is the Khatri-Rao square of the transformed atoms
``atoms @ P`` and W the n x n matrix of pair weights.  Only the few undamped
(free) rows are materialised.

The dense linear algebra is numpy's alone.  Cholesky factors are kept in
64-column blocks with inverted diagonal blocks (:class:`_Cholesky`), so a
factorization and its triangular solves are matrix products, and the
inverse of an ill-conditioned diagonal block is refined once wherever it is
applied.  The PSD blocks, their dual slacks and directions are each one
``(b, m, m)`` stack; the X and S stacks are factored and their Cholesky
factors inverted in one call per iteration, which serves the step lengths,
``S^-1`` and the HKM factor.

Two-sided eigenvalue bounds add the PSD blocks ``W1 = t1 I - X`` and
``W2 = X - t2 I``, each with its own dual slack matrix.  They are affine in
X, so they add no rows: their HKM scalings fold into the X block as
``D^-1 = D_X^-1 + D_W1^-1 + D_W2^-1``.  When ``t1 == t2`` (to within
``1e-12 * max(1, t1)``) the bounds pin ``X = t1 I``; the solver then
substitutes it and solves the remaining linear program over every row, whose
presolve drops the rows left with no variable (they carry zero multipliers);
the bound duals take ``sum_k y_k A_k``.

Presolve drops the slack-free rows that depend linearly on the others, after
checking that their right-hand sides are the same combination of the kept
rows' right-hand sides; an inconsistent system raises ``ValueError``.

Every solve starts from X = I (the box's midpoint when I is not inside it),
q and the extras at 1 and each slack absorbing its row's residual, and from
the problem's ``dual_start`` when its dual slacks are interior, else from
y = 0 with unit dual slacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "SolverStatus",
    "SolverSettings",
    "ConicProblem",
    "ConicSolution",
    "solve",
]

# iterations without a new best merit after which a solve stops
STALL_ITERS = 3
# column width of the blocks in which _Cholesky factors and solves
_BLOCK = 64
# condition estimate above which a _Triangle refines each application once
_REFINE_COND = 1e3


class SolverStatus:
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class SolverSettings:
    gap_tol: float = 1e-7
    feas_tol: float = 1e-7
    max_iter: int = 200


@dataclass
class ConicProblem:
    """Structured instance of the family documented at module level.

    Row k's matrix coefficient is ``row_alpha[k] sym(a_i a_j^T)`` for
    ``(i, j) = row_atoms[k]`` and a_i the rows of ``atoms`` (n x psd_dim; by
    default one zero atom that every row names); ``row_q`` is the
    coefficient on q; ``slack_rows`` places each exclusive slack, with
    coefficient +1 in its row; ``extras`` are shared nonnegative columns with
    zero objective.  With ``psd_dim == 0`` there is no matrix block and the
    instance is a linear program.  ``dual_start`` is an optional
    row-multiplier vector y to start from: ``solve`` uses it when its dual
    slacks ``c - A_lin^T y`` and ``-sum_k y_k A_k`` are interior, and the
    generic start otherwise.
    """

    psd_dim: int
    rhs: np.ndarray
    atoms: np.ndarray = None
    row_atoms: np.ndarray = None
    row_alpha: np.ndarray = None
    row_q: np.ndarray = None
    slack_rows: np.ndarray = None
    extras: np.ndarray = None
    eig_bounds: tuple | None = None
    dual_start: np.ndarray = None

    def __post_init__(self):
        k = len(self.rhs)
        m = self.psd_dim
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.atoms is None:
            self.atoms = np.zeros((1, m))
        if self.row_atoms is None:
            self.row_atoms = np.zeros((k, 2), dtype=int)
        if self.row_alpha is None:
            self.row_alpha = np.zeros(k)
        if self.row_q is None:
            self.row_q = np.zeros(k)
        if self.slack_rows is None:
            self.slack_rows = np.zeros(0, dtype=int)
        self.slack_rows = np.asarray(self.slack_rows, dtype=int)
        if self.extras is None:
            self.extras = np.zeros((k, 0))
        self.atoms = np.asarray(self.atoms, dtype=float)
        self.row_atoms = np.asarray(self.row_atoms, dtype=int)
        self.row_alpha = np.asarray(self.row_alpha, dtype=float)
        self.row_q = np.asarray(self.row_q, dtype=float)
        self.extras = np.asarray(self.extras, dtype=float)
        if self.atoms.ndim != 2 or self.atoms.shape[1] != m:
            raise ValueError(f"atoms must be an (n, {m}) array")
        if self.row_atoms.shape != (k, 2) or ((self.row_atoms < 0) | (self.row_atoms >= len(self.atoms))).any():
            raise ValueError(f"row_atoms must be a ({k}, 2) array of indices into the {len(self.atoms)} atoms")
        if self.row_alpha.shape != (k,) or self.row_q.shape != (k,):
            raise ValueError(f"row_alpha/row_q must have length {k}")
        if self.extras.shape[0] != k:
            raise ValueError(f"extras must have {k} rows")
        if len(np.unique(self.slack_rows)) != len(self.slack_rows):
            raise ValueError("each slack must own a distinct row")
        if self.eig_bounds is not None:
            t1, t2 = self.eig_bounds
            if not (np.isfinite(t1) and np.isfinite(t2) and t1 >= t2 > 0):
                raise ValueError(f"eigenvalue bounds need t1 >= t2 > 0 and finite, got {self.eig_bounds}")
            if m == 0:
                raise ValueError("eigenvalue bounds require a full matrix variable")
        for arr in (self.rhs, self.atoms, self.row_alpha, self.row_q, self.extras):
            if not np.isfinite(arr).all():
                raise ValueError("problem data contains NaN or Inf")
        if self.dual_start is not None:
            self.dual_start = np.asarray(self.dual_start, dtype=float)
            if self.dual_start.shape != (k,) or not np.isfinite(self.dual_start).all():
                raise ValueError(f"dual_start must be a finite vector of length {k}")

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    @property
    def slack_count(self) -> int:
        return len(self.slack_rows)

    @property
    def extra_count(self) -> int:
        return self.extras.shape[1]


@dataclass
class ConicSolution:
    X: np.ndarray               # psd_dim x psd_dim; None when psd_dim == 0
    q: float
    slacks: np.ndarray
    extras: np.ndarray
    y: np.ndarray               # one multiplier per user row
    dual_psd: np.ndarray        # dual slack matrix S for the X block (None when psd_dim == 0)
    q_dual: float
    slack_duals: np.ndarray
    extra_duals: np.ndarray
    pobj: float
    dobj: float
    gap: float                  # complementarity <x, s>
    rel_gap: float
    primal_infeas: float
    dual_infeas: float
    status: str
    iterations: int
    gap_history: list = field(default_factory=list)
    bound_info: dict = field(default_factory=dict)
    dropped_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    kkt_ridges: int = 0         # factorizations that needed a diagonal ridge


# --------------------------------------------------------------------------
# constraint-operator helpers
# --------------------------------------------------------------------------


def _sym(a):
    return 0.5 * (a + a.mT)


def _tri_inv(lower):
    """Inverse of a nonsingular lower triangle L, or of each in a stack,
    through the upper triangle ``J L J`` (J reverses the order): LU leaves an
    upper triangle unpivoted, so its inverse is a backward substitution,
    which for L is a forward substitution, with the small residual
    ``L X - I`` of a triangular solve, and it stays exactly triangular.  A
    pivoted LU of L itself fills the upper part with rounding noise.  Above
    order 32 the halves are inverted apart,
    ``[[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]``, which at
    order 64 costs less than one inverse of the whole."""
    n = lower.shape[-1]
    if n <= 32:
        return np.linalg.inv(lower[..., ::-1, ::-1])[..., ::-1, ::-1]
    h = n // 2
    a, d = _tri_inv(lower[..., :h, :h]), _tri_inv(lower[..., h:, h:])
    out = np.zeros(lower.shape)
    out[..., :h, :h], out[..., h:, h:] = a, d
    out[..., h:, :h] = -(d @ lower[..., h:, :h]) @ a
    return out


def _chol_inv(a):
    """The Cholesky factor L of a (or of each matrix of a stack) and its inverse."""
    lower = np.linalg.cholesky(a)
    return lower, _tri_inv(lower)


def _psd_max_step(chol_inv, delta):
    """Largest t with M + t*delta PSD, for M = L L^T and ``chol_inv = L^-1``;
    over a stack, the largest t that keeps every block PSD."""
    lam_min = np.linalg.eigvalsh(_sym(chol_inv @ delta @ chol_inv.mT)).min()
    if lam_min >= -1e-16:
        return np.inf
    return -1.0 / lam_min


def _lin_max_step(x, dx):
    """Largest t with x + t*dx >= 0, over the last axis (one per row of a
    batch); inf where no component decreases."""
    neg = dx < 0
    ratio = np.divide(-x, dx, out=np.full(neg.shape, np.inf), where=neg)
    return ratio.min(axis=-1, initial=np.inf)


def _merit(gap, pobj, dobj, p_inf, d_inf, settings):
    """``(rel_gap, merit, basic_ok)`` of a measured point, or of each member
    of a batch: the relative gap, the merit (the largest of relative gap,
    objective difference and scaled residuals) and whether the gap and
    objective difference are within ``gap_tol`` and the residuals within
    ``feas_tol``, the ``Optimal`` test short of the stationarity polish."""
    scale = 1.0 + np.abs(pobj)
    rel_gap = gap / scale
    gap_err = np.maximum(rel_gap, np.abs(pobj - dobj) / scale)
    feas_err = np.maximum(p_inf, d_inf)
    return rel_gap, np.maximum(gap_err, feas_err), (gap_err <= settings.gap_tol) & (feas_err <= settings.feas_tol)


# --------------------------------------------------------------------------
# internal problem layout
# --------------------------------------------------------------------------


class _Layout:
    """Index bookkeeping for the flattened nonnegative scalar vector
    ``[q, slacks, extras]`` and, for a matrix X, its atom pairs and svec
    coordinates."""

    def __init__(self, prob: ConicProblem):
        m = prob.psd_dim
        self.prob = prob
        self.matrix_mode = m > 0
        self.n_slack = prob.slack_count
        self.n_extra = prob.extra_count
        self.ex_off = 1 + self.n_slack
        self.n_lin = self.ex_off + self.n_extra
        self.k = prob.n_rows
        self.bounds = prob.eig_bounds if self.matrix_mode else None
        # the sign of X in each PSD block: X, then W1 = t1 I - X, W2 = X - t2 I
        self.signs = np.array([] if not self.matrix_mode else [1.0] if self.bounds is None else [1.0, -1.0, 1.0])

        if self.matrix_mode:
            self.atoms = prob.atoms
            self.iu, self.iv = prob.row_atoms.T
            self.pair_flat = self.iu * len(self.atoms) + self.iv
            self.xa = prob.row_alpha
            r, c = self.tri_r, self.tri_c = np.triu_indices(m)
            nt = len(r)
            self.tri_scale = np.where(r == c, 1.0, np.sqrt(2.0))
            # the svec position of every matrix entry (smat), and the two
            # gathers that turn K^T W K, for a Khatri-Rao square K, into the
            # svec Gram (weighted_gram)
            pos = self.tri_pos = np.zeros((m, m), dtype=int)
            pos[r, c] = pos[c, r] = np.arange(nt)
            self.gathers = (
                pos[r[:, None], r] * nt + pos[c[:, None], c],
                pos[r[:, None], c] * nt + pos[c[:, None], r],
            )

        # the scalar columns shared by all rows (q, extras) in the Schur
        # factor's column order, and their positions in the scalar vector
        self.qcol = prob.row_q
        self.ext = prob.extras
        self.shared = np.hstack([self.qcol[:, None], self.ext])
        self.shared_idx = np.concatenate([[0], np.arange(self.ex_off, self.n_lin)])
        self.b = prob.rhs
        self.c_lin = np.zeros(self.n_lin)
        self.c_lin[0] = 1.0

    def blocks(self, x_mat):
        """The PSD blocks of the primal point whose matrix part is x_mat, as
        one ``(b, m, m)`` stack: none for a linear program (b = 0), X alone
        (b = 1), or X, ``W1 = t1 I - X`` and ``W2 = X - t2 I`` under
        eigenvalue bounds (b = 3)."""
        if self.bounds is None:
            return x_mat[None] if self.matrix_mode else np.empty((0, 0, 0))
        t1, t2 = self.bounds
        eye = np.eye(len(x_mat))
        return np.stack([x_mat, t1 * eye - x_mat, x_mat - t2 * eye])

    # ---- svec coordinates (over any leading stack axes) --------------------
    def svec(self, mat):
        return mat[..., self.tri_r, self.tri_c] * self.tri_scale

    def smat(self, vec):
        return (vec / self.tri_scale)[..., self.tri_pos]

    def svec_rows(self, rows, atoms):
        """svec(A_k) for the given rows, one per line, with ``atoms`` in place
        of the problem's atoms (``atoms @ P`` gives ``svec(P^T A_k P)``)."""
        u, v = atoms[self.iu[rows]], atoms[self.iv[rows]]
        r, c = self.tri_r, self.tri_c
        return (0.5 * self.xa[rows])[:, None] * self.tri_scale * (u[:, r] * v[:, c] + u[:, c] * v[:, r])

    def skron(self, p):
        """``p (x)_s p`` in svec coordinates: svec(M) -> svec(p M p^T)."""
        r, c = self.tri_r, self.tri_c
        pr, pc = p[..., r, :], p[..., c, :]
        return 0.5 * np.outer(self.tri_scale, self.tri_scale) * (pr[..., r] * pc[..., c] + pr[..., c] * pc[..., r])

    # ---- constraint operator ------------------------------------------------
    def apply_psd(self, x_mat):
        """<A_k, X> for every row, given a symmetric X."""
        gram = self.atoms @ x_mat @ self.atoms.T
        return self.xa * gram.ravel()[self.pair_flat]

    def apply_lin(self, x_lin):
        """The scalar columns' contribution to every row."""
        out = self.qcol * x_lin[0]
        if self.n_slack:
            out[self.prob.slack_rows] += x_lin[1 : self.ex_off]
        if self.n_extra:
            out += self.ext @ x_lin[self.ex_off :]
        return out

    def apply(self, x_psd, x_lin):
        """Every row's value at the PSD stack x_psd and scalar vector x_lin."""
        out = self.apply_lin(x_lin)
        if self.matrix_mode:
            out += self.apply_psd(x_psd[0])
        return out

    def adjoint_lin(self, y):
        out = np.zeros(self.n_lin)
        out[0] = self.qcol @ y
        if self.n_slack:
            out[1 : self.ex_off] = y[self.prob.slack_rows]
        if self.n_extra:
            out[self.ex_off :] = self.ext.T @ y
        return out

    def adjoint_psd(self, y):
        """sum_k y_k A_k."""
        n = len(self.atoms)
        pair_w = np.bincount(self.pair_flat, weights=y * self.xa, minlength=n * n).reshape(n, n)
        half = 0.5 * (self.atoms.T @ pair_w @ self.atoms)
        return half + half.T

    def dual_objective(self, y, s_psd):
        """``b^T y``, less ``t1 tr(S_W1) - t2 tr(S_W2)`` under eigenvalue bounds."""
        out = float(self.b @ y)
        if self.bounds is not None:
            t1, t2 = self.bounds
            out += t2 * np.trace(s_psd[2]) - t1 * np.trace(s_psd[1])
        return out

    def dual_residual(self, y, s_psd):
        """``-(sum_k y_k A_k + S_X - S_W1 + S_W2)``, the X-block dual residual
        (None without a full matrix block)."""
        if not self.matrix_mode:
            return None
        out = -self.adjoint_psd(y)
        for sign, sb in zip(self.signs, s_psd):
            out -= sign * sb
        return out


def _hkm_scaling(lay: _Layout, x_psd, s_fac):
    """The HKM scaling of the X block in svec coordinates, given the stack of
    PSD blocks and the pair ``(C, C^-1)`` of :func:`_chol_inv` over the stack
    of their dual slacks.

    Returns ``((P, s, T), d_inv)``: the factor ``R = (P (x)_s P) diag(s) T``
    of ``D = R R^T``, where ``D^-1`` is the sum of ``D_b^-1`` over the b PSD
    blocks and ``D_b = X_b (x)_s S_b^-1``, and, when b = 3, the function
    ``d_inv(vecs, blocks=slice(None))`` that applies ``D_b^-1`` to the svec
    vectors ``vecs``, one per block of the slice ``blocks``.
    With ``S_b = C C^T``, ``C^T X_b C = V diag(g) V^T``, ``P = C^-T V``,
    ``Q = C V`` and ``G_ij = (g_i + g_j) / 2``:

        D_b    svec(M) = svec(P ((P^T M P) o G) P^T),
        D_b^-1 svec(M) = svec(Q ((Q^T M Q) / G) Q^T),

    so both come from products alone (near the central path every g is close
    to mu) and no ill-conditioned matrix of order m(m+1)/2 is inverted.  One
    block gives P, s the upper triangle of ``G^1/2`` in svec order and T the
    identity (None): R is never formed, it acts through m x m congruences
    (:class:`_SchurRows`).
    Under bounds ``D^-1`` spans far more orders of magnitude than any one
    block, so ``P = I``, ``s = 1`` and T is the inverse triangular factor of
    a QR factorization of ``[F_X F_W1 F_W2]^T`` with
    ``F_b = (Q (x)_s Q) diag(G)^-1/2``, not of a Cholesky factorization of
    ``D^-1 = sum_b F_b F_b^T``, which would square that spread; for the same
    reason ``D_b^-1`` is applied in matrix form, never as an explicit matrix;
    ``T = R^-1`` for the QR factor R is the backward sweep of
    :class:`_Cholesky` around ``R^T``.
    """
    r, c = lay.tri_r, lay.tri_c
    sc, sc_inv = s_fac
    g, v = np.linalg.eigh(_sym(sc.mT @ x_psd @ sc))
    g_pair = 0.5 * (g[:, :, None] + g[:, None, :])
    if len(g) == 1:
        return (sc_inv[0].T @ v[0], np.sqrt(g_pair[0, r, c]), None), None
    q = sc @ v

    def d_inv(vecs, blocks=slice(None)):
        qb = q[blocks]
        return lay.svec(qb @ ((qb.mT @ lay.smat(vecs) @ qb) / g_pair[blocks]) @ qb.mT)

    f = lay.skron(q) / np.sqrt(g_pair[:, None, r, c])
    r_q = np.linalg.qr(np.hstack(f).T, mode="r")
    t_mat = _Cholesky.of_factor(r_q.T).backward(np.eye(len(r_q)))
    return (np.eye(g.shape[1]), np.ones(len(r)), t_mat), d_inv


# --------------------------------------------------------------------------
# KKT system
# --------------------------------------------------------------------------


class _SchurRows:
    """The Schur factor U at one iterate, as an operator over all k rows.

    The X-block columns of row k are ``svec(A_k)^T R`` for the HKM factor
    ``R = (P (x)_s P) diag(s) T`` of :func:`_hkm_scaling`, kept factored:
    ``R x = svec(P smat(s o T x) P^T)`` and, by the symmetric Kronecker
    identities, ``R^T svec(M) = T^T (s o svec(P^T M P))``, so row k is
    ``svec(P^T A_k P)`` (atoms ``atoms @ P``) times s, then T.  Products cost
    O(n^2 m + n m^2 + m^3 + k) over the n atoms for one PSD block (T is the
    identity), plus O(m^4) for T under bounds; ``rows`` materialises them
    only for the rows asked for.  The trailing shared scalar columns, scaled
    by ``sqrt(x / s)``, are kept explicitly (for the coherence SDP this is
    the single q column; for linear programs they are all of U).
    """

    def __init__(self, lay: _Layout, scaling, scale):
        self.lay = lay
        self.shared = lay.shared * scale
        self.psd_width = 0
        if lay.matrix_mode:
            self.p, self.s, self.t = scaling
            self.p_atoms = lay.atoms @ self.p
            self.psd_width = len(self.s)
        self.width = self.psd_width + len(scale)

    def r_mul(self, x):
        """``smat(R x)``."""
        if self.t is not None:
            x = self.t @ x
        return self.p @ self.lay.smat(self.s * x) @ self.p.T

    def rt_mul(self, mat):
        """``R^T svec(mat)`` for a symmetric m x m matrix."""
        out = self.s * self.lay.svec(self.p.T @ mat @ self.p)
        return out if self.t is None else self.t.T @ out

    def rows(self, idx):
        """Explicit rows ``idx`` of U."""
        cols = [self.shared[idx]]
        if self.lay.matrix_mode:
            u = self.lay.svec_rows(idx, self.p_atoms) * self.s
            cols.insert(0, u if self.t is None else u @ self.t)
        return np.hstack(cols)

    def rmatvec(self, z):
        """U^T z."""
        tail = self.shared.T @ z
        if not self.lay.matrix_mode:
            return tail
        return np.concatenate([self.rt_mul(self.lay.adjoint_psd(z)), tail])

    def matvec(self, t):
        """U t."""
        lay = self.lay
        out = self.shared @ t[self.psd_width :]
        if lay.matrix_mode:
            out += lay.apply_psd(self.r_mul(t[: self.psd_width]))
        return out

    def weighted_gram(self, b):
        """U^T diag(b) U.

        The X block is ``T^T diag(s) G diag(s) T`` with G the Gram
        ``sum_k b_k svec(P^T A_k P) svec(P^T A_k P)^T``.  Every A_k is
        ``alpha/2 (a_i a_j^T + a_j a_i^T)`` for an atom pair (i, j), so
        ``P^T A_k P`` is the same with the atoms ``a_i^T P``.  Grouping the
        rows by pair into the symmetric n x n weight matrix W and writing K
        for the Khatri-Rao square of those atoms (row i holds the upper
        triangle of ``P^T a_i a_i^T P``), the (pq, rs) entry of G is
        ``c_pq c_rs / 4 (M[pr, qs] + M[ps, qr])`` with ``M = K^T W K``.
        """
        lay = self.lay
        gram = np.zeros((self.width, self.width))
        off = self.psd_width
        weighted = self.shared * b[:, None]
        gram[off:, off:] = weighted.T @ self.shared
        if not lay.matrix_mode:
            return gram
        n = len(lay.atoms)
        pair_w = np.bincount(lay.pair_flat, weights=b * lay.xa**2, minlength=n * n).reshape(n, n)
        pair_w += pair_w.T
        kr = self.p_atoms[:, lay.tri_r] * self.p_atoms[:, lay.tri_c]
        mm = (kr.T @ (pair_w @ kr)).ravel()
        coef = lay.tri_scale * self.s
        g = 0.25 * np.outer(coef, coef) * (mm[lay.gathers[0]] + mm[lay.gathers[1]])
        gram[:off, :off] = g if self.t is None else self.t.T @ g @ self.t
        for j in range(weighted.shape[1]):
            gram[:off, off + j] = self.rt_mul(lay.adjoint_psd(weighted[:, j]))
        gram[off:, :off] = gram[:off, off:].T
        return gram


class _Triangle:
    """A nonsingular lower-triangular block D with its inverse.

    An explicit inverse applied to r leaves a residual ``D t - r`` of up to
    about ``cond(D) u |r|``, where a substitution leaves about ``u |D| |t|``.
    So when the estimate ``||D||_F ||D^-1||_F`` exceeds ``_REFINE_COND``,
    each application takes one refinement step ``t += D^-1 (r - D t)``,
    which brings its residual down to the substitution's.
    """

    def __init__(self, diag):
        self.diag = diag
        self.inv = _tri_inv(diag)
        self.refine = np.linalg.norm(diag) * np.linalg.norm(self.inv) > _REFINE_COND

    def solve(self, r):
        """``D^-1 r``."""
        t = self.inv @ r
        return t + self.inv @ (r - self.diag @ t) if self.refine else t

    def solve_t(self, r):
        """``D^-T r``."""
        t = self.inv.T @ r
        return t + self.inv.T @ (r - self.diag.T @ t) if self.refine else t


class _Cholesky:
    """A lower-triangular factor L (of ``h = L L^T``) kept in column blocks
    of width ``_BLOCK``, each diagonal block a :class:`_Triangle`.

    The factorization is left-looking: a block column's Schur complement is
    one matrix product with the columns before it, its diagonal block is
    factored by ``np.linalg.cholesky``, and the panel below is the rest of
    the column times that block's inverse transposed.  Both triangular
    sweeps are then matrix products with the inverted diagonal blocks and
    the panels, for one right-hand side or many (blocked methods with
    inverted diagonal blocks: Du Croz & Higham, IMA J. Numer. Anal. 12,
    1992; Elmroth et al., SIAM Rev. 46, 2004).  A diagonal block that is
    not positive definite raises ``LinAlgError``.
    """

    def __init__(self, lower, triangles):
        self.lower = lower
        self.blocks = [(j0, j0 + len(tri.diag), tri) for j0, tri in zip(range(0, len(lower), _BLOCK), triangles)]

    @classmethod
    def factor(cls, h):
        """The Cholesky factor of the symmetric positive definite h."""
        n = len(h)
        lower = np.zeros((n, n))
        triangles = []
        for j0 in range(0, n, _BLOCK):
            j1 = min(j0 + _BLOCK, n)
            col = h[j0:, j0:j1] - lower[j0:, :j0] @ lower[j0:j1, :j0].T if j0 else h[:, :j1]
            tri = _Triangle(np.linalg.cholesky(col[: j1 - j0]))
            lower[j0:j1, j0:j1] = tri.diag
            if j1 < n:
                lower[j1:, j0:j1] = tri.solve(col[j1 - j0 :].T).T
            triangles.append(tri)
        return cls(lower, triangles)

    @classmethod
    def of_factor(cls, lower):
        """A given nonsingular lower-triangular matrix."""
        n = len(lower)
        return cls(lower, [_Triangle(lower[j0 : j0 + _BLOCK, j0 : j0 + _BLOCK]) for j0 in range(0, n, _BLOCK)])

    def forward(self, b):
        """``L^-1 b`` for a vector or a matrix b."""
        y = np.array(b, dtype=float)
        n = len(y)
        for j0, j1, tri in self.blocks:
            y[j0:j1] = tri.solve(y[j0:j1])
            if j1 < n:
                y[j1:] -= self.lower[j1:, j0:j1] @ y[j0:j1]
        return y

    def backward(self, y):
        """``L^-T y`` for a vector or a matrix y."""
        x = np.array(y, dtype=float)
        n = len(x)
        for j0, j1, tri in reversed(self.blocks):
            if j1 < n:
                x[j0:j1] -= self.lower[j1:, j0:j1].T @ x[j1:]
            x[j0:j1] = tri.solve_t(x[j0:j1])
        return x

    def solve(self, b):
        """``h^-1 b``."""
        return self.backward(self.forward(b))


class _KKTFactor:
    """Factorization of H = diag(n_diag) + U U^T for U given as a
    :class:`_SchurRows` operator.

    The free rows are those whose diagonal weight is at or near zero: the
    slack-free rows and the slack rows that are nearly active.  When they and
    U's width together number fewer than the k rows, the damped rows
    (weights B) are eliminated through the Woodbury identity: the core
    ``I + U^T B^-1 U = L L^T`` comes from its Khatri-Rao form, and the free
    rows through their Schur complement ``Y^T Y + N_f`` with
    ``Y = L^-1 U_f^T``, so only the free rows of U are ever materialised
    (with none, Y is width x 0 and the Schur complement 0 x 0).  Otherwise
    H is formed and factored densely.  Solves are polished by iterative
    refinement.
    """

    def __init__(self, n_diag, op: _SchurRows):
        self.n_diag = n_diag
        self.op = op
        self.ridges = 0
        k = len(n_diag)
        # moving rows whose weight has collapsed out of the core keeps the
        # Woodbury core well scaled near convergence
        tau = 1e-11 * (1.0 + n_diag.max()) if k else 0.0
        free_mask = n_diag <= tau
        self.free = np.flatnonzero(free_mask)
        self.dense = len(self.free) + op.width >= k
        if self.dense:
            u = op.rows(np.arange(k))
            h = u @ u.T
            h[np.diag_indices_from(h)] += n_diag
            self.fac = self._factor(h)
            return
        # B^-1 on the damped rows, 0 on the free rows
        self.binv = np.zeros(k)
        self.binv[~free_mask] = 1.0 / n_diag[~free_mask]
        core = op.weighted_gram(self.binv)
        core[np.diag_indices_from(core)] += 1.0
        self.core_fac = self._factor(core)
        self.yf = self.core_fac.forward(op.rows(self.free).T)
        sf = self.yf.T @ self.yf
        sf[np.diag_indices_from(sf)] += n_diag[self.free]
        self.free_fac = self._factor(sf)

    def _factor(self, h):
        fac, ridge = _chol_with_ridge(h)
        self.ridges += ridge > 0.0
        return fac

    def _solve_once(self, r):
        if self.dense:
            return self.fac.solve(r)
        # with z = L^-1 U^T B^-1 r, the free rows' solution is
        # lam_f = S_f^-1 (r_f - Y^T z) and the damped rows are
        # B^-1 (r - U L^-T (z + Y lam_f))
        op, binv = self.op, self.binv
        z = self.core_fac.forward(op.rmatvec(binv * r))
        lam_f = self.free_fac.solve(r[self.free] - self.yf.T @ z)
        out = binv * (r - op.matvec(self.core_fac.backward(z + self.yf @ lam_f)))
        out[self.free] = lam_f
        return out

    def apply(self, x):
        return self.n_diag * x + self.op.matvec(self.op.rmatvec(x))

    def solve(self, r):
        # the factors are checked when built; a NaN or Inf in r would come
        # back as the solution, so r is scanned once here
        if not np.isfinite(r).all():
            raise ValueError("KKT right-hand side contains NaN or Inf")
        # iterative refinement keeps the Woodbury path accurate when slack
        # weights span many orders of magnitude; if it stalls, the best
        # iterate is returned and the solver's own residuals judge the step
        rnorm = np.linalg.norm(r) + 1e-300
        x = self._solve_once(r)
        best, best_res = x, np.inf
        for _ in range(12):
            res = r - self.apply(x)
            res_norm = np.linalg.norm(res)
            if res_norm < best_res:
                best, best_res = x, res_norm
            if res_norm <= 1e-11 * rnorm:
                return x
            x = x + self._solve_once(res)
        return best


class _Newton:
    """The scaled, factored Newton system at one iterate.

    ``direction(rc_psd, rc_lin)`` returns ``(dx_psd, dx_lin, dy, ds_psd,
    ds_lin)`` for the complementarity targets ``rc_psd`` (a ``(b, m, m)``
    stack, one per PSD block) and ``rc_lin``; ``dx_psd`` and ``ds_psd`` are
    stacks of the same shape.  In svec coordinates each block gives
    ``dS_b = D_b^-1 (h_b - sign_b dx)`` with ``h_b = svec(sym(rc_b S_b^-1))``,
    and the X-block dual equation then fixes
    ``dx = D (svec(A^T dy) + sum_b sign_b D_b^-1 h_b - rd)``.
    """

    def __init__(self, lay: _Layout, x_psd, x_lin, s_lin, s_fac, residuals):
        prob = lay.prob
        self.lay = lay
        self.x_psd, self.x_lin, self.s_lin = x_psd, x_lin, s_lin
        self.rp, self.rd_mat, self.rd_lin = residuals
        scaling = None
        if lay.matrix_mode:
            scaling, self.d_inv = _hkm_scaling(lay, x_psd, s_fac)
            self.s_inv = s_fac[1].mT @ s_fac[1]
        d_lin = x_lin / s_lin
        if not np.isfinite(d_lin).all():
            raise np.linalg.LinAlgError("scalar scaling is not finite")
        n_diag = np.zeros(lay.k)
        if lay.n_slack:
            n_diag[prob.slack_rows] = d_lin[1 : lay.ex_off]
        self.kkt = _KKTFactor(n_diag, _SchurRows(lay, scaling, np.sqrt(d_lin[lay.shared_idx])))

    def _d(self, mat):
        """``D svec(mat)``; for one block ``svec(P ((P^T mat P) o G) P^T)``."""
        op = self.kkt.op
        return self.lay.svec(op.r_mul(op.rt_mul(mat)))

    def direction(self, rc_psd, rc_lin):
        lay = self.lay
        x_lin, s_lin, rd_lin = self.x_lin, self.s_lin, self.rd_lin
        rhs = self.rp.copy()
        if lay.matrix_mode:
            h = lay.svec(_sym(rc_psd @ self.s_inv))
            if self.d_inv is None:
                dz = h[0] - lay.svec(_sym(self.x_psd[0] @ self.rd_mat @ self.s_inv[0]))
            else:
                z = sum(sign * dh for sign, dh in zip(lay.signs, self.d_inv(h)))
                dz = self._d(lay.smat(z) - self.rd_mat)
            rhs -= lay.apply_psd(lay.smat(dz))
        w = (rc_lin - x_lin * rd_lin) / s_lin
        rhs -= lay.apply_lin(w)
        dy = self.kkt.solve(rhs)
        ds_lin = rd_lin - lay.adjoint_lin(dy)
        dx_lin = (rc_lin - x_lin * ds_lin) / s_lin
        if not lay.matrix_mode:
            # the empty (0, 0, 0) stacks of a linear program
            return rc_psd, dx_lin, dy, rc_psd, ds_lin
        adj = lay.adjoint_psd(dy)
        dx = dz + self._d(adj)
        ds_psd = (self.rd_mat - adj)[None]
        if self.d_inv is not None:
            ds_w = lay.smat(self.d_inv(h[1:] - lay.signs[1:, None] * dx, slice(1, None)))
            for sign, dsb in zip(lay.signs[1:], ds_w):
                ds_psd[0] -= sign * dsb
            ds_psd = np.concatenate([ds_psd, ds_w])
        return lay.signs[:, None, None] * lay.smat(dx), dx_lin, dy, ds_psd, ds_lin


def _chol_with_ridge(h):
    """:class:`_Cholesky` factor of h, adding the smallest diagonal ridge that
    makes it succeed; returns (factor, ridge)."""
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("KKT system contains non-finite entries")
    scale = max(np.trace(h) / max(len(h), 1), 1e-300)
    ridge = 0.0
    for _ in range(12):
        try:
            if ridge == 0.0:
                return _Cholesky.factor(h), ridge
            shifted = h.copy()
            shifted[np.diag_indices_from(shifted)] += ridge
            return _Cholesky.factor(shifted), ridge
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100.0, 1e-14 * scale)
    raise np.linalg.LinAlgError("KKT system could not be factorized")


def _drop_dependent_free_rows(prob: ConicProblem, feas_tol: float) -> tuple[ConicProblem, np.ndarray]:
    """Presolve: drop linearly dependent slack-free rows (e.g. duplicated
    unit-norm constraints from parallel columns, or rows left with no
    variable); ``solve`` reports them in ``ConicSolution.dropped_rows``.

    Slack-bearing rows own a private column and can never be dependent.  A
    dropped row is implied only if its right-hand side is the combination of
    the kept free rows' right-hand sides that its coefficients are; when one
    misses it by more than ``feas_tol * max(1, max|b|)`` the rows are
    inconsistent and ``ValueError`` names them.
    """
    k = prob.n_rows
    free = np.delete(np.arange(k), prob.slack_rows)
    if len(free) < 2:
        return prob, np.zeros(0, dtype=int)
    # the free rows' Gram in (svec(A), q, extras) coordinates, svec part from
    # the atoms' Gram g: <sym(u v^T), sym(u' v'^T)> = (g_uu' g_vv' + g_uv' g_vu') / 2
    g = prob.atoms @ prob.atoms.T
    (iu, iv), a = prob.row_atoms[free].T, prob.row_alpha[free]
    uv = g[np.ix_(iu, iv)]
    gram = 0.5 * np.outer(a, a) * (g[np.ix_(iu, iu)] * g[np.ix_(iv, iv)] + uv * uv.T)
    gram += np.outer(prob.row_q[free], prob.row_q[free])
    if prob.extra_count:
        gram += prob.extras[free] @ prob.extras[free].T
    drop_local = _pivoted_chol_dependents(gram)
    if not len(drop_local):
        return prob, np.zeros(0, dtype=int)
    dropped = free[drop_local]
    kept = np.delete(np.arange(len(free)), drop_local)
    coef = np.linalg.lstsq(gram[np.ix_(kept, kept)], gram[np.ix_(kept, drop_local)], rcond=None)[0]
    miss = np.abs(prob.rhs[dropped] - coef.T @ prob.rhs[free[kept]])
    bad = dropped[miss > feas_tol * max(1.0, np.abs(prob.rhs).max())]
    if len(bad):
        raise ValueError(f"constraint rows {bad.tolist()} depend on other equality rows but contradict their right-hand sides")
    keep = np.delete(np.arange(k), dropped)
    remap = -np.ones(k, dtype=int)
    remap[keep] = np.arange(len(keep))
    reduced = replace(
        prob,
        rhs=prob.rhs[keep],
        row_atoms=prob.row_atoms[keep],
        row_alpha=prob.row_alpha[keep],
        row_q=prob.row_q[keep],
        slack_rows=remap[prob.slack_rows],
        extras=prob.extras[keep],
        dual_start=None if prob.dual_start is None else prob.dual_start[keep],
    )
    return reduced, dropped


def _pivoted_chol_dependents(gram):
    """Indices whose pivot collapses during pivoted Cholesky of a Gram matrix.

    The rule of LAPACK's pivoted Cholesky: each step pivots on the largest
    remaining diagonal entry, the original diagonal entry less the squares
    of the row's factor entries so far, and the factorization stops when
    that entry is at most 1e-12 of the largest diagonal entry; the rows not
    yet pivoted are the dependent ones.  Factor columns are kept by
    original row, with zeros on the pivoted rows.
    """
    n = len(gram)
    diag = np.diag(gram).copy()
    tol = 1e-12 * diag.max()
    lower = np.zeros((n, n))
    work = np.zeros(n)
    free = np.ones(n, dtype=bool)
    for j in range(n):
        remaining = np.where(free, diag - work, -np.inf)
        p = int(np.argmax(remaining))
        if remaining[p] <= tol:
            return np.flatnonzero(free)
        free[p] = False
        col = (gram[p] - lower[:, :j] @ lower[p, :j]) * (1.0 / np.sqrt(remaining[p]))
        col[~free] = 0.0
        lower[:, j] = col
        work += col * col
    return np.zeros(0, dtype=int)


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------


def solve(problem: ConicProblem, settings: SolverSettings = SolverSettings()) -> ConicSolution:
    """Run the interior-point method on ``problem``.

    The instance must admit a strictly feasible primal point (builders in
    :mod:`framecond.precondition` construct one).  On ``Optimal`` the
    complementarity gap and the primal/dual objective difference are both at
    most ``gap_tol * (1 + |objective|)`` and the feasibility residuals at
    most ``feas_tol`` (relative).  The loop also polishes ``|X_b S_b|_F`` to
    ``5 * gap_tol``.  A solve that stops first (``max_iter``, a step below
    1e-10, a merit flat for ``STALL_ITERS`` iterations) returns its best-merit
    iterate, labelled ``Optimal`` if it passed the tests above, else with the
    status that stopped the loop (``MaxIter`` for these three).

    Eigenvalue bounds with ``t1 - t2 <= 1e-12 * max(1, |t1|)`` pin
    ``X = t1 I``; the remaining linear program is solved instead.  Raises
    ``ValueError`` when presolve finds dependent equality rows whose
    right-hand sides contradict each other (for pinned bounds, rows that
    ``X = t1 I`` violates).  ``dropped_rows`` lists the dropped rows, a pinned
    solve's included, in the caller's indexing; their multipliers are 0.
    """
    reduced, dropped = _drop_dependent_free_rows(problem, settings.feas_tol)
    bounds = reduced.eig_bounds
    if bounds is not None and bounds[0] - bounds[1] <= 1e-12 * max(1.0, abs(bounds[0])):
        sol = _solve_pinned(reduced, settings, bounds[0])
    else:
        sol = _ipm(_Layout(reduced), settings)
    # dropped rows are implied equalities: zero multipliers keep the dual intact
    kept = np.delete(np.arange(problem.n_rows), dropped)
    y_full = np.zeros(problem.n_rows)
    y_full[kept] = sol.y
    sol.y = y_full
    sol.dropped_rows = np.union1d(dropped, kept[sol.dropped_rows])
    return sol


def _floor_slacks(lay: _Layout, x_psd, x_lin):
    """Make each slack absorb its row residual at x_psd, floored away from zero."""
    if not lay.n_slack:
        return x_lin
    probe = x_lin.copy()
    probe[1 : lay.ex_off] = 0.0
    base = lay.apply(x_psd, probe)
    resid = lay.b[lay.prob.slack_rows] - base[lay.prob.slack_rows]
    x_lin[1 : lay.ex_off] = np.maximum(resid, 0.1)
    return x_lin


def _primal_start(lay: _Layout):
    """The PSD stack of X = I, or of the box's midpoint when I is not 1e-3 (t1 - t2)
    inside it, and q and the extras at 1, each slack from :func:`_floor_slacks`."""
    x_mat = np.eye(lay.prob.psd_dim) if lay.matrix_mode else None
    if lay.bounds is not None:
        t1, t2 = lay.bounds
        margin = 1e-3 * (t1 - t2)
        if not t2 + margin < 1.0 < t1 - margin:
            x_mat *= 0.5 * (t1 + t2)
    x_psd = lay.blocks(x_mat)
    return x_psd, _floor_slacks(lay, x_psd, np.ones(lay.n_lin))


def _start_state(lay: _Layout):
    """``(x_psd, x_lin, y, s_psd, s_lin)``: the primal start with the dual start's
    slacks when they are interior, else with y = 0 and unit dual slacks."""
    x_psd, x_lin = _primal_start(lay)
    s_unit = np.tile(np.eye(lay.prob.psd_dim), (len(lay.signs), 1, 1))
    y = lay.prob.dual_start
    if y is not None:
        s_lin = lay.c_lin - lay.adjoint_lin(y)
        # equal dual slacks on W1 and W2 cancel in the X-block dual
        # residual, so the start stays exactly dual feasible
        s_psd = s_unit.copy()
        if lay.matrix_mode:
            s_psd[0] = -lay.adjoint_psd(y)
        if (s_lin > 1e-12).all() and (np.linalg.eigvalsh(s_psd) > 1e-12).all():
            return x_psd, x_lin, y.copy(), s_psd, s_lin
    return x_psd, x_lin, np.zeros(lay.k), s_unit, np.ones(lay.n_lin)


def _measure(lay: _Layout, x_psd, x_lin, y, s_psd, s_lin):
    """The residuals ``(rp, rd_mat, rd_lin)`` of a primal-dual point and its
    measurement ``(gap, pobj, dobj, p_inf, d_inf)``: the complementarity gap,
    both objectives and the scaled primal and dual infeasibilities."""
    rp = lay.b - lay.apply(x_psd, x_lin)
    rd_mat = lay.dual_residual(y, s_psd)
    rd_lin = lay.c_lin - s_lin - lay.adjoint_lin(y)
    gap = float(sum(np.vdot(xb, sb) for xb, sb in zip(x_psd, s_psd)) + x_lin @ s_lin)
    p_inf = float(np.abs(rp).max()) / (1.0 + np.abs(lay.b).max())
    d_inf = max(
        float(np.abs(rd_lin).max()),
        float(np.abs(rd_mat).max()) if rd_mat is not None else 0.0,
    ) / 2.0
    return (rp, rd_mat, rd_lin), (gap, float(x_lin[0]), lay.dual_objective(y, s_psd), p_inf, d_inf)


def _ipm(lay: _Layout, settings: SolverSettings) -> ConicSolution:
    x_psd, x_lin, y, s_psd, s_lin = _start_state(lay)
    nu = x_psd.shape[0] * x_psd.shape[1] + lay.n_lin
    gap_history: list[float] = []
    status = SolverStatus.MAX_ITER
    iters = 0
    ridges = 0
    best, best_merit, stalled = None, np.inf, 0  # the best-merit iterate, measured, with its basic-test flag

    # the loop ends right after measuring the point it holds
    for iters in range(max(settings.max_iter, 0) + 1):
        residuals, measured = _measure(lay, x_psd, x_lin, y, s_psd, s_lin)
        gap, pobj = measured[:2]
        rel_gap, merit, basic_ok = _merit(*measured, settings)
        gap_history.append(gap)
        # the stationarity products |X_b S_b|_F can sit well above the trace
        # gap when the optimal X is nearly singular; polishing until they
        # pass keeps every Optimal solve inside the KKT residual contract
        xs = x_psd @ s_psd
        psd_prod = max(map(np.linalg.norm, xs), default=0.0) / (1.0 + abs(pobj))
        if merit < best_merit:
            # every update below binds new arrays and writes into none, so
            # the best iterate is kept by reference
            best_merit, best, stalled = merit, ((x_psd, x_lin, y, s_psd, s_lin), measured, basic_ok), 0
        else:
            stalled += 1
        if basic_ok and (psd_prod <= 5.0 * settings.gap_tol or rel_gap <= 1e-3 * settings.gap_tol):
            status = SolverStatus.OPTIMAL
            break
        if iters >= settings.max_iter or stalled == STALL_ITERS:
            # a flat merit has reached the accuracy floor of the directions
            break

        mu = gap / nu
        try:
            # a linear program's stacks are empty: skip the calls that factor them
            x_inv = s_fac = None
            if lay.matrix_mode:
                # both stacks are exactly symmetric: one factorization serves them
                lower, inv = _chol_inv(np.concatenate([x_psd, s_psd]))
                b = len(x_psd)
                x_inv, s_fac = inv[:b], (lower[b:], inv[b:])
            newton = _Newton(lay, x_psd, x_lin, s_lin, s_fac, residuals)
        except np.linalg.LinAlgError:
            status = SolverStatus.NUMERICAL_FAILURE
            break
        ridges += newton.kkt.ridges

        def boundary_steps(dxp, dxl, dsp, dsl):
            """Primal and dual step lengths that reach the cone boundary."""
            a_p, a_d = _lin_max_step(x_lin, dxl), _lin_max_step(s_lin, dsl)
            if lay.matrix_mode:
                a_p, a_d = min(_psd_max_step(x_inv, dxp), a_p), min(_psd_max_step(s_fac[1], dsp), a_d)
            return a_p, a_d

        def gap_after(dxp, dxl, dsp, dsl, a_p, a_d):
            return sum(
                np.vdot(xb + a_p * dxb, sb + a_d * dsb)
                for xb, dxb, sb, dsb in zip(x_psd, dxp, s_psd, dsp)
            ) + (x_lin + a_p * dxl) @ (s_lin + a_d * dsl)

        # predictor
        rc_lin = -x_lin * s_lin
        dxp_a, dxl_a, _, dsp_a, dsl_a = newton.direction(-xs, rc_lin)
        bp_a, bd_a = boundary_steps(dxp_a, dxl_a, dsp_a, dsl_a)
        gap_aff = gap_after(dxp_a, dxl_a, dsp_a, dsl_a, min(bp_a, 1.0), min(bd_a, 1.0))
        sigma = min(max((gap_aff / gap) ** 3, 0.0), 0.99999)

        # corrector
        rc_psd = sigma * mu * np.eye(x_psd.shape[1]) - xs - dxp_a @ dsp_a
        rc_lin = sigma * mu - x_lin * s_lin - dxl_a * dsl_a
        dx_psd, dx_lin, dy, ds_psd, ds_lin = newton.direction(rc_psd, rc_lin)

        # SDPT3's step length, per side: the fraction of the way to the
        # boundary nears 1 as the predictor's steps do
        gamma = 0.9 + 0.09 * min(bp_a, bd_a, 1.0)
        bp, bd = boundary_steps(dx_psd, dx_lin, ds_psd, ds_lin)
        ap, ad = min(gamma * bp, 1.0), min(gamma * bd, 1.0)
        if min(ap, ad) < 1e-10:
            break
        if lay.matrix_mode:
            x_psd = lay.blocks(_sym(x_psd[0] + ap * dx_psd[0]))
        s_psd = _sym(s_psd + ad * ds_psd)
        x_lin = x_lin + ap * dx_lin
        s_lin = s_lin + ad * ds_lin
        y = y + ad * dy

    if status != SolverStatus.OPTIMAL and best is not None:
        # the best-merit iterate; if it met the basic criteria, only the
        # stationarity polish stalled, so it is reported as Optimal
        (x_psd, x_lin, y, s_psd, s_lin), measured, basic_ok = best
        if basic_ok:
            status = SolverStatus.OPTIMAL
    sol = _package(lay, x_psd, x_lin, y, s_psd, s_lin, measured, status, iters, gap_history)
    sol.kkt_ridges = ridges
    return sol


def _package(lay, x_psd, x_lin, y, s_psd, s_lin, measured, status, iters, gap_history):
    """The solution at a loop point, given the measurement :func:`_measure` took of it."""
    gap, pobj, dobj, p_inf, d_inf = measured
    # the start and every update keep each block exactly symmetric
    x_out = s_out = None
    if lay.matrix_mode:
        x_out, s_out = x_psd[0].copy(), s_psd[0].copy()

    bound_info = {}
    if lay.bounds is not None:
        w1, w2, z1, z2 = np.concatenate([x_psd[1:], s_psd[1:]])
        bound_info = {"upper_slack": w1, "lower_slack": w2, "upper_dual": z1, "lower_dual": z2}

    return ConicSolution(
        X=x_out,
        q=pobj,
        slacks=x_lin[1 : lay.ex_off].copy(),
        extras=x_lin[lay.ex_off :].copy(),
        y=y.copy(),
        dual_psd=s_out,
        q_dual=float(s_lin[0]),
        slack_duals=s_lin[1 : lay.ex_off].copy(),
        extra_duals=s_lin[lay.ex_off :].copy(),
        pobj=pobj,
        dobj=dobj,
        gap=gap,
        rel_gap=gap / (1.0 + abs(pobj)),
        primal_infeas=p_inf,
        dual_infeas=d_inf,
        status=status,
        iterations=iters,
        gap_history=gap_history,
        bound_info=bound_info,
    )


def _solve_pinned(problem: ConicProblem, settings: SolverSettings, t_pin: float) -> ConicSolution:
    """Bounds with t1 == t2 leave X = t_pin * I as the only matrix choice;
    substitute it and solve the remaining LP over (q, slacks, extras), from
    the problem's ``dual_start`` (the LP's start rule applies: its dual
    slacks must be interior).  Rows left with no variable become zero rows,
    which the LP's presolve drops, with their multipliers, raising
    ``ValueError`` if X = t_pin * I violates one."""
    lay = _Layout(problem)
    m = problem.psd_dim
    sub = ConicProblem(
        psd_dim=0,
        rhs=problem.rhs - lay.apply_psd(t_pin * np.eye(m)),
        row_q=problem.row_q,
        slack_rows=problem.slack_rows,
        extras=problem.extras,
        dual_start=problem.dual_start,
    )
    sol = solve(sub, settings)
    sol.X = t_pin * np.eye(m)
    sol.dual_psd = np.zeros((m, m))
    # X = t_pin I is interior, so S_X = 0 and the bound duals (zero blocks
    # W1, W2) take the positive and negative parts of sum_k y_k A_k
    w, v = np.linalg.eigh(lay.adjoint_psd(sol.y))
    sol.bound_info = {"pinned": t_pin, "upper_dual": (v * np.maximum(w, 0.0)) @ v.T,
                      "lower_dual": (v * np.maximum(-w, 0.0)) @ v.T}
    return sol
