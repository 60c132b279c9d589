"""Primal-dual path-following solver for a structured conic family.

The family solved here is

    minimize    q
    subject to  <A_k, X>  +  c_k q  +  (slack term)  +  e_k . w  =  b_k
                X PSD (m x m),  q >= 0,  slacks >= 0,  w >= 0,
                optionally  t2 I <= X <= t1 I,

where every coefficient matrix A_k is a symmetrized rank-two outer product
``alpha_k (u_k v_k^T + v_k u_k^T) / 2`` and each slack variable appears in
exactly one row.  Linear programs are the special cases where X is
constrained diagonal (its diagonal joins the nonnegative scalars) or absent.

The solver follows the central path with the HKM direction and a Mehrotra
predictor-corrector step, fraction-to-boundary 0.98.  Iterates stay strictly
inside the cones throughout.  The Schur complement over the row multipliers
is ``N + U U^T`` with N diagonal (slack columns) and U of width
``sum(m_b^2) + shared scalar columns``; row k of U's block b is
``vec(L_b^T A_{k,b} T_b)`` for the HKM factors ``X_b = L_b L_b^T`` and
``S_b^-1 = T_b T_b^T``.  The system is solved either densely or, for large
row counts, by block elimination of the slack-bearing rows through the
Woodbury identity; both paths are exact and interchangeable.

The Woodbury path never forms U.  The row vectors u_k, v_k are drawn from a
small dictionary of distinct atoms (the frame's columns, plus the unit
vectors when eigenvalue bounds add coupling rows), so each row is a pair of
atom indices.  Products with U and U^T reduce to an n x n gather and scatter
over the atoms, and the core ``I + U_d^T N_d^-1 U_d`` to two Khatri-Rao
products of ``atoms L`` and ``atoms T`` weighted by the n x n matrix of pair
weights: O(n m^4 + n^2 m^2) work instead of O(k m^4) for k rows.  Only the
few undamped (free) rows are materialised.

Two-sided eigenvalue bounds are carried as extra PSD slack blocks
``W1 = t1 I - X`` and ``W2 = X - t2 I`` tied to X by internal coupling rows.
When ``t1 == t2`` the bounds pin ``X = t1 I``; the solver then eliminates the
matrix block and solves the remaining linear program (no interior exists, so
duals are reported for the reduced problem and the eliminated equality rows
carry zero multipliers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

__all__ = [
    "SolverStatus",
    "SolverSettings",
    "ConicProblem",
    "ConicSolution",
    "KKTResiduals",
    "solve",
    "kkt_residuals",
]


class SolverStatus:
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class SolverSettings:
    gap_tol: float = 1e-7
    feas_tol: float = 1e-7
    max_iter: int = 200
    step_fraction: float = 0.98
    kkt_mode: str = "auto"          # auto | dense | woodbury
    verbose: bool = False


@dataclass
class ConicProblem:
    """Structured instance of the family documented at module level.

    ``row_u``, ``row_v``, ``row_alpha`` give the rank-two matrix coefficient
    of each row (all-zero rows are fine); ``row_q`` the coefficient on q;
    ``slack_rows``/``slack_coefs`` place each exclusive slack; ``extras`` are
    shared nonnegative columns with zero objective.  ``diag_rows``,
    ``pair_pos_rows`` and ``pair_neg_rows`` are optional row labels used for
    dual bookkeeping and KKT reporting.
    """

    psd_dim: int
    rhs: np.ndarray
    row_u: np.ndarray = None
    row_v: np.ndarray = None
    row_alpha: np.ndarray = None
    row_q: np.ndarray = None
    slack_rows: np.ndarray = None
    slack_coefs: np.ndarray = None
    extras: np.ndarray = None
    diagonal: bool = False
    eig_bounds: tuple | None = None
    diag_rows: np.ndarray = None
    pair_pos_rows: np.ndarray = None
    pair_neg_rows: np.ndarray = None
    primal_start: dict = None
    dual_start: dict = None

    def __post_init__(self):
        k = len(self.rhs)
        m = self.psd_dim
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.row_u is None:
            self.row_u = np.zeros((k, m))
        if self.row_v is None:
            self.row_v = np.zeros((k, m))
        if self.row_alpha is None:
            self.row_alpha = np.zeros(k)
        if self.row_q is None:
            self.row_q = np.zeros(k)
        if self.slack_rows is None:
            self.slack_rows = np.zeros(0, dtype=int)
        self.slack_rows = np.asarray(self.slack_rows, dtype=int)
        if self.slack_coefs is None:
            self.slack_coefs = np.ones(len(self.slack_rows))
        if self.extras is None:
            self.extras = np.zeros((k, 0))
        self.row_u = np.asarray(self.row_u, dtype=float)
        self.row_v = np.asarray(self.row_v, dtype=float)
        self.row_alpha = np.asarray(self.row_alpha, dtype=float)
        self.row_q = np.asarray(self.row_q, dtype=float)
        self.extras = np.asarray(self.extras, dtype=float)
        if self.row_u.shape != (k, m) or self.row_v.shape != (k, m):
            raise ValueError(f"row_u/row_v must be ({k}, {m}) arrays")
        if self.row_alpha.shape != (k,) or self.row_q.shape != (k,):
            raise ValueError(f"row_alpha/row_q must have length {k}")
        if self.extras.shape[0] != k:
            raise ValueError(f"extras must have {k} rows")
        if len(self.slack_rows) != len(self.slack_coefs):
            raise ValueError("slack_rows and slack_coefs lengths differ")
        if len(np.unique(self.slack_rows)) != len(self.slack_rows):
            raise ValueError("each slack must own a distinct row")
        if self.eig_bounds is not None:
            t1, t2 = self.eig_bounds
            if not (np.isfinite(t1) and np.isfinite(t2) and t1 >= t2 > 0):
                raise ValueError(f"eigenvalue bounds need t1 >= t2 > 0 and finite, got {self.eig_bounds}")
            if self.diagonal or m == 0:
                raise ValueError("eigenvalue bounds require a full matrix variable")
        for arr in (self.rhs, self.row_u, self.row_v, self.row_alpha, self.row_q, self.extras):
            if not np.isfinite(arr).all():
                raise ValueError("problem data contains NaN or Inf")

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
    X: np.ndarray               # psd_dim x psd_dim (diagonal case included); None when psd_dim == 0
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
    dropped_rows: np.ndarray = None
    kkt_fallbacks: int = 0      # Woodbury factors replaced by a dense factor
    kkt_ridges: int = 0         # factorizations that needed a diagonal ridge


@dataclass(frozen=True)
class KKTResiduals:
    stationarity: float         # ||X (sum z_ii A_ii + sum (z_ij - z_ji) A_ij)||_F
    pos_complementarity: float  # max |z_ij p_ij|
    neg_complementarity: float  # max |z_ji q_ij|
    normalization: float        # |q (1 - sum (z_ij + z_ji))|


# --------------------------------------------------------------------------
# constraint-operator helpers
# --------------------------------------------------------------------------


def _apply_rows_psd(u, v, alpha, x_mat):
    """alpha_k * u_k^T X v_k for all rows."""
    return alpha * np.einsum("km,km->k", u @ x_mat, v)


def _scaled_rows(u, v, alpha, left, right):
    """Rows vec(L^T A_k T): the PSD contribution to the Schur factor U."""
    ul = u @ left
    vt = v @ right
    vl = v @ left
    ut = u @ right
    k, m = ul.shape
    out = ul[:, :, None] * vt[:, None, :]
    out += vl[:, :, None] * ut[:, None, :]
    out *= (0.5 * alpha)[:, None, None]
    return out.reshape(k, m * m)


def _sym(a):
    return 0.5 * (a + a.T)


def _psd_max_step(chol_lower, delta):
    """Largest t with M + t*delta PSD, for M = L L^T."""
    w = solve_triangular(chol_lower, delta, lower=True)
    w = solve_triangular(chol_lower, w.T, lower=True)
    lam_min = np.linalg.eigvalsh(_sym(w)).min()
    if lam_min >= -1e-16:
        return np.inf
    return -1.0 / lam_min


def _lin_max_step(x, dx):
    neg = dx < 0
    if not neg.any():
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


# --------------------------------------------------------------------------
# internal problem layout
# --------------------------------------------------------------------------


class _Layout:
    """Index bookkeeping for the flattened nonnegative scalar vector and the
    full row set (user rows followed by any bound-coupling rows)."""

    def __init__(self, prob: ConicProblem):
        m = prob.psd_dim
        self.prob = prob
        self.diag_mode = prob.diagonal and m > 0
        self.matrix_mode = (not prob.diagonal) and m > 0
        self.n_sigma = m if self.diag_mode else 0
        self.n_slack = prob.slack_count
        self.n_extra = prob.extra_count
        self.q_pos = self.n_sigma
        self.sl_off = self.n_sigma + 1
        self.ex_off = self.sl_off + self.n_slack
        self.n_lin = self.ex_off + self.n_extra

        k_user = prob.n_rows
        self.k_user = k_user
        self.bounds = prob.eig_bounds if self.matrix_mode else None
        if self.bounds is not None:
            tri = np.triu_indices(m)
            self.tri_r, self.tri_c = tri
            self.n_couple = len(tri[0])
        else:
            self.n_couple = 0
        self.k_total = k_user + 2 * self.n_couple

        # rank-two coefficients of the X block over all rows, each row a pair
        # (iu_k, iv_k) of indices into a dictionary of distinct atom vectors
        if self.matrix_mode:
            u = np.zeros((self.k_total, m))
            v = np.zeros((self.k_total, m))
            a = np.zeros(self.k_total)
            u[:k_user] = prob.row_u
            v[:k_user] = prob.row_v
            a[:k_user] = prob.row_alpha
            # coupling rows carry alpha = 1 on X and +1 / -1 on W1 / W2
            self.block_alpha = [a]
            if self.bounds is not None:
                rows1 = k_user + np.arange(self.n_couple)
                rows2 = rows1 + self.n_couple
                for rows, sign in ((rows1, 1.0), (rows2, -1.0)):
                    u[rows, self.tri_r] = 1.0
                    v[rows, self.tri_c] = 1.0
                    a[rows] = 1.0
                    a_w = np.zeros(self.k_total)
                    a_w[rows] = sign
                    self.block_alpha.append(a_w)
                self.rows1, self.rows2 = rows1, rows2
            self.atoms, inverse = np.unique(np.vstack([u, v]), axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)
            self.iu, self.iv = inverse[: self.k_total], inverse[self.k_total :]
            self.pair_flat = self.iu * len(self.atoms) + self.iv
            self.xa = a

        # scalar coefficient columns, padded to k_total
        pad = self.k_total - k_user
        self.qcol = np.concatenate([prob.row_q, np.zeros(pad)])
        self.ext = np.vstack([prob.extras, np.zeros((pad, self.n_extra))]) if self.n_extra else np.zeros((self.k_total, 0))
        sig = np.zeros((self.k_total, self.n_sigma))
        if self.diag_mode:
            self.sig_cols = prob.row_alpha[:, None] * prob.row_u * prob.row_v  # (k_user, m)
            sig[:k_user] = self.sig_cols
        # the scalar columns shared by all rows (q, diagonal X, extras) in the
        # Schur factor's column order, and their positions in the scalar vector
        self.shared = np.hstack([self.qcol[:, None], sig, self.ext])
        self.shared_idx = np.concatenate(
            [[self.q_pos], np.arange(self.n_sigma), np.arange(self.ex_off, self.n_lin)]
        )

        self.b_full = np.concatenate([prob.rhs, np.zeros(pad)])
        if self.bounds is not None:
            t1, t2 = self.bounds
            diag_mask = self.tri_r == self.tri_c
            self.b_full[self.rows1] = np.where(diag_mask, t1, 0.0)
            self.b_full[self.rows2] = np.where(diag_mask, t2, 0.0)

        self.c_lin = np.zeros(self.n_lin)
        self.c_lin[self.q_pos] = 1.0

    # ---- constraint operator ------------------------------------------------
    def apply_psd(self, mats):
        """sum_b <A_{k,b}, mats[b]> for every row, given symmetric blocks."""
        gram = self.atoms @ mats[0] @ self.atoms.T
        out = self.xa * gram.ravel()[self.pair_flat]
        if self.bounds is not None:
            out[self.rows1] += mats[1][self.tri_r, self.tri_c]
            out[self.rows2] -= mats[2][self.tri_r, self.tri_c]
        return out

    def apply(self, x_psd, x_lin):
        out = self.apply_psd(x_psd) if self.matrix_mode else np.zeros(self.k_total)
        if self.diag_mode:
            out[: self.k_user] += self.sig_cols @ x_lin[: self.n_sigma]
        out += self.qcol * x_lin[self.q_pos]
        if self.n_slack:
            out[self.prob.slack_rows] += self.prob.slack_coefs * x_lin[self.sl_off : self.ex_off]
        if self.n_extra:
            out += self.ext @ x_lin[self.ex_off :]
        return out

    def adjoint_lin(self, y):
        out = np.zeros(self.n_lin)
        if self.diag_mode:
            out[: self.n_sigma] = self.sig_cols.T @ y[: self.k_user]
        out[self.q_pos] = self.qcol @ y
        if self.n_slack:
            out[self.sl_off : self.ex_off] = self.prob.slack_coefs * y[self.prob.slack_rows]
        if self.n_extra:
            out[self.ex_off :] = self.ext.T @ y
        return out

    def adjoint_psd(self, y):
        """Per-block sum_k y_k A_{k,b}."""
        n = len(self.atoms)
        pair_w = np.bincount(self.pair_flat, weights=y * self.xa, minlength=n * n).reshape(n, n)
        half = 0.5 * (self.atoms.T @ pair_w @ self.atoms)
        out = [half + half.T]
        if self.bounds is not None:
            m = self.prob.psd_dim
            w1 = np.zeros((m, m))
            w2 = np.zeros((m, m))
            half1 = 0.5 * y[self.rows1]
            half2 = -0.5 * y[self.rows2]
            w1[self.tri_r, self.tri_c] += half1
            w1[self.tri_c, self.tri_r] += half1
            w2[self.tri_r, self.tri_c] += half2
            w2[self.tri_c, self.tri_r] += half2
            out.extend([w1, w2])
        return out


# --------------------------------------------------------------------------
# KKT system
# --------------------------------------------------------------------------


class _SchurRows:
    """Rows ``sub`` of the Schur factor U at one iterate, as operators.

    Column block b (one per PSD block) holds ``vec(L_b^T A_{k,b} T_b)``;
    products with it cost O(n^2 m + n m^2 + k) over the n atoms, and
    ``rows`` materialises it only for the rows asked for.  The trailing
    shared scalar columns, scaled by
    ``sqrt(x / s)``, are kept explicitly (for the coherence SDP this is the
    single q column; for linear programs they are all of U).
    """

    def __init__(self, lay: _Layout, chols, t_mats, scale, sub=None):
        self.lay = lay
        self.chols, self.t_mats = chols, t_mats
        self.scale = scale
        self.sub = np.arange(lay.k_total) if sub is None else sub
        self.shared = lay.shared[self.sub] * scale
        self.m = lay.prob.psd_dim
        self.psd_width = len(chols) * self.m * self.m
        self.width = self.psd_width + len(scale)

    def restrict(self, sub):
        """The operator for rows ``sub`` of U."""
        return _SchurRows(self.lay, self.chols, self.t_mats, self.scale, sub)

    def rows(self, idx):
        """Explicit rows ``idx`` (positions within ``sub``)."""
        lay = self.lay
        cols = []
        if lay.matrix_mode:
            glob = self.sub[idx]
            u, v = lay.atoms[lay.iu[glob]], lay.atoms[lay.iv[glob]]
            cols = [
                _scaled_rows(u, v, alpha[glob], left, right)
                for alpha, left, right in zip(lay.block_alpha, self.chols, self.t_mats)
            ]
        cols.append(self.shared[idx])
        return np.hstack(cols)

    def _psd_rmatvec(self, z):
        y = np.zeros(self.lay.k_total)
        y[self.sub] = z
        adj = self.lay.adjoint_psd(y)
        return [(left.T @ a @ right).ravel() for left, right, a in zip(self.chols, self.t_mats, adj)]

    def rmatvec(self, z):
        """U_sub^T z."""
        tail = self.shared.T @ z
        if not self.lay.matrix_mode:
            return tail
        return np.concatenate(self._psd_rmatvec(z) + [tail])

    def matvec(self, t):
        """U_sub t."""
        lay = self.lay
        out = self.shared @ t[self.psd_width :]
        if lay.matrix_mode:
            m = self.m
            blocks = t[: self.psd_width].reshape(-1, m, m)
            out += lay.apply_psd(
                [_sym(left @ blk @ right.T) for left, right, blk in zip(self.chols, self.t_mats, blocks)]
            )[self.sub]
        return out

    def weighted_gram(self, b):
        """U_sub^T diag(b) U_sub, for rows ``sub`` that exclude the coupling rows.

        Coupling rows carry no slack, so they are never damped and the W1/W2
        columns contribute nothing here.  For the X block, with A = atoms L
        and B = atoms T, every row is ``alpha/2 (A_u (x) B_v + A_v (x) B_u)``;
        summing the four outer products over the rows, grouped by atom pair
        into the n x n weight matrix W, gives two Khatri-Rao products
        ``P^T W Q`` (P = A.A, Q = B.B) and ``R^T W R`` (R = A.B), each equal to
        the X block after a permutation of its four m-sized axes.
        """
        lay = self.lay
        gram = np.zeros((self.width, self.width))
        off = self.psd_width
        weighted = self.shared * b[:, None]
        gram[off:, off:] = weighted.T @ self.shared
        if not lay.matrix_mode:
            return gram
        m, n = self.m, len(lay.atoms)
        w_pair = 0.25 * b * lay.xa[self.sub] ** 2
        pair_w = np.bincount(lay.pair_flat[self.sub], weights=w_pair, minlength=n * n).reshape(n, n)
        pair_w += pair_w.T
        a = lay.atoms @ self.chols[0]
        bt = lay.atoms @ self.t_mats[0]
        p = (a[:, :, None] * a[:, None, :]).reshape(n, m * m)
        q = (bt[:, :, None] * bt[:, None, :]).reshape(n, m * m)
        r = (a[:, :, None] * bt[:, None, :]).reshape(n, m * m)
        g1 = (p.T @ (pair_w @ q)).reshape(m, m, m, m).transpose(0, 2, 1, 3)
        g2 = (r.T @ (pair_w @ r)).reshape(m, m, m, m).transpose(0, 3, 2, 1)
        gram[: m * m, : m * m] = (g1 + g2).reshape(m * m, m * m)
        for j in range(weighted.shape[1]):
            gram[:off, off + j] = np.concatenate(self._psd_rmatvec(weighted[:, j]))
        gram[off:, :off] = gram[:off, off:].T
        return gram


class _KKTFactor:
    """Factorization of H = diag(n_diag) + U U^T for U given as a
    :class:`_SchurRows` operator.

    Dense mode builds U explicitly and factors H.  Woodbury mode splits the
    rows into free rows (diagonal weight at or near zero: the slack-free
    rows, all coupling rows, and slack rows that are nearly active) and
    damped rows B, factors the core ``I + U_B^T B^-1 U_B`` from its
    Khatri-Rao form, and eliminates the free rows through their Schur
    complement; only the free rows of U are ever materialised.  Solves are
    polished by iterative refinement and, if that stalls, the factor is
    replaced by the dense one (counted in ``fallbacks``).
    """

    def __init__(self, n_diag, op: _SchurRows, mode):
        self.n_diag = n_diag
        self.op = op
        self.fallbacks = 0
        self.ridges = 0
        k = len(n_diag)
        width = op.width
        # rows whose diagonal weight has collapsed (nearly active constraints)
        # are moved into the directly-factorized block: this keeps the
        # Woodbury core well scaled near convergence
        tau = 1e-11 * (1.0 + n_diag.max()) if k else 0.0
        free_mask = n_diag <= tau
        cap = max(width, int(np.count_nonzero(n_diag == 0.0)))
        if free_mask.sum() > cap:
            order = np.argsort(n_diag)
            free_mask = np.zeros(k, dtype=bool)
            free_mask[order[:cap]] = True
        self.free = np.flatnonzero(free_mask)
        self.damp = np.flatnonzero(~free_mask)
        if mode == "auto":
            mode = (
                "woodbury"
                if len(self.damp) > 0 and k > 384 and (len(self.free) + width) < 0.55 * k
                else "dense"
            )
        self.mode = mode
        if mode == "dense":
            self.fac = self._factor(self._dense())
        else:
            self.binv = 1.0 / n_diag[self.damp]
            self.u_damp = op.restrict(self.damp)
            core = self.u_damp.weighted_gram(self.binv)
            core[np.diag_indices_from(core)] += 1.0
            self.core_fac = self._factor(core)
            if len(self.free):
                self.uf = op.rows(self.free)
                mf = cho_solve(self.core_fac, self.uf.T, check_finite=False)
                sf = self.uf @ mf
                sf[np.diag_indices_from(sf)] += n_diag[self.free]
                self.free_fac = self._factor(sf)

    def _factor(self, h):
        fac, ridge = _chol_with_ridge(h)
        self.ridges += ridge > 0.0
        return fac

    def _dense(self):
        u = self.op.rows(np.arange(len(self.n_diag)))
        h = u @ u.T
        h[np.diag_indices_from(h)] += self.n_diag
        return h

    def _solve_once(self, r):
        if self.mode == "dense":
            return cho_solve(self.fac, r, check_finite=False)
        rf = r[self.free]
        rd = r[self.damp]
        t = cho_solve(self.core_fac, self.u_damp.rmatvec(self.binv * rd), check_finite=False)
        out = np.empty_like(r)
        if len(self.free):
            lam_f = cho_solve(self.free_fac, rf - self.uf @ t, check_finite=False)
            g = rd - self.u_damp.matvec(self.uf.T @ lam_f)
            out[self.free] = lam_f
        else:
            g = rd
        t2 = cho_solve(self.core_fac, self.u_damp.rmatvec(self.binv * g), check_finite=False)
        out[self.damp] = self.binv * (g - self.u_damp.matvec(t2))
        return out

    def apply(self, x):
        return self.n_diag * x + self.op.matvec(self.op.rmatvec(x))

    def _densify(self):
        self.fac = self._factor(self._dense())
        self.mode = "dense"
        self.fallbacks += 1

    def solve(self, r):
        # the factors are checked when built, so one scan of r replaces
        # scipy's check_finite rescans in every cho_solve
        if not np.isfinite(r).all():
            raise ValueError("KKT right-hand side contains NaN or Inf")
        # iterative refinement keeps the Woodbury path accurate when slack
        # weights span many orders of magnitude; fall back to a dense factor
        # only if refinement stalls outright
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
        if self.mode == "woodbury" and best_res > 1e-7 * rnorm:
            self._densify()
            return self.solve(r)
        return best


def _chol_with_ridge(h):
    """Cholesky factor of h, adding the smallest diagonal ridge that makes it
    succeed; returns (factor, ridge)."""
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("KKT system contains non-finite entries")
    scale = max(np.trace(h) / max(len(h), 1), 1e-300)
    ridge = 0.0
    for _ in range(12):
        try:
            if ridge == 0.0:
                return cho_factor(h, lower=True, check_finite=False), ridge
            shifted = h.copy()
            shifted[np.diag_indices_from(shifted)] += ridge
            return cho_factor(shifted, lower=True, overwrite_a=True, check_finite=False), ridge
        except (np.linalg.LinAlgError, ValueError):
            ridge = max(ridge * 100.0, 1e-14 * scale)
    raise np.linalg.LinAlgError("KKT system could not be factorized")


def _drop_dependent_free_rows(prob: ConicProblem) -> tuple[ConicProblem, np.ndarray]:
    """Presolve: drop linearly dependent slack-free rows (e.g. duplicated
    unit-norm constraints from parallel columns); ``solve`` reports them in
    ``ConicSolution.dropped_rows``.

    Slack-bearing rows own a private column and can never be dependent.
    """
    k = prob.n_rows
    free = np.setdiff1d(np.arange(k), prob.slack_rows)
    if len(free) < 2:
        return prob, np.zeros(0, dtype=int)
    # Gram matrix of the free rows in (svec(A), q, extras) coordinates; a
    # diagonal X sees only diag(A) = alpha u o v
    u, v, a = prob.row_u[free], prob.row_v[free], prob.row_alpha[free]
    if prob.diagonal:
        sig = a[:, None] * u * v
        gram = sig @ sig.T
    else:
        uu = u @ u.T
        vv = v @ v.T
        uv = u @ v.T
        gram = 0.5 * np.outer(a, a) * (uu * vv + uv * uv.T)
    gram += np.outer(prob.row_q[free], prob.row_q[free])
    if prob.extra_count:
        gram += prob.extras[free] @ prob.extras[free].T
    drop_local = _pivoted_chol_dependents(gram)
    if not len(drop_local):
        return prob, np.zeros(0, dtype=int)
    dropped = free[drop_local]
    keep = np.setdiff1d(np.arange(k), dropped)
    remap = -np.ones(k, dtype=int)
    remap[keep] = np.arange(len(keep))

    def _remap_rows(rows):
        return remap[rows] if rows is not None and len(np.atleast_1d(rows)) else rows

    dual_start = prob.dual_start
    if dual_start is not None:
        dual_start = {**dual_start, "y": np.asarray(dual_start["y"])[keep]}
    new = _replace_rows(prob, keep, remap, _remap_rows, dual_start)
    if dual_start is not None:
        # restore exact dual feasibility on the reduced row set so the
        # stationarity products stay at complementarity level
        lay = _Layout(new)
        y_full = np.zeros(lay.k_total)
        y_full[: lay.k_user] = dual_start["y"]
        s_lin = lay.c_lin - lay.adjoint_lin(y_full)
        s_psd = [-blk for blk in lay.adjoint_psd(y_full)] if lay.matrix_mode else []
        usable = (s_lin > 1e-12).all() and all(
            np.linalg.eigvalsh(blk).min() > 1e-12 for blk in s_psd
        )
        new.dual_start = {**dual_start, "lin": s_lin, "psd": s_psd} if usable else None
    return new, dropped


def _replace_rows(prob, keep, remap, _remap_rows, dual_start):
    return replace(
        prob,
        rhs=prob.rhs[keep],
        row_u=prob.row_u[keep],
        row_v=prob.row_v[keep],
        row_alpha=prob.row_alpha[keep],
        row_q=prob.row_q[keep],
        slack_rows=remap[prob.slack_rows],
        slack_coefs=prob.slack_coefs,
        extras=prob.extras[keep],
        diag_rows=_remap_rows(prob.diag_rows),
        pair_pos_rows=_remap_rows(prob.pair_pos_rows),
        pair_neg_rows=_remap_rows(prob.pair_neg_rows),
        dual_start=dual_start,
    )


def _pivoted_chol_dependents(gram):
    """Indices whose pivot collapses during pivoted Cholesky of a Gram matrix."""
    g = gram.copy()
    n = len(g)
    tol = 1e-12 * max(np.max(np.diag(g)), 1e-300)
    perm = np.arange(n)
    low = np.zeros((n, n))
    dependent = []
    for i in range(n):
        d = np.diag(g)[i:].copy()
        j = i + int(np.argmax(d))
        if g[j, j] <= tol:
            dependent.extend(perm[i:].tolist())
            break
        if j != i:
            g[[i, j]] = g[[j, i]]
            g[:, [i, j]] = g[:, [j, i]]
            low[[i, j]] = low[[j, i]]
            perm[[i, j]] = perm[[j, i]]
        piv = np.sqrt(g[i, i])
        low[i, i] = piv
        if i + 1 < n:
            row = (g[i + 1 :, i] - low[i + 1 :, :i] @ low[i, :i]) / piv
            low[i + 1 :, i] = row
            g[np.arange(i + 1, n), np.arange(i + 1, n)] -= row**2
    return np.array(sorted(dependent), dtype=int)


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------


def solve(problem: ConicProblem, settings: SolverSettings = SolverSettings()) -> ConicSolution:
    """Run the interior-point method on ``problem``.

    The instance must admit a strictly feasible primal point (builders in
    :mod:`framecond.precondition` construct one).  On ``Optimal`` the
    complementarity gap and the primal/dual objective difference are both at
    most ``gap_tol * (1 + |objective|)`` and the feasibility residuals at
    most ``feas_tol`` (relative).
    """
    n_rows_orig = problem.n_rows
    reduced, dropped = _drop_dependent_free_rows(problem)
    if reduced.eig_bounds is not None:
        t1, t2 = reduced.eig_bounds
        if t1 - t2 <= 1e-12 * max(1.0, abs(t1)):
            sol = _solve_pinned(reduced, settings, t1)
        else:
            sol = _ipm(_Layout(reduced), settings)
    else:
        sol = _ipm(_Layout(reduced), settings)
    if len(dropped):
        # dropped rows are implied equalities; zero multipliers keep the dual
        # constraints intact and restore the caller's row indexing
        y_full = np.zeros(n_rows_orig)
        y_full[np.setdiff1d(np.arange(n_rows_orig), dropped)] = sol.y
        sol.y = y_full
    sol.dropped_rows = dropped
    return sol


def _floor_slacks(lay: _Layout, x_psd, x_lin):
    """Make each slack absorb its row residual, floored away from zero."""
    if not lay.n_slack:
        return x_lin
    probe = x_lin.copy()
    probe[lay.sl_off : lay.ex_off] = 0.0
    base = lay.apply(x_psd, probe)
    resid = lay.b_full[lay.prob.slack_rows] - base[lay.prob.slack_rows]
    x_lin[lay.sl_off : lay.ex_off] = np.maximum(resid / lay.prob.slack_coefs, 0.1)
    return x_lin


def _primal_start(lay: _Layout):
    prob = lay.prob
    m = prob.psd_dim
    x_mat = None
    x_lin = None
    if prob.primal_start is not None:
        x_lin = prob.primal_start["lin"].copy()
        psd = prob.primal_start.get("psd", [])
        if psd:
            x_mat = psd[0].copy()
    slacks_stale = x_lin is None
    if lay.matrix_mode:
        if x_mat is None:
            x_mat = np.eye(m)
        if lay.bounds is not None:
            t1, t2 = lay.bounds
            margin = 1e-3 * (t1 - t2)
            w = np.linalg.eigvalsh(x_mat)
            if w.min() < t2 + margin or w.max() > t1 - margin:
                beta = 1.0 if (t2 + margin < 1.0 < t1 - margin) else 0.5 * (t1 + t2)
                x_mat = beta * np.eye(m)
                slacks_stale = True
            x_psd = [x_mat, t1 * np.eye(m) - x_mat, x_mat - t2 * np.eye(m)]
        else:
            x_psd = [x_mat]
    else:
        x_psd = []
    if x_lin is None:
        x_lin = np.ones(lay.n_lin)
    if slacks_stale:
        x_lin = _floor_slacks(lay, x_psd, x_lin)
    return x_psd, x_lin


def _start_state(lay: _Layout):
    prob = lay.prob
    x_psd, x_lin = _primal_start(lay)
    if prob.dual_start is not None:
        y = np.zeros(lay.k_total)
        y[: lay.k_user] = prob.dual_start["y"]
        s_psd = [b.copy() for b in prob.dual_start.get("psd", [])]
        s_lin = prob.dual_start["lin"].copy()
        if lay.bounds is not None:
            # couple-row duals -eps/+eps on diagonal positions cancel in the
            # X-block adjoint and give the W blocks dual slack eps * I
            t1, t2 = lay.bounds
            eps = 0.1 * max(t1 - t2, 1e-3)
            diag_mask = lay.tri_r == lay.tri_c
            y[lay.rows1] = np.where(diag_mask, -eps, 0.0)
            y[lay.rows2] = np.where(diag_mask, eps, 0.0)
            m = prob.psd_dim
            s_psd = [s_psd[0], eps * np.eye(m), eps * np.eye(m)]
    else:
        y = np.zeros(lay.k_total)
        s_psd = [np.eye(prob.psd_dim) for _ in range(3 if lay.bounds is not None else (1 if lay.matrix_mode else 0))]
        s_lin = np.ones(lay.n_lin)
    return x_psd, x_lin, y, s_psd, s_lin


def _ipm(lay: _Layout, settings: SolverSettings) -> ConicSolution:
    prob = lay.prob
    x_psd, x_lin, y, s_psd, s_lin = _start_state(lay)
    nu = sum(len(b) for b in x_psd) + lay.n_lin
    b_norm = 1.0 + np.abs(lay.b_full).max()
    c_norm = 2.0
    gap_history: list[float] = []
    status = SolverStatus.MAX_ITER
    iters = 0
    fallbacks = ridges = 0
    best = None
    best_merit = np.inf
    best_basic = None

    def residuals():
        rp = lay.b_full - lay.apply(x_psd, x_lin)
        adj = lay.adjoint_psd(y) if lay.matrix_mode else []
        rd_psd = [-s - a for s, a in zip(s_psd, adj)]
        rd_lin = lay.c_lin - s_lin - lay.adjoint_lin(y)
        return rp, rd_psd, rd_lin

    for iters in range(settings.max_iter + 1):
        rp, rd_psd, rd_lin = residuals()
        gap = float(sum(np.tensordot(xb, sb) for xb, sb in zip(x_psd, s_psd)) + x_lin @ s_lin)
        pobj = float(x_lin[lay.q_pos])
        dobj = float(lay.b_full @ y)
        rel_gap = gap / (1.0 + abs(pobj))
        p_inf = float(np.abs(rp).max()) / b_norm
        d_inf = max(
            float(np.abs(rd_lin).max()),
            max((float(np.abs(rb).max()) for rb in rd_psd), default=0.0),
        ) / c_norm
        gap_history.append(gap)
        if settings.verbose:
            print(f"  iter {iters:3d}  gap {gap:9.2e}  pobj {pobj:11.6f}  dobj {dobj:11.6f}  "
                  f"pinf {p_inf:8.1e}  dinf {d_inf:8.1e}")
        merit = max(rel_gap, p_inf, d_inf, abs(pobj - dobj) / (1.0 + abs(pobj)))
        if merit < best_merit:
            best_merit = merit
            best = (
                [b.copy() for b in x_psd],
                x_lin.copy(),
                y.copy(),
                [b.copy() for b in s_psd],
                s_lin.copy(),
            )
        # the stationarity products |X_b S_b|_F can sit well above the trace
        # gap when the optimal X is nearly singular; polishing until they
        # pass keeps every Optimal solve inside the KKT residual contract
        psd_prod = max(
            (np.linalg.norm(xb @ sb) for xb, sb in zip(x_psd, s_psd)), default=0.0
        ) / (1.0 + abs(pobj))
        basic_ok = (
            rel_gap <= settings.gap_tol
            and abs(pobj - dobj) <= settings.gap_tol * (1.0 + abs(pobj))
            and p_inf <= settings.feas_tol
            and d_inf <= settings.feas_tol
        )
        if basic_ok and best_basic is None:
            best_basic = (
                [b.copy() for b in x_psd],
                x_lin.copy(),
                y.copy(),
                [b.copy() for b in s_psd],
                s_lin.copy(),
            )
        if basic_ok and (psd_prod <= 5.0 * settings.gap_tol or rel_gap <= 1e-3 * settings.gap_tol):
            status = SolverStatus.OPTIMAL
            break
        if iters == settings.max_iter or merit > 1e3 * (best_merit + 1e-12):
            # stagnated or drifting away from the best point reached
            break

        mu = gap / nu

        # HKM scaling data
        try:
            chols = [np.linalg.cholesky(_sym(xb)) for xb in x_psd]
            s_chols = [np.linalg.cholesky(_sym(sb)) for sb in s_psd]
        except np.linalg.LinAlgError:
            status = SolverStatus.NUMERICAL_FAILURE
            break
        t_mats = [solve_triangular(rc, np.eye(len(rc)), lower=True).T for rc in s_chols]
        s_invs = [t @ t.T for t in t_mats]

        d_lin = x_lin / s_lin
        if not np.isfinite(d_lin).all():
            status = SolverStatus.NUMERICAL_FAILURE
            break
        n_diag = np.zeros(lay.k_total)
        if lay.n_slack:
            n_diag[prob.slack_rows] = prob.slack_coefs**2 * d_lin[lay.sl_off : lay.ex_off]
        op = _SchurRows(lay, chols, t_mats, np.sqrt(d_lin[lay.shared_idx]))
        try:
            kkt = _KKTFactor(n_diag, op, settings.kkt_mode)
        except np.linalg.LinAlgError:
            status = SolverStatus.NUMERICAL_FAILURE
            break

        def direction(rc_psd, rc_lin):
            rhs = rp.copy()
            if lay.matrix_mode:
                rhs -= lay.apply_psd([
                    _sym(rc_psd[b] @ s_invs[b]) - _sym(x_psd[b] @ rd_psd[b] @ s_invs[b])
                    for b in range(len(x_psd))
                ])
            w = (rc_lin - x_lin * rd_lin) / s_lin
            rhs -= _lin_columns_dot(lay, w)
            dy = kkt.solve(rhs)
            ds_lin = rd_lin - lay.adjoint_lin(dy)
            dx_lin = (rc_lin - x_lin * ds_lin) / s_lin
            ds_psd, dx_psd = [], []
            adj = lay.adjoint_psd(dy) if lay.matrix_mode else []
            for b in range(len(x_psd)):
                dsb = rd_psd[b] - adj[b]
                dxb = _sym(rc_psd[b] @ s_invs[b]) - _sym(x_psd[b] @ dsb @ s_invs[b])
                ds_psd.append(dsb)
                dx_psd.append(dxb)
            return dx_psd, dx_lin, dy, ds_psd, ds_lin

        # predictor
        rc_psd = [-xb @ sb for xb, sb in zip(x_psd, s_psd)]
        rc_lin = -x_lin * s_lin
        dxp_a, dxl_a, dy_a, dsp_a, dsl_a = direction(rc_psd, rc_lin)
        ap = min(
            min((_psd_max_step(chols[b], dxp_a[b]) for b in range(len(x_psd))), default=np.inf),
            _lin_max_step(x_lin, dxl_a),
            1.0,
        )
        ad = min(
            min((_psd_max_step(s_chols[b], dsp_a[b]) for b in range(len(s_psd))), default=np.inf),
            _lin_max_step(s_lin, dsl_a),
            1.0,
        )
        gap_aff = sum(
            np.tensordot(x_psd[b] + ap * dxp_a[b], s_psd[b] + ad * dsp_a[b])
            for b in range(len(x_psd))
        ) + (x_lin + ap * dxl_a) @ (s_lin + ad * dsl_a)
        sigma = min(max((gap_aff / gap) ** 3, 0.0), 0.99999)

        # corrector
        rc_psd = [
            sigma * mu * np.eye(len(xb)) - xb @ sb - dxp_a[b] @ dsp_a[b]
            for b, (xb, sb) in enumerate(zip(x_psd, s_psd))
        ]
        rc_lin = sigma * mu - x_lin * s_lin - dxl_a * dsl_a
        dx_psd, dx_lin, dy, ds_psd, ds_lin = direction(rc_psd, rc_lin)
        fallbacks += kkt.fallbacks
        ridges += kkt.ridges

        def max_steps(dxp, dxl, dsp, dsl):
            a_p = settings.step_fraction * min(
                min((_psd_max_step(chols[b], dxp[b]) for b in range(len(x_psd))), default=np.inf),
                _lin_max_step(x_lin, dxl),
            )
            a_d = settings.step_fraction * min(
                min((_psd_max_step(s_chols[b], dsp[b]) for b in range(len(s_psd))), default=np.inf),
                _lin_max_step(s_lin, dsl),
            )
            return min(a_p, 1.0), min(a_d, 1.0)

        def gap_after(dxp, dxl, dsp, dsl, a_p, a_d):
            return sum(
                np.tensordot(x_psd[b] + a_p * dxp[b], s_psd[b] + a_d * dsp[b])
                for b in range(len(x_psd))
            ) + (x_lin + a_p * dxl) @ (s_lin + a_d * dsl)

        # keep the complementarity gap monotone: asymmetric corrector steps,
        # then a common corrector step, then the pure affine direction whose
        # gap derivative is exactly -gap
        corr = (dx_psd, dx_lin, ds_psd, ds_lin, dy)
        aff = (dxp_a, dxl_a, dsp_a, dsl_a, dy_a)
        ap, ad = max_steps(*corr[:4])
        candidates = [(corr, ap, ad)]
        candidates += [(corr, min(ap, ad) * 0.8**k, min(ap, ad) * 0.8**k) for k in range(31)]
        ap_f, ad_f = max_steps(*aff[:4])
        candidates += [(aff, min(ap_f, ad_f) * 0.8**k, min(ap_f, ad_f) * 0.8**k) for k in range(31)]
        chosen = None
        for dirs, cand_p, cand_d in candidates:
            if gap_after(*dirs[:4], cand_p, cand_d) <= gap * (1.0 + 1e-12) + 1e-13:
                chosen = (dirs, cand_p, cand_d)
                break
        if chosen is None or min(chosen[1], chosen[2]) < 1e-10:
            status = SolverStatus.NUMERICAL_FAILURE if chosen is None else SolverStatus.MAX_ITER
            break
        (dx_psd, dx_lin, ds_psd, ds_lin, dy), ap, ad = chosen
        for b in range(len(x_psd)):
            x_psd[b] = _sym(x_psd[b] + ap * dx_psd[b])
            s_psd[b] = _sym(s_psd[b] + ad * ds_psd[b])
        x_lin = x_lin + ap * dx_lin
        s_lin = s_lin + ad * ds_lin
        y = y + ad * dy

    if status != SolverStatus.OPTIMAL:
        if best_basic is not None:
            # the basic optimality criteria were met earlier; the extra
            # stationarity polish stalled, so return that certified point
            x_psd, x_lin, y, s_psd, s_lin = best_basic
            status = SolverStatus.OPTIMAL
        elif best is not None:
            x_psd, x_lin, y, s_psd, s_lin = best
    sol = _package(lay, x_psd, x_lin, y, s_psd, s_lin, status, iters, gap_history)
    sol.kkt_fallbacks, sol.kkt_ridges = fallbacks, ridges
    return sol


def _lin_columns_dot(lay: _Layout, w):
    """A restricted to the scalar columns, applied to weight vector w."""
    out = lay.qcol * w[lay.q_pos]
    if lay.diag_mode:
        out[: lay.k_user] += lay.sig_cols @ w[: lay.n_sigma]
    if lay.n_slack:
        out[lay.prob.slack_rows] += lay.prob.slack_coefs * w[lay.sl_off : lay.ex_off]
    if lay.n_extra:
        out += lay.ext @ w[lay.ex_off :]
    return out


def _package(lay, x_psd, x_lin, y, s_psd, s_lin, status, iters, gap_history):
    prob = lay.prob
    rp = lay.b_full - lay.apply(x_psd, x_lin)
    rd_lin = lay.c_lin - s_lin - lay.adjoint_lin(y)
    adj = lay.adjoint_psd(y) if lay.matrix_mode else []
    rd_psd = [-s - a for s, a in zip(s_psd, adj)]
    gap = float(sum(np.tensordot(xb, sb) for xb, sb in zip(x_psd, s_psd)) + x_lin @ s_lin)
    pobj = float(x_lin[lay.q_pos])
    dobj = float(lay.b_full @ y)

    if lay.matrix_mode:
        x_mat = _sym(x_psd[0])
        s_mat = _sym(s_psd[0])
    elif lay.diag_mode:
        x_mat = np.diag(x_lin[: lay.n_sigma])
        s_mat = np.diag(s_lin[: lay.n_sigma])
    else:
        x_mat = None
        s_mat = None

    bound_info = {}
    if lay.bounds is not None:
        bound_info = {
            "upper_slack": _sym(x_psd[1]),
            "lower_slack": _sym(x_psd[2]),
            "upper_dual": _sym(s_psd[1]),
            "lower_dual": _sym(s_psd[2]),
            "couple_y": y[lay.k_user :].copy(),
        }

    return ConicSolution(
        X=x_mat,
        q=pobj,
        slacks=x_lin[lay.sl_off : lay.ex_off].copy(),
        extras=x_lin[lay.ex_off :].copy(),
        y=y[: lay.k_user].copy(),
        dual_psd=s_mat,
        q_dual=float(s_lin[lay.q_pos]),
        slack_duals=s_lin[lay.sl_off : lay.ex_off].copy(),
        extra_duals=s_lin[lay.ex_off :].copy(),
        pobj=pobj,
        dobj=dobj,
        gap=gap,
        rel_gap=gap / (1.0 + abs(pobj)),
        primal_infeas=float(np.abs(rp).max()) / (1.0 + np.abs(lay.b_full).max()),
        dual_infeas=max(
            float(np.abs(rd_lin).max()),
            max((float(np.abs(r).max()) for r in rd_psd), default=0.0),
        ) / 2.0,
        status=status,
        iterations=iters,
        gap_history=gap_history,
        bound_info=bound_info,
    )


def _solve_pinned(problem: ConicProblem, settings: SolverSettings, t_pin: float) -> ConicSolution:
    """Bounds with t1 == t2 leave X = t_pin * I as the only matrix choice;
    substitute it and solve the remaining LP over (q, slacks, extras)."""
    fixed = _apply_rows_psd(problem.row_u, problem.row_v, problem.row_alpha, t_pin * np.eye(problem.psd_dim))
    rhs = problem.rhs - fixed
    has_var = (problem.row_q != 0) | (np.abs(problem.extras).sum(axis=1) > 0)
    has_var[problem.slack_rows] = True
    bad = np.flatnonzero(~has_var & (np.abs(rhs) > settings.feas_tol * max(1.0, np.abs(problem.rhs).max())))
    if len(bad):
        raise ValueError(
            f"bounds pin X = {t_pin} * I, which contradicts constraint rows {bad.tolist()}"
        )
    keep = np.flatnonzero(has_var)
    remap = -np.ones(problem.n_rows, dtype=int)
    remap[keep] = np.arange(len(keep))
    sub = ConicProblem(
        psd_dim=0,
        rhs=rhs[keep],
        row_q=problem.row_q[keep],
        slack_rows=remap[problem.slack_rows],
        slack_coefs=problem.slack_coefs,
        extras=problem.extras[keep],
        pair_pos_rows=remap[problem.pair_pos_rows] if problem.pair_pos_rows is not None else None,
        pair_neg_rows=remap[problem.pair_neg_rows] if problem.pair_neg_rows is not None else None,
    )
    sol = solve(sub, settings)
    y = np.zeros(problem.n_rows)
    y[keep] = sol.y
    m = problem.psd_dim
    sol.X = t_pin * np.eye(m)
    sol.dual_psd = np.zeros((m, m))
    sol.y = y
    sol.bound_info = {"pinned": t_pin}
    return sol


def kkt_residuals(problem: ConicProblem, solution: ConicSolution) -> KKTResiduals:
    """The four complementary-slackness residuals of the coherence program.

    With multipliers z_ii = -y on the unit-norm rows and z_ij, z_ji = -y on
    the two inequality-derived row families, these are (in order) the
    stationarity product norm ``||X sum(...)||_F``, the two slack
    complementarities, and the normalization complementarity
    ``|q (1 - sum z)|``.  Expected to sit below ``10 * gap_tol`` at Optimal.
    """
    if problem.pair_pos_rows is None or problem.pair_neg_rows is None:
        raise ValueError("problem carries no pair-row labels; KKT residuals are defined for the coherence family")
    lay = _Layout(problem)
    y_full = np.zeros(lay.k_total)
    y_full[: lay.k_user] = solution.y
    if "couple_y" in solution.bound_info:
        y_full[lay.k_user :] = solution.bound_info["couple_y"]
    dual_mat = -lay.adjoint_psd(y_full)[0] if lay.matrix_mode else None
    if lay.diag_mode:
        dual_mat = np.diag(-lay.adjoint_lin(y_full)[: lay.n_sigma])
    x_mat = solution.X
    stationarity = float(np.linalg.norm(x_mat @ dual_mat)) if dual_mat is not None else 0.0

    z_pos = -solution.y[problem.pair_pos_rows]
    z_neg = -solution.y[problem.pair_neg_rows]
    slack_of_row = dict(zip(problem.slack_rows.tolist(), range(problem.slack_count)))
    p_pos = solution.slacks[[slack_of_row[r] for r in problem.pair_pos_rows.tolist()]]
    p_neg = solution.slacks[[slack_of_row[r] for r in problem.pair_neg_rows.tolist()]]
    pos_c = float(np.abs(z_pos * p_pos).max()) if len(z_pos) else 0.0
    neg_c = float(np.abs(z_neg * p_neg).max()) if len(z_neg) else 0.0
    norm_c = float(abs(solution.q * (1.0 - (z_pos.sum() + z_neg.sum()))))
    return KKTResiduals(stationarity, pos_c, neg_c, norm_c)
