"""Sparse recovery decoders and preconditioner noise bounds.

Both decoders take one measurement vector or a (B, m) batch of them sharing
one matrix, and decode a batch in one vectorised pass.

Orthogonal matching pursuit greedily selects the column most correlated with
the residual and refits by least squares on the growing support.  Over a
batch, every open member takes its step at once and grows a QR factor of
its support one column at a time, so no step refactors the support; the
coefficients come from one back-substitution per support size (Batch-OMP,
Rubinstein, Zibulevsky & Elad 2008).

Basis pursuit minimizes the l1 norm subject to exact data fit, a linear
program in the split variables x = u - v.  A batch is solved by one
vectorised Mehrotra predictor-corrector over the standard-form LPs: the
members' m x m normal matrices are stacked and factored together, and each
member retires once it converges (the batched primal-dual scheme of OptNet,
Amos & Kolter 2017).  The batch runs the rules of the shared conic
interior-point solver, from its code: the ``Optimal`` test and merit
(``conic._merit``), the orthant step length (``conic._lin_max_step``) with
SDPT3's fraction of it per side, the cap on sigma and the stall stop.  It
inverts its stacked Cholesky factors itself, by forward substitution one row
at a time across the whole stack, and does not call ``conic._chol_inv``.
Members the batch cannot finish are re-solved one at a time by that solver.

Premultiplying the system by a nonsingular matrix leaves the basis-pursuit
solution unchanged but can move the coherence-based recovery guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic
from .frames import Frame
from .numerics import as_matrix, svd

__all__ = [
    "Infeasible",
    "RecoveryResult",
    "omp",
    "basis_pursuit",
    "noise_amplification_bounds",
]

SUPPORT_TOL = 1e-8
OMP_RES_TOL = 1e-10
# a chosen column whose part outside its support's span is at most this
# fraction of its norm adds no direction: its coefficient would divide by it
OMP_SPAN_TOL = 1e-12
# diagonal ridge on each member's normal matrix, relative to its largest
# entry: basis pursuit is primal degenerate below full sparsity, so some
# normal matrices turn numerically singular near the optimum
RIDGE = 1e-13


class Infeasible(ValueError):
    """Measurement vector lies outside the column span."""


@dataclass
class RecoveryResult:
    estimate: np.ndarray
    support: tuple
    residual_norm: float
    iterations: int
    method: str
    status: str | None = None   # solver status behind a BP estimate; None for OMP


def _as_array(a) -> np.ndarray:
    if isinstance(a, Frame):
        return a.matrix
    return as_matrix(a, "a")


def _decoder_input(a, y, k_max=None):
    """Validate a decoder's inputs.

    Returns ``a`` as an array, ``y`` as a (B, m) batch, whether ``y`` was
    one, and ``k_max`` as one support cap per member (None when not given).
    Raises ValueError naming the shape when ``y`` is neither (m,) nor
    (B, m), when it holds NaN or Inf, and when ``k_max`` is negative or is
    neither one integer nor one per member.
    """
    a = _as_array(a)
    y = np.asarray(y, dtype=float)
    m, big_m = a.shape
    if y.ndim not in (1, 2) or y.shape[-1] != m:
        raise ValueError(f"y must have shape ({m},) or (B, {m}) for a {m} x {big_m} matrix, "
                         f"got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError(f"y of shape {y.shape} contains NaN or Inf entries")
    ys = np.atleast_2d(y)
    if k_max is None:
        return a, ys, y.ndim == 2, None
    ks = np.asarray(k_max)
    shapes = [()] if y.ndim == 1 else [(), (len(ys),)]
    if not np.issubdtype(ks.dtype, np.integer) or ks.shape not in shapes:
        raise ValueError(f"k_max must be one integer or one per row of y (shape {y.shape}), "
                         f"got {ks.dtype} of shape {ks.shape}")
    if (ks < 0).any():
        raise ValueError(f"k_max must be >= 0, got {k_max} for y of shape {y.shape}")
    return a, ys, y.ndim == 2, np.broadcast_to(ks, len(ys))


def _results(a, ys, xs, iterations, method, statuses=None) -> list[RecoveryResult]:
    """One result per row of ``xs``: residuals from one matrix product,
    supports from one threshold and one ``np.nonzero``."""
    residuals = np.linalg.norm(xs @ a.T - ys, axis=1)
    on_support = np.abs(xs) > SUPPORT_TOL
    # nonzero walks the rows in order, so each row's columns are one run
    cols = np.nonzero(on_support)[1].tolist()
    ends = np.cumsum(on_support.sum(axis=1)).tolist()
    supports = [tuple(cols[lo:hi]) for lo, hi in zip([0, *ends], ends)]
    if statuses is None:
        statuses = [None] * len(xs)
    return [RecoveryResult(x, supp, res, it, method, st)
            for x, supp, res, it, st in zip(xs, supports, residuals.tolist(), iterations.tolist(), statuses)]


def omp(a, y, k_max) -> RecoveryResult | list[RecoveryResult]:
    """Orthogonal matching pursuit with at most ``k_max`` atoms.

    ``y`` is one measurement vector, or a (B, m) batch of them sharing
    ``a``, and ``k_max`` one integer or one per member; a batch returns a
    list of results in row order.  The batch runs one greedy pass: at each
    step every open member picks its atom, the new column is orthogonalised
    against the member's Q by two passes of classical Gram-Schmidt (R is
    kept) and the residual loses its projection on the new direction; the
    coefficients come from R by back-substitution at the end (Batch-OMP,
    Rubinstein, Zibulevsky & Elad 2008).

    Column selection uses normalized columns so non-unit norms do not bias
    the correlations, and a zero column is never selected; the estimate
    lives in the caller's coordinates.  A member stops when no unchosen
    column correlates with its residual above ``1e-14 (1 + ||r||)``, when
    the residual drops below ``OMP_RES_TOL``, when its support reaches
    ``min(k_max, m)``, or when the chosen column has no part outside the
    span of its support (relative norm at most ``OMP_SPAN_TOL``); an atom
    that stops a member is not added.  A malformed ``y`` or ``k_max``
    raises ValueError.
    """
    a, ys, batch, caps = _decoder_input(a, y, k_max)
    m, big_m = a.shape
    caps = np.minimum(caps, m)
    n_b, width = len(ys), int(caps.max(initial=0))
    norms = np.linalg.norm(a, axis=0)
    a_sel = np.divide(a, norms, out=np.zeros_like(a), where=norms > 0)
    q = np.zeros((n_b, m, width))
    r_fac = np.zeros((n_b, width, width))
    qty = np.zeros((n_b, width))            # Q^T y
    atoms = np.zeros((n_b, width), dtype=int)
    sizes = np.zeros(n_b, dtype=int)
    chosen = np.zeros((n_b, big_m), dtype=bool)
    open_ = np.flatnonzero(caps > 0)
    r_open = ys[open_]                      # the open members' residuals
    for j in range(width):
        if not len(open_):
            break
        corr = np.abs(r_open @ a_sel)
        corr[chosen[open_]] = -1.0   # atoms are never reselected
        best = corr.argmax(axis=1)
        ok = corr[np.arange(len(open_)), best] > 1e-14 * (1.0 + np.linalg.norm(r_open, axis=1))
        q_open, v = q[open_, :, :j], a[:, best].T
        h = np.einsum("bij,bi->bj", q_open, v)
        v = v - np.einsum("bij,bj->bi", q_open, h)
        h2 = np.einsum("bij,bi->bj", q_open, v)
        v = v - np.einsum("bij,bj->bi", q_open, h2)
        r_jj = np.linalg.norm(v, axis=1)
        ok &= r_jj > OMP_SPAN_TOL * norms[best]
        open_, best, v, h, r_jj, r_open = (w[ok] for w in (open_, best, v, h + h2, r_jj, r_open))
        v /= r_jj[:, None]
        q[open_, :, j] = v
        r_fac[open_, :j, j] = h
        r_fac[open_, j, j] = r_jj
        qty[open_, j] = np.einsum("bi,bi->b", v, ys[open_])
        r_open -= v * np.einsum("bi,bi->b", v, r_open)[:, None]
        atoms[open_, j], chosen[open_, best], sizes[open_] = best, True, j + 1
        keep = (np.linalg.norm(r_open, axis=1) > OMP_RES_TOL) & (j + 1 < caps[open_])
        open_, r_open = open_[keep], r_open[keep]
    xs = np.zeros((n_b, big_m))
    for k in np.unique(sizes[sizes > 0]):
        members = np.flatnonzero(sizes == k)
        # LU of an upper-triangular R pivots nowhere: this is back-substitution
        coef = np.linalg.solve(r_fac[members, :k, :k], qty[members, :k, None])
        xs[members[:, None], atoms[members, :k]] = coef[..., 0]
    results = _results(a, ys, xs, sizes, "OMP")
    return results if batch else results[0]


def _is_pd(mat) -> bool:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _batch_matvec(mats, vecs):
    return np.einsum("kij,kj->ki", mats, vecs)


def _lower_inverse(lower):
    """Inverses of a stack of nonsingular lower triangles, by forward
    substitution one row at a time over the whole stack; each result is
    exactly lower triangular.

    This second triangular inverse beside ``conic._tri_inv`` is kept on
    purpose: the basis-pursuit kernel's stacks of 80-150 members at
    m = 8-15 cost 1.3-2.2x as much through LAPACK's per-matrix inverse, while
    ``conic``'s stacks of two or six blocks are cheaper there, and any
    other inverse would change that solver's iterates."""
    inv = np.zeros_like(lower)
    for i in range(lower.shape[-1]):
        row = -(lower[:, i : i + 1, :i] @ inv[:, :i, :])[:, 0]
        row[:, i] += 1.0
        inv[:, i] = row / lower[:, i, i, None]
    return inv


def _kernel_lp(a, c, b, settings: conic.SolverSettings):
    """Mehrotra predictor-corrector over the batch of standard-form LPs
    ``min c^T x  s.t.  a x = b_i, x >= 0``; ``a`` (full row rank) and ``c``
    are shared, ``b`` is (B, m).

    The kernel runs :func:`conic.solve`'s rules on every member at once: a
    member stops once it passes the ``Optimal`` test of ``conic._merit``
    (relative gap and objective difference within ``gap_tol``, scaled
    primal and dual residuals within ``feas_tol``); step lengths to the
    orthant boundary come from ``conic._lin_max_step``, of which each side
    takes SDPT3's fraction ``0.9 + 0.09 min(1, a_p, a_d)`` (a_p, a_d: the
    predictor's steps), capped at 1; and sigma is capped at 0.99999.  The
    normal matrices are factored by ``np.linalg.cholesky`` and the factors
    inverted by :func:`_lower_inverse`, not by ``conic._chol_inv``.
    Returns ``(x, iterations, converged)``, ``iterations`` being the steps
    each member took.  ``converged`` is False for a member still open after
    ``max_iter`` steps, one whose merit stalled for ``conic.STALL_ITERS``
    steps (the stop of :func:`conic.solve`) or whose step collapsed, and one
    whose normal matrix was not positive definite or whose iterate left the
    finite range; its x is NaN.
    """
    bsz, (m, n) = len(b), a.shape
    diag = np.arange(m)
    # Khatri-Rao square of a: row j is vec(a_j a_j^T), so the normal
    # matrices a diag(d) a^T of the whole batch are one product d @ kr
    kr = (a[:, None, :] * a[None, :, :]).reshape(m * m, n).T
    x_out = np.full((bsz, n), np.nan)
    iters_out = np.zeros(bsz, dtype=int)
    converged = np.zeros(bsz, dtype=bool)

    # Mehrotra's starting point: least-norm x and least-squares (y, s),
    # shifted into the positive orthant and balanced against each other
    gram = a @ a.T
    x = np.linalg.solve(gram, b.T).T @ a
    y0 = np.linalg.solve(gram, a @ c)
    s = np.tile(c - a.T @ y0, (bsz, 1))
    x += np.maximum(-1.5 * x.min(axis=1), 0.0)[:, None]
    s += np.maximum(-1.5 * s.min(axis=1), 0.0)[:, None]
    xs = np.einsum("ij,ij->i", x, s)
    x_sum, s_sum = x.sum(axis=1), s.sum(axis=1)
    x += (0.5 * xs / np.maximum(s_sum, 1e-300))[:, None]
    s += (0.5 * xs / np.maximum(x_sum, 1e-300))[:, None]
    y = np.tile(y0, (bsz, 1))
    active = np.arange(bsz)
    best = np.full(bsz, np.inf)
    stalled = np.zeros(bsz, dtype=int)

    for it in range(settings.max_iter + 1):
        bb = b[active]
        rp = bb - x @ a.T
        rd = c - y @ a - s
        gap = np.einsum("ij,ij->i", x, s)
        p_inf = np.abs(rp).max(axis=1) / (1.0 + np.abs(bb).max(axis=1))
        d_inf = np.abs(rd).max(axis=1) / 2.0
        _, merit, done = conic._merit(gap, x @ c, np.einsum("ij,ij->i", bb, y), p_inf, d_inf, settings)
        finished = active[done]
        x_out[finished], converged[finished] = x[done], True
        # a member whose merit stops improving has reached the accuracy
        # floor of its normal equations; more steps only drift
        improved = merit < best[active]
        best[active] = np.where(improved, merit, best[active])
        stalled[active] = np.where(improved, 0, stalled[active] + 1)
        keep = ~done & (stalled[active] < conic.STALL_ITERS) & np.isfinite(merit) & (gap > 0)
        if it == settings.max_iter or not keep.any():
            break
        active, x, y, s, rp, rd, gap = (v[keep] for v in (active, x, y, s, rp, rd, gap))

        d = x / s
        normal = (d @ kr).reshape(-1, m, m)
        ridged = normal.copy()
        ridged[:, diag, diag] += RIDGE * normal[:, diag, diag].max(axis=1, keepdims=True)
        # N^-1 r = L^-T L^-1 r: the triangular inverse keeps the accuracy of
        # a Cholesky solve and serves both right-hand sides.  One refinement
        # step against the unridged N removes the ridge's bias, which would
        # otherwise floor the primal residual above a 1e-9 tolerance.
        try:
            l_inv = _lower_inverse(np.linalg.cholesky(ridged))
        except np.linalg.LinAlgError:
            # one singular member must not stop the batch: it leaves unconverged
            ok = np.array([_is_pd(n_k) for n_k in ridged])
            active, x, y, s, rp, rd, gap, d, normal = (
                v[ok] for v in (active, x, y, s, rp, rd, gap, d, normal))
            if not len(active):
                break
            l_inv = _lower_inverse(np.linalg.cholesky(ridged[ok]))

        def solve(r):
            z = _batch_matvec(l_inv.transpose(0, 2, 1), _batch_matvec(l_inv, r))
            r = r - _batch_matvec(normal, z)
            return z + _batch_matvec(l_inv.transpose(0, 2, 1), _batch_matvec(l_inv, r))

        def newton(rc):
            dy = solve(rp + (d * rd - rc / s) @ a.T)
            ds = rd - dy @ a
            return rc / s - d * ds, dy, ds

        # predictor, then the corrector with Mehrotra's centring sigma
        mu = gap / n
        dx_a, dy_a, ds_a = newton(-x * s)
        bp_a, bd_a = conic._lin_max_step(x, dx_a), conic._lin_max_step(s, ds_a)
        ap, ad = np.minimum(bp_a, 1.0)[:, None], np.minimum(bd_a, 1.0)[:, None]
        mu_aff = np.einsum("ij,ij->i", x + ap * dx_a, s + ad * ds_a) / n
        sigma = np.clip((mu_aff / mu) ** 3, 0.0, 0.99999)
        dx, dy, ds = newton((sigma * mu)[:, None] - x * s - dx_a * ds_a)
        # SDPT3's step length per side, as in conic.solve
        gamma = 0.9 + 0.09 * np.minimum(np.minimum(bp_a, bd_a), 1.0)
        ap = np.minimum(gamma * conic._lin_max_step(x, dx), 1.0)
        ad = np.minimum(gamma * conic._lin_max_step(s, ds), 1.0)
        x = x + ap[:, None] * dx
        y = y + ad[:, None] * dy
        s = s + ad[:, None] * ds
        iters_out[active] += 1
        moving = np.minimum(ap, ad) >= 1e-10
        active, x, y, s = (v[moving] for v in (active, x, y, s))
        if not len(active):
            break
    return x_out, iters_out, converged


def _conic_lp(a_eq, y_eq, settings) -> conic.ConicSolution:
    """The split basis-pursuit LP through the general conic solver."""
    m, big_m = a_eq.shape
    # rows: a (u - v) = y, then sum(u + v) - q = 0 so the objective q is l1
    k = m + 1
    extras = np.zeros((k, 2 * big_m))
    extras[:m, :big_m] = a_eq
    extras[:m, big_m:] = -a_eq
    extras[m, :] = 1.0
    q_col = np.zeros(k)
    q_col[m] = -1.0
    rhs = np.concatenate([y_eq, [0.0]])
    prob = conic.ConicProblem(psd_dim=0, rhs=rhs, row_q=q_col, extras=extras)
    return conic.solve(prob, settings)


def basis_pursuit(
    a, y, settings: conic.SolverSettings | None = None
) -> RecoveryResult | list[RecoveryResult]:
    """Minimum-l1 solution of a x = y via the split formulation
    x = u - v, u, v >= 0, minimize sum(u + v).

    ``y`` is one measurement vector, or a (B, m) batch of them sharing
    ``a``; a batch is solved by one vectorised interior-point run and
    returns a list of results in row order.  Members the batch leaves
    unconverged (and every member when ``a`` lacks full row rank) are
    re-solved one by one through :func:`conic.solve`.  ``status`` on each
    result names the solve that produced its estimate.

    A single ``y`` outside the range of ``a`` raises Infeasible, and a
    numerical failure raises RuntimeError; in a batch such a member gets a
    NaN estimate and status ``"Infeasible"`` or ``"NumericalFailure"``
    instead, and the other members are unaffected.  A malformed ``y``
    raises ValueError.
    """
    a, ys, batch, _ = _decoder_input(a, y)
    m, big_m = a.shape
    if settings is None:
        settings = conic.SolverSettings(gap_tol=1e-9, feas_tol=1e-9, max_iter=300)
    x0, _, rank, _ = np.linalg.lstsq(a, ys.T, rcond=None)
    res_norm = np.linalg.norm(a @ x0 - ys.T, axis=0)
    feasible = res_norm <= settings.feas_tol * (1.0 + np.linalg.norm(ys, axis=1)) + 1e-9
    if not batch and not feasible[0]:
        raise Infeasible(f"y lies outside the column span (residual {res_norm[0]:.3e})")

    # row equilibration and a per-member signal scale leave the minimizer
    # unchanged but keep the LP well conditioned for preconditioned systems
    row_scale = 1.0 / np.maximum(np.linalg.norm(a, axis=1), 1e-300)
    sig_scale = np.maximum(np.abs(ys).max(axis=1), 1e-300)
    a_eq = a * row_scale[:, None]
    y_eq = (ys * row_scale) / sig_scale[:, None]

    n_b = len(ys)
    uv = np.full((n_b, 2 * big_m), np.nan)
    iterations = np.zeros(n_b, dtype=int)
    status = np.full(n_b, "Infeasible", dtype=object)
    open_ = np.flatnonzero(feasible)
    if rank == m and len(open_):
        uv[open_], iterations[open_], ok = _kernel_lp(
            np.hstack([a_eq, -a_eq]), np.ones(2 * big_m), y_eq[open_], settings)
        status[open_[ok]] = conic.SolverStatus.OPTIMAL
        open_ = open_[~ok]
    for i in open_:
        sol = _conic_lp(a_eq, y_eq[i], settings)
        status[i], iterations[i] = sol.status, sol.iterations
        if sol.status == conic.SolverStatus.NUMERICAL_FAILURE:
            if not batch:
                raise RuntimeError("basis pursuit LP failed numerically")
            continue
        uv[i] = sol.extras
    x = sig_scale[:, None] * (uv[:, :big_m] - uv[:, big_m:])
    results = _results(a, ys, x, iterations, "BP", status)
    return results if batch else results[0]


def noise_amplification_bounds(g) -> tuple[float, float, float]:
    """(sigma_min, sigma_max, kappa) of a preconditioner.

    Premultiplying residuals by G scales their norms between sigma_min and
    sigma_max, so kappa bounds the worst-case noise amplification.
    """
    g = as_matrix(g, "g")
    _, s, _ = svd(g)
    return float(s[-1]), float(s[0]), float(s[0] / s[-1])
