"""Sparse recovery decoders and preconditioner noise bounds.

Orthogonal matching pursuit greedily selects the column most correlated with
the residual and refits by least squares on the growing support.  Basis
pursuit minimizes the l1 norm subject to exact data fit, a linear program in
the split variables x = u - v.  A batch of measurement vectors sharing one
matrix is solved by one vectorised Mehrotra predictor-corrector over the
standard-form LPs: the members' m x m normal matrices are stacked and
factored together, and each member retires once it converges (the batched
primal-dual scheme of OptNet, Amos & Kolter 2017).  Members the batch cannot
finish are re-solved one at a time by the shared conic interior-point
solver.  Premultiplying the system by a nonsingular matrix leaves the
basis-pursuit solution unchanged but can move the coherence-based recovery
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

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
# diagonal ridge on each member's normal matrix, relative to its largest
# entry: basis pursuit is primal degenerate below full sparsity, so some
# normal matrices turn numerically singular near the optimum
RIDGE = 1e-13
# steps without a new best merit after which a batch member is given up
STALL_ITERS = 3


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


def _result(a, y, x, iterations, method, status=None) -> RecoveryResult:
    support = tuple(int(i) for i in np.flatnonzero(np.abs(x) > SUPPORT_TOL))
    residual = float(np.linalg.norm(a @ x - y))
    return RecoveryResult(x, support, residual, iterations, method, status)


def omp(a, y, k_max: int) -> RecoveryResult:
    """Orthogonal matching pursuit with at most ``k_max`` atoms.

    Column selection uses normalized columns so non-unit norms do not bias
    the correlations; the least-squares refit runs against the original
    columns, so the estimate lives in the caller's coordinates.  Stops when
    the residual drops below ``OMP_RES_TOL`` or the support reaches ``k_max``.
    """
    a = _as_array(a)
    y = np.asarray(y, dtype=float)
    m, big_m = a.shape
    norms = np.linalg.norm(a, axis=0)
    a_sel = a / norms
    residual = y.copy()
    support: list[int] = []
    x = np.zeros(big_m)
    iterations = 0
    for iterations in range(1, min(k_max, m) + 1):
        corr = np.abs(a_sel.T @ residual)
        corr[support] = -1.0   # atoms are never reselected
        best = int(np.argmax(corr))
        if corr[best] <= 1e-14 * (1.0 + np.linalg.norm(residual)):
            iterations -= 1
            break
        support.append(best)
        sub = a[:, support]
        qmat, rmat = np.linalg.qr(sub)
        coef = solve_triangular(rmat, qmat.T @ y, lower=False)
        residual = y - sub @ coef
        if np.linalg.norm(residual) <= OMP_RES_TOL:
            break
    x[support] = coef if support else 0.0
    return _result(a, y, x, iterations, "OMP")


def _is_pd(mat) -> bool:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _batch_matvec(mats, vecs):
    return np.einsum("kij,kj->ki", mats, vecs)


def _kernel_lp(a, c, b, settings: conic.SolverSettings):
    """Mehrotra predictor-corrector over the batch of standard-form LPs
    ``min c^T x  s.t.  a x = b_i, x >= 0``; ``a`` (full row rank) and ``c``
    are shared, ``b`` is (B, m).

    A member stops once it passes :func:`conic.solve`'s ``Optimal`` test:
    relative gap and objective difference within ``gap_tol``, scaled primal
    and dual residuals within ``feas_tol``.  Returns ``(x, iterations,
    converged)``.  ``converged`` is False for a member still open after
    ``max_iter`` steps, one whose merit stalled for ``STALL_ITERS`` steps or
    whose step collapsed, and one whose normal matrix was not positive
    definite or whose iterate left the finite range; its x is NaN.
    """
    bsz, (m, n) = len(b), a.shape
    diag = np.arange(m)
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

    def max_step(v, dv):
        """Per member, the step to the orthant boundary, capped where the
        fraction-to-boundary rule no longer binds."""
        ratio = np.where(dv < 0, -v / np.where(dv < 0, dv, -1.0), np.inf)
        return np.minimum(ratio.min(axis=1), 1.0 / conic.STEP_FRACTION)

    for it in range(settings.max_iter + 1):
        bb = b[active]
        rp = bb - x @ a.T
        rd = c - y @ a - s
        pobj = x @ c
        gap = np.einsum("ij,ij->i", x, s)
        scale = 1.0 + np.abs(pobj)
        rel_gap = gap / scale
        obj_diff = np.abs(pobj - np.einsum("ij,ij->i", bb, y)) / scale
        p_inf = np.abs(rp).max(axis=1) / (1.0 + np.abs(bb).max(axis=1))
        d_inf = np.abs(rd).max(axis=1) / 2.0
        done = ((rel_gap <= settings.gap_tol) & (obj_diff <= settings.gap_tol)
                & (p_inf <= settings.feas_tol) & (d_inf <= settings.feas_tol))
        finished = active[done]
        x_out[finished], iters_out[finished], converged[finished] = x[done], it, True
        # a member whose merit stops improving has reached the accuracy
        # floor of its normal equations; more steps only drift
        merit = np.maximum.reduce([rel_gap, obj_diff, p_inf, d_inf])
        improved = merit < best[active]
        best[active] = np.where(improved, merit, best[active])
        stalled[active] = np.where(improved, 0, stalled[active] + 1)
        keep = ~done & (stalled[active] < STALL_ITERS) & np.isfinite(merit) & (gap > 0)
        if it == settings.max_iter or not keep.any():
            break
        active, x, y, s, rp, rd, gap = (v[keep] for v in (active, x, y, s, rp, rd, gap))

        d = x / s
        normal = (a * d[:, None, :]) @ a.T
        ridged = normal.copy()
        ridged[:, diag, diag] += RIDGE * normal[:, diag, diag].max(axis=1, keepdims=True)
        try:
            chol = np.linalg.cholesky(ridged)
        except np.linalg.LinAlgError:
            # one singular member must not stop the batch: it leaves unconverged
            ok = np.array([_is_pd(n_k) for n_k in ridged])
            active, x, y, s, rp, rd, gap, d, normal = (
                v[ok] for v in (active, x, y, s, rp, rd, gap, d, normal))
            if not len(active):
                break
            chol = np.linalg.cholesky(ridged[ok])
        # N^-1 r = L^-T L^-1 r: the triangular inverse keeps the accuracy of
        # a Cholesky solve and serves both right-hand sides.  One refinement
        # step against the unridged N removes the ridge's bias, which would
        # otherwise floor the primal residual above a 1e-9 tolerance.
        l_inv = np.linalg.inv(chol)

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
        ap = np.minimum(max_step(x, dx_a), 1.0)[:, None]
        ad = np.minimum(max_step(s, ds_a), 1.0)[:, None]
        mu_aff = np.einsum("ij,ij->i", x + ap * dx_a, s + ad * ds_a) / n
        sigma = np.clip(mu_aff / mu, 0.0, 1.0) ** 3
        dx, dy, ds = newton((sigma * mu)[:, None] - x * s - dx_a * ds_a)
        ap = np.minimum(conic.STEP_FRACTION * max_step(x, dx), 1.0)
        ad = np.minimum(conic.STEP_FRACTION * max_step(s, ds), 1.0)
        x = x + ap[:, None] * dx
        y = y + ad[:, None] * dy
        s = s + ad[:, None] * ds
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
    instead, and the other members are unaffected.
    """
    a = _as_array(a)
    y = np.asarray(y, dtype=float)
    batch = y.ndim == 2
    ys = np.atleast_2d(y)
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
    results = [_result(a, yi, xi, int(it), "BP", st)
               for yi, xi, it, st in zip(ys, x, iterations, status)]
    return results if batch else results[0]


def noise_amplification_bounds(g) -> tuple[float, float, float]:
    """(sigma_min, sigma_max, kappa) of a preconditioner.

    Premultiplying residuals by G scales their norms between sigma_min and
    sigma_max, so kappa bounds the worst-case noise amplification.
    """
    g = as_matrix(g, "g")
    _, s, _ = svd(g)
    return float(s[-1]), float(s[0]), float(s[0] / s[-1])
