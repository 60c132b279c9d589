"""Coherence-minimizing preconditioners and improvement certificates.

Given a unit-norm frame Phi, the central program minimizes the largest
off-diagonal entry q of the Gram matrix Phi^T X Phi over positive
semidefinite X with unit diagonal Gram (``build_c1``), optionally under
two-sided eigenvalue bounds on X (``build_c2``).  The preconditioner G with
G^T G = X is read off by Cholesky (``extract_preconditioner``).

``kkt_residuals`` checks a solution's complementary slackness, primal
feasibility and duality gap from the frame alone, sharing no code with the
solver.

``certificate_feasibility`` decides, through a small linear program, whether
the identity is already optimal: the multiplier system over the active pairs
is solvable exactly when no strict coherence decrease exists, so an
infeasible system certifies that a better preconditioner is out there.  The
program is solved in its dual form, with one row per column weight and per
active pair (about 70 rows for an m x 64 frame); the solver's row
multipliers are then the system's weights, read off as the witness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import conic
from .frames import Frame, InvalidShape, ZeroCoherence, coherence, welch_bound
from .numerics import NotPositiveDefinite, RankDeficient, cholesky, svd

__all__ = [
    "InvalidBounds",
    "NearSingularXWarning",
    "CertificateNotOptimal",
    "PreconditionResult",
    "CertificateSystem",
    "KKTResiduals",
    "build_c1",
    "build_c2",
    "solve_coherence",
    "diagonal_lp",
    "squared_span_dimension",
    "extract_preconditioner",
    "nearest_tight_frame",
    "compose_tight_preconditioner",
    "active_sets",
    "certificate_feasibility",
    "kkt_residuals",
]

ACTIVE_SET_TOL = 1e-6
CERTIFICATE_TOL = 1e-7


class InvalidBounds(ValueError):
    """Eigenvalue bounds are inconsistent with a unit-norm frame."""


class NearSingularXWarning(RuntimeWarning):
    """Optimal X sits on the PSD boundary; the factor was jittered."""


class CertificateNotOptimal(RuntimeError):
    """The certificate LP ended without reaching ``Optimal``."""

    def __init__(self, status: str):
        super().__init__(f"certificate LP did not converge (status {status})")
        self.status = status


@dataclass
class PreconditionResult:
    X: np.ndarray
    G: np.ndarray
    q: float                      # solver objective: achieved coherence
    verified_coherence: float     # mu(G Phi) recomputed from the factor
    coherence_before: float
    duals: dict                   # z_ii (unit-norm rows), z_ij, z_ji (pair rows)
    active_pos: list              # D+ pairs at the optimum
    active_neg: list              # D- pairs
    condition_number: float       # kappa(G)
    jitter: float                 # amount added to X before factorization
    solution: conic.ConicSolution


@dataclass
class CertificateSystem:
    """Multiplier feasibility system over the active pairs at (I, mu).

    Unknowns: one free weight r_ii per column (unit-norm rows), one
    nonnegative weight r_ij / r_ji per active pair; the weighted rank-one /
    rank-two sum must vanish entrywise while the pair weights sum to one.
    ``max_violation`` is the smallest achievable worst entry of that sum,
    the optimum of the dual LP that ``certificate_feasibility`` solves (to
    solver accuracy, so a feasible system can read a few 1e-10 below zero),
    and ``witness`` holds the weights, taken from that LP's row multipliers.
    """

    active_pos: list
    active_neg: list
    feasible: bool
    max_violation: float
    witness: dict | None          # r_ii, r_ij, r_ji on success


@dataclass(frozen=True)
class KKTResiduals:
    stationarity: float         # ||X (sum z_ii A_ii + sum (z_ij - z_ji) A_ij)||_F
    pos_complementarity: float  # max |z_ij p_ij|
    neg_complementarity: float  # max |z_ji q_ij|
    normalization: float        # |q (1 - sum (z_ij + z_ji))|
    primal_feasibility: float   # max |diag(Phi^T X Phi) - 1|, max(|(Phi^T X Phi)_ij| - q, 0)
    duality_gap: float          # |q - d| / (1 + |q|), d the dual objective from Phi


def _require_unit_norm(frame: Frame) -> Frame:
    if not frame.unit_norm:
        warnings.warn("frame columns are not unit norm; normalizing before building", RuntimeWarning, stacklevel=3)
        return frame.normalized()
    return frame


def _pair_list(n: int) -> np.ndarray:
    iu = np.triu_indices(n, k=1)
    return np.column_stack(iu)


def _split_duals(y: np.ndarray, big_m: int) -> dict:
    """The multipliers z = -y of a coherence program over M columns, by row
    family: the M unit-norm rows (z_ii), then the P = M(M-1)/2 "+q" pair rows
    (z_ij), then the P "-q" pair rows (z_ji), pairs in ``_pair_list`` order."""
    n_pairs = big_m * (big_m - 1) // 2
    if len(y) != big_m + 2 * n_pairs:
        raise ValueError(f"a coherence program over {big_m} columns has {big_m**2} rows, got {len(y)} multipliers")
    z = -np.asarray(y, dtype=float)
    return {"z_ii": z[:big_m], "z_ij": z[big_m : big_m + n_pairs], "z_ji": z[big_m + n_pairs :]}


def build_c1(frame: Frame) -> conic.ConicProblem:
    """Coherence program for ``frame``: M unit-diagonal rows plus M(M-1)
    slack rows bounding the off-diagonal Gram entries by +/- q (the P "+q"
    rows of all pairs, then their P "-q" rows).  The atoms are the columns
    of Phi and each row names its Gram entry's pair: (i, i) for the
    unit-norm rows, then (i, j), i < j, once per pair family."""
    frame = _require_unit_norm(frame)
    phi = frame.matrix
    m, big_m = phi.shape
    if big_m < 2:
        raise InvalidShape("need at least two columns")
    pairs = _pair_list(big_m)
    n_pairs = len(pairs)
    diag = np.arange(big_m)
    pair_ones = np.ones(n_pairs)

    # an exactly dual-feasible interior start: unit multipliers on the
    # unit-norm rows and 1/M^2 on every pair row give the X-block dual slack
    # Phi Phi^T
    dual = np.concatenate([-np.ones(big_m), -np.full(2 * n_pairs, 1.0 / big_m**2)])
    return conic.ConicProblem(
        psd_dim=m,
        rhs=np.concatenate([np.ones(big_m), np.zeros(2 * n_pairs)]),
        atoms=phi.T.copy(),
        row_atoms=np.concatenate([np.column_stack([diag, diag]), pairs, pairs]),
        row_alpha=np.concatenate([np.ones(big_m), pair_ones, -pair_ones]),
        row_q=np.concatenate([np.zeros(big_m), -pair_ones, -pair_ones]),
        slack_rows=np.arange(big_m, big_m + 2 * n_pairs),
        dual_start=dual,
    )


def build_c2(frame: Frame, t1: float, t2: float) -> conic.ConicProblem:
    """Coherence program with the eigenvalue box t2 I <= X <= t1 I.

    A unit-norm frame forces every feasible X to satisfy min eig <= 1 <=
    max eig, so t2 > 1 or t1 < 1 is infeasible and t2 = 1 or t1 = 1 pins
    X = I: the bounds come back as ``(1.0, 1.0)``, and ``conic.solve``
    substitutes X = I and solves the linear program left in q and the slacks.
    """
    if not (np.isfinite(t1) and np.isfinite(t2) and t1 >= t2 > 0):
        raise InvalidBounds(f"need finite t1 >= t2 > 0, got t1={t1}, t2={t2}")
    frame = _require_unit_norm(frame)
    if t2 > 1.0 or t1 < 1.0:
        raise InvalidBounds(
            f"unit-norm rows force min eig(X) <= 1 <= max eig(X); bounds ({t1}, {t2}) are infeasible"
        )
    prob = build_c1(frame)
    if t2 == 1.0 or t1 == 1.0:
        bounds = (1.0, 1.0)
    else:
        bounds = (float(t1), float(t2))
    prob.eig_bounds = bounds
    return prob


def _finish(frame: Frame, sol: conic.ConicSolution, x: np.ndarray) -> PreconditionResult:
    phi = frame.matrix
    g, jitter = extract_preconditioner(x)
    if jitter > 0.0:
        warnings.warn(
            f"optimal X is nearly singular; Cholesky jittered by {jitter:.2e}",
            NearSingularXWarning,
            stacklevel=3,
        )
    mapped = g @ phi
    verified = coherence(Frame(mapped))
    pos, neg = active_sets(frame, x, sol.q)
    sing = np.linalg.svd(g, compute_uv=False)
    return PreconditionResult(
        X=x,
        G=g,
        q=sol.q,
        verified_coherence=verified,
        coherence_before=coherence(frame),
        duals=_split_duals(sol.y, phi.shape[1]),
        active_pos=pos,
        active_neg=neg,
        condition_number=float(sing[0] / sing[-1]),
        jitter=jitter,
        solution=sol,
    )


def solve_coherence(
    frame: Frame,
    settings: conic.SolverSettings = conic.SolverSettings(),
    bounds: tuple[float, float] | None = None,
) -> PreconditionResult:
    """End-to-end coherence minimization: build, solve, factor, verify."""
    frame = _require_unit_norm(frame)
    prob = build_c2(frame, *bounds) if bounds is not None else build_c1(frame)
    sol = conic.solve(prob, settings)
    return _finish(frame, sol, sol.X)


def diagonal_lp(
    frame: Frame,
    settings: conic.SolverSettings = conic.SolverSettings(),
) -> PreconditionResult:
    """Coherence minimization over diagonal X only (a linear program).

    X = diag(x) contributes ``alpha_k sum_l x_l a_il a_jl`` to row k of
    ``build_c1``, whose atom pair is (i, j), so x enters as m nonnegative
    scalar columns ``alpha_k a_i o a_j`` beside q and the slacks.  The
    interior-point iterates keep every x_i strictly positive, so the optimal
    scaling is always invertible up to boundary jitter.
    """
    frame = _require_unit_norm(frame)
    c1 = build_c1(frame)
    prob = conic.ConicProblem(
        psd_dim=0,
        rhs=c1.rhs,
        row_q=c1.row_q,
        slack_rows=c1.slack_rows,
        extras=c1.row_alpha[:, None] * c1.atoms[c1.row_atoms[:, 0]] * c1.atoms[c1.row_atoms[:, 1]],
    )
    sol = conic.solve(prob, settings)
    return _finish(frame, sol, np.diag(sol.extras))


def squared_span_dimension(frame: Frame) -> int:
    """Dimension of span{(phi_1i^2, ..., phi_mi^2)}_i.

    Equal to m exactly when no diagonal preconditioner other than the
    identity keeps the frame unit norm, i.e. when ``diagonal_lp`` cannot
    improve coherence.
    """
    sq = frame.matrix**2
    s = np.linalg.svd(sq, compute_uv=False)
    return int(np.sum(s > 1e-10 * s[0]))


def extract_preconditioner(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Upper-triangular G with G^T G = X, jittering X on the PSD boundary.

    Returns (G, jitter) where jitter is the multiple of the identity that
    had to be added (0.0 for a cleanly positive definite X).
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    sym = 0.5 * (x + x.T)
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] < -1e-9 * max(1.0, eigs[-1]):
        raise NotPositiveDefinite(f"min eigenvalue {eigs[0]:.3e} is significantly negative")
    step = 1e-9 * max(np.trace(sym) / m, 1e-12)
    jitter = step if eigs[0] < 1e-9 else 0.0
    for _ in range(16):
        try:
            lower = cholesky(sym + jitter * np.eye(m))
            return lower.T, jitter
        except NotPositiveDefinite:
            jitter = step if jitter == 0.0 else jitter * 10.0
    raise NotPositiveDefinite("jitter escalation failed to reach a positive definite matrix")


def nearest_tight_frame(frame: Frame, alpha: float) -> Frame:
    """Closest alpha-tight frame in Frobenius norm: sqrt(alpha) U V^T from
    the thin SVD of the frame matrix."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    u, s, v = svd(frame.matrix)
    if s[-1] <= 1e-12 * s[0]:
        raise RankDeficient("frame matrix is numerically rank deficient")
    return Frame(np.sqrt(alpha) * (u @ v.T))


def compose_tight_preconditioner(g: np.ndarray, frame: Frame) -> tuple[np.ndarray, Frame]:
    """Compose ``g`` with the projection of g Phi onto the nearest
    (M/m)-tight frame, returning (G1, G1 Phi).

    G1 = sqrt(M/m) U Sigma^{-1} U^T g  with  U Sigma V^T = svd(g Phi).
    """
    phi = frame.matrix
    m, big_m = phi.shape
    mapped = np.asarray(g, dtype=float) @ phi
    u, s, v = svd(mapped)
    if s[-1] <= 1e-12 * s[0]:
        raise RankDeficient("preconditioned frame is numerically rank deficient")
    scale = np.sqrt(big_m / m)
    g1 = scale * (u / s) @ u.T @ g
    tight = Frame(scale * (u @ v.T))
    return g1, tight


def active_sets(frame: Frame, x: np.ndarray, q: float, tau: float = ACTIVE_SET_TOL):
    """Pairs (i, j), i < j, whose Gram entry phi_i^T X phi_j sits within tau
    of +q (first list) or -q (second list)."""
    if q <= 0:
        raise ValueError(f"active sets need q > 0, got {q}")
    phi = frame.matrix
    gram = phi.T @ x @ phi
    pairs = _pair_list(phi.shape[1])
    vals = gram[pairs[:, 0], pairs[:, 1]]
    pos = [(int(i), int(j)) for i, j in pairs[vals >= q - tau]]
    neg = [(int(i), int(j)) for i, j in pairs[vals <= -q + tau]]
    return pos, neg


def certificate_feasibility(
    frame: Frame,
    active_pos: list | None = None,
    active_neg: list | None = None,
    tol: float = CERTIFICATE_TOL,
) -> CertificateSystem:
    """Decide whether the multiplier system over the active pairs at
    (I, mu(Phi)) is solvable.

    Feasible means the identity already attains the optimal coherence (no
    strict decrease exists); infeasible certifies that a strictly better
    preconditioner exists.  The verdict key is the smallest worst entry
    violation nu* of the matrix equation with the pair weights summing to
    one, found as the optimum of its LP dual: over lambda = lambda+ - lambda-
    on the upper-triangle entries, with ||lambda||_1 = 1, maximize nu
    subject to C^T lambda = 0 (one row per column weight) and
    P^T lambda >= nu (one slack row per active pair, negated so that its
    slack enters with +1: ``-P^T lambda - q + s = -c0``).  The solver
    minimizes q = c0 - nu with c0 = max|P| + 1, so q stays positive, and its
    row multipliers are the primal weights: the witness is r_ii = y on the
    column rows and r_ij, r_ji = -y on the negated pair rows.  Rows that
    presolve drops as dependent carry zero weights, which the remaining rows
    make up for exactly.

    The LP is solved at fixed 1e-9 tolerances, a hundred times tighter than
    ``CERTIFICATE_TOL``.  Raises ``ValueError``
    for an empty active set, where no pair weights can sum to one, and
    :class:`CertificateNotOptimal` when the LP solve does not reach
    ``Optimal``.
    """
    frame = _require_unit_norm(frame)
    mu = coherence(frame)
    if mu <= 1e-12:
        raise ZeroCoherence("orthonormal-type frame: no improvement question arises")
    if active_pos is None or active_neg is None:
        active_pos, active_neg = active_sets(frame, np.eye(frame.m), mu)
    n_pos, n_active = len(active_pos), len(active_pos) + len(active_neg)
    if n_active == 0:
        raise ValueError("certificate needs at least one active pair")
    phi = frame.matrix
    m, big_m = phi.shape
    tri_r, tri_c = np.triu_indices(m)
    phi_r, phi_c = phi[tri_r], phi[tri_c]

    # upper-triangle entries of phi_i phi_i^T (C) and of +/- sym(phi_i phi_j^T)
    # over the active pairs (P), one column per weight
    pairs = np.array(list(active_pos) + list(active_neg), dtype=int).reshape(-1, 2)
    pi, pj = pairs[:, 0], pairs[:, 1]
    sign = np.where(np.arange(n_active) < n_pos, 0.5, -0.5)
    c_mat = phi_r * phi_c
    p_mat = sign * (phi_r[:, pi] * phi_c[:, pj] + phi_r[:, pj] * phi_c[:, pi])
    c0 = float(np.abs(p_mat).max()) + 1.0

    # rows: C^T lambda = 0, -P^T lambda - q + s = -c0, 1^T (lambda+ + lambda-) = 1
    k = big_m + n_active + 1
    lam = np.vstack([c_mat.T, -p_mat.T])
    extras = np.zeros((k, 2 * len(tri_r)))
    extras[:-1] = np.hstack([lam, -lam])
    extras[-1] = 1.0
    pair_rows = np.arange(big_m, big_m + n_active)
    rhs = np.zeros(k)
    rhs[pair_rows] = -c0
    rhs[-1] = 1.0
    q_col = np.zeros(k)
    q_col[pair_rows] = -1.0

    prob = conic.ConicProblem(psd_dim=0, rhs=rhs, row_q=q_col, slack_rows=pair_rows, extras=extras)
    sol = conic.solve(prob, conic.SolverSettings(gap_tol=1e-9, feas_tol=1e-9, max_iter=300))
    if sol.status != conic.SolverStatus.OPTIMAL:
        raise CertificateNotOptimal(sol.status)
    violation = c0 - float(sol.q)
    feasible = violation <= tol
    witness = None
    if feasible:
        y = sol.y
        witness = {
            "r_ii": y[:big_m],
            "r_ij": -y[big_m : big_m + n_pos],
            "r_ji": -y[big_m + n_pos : big_m + n_active],
        }
    return CertificateSystem(
        active_pos=list(active_pos),
        active_neg=list(active_neg),
        feasible=feasible,
        max_violation=violation,
        witness=witness,
    )


def kkt_residuals(frame: Frame, solution: conic.ConicSolution) -> KKTResiduals:
    """The KKT residuals of a coherence-program solution for ``frame`` (C1,
    C2 or the diagonal LP, whose X is ``diag(extras)``), from Phi alone.

    With z from :func:`_split_duals`, ``-sum_k y_k A_k = Phi Z Phi^T`` for
    ``Z_ii = z_ii`` and ``Z_ij = Z_ji = (z_ij - z_ji) / 2``.  Stationarity is
    ``||X (Phi Z Phi^T + S_W1 - S_W2)||_F`` (bound duals from ``bound_info``)
    or, without X, ``||x o diag(Phi Z Phi^T)||`` over the diagonal x; then
    come the two slack complementarities and ``|q (1 - sum z)|``.  Primal
    feasibility is the largest miss of a unit-norm row or of a pair bound
    ``|phi_i^T X phi_j| <= q``.  The duality gap compares q with the dual
    objective ``d = -sum z_ii + <S_W2, X - W2> - <S_W1, X + W1>`` (the bound
    terms are ``t2 tr S_W2 - t1 tr S_W1``; W = 0 when the bounds pin X).
    Expected below ``10 * gap_tol`` at Optimal; ``ValueError`` unless y is
    M^2 long.
    """
    phi = _require_unit_norm(frame).matrix
    big_m = phi.shape[1]
    z = _split_duals(solution.y, big_m)
    z_mat = np.zeros((big_m, big_m))
    z_mat[np.triu_indices(big_m, k=1)] = 0.5 * (z["z_ij"] - z["z_ji"])
    z_mat += z_mat.T
    z_mat[np.diag_indices(big_m)] = z["z_ii"]
    dual_mat = phi @ z_mat @ phi.T
    x = np.diag(solution.extras) if solution.X is None else solution.X
    dual_obj = -float(z["z_ii"].sum())
    if solution.X is None:
        stationarity = float(np.linalg.norm(solution.extras * np.diag(dual_mat)))
    else:
        info = solution.bound_info
        if "upper_dual" in info:
            dual_mat = dual_mat + info["upper_dual"] - info["lower_dual"]
            dual_obj += float(np.tensordot(info["lower_dual"], x - info.get("lower_slack", 0.0))
                              - np.tensordot(info["upper_dual"], x + info.get("upper_slack", 0.0)))
        stationarity = float(np.linalg.norm(solution.X @ dual_mat))
    n_pairs = len(z["z_ij"])
    pos_c = float(np.abs(z["z_ij"] * solution.slacks[:n_pairs]).max(initial=0.0))
    neg_c = float(np.abs(z["z_ji"] * solution.slacks[n_pairs:]).max(initial=0.0))
    norm_c = float(abs(solution.q * (1.0 - (z["z_ij"].sum() + z["z_ji"].sum()))))
    gram = phi.T @ x @ phi
    primal = max(float(np.abs(np.diag(gram) - 1.0).max()),
                 float(np.abs(gram[np.triu_indices(big_m, k=1)]).max()) - solution.q, 0.0)
    gap = abs(solution.q - dual_obj) / (1.0 + abs(solution.q))
    return KKTResiduals(stationarity, pos_c, neg_c, norm_c, primal, gap)
