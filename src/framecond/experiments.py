"""Seeded empirical studies: coherence tables, phase diagrams, condition sweeps.

Every experiment is a pure function of its configuration and root seed.
Per-trial randomness comes from a splittable scheme: the generator for a
task is ``default_rng(SeedSequence([seed, stream, m, s, trial]))`` with a
fixed stream constant per purpose, so serial and parallel runs of the same
grid produce identical numbers and any single cell can be replayed in
isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conic, recovery
from .frames import Frame, coherence, frame_report, random_gaussian_frame, welch_bound
from .precondition import compose_tight_preconditioner, solve_coherence

__all__ = [
    "TableRow",
    "PhaseDiagram",
    "SweepRecord",
    "trial_rng",
    "coherence_table",
    "phase_diagram",
    "condition_sweep",
    "SUCCESS_TOL",
]

FRAME_STREAM = 0
SIGNAL_STREAM = 1

SUCCESS_TOL = 1e-4   # relative l2 error below which a trial counts as recovered


def trial_rng(seed: int, stream: int, *keys: int) -> np.random.Generator:
    """Deterministic child generator for one cell of an experiment grid."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream), *map(int, keys)]))


@dataclass(frozen=True)
class TableRow:
    m: int
    mean_mu_phi: float
    mean_mu_precond: float
    welch_bound: float
    failed_solves: int            # preconditioner solves not ending Optimal


@dataclass
class PhaseDiagram:
    M: int
    m_grid: list
    sparsity_max: int
    trials: int
    pipeline: str
    decoder: str
    seed: int
    success_rate: np.ndarray      # (len(m_grid), sparsity_max), NaN where s > m
    curve: np.ndarray             # per m: largest s with success rate >= 0.5
    failed_decodes: np.ndarray    # shaped like success_rate: decodes not ending Optimal

    def rate(self, m: int, s: int) -> float:
        return float(self.success_rate[self.m_grid.index(m), s - 1])


@dataclass
class SweepRecord:
    t2: float
    t1_grid: list
    coherence: list = field(default_factory=list)     # q*(t1)
    condition_number: list = field(default_factory=list)  # kappa(G)(t1)
    statuses: list = field(default_factory=list)     # solver status per t1


def _preconditioner(frame: Frame, variant: str, settings: conic.SolverSettings) -> tuple[np.ndarray, str]:
    """The variant's preconditioner and the status of the solve behind it."""
    result = solve_coherence(frame, settings)
    if variant == "gphi":
        return result.G, result.solution.status
    if variant == "g1phi":
        g1, _ = compose_tight_preconditioner(result.G, frame)
        return g1, result.solution.status
    raise ValueError(f"unknown variant {variant!r}")


def coherence_table(
    m_list,
    n_vectors: int,
    trials: int,
    seed: int,
    variant: str = "gphi",
    settings: conic.SolverSettings | None = None,
) -> list[TableRow]:
    """Mean coherence before and after preconditioning over seeded Gaussian
    frames, one row per m; ``failed_solves`` counts the row's preconditioner
    solves that did not end ``Optimal`` (their coherence is still averaged)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if settings is None:
        settings = conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6)
    rows = []
    for m in m_list:
        mus, mus_after, failed = [], [], 0
        for trial in range(trials):
            frame_seed = trial_rng(seed, FRAME_STREAM, m, 0, trial).integers(2**63)
            frame = random_gaussian_frame(m, n_vectors, int(frame_seed))
            mus.append(coherence(frame))
            g, status = _preconditioner(frame, variant, settings)
            mus_after.append(coherence(Frame(g @ frame.matrix)))
            failed += status != conic.SolverStatus.OPTIMAL
        rows.append(
            TableRow(
                m=int(m),
                mean_mu_phi=float(np.mean(mus)),
                mean_mu_precond=float(np.mean(mus_after)),
                welch_bound=welch_bound(int(m), n_vectors),
                failed_solves=failed,
            )
        )
    return rows


def _decode_row(decoder: str, a, ys, sparsities, settings: conic.SolverSettings | None):
    """One decode per row of ``ys``: basis pursuit as one batch, OMP per signal."""
    if decoder == "omp":
        return [recovery.omp(a, y, k) for y, k in zip(ys, sparsities)]
    if decoder == "bp":
        return recovery.basis_pursuit(a, ys, settings)
    raise ValueError(f"unknown decoder {decoder!r}")


def phase_diagram(
    n_vectors: int,
    m_grid,
    trials: int,
    seed: int,
    pipeline: str = "phi",
    decoder: str = "bp",
    settings: conic.SolverSettings | None = None,
) -> PhaseDiagram:
    """Success-rate grid over (m, sparsity) for one decoding pipeline.

    One Gaussian frame (and, for the preconditioned pipelines, one
    preconditioner) is drawn per m and shared across the sparsity column and
    all trials, so pipelines are compared on identical frames; each trial
    replants the support and coefficients from its own generator.  All
    signals of one m are drawn first, in (s, trial) order, and basis pursuit
    decodes them in one batched call; OMP decodes them one at a time.

    A decode counts as a success when its relative l2 error is at most
    ``SUCCESS_TOL``; a decode without an estimate (outside the column span,
    or a numerical failure) is a miss.  ``failed_decodes`` counts, per cell,
    the basis-pursuit decodes whose solve did not end ``Optimal``; a
    ``MaxIter`` estimate among them is still scored by its error.

    ``settings`` drive both the preconditioner solves and the basis-pursuit
    decodes.  When it is None, the preconditioners are solved at 1e-6 and
    the decodes keep :func:`recovery.basis_pursuit`'s own tighter default.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m_grid = [int(m) for m in m_grid]
    if any(m < 1 or m > n_vectors for m in m_grid):
        raise ValueError("every m must satisfy 1 <= m <= M")
    decode_settings = settings
    if settings is None:
        settings = conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6)
    s_max = max(m_grid)
    rates = np.full((len(m_grid), s_max), np.nan)
    failed = np.zeros((len(m_grid), s_max), dtype=int)
    curve = np.zeros(len(m_grid), dtype=int)
    for row, m in enumerate(m_grid):
        frame_seed = trial_rng(seed, FRAME_STREAM, m, 0, 0).integers(2**63)
        frame = random_gaussian_frame(m, n_vectors, int(frame_seed))
        if pipeline == "phi":
            g = np.eye(m)
        else:
            g, _ = _preconditioner(frame, pipeline, settings)
        sensing = g @ frame.matrix
        sparsities = np.repeat(np.arange(1, m + 1), trials)
        xs = np.zeros((len(sparsities), n_vectors))
        for i, s in enumerate(sparsities):
            rng = trial_rng(seed, SIGNAL_STREAM, m, s, i % trials)   # i % trials: the trial
            support = rng.choice(n_vectors, size=s, replace=False)
            xs[i, support] = rng.standard_normal(s)
        # one product per signal, as when each was decoded on its own; a
        # single matrix product may round the measurements differently
        ys = np.array([sensing @ x for x in xs])
        recs = _decode_row(decoder, sensing, ys, sparsities, decode_settings)
        errs = np.array([np.linalg.norm(r.estimate - x) / np.linalg.norm(x) for r, x in zip(recs, xs)])
        bad = np.array([r.status not in (None, conic.SolverStatus.OPTIMAL) for r in recs])
        rates[row, :m] = (errs <= SUCCESS_TOL).reshape(m, trials).sum(axis=1) / trials
        failed[row, :m] = bad.reshape(m, trials).sum(axis=1)
        for s in range(1, m + 1):
            curve[row] = s if rates[row, s - 1] >= 0.5 else curve[row]
    return PhaseDiagram(
        M=n_vectors,
        m_grid=m_grid,
        sparsity_max=s_max,
        trials=trials,
        pipeline=pipeline,
        decoder=decoder,
        seed=seed,
        success_rate=rates,
        curve=curve,
        failed_decodes=failed,
    )


def condition_sweep(
    frame: Frame,
    t2: float,
    t1_grid,
    settings: conic.SolverSettings | None = None,
) -> SweepRecord:
    """Coherence and preconditioner condition number along an ascending grid
    of upper eigenvalue bounds with the lower bound fixed, with the status of
    each solve."""
    t1_grid = [float(t) for t in t1_grid]
    if any(b - a < -1e-12 for a, b in zip(t1_grid, t1_grid[1:])):
        raise ValueError("t1 grid must be ascending")
    if any(t < t2 for t in t1_grid):
        raise ValueError("every t1 must be >= t2")
    if settings is None:
        settings = conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6)
    record = SweepRecord(t2=float(t2), t1_grid=t1_grid)
    for t1 in t1_grid:
        result = solve_coherence(frame, settings, bounds=(t1, t2))
        record.coherence.append(result.q)
        record.condition_number.append(result.condition_number)
        record.statuses.append(result.solution.status)
    return record
