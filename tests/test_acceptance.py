"""Acceptance suite: one test per release criterion, each printing a summary
line (run with ``pytest tests/test_acceptance.py -v -s``).

Two reference clauses are strictly expected to fail and are marked
xfail(strict=True) so the suite documents them instead of hiding them:

- Criterion 9's plateau clause: for a unit-norm frame, X >= I together with
  the unit Gram diagonal forces X = I exactly (phi^T (X - I) phi = 0 with
  X - I PSD implies (X - I) Phi = 0, and Phi has full row rank), so the
  bounded sweep with unit lower bound is pinned at the initial coherence and
  cannot reach the unconstrained optimum.
- Criterion 7's reference mean: the 24 x 64 coherence optimum is unique
  (verified against an independent solver), and the tight projection of the
  optimal preconditioned frame deterministically has mean coherence about
  0.556, outside the 0.6167 +/- 0.05 band stored for it.
"""

import functools
import time
import warnings

import numpy as np
import pytest

from framecond import conic, experiments, frames, recovery
from framecond.precondition import (
    build_c1,
    certificate_feasibility,
    compose_tight_preconditioner,
    diagonal_lp,
    kkt_residuals,
    solve_coherence,
)

GAP = 1e-6
SET = conic.SolverSettings(gap_tol=GAP, feas_tol=GAP)

TABLE_WELCH = {
    6: 0.3917, 12: 0.2623, 18: 0.2014, 24: 0.1627, 30: 0.1341,
    36: 0.1111, 42: 0.0912, 48: 0.0727, 54: 0.0542, 60: 0.0325, 63: 0.0159,
}
TABLE_COHERENCE = {12: (0.8454, 0.7709), 18: (0.7407, 0.5071), 24: (0.6646, 0.3629)}
TABLE_TIGHT = {24: 0.6167}


def sign_pattern():
    mat = np.array([[1, 1, 0, 0], [1, -1, 1, 1], [0, 0, 1, -1]], dtype=float) / np.sqrt(2)
    return frames.Frame(mat)


def test_criterion_01_welch_bound_column():
    start = time.time()
    for m, expect in TABLE_WELCH.items():
        assert frames.welch_bound(m, 64) == pytest.approx(expect, abs=1e-4)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: Welch-bound column matches at 1e-4 ({elapsed * 1e3:.1f} ms)")


@functools.lru_cache(maxsize=None)
def _table_solves(m):
    """(frame, solve_coherence result) on the coherence table's 20 seeded
    m x 64 frames; criteria 2 and 7 read the same 24 x 64 solves."""
    out = []
    for trial in range(20):
        seed = int(experiments.trial_rng(0, experiments.FRAME_STREAM, m, 0, trial).integers(2**63))
        fr = frames.random_gaussian_frame(m, 64, seed)
        out.append((fr, solve_coherence(fr, SET)))
    return tuple(out)


def test_criterion_02_coherence_improvement_table():
    for m, (mu_expect, mu_g_expect) in TABLE_COHERENCE.items():
        mus, mus_g = [], []
        for fr, result in _table_solves(m):
            assert result.solution.status == conic.SolverStatus.OPTIMAL
            mus.append(result.coherence_before)
            mus_g.append(result.verified_coherence)
        mu, mu_g = np.mean(mus), np.mean(mus_g)
        assert abs(mu - mu_expect) <= 0.05, (m, mu, mu_expect)
        assert abs(mu_g - mu_g_expect) <= 0.05, (m, mu_g, mu_g_expect)
        print(f"ACCEPTANCE 2 ({m}x64): mean mu {mu:.4f} (ref {mu_expect}), "
              f"mean mu(G Phi) {mu_g:.4f} (ref {mu_g_expect})")
    print("ACCEPTANCE 2 PASS: coherence improvement means within 0.05 of the reference table")


def test_criterion_03_never_worse_500_frames():
    rng = np.random.default_rng(424242)
    for _ in range(500):
        m = int(rng.integers(2, 9))
        big = int(rng.integers(m + 1, 17))
        fr = frames.random_gaussian_frame(m, big, int(rng.integers(2**62)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = solve_coherence(fr, conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8))
        assert result.solution.status == conic.SolverStatus.OPTIMAL
        assert result.verified_coherence <= result.coherence_before + 1e-5
        assert result.q >= frames.welch_bound(m, big) - 1e-6
        assert abs(result.q - result.verified_coherence) <= 1e-5
    print("ACCEPTANCE 3 PASS: never-worse, Welch floor, and factor consistency on 500 frames")


def test_criterion_04_exact_small_instances():
    mb = solve_coherence(frames.mercedes_benz_frame(), conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8))
    assert mb.q == pytest.approx(0.5, abs=1e-5)
    witness = np.diag([4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0])
    sdp = solve_coherence(sign_pattern(), conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8))
    lp = diagonal_lp(sign_pattern(), conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8))
    assert sdp.q == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert lp.q == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert np.abs(sdp.X - witness).max() <= 1e-4
    assert np.abs(lp.X - witness).max() <= 1e-5
    print("ACCEPTANCE 4 PASS: exact optima 0.5 and 1/3 with the diagonal witness")


def test_criterion_05_certificate_consistency_200_frames():
    rng = np.random.default_rng(20260809)
    agree = 0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        big = int(rng.integers(m + 1, 13))
        fr = frames.random_gaussian_frame(m, big, int(rng.integers(2**62)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = solve_coherence(fr, conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8))
            cert = certificate_feasibility(fr)
        improved = result.q < result.coherence_before - 1e-4
        agree += improved == (not cert.feasible)
    assert agree == 200
    print("ACCEPTANCE 5 PASS: certificate verdict agrees with the solver on 200/200 frames")


def test_criterion_06_kkt_residuals_at_optimum():
    cases = [frames.mercedes_benz_frame(), sign_pattern()]
    rng = np.random.default_rng(606)
    for _ in range(10):
        m = int(rng.integers(3, 9))
        big = int(rng.integers(m + 1, 17))
        cases.append(frames.random_gaussian_frame(m, big, int(rng.integers(2**62))))
    cases.append(frames.random_gaussian_frame(12, 64, 3))
    worst = 0.0
    for fr in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = conic.solve(build_c1(fr), SET)
        assert sol.status == conic.SolverStatus.OPTIMAL
        res = kkt_residuals(fr, sol)
        bundle = (res.stationarity, res.pos_complementarity,
                  res.neg_complementarity, res.normalization,
                  res.primal_feasibility, res.duality_gap)
        assert max(bundle) <= 10 * GAP, bundle
        z_ii = -sol.y[np.arange(fr.n_vectors)]
        dual_identity = abs(sol.q - (-np.sum(z_ii)))
        assert dual_identity <= 10 * GAP
        worst = max(worst, max(bundle), dual_identity)
    print(f"ACCEPTANCE 6 PASS: KKT residuals and dual identity <= 10*gap_tol "
          f"on {len(cases)} solves (worst {worst:.2e})")


@functools.lru_cache(maxsize=None)
def _tight_pipeline_means(m=24):
    big = 64
    mus_tight = []
    for fr, result in _table_solves(m):
        g1, tight = compose_tight_preconditioner(result.G, fr)
        defect = np.linalg.norm(tight.matrix @ tight.matrix.T - (big / m) * np.eye(m))
        assert defect <= 1e-7
        mus_tight.append(frames.coherence(tight))
    return float(np.mean(mus_tight))


def test_criterion_07_tight_frame_projection():
    mean_tight = _tight_pipeline_means()
    print(f"ACCEPTANCE 7 PASS (projection): tight defect <= 1e-7 on 20 pipelines, "
          f"mean mu(G1 Phi) = {mean_tight:.4f}")


@pytest.mark.xfail(
    strict=True,
    reason="the 24 x 64 optimum X* is unique (two independent interior-point "
    "solvers agree on it to 5e-5) and the tight projection of its G Phi has "
    "mean coherence 0.556 +/- 0.014, deterministically 0.06 below the stored "
    "reference 0.6167, whose source table is internally inconsistent about "
    "the frame width it used",
)
def test_criterion_07_reference_mean():
    mean_tight = _tight_pipeline_means()
    assert abs(mean_tight - TABLE_TIGHT[24]) <= 0.05, mean_tight
    print(f"ACCEPTANCE 7 PASS (reference): mean mu(G1 Phi) {mean_tight:.4f} "
          f"within 0.05 of {TABLE_TIGHT[24]}")


def test_criterion_08_phase_diagram_dominance():
    start = time.time()
    big, trials, seed = 16, 50, 1
    m_grid = list(range(2, big))
    base = experiments.phase_diagram(big, m_grid, trials, seed, pipeline="phi",
                                     decoder="bp", settings=SET)
    for pipeline in ("gphi", "g1phi"):
        other = experiments.phase_diagram(big, m_grid, trials, seed, pipeline=pipeline,
                                          decoder="bp", settings=SET)
        wins = int(np.sum(other.curve >= base.curve))
        assert wins >= 0.8 * len(m_grid), (pipeline, other.curve, base.curve)
        print(f"ACCEPTANCE 8 ({pipeline}): curve >= plain at {wins}/{len(m_grid)} grid points")
    elapsed = time.time() - start
    assert elapsed < 30 * 60
    print(f"ACCEPTANCE 8 PASS: preconditioned 50% curves dominate at >= 80% of points "
          f"({elapsed:.0f} s)")


def _sweep_16x32():
    fr = frames.random_gaussian_frame(16, 32, 7)
    grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record = experiments.condition_sweep(fr, 1.0, grid, SET)
    return fr, grid, record


def test_criterion_09_condition_sweep_monotone_start():
    fr, grid, record = _sweep_16x32()
    arr = np.array(record.coherence)
    assert (np.diff(arr) <= 2 * GAP).all()
    assert arr[0] == pytest.approx(frames.coherence(fr), abs=1e-5)
    print(f"ACCEPTANCE 9 PASS (monotone/start): q non-increasing within 2*gap_tol, "
          f"q(t1=1) = mu(Phi) = {arr[0]:.4f}")


@pytest.mark.xfail(
    strict=True,
    reason="with unit-norm columns and full row rank, X >= I plus the unit Gram "
    "diagonal force X = I, so the sweep stays at mu(Phi) for every upper "
    "bound and cannot reach the unconstrained optimum",
)
def test_criterion_09_condition_sweep_plateau():
    fr, grid, record = _sweep_16x32()
    unconstrained = solve_coherence(fr, SET).q
    assert abs(record.coherence[-1] - unconstrained) <= 1e-3
    print("ACCEPTANCE 9 PASS (plateau): sweep reaches the unconstrained optimum")


def test_reference_row_30x64():
    # larger-m reference row, beyond the desk-scale criteria: mean optimized
    # coherence over 20 seeded 30 x 64 frames tracks the stored 0.2757
    qs = []
    for trial in range(20):
        seed = int(experiments.trial_rng(0, experiments.FRAME_STREAM, 30, 0, trial).integers(2**63))
        fr = frames.random_gaussian_frame(30, 64, seed)
        result = solve_coherence(fr, SET)
        assert result.solution.status == conic.SolverStatus.OPTIMAL
        qs.append(result.q)
    assert abs(float(np.mean(qs)) - 0.2757) <= 0.05
    print(f"REFERENCE 30x64: mean q* = {np.mean(qs):.4f} (ref 0.2757)")


def test_criterion_10_recovery_bounds():
    fr = frames.dirac_hadamard_frame(64)
    k = 4
    assert k < frames.recovery_bound(frames.coherence(fr))
    rng = np.random.default_rng(1010)
    for _ in range(100):
        support = rng.choice(fr.n_vectors, k, replace=False)
        x = np.zeros(fr.n_vectors)
        x[support] = rng.standard_normal(k) * (1.0 + rng.random(k))
        y = fr.matrix @ x
        via_omp = recovery.omp(fr, y, k)
        via_bp = recovery.basis_pursuit(fr.matrix, y)
        assert np.linalg.norm(via_omp.estimate - x) / np.linalg.norm(x) <= 1e-4
        assert np.linalg.norm(via_bp.estimate - x) / np.linalg.norm(x) <= 1e-4

    gaussian = frames.random_gaussian_frame(10, 24, 7)
    result = solve_coherence(gaussian, conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8))
    for trial in range(5):
        rng2 = np.random.default_rng(2000 + trial)
        support = rng2.choice(24, 2, replace=False)
        x = np.zeros(24)
        x[support] = rng2.standard_normal(2)
        y = gaussian.matrix @ x
        plain = recovery.basis_pursuit(gaussian.matrix, y)
        mapped = recovery.basis_pursuit(result.G @ gaussian.matrix, result.G @ y)
        assert np.abs(plain.estimate - mapped.estimate).max() <= 1e-5
    print("ACCEPTANCE 10 PASS: 100/100 exact recoveries below the bound; "
          "basis-pursuit preconditioning invariance within 1e-5")
