"""Interior-point iterations from the shipped dual starts against the
unit-multiplier ones they replaced.

``build_c1`` and ``build_diagonal_lp`` start every multiplier at -1/M^2;
``build_c2`` keeps -1 on the M unit-norm rows.  The "unit" start is the one
before: -1 on the unit-norm rows of C1 and C2 (1/M^2 on the pair rows), and
no ``dual_start`` (y = 0, unit dual slacks) for the diagonal LP and the
pinned LP.  For seeds 0-9 the script prints, per family, the iteration total
from each start and the statuses that are not ``Optimal``:

- C1 and the diagonal LP on the two m x 64 frames of each m in
  {12, 18, 24, 30} (the benchmark's ``frame_pipeline`` frames);
- C2 at (2, 0.5) and (4, 0.5) and the pinned LP (t2 = 1 at t1 = 2, 4) on
  four 12 x 64 frames (``bounded_sweep``); C2's start did not change, so it
  is solved once;
- C1 on the 14 frames m = 2..15 at M = 16 that the preconditioned phase
  diagrams solve (``phase_recovery``).

Every solve runs at gap_tol = feas_tol = 1e-6, as in the benchmark.  It pins
one BLAS thread, as the benchmark does, so that the counts repeat.
"""

import os
from collections import Counter
from dataclasses import replace

# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from framecond import conic, frames, precondition
from framecond.experiments import FRAME_STREAM, trial_rng

SETTINGS = conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6)
SEEDS = range(10)
FAMILIES = ("C1", "diagonal LP", "C2", "pinned LP", "phase C1")


def frame_for(seed, m, n_vectors, trial=0):
    frame_seed = int(trial_rng(seed, FRAME_STREAM, m, 0, trial).integers(2**63))
    return frames.random_gaussian_frame(m, n_vectors, frame_seed)


def unit_c1(prob):
    """``prob`` with -1 on its unit-norm rows, the rows without a slack."""
    dual = prob.dual_start.copy()
    dual[: prob.n_rows - prob.slack_count] = -1.0
    return replace(prob, dual_start=dual)


def no_start(prob):
    return replace(prob, dual_start=None)


def problems(seed):
    """(family, shipped problem, unit-start problem or None when unchanged)."""
    for m in (12, 18, 24, 30):
        for trial in (0, 1):
            frame = frame_for(seed, m, 64, trial)
            c1 = precondition.build_c1(frame)
            yield "C1", c1, unit_c1(c1)
            lp = precondition.build_diagonal_lp(frame)
            yield "diagonal LP", lp, no_start(lp)
    for trial in range(4):
        frame = frame_for(seed, 12, 64, trial)
        for t1 in (2.0, 4.0):
            yield "C2", precondition.build_c2(frame, t1, 0.5), None
            pinned = precondition.build_c2(frame, t1, 1.0)
            yield "pinned LP", pinned, no_start(pinned)
    for m in range(2, 16):
        c1 = precondition.build_c1(frame_for(seed, m, 16))
        yield "phase C1", c1, unit_c1(c1)


def main():
    print("iterations, balanced start -> unit start")
    print("seed  " + "  ".join(f"{f:>15}" for f in FAMILIES))
    totals = {f: [0, 0] for f in FAMILIES}
    failed = Counter()
    for seed in SEEDS:
        row = {f: [0, 0] for f in FAMILIES}
        for family, shipped, unit in problems(seed):
            sols = [conic.solve(shipped, SETTINGS)]
            sols.append(sols[0] if unit is None else conic.solve(unit, SETTINGS))
            for side, sol in enumerate(sols):
                row[family][side] += sol.iterations
                if sol.status != conic.SolverStatus.OPTIMAL:
                    failed[family, ("balanced", "unit")[side], sol.status] += 1
        for f in FAMILIES:
            totals[f] = [t + r for t, r in zip(totals[f], row[f])]
        print(f"{seed:>4}  " + "  ".join(f"{row[f][0]:>6} -> {row[f][1]:>5}" for f in FAMILIES), flush=True)
    print(" all  " + "  ".join(f"{totals[f][0]:>6} -> {totals[f][1]:>5}" for f in FAMILIES))
    for (family, start, status), count in sorted(failed.items()):
        print(f"  {family}, {start} start: {count} {status}")
    if not failed:
        print("every solve ended Optimal")


main()
