"""Two probes of eigenvalue-bounded (C2) solves on small and near-square frames.

1. The tight-tolerance probe: ``conic.solve(build_c2(...))`` at
   gap_tol = feas_tol = 1e-8 on ``random_gaussian_frame`` 4x9, 6x16, 8x16 and
   12x32, seeds 0-11, boxes (2, 0.5) and (1.3, 0.7): 96 solves.
2. The near-square sweep at the default settings: frames 7x8, 15x16, 12x16,
   10x16, 6x8 and 24x32 at seeds 0-5 and 12x64 at seeds 0-1, boxes (2, 0.5),
   (4, 0.5) and (1.5, 0.8): 114 solves.

For each probe it prints the non-``Optimal`` solves by size and status, the
iteration total, the CPU time and the largest KKT residual over the
``Optimal`` solves (``precondition.kkt_residuals``, expected below
10 gap_tol).  It pins one BLAS thread, as the benchmark does, so that the
iteration counts repeat.
"""

import os
import time
from collections import Counter

# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from framecond import conic, frames, precondition

# (title, [(m, n, seed count)], boxes (t1, t2), settings)
PROBES = [
    ("tight tolerance, gap_tol = feas_tol = 1e-8",
     [(4, 9, 12), (6, 16, 12), (8, 16, 12), (12, 32, 12)], [(2.0, 0.5), (1.3, 0.7)],
     conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8)),
    ("near-square sweep, default settings",
     [(7, 8, 6), (15, 16, 6), (12, 16, 6), (10, 16, 6), (6, 8, 6), (24, 32, 6), (12, 64, 2)],
     [(2.0, 0.5), (4.0, 0.5), (1.5, 0.8)], conic.SolverSettings()),
]


def run_probe(title, sizes, boxes, settings):
    failed, iterations, solves, worst_kkt = Counter(), 0, 0, 0.0
    start = time.process_time()
    for m, n, n_seeds in sizes:
        for seed in range(n_seeds):
            frame = frames.random_gaussian_frame(m, n, seed)
            for t1, t2 in boxes:
                sol = conic.solve(precondition.build_c2(frame, t1, t2), settings)
                solves += 1
                iterations += sol.iterations
                if sol.status != conic.SolverStatus.OPTIMAL:
                    failed[f"{m}x{n}", sol.status] += 1
                    print(f"  {m}x{n} seed {seed} ({t1}, {t2}): {sol.status} after "
                          f"{sol.iterations} iterations, rel_gap {sol.rel_gap:.1e}")
                    continue
                kkt = precondition.kkt_residuals(frame, sol)
                worst_kkt = max(worst_kkt, max(vars(kkt).values()))
    cpu = time.process_time() - start
    print(f"{title}: {solves} solves, {sum(failed.values())} not Optimal, "
          f"{iterations} iterations, {cpu:.1f} s CPU")
    for (size, status), count in sorted(failed.items()):
        print(f"  {size}: {count} {status}")
    print(f"  largest KKT residual over the Optimal solves: {worst_kkt:.1e} "
          f"(10 gap_tol = {10 * settings.gap_tol:.0e})")


for probe in PROBES:
    run_probe(*probe)
    print()
