"""One line per interior-point solve of the three benchmark workloads, for
diffing two versions of the solver.

    PYTHONPATH=src python demos/08_iterate_fingerprint.py [SEED]

The script makes, through the library, the solves that one round of each
benchmark workload makes at SEED (default 0):

- ``frame_pipeline``: the certificate LP, the diagonal LP and the coherence
  program C1 on the first two m x 64 frames of each m in {12, 18, 24, 30};
- ``bounded_sweep``: C2 at t2 = 0.5 and the pinned t2 = 1 points, at
  t1 = 2 and 4, on the first four 12 x 64 frames;
- ``phase_recovery``: the three phase diagrams at M = 16, m = 2..15 and ten
  trials, with their preconditioner SDPs and basis-pursuit fallback LPs.

Every ``conic.solve`` call prints the workload, the item, the program, the
problem's shape (m x atoms for a matrix program, rows x columns for a linear
one), the status, the iteration count, the objective q, the gap and the
primal and dual infeasibilities in ``float.hex`` form, a digest of the
returned X and one digest of every other array and number the solution
carries (y, the dual slack matrix, the ``bound_info`` arrays, the scalar
slacks, extras and their duals, the dual objective, the gap history, the
dropped rows and the ridge count), so that two outputs are byte-identical
exactly when every solve returned the same solution, field for field.  A
pinned solve prints once, for its outer call.  The phase diagrams also print the digest of their
success-rate grid and, for the batched basis-pursuit kernel, the total
of the steps its members took and the number of members it handed to the
conic fallback, so that a change inside the kernel shows too.  One BLAS
thread is pinned, as in the benchmark, so that the output repeats.
"""

import hashlib
import os
import sys

# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from framecond import conic, experiments, frames, precondition, recovery
from framecond.experiments import FRAME_STREAM, trial_rng

SETTINGS = conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6)


def frame_for(seed, m, n_vectors, trial=0):
    frame_seed = int(trial_rng(seed, FRAME_STREAM, m, 0, trial).integers(2**63))
    return frames.random_gaussian_frame(m, n_vectors, frame_seed)


def digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.asarray(array, dtype=float).tobytes())
    return h.hexdigest()[:16]


def rest_digest(sol):
    """One digest of the solution's fields other than X and the printed scalars."""
    info = [sol.bound_info[key] for key in sorted(sol.bound_info)]
    return digest(sol.y, [] if sol.dual_psd is None else sol.dual_psd, *info, sol.slacks, sol.extras,
                  sol.q_dual, sol.slack_duals, sol.extra_duals, sol.dobj, sol.rel_gap, sol.gap_history,
                  sol.dropped_rows, sol.kkt_ridges)


def program(prob):
    if prob.psd_dim == 0:
        return "LP", f"{prob.n_rows}x{1 + prob.slack_count + prob.extra_count}"
    shape = f"{prob.psd_dim}x{len(prob.atoms)}"
    if prob.eig_bounds is None:
        return "C1", shape
    t1, t2 = prob.eig_bounds
    return ("pinned" if t1 == t2 else "C2") + f"({t1:g},{t2:g})", shape


class Recorder:
    """Stands in for ``conic.solve`` and prints one line per outermost call."""

    def __init__(self, solve):
        self.solve = solve
        self.workload = self.item = ""
        self.depth = 0

    def __call__(self, prob, settings=conic.SolverSettings()):
        self.depth += 1
        try:
            sol = self.solve(prob, settings)
        finally:
            self.depth -= 1
        if not self.depth:
            name, shape = program(prob)
            x_digest = "-" if sol.X is None else digest(sol.X)
            scalars = [float(v).hex() for v in (sol.q, sol.gap, sol.primal_infeas, sol.dual_infeas)]
            print(self.workload, self.item, name, shape, sol.status, sol.iterations, *scalars, x_digest,
                  rest_digest(sol))
        return sol


class KernelTally:
    """Stands in for ``recovery._kernel_lp`` and sums its members' steps and
    the members it leaves unconverged (those go to the conic fallback)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.steps = self.fallbacks = 0

    def __call__(self, *args):
        x, iterations, converged = self.kernel(*args)
        self.steps += int(iterations.sum())
        self.fallbacks += int((~converged).sum())
        return x, iterations, converged


def run_workloads(seed, rec):
    rec.workload = "frame_pipeline"
    for m in (12, 18, 24, 30):
        for trial in (0, 1):
            frame = frame_for(seed, m, 64, trial)
            for item, run in (("certify", lambda: precondition.certificate_feasibility(frame)),
                              ("diag-lp", lambda: precondition.diagonal_lp(frame, SETTINGS)),
                              ("precondition", lambda: precondition.solve_coherence(frame, SETTINGS))):
                rec.item = f"{item}/{m}x64/trial{trial}"
                run()
    rec.workload = "bounded_sweep"
    for trial in range(4):
        frame = frame_for(seed, 12, 64, trial)
        for t1, t2 in ((2.0, 0.5), (4.0, 0.5), (2.0, 1.0), (4.0, 1.0)):
            rec.item = f"12x64/trial{trial}/t1={t1:g},t2={t2:g}"
            precondition.solve_coherence(frame, SETTINGS, bounds=(t1, t2))
    rec.workload = "phase_recovery"
    for pipeline, decoder in (("phi", "bp"), ("gphi", "bp"), ("g1phi", "omp")):
        rec.item = f"{pipeline}-{decoder}/M16"
        tally = recovery._kernel_lp = KernelTally(recovery._kernel_lp)
        try:
            diagram = experiments.phase_diagram(16, range(2, 16), 10, seed, pipeline=pipeline, decoder=decoder)
        finally:
            recovery._kernel_lp = tally.kernel
        print(rec.workload, rec.item, "grid", digest(diagram.success_rate))
        print(rec.workload, rec.item, "kernel", "member-steps", tally.steps, "fallbacks", tally.fallbacks)


def main(seed):
    rec = conic.solve = Recorder(conic.solve)
    try:
        run_workloads(seed, rec)
    finally:
        conic.solve = rec.solve


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
