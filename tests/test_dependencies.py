"""The library runs on numpy alone: scipy is a test and benchmark oracle.

Importing ``scipy.linalg`` costs more start-up CPU than most single CLI
commands spend solving, so no ``framecond`` module may import scipy, either
at import time or on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import framecond

SRC = str(Path(framecond.__file__).resolve().parent.parent)

# one small solve of every kind the library makes, in a fresh interpreter:
# C1, C2 with bounds, pinned C2, the diagonal LP, the certificate LP, and a
# batched basis pursuit on a rank-deficient matrix, which the kernel hands to
# the conic solver
PROBE = """
import json, sys
import numpy as np
import framecond.cli
from framecond import conic, frames, precondition, recovery

fr = frames.random_gaussian_frame(4, 8, 0)
settings = conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6)
statuses = [
    precondition.solve_coherence(fr, settings).solution.status,
    precondition.solve_coherence(fr, settings, bounds=(2.0, 0.5)).solution.status,
    precondition.solve_coherence(fr, settings, bounds=(1.0, 1.0)).solution.status,
    precondition.diagonal_lp(fr, settings).solution.status,
]
precondition.certificate_feasibility(fr)
a = np.vstack([fr.matrix, fr.matrix[0] + fr.matrix[1]])
x = np.zeros((2, 8))
x[0, 1], x[1, 6] = 1.0, -0.5
statuses += [r.status for r in recovery.basis_pursuit(a, x @ a.T)]
print(json.dumps({"statuses": statuses, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_library_never_imports_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["statuses"] == ["Optimal"] * 6
    assert report["scipy"] == []
