import os

# one BLAS thread, as perfbench/run.py runs: the small dense factorizations
# of these tests get several times slower with OpenBLAS's default threads on
# a two-core machine; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from framecond import frames


@pytest.fixture
def sign_pattern_frame():
    """Four sign-pattern vectors in R^3 whose coherence drops from 1/2 to 1/3
    under the diagonal scaling diag(4/3, 2/3, 4/3)."""
    mat = np.array([[1, 1, 0, 0], [1, -1, 1, 1], [0, 0, 1, -1]], dtype=float) / np.sqrt(2)
    return frames.Frame(mat)


@pytest.fixture
def mercedes_benz():
    return frames.mercedes_benz_frame()
