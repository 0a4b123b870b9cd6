"""Test-session set-up: one BLAS thread, as the benchmark runs.

The program's matrices are at most 64 wide, so a second BLAS thread only
spins on another core; pinning it makes the timing gates read the same on a
busy and an idle host. The variables have to be set before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
