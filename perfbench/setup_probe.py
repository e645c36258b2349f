"""Time one cold set-up in a fresh process: import sqglab, then build the
grids, dyadic banks and ETD tableaux a workload uses.  Prints seconds.

Usage: python3 setup_probe.py <src dir> <workload>
"""

import sys
import time

from workloads import WORKLOADS

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

import sqglab.cli  # noqa: E402,F401
from sqglab.littlewood import build_bank  # noqa: E402
from sqglab.mild import SolveParams, duhamel_step  # noqa: E402
from sqglab.spectral import SpectralField, shared_grid  # noqa: E402

for n, box, tableaux in WORKLOADS[sys.argv[2]]:
    grid = shared_grid(n, box)
    build_bank(grid)
    zero = SpectralField(grid, np.zeros((n, n), dtype=np.complex128))
    for alpha, dt in tableaux:
        # one step builds the tableau and the velocity symbols of (alpha, dt)
        duhamel_step(zero, SolveParams(alpha=alpha, n=n, t_final=dt, dt=dt, box_length=box))
print(time.perf_counter() - t0)
