"""A fixed reference computation that measures how fast the host runs now.

On a shared host the CPU runs up to a third faster or slower as neighbours
load it, in phases from seconds to many minutes, so the wall time of the
same job drifts between runs far more than it varies within one.  The
benchmark times this kernel just before and just after each timed job (and
each set-up sample) and reports times scaled by ``REFERENCE_S / kernel
seconds``: the time the job would take with the host at reference speed.
The drift cancels because the kernel and the job slow down together.

The kernel does what stopsim's steppers spend their time on, with no
stopsim code: a Python loop of small numpy operations around sparse LU
solves of a 1-D and a 2-D Laplacian-like matrix, and a scalar clamp loop.
It must not change once the benchmark has a baseline: a change to it
rescales every time the benchmark reports.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median seconds of one kernel call on the host the benchmark was defined on
# (2-CPU Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_S = 0.0365


def _matrices():
    n, m = 150, 60
    ones_n, ones_m = np.ones(n - 1), np.ones(m - 1)
    line = sp.diags([-ones_n, 2.5 * np.ones(n), -ones_n], [-1, 0, 1], format="csc")
    row = sp.diags([-ones_m, 4.0 * np.ones(m), -ones_m], [-1, 0, 1])
    couple = sp.diags([-ones_m, -ones_m], [-1, 1])
    grid = (sp.kron(sp.eye(m), row) + sp.kron(couple, sp.eye(m))).tocsc()
    return line, grid


_LINE, _GRID = _matrices()
_B_LINE = np.linspace(-1.0, 1.0, _LINE.shape[0])
_B_GRID = np.linspace(-1.0, 1.0, _GRID.shape[0])


def kernel():
    lu_line, lu_grid = spla.splu(_LINE), spla.splu(_GRID)
    b, c, acc, z = _B_LINE.copy(), _B_GRID.copy(), 0.0, 0.0
    for k in range(200):
        x = lu_line.solve(b)
        b = np.clip(0.5 * x + 0.01 * k, -1.0, 1.0)
        acc += float(x @ x) ** 0.5
        z = 0.0
        for v in b[:40].tolist():
            z = min(0.5, max(-0.5, z + v))
        if k % 10 == 0:
            c = np.tanh(lu_grid.solve(c))
    return acc + z + float(c[0])


def measure():
    """Seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
