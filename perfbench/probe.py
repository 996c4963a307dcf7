"""Machine-speed probe: scales command times to a reference machine speed.

On a shared 2-core virtual machine the same command runs up to 2.5x
faster or slower in phases that last from seconds to a minute, so raw
wall times of the same work differ by ~25% between runs.  The probe is a
fixed block of the kind of work the CLI does per momentum (small complex
arrays, 4x4 ``matmul``/``solve``/``cond``/``eigvals``, shortest-repr float
formatting).  It lives here, not in ``spinpoint``, so no change to the
program can alter it.  Timed just before and after a block of commands,
it says how fast the machine ran at that moment; command times are
reported at the speed where the probe takes ``REFERENCE_S``, and the raw
figures are kept in the run record.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Probe time at the reference speed, close to its typical time on the
#: 2-core machine above, so that scaled and raw times have similar sizes.
REFERENCE_S = 0.02
MOMENTA = 100

_EYE = np.eye(4, dtype=complex)
_FLIP = np.eye(4, dtype=complex)
_FLIP[0, 3] = _FLIP[2, 1] = 0.3


def _free(k: float, length: float) -> np.ndarray:
    c, s = math.cos(k * length), math.sin(k * length)
    block = np.array([[c, s / k], [-k * s, c]], dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = block
    out[2:, 2:] = block
    return out


def probe() -> float:
    """Seconds the fixed probe block takes now.

    Per momentum: a three-element transfer product, the change to the
    plane-wave basis, a 4x4 rearrangement with its condition number,
    a residual, an eigen-decomposition and one formatted CSV row.
    """
    t0 = perf_counter()
    rows = []
    for i in range(MOMENTA):
        k = 0.1 + 0.05 * i
        total = _FLIP @ (_free(k, 1.0) @ (_FLIP @ _EYE))
        w = np.kron(np.eye(2), np.array([[1.0, 1.0], [1j * k, -1j * k]], dtype=complex))
        amp = np.linalg.solve(w, total @ w)
        a = np.zeros((4, 4), dtype=complex)
        a[:, 0] = -amp[:, 1]
        a[:, 1] = -amp[:, 3]
        a[0, 2] = a[2, 3] = 1.0
        if not np.linalg.cond(a) < 1e12:
            continue
        s = np.linalg.solve(a, amp)
        residual = float(np.abs(s.conj().T @ s - _EYE).max())
        lam = np.linalg.eigvals(total)
        fields = [repr(k), repr(k * k)] + [repr(float(x)) for x in np.abs(s[:, 0]) ** 2]
        fields += [repr(residual), repr(float(np.abs(lam).max()))]
        rows.append(",".join(fields))
    "\n".join(rows)
    return perf_counter() - t0
