"""Independent scattering oracle: direct solution of the plane-wave matching system.

Builds the full linear system for the region amplitudes of a device
(4 unknown amplitudes per region, 4 matching equations per defect plus 4
incidence constraints) and reads the scattering matrix off the solution.
Deliberately avoids the composed transfer matrix and the library's in/out
system for the outgoing amplitudes, so the two routes are independent.
"""

import numpy as np

from spinpoint.device import FreeSegment
from spinpoint.extensions import defect_matrix


def _wave_basis(k: float, x: float) -> np.ndarray:
    """Boundary 4-vector of (A e^{ikx} + B e^{-ikx}) per spin at position x."""
    ep, em = np.exp(1j * k * x), np.exp(-1j * k * x)
    z = np.array([[ep, em], [1j * k * ep, -1j * k * em]])
    return np.kron(np.eye(2), z)


def smatrix_by_matching(device, k: float) -> np.ndarray:
    """S-matrix in grouped channel order with plane-referenced amplitudes.

    Left amplitudes are referenced to the device entry plane (x = 0) and
    right amplitudes to the exit plane (x = total free length), matching
    the convention of transfer_to_scattering.
    """
    defects, x = [], 0.0
    for el in device.elements:
        if isinstance(el, FreeSegment):
            x += el.length
        else:
            defects.append((x, defect_matrix(el)))
    total = x
    n = len(defects)
    exit_phase = np.exp(1j * k * total)
    if n == 0:
        swap = np.zeros((4, 4), complex)
        swap[:2, 2:] = np.eye(2)
        swap[2:, :2] = np.eye(2)
        return exit_phase * swap

    # Region j amplitudes (A_up, B_up, A_dn, B_dn); region 0 leftmost.
    nunk = 4 * (n + 1)
    s = np.zeros((4, 4), complex)
    for col in range(4):
        inc = np.zeros(4)
        inc[col] = 1.0
        a = np.zeros((nunk, nunk), complex)
        rhs = np.zeros(nunk, complex)
        row = 0
        a[row, 0] = 1.0
        rhs[row] = inc[0]
        row += 1
        a[row, 2] = 1.0
        rhs[row] = inc[1]
        row += 1
        a[row, 4 * n + 1] = 1.0
        rhs[row] = inc[2] * exit_phase
        row += 1
        a[row, 4 * n + 3] = 1.0
        rhs[row] = inc[3] * exit_phase
        row += 1
        for i, (xi, m) in enumerate(defects):
            z = _wave_basis(k, xi)
            mz = m @ z
            for rr in range(4):
                a[row, 4 * (i + 1) : 4 * (i + 2)] = z[rr]
                a[row, 4 * i : 4 * (i + 1)] -= mz[rr]
                row += 1
        u = np.linalg.solve(a, rhs)
        s[0, col] = u[1]
        s[1, col] = u[3]
        s[2, col] = u[4 * n + 0] * exit_phase
        s[3, col] = u[4 * n + 2] * exit_phase
    return s
