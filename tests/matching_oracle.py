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

    # Region j amplitudes (A_up, B_up, A_dn, B_dn); region 0 leftmost.  The
    # matching matrix does not depend on the incident channel, so the four
    # incident columns share one solve.
    nunk = 4 * (n + 1)
    a = np.zeros((nunk, nunk), complex)
    rhs = np.zeros((nunk, 4), complex)
    # incidence rows: A_up, A_dn on the left; B_up, B_dn on the right at the exit plane
    for col, unknown in enumerate((0, 2, 4 * n + 1, 4 * n + 3)):
        a[col, unknown] = 1.0
        rhs[col, col] = 1.0 if col < 2 else exit_phase
    for i, (xi, m) in enumerate(defects):
        z = _wave_basis(k, xi)
        rows = slice(4 * (i + 1), 4 * (i + 2))
        a[rows, 4 * (i + 1) : 4 * (i + 2)] = z
        a[rows, 4 * i : 4 * (i + 1)] = -(m @ z)
    u = np.linalg.solve(a, rhs)
    return np.stack([u[1], u[3], u[4 * n] * exit_phase, u[4 * n + 2] * exit_phase])
