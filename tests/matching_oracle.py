"""Independent scattering oracle: direct solution of the plane-wave matching system.

Writes the matching equations for the region amplitudes of a device (4
unknown amplitudes per region, 4 equations per defect plus 4 incidence
constraints) and reads the scattering matrix off the solution.  The
interior regions are eliminated pairwise by orthogonal (QR) transformations,
so the system is solved in log2(n) batched levels and one 8x8 solve for
the two end regions.  Deliberately avoids the composed transfer matrix and
the library's spin channels and S formula, so the two routes are
independent.
"""

import numpy as np

from spinpoint.device import FreeSegment
from spinpoint.extensions import defect_matrix


def _wave_bases(k: float, xs: np.ndarray) -> np.ndarray:
    """Boundary 4-vectors of (A e^{ikx} + B e^{-ikx}) per spin at each position, (n, 4, 4)."""
    ep, em = np.exp(1j * k * xs), np.exp(-1j * k * xs)
    z = np.zeros((len(xs), 4, 4), complex)
    for spin in (0, 2):
        z[:, spin, spin], z[:, spin, spin + 1] = ep, em
        z[:, spin + 1, spin], z[:, spin + 1, spin + 1] = 1j * k * ep, -1j * k * em
    return z


def smatrix_by_matching(device, k: float) -> np.ndarray:
    """S-matrix in grouped channel order with plane-referenced amplitudes.

    Left amplitudes are referenced to the device entry plane (x = 0) and
    right amplitudes to the exit plane (x = total free length), matching
    the convention of spectrum and transfer_to_scattering.
    """
    xs, ms, x = [], [], 0.0
    for el in device.elements:
        if isinstance(el, FreeSegment):
            x += el.length
        else:
            xs.append(x)
            ms.append(defect_matrix(el))
    exit_phase = np.exp(1j * k * x)
    if not ms:
        swap = np.zeros((4, 4), complex)
        swap[:2, 2:] = np.eye(2)
        swap[2:, :2] = np.eye(2)
        return exit_phase * swap

    # Region j amplitudes u_j = (A_up, B_up, A_dn, B_dn); region 0 leftmost.
    # Defect i matches u_i to u_{i+1}: left[i] u_i + right[i] u_{i+1} = 0.
    z = _wave_bases(k, np.array(xs))
    left, right = -(np.array(ms) @ z), z
    # Two neighbouring equations share one region; a unitary Q with Q^H
    # [right_a; left_b] = [R; 0] leaves, in its last four rows, one equation
    # between the outer regions.  Every level halves the number of equations.
    # Each row is scaled to a largest entry of 1 first: the rows of a wave
    # basis differ in scale by k, and unscaled the small rows lose digits.
    while True:
        norm = np.maximum(np.abs(left).max(axis=-1), np.abs(right).max(axis=-1))[..., None]
        left, right = left / norm, right / norm
        if len(left) == 1:
            break
        pairs = len(left) // 2
        la, ra = left[: 2 * pairs : 2], right[: 2 * pairs : 2]
        lb, rb = left[1 : 2 * pairs : 2], right[1 : 2 * pairs : 2]
        q = np.linalg.qr(np.concatenate([ra, lb], axis=1), mode="complete")[0]
        null = q[:, :, 4:].conj().swapaxes(-1, -2)  # (pairs, 4, 8)
        left = np.concatenate([null[:, :, :4] @ la, left[2 * pairs :]])
        right = np.concatenate([null[:, :, 4:] @ rb, right[2 * pairs :]])

    # unknowns (u_0, u_n); incidence rows: A_up, A_dn on the left and B_up,
    # B_dn on the right at the exit plane.  The four incident columns share
    # one solve.
    a = np.zeros((8, 8), complex)
    rhs = np.zeros((8, 4), complex)
    for col, unknown in enumerate((0, 2, 5, 7)):
        a[col, unknown] = 1.0
        rhs[col, col] = 1.0 if col < 2 else exit_phase
    a[4:, :4], a[4:, 4:] = left[0], right[0]
    u = np.linalg.solve(a, rhs)
    return np.stack([u[1], u[3], u[4] * exit_phase, u[6] * exit_phase])
