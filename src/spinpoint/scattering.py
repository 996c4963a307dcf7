"""4-channel scattering matrices at fixed momentum k.

Channel conventions
-------------------
Plane waves on either side of a device are written

    psi_s(x < 0)  = a_Ls * e^{ikx} + b_Ls * e^{-ikx}
    psi_s(x > X)  = b_Rs * e^{ikx} + a_Rs * e^{-ikx}

with left amplitudes referenced to the device entry plane and right
amplitudes to the exit plane.  The scattering matrix maps incoming to
outgoing amplitudes in the grouped channel order

    (left_up, left_down, right_up, right_down).

The closed-form single spin-flip-defect matrix is also provided in its
source ordering (left_up, right_up, left_down, right_down); the frozen
permutation between the two orderings is ``CLOSED_FORM_PERMUTATION`` and
was determined by directly solving the defect's matching equations (the
mapping involves no extra phase).

Every interaction commutes with the spin swap, so in the basis
(up +- down)/sqrt(2) a transfer splits into two 2x2 channel transfers
(:func:`channel_blocks`), each with a closed-form S-matrix
(:func:`channel_scattering`).  A channel array is indexed
[row, col, ..., channel], so products are elementwise over the momenta.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InvalidTransferError, ParameterDomainError, SpectralSingularityError
from .extensions import Tolerances, check_positive, check_real, check_tolerance, current_forms
from .extensions import _boundary_matrix, current_residual

__all__ = [
    "CHANNELS",
    "CLOSED_FORM_CHANNELS",
    "CLOSED_FORM_PERMUTATION",
    "ScatteringMatrix",
    "channel_index",
    "free_channels",
    "propagation",
    "channel_blocks",
    "channel_matrix",
    "channel_scattering",
    "transfer_to_scattering",
    "closed_form_flip_smatrix",
    "closed_form_to_grouped",
    "channel_probabilities",
    "momentum_from_energy",
]

CHANNELS = ("left_up", "left_down", "right_up", "right_down")

#: Channel order of :func:`closed_form_flip_smatrix`.
CLOSED_FORM_CHANNELS = ("left_up", "right_up", "left_down", "right_down")

#: ``CLOSED_FORM_PERMUTATION[i]`` is the closed-form index of grouped channel i.
CLOSED_FORM_PERMUTATION = (0, 2, 1, 3)

_FORM_X = current_forms()[0].matrix
_K_MIN = sys.float_info.min  # smallest momentum: dividing by a subnormal k overflows
_K_MAX = float(np.sqrt(np.finfo(float).max))  # largest momentum whose energy k^2 is finite
_MAX_POINTS = np.iinfo(np.intp).max // 8  # longest float64 k grid numpy can size


def channel_index(channel: int | str) -> int:
    """Resolve a channel name or integer index (numpy integers too, bools not) to its index."""
    if isinstance(channel, str):
        try:
            return CHANNELS.index(channel)
        except ValueError:
            raise ParameterDomainError(
                f"unknown channel {channel!r}; expected one of {CHANNELS}"
            ) from None
    if isinstance(channel, bool) or not isinstance(channel, Integral):
        raise ParameterDomainError(
            f"channel must be a name in {CHANNELS} or an integer index, got {channel!r}"
        )
    if not 0 <= channel < 4:
        raise ParameterDomainError(f"channel index must be in 0..3, got {channel}")
    return int(channel)


@dataclass(eq=False)
class ScatteringMatrix:
    """Unitary 4x4 map from incoming to outgoing channel amplitudes.

    ``matrix`` may also be an (n, 4, 4) stack with ``k`` the n momenta;
    residuals then come per momentum.
    """

    matrix: np.ndarray
    k: float

    def unitarity_residual(self):
        """Max-abs entry of S^dag S - 1; an array for a stack of matrices."""
        residual = current_residual(self.matrix)
        return float(residual) if residual.ndim == 0 else residual


def momentum_from_energy(energy: float) -> float:
    """k for a given E = k^2 (positive branch)."""
    return float(np.sqrt(check_positive(energy, "energy")))


def check_momenta(k) -> np.ndarray:
    """One momentum or an array of momenta as floats; raises unless each is an int or a float
    (a string, None, a complex value or a bool is not), then at the first one that is not
    finite or is below the smallest normal float (dividing by a subnormal k overflows).
    """
    try:
        ks = np.asarray(k)
    except ValueError:  # a ragged sequence, named by its value below
        ks = np.empty((), dtype=object)
    if ks.dtype == object and all(type(v) is int and abs(v) <= sys.float_info.max for v in ks.flat):
        ks = ks.astype(float)  # Python ints beyond the int64 range
    listed = isinstance(k, (list, tuple)) and ks.dtype.kind in "iuf"
    if listed and not {bool, np.bool_}.isdisjoint(map(type, np.asarray(k, dtype=object).flat)):
        ks = np.empty((), dtype=object)  # numpy reads a bool among numbers as a number
    if ks.dtype.kind not in "iuf":
        got = reprlib.repr(k) if ks.ndim == 0 else f"an array of dtype {ks.dtype}"
        raise ParameterDomainError(f"momentum must be a real number, got {got}")
    ks = ks.astype(float, copy=False)
    if not np.all(good := np.isfinite(ks) & (ks >= _K_MIN)):
        bad = float(ks[~good][0])
        if not np.isfinite(bad):
            rule = "a finite number"
        else:
            rule = "> 0" if bad <= 0 else f">= {_K_MIN!r}, the smallest normal float"
        raise ParameterDomainError(f"momentum must be {rule}, got {bad!r}")
    return ks


def check_k_grid(k_grid) -> np.ndarray:
    """Validate a momentum grid: non-empty, 1d and sorted ascending, each momentum one that
    :func:`check_momenta` takes and whose energy k^2 is finite (k <= sqrt of the float max).
    """
    ks = check_momenta(k_grid)
    if ks.ndim != 1 or len(ks) == 0:
        raise ParameterDomainError("k grid must be a non-empty 1d array")
    if np.any(high := ks > _K_MAX):
        bad = float(ks[high][0])
        raise ParameterDomainError(
            f"momentum must be <= {_K_MAX!r}, beyond which k^2 overflows, got {bad!r}"
        )
    if np.any(np.diff(ks) < 0):
        raise ParameterDomainError("k grid must be sorted ascending")
    return ks


def free_channels(ks: np.ndarray, length) -> np.ndarray:
    """Channel array (2, 2, *kl.shape, 1) of a free segment at checked momenta ``ks``.

    The entries [[cos kL, sin kL / k], [-k sin kL, cos kL]] are the same in
    both channels, so the channel axis has length 1 and broadcasts.  ``kl``
    is ``ks * length``, so an array of lengths, shaped to broadcast against
    ``ks``, gives every segment's entries at once.
    """
    kl = ks * length
    out = np.empty((2, 2) + kl.shape + (1,))
    # filled in place, with no stacked intermediate
    cos, sin_by_k, k_sin = out[0, 0, ..., 0], out[0, 1, ..., 0], out[1, 0, ..., 0]
    np.cos(kl, out=cos)
    np.sin(kl, out=k_sin)
    np.divide(k_sin, ks, out=sin_by_k)
    np.multiply(-ks, k_sin, out=k_sin)
    out[1, 1] = out[0, 0]
    return out


def propagation(k, length: float) -> np.ndarray:
    """Transfer matrix of a free segment of the given length.

    Block-diagonal over spin with the blocks of :func:`free_channels`;
    determinant 1.  A scalar ``k`` gives one 4x4 matrix, an array of n
    momenta an (n, 4, 4) stack.  Momenta must be finite and > 0, the length
    finite and >= 0; raises :class:`InvalidTransferError` at the first
    momentum where the matrix overflowed.
    """
    ks = check_momenta(k)
    if check_real(length, "length") < 0:
        raise ParameterDomainError(f"length must be >= 0, got {length}")
    with np.errstate(over="ignore", invalid="ignore"):
        free = free_channels(ks, length)
    check_finite(np.isfinite(free).all(axis=(0, 1, -1)), ks)
    return channel_matrix(np.broadcast_to(free, (2, 2) + ks.shape + (2,))).astype(complex)


def channel_blocks(matrix) -> np.ndarray:
    """Channel array (2, 2, ..., 2) of A + B and A - B of a matrix (stack) [[A, B], [B, A]]."""
    m = np.asarray(matrix, dtype=complex)
    a, b = m[..., :2, :2], m[..., :2, 2:]
    return np.moveaxis(np.stack([a + b, a - b]), (0, -2, -1), (-1, 0, 1))


def channel_matrix(channels: np.ndarray) -> np.ndarray:
    """The matrix (stack) [[A, B], [B, A]] of a channel array; undoes :func:`channel_blocks`."""
    plus, minus = np.moveaxis(channels, (-1, 0, 1), (0, -2, -1))
    a, b = _half_sum(plus, minus), _half_sum(plus, -minus)
    return np.block([[a, b], [b, a]])


def _half_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x + y) / 2 of two arrays of one shape, halving first only where the sum overflows
    (elsewhere subnormals stay exact).
    """
    with np.errstate(over="ignore"):
        half = (x + y) / 2
    if not (finite := np.isfinite(half)).all():
        over = ~finite
        half[over] = x[over] / 2 + y[over] / 2
    return half


def channel_scattering(channels: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grouped S-matrices of the channel transfers (2, 2, n, 2) at the n momenta ``ks``.

    In the k-scaled boundary basis, where e^{+-ikx} are (1, +-i), a channel
    maps (a_L, b_L) to (b_R, a_R) through [[alpha, beta], [gamma, delta]],
    pseudo-unitary when the current is conserved, so r = -gamma/delta,
    t = alpha/|delta|^2, t' = 1/delta and r' = beta/delta (Mello, Pereyra &
    Kumar, Ann. Phys. 181, 290 (1988)).  With 2 delta = a + d - i(bk - c/k),
    c/k overflows at small k; the rows that come out non-finite are computed
    again with every numerator and denominator multiplied by k, e.g.
    2 delta k = (a + d)k - i(bk^2 - c), and the other rows keep their bits.
    Also returns the mask of the rows that are still not finite, set to NaN.
    """
    (a, b), (c, d) = channels
    kc = ks[:, None]  # momenta against the channel axis
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = _smatrix(a, d, b * kc - c / kc, b * kc + c / kc, 2)
        singular = ~np.isfinite(s).all(axis=(-2, -1))
        if singular.any():
            a, b, c, d, kc = (entry[singular] for entry in (a, b, c, d, kc))
            s[singular] = _smatrix(a * kc, d * kc, b * kc * kc - c, b * kc * kc + c, 2 * kc)
            singular = ~np.isfinite(s).all(axis=(-2, -1))
    s[singular] = np.nan
    return s, singular


def _smatrix(a, d, u, v, two) -> np.ndarray:
    """Grouped S-matrices (n, 4, 4) of :func:`channel_scattering` from the channel entries a and
    d, u = bk - c/k, v = bk + c/k and ``two`` = 2, or from all of them times k.
    """
    delta2 = a + d - 1j * u  # 2 delta; alpha and delta differ in the sign of u
    tp = two / delta2
    # t = alpha/|delta|^2 in two divisions, so that |delta|^2 cannot overflow
    t = (a + d + 1j * u) / delta2.conj() * tp
    r, rp = (d - a - 1j * v) / delta2, (a - d - 1j * v) / delta2
    return closed_form_to_grouped(channel_matrix(np.array([[r, tp], [t, rp]])))


def check_finite(finite: np.ndarray, ks: np.ndarray) -> None:
    """Raise at the first momentum whose transfer overflowed (``finite`` is False)."""
    if not np.all(finite):
        k = float(np.asarray(ks)[~finite].flat[0])
        raise InvalidTransferError(
            f"transfer matrix overflowed at k={k!r}; the device is too opaque "
            f"for the transfer-matrix route"
        )


def check_conservation(transfers: np.ndarray, ks: np.ndarray, tol: float) -> None:
    """Raise at the first momentum whose transfer overflowed, fails M^dag F_x M = F_x or does
    not commute with the spin swap; residuals are relative to the (squared) matrix scale.
    ``tol`` must be > 0; ``inf`` passes every finite transfer.
    """
    tol = check_tolerance(tol, "conservation_tol")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.abs(transfers).max(axis=(-2, -1)) ** 2)
        current = current_residual(transfers, _FORM_X) / scale
        # M commutes with the swap iff its lower block row is the upper one, blocks swapped
        swapped = transfers[..., 2:, :] - transfers[..., :2, [2, 3, 0, 1]]
        swap = np.abs(swapped).max(axis=(-2, -1)) / np.sqrt(scale)
    check_finite(np.isfinite(scale) & np.isfinite(current), ks)
    rules = {"conserve the longitudinal current": current, "commute with the spin swap": swap}
    for rule, residual in rules.items():
        if (failed := residual > tol).any():
            i = int(np.argmax(failed))
            raise InvalidTransferError(
                f"transfer does not {rule} at k={float(ks[i])!r} "
                f"(relative residual {residual[i]:.3e})"
            )


def transfer_to_scattering(
    transfer: np.ndarray, k: float, *, conservation_tol: float = Tolerances.transfer
) -> ScatteringMatrix:
    """Convert one 4x4 boundary transfer at momentum ``k`` > 0 into an S-matrix.

    The gate :func:`check_conservation` (``conservation_tol``) raises
    :class:`InvalidTransferError` on a transfer that does not conserve the
    current or commute with the spin swap; then :func:`channel_scattering`
    gives the S-matrix in grouped channel order, and one that is not finite
    raises :class:`SpectralSingularityError`.
    """
    ks = check_momenta(k)
    try:
        shape = np.shape(transfer)
    except ValueError:  # a ragged sequence, which the conversion rejects by name
        shape = _boundary_matrix(transfer).shape
    if ks.ndim or shape != (4, 4):
        raise ParameterDomainError(
            f"need one 4x4 transfer and one momentum, got shapes {shape} and {ks.shape}"
        )
    t, ks = _boundary_matrix(transfer)[None], ks[None]
    check_conservation(t, ks, conservation_tol)
    s, singular = channel_scattering(channel_blocks(t), ks)
    if singular[0]:
        raise SpectralSingularityError(ks[0])
    return ScatteringMatrix(matrix=s[0], k=float(ks[0]))


def closed_form_flip_smatrix(k: float, r: float) -> np.ndarray:
    """Closed-form S-matrix of a single spin-flip defect of strength ``r``.

    Returned in the source channel order ``CLOSED_FORM_CHANNELS``
    (left_up, right_up, left_down, right_down):

        1/(k^2 r^2 + 4) * [[k2r2, 4, -2ikr, 2ikr],
                           [4, k2r2, 2ikr, -2ikr],
                           [-2ikr, 2ikr, k2r2, 4],
                           [2ikr, -2ikr, 4, k2r2]]

    Unitary for every real r (``r`` must be finite).  Where (kr)^2 overflows,
    the k2r2 entries take their limit 1 and the others 0 (total reflection).
    An array of n momenta gives an (n, 4, 4) stack.  Use :func:`closed_form_to_grouped`
    to reorder into the grouped channel convention.
    """
    ks = check_momenta(k)
    r = check_real(r, "r")
    with np.errstate(over="ignore", invalid="ignore"):
        kr = ks * r
        d = kr * kr + 4.0
        reflect = np.isinf(d)  # (kr)^2 overflowed
        t = np.where(reflect, 1.0, kr * kr / d)
        u = 4.0 / d
        # 2j * kr / d built from its parts, so that an array of k gets the bits of the scalar
        # division (numpy's complex division rounds twice); + 0.0 makes kr = -0.0 give +0j
        im = np.where(reflect, 0.0, (2 * kr + 0.0) / d)
        f = np.stack([0.0 * im, im], -1).view(complex)[..., 0]
    s = np.array(
        [
            [t, u, -f, f],
            [u, t, f, -f],
            [-f, f, t, u],
            [f, -f, u, t],
        ],
        dtype=complex,
    )
    return np.moveaxis(s, (0, 1), (-2, -1))


def closed_form_to_grouped(matrix: np.ndarray) -> np.ndarray:
    """Reorder a closed-form-ordered matrix (or a stack of them) into grouped channel order."""
    perm = np.asarray(CLOSED_FORM_PERMUTATION)
    m = np.asarray(matrix, dtype=complex)
    return m[..., perm[:, None], perm]


def channel_probabilities(s, incident: int | str) -> np.ndarray:
    """Outgoing-channel probabilities for a unit-amplitude incident channel.

    Squared moduli of the S-matrix column of the incident channel; the
    four entries follow the grouped channel order and sum to 1 for a
    unitary S.  A stack of S-matrices gives one row of four per matrix.
    ``s`` is a :class:`ScatteringMatrix` or a numeric (..., 4, 4) array.
    """
    m = _boundary_matrix(s.matrix if isinstance(s, ScatteringMatrix) else s, "S-matrix", stack=True)
    return np.abs(m[..., :, channel_index(incident)]) ** 2
