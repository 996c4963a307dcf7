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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTransferError, ParameterDomainError, SpectralSingularityError
from .extensions import current_forms, current_residual

__all__ = [
    "CHANNELS",
    "CLOSED_FORM_CHANNELS",
    "CLOSED_FORM_PERMUTATION",
    "ScatteringMatrix",
    "ChannelAmplitudes",
    "channel_index",
    "propagation",
    "transfer_to_scattering",
    "scattering_stack",
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


def channel_index(channel: int | str) -> int:
    """Resolve a channel name or index to its grouped-order index."""
    if isinstance(channel, str):
        try:
            return CHANNELS.index(channel)
        except ValueError:
            raise ParameterDomainError(
                f"unknown channel {channel!r}; expected one of {CHANNELS}"
            ) from None
    idx = int(channel)
    if not 0 <= idx < 4:
        raise ParameterDomainError(f"channel index must be in 0..3, got {channel}")
    return idx


@dataclass(eq=False)
class ScatteringMatrix:
    """Unitary 4x4 map from incoming to outgoing channel amplitudes.

    ``matrix`` may also be an (n, 4, 4) stack with ``k`` the n momenta;
    residuals and probabilities then come per momentum.
    """

    matrix: np.ndarray
    k: float

    @property
    def energy(self) -> float:
        return self.k * self.k

    def unitarity_residual(self):
        """Max-abs entry of S^dag S - 1; an array for a stack of matrices."""
        residual = current_residual(self.matrix)
        return float(residual) if residual.ndim == 0 else residual

    def is_unitary(self, tol: float = 1e-10) -> bool:
        return self.unitarity_residual() <= tol

    def probabilities(self, incident: int | str) -> np.ndarray:
        return channel_probabilities(self, incident)

    def apply(self, incoming) -> "ChannelAmplitudes":
        inc = np.asarray(incoming, dtype=complex).reshape(4)
        return ChannelAmplitudes(incoming=inc, outgoing=self.matrix @ inc)


@dataclass(eq=False)
class ChannelAmplitudes:
    """Incoming/outgoing plane-wave amplitudes in grouped channel order."""

    incoming: np.ndarray
    outgoing: np.ndarray

    def flux_mismatch(self) -> float:
        """|outgoing|^2 - |incoming|^2; vanishes for a unitary map."""
        return float(np.sum(np.abs(self.outgoing) ** 2) - np.sum(np.abs(self.incoming) ** 2))


def momentum_from_energy(energy: float) -> float:
    """k for a given E = k^2 (positive branch)."""
    if not energy > 0:
        raise ParameterDomainError(f"energy must be > 0, got {energy}")
    return float(np.sqrt(energy))


def check_momenta(k) -> np.ndarray:
    """One momentum or an array of momenta as floats; raises at the first one not > 0."""
    ks = np.asarray(k, dtype=float)
    if not np.all(ks > 0):
        raise ParameterDomainError(f"momentum must be > 0, got {float(ks[~(ks > 0)][0])!r}")
    return ks


def propagation(k, length: float) -> np.ndarray:
    """Transfer matrix of a free segment of the given length.

    Block-diagonal over spin with blocks
    [[cos kL, sin kL / k], [-k sin kL, cos kL]]; determinant 1.  A scalar
    ``k`` gives one 4x4 matrix, an array of n momenta an (n, 4, 4) stack.
    """
    ks = check_momenta(k)
    if length < 0:
        raise ParameterDomainError(f"length must be >= 0, got {length}")
    c = np.cos(ks * length)
    s = np.sin(ks * length)
    block = np.stack([c, s / ks, -ks * s, c], axis=-1).reshape(ks.shape + (2, 2))
    out = np.zeros(ks.shape + (4, 4), dtype=complex)
    out[..., :2, :2] = out[..., 2:, 2:] = block
    return out


def _amplitude_transfers(transfers: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Conjugate boundary transfers into the plane-wave amplitude basis."""
    w4 = np.zeros((len(ks), 4, 4), dtype=complex)
    w4[:, [0, 0, 2, 2], [0, 1, 2, 3]] = 1.0
    w4[:, 1, 0] = w4[:, 3, 2] = 1j * ks
    w4[:, 1, 1] = w4[:, 3, 3] = -1j * ks
    return np.linalg.solve(w4, transfers @ w4)


def check_conservation(transfers: np.ndarray, ks: np.ndarray, tol: float) -> None:
    """Raise at the first momentum whose transfer overflowed or fails M^dag F_x M = F_x.

    The residual is measured relative to the squared matrix scale so that
    opaque devices with large transfer entries are not rejected for round-off.
    A transfer has overflowed when that scale or the residual is not finite;
    ``tol=np.inf`` applies this overflow rule alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.abs(transfers).max(axis=(-2, -1)) ** 2)
        residual = current_residual(transfers, _FORM_X)
    overflowed = ~np.isfinite(scale) | ~np.isfinite(residual)
    failed = overflowed | (residual > tol * scale)
    if failed.any():
        i = int(np.argmax(failed))
        k = float(ks[i])
        if overflowed[i]:
            raise InvalidTransferError(
                f"transfer matrix overflowed at k={k!r}; the device is too opaque "
                f"for the transfer-matrix route"
            )
        raise InvalidTransferError(
            f"transfer does not conserve the longitudinal current at k={k!r} "
            f"(residual {residual[i]:.3e}, scale {scale[i]:.3e})"
        )


def scattering_stack(
    transfers, k_grid, *, conservation_tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a stack of 4x4 boundary transfers, one per momentum, into S-matrices.

    The amplitude transfer relates (a_Lu, b_Lu, a_Ld, b_Ld) on the left to
    (b_Ru, a_Ru, b_Rd, a_Rd) on the right; moving the outgoing unknowns
    (b_Lu, b_Ld, b_Ru, b_Rd) to one side gives a 4x4 linear system per
    momentum whose solution is the S-matrix in grouped channel order.

    Returns the (n, 4, 4) S stack and the boolean ``singular`` mask: rows
    whose rearrangement has a 1-norm condition number (LU inverse) above
    1e12 or not finite are NaN and flagged.  Raises
    :class:`InvalidTransferError` at the first momentum whose transfer
    overflowed or violates longitudinal-current conservation
    (``conservation_tol``, relative to the squared scale).
    """
    ks = check_momenta(k_grid)
    t = np.asarray(transfers, dtype=complex)
    if ks.ndim != 1 or t.shape != (len(ks), 4, 4):
        raise ParameterDomainError(f"need one 4x4 transfer per momentum, got {t.shape}")
    check_conservation(t, ks, conservation_tol)
    tt = _amplitude_transfers(t, ks)
    a = np.zeros_like(tt)
    b = np.zeros_like(tt)
    a[:, :, 0] = -tt[:, :, 1]
    a[:, :, 1] = -tt[:, :, 3]
    a[:, 0, 2] = a[:, 2, 3] = 1.0
    b[:, :, 0] = tt[:, :, 0]
    b[:, :, 1] = tt[:, :, 2]
    b[:, 1, 2] = b[:, 3, 3] = -1.0
    cond = np.linalg.cond(a, 1)
    singular = ~np.isfinite(cond) | (cond > 1e12)
    # A batched solve fails as a whole on one singular matrix, so each
    # singular row solves an identity instead and is blanked afterwards.
    a[singular] = np.eye(4)
    s = np.linalg.solve(a, b)
    s[singular] = np.nan
    return s, singular


def transfer_to_scattering(
    transfer: np.ndarray, k: float, *, conservation_tol: float = 1e-10
) -> ScatteringMatrix:
    """Convert one 4x4 boundary transfer at momentum ``k`` > 0 into an S-matrix.

    The single-momentum case of :func:`scattering_stack`, except that a
    singular rearrangement (1-norm condition number, from the LU inverse,
    above 1e12 or not finite) raises :class:`SpectralSingularityError`.
    """
    t = np.asarray(transfer)[None]
    s, singular = scattering_stack(t, [k], conservation_tol=conservation_tol)
    if singular[0]:
        raise SpectralSingularityError(k)
    return ScatteringMatrix(matrix=s[0], k=float(k))


def closed_form_flip_smatrix(k: float, r: float) -> np.ndarray:
    """Closed-form S-matrix of a single spin-flip defect of strength ``r``.

    Returned in the source channel order ``CLOSED_FORM_CHANNELS``
    (left_up, right_up, left_down, right_down):

        1/(k^2 r^2 + 4) * [[k2r2, 4, -2ikr, 2ikr],
                           [4, k2r2, 2ikr, -2ikr],
                           [-2ikr, 2ikr, k2r2, 4],
                           [2ikr, -2ikr, 4, k2r2]]

    Unitary for every real r.  Use :func:`closed_form_to_grouped` to
    reorder into the grouped channel convention.
    """
    check_momenta(k)
    kr = k * r
    d = kr * kr + 4.0
    t = kr * kr / d
    u = 4.0 / d
    f = 2j * kr / d
    return np.array(
        [
            [t, u, -f, f],
            [u, t, f, -f],
            [-f, f, t, u],
            [f, -f, u, t],
        ],
        dtype=complex,
    )


def closed_form_to_grouped(matrix: np.ndarray) -> np.ndarray:
    """Reorder a closed-form-ordered matrix into grouped channel order."""
    perm = np.asarray(CLOSED_FORM_PERMUTATION)
    m = np.asarray(matrix, dtype=complex)
    return m[np.ix_(perm, perm)]


def channel_probabilities(s, incident: int | str) -> np.ndarray:
    """Outgoing-channel probabilities for a unit-amplitude incident channel.

    Squared moduli of the S-matrix column of the incident channel; the
    four entries follow the grouped channel order and sum to 1 for a
    unitary S.  A stack of S-matrices gives one row of four per matrix.
    """
    matrix = s.matrix if isinstance(s, ScatteringMatrix) else np.asarray(s, dtype=complex)
    idx = channel_index(incident)
    return np.abs(matrix[..., :, idx]) ** 2
