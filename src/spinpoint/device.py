"""Finite devices: ordered defects and free segments on the line."""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigError
from .extensions import DefectSpec, Tolerances, check_items, check_positive, check_real
from .extensions import defect_matrix, r_flip_defect, x1_defect
from .scattering import _K_MAX, _K_MIN, _MAX_POINTS, ScatteringMatrix, channel_blocks
from .scattering import channel_matrix, channel_scattering, check_conservation, check_finite
from .scattering import check_k_grid, check_momenta, free_channels

__all__ = [
    "FreeSegment",
    "Device",
    "SpectrumTable",
    "channel_transfer",
    "total_transfer",
    "spectrum",
    "preset_resonator",
    "preset_filter",
    "SweepSpec",
]


@dataclass(frozen=True)
class FreeSegment:
    """Defect-free stretch of the line; length strictly positive."""

    length: float

    def __post_init__(self):
        object.__setattr__(self, "length", check_positive(self.length, "free segment length"))


Element = DefectSpec | FreeSegment


@dataclass(frozen=True)
class Device:
    """Ordered elements, leftmost nearest x = -infinity; may be empty."""

    elements: tuple[Element, ...] = field(default_factory=tuple)

    def __post_init__(self):
        elements = check_items(self.elements, "device element", (DefectSpec, FreeSegment))
        object.__setattr__(self, "elements", elements)

    @property
    def total_length(self) -> float:
        return sum(el.length for el in self.elements if isinstance(el, FreeSegment))

    def reversed(self) -> "Device":
        return Device(tuple(reversed(self.elements)))


@dataclass(eq=False)
class SpectrumTable:
    """A device's S-matrices over a momentum grid, with each row's unitarity residual.

    :func:`channel_probabilities` of ``smatrix`` gives an incident channel's probabilities.
    """

    k: np.ndarray
    energy: np.ndarray
    smatrix: np.ndarray  # shape (n, 4, 4), grouped channel order; NaN on singular rows
    unitarity_residual: np.ndarray
    singular: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.k)


def channel_transfer(device: Device, k) -> np.ndarray:
    """Channel array (2, 2, *k.shape, 2) of a device's transfer, composed entry by entry.

    A free segment enters as its :func:`free_channels` entries, a defect as
    the :func:`channel_blocks` of its matrix; no 4x4 matrix is built.  All
    free segments are built in one call, and all defects in another.  The
    composition runs on arrays indexed [row, col, channel, *k.shape], so
    each element costs three ufuncs over the momenta; the result equals the
    element-by-element product bit for bit.  The rightmost element's matrix
    ends up leftmost in the product.  Every element but a ``flux`` defect
    has a real matrix, so unless a defect's channel blocks have a non-zero
    imaginary part the composition runs in real arithmetic: the real parts
    are those of the complex product, and every imaginary part is +0.0,
    where the complex product may give -0.0.  Raises
    :class:`InvalidTransferError` at the first momentum where it overflowed.
    """
    ks = check_momenta(k)
    return _compose(device.elements, _defect_matrices(device), ks)


def _defect_matrices(device: Device) -> np.ndarray:
    """The (n, 4, 4) stack of the matrices of a device's n defects, in element order."""
    matrices = [defect_matrix(el) for el in device.elements if isinstance(el, DefectSpec)]
    return np.reshape(matrices, (-1, 4, 4))


def _compose(elements, matrices: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """:func:`channel_transfer` of ``elements`` at checked momenta, the defects' matrices given."""
    ones = (1,) * ks.ndim  # the momentum axes of an element that does not depend on k
    lengths = [el.length for el in elements if isinstance(el, FreeSegment)]
    blocks = channel_blocks(matrices)
    if not blocks.imag.any():
        blocks = blocks.real
    with np.errstate(over="ignore", invalid="ignore"):
        # each kind's entries in one call, as (n, row, col, channel, *k.shape) in element order,
        # iterated with each element's two columns as views
        free = np.moveaxis(free_channels(ks, np.reshape(lengths, (-1,) + ones)), (2, -1), (0, 3))
        defects = np.moveaxis(blocks, 2, 0).reshape((-1, 2, 2, 2) + ones)
        free, defects = (iter(zip(m, m[:, :, :1], m[:, :, 1:])) for m in (free, defects))
        views = (next(defects if isinstance(el, DefectSpec) else free) for el in elements)
        # the first element's entries, or the identity
        total = next(views, (np.eye(2).reshape((2, 2, 1) + ones),))[0]
        for _, col0, col1 in views:
            product = col0 * total[0]
            product += col1 * total[1]
            total = product
    out = np.empty((2, 2) + ks.shape + (2,), dtype=complex)
    out[...] = np.moveaxis(total, 2, -1)
    check_finite(np.isfinite(out).all(axis=(0, 1, -1)), ks)
    return out


def total_transfer(device: Device, k) -> np.ndarray:
    """Transfer matrix from the left end of a device to its right end (:func:`channel_transfer`).

    A scalar ``k`` gives one 4x4 matrix, an array of n momenta an (n, 4, 4) stack.
    """
    return channel_matrix(channel_transfer(device, k))


def spectrum(
    device: Device, k_grid, *, conservation_tol: float = Tolerances.transfer
) -> SpectrumTable:
    """Sweep a device's S-matrices over a k grid.

    Each defect's matrix is built once.  Free propagation conserves the current exactly, so
    the gate (``conservation_tol``) checks the defects in element order at the first momentum;
    ``smatrix`` is :func:`channel_scattering` of :func:`channel_transfer`, and a momentum
    whose S-matrix is not finite gives a NaN row flagged ``singular``, not a failed sweep.
    """
    ks = check_k_grid(k_grid)
    matrices = _defect_matrices(device)
    check_conservation(matrices, np.full(len(matrices), ks[0]), conservation_tol)
    s, singular = channel_scattering(_compose(device.elements, matrices, ks), ks)
    residual = ScatteringMatrix(matrix=s, k=ks).unitarity_residual()
    return SpectrumTable(
        k=ks, energy=ks * ks, smatrix=s, unitarity_residual=residual, singular=singular
    )


def preset_resonator(defect: DefectSpec, separation: float = 1.0) -> Device:
    """Two identical defects enclosing one free segment."""
    return Device((defect, FreeSegment(separation), defect))


def preset_filter(r: float = 0.5, x1: float = 1.0, spacing: float = 1.0) -> Device:
    """Spin-flip defects sandwiching a central barrier.

    A plausible filter geometry, not a canonical one; every parameter is
    overridable and the chain can equally be built by hand.
    """
    return Device(
        (
            r_flip_defect(r),
            FreeSegment(spacing),
            x1_defect(x1),
            FreeSegment(spacing),
            r_flip_defect(r),
        )
    )


@dataclass(frozen=True)
class SweepSpec:
    """Log- or linearly spaced momenta in [k_min, k_max]; a bad field raises ConfigError."""

    k_min: float = 0.01
    k_max: float = 20.0
    points: int = 1000
    spacing: str = "log"

    def __post_init__(self):
        for key in ("k_min", "k_max"):
            value = check_real(getattr(self, key), f"key {key!r} in sweep", ConfigError)
            object.__setattr__(self, key, value)
        if isinstance(self.points, bool) or not isinstance(self.points, Integral):
            raise ConfigError("key 'points' in sweep must be an integer")
        object.__setattr__(self, "points", int(self.points))
        if self.spacing not in ("linear", "log"):
            raise ConfigError("key 'spacing' in sweep must be 'linear' or 'log'")
        # the momentum bounds of check_momenta and check_k_grid, named by key
        if not self.k_min >= _K_MIN:
            raise ConfigError(
                f"key 'k_min' in sweep must be >= {_K_MIN!r}, the smallest normal float"
            )
        if not self.k_max <= _K_MAX:
            raise ConfigError(
                f"key 'k_max' in sweep must be <= {_K_MAX!r}, beyond which k^2 overflows"
            )
        if not self.k_min < self.k_max:
            raise ConfigError("key 'k_min' must be < 'k_max' in sweep")
        if self.points < 2:
            raise ConfigError("key 'points' in sweep must be >= 2")
        if self.points > _MAX_POINTS:
            raise ConfigError(f"key 'points' in sweep must be <= {_MAX_POINTS}")

    def grid(self) -> np.ndarray:
        space = np.geomspace if self.spacing == "log" else np.linspace
        return space(self.k_min, self.k_max, self.points)
