"""Finite devices: ordered defects and free segments on the line."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError
from .extensions import DefectSpec, defect_matrix, r_flip_defect, x1_defect
from .scattering import CHANNELS, ScatteringMatrix, channel_index, check_momenta
from .scattering import propagation, scattering_stack

__all__ = [
    "FreeSegment",
    "Device",
    "SpectrumTable",
    "total_transfer",
    "spectrum",
    "preset_resonator",
    "preset_filter",
    "default_k_grid",
]


@dataclass(frozen=True)
class FreeSegment:
    """Defect-free stretch of the line; length strictly positive."""

    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ParameterDomainError(f"free segment length must be > 0, got {self.length}")


Element = DefectSpec | FreeSegment


@dataclass(frozen=True)
class Device:
    """Ordered elements, leftmost nearest x = -infinity; may be empty."""

    elements: tuple[Element, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for i, el in enumerate(self.elements):
            if not isinstance(el, (DefectSpec, FreeSegment)):
                raise ParameterDomainError(
                    f"device element {i} must be a DefectSpec or FreeSegment, got {type(el)!r}"
                )

    @property
    def total_length(self) -> float:
        return sum(el.length for el in self.elements if isinstance(el, FreeSegment))

    def reversed(self) -> "Device":
        return Device(tuple(reversed(self.elements)))


@dataclass(eq=False)
class SpectrumTable:
    """Per-momentum outgoing-channel probabilities for one incident channel."""

    k: np.ndarray
    energy: np.ndarray
    probabilities: np.ndarray  # shape (n, 4), grouped channel order
    unitarity_residual: np.ndarray
    singular: np.ndarray  # bool
    incident: str

    def __len__(self) -> int:
        return len(self.k)


def total_transfer(device: Device, k) -> np.ndarray:
    """Total transfer matrix of a device at momentum k.

    The rightmost element's matrix ends up leftmost in the product, so the
    result maps the boundary vector at the left end to the right end.  A
    scalar ``k`` gives one 4x4 matrix, an array of n momenta an (n, 4, 4)
    stack.
    """
    ks = check_momenta(k)
    total = np.broadcast_to(np.eye(4, dtype=complex), ks.shape + (4, 4)).copy()
    for el in device.elements:
        m = propagation(ks, el.length) if isinstance(el, FreeSegment) else defect_matrix(el)
        total = m @ total
    return total


def check_k_grid(k_grid) -> np.ndarray:
    """Validate a momentum grid: non-empty, 1d, positive and sorted ascending."""
    ks = check_momenta(k_grid)
    if ks.ndim != 1 or len(ks) == 0:
        raise ParameterDomainError("k grid must be a non-empty 1d array")
    if np.any(np.diff(ks) < 0):
        raise ParameterDomainError("k grid must be sorted ascending")
    return ks


def spectrum(
    device: Device,
    k_grid,
    incident: int | str = "left_up",
    *,
    conservation_tol: float = 1e-10,
    threads: int = 1,
) -> SpectrumTable:
    """Evaluate outgoing-channel probabilities over a momentum grid.

    Momenta where the in/out rearrangement is singular produce NaN
    probability rows with the ``singular`` flag set instead of failing
    the whole sweep.  The grid is converted in one batched call of
    :func:`~spinpoint.scattering.scattering_stack`; ``threads`` is
    accepted for compatibility and ignored.
    """
    ks = check_k_grid(k_grid)
    idx = channel_index(incident)
    transfers = total_transfer(device, ks)
    s, singular = scattering_stack(transfers, ks, conservation_tol=conservation_tol)
    smat = ScatteringMatrix(matrix=s, k=ks)
    return SpectrumTable(
        k=ks,
        energy=ks * ks,
        probabilities=smat.probabilities(idx),
        unitarity_residual=smat.unitarity_residual(),
        singular=singular,
        incident=CHANNELS[idx],
    )


def preset_resonator(defect: DefectSpec, separation: float = 1.0) -> Device:
    """Two identical defects enclosing one free segment."""
    if not separation > 0:
        raise ParameterDomainError(f"separation must be > 0, got {separation}")
    return Device((defect, FreeSegment(separation), defect))


def preset_filter(r: float = 0.5, x1: float = 1.0, spacing: float = 1.0) -> Device:
    """Spin-flip defects sandwiching a central barrier.

    A plausible filter geometry, not a canonical one; every parameter is
    overridable and the chain can equally be built by hand.
    """
    if not spacing > 0:
        raise ParameterDomainError(f"spacing must be > 0, got {spacing}")
    return Device(
        (
            r_flip_defect(r),
            FreeSegment(spacing),
            x1_defect(x1),
            FreeSegment(spacing),
            r_flip_defect(r),
        )
    )


def default_k_grid(
    k_min: float = 0.01, k_max: float = 20.0, points: int = 1000, spacing: str = "log"
) -> np.ndarray:
    """Default sweep grid: 1000 log-spaced momenta in [0.01, 20]."""
    if not 0 < k_min < k_max:
        raise ParameterDomainError(f"need 0 < k_min < k_max, got {k_min}, {k_max}")
    if points < 2:
        raise ParameterDomainError(f"need at least 2 grid points, got {points}")
    if spacing == "log":
        return np.geomspace(k_min, k_max, points)
    if spacing == "linear":
        return np.linspace(k_min, k_max, points)
    raise ParameterDomainError(f"spacing must be 'linear' or 'log', got {spacing!r}")
