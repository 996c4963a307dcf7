"""Finite devices: ordered defects and free segments on the line."""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigError, ParameterDomainError
from .extensions import DefectSpec, check_positive, check_real, defect_matrix
from .extensions import r_flip_defect, x1_defect
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
    "SweepSpec",
    "default_k_grid",
]

_MAX_POINTS = np.iinfo(np.intp).max // 8  # longest float64 k grid numpy can size


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
    total = np.eye(4, dtype=complex)
    for i, el in enumerate(device.elements):
        m = propagation(ks, el.length) if isinstance(el, FreeSegment) else defect_matrix(el)
        total = m @ total if i else m
    shape = ks.shape + (4, 4)
    return total if total.shape == shape else np.broadcast_to(total, shape).copy()


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
) -> SpectrumTable:
    """Evaluate outgoing-channel probabilities over a momentum grid.

    Momenta where the in/out system is singular produce NaN
    probability rows with the ``singular`` flag set instead of failing
    the whole sweep.  The grid is converted in one batched call of
    :func:`~spinpoint.scattering.scattering_stack`.
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
        if not self.k_min > 0:
            raise ConfigError("key 'k_min' in sweep must be > 0")
        if not self.k_min < self.k_max:
            raise ConfigError("key 'k_min' must be < 'k_max' in sweep")
        if self.points < 2:
            raise ConfigError("key 'points' in sweep must be >= 2")
        if self.points > _MAX_POINTS:
            raise ConfigError(f"key 'points' in sweep must be <= {_MAX_POINTS}")

    def grid(self) -> np.ndarray:
        space = np.geomspace if self.spacing == "log" else np.linspace
        return space(self.k_min, self.k_max, self.points)


def default_k_grid(
    k_min: float = 0.01, k_max: float = 20.0, points: int = 1000, spacing: str = "log"
) -> np.ndarray:
    """Grid of ``SweepSpec(k_min, k_max, points, spacing)``; bad arguments raise ConfigError.

    The default is 1000 log-spaced momenta in [0.01, 20].
    """
    return SweepSpec(k_min, k_max, points, spacing).grid()
