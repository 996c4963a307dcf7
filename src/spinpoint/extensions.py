"""Boundary-condition matrices for point interactions of a spin-1/2 particle on a line.

Conventions
-----------
Units are fixed by hbar = 1 and m = 1/2, so the free Hamiltonian is
-d^2/dx^2 and E = k^2; every length is dimensionless.

The state of the particle next to a singular point is collected in the
boundary 4-vector

    Phi = (psi_up, psi_up', psi_down, psi_down')

and a point interaction is a 4x4 matrix ``M`` linking the two sides,
``Phi(0+) = M Phi(0-)``.  Spinless interactions act identically on both
spin blocks (indices 0:2 and 2:4 of Phi); the two genuinely spin-flipping
interactions couple each spin's value (respectively derivative) to the
opposite spin's derivative (respectively value).

An interaction matrix is admissible exactly when it conserves the three
components of the probability/spin current.  Those components are
quadratic forms ``J_i = Phi^dag F_i Phi`` with Hermitian 4x4 matrices
``F_i`` returned by :func:`current_forms`; admissibility reads
``M^dag F_i M = F_i`` for i = x, y, z and is checked numerically by
:func:`conserves_currents`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterDomainError

__all__ = [
    "DefectKind",
    "DefectSpec",
    "PARAM_KEY",
    "CurrentForm",
    "CurrentReport",
    "current_forms",
    "defect_matrix",
    "compose",
    "conserves_currents",
    "x1_defect",
    "x4_defect",
    "mass_jump_defect",
    "flux_defect",
    "r_flip_defect",
    "rtilde_flip_defect",
    "product_defect",
    "x2_from_mu",
    "mu_from_x2",
    "x3_from_phi",
    "phi_from_x3",
]


class DefectKind(str, Enum):
    """Supported point-interaction kinds (values double as config strings)."""

    X1 = "x1"
    X4 = "x4"
    MASS_JUMP = "mass_jump"
    FLUX = "flux"
    R_FLIP = "r_x4"
    RTILDE_FLIP = "rtilde_x1"
    PRODUCT = "product"


def check_real(value, name: str, error: type[Exception] = ParameterDomainError) -> float:
    """``value`` as a float; ``error`` unless it is a finite real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity or an integer beyond float range
        raise error(f"{name} must be a finite number")
    return float(value)


def check_positive(value, name: str) -> float:
    """``value`` as a float; ParameterDomainError unless it is a finite real number > 0."""
    value = check_real(value, name)
    if not value > 0:
        raise ParameterDomainError(f"{name} must be > 0, got {value}")
    return value


#: Config key of the single parameter of each non-product kind.
PARAM_KEY = {
    DefectKind.X1: "x1",
    DefectKind.X4: "x4",
    DefectKind.MASS_JUMP: "mu",
    DefectKind.FLUX: "phi",
    DefectKind.R_FLIP: "r",
    DefectKind.RTILDE_FLIP: "r_tilde",
}


@dataclass(frozen=True)
class DefectSpec:
    """Symbolic description of one point interaction.

    Every non-product kind is a one-parameter family; ``value`` is that
    parameter (config key ``PARAM_KEY[kind]``) and must be a finite real
    number:

    ==============  =========  =======================================
    kind            value      physical content
    ==============  =========  =======================================
    X1              x1         derivative jump ~ value (delta barrier)
    X4              x4         value jump ~ derivative
    MASS_JUMP       mu > 0     scaling by (mu, 1/mu), effective-mass step
    FLUX            phi        pure phase exp(i*pi*phi), localized flux
    R_FLIP          r          spin-flip through opposite derivative
    RTILDE_FLIP     r_tilde    spin-flip through opposite value
    PRODUCT         (none)     ordered product of ``factors``
    ==============  =========  =======================================

    ``phi`` is only meaningful modulo 2 because the phase is periodic.
    Only PRODUCT takes ``factors`` (at least one) and it takes no ``value``.
    The leftmost factor is applied last, i.e. the matrix is the plain
    left-to-right matrix product of the factors' matrices.
    """

    kind: DefectKind
    value: float | None = None
    factors: tuple["DefectSpec", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", DefectKind(self.kind))
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.kind is DefectKind.PRODUCT:
            if self.value is not None:
                raise ParameterDomainError("product defect takes no value, only factors")
            if not self.factors:
                raise ParameterDomainError("product defect needs at least one factor")
            if not all(isinstance(f, DefectSpec) for f in self.factors):
                raise ParameterDomainError("product factors must be DefectSpec instances")
            return
        if self.factors:
            raise ParameterDomainError(f"{self.kind.value} defect takes no factors")
        name = f"parameter {PARAM_KEY[self.kind]!r} of a {self.kind.value} defect"
        value = check_real(self.value, name)
        if self.kind is DefectKind.MASS_JUMP and not value > 0:
            raise ParameterDomainError(f"mass-jump parameter mu must be > 0, got {value}")
        object.__setattr__(self, "value", value)


def x1_defect(x1: float) -> DefectSpec:
    """Derivative-jump (delta-barrier type) interaction of strength ``x1``."""
    return DefectSpec(DefectKind.X1, x1)


def x4_defect(x4: float) -> DefectSpec:
    """Value-jump interaction of strength ``x4``."""
    return DefectSpec(DefectKind.X4, x4)


def mass_jump_defect(mu: float) -> DefectSpec:
    """Scaling interaction diag(mu, 1/mu); ``mu`` is the mass-jump ratio."""
    return DefectSpec(DefectKind.MASS_JUMP, mu)


def flux_defect(phi: float) -> DefectSpec:
    """Pure-phase interaction exp(i*pi*phi), a localized flux fraction."""
    return DefectSpec(DefectKind.FLUX, phi)


def r_flip_defect(r: float) -> DefectSpec:
    """Spin flip coupling each spin value to the opposite spin's derivative."""
    return DefectSpec(DefectKind.R_FLIP, r)


def rtilde_flip_defect(r_tilde: float) -> DefectSpec:
    """Spin flip coupling each spin derivative to the opposite spin's value."""
    return DefectSpec(DefectKind.RTILDE_FLIP, r_tilde)


def product_defect(factors: Iterable[DefectSpec]) -> DefectSpec:
    """Composite interaction; leftmost factor acts last."""
    return DefectSpec(DefectKind.PRODUCT, factors=tuple(factors))


@dataclass(frozen=True, eq=False)
class CurrentForm:
    """Hermitian quadratic form giving one current component."""

    axis: str
    matrix: np.ndarray


@dataclass(frozen=True)
class CurrentReport:
    """Result of checking M^dag F_i M = F_i for the three current forms."""

    x: bool
    y: bool
    z: bool
    residuals: tuple[float, float, float]
    tol: float

    @property
    def all_conserved(self) -> bool:
        return self.x and self.y and self.z


_SP2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


_FORMS = (
    CurrentForm("x", _frozen(np.block([[_SP2, _ZERO2], [_ZERO2, _SP2]]) / 1j)),
    CurrentForm("y", _frozen(np.block([[-_PAULI_X, _ZERO2], [_ZERO2, _PAULI_X]]))),
    CurrentForm("z", _frozen(np.block([[_ZERO2, _PAULI_X], [-_PAULI_X, _ZERO2]]) / 1j)),
)


def current_forms() -> tuple[CurrentForm, CurrentForm, CurrentForm]:
    """Return the Hermitian forms (F_x, F_y, F_z) of the three current components.

    In the boundary-vector basis (psi_up, psi_up', psi_down, psi_down'):

    * F_x is block-diagonal with antisymmetric 2x2 blocks [[0,1],[-1,0]]/i and
      gives the longitudinal probability current 2 Im(psi* psi') per spin.
    * F_y is block-diagonal with blocks -sigma_x and +sigma_x.
    * F_z is block-off-diagonal, mixing the two spin components.
    """
    return _FORMS


def current_residual(matrix: np.ndarray, form: np.ndarray | None = None) -> np.ndarray:
    """Max-abs entry of ``M^dag F M - F``; one value per matrix of an (n, 4, 4) stack.

    ``form=None`` stands for the identity and gives ``M^dag M - 1``.
    """
    adjoint = np.swapaxes(matrix.conj(), -1, -2)
    if form is None:
        product = adjoint @ matrix
        product[..., range(4), range(4)] -= 1.0
    else:
        product = adjoint @ form @ matrix
        product -= form
    return np.abs(product).max(axis=(-2, -1))


def _lift(block: np.ndarray) -> np.ndarray:
    """Embed a spinless 2x2 boundary matrix as the same action on both spins."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = block
    out[2:, 2:] = block
    return out


def defect_matrix(spec: DefectSpec) -> np.ndarray:
    """Build the 4x4 boundary matrix of a point interaction.

    Spinless kinds (X1, X4, MASS_JUMP, FLUX) act identically on both spin
    blocks.  PRODUCT returns the ordered matrix product of its factors,
    leftmost factor applied last.
    """
    kind = spec.kind
    if kind is DefectKind.X1:
        return _lift(np.array([[1.0, 0.0], [spec.value, 1.0]], dtype=complex))
    if kind is DefectKind.X4:
        return _lift(np.array([[1.0, -spec.value], [0.0, 1.0]], dtype=complex))
    if kind is DefectKind.MASS_JUMP:
        return _lift(np.array([[spec.value, 0.0], [0.0, 1.0 / spec.value]], dtype=complex))
    if kind is DefectKind.FLUX:
        return np.exp(1j * np.pi * spec.value) * np.eye(4, dtype=complex)
    if kind is DefectKind.R_FLIP:
        m = np.eye(4, dtype=complex)
        m[0, 3] = spec.value
        m[2, 1] = spec.value
        return m
    if kind is DefectKind.RTILDE_FLIP:
        m = np.eye(4, dtype=complex)
        m[1, 2] = spec.value
        m[3, 0] = spec.value
        return m
    if kind is DefectKind.PRODUCT:
        return compose([defect_matrix(f) for f in spec.factors])
    raise ParameterDomainError(f"unknown defect kind {kind!r}")


def compose(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Ordered product of boundary matrices; the rightmost acts first.

    ``compose([A, B])`` equals ``A @ B``, i.e. B is applied to the left-side
    boundary vector before A.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValueError("compose requires at least one matrix")
    return reduce(np.matmul, mats)


def conserves_currents(matrix: np.ndarray, tol: float = 1e-12) -> CurrentReport:
    """Check current conservation M^dag F_i M = F_i for i = x, y, z.

    The residual for each component is the max-abs entry of
    ``M^dag F_i M - F_i``; the component flag is True iff its residual
    is at most ``tol``.
    """
    if not tol > 0:
        raise ParameterDomainError(f"tolerance must be > 0, got {tol}")
    m = np.asarray(matrix, dtype=complex)
    rx, ry, rz = (float(current_residual(m, form.matrix)) for form in current_forms())
    return CurrentReport(rx <= tol, ry <= tol, rz <= tol, (rx, ry, rz), tol)


def x2_from_mu(mu: float) -> float:
    """Map a mass-jump ratio mu > 0 to the scaling strength 2(mu-1)/(mu+1)."""
    if not mu > 0:
        raise ParameterDomainError(f"mu must be > 0, got {mu}")
    return 2.0 * (mu - 1.0) / (mu + 1.0)


def mu_from_x2(x2: float) -> float:
    """Inverse of :func:`x2_from_mu`; requires |x2| < 2."""
    if not abs(x2) < 2:
        raise ParameterDomainError(f"scaling strength must satisfy |x2| < 2, got {x2}")
    return (2.0 + x2) / (2.0 - x2)


def x3_from_phi(phi: float) -> float:
    """Map a flux fraction to the equivalent rational-phase strength.

    Inverse of ``exp(i*pi*phi) = (2 + i*x3)/(2 - i*x3)``; only flux
    fractions with phi not congruent to 1 (mod 2) have a finite strength.
    """
    half = np.pi * phi / 2.0
    if abs(np.cos(half)) < 1e-12:
        raise ParameterDomainError(f"flux fraction {phi} maps to an infinite strength")
    return 2.0 * np.tan(half)


def phi_from_x3(x3: float) -> float:
    """Flux fraction in (-1, 1) equivalent to a rational-phase strength."""
    return 2.0 / np.pi * np.arctan(x3 / 2.0)
