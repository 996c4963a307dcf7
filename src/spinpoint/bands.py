"""Bloch band structure of periodic combs of point interactions.

A comb repeats one cell of defects and internal free segments with period
``a``; whatever length the cell's internal segments do not use is filled
by a trailing free segment so that the cell transfer always spans exactly
one period.  Propagating Bloch solutions at momentum k are eigenvalues of
the cell transfer with |lambda| = 1; the quasi-momentum is
q = |arg lambda| / a in [0, pi/a] and the energy is E = k^2.

Combs built purely from spin-flip defects of the derivative-coupling type
block-diagonalize in the rotated spin basis (up +- down)/sqrt(2) into two
scalar value-jump combs, which gives an independent closed-form route to
the same spectrum (:func:`scalar_kp_relation`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .device import _MAX_POINTS, Device, FreeSegment, check_k_grid, total_transfer
from .errors import FitWindowError, ParameterDomainError
from .extensions import DefectKind, DefectSpec, check_positive, check_real
from .scattering import check_conservation, propagation

__all__ = [
    "PeriodicComb",
    "BandDiagram",
    "Branch",
    "ScalarDefect",
    "ScalarComb",
    "CurvatureFit",
    "SlopeFit",
    "cell_transfer",
    "dispersion",
    "spin_decouple",
    "scalar_cell_transfer",
    "scalar_dispersion",
    "scalar_kp_relation",
    "band_edges",
    "effective_mass",
    "sound_slope",
]


@dataclass(frozen=True)
class PeriodicComb:
    """One repeating cell (defects + internal segments) and its period."""

    cell: Device
    period: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "period", check_positive(self.period, "period"))
        internal = self.cell.total_length
        if internal > self.period + 1e-12:
            raise ParameterDomainError(
                f"internal free length {internal} exceeds period {self.period}"
            )

    @property
    def fill_length(self) -> float:
        return max(self.period - self.cell.total_length, 0.0)


@dataclass(frozen=True)
class Branch:
    """One continuity-paired set of (q, E) band points."""

    id: int
    k: np.ndarray
    q: np.ndarray
    energy: np.ndarray


@dataclass(eq=False)
class BandDiagram:
    """Propagating Bloch points of a comb over a momentum grid."""

    period: float
    k: np.ndarray
    q: np.ndarray
    energy: np.ndarray
    branch_id: np.ndarray
    lambda_residual: np.ndarray  # | |lambda| - 1 | of the accepted eigenvalue
    flagged_k: tuple[float, ...] = ()
    metadata: dict = field(default_factory=dict)

    def branches(self) -> list[Branch]:
        out = []
        for bid in sorted(set(int(b) for b in self.branch_id)):
            sel = self.branch_id == bid
            out.append(Branch(bid, self.k[sel], self.q[sel], self.energy[sel]))
        return out

    def __len__(self) -> int:
        return len(self.k)


def cell_transfer(comb: PeriodicComb, k) -> np.ndarray:
    """Transfer matrix across one full period (cell plus filling segment).

    A scalar ``k`` gives one 4x4 matrix, an array of n momenta an
    (n, 4, 4) stack.
    """
    return propagation(k, comb.fill_length) @ total_transfer(comb.cell, k)


def _collapse_pairs(q, residual, propagating, period):
    """Kept eigen-columns per momentum: an (n, 4) slot table and the point count.

    Propagating columns are visited in ascending q (a stable sort, so equal
    q keep column order).  A point within 1e-9 * max(1, pi/a) of the kept
    point's q merges into it, and the smaller residual wins.
    """
    n = len(q)
    rows = np.arange(n)
    order = np.argsort(np.where(propagating, q, np.inf), axis=1, kind="stable")
    slot = np.zeros((n, 4), dtype=int)
    m = np.zeros(n, dtype=int)
    tol = 1e-9 * max(1.0, math.pi / period)
    for j in order.T:
        live = propagating[rows, j]
        last = slot[rows, np.maximum(m - 1, 0)]
        merge = live & (m > 0) & (q[rows, j] - q[rows, last] < tol)
        replace = merge & (residual[rows, j] < residual[rows, last])
        slot[replace, m[replace] - 1] = j[replace]
        new = live & ~merge
        slot[new, m[new]] = j[new]
        m += new
    return slot, m


def _injective_maps(points: int, active: int) -> np.ndarray:
    """Every injective partial map of points to active slots (-1: none), in product order."""
    maps = []
    for combo in itertools.product(range(-1, active), repeat=points):
        used = [c for c in combo if c >= 0]
        if len(used) == len(set(used)):
            maps.append(combo)
    return np.array(maps, dtype=int)


def _link_points(q, vecs, slot, m, period):
    """Predecessor slot of each kept point at the previous momentum, or -1.

    The assignment minimizes total |dq| (``gate`` for a point that opens a
    branch, and no link may jump by more than ``gate``) minus a small
    eigenvector-overlap bonus, so that branch crossings in q are resolved
    by the orthogonality of the two spin channels.  It depends only on the
    points at two consecutive momenta, so the steps are grouped by their
    point counts and every injective map is scored for a whole group at
    once; ``argmin`` keeps the first best map in product order.
    """
    n = len(q)
    link = np.full((n, 4), -1)
    qs = np.take_along_axis(q, slot, axis=1)
    # |V[i-1]^H V[i]|: matmul gives the per-pair np.vdot sums bit for bit (pinned
    # by tests/test_bands.py), and hypot the modulus, as for |lambda|
    product = np.swapaxes(vecs[:-1].conj(), -1, -2) @ vecs[1:]
    overlap = np.hypot(product.real, product.imag)
    gate = 0.25 * math.pi / period
    bonus = 1e-3 * (math.pi / period)
    steps = np.arange(1, n)
    for points, active in set(zip(m[1:].tolist(), m[:-1].tolist())):
        if not points or not active:
            continue
        i = steps[(m[1:] == points) & (m[:-1] == active)]
        dq = np.abs(qs[i, :points, None] - qs[i - 1, None, :active])
        ov = overlap[(i - 1)[:, None, None], slot[i - 1, None, :active], slot[i, :points, None]]
        maps = _injective_maps(points, active)
        total_dq = np.zeros((len(i), len(maps)))
        total_ov = np.zeros((len(i), len(maps)))
        feasible = np.ones((len(i), len(maps)), dtype=bool)
        for p, c in enumerate(maps.T):
            matched = c >= 0
            d = dq[:, p, c]
            total_dq += np.where(matched, d, gate)
            feasible &= ~(matched & (d > gate))
            total_ov += np.where(matched, ov[:, p, c], 0.0)
        score = np.where(feasible, total_dq - bonus * total_ov, np.inf)
        link[i, :points] = maps[np.argmin(score, axis=1)]
    return link


def dispersion(comb: PeriodicComb, k_grid, *, bloch_tol: float = 1e-8) -> BandDiagram:
    """Compute the band diagram of a comb over a sorted positive k grid.

    The eigenvalues of the cell transfer are computed in one batched call
    over the grid; eigenvalues with ||lambda| - 1| < ``bloch_tol`` are
    propagating and contribute a point (q = |arg lambda|/a, E = k^2).
    Conjugate pairs are collapsed to a single point, and points are
    stitched into branches by nearest-neighbour continuity in q with an
    eigenvector-overlap bonus; every step of the grid is matched in one
    batched search over the injective assignments, and of equally scored
    assignments the first in ``itertools.product`` order wins.  A linked
    point keeps its predecessor's branch id; every other point opens the
    next id in (k, q) order.  Momenta where the eigenvector matrix is
    numerically defective (its 1-norm condition number, from the LU
    inverse, is above 1e8 or not finite) are reported in ``flagged_k``.
    Raises :class:`InvalidTransferError` at the first momentum whose cell
    transfer overflowed.
    """
    ks = check_k_grid(k_grid)
    a = comb.period
    with np.errstate(over="ignore", invalid="ignore"):
        transfers = cell_transfer(comb, ks)
    # an infinite tolerance leaves only the overflow rule of the current gate
    check_conservation(transfers, ks, np.inf)
    lam, vecs = np.linalg.eig(transfers)
    cond = np.linalg.cond(vecs, 1)
    flagged = ks[~np.isfinite(cond) | (cond > 1e8)]
    # hypot, not np.abs: the SIMD complex abs of long arrays can differ by
    # one ulp, and the residual decides which eigenvalue of a pair is kept
    residual = np.abs(np.hypot(lam.real, lam.imag) - 1.0)
    q = np.abs(np.angle(lam)) / a

    slot, m = _collapse_pairs(q, residual, residual < bloch_tol, a)
    link = _link_points(q, vecs, slot, m, a)
    rows, slots = np.nonzero(np.arange(4) < m[:, None])
    cols = slot[rows, slots]
    # each point's flat index, and its predecessor's (itself where it opens a branch)
    first = np.cumsum(m) - m
    linked = link[rows, slots]
    head = np.where(linked >= 0, first[rows - 1] + linked, np.arange(len(rows)))
    # pointer jumping: every point reaches the first point of its branch in
    # log2(branch length) rounds
    while not np.array_equal(jumped := head[head], head):
        head = jumped
    opens = head == np.arange(len(rows))

    k = ks[rows]
    return BandDiagram(
        period=a,
        k=k,
        q=q[rows, cols],
        # libm pow, as the CSV v1 bytes were written; k * k differs by one ulp on some k
        energy=np.float_power(k, 2),
        branch_id=(np.cumsum(opens) - 1)[head],
        lambda_residual=residual[rows, cols],
        flagged_k=tuple(flagged.tolist()),
        metadata={"bloch_tol": bloch_tol},
    )


@dataclass(frozen=True)
class ScalarDefect:
    """Spinless value-jump defect of strength x4 (boundary block [[1,-x4],[0,1]])."""

    x4: float

    def __post_init__(self):
        object.__setattr__(self, "x4", check_real(self.x4, "x4"))


@dataclass(frozen=True)
class ScalarComb:
    """Scalar (single-channel) comb of value-jump defects."""

    elements: tuple[ScalarDefect | FreeSegment, ...]
    period: float

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "period", check_positive(self.period, "period"))

    @property
    def fill_length(self) -> float:
        internal = sum(el.length for el in self.elements if isinstance(el, FreeSegment))
        return max(self.period - internal, 0.0)


def spin_decouple(comb: PeriodicComb) -> tuple[ScalarComb, ScalarComb] | None:
    """Split a pure spin-flip comb into its two scalar value-jump channels.

    In the basis (up + down)/sqrt(2), (up - down)/sqrt(2) every spin-flip
    defect of strength r block-diagonalizes into value-jump blocks
    [[1, +r],[0,1]] and [[1, -r],[0,1]], i.e. scalar strengths x4 = -r and
    x4 = +r.  Returns ``(comb with x4=-r, comb with x4=+r)``, or None when
    the cell contains any other defect kind (inapplicable).
    """
    minus: list[ScalarDefect | FreeSegment] = []
    plus: list[ScalarDefect | FreeSegment] = []
    for el in comb.cell.elements:
        if isinstance(el, FreeSegment):
            minus.append(el)
            plus.append(el)
        elif isinstance(el, DefectSpec) and el.kind is DefectKind.R_FLIP:
            minus.append(ScalarDefect(x4=-el.value))
            plus.append(ScalarDefect(x4=+el.value))
        else:
            return None
    return ScalarComb(tuple(minus), comb.period), ScalarComb(tuple(plus), comb.period)


def _scalar_propagation(k: float, length: float) -> np.ndarray:
    c = math.cos(k * length)
    s = math.sin(k * length)
    return np.array([[c, s / k], [-k * s, c]])


def scalar_cell_transfer(comb: ScalarComb, k: float) -> np.ndarray:
    """2x2 transfer across one period of a scalar comb."""
    k = check_positive(k, "momentum")
    total = np.eye(2)
    for el in comb.elements:
        if isinstance(el, FreeSegment):
            m = _scalar_propagation(k, el.length)
        else:
            m = np.array([[1.0, -el.x4], [0.0, 1.0]])
        total = m @ total
    return _scalar_propagation(k, comb.fill_length) @ total


def scalar_dispersion(comb: ScalarComb, k_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagating (k, q, E) points of a scalar comb via the trace condition.

    The cell transfer has unit determinant, so Bloch solutions exist iff
    |tr T / 2| <= 1, with cos(q a) = tr T / 2.
    """
    ks, qs, es = [], [], []
    for k in np.asarray(k_grid, dtype=float):
        half_trace = float(np.trace(scalar_cell_transfer(comb, float(k)))) / 2.0
        if abs(half_trace) <= 1.0:
            ks.append(float(k))
            qs.append(math.acos(half_trace) / comb.period)
            es.append(float(k) ** 2)
    return np.array(ks), np.array(qs), np.array(es)


def scalar_kp_relation(x4: float, a: float, k: float) -> float:
    """cos(qa) candidate for a one-defect-per-period value-jump comb.

    Returns cos(ka) + (x4*k/2)*sin(ka); k propagates iff the value lies
    in [-1, 1].  ``x4`` must be finite, and ``a`` and ``k`` finite and > 0.
    """
    x4, a, k = check_real(x4, "x4"), check_positive(a, "a"), check_positive(k, "momentum")
    ka = check_real(k * a, "k * a")
    return math.cos(ka) + 0.5 * x4 * k * math.sin(ka)


def _bisect(g, lo: float, hi: float, g_lo: float, xtol: float = 1e-13) -> float:
    """Root of ``g`` in [lo, hi], given g(lo) = ``g_lo`` and a sign change on the bracket.

    Halves the bracket until it is no wider than ``xtol`` (or spans two
    adjacent floats) and returns its midpoint.
    """
    while hi - lo > xtol and lo < (mid := 0.5 * (lo + hi)) < hi:
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def band_edges(x4: float, a: float, k_max: float, *, scan_step: float = 0.01) -> np.ndarray:
    """Band-edge momenta of the one-defect scalar comb below ``k_max``.

    Scans |cos(qa) candidate| - 1 with bracket step ka = ``scan_step`` and
    refines each sign change by root bisection to a bracket of 1e-13.
    ``x4``, ``a``, ``k_max`` and ``scan_step`` must be finite, and all but
    ``x4`` must be > 0; the scan may hold no more points than a k grid.
    """
    x4 = check_real(x4, "x4")
    a, k_max, scan_step = (
        check_positive(value, name)
        for value, name in ((a, "a"), (k_max, "k_max"), (scan_step, "scan_step"))
    )
    if not k_max * a / scan_step <= _MAX_POINTS:
        raise ParameterDomainError(f"k_max * a / scan_step must be <= {_MAX_POINTS}")

    def g(k: float) -> float:
        return abs(scalar_kp_relation(x4, a, k)) - 1.0

    step = scan_step / a
    ks = np.arange(step, k_max + step, step)
    edges = []
    prev_k, prev_g = float(ks[0]), g(float(ks[0]))
    for k in ks[1:]:
        cur_g = g(float(k))
        if prev_g == 0.0:
            edges.append(prev_k)
        elif prev_g * cur_g < 0:
            edges.append(_bisect(g, prev_k, float(k), prev_g))
        prev_k, prev_g = float(k), cur_g
    return np.array(edges)


@dataclass(frozen=True)
class CurvatureFit:
    """Least-squares fit E = c q^2 near q = 0."""

    coefficient: float
    mass: float  # 1/(2c); equals 1/2 for the free branch in these units
    residual: float
    n_points: int


@dataclass(frozen=True)
class SlopeFit:
    """Fit E = v q + w q^2 near q = 0; v isolates the q -> 0 slope."""

    slope: float
    curvature: float
    residual: float
    n_points: int


def _window_points(branch: Branch, q_window, min_points: int):
    q_lo, q_hi = q_window
    sel = (branch.q > q_lo) & (branch.q <= q_hi)
    n = int(np.count_nonzero(sel))
    if n < min_points:
        raise FitWindowError(
            f"branch {branch.id} has {n} points in q-window ({q_lo}, {q_hi}], "
            f"need at least {min_points}"
        )
    return branch.q[sel], branch.energy[sel], n


def effective_mass(branch: Branch, q_window=(0.0, 0.2), min_points: int = 10) -> CurvatureFit:
    """Fit E = c q^2 on a branch near q = 0 and report the curvature.

    The associated mass 1/(2c) follows the E = k^2 normalization of this
    package; ratios of coefficients between branches are normalization
    free.
    """
    q, e, n = _window_points(branch, q_window, min_points)
    q2 = q * q
    c = float(np.dot(q2, e) / np.dot(q2, q2))
    residual = float(np.sqrt(np.mean((e - c * q2) ** 2)))
    return CurvatureFit(coefficient=c, mass=1.0 / (2.0 * c), residual=residual, n_points=n)


def sound_slope(branch: Branch, q_window=(0.0, 0.1), min_points: int = 10) -> SlopeFit:
    """Extract the linear slope of a (near-)massless branch at q -> 0.

    Fits E = v q + w q^2 so that the reported slope v is free of the
    leading curvature bias a plain one-parameter fit would pick up over
    a finite window.
    """
    q, e, n = _window_points(branch, q_window, min_points)
    design = np.column_stack([q, q * q])
    coef, *_ = np.linalg.lstsq(design, e, rcond=None)
    v, w = (float(coef[0]), float(coef[1]))
    residual = float(np.sqrt(np.mean((e - design @ coef) ** 2)))
    return SlopeFit(slope=v, curvature=w, residual=residual, n_points=n)
