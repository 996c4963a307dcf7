"""Bloch band structure of periodic combs of point interactions.

A comb repeats one cell of defects and internal free segments with period
``a``; whatever length the cell's internal segments do not use is filled
by a trailing free segment so that the cell transfer always spans exactly
one period.  Propagating Bloch solutions at momentum k are eigenvalues of
the cell transfer with |lambda| = 1; the quasi-momentum is
q = |arg lambda| / a in [0, pi/a] and the energy is E = k^2.

Every interaction commutes with the spin swap, so the cell transfer splits
into two 2x2 spin channels, and :func:`dispersion` takes each channel's
two Bloch roots in closed form from its trace and determinant, and an
eigenvector (a 2-vector in its channel) only for each kept point; points
in different channels are orthogonal.  A channel block whose two roots
coincide while it is not a multiple of the identity is a Jordan block (one
eigenvector); those momenta are reported in ``BandDiagram.flagged_k``.

Combs built purely from spin-flip defects of the derivative-coupling type
block-diagonalize in the rotated spin basis (up +- down)/sqrt(2) into two
scalar value-jump combs (:func:`spin_decouple`), each a :class:`PeriodicComb`
of ``x4`` defects with the same free segments and period.  The scalar route
composes one 2x2 channel of such a comb with its own product loop, which
gives an independent check of the same spectrum: the Kronig-Penney trace
condition cos(qa) = tr T / 2 of each scalar comb (:func:`scalar_dispersion`, with
:func:`scalar_kp_relation` its closed form for one defect per period), whose
band edges :func:`band_edges` brackets in one batched scan and bisects all
at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .device import Device, FreeSegment, channel_transfer, total_transfer
from .errors import FitWindowError, ParameterDomainError
from .extensions import DefectKind, Tolerances, check_positive, check_real, check_tolerance
from .extensions import x4_defect
from .scattering import _MAX_POINTS, _half_sum, check_finite, check_k_grid, check_momenta
from .scattering import free_channels

__all__ = [
    "PeriodicComb",
    "BandDiagram",
    "Branch",
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
        if not isinstance(self.cell, Device):
            raise ParameterDomainError(f"cell must be a Device, got {type(self.cell).__name__}")
        object.__setattr__(self, "period", check_positive(self.period, "period"))
        internal = self.cell.total_length
        if internal > self.period * (1 + 1e-12):  # slack for the round-off of the sum
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

    def branches(self) -> list[Branch]:
        out = []
        for bid in sorted(set(int(b) for b in self.branch_id)):
            sel = self.branch_id == bid
            out.append(Branch(bid, self.k[sel], self.q[sel], self.energy[sel]))
        return out

    def __len__(self) -> int:
        return len(self.k)


def _period_device(comb: PeriodicComb) -> Device:
    """The comb's cell followed by its filling segment: exactly one period."""
    fill = (FreeSegment(comb.fill_length),) if comb.fill_length > 0 else ()
    return Device(comb.cell.elements + fill)


def cell_transfer(comb: PeriodicComb, k) -> np.ndarray:
    """Transfer matrix across one full period (cell plus filling segment).

    A scalar ``k`` gives one 4x4 matrix, an array of n momenta an
    (n, 4, 4) stack.
    """
    return total_transfer(_period_device(comb), k)


def _collapse_pairs(q, upper, propagating, period):
    """Kept roots in (k, q) order, as momentum index and column each, and their count per k.

    Propagating columns are visited in ascending q (a stable sort, so equal
    q keep column order).  A point within 1e-9 * max(1, pi/a) of the kept
    point's q merges into it and replaces it only if its root is ``upper``
    (Im lambda >= 0) and the kept one's is not, so the choice never rests
    on round-off in |lambda|.
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
        replace = merge & upper[rows, j] & ~upper[rows, last]
        slot[replace, m[replace] - 1] = j[replace]
        new = live & ~merge
        slot[new, m[new]] = j[new]
        m += new
    return np.repeat(rows, m), slot[np.arange(4) < m[:, None]], m


def _injective_maps(points: int, active: int) -> np.ndarray:
    """Every injective partial map of points to active slots (-1: none), in product order."""
    maps = []
    for combo in itertools.product(range(-1, active), repeat=points):
        used = [c for c in combo if c >= 0]
        if len(used) == len(set(used)):
            maps.append(combo)
    return np.array(maps, dtype=int)


def _length(*parts):
    """Length of the complex vector ``parts`` by hypot (numpy's SIMD abs varies with length)."""
    return reduce(np.hypot, [np.hypot(z.real, z.imag) for z in parts])


def _link_points(q, vecs, channel, m, period):
    """Flat index of each point's predecessor at the previous momentum, or its own if none.

    The points come flat in (k, q) order, ``m[i]`` at momentum i, each with
    its q, spin ``channel`` and unit eigenvector (a 2-vector in ``vecs``).
    The assignment minimizes total |dq| (``gate`` for a point that opens a
    branch, and no link may jump by more than ``gate``) minus a small
    overlap bonus |v^H w| within a channel; points in different channels
    are orthogonal.  It depends only on the points at two consecutive
    momenta, so the steps are grouped by their point counts and every
    injective map is scored for a whole group at once.  Maps scoring within
    ``tie`` of the best are tied (round-off alone separates them, e.g. two
    points that both change channel), and the first in product order wins.
    """
    first = np.cumsum(m) - m
    link = np.arange(len(q))
    gate = 0.25 * math.pi / period
    bonus = 1e-3 * (math.pi / period)
    tie = 1e-9 * (math.pi / period)
    pair = 5 * m[1:] + m[:-1]  # a step's point counts, now and before (each at most 4)
    for points, active in (divmod(group, 5) for group in np.unique(pair).tolist()):
        if not points or not active:
            continue
        i = np.flatnonzero(pair == 5 * points + active) + 1
        # flat indices (step, point, active) of the points now and before
        now = first[i, None, None] + np.arange(points)[:, None]
        before = first[i - 1, None, None] + np.arange(active)
        dq = np.abs(q[now] - q[before])
        dot = (vecs[before].conj() * vecs[now]).sum(axis=-1)
        ov = np.where(channel[now] == channel[before], _length(dot), 0.0)
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
        tied = score <= score.min(axis=1, keepdims=True) + tie
        best = maps[np.argmax(tied, axis=1)]
        link[now[..., 0]] = np.where(best >= 0, first[i - 1, None] + best, now[..., 0])
    return link


#: Relative distance (to a channel block's largest entry S) within which its
#: two roots coincide and below which it is a multiple of the identity.  The
#: discriminant tr^2/4 - det carries a round-off of a few eps * S^2, which
#: splits a double root by up to ~4 sqrt(eps) * S; roots further apart are
#: resolved.
_JORDAN_TOL = 8 * math.sqrt(np.finfo(float).eps)


def _channel_roots(comb: PeriodicComb, ks: np.ndarray):
    """Bloch roots (n, 4), channel blocks (4, n, 2) and Jordan flags of the cell transfer.

    Each 2x2 channel block [[a, b], [c, d]] (``blocks[:, k, channel]``) of
    the period transfer has the roots tr/2 +- sqrt(tr^2/4 - det); the larger
    one is taken first and the smaller as det over it, so that an evanescent
    root keeps its digits.  Columns run (+ larger, + smaller, - larger,
    - smaller).  A channel is a Jordan block (flagged) where its two roots
    coincide within ``_JORDAN_TOL`` of the block's largest entry while the
    block is not that close to a multiple of the identity; its double root
    is then tr/2.
    """
    blocks = channel_transfer(_period_device(comb), ks).reshape(4, len(ks), 2)
    a, b, c, d = blocks
    scale = np.max(np.abs(blocks), axis=0)
    # entries beyond ~1e154 overflow the products below; det, of modulus ~1,
    # is then lost to round-off anyway, and the roots come out non-finite
    # (not propagating)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        half = 0.5 * (a + d)
        det = a * d - b * c
        root = np.sqrt(half * half - det)
        big = np.where((half.conj() * root).real >= 0, half + root, half - root)
        small = det / big
        jordan = (np.abs(big - small) <= _JORDAN_TOL * scale) & (
            np.max(np.abs([0.5 * (a - d), b, c]), axis=0) > _JORDAN_TOL * scale
        )
    # round-off splits a double root by ~sqrt(eps); tr/2 keeps it to ~eps
    lam = np.stack([np.where(jordan, half, big), np.where(jordan, half, small)], axis=-1)
    return lam.reshape(len(ks), 4), blocks, jordan.any(axis=1)


def _energy(ks: np.ndarray) -> np.ndarray:
    """E = k^2 of each momentum by libm pow, as the CSV v1 bytes were written (k * k differs
    by one ulp on some k); the ``bands`` command formats its E text from the grid's energies.
    """
    return np.float_power(ks, 2)


def dispersion(comb: PeriodicComb, k_grid, *, bloch_tol: float = Tolerances.bloch) -> BandDiagram:
    """Compute the band diagram of a comb over a sorted positive k grid.

    The cell transfer splits into two 2x2 spin channels, whose Bloch roots
    are computed in closed form over the whole grid (:func:`_channel_roots`);
    roots with ||lambda| - 1| < ``bloch_tol`` are propagating and contribute
    a point (q = |arg lambda|/a, E = k^2).  Conjugate pairs are collapsed to
    a single point (the root with Im lambda >= 0), and only kept points get
    an eigenvector, a 2-vector in its channel.  Points are stitched into
    branches by nearest-neighbour continuity in q with an eigenvector-overlap
    bonus within a spin channel; every step of the grid is matched in one
    batched search over the injective assignments, and of assignments
    scoring within 1e-9 * pi/a of the best the first in
    ``itertools.product`` order wins.  A linked point keeps its
    predecessor's branch id; every other point opens the next id in (k, q)
    order.  Momenta where a channel block is a Jordan block (its two roots
    coincide but it is not a multiple of the identity, so it has one
    eigenvector) are reported in ``flagged_k``.  Raises
    :class:`InvalidTransferError` at the first momentum whose cell transfer
    overflowed.  ``bloch_tol`` must be > 0.
    """
    bloch_tol = check_tolerance(bloch_tol, "bloch_tol")
    ks = check_k_grid(k_grid)
    period = comb.period
    lam, blocks, jordan = _channel_roots(comb, ks)
    # the residual decides which root of a pair is kept
    residual = np.abs(_length(lam) - 1.0)
    q = np.abs(np.angle(lam)) / period

    rows, cols, m = _collapse_pairs(q, lam.imag >= 0, residual < bloch_tol, period)
    channel, root = np.divmod(cols, 2)
    # unit eigenvectors of the kept roots only: (b, lambda - a) or (lambda - d, c), whichever
    # is longer (by hypot, which squares nothing), or e1/e2 (root 0/1) where that is 0 or not finite
    (a, b, c, d), kept = blocks[:, rows, channel], lam[rows, cols]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        first, second = np.array([[b, kept - a], [kept - d, c]])
        length = _length(*first), _length(*second)
        longer = length[0] >= length[1]
        v, norm = np.where(longer, first, second).T, np.where(longer, *length)[:, None]
        vecs = np.where(np.isfinite(norm) & (norm > 0), v / norm, np.eye(2)[root])
    head = _link_points(q[rows, cols], vecs, channel, m, period)
    # pointer jumping: every point reaches the first point of its branch in
    # log2(branch length) rounds
    while not np.array_equal(jumped := head[head], head):
        head = jumped
    opens = head == np.arange(len(rows))

    return BandDiagram(
        period=period,
        k=ks[rows],
        q=q[rows, cols],
        energy=_energy(ks)[rows],
        branch_id=(np.cumsum(opens) - 1)[head],
        lambda_residual=residual[rows, cols],
        flagged_k=tuple(ks[jordan].tolist()),
    )


def spin_decouple(comb: PeriodicComb) -> tuple[PeriodicComb, PeriodicComb] | None:
    """Split a pure spin-flip comb into its two scalar value-jump channels.

    In the basis (up + down)/sqrt(2), (up - down)/sqrt(2) every spin-flip
    defect of strength r block-diagonalizes into value-jump blocks
    [[1, +r],[0,1]] and [[1, -r],[0,1]], i.e. scalar strengths x4 = -r and
    x4 = +r.  Returns ``(comb of x4_defect(-r), comb of x4_defect(+r))``
    with the same free segments and period, or None when the cell contains
    any other defect kind (inapplicable).
    """
    elements = comb.cell.elements
    if not all(isinstance(el, FreeSegment) or el.kind is DefectKind.R_FLIP for el in elements):
        return None
    cells = (
        Device(el if isinstance(el, FreeSegment) else x4_defect(sign * el.value) for el in elements)
        for sign in (-1.0, 1.0)
    )
    return tuple(PeriodicComb(cell, comb.period) for cell in cells)


def _scalar_transfer(comb: PeriodicComb, ks: np.ndarray) -> np.ndarray:
    """Entries (a, b, c, d) of one channel's 2x2 period transfer, composed elementwise over ``ks``.

    The cell may hold only ``x4`` defects (block [[1, -x4], [0, 1]]) and
    free segments.  Returns a (4, *ks.shape) array; raises
    :class:`InvalidTransferError` at the first momentum where it overflowed.
    """
    total = (1.0, 0.0, 0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for el in _period_device(comb).elements:
            if isinstance(el, FreeSegment):
                (p, q), (r, t) = free_channels(ks, el.length)[..., 0]
            elif el.kind is DefectKind.X4:
                p, q, r, t = 1.0, -el.value, 0.0, 1.0
            else:
                raise ParameterDomainError(
                    f"a scalar comb holds only x4 defects and free segments, got {el.kind.value}"
                )
            a, b, c, d = total
            total = (p * a + q * c, p * b + q * d, r * a + t * c, r * b + t * d)
    # a period (> 0) always holds a free segment, so every entry has the shape of ks
    entries = np.array(total)
    check_finite(np.isfinite(entries).all(axis=0), ks)
    return entries


def scalar_cell_transfer(comb: PeriodicComb, k) -> np.ndarray:
    """2x2 transfer across one period of a scalar comb (:func:`spin_decouple`).

    A scalar ``k`` gives one 2x2 matrix, an array of n momenta an (n, 2, 2)
    stack.
    """
    ks = check_momenta(k)
    return np.moveaxis(_scalar_transfer(comb, ks).reshape((2, 2) + ks.shape), (0, 1), (-2, -1))


def scalar_dispersion(comb: PeriodicComb, k_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagating (k, q, E) points of a scalar comb via the trace condition.

    The cell transfer has unit determinant, so Bloch solutions exist iff
    |tr T / 2| <= 1, with cos(q a) = tr T / 2.  The transfer is composed
    entry by entry over the whole grid, checked as in :func:`dispersion`.
    """
    ks = check_k_grid(k_grid)
    a, _, _, d = _scalar_transfer(comb, ks)
    half_trace = _half_sum(a, d)
    band = np.abs(half_trace) <= 1.0
    k = ks[band]
    return k, np.arccos(half_trace[band]) / comb.period, _energy(k)


def scalar_kp_relation(x4: float, a: float, k):
    """cos(qa) candidate for a one-defect-per-period value-jump comb.

    Returns cos(ka) + (x4*k/2)*sin(ka), a float for one ``k`` and an array
    for an array of momenta; k propagates iff the value lies in [-1, 1].
    ``x4`` must be finite, and ``a`` and every ``k`` finite and > 0.
    """
    x4, a, ks = check_real(x4, "x4"), check_positive(a, "a"), check_momenta(k)
    with np.errstate(over="ignore"):
        ka = ks * a
    if not np.isfinite(ka).all():
        raise ParameterDomainError("k * a must be a finite number")
    value = np.cos(ka) + 0.5 * x4 * ks * np.sin(ka)
    return float(value) if value.ndim == 0 else value


def band_edges(comb: PeriodicComb, k_max: float, *, scan_step: float = 0.01) -> np.ndarray:
    """Band-edge momenta of a scalar comb (:func:`spin_decouple`) below ``k_max``.

    Scans |tr T / 2| - 1 of the cell transfer in steps ka = ``scan_step``
    and bisects every sign change at once, one batched transfer per halving,
    to a bracket of 1e-13 or two adjacent floats; an exact zero at a scan
    point or a midpoint is an edge.  A gap is found only if a scan point
    falls inside it: the comb of ``x4_defect(1e-3)`` and period 1 has none
    below k = 7, while ``scan_step=1e-5`` finds its gaps at ka = pi and 2 pi.
    ``k_max`` and ``scan_step`` must be finite and > 0; the scan may hold
    no more points than a k grid.
    """
    k_max, scan_step = check_positive(k_max, "k_max"), check_positive(scan_step, "scan_step")
    if not k_max * comb.period / scan_step <= _MAX_POINTS:
        raise ParameterDomainError(f"k_max * a / scan_step must be <= {_MAX_POINTS}")

    def g(ks: np.ndarray) -> np.ndarray:
        t, _, _, d = _scalar_transfer(comb, ks)
        return np.abs(_half_sum(t, d)) - 1.0

    step = scan_step / comb.period
    ks = np.arange(step, k_max + step, step)
    gs = g(ks)
    # a sign change over a step is a bracket; an exact zero at its left end, one of width 0
    zero, change = gs[:-1] == 0.0, gs[:-1] * gs[1:] < 0
    i = np.flatnonzero(zero | change)
    lo, hi, below = ks[i], np.where(zero[i], ks[i], ks[i + 1]), gs[i] < 0.0
    mid = 0.5 * (lo + hi)
    while (at := np.flatnonzero((hi - lo > 1e-13) & (lo < mid) & (mid < hi))).size:
        g_mid = g(mid[at])
        low = (g_mid < 0.0) == below[at]  # the midpoint replaces the end whose sign it shares
        lo[at[low]], hi[at[~low]] = mid[at[low]], mid[at[~low]]
        # an exact zero at a midpoint is the edge: its bracket shrinks to width 0
        root = at[g_mid == 0.0]
        lo[root] = hi[root] = mid[root]
        mid = 0.5 * (lo + hi)
    return mid


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
    q, e, n = _window_points(branch, q_window, max(min_points, 1))  # one point per parameter
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
    q, e, n = _window_points(branch, q_window, max(min_points, 2))
    design = np.column_stack([q, q * q])
    coef, *_ = np.linalg.lstsq(design, e, rcond=None)
    v, w = (float(coef[0]), float(coef[1]))
    residual = float(np.sqrt(np.mean((e - design @ coef) ** 2)))
    return SlopeFit(slope=v, curvature=w, residual=residual, n_points=n)
