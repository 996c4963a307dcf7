"""Band structure: cell transfer, dispersion, spin decoupling, scalar oracle."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpoint import (
    Branch,
    Device,
    FitWindowError,
    FreeSegment,
    InvalidTransferError,
    ParameterDomainError,
    PeriodicComb,
    band_edges,
    cell_transfer,
    defect_matrix,
    dispersion,
    effective_mass,
    flux_defect,
    mass_jump_defect,
    propagation,
    r_flip_defect,
    rtilde_flip_defect,
    scalar_cell_transfer,
    scalar_dispersion,
    scalar_kp_relation,
    sound_slope,
    spin_decouple,
    total_transfer,
    x1_defect,
    x4_defect,
)
from spinpoint.bands import _link_points
from spinpoint.scattering import _half_sum

# involutive basis change to the (up +- down)/sqrt(2) spin channels
MIX = np.array(
    [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, -1, 0],
        [0, 1, 0, -1],
    ]
) / np.sqrt(2)


def flip_comb(r, period=1.0):
    return PeriodicComb(Device((r_flip_defect(r),)), period)


def x4_comb(x4, period=1.0):
    return PeriodicComb(Device((x4_defect(x4),)), period)


def test_comb_validation():
    with pytest.raises(ParameterDomainError):
        PeriodicComb(Device((FreeSegment(1.5),)), 1.0)
    with pytest.raises(ParameterDomainError):
        PeriodicComb(Device(), 0.0)


def test_empty_cell_transfer_is_free_propagation():
    comb = PeriodicComb(Device(), 1.0)
    k = 1.7
    assert np.abs(cell_transfer(comb, k) - propagation(k, 1.0)).max() == 0.0


def test_single_defect_cell_transfer():
    # cell_transfer composes the two spin channels, not the 4x4 matrices
    comb = flip_comb(0.6)
    k = 2.3
    expected = propagation(k, 1.0) @ defect_matrix(r_flip_defect(0.6))
    assert np.abs(cell_transfer(comb, k) - expected).max() <= 1e-15


def test_cell_transfer_block_traces_match_scalar_relation():
    # in the mixed spin basis the cell transfer is block-diagonal with
    # half-traces cos(ka) -+ (r k / 2) sin(ka) for the two channels
    r, a = 0.8, 1.0
    comb = flip_comb(r, a)
    for k in (0.3, 1.1, 2.9):
        mixed = MIX @ cell_transfer(comb, k) @ MIX
        assert np.abs(mixed[:2, 2:]).max() < 1e-14
        assert np.abs(mixed[2:, :2]).max() < 1e-14
        plus_trace = float(np.trace(mixed[:2, :2]).real)
        minus_trace = float(np.trace(mixed[2:, 2:]).real)
        assert plus_trace == pytest.approx(2 * scalar_kp_relation(-r, a, k), abs=1e-12)
        assert minus_trace == pytest.approx(2 * scalar_kp_relation(+r, a, k), abs=1e-12)


def test_scalar_relation_free_limit():
    for k in (0.4, 2.0, 5.3):
        assert scalar_kp_relation(0.0, 1.0, k) == pytest.approx(math.cos(k), abs=1e-15)


@pytest.mark.parametrize("a,x4", [(1.0, 0.5), (1.0, -0.7), (2.0, 0.3)])
def test_scalar_relation_small_k_expansion(a, x4):
    k = 1e-3
    candidate = scalar_kp_relation(x4, a, k)
    assert candidate == pytest.approx(1 - (k * k * a / 2) * (a - x4), abs=1e-10)
    q = math.acos(candidate) / a
    assert (k * k) / (q * q) == pytest.approx(a / (a - x4), rel=1e-4)


def test_scalar_relation_massless_expansion():
    # x4 = 1, a = 1: candidate = 1 - k^4/24 + k^6/360 + O(k^8)
    for k in (0.1, 0.2, 0.3):
        value = scalar_kp_relation(1.0, 1.0, k)
        assert value == pytest.approx(1 - k**4 / 24 + k**6 / 360, abs=1e-8)
    k = 0.01
    q = math.acos(scalar_kp_relation(1.0, 1.0, k))
    assert q == pytest.approx(k * k / (2 * math.sqrt(3)), rel=1e-4)
    assert k * k == pytest.approx(2 * math.sqrt(3) * q, rel=1e-4)


def test_scalar_cell_half_trace_equals_relation():
    x4, a = 0.45, 1.3
    comb = PeriodicComb(Device((x4_defect(x4),)), a)
    for k in (0.2, 1.7, 4.4):
        half_trace = float(np.trace(scalar_cell_transfer(comb, k))) / 2
        assert half_trace == pytest.approx(scalar_kp_relation(x4, a, k), abs=1e-13)


def test_dispersion_free_comb_folds_parabola():
    comb = PeriodicComb(Device(), 1.0)
    ks = np.linspace(0.1, 6.0, 150)
    diagram = dispersion(comb, ks)
    assert np.allclose(diagram.energy, diagram.k**2)
    expected_q = np.abs(((diagram.k + np.pi) % (2 * np.pi)) - np.pi)
    assert np.abs(diagram.q - expected_q).max() < 1e-10


def test_dispersion_curvature_ratio_r_half():
    comb = flip_comb(0.5)
    diagram = dispersion(comb, np.linspace(0.01, 0.28, 120))
    coeffs = sorted(
        effective_mass(b, q_window=(0.0, 0.2)).coefficient for b in diagram.branches()
    )
    assert coeffs[0] == pytest.approx(1 / 1.5, rel=0.01)
    assert coeffs[1] == pytest.approx(2.0, rel=0.01)
    assert coeffs[1] / coeffs[0] == pytest.approx(3.0, rel=0.01)


def test_dispersion_curvature_coefficients_r_quarter():
    comb = flip_comb(0.25)
    diagram = dispersion(comb, np.linspace(0.01, 0.25, 120))
    coeffs = sorted(
        effective_mass(b, q_window=(0.0, 0.2)).coefficient for b in diagram.branches()
    )
    assert coeffs[0] == pytest.approx(0.8, rel=0.01)
    assert coeffs[1] == pytest.approx(4 / 3, rel=0.01)


def test_dispersion_flags_defective_cell_matrices():
    # at k = pi the cell transfer equals -(identity + r N) with N nilpotent,
    # a genuine Jordan block, so the eigenvector matrix is defective there
    diagram = dispersion(flip_comb(0.5), np.array([3.0, np.pi, 3.3]))
    assert any(np.isclose(kf, np.pi) for kf in diagram.flagged_k)


@pytest.mark.parametrize(
    "r,flagged",
    [(0.5, (np.pi, 2 * np.pi)), (-1.7, (np.pi, 2 * np.pi)), (0.0, ())],
    ids=["jordan", "jordan_negative", "zero_coupling"],
)
def test_dispersion_flags_only_jordan_blocks(r, flagged):
    # at ka = n pi a one-defect cell is +-(identity + r N) per channel with N
    # nilpotent; without coupling it is +-identity, which has two eigenvectors.
    # k = 1.3 is a generic in-band momentum.
    diagram = dispersion(flip_comb(r), np.array([1.3, np.pi, 2 * np.pi]))
    assert 1.3 in diagram.k
    assert diagram.flagged_k == flagged
    # the double root of a Jordan block is exactly on the band edge
    assert diagram.q[diagram.k == np.pi].tolist() == [np.pi]


def test_dispersion_keeps_a_resolved_point_next_to_a_band_edge():
    # a strong value jump narrows the band below ka = pi: 3e-11 inside its
    # edge the roots e^(+-i theta) (theta ~ 3e-4) are resolved, 4e-7 of the
    # block's largest entry apart, so they are no Jordan block
    x4, k = 1000.0, np.pi - 2.9e-11
    diagram = dispersion(PeriodicComb(Device((x4_defect(x4),)), 1.0), np.array([k]))
    assert diagram.flagged_k == ()
    q = math.acos(scalar_kp_relation(x4, 1.0, k))
    assert diagram.q.tolist() == pytest.approx([q], rel=1e-9)
    assert diagram.lambda_residual.max() <= 1e-12


def test_dispersion_of_an_opaque_cell_raises_no_warning():
    # channel entries up to ~1e180: finite, but their squares overflow
    cell = Device((x1_defect(1e3), x4_defect(1e3)) * 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagram = dispersion(PeriodicComb(cell, 1.0), np.linspace(0.5, 3.0, 50))
    assert len(diagram) == 0 and diagram.flagged_k == ()


def test_spin_decouple_strengths():
    minus, plus = spin_decouple(flip_comb(0.5))
    assert minus.cell.elements == (x4_defect(-0.5),)
    assert plus.cell.elements == (x4_defect(+0.5),)
    assert minus.period == plus.period == 1.0


def test_spin_decouple_zero_coupling_gives_free_combs():
    minus, plus = spin_decouple(flip_comb(0.0))
    assert all(el.value == 0.0 for el in minus.cell.elements)
    assert all(el.value == 0.0 for el in plus.cell.elements)


def test_spin_decouple_keeps_geometry():
    cell = Device((r_flip_defect(0.3), FreeSegment(0.4), r_flip_defect(-0.2)))
    minus, plus = spin_decouple(PeriodicComb(cell, 2.0))
    assert minus.cell.elements[1] == plus.cell.elements[1] == FreeSegment(0.4)
    assert plus.cell.elements[2] == x4_defect(-0.2)
    assert minus.period == plus.period == 2.0


def test_spin_decouple_inapplicable():
    comb = PeriodicComb(Device((x1_defect(1.0),)), 1.0)
    assert spin_decouple(comb) is None
    mixed = PeriodicComb(Device((r_flip_defect(0.1), mass_jump_defect(2.0))), 1.0)
    assert spin_decouple(mixed) is None


def test_dispersion_matches_scalar_union():
    comb = flip_comb(0.5)
    ks = np.linspace(0.1, 11.9, 60)
    # keep clear of band edges where arccos conditioning degrades
    for x4 in (-0.5, 0.5):
        cands = np.array([scalar_kp_relation(x4, 1.0, k) for k in ks])
        assert np.abs(np.abs(cands) - 1.0).min() > 1e-3
    diagram = dispersion(comb, ks)
    minus, plus = spin_decouple(comb)
    for k in ks:
        eig_qs = np.sort(diagram.q[np.isclose(diagram.k, k)])
        scalar_qs = []
        for scomb in (minus, plus):
            _, qs, _ = scalar_dispersion(scomb, [k])
            scalar_qs.extend(qs)
        scalar_qs = np.sort(scalar_qs)
        assert len(eig_qs) == len(scalar_qs)
        if len(eig_qs):
            assert np.abs(eig_qs - scalar_qs).max() < 1e-10


def test_cell_eigenvalues_come_in_reciprocal_pairs():
    rng = np.random.default_rng(17)
    cells = [
        Device((r_flip_defect(0.5),)),
        Device((r_flip_defect(0.3), FreeSegment(0.3), x1_defect(0.7))),
        Device((mass_jump_defect(1.6), FreeSegment(0.5), x4_defect(-0.4))),
    ]
    for cell in cells:
        comb = PeriodicComb(cell, 1.2)
        for _ in range(4):
            lam = np.linalg.eigvals(cell_transfer(comb, rng.uniform(0.2, 8.0)))
            for value in lam:
                assert np.abs(lam * value - 1.0).min() < 1e-10


def test_batched_cell_transfer_equals_scalar_calls():
    rng = np.random.default_rng(23)
    ks = np.linspace(0.01, 15.0, 300)
    for _ in range(4):
        makers = (r_flip_defect, x1_defect, x4_defect)
        cell = [makers[rng.integers(3)](rng.normal()) for _ in range(rng.integers(1, 6))]
        cell.insert(1, FreeSegment(rng.uniform(0.1, 0.5)))
        comb = PeriodicComb(Device(cell), rng.uniform(0.6, 2.0))
        per_k = np.stack([cell_transfer(comb, float(k)) for k in ks])
        assert np.array_equal(cell_transfer(comb, ks), per_k)


def assert_rows_match(got, want, exact, close, period):
    """Row tables agree bit for bit in the ``exact`` columns and to 1e-8 * max(1, pi/a) in ``close``.

    A per-k eig and the closed-form channel roots of dispersion agree on q
    and |lambda| only to round-off, which q = arccos(tr/2)/a amplifies near
    band edges, and eig resolves a double root only to ~sqrt(eps).  Of two
    roots merged into one point (within 1e-9 * max(1, pi/a)) the two
    routes may keep different ones.
    """
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got[:, exact], want[:, exact])
    if len(got):
        assert np.abs(got[:, close] - want[:, close]).max() <= 1e-8 * max(1.0, math.pi / period)


def matmul_cell_transfer(comb, k):
    """Period transfer of one momentum as the 4x4 product of fill and cell transfers."""
    return propagation(k, comb.fill_length) @ total_transfer(comb.cell, k)


def per_k_dispersion_rows(comb, ks, bloch_tol=1e-8):
    """(k, E, q, lambda_residual) rows from one eig per momentum and Python abs."""
    a = comb.period
    rows = []
    for k in ks:
        lam = np.linalg.eig(matmul_cell_transfer(comb, float(k)))[0]
        pts = [(abs(float(np.angle(v))) / a, abs(abs(v) - 1.0)) for v in lam]
        pts = sorted((p for p in pts if p[1] < bloch_tol), key=lambda p: p[0])
        merged = []
        for q, residual in pts:
            if merged and q - merged[-1][0] < 1e-9 * max(1.0, math.pi / a):
                if residual < merged[-1][1]:
                    merged[-1] = (q, residual)
            else:
                merged.append((q, residual))
        rows += [(float(k), float(k) ** 2, q, float(residual)) for q, residual in merged]
    return np.reshape(rows, (-1, 4))


@pytest.mark.parametrize(
    "comb",
    [flip_comb(0.5), PeriodicComb(Device((r_flip_defect(0.3), FreeSegment(0.4), x1_defect(0.7))), 1.3)],
    ids=["flip_comb", "mixed_cell"],
)
def test_batched_dispersion_equals_per_k_reference(comb):
    # on this grid k * k differs from float(k) ** 2 by one ulp on a few rows
    ks = np.linspace(0.02, 12.0, 3000)
    diagram = dispersion(comb, ks)
    columns = (diagram.k, diagram.energy, diagram.q, diagram.lambda_residual)
    want = per_k_dispersion_rows(comb, ks)
    assert_rows_match(np.transpose(columns), want, [0, 1], [2, 3], comb.period)


def _match_branches(points, active, period):
    """Assign new (q, residual, vec, upper) points to active branches by continuity.

    Minimizes total |dq| with a small eigenvector-overlap bonus so that
    branch crossings in q are resolved by the orthogonality of the two
    spin channels; of the assignments within 1e-9 * pi/a of the best, the
    first in ``itertools.product`` order wins.  Returns a list aligned
    with ``points`` of branch ids (None for a freshly opened branch).
    """
    if not points:
        return []
    if not active:
        return [None] * len(points)
    gate = 0.25 * math.pi / period
    scored = []
    for combo in itertools.product(range(-1, len(active)), repeat=len(points)):
        used = [c for c in combo if c >= 0]
        if len(used) != len(set(used)):
            continue
        dq = 0.0
        overlap = 0.0
        feasible = True
        for pt, c in zip(points, combo):
            if c < 0:
                dq += gate
                continue
            d = abs(pt[0] - active[c]["q"])
            if d > gate:
                feasible = False
                break
            dq += d
            overlap += abs(np.vdot(active[c]["vec"], pt[2]))
        if not feasible:
            continue
        scored.append((dq - 1e-3 * (math.pi / period) * overlap, combo))
    best = min(score for score, _ in scored)
    combo = next(combo for score, combo in scored if score <= best + 1e-9 * math.pi / period)
    return [active[c]["id"] if c >= 0 else None for c in combo]


def per_k_channel_eig(comb, k):
    """Roots (4,) and eigenvectors (4, 4) from an eig of each spin channel's 2x2 block.

    Where the two channels share a root, a 4x4 eig returns any basis of
    the shared eigenspace, and the stitching's overlap bonus would rest on
    that arbitrary choice; per channel, every eigenvector lies in one.
    """
    mixed = MIX @ matmul_cell_transfer(comb, k) @ MIX
    lam, vecs = [], []
    for channel in (slice(0, 2), slice(2, 4)):
        root, vec = np.linalg.eig(mixed[channel, channel])
        lifted = np.zeros((4, 2), dtype=complex)
        lifted[channel] = vec
        lam.append(root)
        vecs.append(MIX @ lifted)
    return np.concatenate(lam), np.concatenate(vecs, axis=1)


def per_k_diagram(comb, ks, bloch_tol=1e-8):
    """(k, E, q, branch_id, lambda_residual) rows, stitched one momentum at a time."""
    a = comb.period
    rows = []
    active = []
    next_id = 0
    for k in ks:
        lam, vecs = per_k_channel_eig(comb, float(k))
        q = [abs(float(np.angle(v))) / a for v in lam]
        residual = [abs(abs(v) - 1.0) for v in lam]
        merged = []
        for j in sorted((j for j in range(4) if residual[j] < bloch_tol), key=lambda j: q[j]):
            point = (q[j], residual[j], vecs[:, j], lam[j].imag >= 0)
            if merged and q[j] - merged[-1][0] < 1e-9 * max(1.0, math.pi / a):
                if point[3] and not merged[-1][3]:
                    merged[-1] = point
            else:
                merged.append(point)
        ids = _match_branches(merged, active, a)
        active = []
        for (qj, res, vec, _), bid in zip(merged, ids):
            if bid is None:
                bid = next_id
                next_id += 1
            rows.append((float(k), float(k) ** 2, qj, bid, res))
            active.append({"id": bid, "q": qj, "vec": vec})
    return np.reshape(rows, (-1, 5))


def assert_diagram_equals_per_k_stitching(comb, ks):
    """dispersion equals the per-k reference (rows as in :func:`assert_rows_match`)."""
    diagram = dispersion(comb, ks)
    columns = (diagram.k, diagram.energy, diagram.q, diagram.branch_id, diagram.lambda_residual)
    want = per_k_diagram(comb, ks)
    assert_rows_match(np.transpose(columns), want, [0, 1, 3], [2, 4], comb.period)
    assert diagram.branch_id.dtype == int
    return diagram


def four_point_cell():
    # flux and x1 with a spin flip: 3-4 propagating points at most momenta
    cell = (flux_defect(0.25), FreeSegment(0.3), x1_defect(0.6), rtilde_flip_defect(0.4))
    return PeriodicComb(Device(cell), 1.2)


def _points_per_k(diagram):
    return np.unique(diagram.k, return_counts=True)[1]


@pytest.mark.parametrize(
    "comb,ks,check",
    [
        (flip_comb(0.5), np.linspace(0.02, 12.0, 3000), lambda d: len(d.branches()) > 2),
        (
            PeriodicComb(Device((r_flip_defect(0.3), FreeSegment(0.4), x1_defect(0.7))), 1.3),
            np.linspace(0.02, 12.0, 3000),
            lambda d: len(d.branches()) > 2,
        ),
        (
            four_point_cell(),
            np.linspace(0.02, 12.0, 1000),
            lambda d: np.count_nonzero(_points_per_k(d) >= 3) > 500,
        ),
        (flip_comb(0.5), np.array([1.3]), lambda d: d.k.tolist() == [1.3, 1.3]),
        (PeriodicComb(Device((x1_defect(5.0),)), 1.0), np.linspace(3.3, 3.9, 50), lambda d: len(d) == 0),
        (
            flip_comb(0.5),
            np.sort(np.append(np.linspace(2.9, 3.4, 40), np.pi)),
            lambda d: np.pi in d.flagged_k,
        ),
    ],
    ids=["flip_comb", "mixed_cell", "four_points", "one_k", "gap", "k_pi"],
)
def test_batched_stitching_equals_per_k_stitching(comb, ks, check):
    assert check(assert_diagram_equals_per_k_stitching(comb, ks))


@pytest.mark.parametrize(
    "prev_q,cur_q,cur_channel,expected",
    [
        # two points equally far from one predecessor with equal overlaps:
        # the first assignment in itertools.product order, (-1, 0), wins
        ([1.0], [0.75, 1.25], [0, 0], [-1, 0]),
        # a jump of exactly the gate may still link
        ([0.0], [0.25 * math.pi], [0], [0]),
        # equally far, but only the first point shares the predecessor's channel:
        # the overlap bonus picks (0, -1) over the product order
        ([1.0], [0.75, 1.25], [0, 1], [0, -1]),
    ],
    ids=["tie", "gate", "channel"],
)
def test_link_points_breaks_ties_as_the_per_k_search(prev_q, cur_q, cur_channel, expected):
    vec = np.full(2, math.sqrt(0.5) + 0j)
    q = np.array(prev_q + cur_q)
    channel = np.array([0] * len(prev_q) + cur_channel)
    vecs = np.broadcast_to(vec, (len(q), 2))
    link = _link_points(q, vecs, channel, np.array([len(prev_q), len(cur_q)]), 1.0)
    # a point that opens a branch is its own predecessor; -1 here
    link = np.where(link == np.arange(len(q)), -1, link)
    assert link[: len(prev_q)].tolist() == [-1] * len(prev_q)
    assert link[len(prev_q) :].tolist() == expected

    def lifted(ch):  # a channel's 2-vector as the four spin components of the per-k search
        return np.concatenate([vec, vec * (1 - 2 * ch)]) / math.sqrt(2)

    active = [{"id": c, "q": qc, "vec": lifted(0)} for c, qc in enumerate(prev_q)]
    points = [(qc, 0.0, lifted(ch), True) for qc, ch in zip(cur_q, cur_channel)]
    reference = _match_branches(points, active, 1.0)
    assert [-1 if bid is None else bid for bid in reference] == expected


_cell_element = st.one_of(
    st.builds(x1_defect, st.floats(min_value=-3, max_value=3)),
    st.builds(x4_defect, st.floats(min_value=-2, max_value=2)),
    st.builds(mass_jump_defect, st.floats(min_value=0.4, max_value=2.5)),
    st.builds(flux_defect, st.floats(min_value=-2, max_value=2)),
    st.builds(r_flip_defect, st.floats(min_value=-2, max_value=2)),
    st.builds(rtilde_flip_defect, st.floats(min_value=-2, max_value=2)),
    st.builds(FreeSegment, st.floats(min_value=0.05, max_value=0.5)),
)


@given(st.lists(_cell_element, min_size=1, max_size=5), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
# once decided by round-off: two channels 1e-9 apart merge and part, a tie
# of two order-preserving links across channels, a link decided by the
# overlap of the kept root, and two channels that share every root
@example([r_flip_defect(1e-9)], 0.0)
@example([flux_defect(1e-6), r_flip_defect(0.5)], 0.6171875)
@example([FreeSegment(0.5)] + [FreeSegment(0.49609375)] * 2 + [r_flip_defect(0.08203125)] * 2, 1.0)
@example([flux_defect(1.875), r_flip_defect(1.872307594527448e-207)], 0.234375)
def test_batched_stitching_equals_per_k_stitching_on_random_cells(cell, fill):
    device = Device(tuple(cell))
    comb = PeriodicComb(device, device.total_length + fill + 0.2)
    assert_diagram_equals_per_k_stitching(comb, np.linspace(0.02, 12.0, 300))


def test_dispersion_reports_overflowing_cell_transfer():
    cell = Device((x1_defect(1e3), x4_defect(1e3)) * 60)
    with pytest.raises(InvalidTransferError, match=r"overflowed at k=0\.5;"):
        dispersion(PeriodicComb(cell, 1.0), np.linspace(0.5, 3.0, 5))


def test_dispersion_diagram_even_in_q_by_construction():
    diagram = dispersion(flip_comb(0.4), np.linspace(0.1, 5.0, 40))
    assert np.all(diagram.q >= 0)
    assert np.all(diagram.q <= np.pi / diagram.period + 1e-12)
    assert diagram.lambda_residual.max() < 1e-8  # the default bloch_tol


@pytest.mark.parametrize("bloch_tol", [math.nan, 0.0, -1.0])
def test_dispersion_bloch_tol_must_be_positive(bloch_tol):
    # such a tolerance would accept no root and return an empty diagram
    with pytest.raises(ParameterDomainError, match=rf"^bloch_tol must be > 0, got {bloch_tol}$"):
        dispersion(flip_comb(0.4), np.linspace(0.1, 5.0, 40), bloch_tol=bloch_tol)


@pytest.mark.parametrize("bloch_tol", ["1e-8", True, None])
def test_dispersion_bloch_tol_must_be_a_number(bloch_tol):
    message = rf"^bloch_tol must be a number, got {bloch_tol!r}$"
    with pytest.raises(ParameterDomainError, match=message):
        dispersion(flip_comb(0.4), np.linspace(0.1, 5.0, 40), bloch_tol=bloch_tol)


def test_band_edges_scalar_vs_eigencount():
    a, k_max = 1.0, 7.0
    for x4 in (-0.5, 0.5):
        comb = x4_comb(x4, a)
        scalar_edges = band_edges(comb, k_max)

        def propagating(k):
            lam = np.linalg.eigvals(scalar_cell_transfer(comb, k))
            return bool(np.all(np.abs(np.abs(lam) - 1.0) < 1e-6))

        step = 0.01
        ks = np.arange(step, k_max + step, step)
        eig_edges = []
        prev_k, prev_state = float(ks[0]), propagating(float(ks[0]))
        for k in ks[1:]:
            state = propagating(float(k))
            if state != prev_state:
                lo, hi = prev_k, float(k)
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if propagating(mid) == prev_state:
                        lo = mid
                    else:
                        hi = mid
                eig_edges.append(0.5 * (lo + hi))
            prev_k, prev_state = float(k), state
        eig_edges = np.array(eig_edges)
        assert len(eig_edges) == len(scalar_edges)
        assert np.abs(eig_edges - scalar_edges).max() < 1e-8


# edges from scipy.optimize.brentq(xtol=1e-13) on the same scan brackets
PINNED_EDGES = {
    (0.5, 1.0, 7.0): [3.141592653589793, 4.917428351999249, 6.283185307179586],
    (-0.5, 1.0, 7.0): [2.153747972623599, 3.141592653589789, 4.5778594562068085, 6.283185307179585],
    (3.0, 0.7, 20.0): [
        4.018239491302005,
        4.487989505128277,
        8.758932416774773,
        8.975979010256554,
        13.32109937082118,
        13.46396851538483,
        17.845270000111892,
        17.951958020513104,
    ],
}


@pytest.mark.parametrize("args", sorted(PINNED_EDGES))
def test_band_edges_pinned_and_on_the_band_boundary(args):
    x4, a, k_max = args
    edges = band_edges(x4_comb(x4, a), k_max)
    assert len(edges) == len(PINNED_EDGES[args])
    assert np.abs(edges - PINNED_EDGES[args]).max() <= 1e-13
    for k in edges:
        assert abs(abs(scalar_kp_relation(x4, a, float(k))) - 1.0) <= 1e-12


def test_band_edges_finds_only_gaps_wider_than_the_scan_step():
    # the gaps at ka = pi and 2 pi are ~0.003 and ~0.006 wide, below the default step of 0.01
    comb = x4_comb(1e-3)
    assert len(band_edges(comb, 7.0)) == 0
    assert band_edges(comb, 40.0)[0] == pytest.approx(3 * np.pi)
    edges = band_edges(comb, 7.0, scan_step=1e-5)
    expected = [3.14159, 3.14474, 6.28319, 6.28947]
    assert np.abs(edges - expected).max() <= 5e-6
    for k in edges:
        assert abs(abs(scalar_kp_relation(1e-3, 1.0, float(k))) - 1.0) <= 1e-12


# the a and x4 rules are the comb records' (test_scalar_route_takes_checked_comb_records);
# each remaining case keeps the id it had when band_edges took (x4, a, k_max)
@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        pytest.param(args, kwargs, message, id=f"args{i}-kwargs{i}-{message}")
        for i, args, kwargs, message in [
            (2, (0.0,), {}, r"k_max must be > 0, got 0\.0"),
            (3, (7.0,), {"scan_step": 0.0}, r"scan_step must be > 0, got 0\.0"),
            (4, (math.inf,), {}, r"k_max must be a finite number"),
            (7, (7.0,), {"scan_step": math.inf}, r"scan_step must be a finite number"),
            (8, (1e300,), {}, r"k_max \* a / scan_step must be <= "),
        ]
    ],
)
def test_band_edges_domain_errors(args, kwargs, message):
    with pytest.raises(ParameterDomainError, match=message):
        band_edges(x4_comb(0.5), *args, **kwargs)


@pytest.mark.parametrize(
    "args, message",
    [
        ((math.nan, 1.0, 1.0), r"^x4 must be a finite number"),
        ((0.5, math.inf, 1.0), r"^a must be a finite number"),
        ((0.5, 0.0, 1.0), r"^a must be > 0, got 0\.0$"),
        ((0.5, 1.0, math.inf), r"^momentum must be a finite number, got inf$"),
        ((0.5, 1e200, 1e200), r"^k \* a must be a finite number"),
    ],
)
def test_scalar_kp_relation_domain_errors(args, message):
    with pytest.raises(ParameterDomainError, match=message):
        scalar_kp_relation(*args)


def test_scalar_cell_transfer_momentum_errors():
    comb = PeriodicComb(Device((x4_defect(0.5),)), 1.0)
    with pytest.raises(ParameterDomainError, match=r"^momentum must be a finite number, got inf$"):
        scalar_cell_transfer(comb, math.inf)
    with pytest.raises(ParameterDomainError, match=r"^momentum must be > 0, got 0\.0$"):
        scalar_cell_transfer(comb, 0.0)


def test_scalar_route_takes_checked_comb_records():
    # the scalar route takes the PeriodicComb of dispersion, with its checks
    with pytest.raises(ParameterDomainError, match="period must be a finite number"):
        PeriodicComb(Device((x4_defect(1.0),)), math.inf)
    with pytest.raises(ParameterDomainError, match="period must be > 0"):
        PeriodicComb(Device(), 0.0)
    with pytest.raises(ParameterDomainError, match="'x4' of a x4 defect must be a finite number"):
        x4_defect(math.nan)
    overlong = r"internal free length 2\.0 exceeds period 1\.0"
    with pytest.raises(ParameterDomainError, match=overlong):
        PeriodicComb(Device((x4_defect(1.0), FreeSegment(2.0))), 1.0)
    comb = PeriodicComb(Device((x4_defect(1), FreeSegment(1))), 2)
    assert comb.period == 2.0 and comb.fill_length == 1.0


@pytest.mark.parametrize("cell", [[x4_defect(1.0)], (), None], ids=["list", "tuple", "none"])
def test_comb_cell_must_be_a_device(cell):
    with pytest.raises(ParameterDomainError, match="^cell must be a Device, got "):
        PeriodicComb(cell, 1.0)


def test_comb_length_slack_is_relative_to_the_period():
    # 1e7 periods of internal length; an absolute slack of 1e-12 would take them
    with pytest.raises(ParameterDomainError, match="exceeds period 1e-20"):
        PeriodicComb(Device((FreeSegment(1e-13),)), 1e-20)
    # ten segments of 0.1 sum to 0.9999999999999999, three to 0.30000000000000004
    tenths = Device((FreeSegment(0.1),) * 10)
    assert tenths.total_length == 0.9999999999999999
    assert PeriodicComb(tenths, 1.0).fill_length < 1e-15
    assert PeriodicComb(Device((FreeSegment(0.1),) * 3), 0.3).fill_length == 0.0


@pytest.mark.parametrize(
    "route",
    [
        lambda comb: scalar_dispersion(comb, [1.0]),
        lambda comb: scalar_cell_transfer(comb, 1.0),
        lambda comb: band_edges(comb, 1.0),
    ],
)
@pytest.mark.parametrize("defect", [x1_defect(1.0), r_flip_defect(0.5)])
def test_scalar_route_rejects_other_defect_kinds(route, defect):
    comb = PeriodicComb(Device((x4_defect(0.5), FreeSegment(0.2), defect)), 1.0)
    message = f"only x4 defects and free segments, got {defect.kind.value}$"
    with pytest.raises(ParameterDomainError, match=message):
        route(comb)


def test_dispersion_of_a_decoupled_comb_equals_scalar_dispersion():
    cell = Device((r_flip_defect(0.6), FreeSegment(0.3), r_flip_defect(-0.4), FreeSegment(0.5)))
    ks = np.linspace(0.05, 12.0, 400)
    for scalar in spin_decouple(PeriodicComb(cell, 1.3)):
        # away from band edges, where arccos amplifies round-off in the trace
        transfer = scalar_cell_transfer(scalar, ks)
        half_trace = (transfer[:, 0, 0] + transfer[:, 1, 1]) / 2
        grid = ks[np.abs(np.abs(half_trace) - 1.0) > 1e-6]
        diagram = dispersion(scalar, grid)
        k, q, energy = scalar_dispersion(scalar, grid)
        assert 0 < len(k) < len(grid)
        assert np.array_equal(diagram.k, k) and np.array_equal(diagram.energy, energy)
        assert np.abs(diagram.q - q).max() <= 1e-12


def test_scalar_cell_transfer_of_an_array_stacks_scalar_calls():
    comb = spin_decouple(PeriodicComb(Device((r_flip_defect(0.7), FreeSegment(0.4))), 1.1))[1]
    ks = np.linspace(0.01, 20.0, 300)
    per_k = np.stack([scalar_cell_transfer(comb, float(k)) for k in ks])
    assert np.array_equal(scalar_cell_transfer(comb, ks), per_k)


def test_scalar_route_overflow_raises_invalid_transfer_error():
    # k * 7.7 exceeds the float range at k = 1e308 only; a warning would fail the test
    for scalar in spin_decouple(flip_comb(0.5, 7.7)):
        with pytest.raises(InvalidTransferError, match=r"overflowed at k=1e\+308;"):
            scalar_cell_transfer(scalar, 1e308)
    # a k grid takes no momentum whose k^2 overflows, so this comb's period is 1e300 times
    # longer and k * a exceeds the float range at k = 1e8 only
    for scalar in spin_decouple(flip_comb(0.5, 7.7e300)):
        with pytest.raises(InvalidTransferError, match=r"overflowed at k=100000000\.0;"):
            scalar_dispersion(scalar, [1.0, 1e7, 1e8])


def bisect(g, lo, hi, g_lo, xtol=1e-13):
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


def scan_band_edges(comb, k_max, scan_step=0.01):
    """band_edges one point at a time: a transfer per scan point, a bisection per bracket."""

    def g(k):
        t = scalar_cell_transfer(comb, k)
        return abs(_half_sum(t[0, 0], t[1, 1])) - 1.0

    step = scan_step / comb.period
    ks = np.arange(step, k_max + step, step)
    edges, prev_k, prev_g = [], float(ks[0]), g(float(ks[0]))
    for k in map(float, ks[1:]):
        cur_g = g(k)
        if prev_g == 0.0:
            edges.append(prev_k)
        elif prev_g * cur_g < 0:
            edges.append(bisect(g, prev_k, k, prev_g))
        prev_k, prev_g = k, cur_g
    return np.array(edges)


@pytest.mark.parametrize(
    "args, scan_step",
    [(args, 0.01) for args in sorted(PINNED_EDGES)]
    # gaps of width ~ x4 * k: below k ~ 10 the scan steps over those of x4 = 1e-3
    + [(args, 0.01) for args in ((1e-3, 1.0, 40.0), (40.0, 1.0, 7.0), (-2.0, 1.0, 7.0))]
    # the scan lands on ka = pi, where |cos| - 1 is exactly 0 with no sign change
    + [((0.0, 1.0, 7.0), math.pi / 100)],
)
def test_band_edges_equals_the_per_point_scan(args, scan_step):
    x4, a, k_max = args
    comb = x4_comb(x4, a)
    edges = band_edges(comb, k_max, scan_step=scan_step)
    assert np.array_equal(edges, scan_band_edges(comb, k_max, scan_step))


def test_band_edges_of_a_decoupled_two_defect_comb():
    cell = Device((r_flip_defect(0.6), FreeSegment(0.3), r_flip_defect(-0.4), FreeSegment(0.5)))
    ks = np.linspace(0.005, 12.0, 6000)

    def half_trace(scalar, k):
        return np.trace(scalar_cell_transfer(scalar, k), axis1=-2, axis2=-1) / 2

    for scalar in spin_decouple(PeriodicComb(cell, 1.3)):
        edges = band_edges(scalar, 12.0)
        assert len(edges) >= 6
        assert np.abs(np.abs(half_trace(scalar, edges)) - 1.0).max() <= 1e-12
        # the edges cut (0, 12] into intervals that alternate between band and gap
        bounds = np.concatenate([[0.0], edges, [12.0]])
        band = np.abs(half_trace(scalar, 0.5 * (bounds[:-1] + bounds[1:]))) <= 1.0
        assert np.all(band[1:] != band[:-1])
        k, _, _ = scalar_dispersion(scalar, ks)
        assert 0 < len(k) < len(ks)
        assert np.all(band[np.searchsorted(bounds, k) - 1])
        # and every grid point of a band, clear of its edges, propagates
        clear = np.abs(ks[:, None] - edges).min(axis=1) > 1e-9
        assert np.array_equal(np.isin(ks, k)[clear], band[np.searchsorted(bounds, ks) - 1][clear])


def test_scalar_kp_relation_of_an_array_equals_scalar_calls():
    ks = np.geomspace(1e-3, 1e3, 2000)
    for x4, a in ((0.5, 1.0), (-2.0, 0.7), (40.0, 1.3)):
        per_k = [scalar_kp_relation(x4, a, float(k)) for k in ks]
        assert all(type(value) is float for value in per_k)
        assert np.array_equal(scalar_kp_relation(x4, a, ks), per_k)


def test_effective_mass_free_branch():
    diagram = dispersion(PeriodicComb(Device(), 1.0), np.linspace(0.01, 0.3, 40))
    (branch,) = diagram.branches()
    fit = effective_mass(branch, q_window=(0.0, 0.3))
    assert fit.coefficient == pytest.approx(1.0, rel=1e-10)
    assert fit.mass == pytest.approx(0.5, rel=1e-10)
    assert fit.residual < 1e-10


def test_fit_window_error_on_sparse_branch():
    diagram = dispersion(flip_comb(0.5), np.linspace(0.05, 0.2, 5))
    branch = diagram.branches()[0]
    with pytest.raises(FitWindowError):
        effective_mass(branch, q_window=(0.0, 0.2))


def test_sound_slope_massless_comb():
    diagram = dispersion(flip_comb(1.0), np.linspace(0.01, 0.58, 160))
    best = max(
        (b for b in diagram.branches() if len(b.q) >= 10),
        key=lambda b: float(np.mean(b.energy / b.q)),
    )
    fit = sound_slope(best, q_window=(0.0, 0.1))
    assert fit.slope == pytest.approx(2 * math.sqrt(3), rel=5e-3)


def test_fits_need_a_point_per_parameter():
    q = np.array([0.05])
    one_point = Branch(0, q, q, 2.0 * q)
    with pytest.raises(FitWindowError, match="has 1 points .* need at least 2$"):
        sound_slope(one_point, min_points=1)
    empty = Branch(0, q, q, q)
    with pytest.raises(FitWindowError, match="has 0 points .* need at least 1$"):
        effective_mass(empty, q_window=(0.1, 0.2), min_points=0)
    assert effective_mass(one_point, min_points=0).n_points == 1
