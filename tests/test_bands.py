"""Band structure: cell transfer, dispersion, spin decoupling, scalar oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpoint import (
    Device,
    FitWindowError,
    FreeSegment,
    InvalidTransferError,
    ParameterDomainError,
    PeriodicComb,
    ScalarComb,
    ScalarDefect,
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
    x1_defect,
    x4_defect,
)
from spinpoint.bands import _link_points

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
    comb = flip_comb(0.6)
    k = 2.3
    expected = propagation(k, 1.0) @ defect_matrix(r_flip_defect(0.6))
    assert np.abs(cell_transfer(comb, k) - expected).max() == 0.0


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
    comb = ScalarComb((ScalarDefect(x4),), a)
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


def test_spin_decouple_strengths():
    minus, plus = spin_decouple(flip_comb(0.5))
    assert minus.elements[0].x4 == -0.5
    assert plus.elements[0].x4 == +0.5
    assert minus.period == plus.period == 1.0


def test_spin_decouple_zero_coupling_gives_free_combs():
    minus, plus = spin_decouple(flip_comb(0.0))
    assert all(el.x4 == 0.0 for el in minus.elements)
    assert all(el.x4 == 0.0 for el in plus.elements)


def test_spin_decouple_keeps_geometry():
    cell = Device((r_flip_defect(0.3), FreeSegment(0.4), r_flip_defect(-0.2)))
    minus, plus = spin_decouple(PeriodicComb(cell, 2.0))
    assert isinstance(minus.elements[1], FreeSegment)
    assert minus.elements[1].length == 0.4
    assert plus.elements[2].x4 == -0.2


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


def per_k_dispersion_rows(comb, ks, bloch_tol=1e-8):
    """(k, E, q, lambda_residual) rows from one eig per momentum and Python abs."""
    a = comb.period
    rows = []
    for k in ks:
        lam = np.linalg.eig(cell_transfer(comb, float(k)))[0]
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
    return rows


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
    assert list(zip(*(c.tolist() for c in columns))) == per_k_dispersion_rows(comb, ks)


def _match_branches(points, active, period):
    """Assign new (q, residual, vec, column) points to active branches by continuity.

    Minimizes total |dq| with a small eigenvector-overlap bonus so that
    branch crossings in q are resolved by the orthogonality of the two
    spin channels.  Returns a list aligned with ``points`` of branch ids
    (None for a freshly opened branch).
    """
    if not points:
        return []
    if not active:
        return [None] * len(points)
    gate = 0.25 * math.pi / period
    best_combo = None
    best_score = None
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
        score = dq - 1e-3 * (math.pi / period) * overlap
        if best_score is None or score < best_score:
            best_score = score
            best_combo = combo
    if best_combo is None:
        return [None] * len(points)
    return [active[c]["id"] if c >= 0 else None for c in best_combo]


def per_k_diagram(comb, ks, bloch_tol=1e-8):
    """(k, E, q, branch_id, lambda_residual) rows and flagged_k, stitched one momentum at a time."""
    a = comb.period
    rows, flagged = [], []
    active = []
    next_id = 0
    for k in ks:
        lam, vecs = np.linalg.eig(cell_transfer(comb, float(k)))
        cond = np.linalg.cond(vecs)
        if not np.isfinite(cond) or cond > 1e8:
            flagged.append(float(k))
        q = [abs(float(np.angle(v))) / a for v in lam]
        residual = [abs(abs(v) - 1.0) for v in lam]
        merged = []
        for j in sorted((j for j in range(4) if residual[j] < bloch_tol), key=lambda j: q[j]):
            point = (q[j], residual[j], vecs[:, j], j)
            if merged and q[j] - merged[-1][0] < 1e-9 * max(1.0, math.pi / a):
                if residual[j] < merged[-1][1]:
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
    return rows, tuple(flagged)


def assert_diagram_equals_per_k_stitching(comb, ks):
    diagram = dispersion(comb, ks)
    rows, flagged = per_k_diagram(comb, ks)
    columns = (diagram.k, diagram.energy, diagram.q, diagram.branch_id, diagram.lambda_residual)
    assert list(zip(*(c.tolist() for c in columns))) == rows
    assert diagram.branch_id.dtype == int
    assert diagram.flagged_k == flagged
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
    "prev_q,cur_q,expected",
    [
        # two points equally far from one predecessor with equal overlaps:
        # the first assignment in itertools.product order, (-1, 0), wins
        ([1.0], [0.75, 1.25], [-1, 0]),
        # a jump of exactly the gate may still link
        ([0.0], [0.25 * math.pi], [0]),
    ],
    ids=["tie", "gate"],
)
def test_link_points_breaks_ties_as_the_per_k_search(prev_q, cur_q, expected):
    vec = np.full(4, 0.5 + 0j)
    q = np.zeros((2, 4))
    q[0, : len(prev_q)] = prev_q
    q[1, : len(cur_q)] = cur_q
    vecs = np.broadcast_to(vec[:, None], (2, 4, 4))
    slot = np.tile(np.arange(4), (2, 1))
    link = _link_points(q, vecs, slot, np.array([len(prev_q), len(cur_q)]), 1.0)
    assert link[0].tolist() == [-1] * 4
    assert link[1, : len(cur_q)].tolist() == expected
    active = [{"id": c, "q": qc, "vec": vec} for c, qc in enumerate(prev_q)]
    points = [(qc, 0.0, vec, j) for j, qc in enumerate(cur_q)]
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
    assert diagram.lambda_residual.max() < diagram.metadata["bloch_tol"]


def test_band_edges_scalar_vs_eigencount():
    a, k_max = 1.0, 7.0
    for x4 in (-0.5, 0.5):
        scalar_edges = band_edges(x4, a, k_max)
        comb = ScalarComb((ScalarDefect(x4),), a)

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
    x4, a, _ = args
    edges = band_edges(*args)
    assert len(edges) == len(PINNED_EDGES[args])
    assert np.abs(edges - PINNED_EDGES[args]).max() <= 1e-13
    for k in edges:
        assert abs(abs(scalar_kp_relation(x4, a, float(k))) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0.5, 0.0, 7.0), {}, r"a must be > 0, got 0\.0"),
        ((0.5, -1.0, 7.0), {}, r"a must be > 0, got -1\.0"),
        ((0.5, 1.0, 0.0), {}, r"k_max must be > 0, got 0\.0"),
        ((0.5, 1.0, 7.0), {"scan_step": 0.0}, r"scan_step must be > 0, got 0\.0"),
        ((0.5, 1.0, math.inf), {}, r"k_max must be a finite number"),
        ((math.nan, 1.0, 7.0), {}, r"x4 must be a finite number"),
        ((0.5, math.nan, 7.0), {}, r"a must be a finite number"),
        ((0.5, 1.0, 7.0), {"scan_step": math.inf}, r"scan_step must be a finite number"),
        ((0.5, 1.0, 1e300), {}, r"k_max \* a / scan_step must be <= "),
    ],
)
def test_band_edges_domain_errors(args, kwargs, message):
    with pytest.raises(ParameterDomainError, match=message):
        band_edges(*args, **kwargs)


@pytest.mark.parametrize(
    "args, message",
    [
        ((math.nan, 1.0, 1.0), r"^x4 must be a finite number"),
        ((0.5, math.inf, 1.0), r"^a must be a finite number"),
        ((0.5, 0.0, 1.0), r"^a must be > 0, got 0\.0$"),
        ((0.5, 1.0, math.inf), r"^momentum must be a finite number"),
        ((0.5, 1e200, 1e200), r"^k \* a must be a finite number"),
    ],
)
def test_scalar_kp_relation_domain_errors(args, message):
    with pytest.raises(ParameterDomainError, match=message):
        scalar_kp_relation(*args)


def test_scalar_comb_rejects_non_finite_numbers():
    with pytest.raises(ParameterDomainError, match="period must be a finite number"):
        ScalarComb((), math.inf)
    with pytest.raises(ParameterDomainError, match="x4 must be a finite number"):
        ScalarDefect(math.nan)
    with pytest.raises(ParameterDomainError, match="period must be > 0"):
        ScalarComb((), 0.0)
    comb = ScalarComb([ScalarDefect(1)], 2)
    assert comb.period == 2.0 and comb.elements[0].x4 == 1.0


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
