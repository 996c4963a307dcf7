"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ``ACCEPTANCE n: PASS`` line (visible with
``pytest -s``) after its assertions, so the suite doubles as a checklist.
"""

import json
import math
import time

import numpy as np
import pytest

from spinpoint import (
    Device,
    FreeSegment,
    PeriodicComb,
    channel_probabilities,
    closed_form_flip_smatrix,
    closed_form_to_grouped,
    compose,
    conserves_currents,
    defect_matrix,
    dispersion,
    effective_mass,
    flux_defect,
    mass_jump_defect,
    product_defect,
    r_flip_defect,
    rtilde_flip_defect,
    scalar_kp_relation,
    sound_slope,
    spectrum,
    spin_decouple,
    scalar_dispersion,
    transfer_to_scattering,
    x1_defect,
    x4_defect,
)
from spinpoint.cli import parse_config, run


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS — {detail}")


def test_criterion_1_closed_form_reproduction():
    """transfer route matches the closed form to 1e-10; kr=2 gives 1/4 outcomes."""
    start = time.perf_counter()
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0):
        for k in (0.1, 1.0, 2.0 / r, 10.0):
            s = transfer_to_scattering(defect_matrix(r_flip_defect(r)), k)
            expected = closed_form_to_grouped(closed_form_flip_smatrix(k, r))
            assert np.abs(np.abs(s.matrix) - np.abs(expected)).max() < 1e-10
            assert np.abs(s.matrix - expected).max() < 1e-10
            worst = max(worst, float(np.abs(s.matrix - expected).max()))
    for r in (0.1, 0.5, 1.0, 2.0):
        s = transfer_to_scattering(defect_matrix(r_flip_defect(r)), 2.0 / r)
        for incident in range(4):
            assert np.abs(channel_probabilities(s, incident) - 0.25).max() < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"max closed-form deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_current_conservation_suite():
    """generators and 100 random products conserve all currents to 1e-12;
    two-block x1/x4 lifts fail the transverse conditions with 2|p| residual."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    specs = [
        r_flip_defect(rng.uniform(-1, 1)),
        rtilde_flip_defect(rng.uniform(-1, 1)),
        mass_jump_defect(rng.uniform(0.5, 2.0)),
        flux_defect(rng.uniform(0, 2)),
    ]
    for spec in specs:
        report = conserves_currents(defect_matrix(spec), tol=1e-12)
        assert report.all_conserved, spec

    def random_factor():
        kind = rng.integers(0, 4)
        if kind == 0:
            return r_flip_defect(rng.uniform(-1, 1))
        if kind == 1:
            return rtilde_flip_defect(rng.uniform(-1, 1))
        if kind == 2:
            return mass_jump_defect(rng.uniform(0.5, 2.0))
        return flux_defect(rng.uniform(0, 2))

    worst = 0.0
    for _ in range(100):
        factors = [random_factor() for _ in range(rng.integers(1, 5))]
        report = conserves_currents(defect_matrix(product_defect(factors)), tol=1e-12)
        assert report.all_conserved
        worst = max(worst, max(report.residuals))

    for strength in (1.0, 0.7, -0.3):
        for build in (x1_defect, x4_defect):
            report = conserves_currents(defect_matrix(build(strength)), tol=1e-12)
            assert (report.x, report.y, report.z) == (True, False, False)
            assert report.residuals[1] >= 2 * abs(strength) - 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"worst product residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_group_law_and_flux_decoupling():
    """flip-defect composition adds strengths exactly; flux factors out as a phase."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        r1, r2 = rng.uniform(-5, 5, size=2)
        product = defect_matrix(r_flip_defect(r1)) @ defect_matrix(r_flip_defect(r2))
        assert np.array_equal(product, defect_matrix(r_flip_defect(r1 + r2)))
    worst = 0.0
    for _ in range(20):
        r, phi = rng.uniform(-3, 3), rng.uniform(0, 2)
        lhs = compose([defect_matrix(r_flip_defect(r)), defect_matrix(flux_defect(phi))])
        rhs = np.exp(1j * np.pi * phi) * defect_matrix(r_flip_defect(r))
        deviation = float(np.abs(lhs - rhs).max())
        assert deviation < 1e-14
        worst = max(worst, deviation)
    _report(3, f"group law exact on 50 pairs, flux decoupling residual {worst:.2e}")


def _random_device(rng) -> Device:
    n_elements = int(rng.integers(1, 7))
    elements = []
    defects = 0
    for _ in range(n_elements):
        if defects < 3 and rng.random() < 0.5:
            defects += 1
            kind = int(rng.integers(0, 6))
            coupling = float(rng.uniform(-0.5, 0.5))
            if kind == 0:
                elements.append(r_flip_defect(coupling))
            elif kind == 1:
                elements.append(rtilde_flip_defect(coupling))
            elif kind == 2:
                elements.append(x1_defect(coupling))
            elif kind == 3:
                elements.append(x4_defect(coupling))
            elif kind == 4:
                elements.append(mass_jump_defect(float(rng.uniform(0.6, 1.5))))
            else:
                elements.append(flux_defect(float(rng.uniform(0, 2))))
        else:
            elements.append(FreeSegment(float(rng.uniform(0.2, 1.5))))
    return Device(tuple(elements))


def test_criterion_4_unitarity_sweep():
    """20 random devices x 500 momenta: unitary S and unit probability rows."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240811)
    ks = np.geomspace(0.05, 15.0, 500)
    worst_unitarity = 0.0
    worst_sum = 0.0
    for _ in range(20):
        device = _random_device(rng)
        table = spectrum(device, ks)
        assert not table.singular.any()
        worst_unitarity = max(worst_unitarity, float(table.unitarity_residual.max()))
        sums = channel_probabilities(table.smatrix, "left_up").sum(axis=1)
        worst_sum = max(worst_sum, float(np.abs(sums - 1.0).max()))
    assert worst_unitarity < 1e-10
    assert worst_sum < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        4,
        f"max ||S+S - I|| {worst_unitarity:.2e}, max |sum p - 1| {worst_sum:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_band_structure_quantitative():
    """curvature ratio (1+r)/(1-r) within 1%; massless slope 2*sqrt(3) within 0.5%."""
    start = time.perf_counter()
    details = []
    for r in (0.25, 0.5):
        comb = PeriodicComb(Device((r_flip_defect(r),)), 1.0)
        diagram = dispersion(comb, np.linspace(0.01, 0.28, 140))
        coeffs = sorted(
            effective_mass(b, q_window=(0.0, 0.2)).coefficient for b in diagram.branches()
        )
        assert len(coeffs) == 2
        ratio = coeffs[1] / coeffs[0]
        target = (1 + r) / (1 - r)
        assert ratio == pytest.approx(target, rel=0.01)
        details.append(f"r={r}: ratio {ratio:.4f} vs {target:.4f}")

    comb = PeriodicComb(Device((r_flip_defect(1.0),)), 1.0)
    diagram = dispersion(comb, np.linspace(0.01, 0.585, 200))
    candidates = []
    for branch in diagram.branches():
        in_window = (branch.q > 0) & (branch.q <= 0.1)
        if in_window.sum() >= 10:
            candidates.append((float(np.mean(branch.energy[in_window] / branch.q[in_window])), branch))
    # the massless channel is the steep one; the coexisting branch is parabolic
    slope_branch = max(candidates, key=lambda t: t[0])[1]
    fit = sound_slope(slope_branch, q_window=(0.0, 0.1))
    target = 2 * math.sqrt(3)
    assert fit.slope == pytest.approx(target, rel=0.005)
    details.append(f"r=1: slope {fit.slope:.5f} vs {target:.5f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_decoupling_equivalence():
    """4x4 eigenvalue dispersion equals the union of the scalar channels, 200 points."""
    r = 0.5
    comb = PeriodicComb(Device((r_flip_defect(r),)), 1.0)
    ks = np.linspace(0.1, 11.9, 200)
    # grid must stay clear of band edges for a sharp pointwise comparison
    for x4 in (-r, r):
        candidates = np.array([scalar_kp_relation(x4, 1.0, k) for k in ks])
        assert np.abs(np.abs(candidates) - 1.0).min() > 1e-3
    diagram = dispersion(comb, ks)
    minus, plus = spin_decouple(comb)
    worst = 0.0
    for k in ks:
        eig_qs = np.sort(diagram.q[np.isclose(diagram.k, k)])
        scalar_qs = np.sort(
            np.concatenate([scalar_dispersion(sc, [k])[1] for sc in (minus, plus)])
        )
        assert len(eig_qs) == len(scalar_qs)
        if len(eig_qs):
            worst = max(worst, float(np.abs(eig_qs - scalar_qs).max()))
    assert worst < 1e-10
    _report(6, f"200 momenta, worst |q_eig - q_scalar| {worst:.2e}")


def test_criterion_7_spin_flip_maximum():
    """grid search: total spin flip of one defect peaks at 1/2 when kr = 2."""
    r = 1.0
    kr_grid = np.arange(0.5, 4.0, 5e-4)
    flips = np.empty_like(kr_grid)
    for i, k in enumerate(kr_grid):
        p = channel_probabilities(transfer_to_scattering(defect_matrix(r_flip_defect(r)), k), 0)
        flips[i] = p[1] + p[3]
    best = int(np.argmax(flips))
    assert abs(flips[best] - 0.5) < 1e-6
    assert abs(kr_grid[best] * r - 2.0) < 1e-3
    _report(7, f"max flip {flips[best]:.8f} at kr = {kr_grid[best]:.4f}")


def test_criterion_8_effectiveness_ordering():
    """derivative-coupling flip beats value-coupling flip on k in [2, 10] at coupling 0.5."""
    coupling = 0.5
    ks = np.linspace(2.0, 10.0, 100)
    margin = np.inf
    for k in ks:
        p_r, p_rt = (
            channel_probabilities(transfer_to_scattering(defect_matrix(spec(coupling)), k), 0)
            for spec in (r_flip_defect, rtilde_flip_defect)
        )
        flip_r = p_r[1] + p_r[3]
        flip_rt = p_rt[1] + p_rt[3]
        assert flip_r > flip_rt
        margin = min(margin, flip_r - flip_rt)
    _report(8, f"100 grid points, min margin {margin:.3e}")


def test_criterion_9_cli_determinism(tmp_path):
    """repeated runs of every command on fixed configs are byte-identical."""
    configs = {
        "check": {"schema_version": 1, "command": "check", "defect": {"kind": "r_x4", "r": 0.5}},
        "scatter": {
            "schema_version": 1,
            "command": "scatter",
            "defect": {"kind": "r_x4", "r": 0.5},
            "sweep": {"k_min": 0.1, "k_max": 10.0, "points": 50},
        },
        "device": {
            "schema_version": 1,
            "command": "device",
            "device": {
                "elements": [
                    {"kind": "r_x4", "r": 0.1},
                    {"free": 1.0},
                    {"kind": "r_x4", "r": 0.1},
                ]
            },
            "sweep": {"k_min": 0.1, "k_max": 10.0, "points": 100},
        },
        "bands": {
            "schema_version": 1,
            "command": "bands",
            "comb": {"period": 1.0, "cell": [{"kind": "r_x4", "r": 0.5}]},
            "sweep": {"k_min": 0.1, "k_max": 6.0, "points": 80, "spacing": "linear"},
        },
    }
    for name, doc in configs.items():
        config = parse_config(json.dumps(doc))
        first = tmp_path / f"{name}_a.out"
        second = tmp_path / f"{name}_b.out"
        assert run(config, out=first) == 0
        assert run(config, out=second) == 0
        assert first.read_bytes() == second.read_bytes()
    _report(9, "all four commands byte-identical across repeated runs")
