"""Devices: transfer composition, spectra, presets, and the matching oracle."""

import math

import numpy as np
import pytest

from spinpoint import (
    ConfigError,
    Device,
    DefectKind,
    DefectSpec,
    FreeSegment,
    InvalidTransferError,
    ParameterDomainError,
    PeriodicComb,
    ScatteringMatrix,
    default_k_grid,
    defect_matrix,
    dispersion,
    flux_defect,
    mass_jump_defect,
    preset_filter,
    preset_resonator,
    propagation,
    r_flip_defect,
    rtilde_flip_defect,
    scattering_stack,
    spectrum,
    total_transfer,
    transfer_to_scattering,
    x1_defect,
    x4_defect,
)
import spinpoint.device as device_mod

from matching_oracle import smatrix_by_matching

SWAP_LR = np.zeros((4, 4))
SWAP_LR[:2, 2:] = np.eye(2)
SWAP_LR[2:, :2] = np.eye(2)


def test_free_segment_requires_positive_length():
    with pytest.raises(ParameterDomainError):
        FreeSegment(0.0)
    with pytest.raises(ParameterDomainError):
        FreeSegment(-1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FreeSegment(math.inf),
        lambda: FreeSegment(math.nan),
        lambda: FreeSegment("1.0"),
        lambda: x1_defect(math.nan),
        lambda: mass_jump_defect(math.inf),
        lambda: DefectSpec(DefectKind.R_FLIP, 10**400),
        lambda: DefectSpec(DefectKind.FLUX, True),
        lambda: DefectSpec(DefectKind.X4, "0.5"),
        lambda: x1_defect("0.5"),
        lambda: r_flip_defect(True),
        lambda: x1_defect("abc"),
        lambda: PeriodicComb(Device(()), period=math.inf),
        lambda: PeriodicComb(Device(()), period=math.nan),
    ],
    ids=[
        "free_inf",
        "free_nan",
        "free_str",
        "x1_nan",
        "mu_inf",
        "r_beyond_float",
        "phi_bool",
        "x4_str",
        "x1_str_helper",
        "r_bool_helper",
        "x1_junk_helper",
        "period_inf",
        "period_nan",
    ],
)
def test_records_reject_non_finite_parameters(build):
    with pytest.raises(ParameterDomainError, match=r" must be a (finite )?number"):
        build()


def test_empty_device_identity_transfer():
    assert np.array_equal(total_transfer(Device(), 2.0), np.eye(4))
    ks = np.geomspace(0.1, 10.0, 7)
    assert np.array_equal(total_transfer(Device(), ks), np.broadcast_to(np.eye(4), (7, 4, 4)))


def test_single_defect_transfer():
    spec = r_flip_defect(0.8)
    assert np.array_equal(total_transfer(Device((spec,)), 1.1), defect_matrix(spec))
    # the first element's matrix itself, with no product by the identity
    ks = np.geomspace(0.1, 10.0, 7)
    single = total_transfer(Device((spec,)), ks)
    assert np.array_equal(single, np.broadcast_to(defect_matrix(spec), (7, 4, 4)))
    assert np.array_equal(total_transfer(Device((FreeSegment(1.3),)), ks), propagation(ks, 1.3))


def test_three_element_transfer_is_ordered_product():
    r, length, k = 0.6, 1.3, 2.4
    dev = Device((r_flip_defect(r), FreeSegment(length), r_flip_defect(-r)))
    expected = (
        defect_matrix(r_flip_defect(-r))
        @ propagation(k, length)
        @ defect_matrix(r_flip_defect(r))
    )
    # association order differs, so allow matmul round-off
    assert np.abs(total_transfer(dev, k) - expected).max() < 1e-15


def test_concatenation_associativity():
    rng = np.random.default_rng(3)
    left = Device((x1_defect(0.4), FreeSegment(0.9)))
    right = Device((r_flip_defect(0.5), FreeSegment(0.6), x4_defect(-0.3)))
    joined = Device(left.elements + right.elements)
    for _ in range(5):
        k = rng.uniform(0.2, 10.0)
        expected = total_transfer(right, k) @ total_transfer(left, k)
        assert np.abs(total_transfer(joined, k) - expected).max() < 1e-11


def random_device(rng, n):
    elements = []
    for _ in range(n):
        if rng.random() < 0.4:
            elements.append(FreeSegment(rng.uniform(0.05, 2.0)))
        elif rng.random() < 0.2:
            elements.append(mass_jump_defect(rng.uniform(0.5, 2.0)))
        else:
            make = (r_flip_defect, rtilde_flip_defect, x1_defect, x4_defect)[rng.integers(4)]
            elements.append(make(rng.normal()))
    return Device(elements)


@pytest.mark.parametrize("n", [0, 1, 3, 12, 40])
def test_batched_total_transfer_equals_scalar_calls(n):
    dev = random_device(np.random.default_rng(n), n)
    ks = np.geomspace(0.01, 30.0, 300)
    per_k = np.stack([total_transfer(dev, float(k)) for k in ks])
    assert np.array_equal(total_transfer(dev, ks), per_k)


def test_transfer_route_matches_matching_oracle():
    devices = [
        preset_resonator(r_flip_defect(0.1), 1.0),
        Device((rtilde_flip_defect(0.7),)),
        Device((x1_defect(0.9), FreeSegment(0.5), r_flip_defect(0.4))),
        preset_filter(),
        Device(
            (
                mass_jump_defect(1.7),
                FreeSegment(0.6),
                flux_defect(0.3),
                FreeSegment(1.1),
                x4_defect(-0.8),
            )
        ),
    ]
    for dev in devices:
        for k in (0.01, 0.8, 2.3, 7.7, 20.0, 50.0):
            s_transfer = transfer_to_scattering(total_transfer(dev, k), k).matrix
            s_oracle = smatrix_by_matching(dev, k)
            assert np.abs(s_transfer - s_oracle).max() < 1e-10


def test_resonator_flip_reflection_grows_with_energy_and_oscillates():
    dev = preset_resonator(r_flip_defect(0.1), 1.0)
    ks = np.linspace(0.3, 10.0, 400)
    table = spectrum(dev, ks, incident="left_up")
    flip_reflected = table.probabilities[:, 1]
    low = flip_reflected[ks <= 0.7].max()
    high = flip_reflected[(ks >= 4.0) & (ks <= 6.0)].max()
    assert high > low
    interior = flip_reflected[1:-1]
    maxima = np.sum((interior > flip_reflected[:-2]) & (interior > flip_reflected[2:]))
    assert maxima >= 2


def test_reversal_swaps_left_right_channels():
    # holds for the parity-symmetric kinds (value/derivative couplings);
    # the mass-jump and flux kinds mirror onto different defects.
    devices = [
        Device(
            (
                r_flip_defect(0.4),
                FreeSegment(0.7),
                x1_defect(-0.8),
                FreeSegment(1.2),
                rtilde_flip_defect(0.3),
            )
        ),
        Device((x4_defect(0.9), FreeSegment(0.4), r_flip_defect(-0.5))),
    ]
    for dev in devices:
        for k in (0.5, 1.7, 6.2):
            s = transfer_to_scattering(total_transfer(dev, k), k).matrix
            s_rev = transfer_to_scattering(total_transfer(dev.reversed(), k), k).matrix
            assert np.abs(s_rev - SWAP_LR @ s @ SWAP_LR).max() < 1e-10


def test_unitarity_across_wide_momentum_range():
    rng = np.random.default_rng(5)
    ks = np.geomspace(0.01, 50.0, 120)
    for _ in range(6):
        dev = Device(
            (
                r_flip_defect(rng.uniform(-0.5, 0.5)),
                FreeSegment(rng.uniform(0.2, 1.5)),
                rtilde_flip_defect(rng.uniform(-0.5, 0.5)),
                FreeSegment(rng.uniform(0.2, 1.5)),
                x1_defect(rng.uniform(-0.5, 0.5)),
            )
        )
        for k in ks[::3]:
            s = transfer_to_scattering(total_transfer(dev, k), k)
            assert s.unitarity_residual() < 1e-10


def test_spectrum_free_line_full_transmission():
    table = spectrum(Device((FreeSegment(2.0),)), np.linspace(0.1, 5.0, 20))
    assert np.allclose(table.probabilities[:, 2], 1.0, atol=1e-12)
    assert np.allclose(table.probabilities[:, [0, 1, 3]], 0.0, atol=1e-12)


def test_spectrum_single_flip_defect_quarter_point():
    r = 0.5
    table = spectrum(Device((r_flip_defect(r),)), [2.0 / r], incident="left_up")
    assert np.allclose(table.probabilities[0], 0.25, atol=1e-12)


def test_spectrum_rows_sum_to_one():
    dev = preset_filter(r=0.4, x1=0.8, spacing=0.9)
    table = spectrum(dev, np.geomspace(0.05, 15.0, 200))
    sums = table.probabilities.sum(axis=1)
    assert np.allclose(sums[~table.singular], 1.0, atol=1e-8)
    assert table.unitarity_residual[~table.singular].max() < 1e-10


def test_spectrum_flags_singular_rows(monkeypatch):
    real = device_mod.total_transfer

    def flaky(device, ks):
        # rank-deficient rearrangement; the gate is off because no
        # current-conserving transfer has one
        transfers = real(device, ks)
        transfers[(1.0 < ks) & (ks < 2.0)] = 0.0
        return transfers

    monkeypatch.setattr(device_mod, "total_transfer", flaky)
    table = spectrum(
        Device((r_flip_defect(0.2),)), np.linspace(0.5, 3.0, 11), conservation_tol=np.inf
    )
    assert table.singular.any() and not table.singular.all()
    assert np.isnan(table.probabilities[table.singular]).all()
    assert not np.isnan(table.probabilities[~table.singular]).any()


OPAQUE_CHAIN = Device(
    (x1_defect(20.0), FreeSegment(1.0), r_flip_defect(0.3), FreeSegment(0.5)) * 100
)


@pytest.mark.parametrize(
    "x1, cells, count",
    [
        pytest.param(5.0, 30, 161, id="5.0-30"),
        pytest.param(2.0, 60, 166, id="2.0-60"),
        pytest.param(8.0, 20, 142, id="8.0-20"),
    ],
)
def test_one_norm_singular_rule_keeps_every_svd_flag(x1, cells, count, monkeypatch):
    chain = Device((x1_defect(x1), FreeSegment(1.0), r_flip_defect(0.3), FreeSegment(0.5)) * cells)
    ks = np.geomspace(0.01, 20.0, 200)
    transfers = total_transfer(chain, ks)
    s, singular = scattering_stack(transfers, ks)
    assert singular.sum() == count

    # the SVD rule: 2-norm condition number of each rearranged system above 1e12
    def svd_cond(x, p=None):
        sv = np.linalg.svd(x, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            return sv[..., 0] / sv[..., -1]

    tested = []

    def spy(x, p=None):
        tested.append(x.copy())
        return svd_cond(x)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cond", spy)
        s_svd, _ = scattering_stack(transfers, ks)
    cond = svd_cond(tested[0])
    singular_svd = ~np.isfinite(cond) | (cond > 1e12)

    assert singular_svd.any()
    assert not (singular_svd & ~singular).any()
    # a row the 1-norm rule newly flags had already failed the unitarity gate
    new = singular & ~singular_svd
    assert (ScatteringMatrix(s_svd[new], ks[new]).unitarity_residual() > 1e-10).all()
    assert np.array_equal(s[~singular], s_svd[~singular])


def test_spectrum_overflowing_transfer_raises():
    with pytest.raises(InvalidTransferError, match=r"overflowed at k=0\.01;"):
        spectrum(OPAQUE_CHAIN, np.geomspace(0.01, 20.0, 200))


@pytest.mark.parametrize(
    "sweep",
    [
        lambda ks: spectrum(Device(), ks),
        lambda ks: dispersion(PeriodicComb(Device((r_flip_defect(0.2),)), 1.0), ks),
    ],
    ids=["spectrum", "dispersion"],
)
def test_spectrum_grid_validation(sweep):
    with pytest.raises(ParameterDomainError, match="non-empty"):
        sweep([])
    with pytest.raises(ParameterDomainError, match=r"> 0, got -1\.0$"):
        sweep([-1.0, 1.0])
    with pytest.raises(ParameterDomainError, match=r"> 0, got 0\.0$"):
        sweep([1.0, 0.0, -1.0])
    with pytest.raises(ParameterDomainError, match="ascending"):
        sweep([2.0, 1.0])


def test_default_k_grid_checks_its_sweep():
    assert np.array_equal(default_k_grid(0.5, 2.0, 4, "linear"), np.linspace(0.5, 2.0, 4))
    with pytest.raises(ConfigError, match="^key 'k_max' in sweep must be a finite number$"):
        default_k_grid(0.01, float("inf"), 5)


def test_preset_resonator_structure():
    dev = preset_resonator(r_flip_defect(0.5), 1.0)
    assert len(dev.elements) == 3
    assert isinstance(dev.elements[1], FreeSegment)
    assert dev.elements[0] == dev.elements[2]
    with pytest.raises(ParameterDomainError):
        preset_resonator(r_flip_defect(0.5), 0.0)


def test_preset_resonator_zero_coupling_is_free_line():
    ks = np.linspace(0.2, 8.0, 60)
    free = spectrum(Device(), ks)
    res = spectrum(preset_resonator(r_flip_defect(0.0), 1.0), ks)
    assert np.abs(free.probabilities - res.probabilities).max() < 1e-12


def test_derivative_coupling_resonator_flips_more_at_high_k():
    # equal coupling 0.5; the derivative-coupling resonator dominates the
    # upper half of the window k in [1, 10]
    ks = np.linspace(1.0, 10.0, 180)
    upper = ks >= 5.5
    table_r = spectrum(preset_resonator(r_flip_defect(0.5), 1.0), ks)
    table_rt = spectrum(preset_resonator(rtilde_flip_defect(0.5), 1.0), ks)
    flip_r = table_r.probabilities[:, 1] + table_r.probabilities[:, 3]
    flip_rt = table_rt.probabilities[:, 1] + table_rt.probabilities[:, 3]
    assert flip_r[upper].mean() > flip_rt[upper].mean()


def test_device_rejects_foreign_elements():
    with pytest.raises(ParameterDomainError):
        Device((1.0,))
