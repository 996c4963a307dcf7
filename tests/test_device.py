"""Devices: transfer composition, spectra, presets, and the matching oracle."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpoint import (
    CHANNELS,
    ConfigError,
    Device,
    DefectKind,
    DefectSpec,
    FreeSegment,
    InvalidTransferError,
    ParameterDomainError,
    PeriodicComb,
    ScatteringMatrix,
    SpectralSingularityError,
    SweepSpec,
    channel_probabilities,
    defect_matrix,
    dispersion,
    flux_defect,
    mass_jump_defect,
    preset_filter,
    preset_resonator,
    product_defect,
    propagation,
    r_flip_defect,
    rtilde_flip_defect,
    scalar_dispersion,
    spectrum,
    total_transfer,
    transfer_to_scattering,
    x1_defect,
    x4_defect,
)
import spinpoint.device as device_mod
from spinpoint.device import channel_transfer
from spinpoint.scattering import channel_blocks, channel_scattering

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


def matmul_channel_transfer(device, k):
    """Reference: every element's 4x4 matrix, free segments too, split by channel_blocks."""
    ks = np.asarray(k, dtype=float)
    total = channel_blocks(np.broadcast_to(np.eye(4), ks.shape + (4, 4)))
    for el in device.elements:
        m = propagation(ks, el.length) if isinstance(el, FreeSegment) else defect_matrix(el)
        (a, b), (c, d) = channel_blocks(m)
        (e, f), (g, h) = total
        total = np.array([[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]])
    return total


def same_bits(a, b):
    """Equal shape, dtype and bytes, so signed zeros must match too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def contains_flux(elements):
    return any(
        isinstance(el, DefectSpec) and (el.kind is DefectKind.FLUX or contains_flux(el.factors))
        for el in elements
    )


def agrees_with_the_4x4_composition(device, k):
    """Bit for bit with the reference where the device has a flux defect; otherwise it composes
    in real arithmetic, so its real parts are the reference's and its imaginary parts +0.0 (the
    reference's complex arithmetic may give -0.0)."""
    got, want = channel_transfer(device, k), matmul_channel_transfer(device, k)
    if contains_flux(device.elements):
        return same_bits(got, want)
    return same_bits(got.real, want.real) and same_bits(got.imag, np.zeros(got.shape))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_channel_transfer_equals_the_4x4_element_composition(seed):
    rng = np.random.default_rng(seed)
    ks = np.geomspace(1e-8, 1e6, 400)
    assert agrees_with_the_4x4_composition(random_device(rng, 200), ks)
    devices = (
        Device(),
        Device((FreeSegment(1.3),)),
        Device((FreeSegment(0.6), FreeSegment(1.9))),
        Device((x1_defect(0.4), r_flip_defect(-1.2), x4_defect(0.3), flux_defect(0.7))),
        Device((x1_defect(0.4), product_defect((flux_defect(0.7), x4_defect(0.3))))),
        # equal specs that differ in the sign of a zero are each their own element
        Device((x1_defect(0.0), x1_defect(-0.0))),
        Device((x1_defect(-0.0), x1_defect(0.0), x1_defect(-0.0))),
        Device((x1_defect(-0.0), flux_defect(0.7), x1_defect(0.0), x1_defect(-0.0))),
        random_device(rng, 30),
    )
    assert contains_flux(devices[3].elements) and contains_flux(devices[4].elements)
    for k in (2.0, ks[::40], np.geomspace(0.05, 40.0, 12).reshape(3, 4)):
        for dev in devices:
            assert agrees_with_the_4x4_composition(dev, k)


def test_one_flux_defect_keeps_the_complex_composition():
    rng = np.random.default_rng(7)
    chain = random_device(rng, 200).elements
    dev = Device(chain[:100] + (flux_defect(0.7),) + chain[100:])
    ks = np.geomspace(1e-8, 1e6, 400)
    assert same_bits(channel_transfer(dev, ks), matmul_channel_transfer(dev, ks))


def test_flux_free_overflow_raises_at_the_first_overflowed_momentum():
    chain = Device((x1_defect(1e3), x4_defect(1e3)) * 60)
    with pytest.raises(InvalidTransferError, match=r"^transfer matrix overflowed at k=0\.01;"):
        channel_transfer(chain, np.geomspace(0.01, 20.0, 200))
    # with free segments a few momenta (9 of these 200) keep a finite transfer; put them first
    chain = Device((x1_defect(1e3), FreeSegment(1.0), x4_defect(1e3)) * 60)
    grid = np.geomspace(0.01, 20.0, 200)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(matmul_channel_transfer(chain, grid)).all(axis=(0, 1, -1))
    assert finite.any() and not finite.all()
    ks = np.concatenate([grid[finite], grid[~finite]])
    k = float(grid[~finite][0])
    message = f"transfer matrix overflowed at k={k!r}; the device is too opaque"
    with pytest.raises(InvalidTransferError, match=f"^{re.escape(message)} "):
        channel_transfer(chain, ks)
    assert agrees_with_the_4x4_composition(chain, grid[finite])


ONE_DEFECT_SPECS = [
    x1_defect(0.9),
    x4_defect(-0.7),
    mass_jump_defect(1.6),
    flux_defect(0.4),
    r_flip_defect(0.8),
    rtilde_flip_defect(-1.1),
    product_defect((x1_defect(0.5), r_flip_defect(-0.3))),
    product_defect((mass_jump_defect(0.7), flux_defect(1.2), rtilde_flip_defect(0.2))),
]


def outcome(route):
    try:
        return route()
    except InvalidTransferError as exc:
        return str(exc)


def stacked_transfer_to_scattering(matrix, ks, **gate):
    """Per-k :func:`transfer_to_scattering` of one transfer over ``ks``, NaN on singular rows,
    and the mask of those rows."""
    rows = []
    for k in ks:
        try:
            rows.append(transfer_to_scattering(matrix, k, **gate).matrix)
        except SpectralSingularityError:
            rows.append(np.full((4, 4), np.nan + 0j))
    s = np.array(rows)
    return s, np.isnan(s).all(axis=(1, 2))


@pytest.mark.parametrize("spec", ONE_DEFECT_SPECS, ids=lambda spec: spec.kind.name)
def test_spectrum_of_one_defect_equals_its_scattering_stack(spec):
    # the scatter command's route: the defect gated once, then its channels
    ks = np.geomspace(1e-8, 1e6, 500)
    table = spectrum(Device((spec,)), ks)
    s_stack, singular_stack = stacked_transfer_to_scattering(defect_matrix(spec), ks)
    assert np.array_equal(table.smatrix, s_stack, equal_nan=True)
    assert np.array_equal(table.singular, singular_stack)
    # a defect whose residual is exactly 0 passes any gate, the others fail it alike
    tight = {"conservation_tol": 1e-300}
    gated = outcome(lambda: spectrum(Device((spec,)), ks, **tight))
    gated_stack = outcome(lambda: stacked_transfer_to_scattering(defect_matrix(spec), ks, **tight))
    if isinstance(gated, str) or isinstance(gated_stack, str):
        assert gated == gated_stack
        assert gated.startswith("transfer does not conserve the longitudinal current at k=1e-08")
    else:
        assert np.array_equal(gated.smatrix, gated_stack[0], equal_nan=True)
        assert np.array_equal(gated.singular, gated_stack[1])


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
    table = spectrum(dev, ks)
    flip_reflected = channel_probabilities(table.smatrix, "left_up")[:, 1]
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
    ks = np.concatenate([[sys.float_info.min, 1e-300], np.linspace(0.1, 5.0, 20)])
    table = spectrum(Device((FreeSegment(2.0),)), ks)
    assert not table.singular.any()
    probs = channel_probabilities(table.smatrix, "left_up")
    assert np.allclose(probs[:, 2], 1.0, atol=1e-12)
    assert np.allclose(probs[:, [0, 1, 3]], 0.0, atol=1e-12)


def test_spectrum_single_flip_defect_quarter_point():
    r = 0.5
    table = spectrum(Device((r_flip_defect(r),)), [2.0 / r])
    assert np.allclose(channel_probabilities(table.smatrix, "left_up"), 0.25, atol=1e-12)


def test_spectrum_rows_sum_to_one():
    dev = preset_filter(r=0.4, x1=0.8, spacing=0.9)
    table = spectrum(dev, np.geomspace(0.05, 15.0, 200))
    sums = channel_probabilities(table.smatrix, "left_up").sum(axis=1)
    assert np.allclose(sums[~table.singular], 1.0, atol=1e-8)
    assert table.unitarity_residual[~table.singular].max() < 1e-10


def test_spectrum_flags_singular_rows(monkeypatch):
    real = device_mod._compose

    def flaky(elements, matrices, ks):
        # a zero channel transfer has no S-matrix; no current-conserving transfer is zero
        channels = real(elements, matrices, ks)
        channels[:, :, (1.0 < ks) & (ks < 2.0)] = 0.0
        return channels

    monkeypatch.setattr(device_mod, "_compose", flaky)
    table = spectrum(Device((r_flip_defect(0.2),)), np.linspace(0.5, 3.0, 11))
    assert table.singular.any() and not table.singular.all()
    probs = channel_probabilities(table.smatrix, "left_up")
    assert np.isnan(probs[table.singular]).all()
    assert not np.isnan(probs[~table.singular]).any()


def test_spectrum_gates_each_distinct_defect_in_element_order(monkeypatch):
    # two products whose current residuals are round-off of different sizes, so the gate
    # message names the first of them in element order; a repeat of a defect fails after it
    p1 = product_defect((x1_defect(0.3), x4_defect(0.7)))
    p2 = product_defect((mass_jump_defect(1.3), r_flip_defect(0.7)))
    dev = Device(
        (x1_defect(0.0), p2, FreeSegment(0.4), p1, x1_defect(-0.0), r_flip_defect(0.5), p2)
        + (FreeSegment(1.2), x1_defect(0.0))
    )
    built = []
    real = device_mod.defect_matrix
    monkeypatch.setattr(device_mod, "defect_matrix", lambda el: built.append(el) or real(el))
    message = (
        "transfer does not conserve the longitudinal current at k=0.5 "
        "(relative residual 1.880e-17)"
    )
    with pytest.raises(InvalidTransferError, match=f"^{re.escape(message)}$"):
        spectrum(dev, [0.5, 1.0], conservation_tol=1e-300)
    defects = [el for el in dev.elements if isinstance(el, DefectSpec)]
    assert built == defects
    # a sweep that passes the gate builds each defect's matrix once too
    built.clear()
    table = spectrum(dev, [0.5, 1.0])
    assert built == defects and not table.singular.any()


# stand-ins for transfers that no defect kind builds: an x1 jump on spin up alone fails only
# the spin-swap rule, a rescaled boundary vector the current rule
ONE_SPIN_JUMP = np.eye(4)
ONE_SPIN_JUMP[1, 0] = 2.0
STAND_INS = {x1_defect(123.0): ONE_SPIN_JUMP, x4_defect(123.0): np.diag([1.5, 1.0, 1.5, 1.0])}


def stand_in_matrix(spec):
    return STAND_INS[spec] if spec in STAND_INS else defect_matrix(spec)


def device_of(defects, gaps):
    """The defects in order, a free segment of each gap between two of them."""
    elements = [defects[0]]
    for defect, gap in zip(defects[1:], gaps):
        elements += [FreeSegment(gap), defect]
    return Device(elements)


@given(
    defects=st.lists(st.sampled_from(ONE_DEFECT_SPECS + list(STAND_INS)), min_size=1, max_size=8),
    gaps=st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=7, max_size=7),
    tol=st.sampled_from([1e-300, 1e-10, math.inf]),
)
@settings(max_examples=200, deadline=None)
def test_spectrum_gate_agrees_with_each_defects_own_gate(defects, gaps, tol):
    # the sweep raises exactly when some defect's own gate does: with the message of the
    # first defect in element order that fails the current rule, else of the first that
    # fails the spin-swap rule
    device = device_of(defects, gaps)
    own = (stand_in_matrix(el) for el in defects)
    gates = [outcome(lambda: transfer_to_scattering(m, 0.5, conservation_tol=tol)) for m in own]
    messages = [m for m in gates if isinstance(m, str)]
    current = [m for m in messages if "longitudinal current" in m]
    expected = (current or messages or [None])[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(device_mod, "defect_matrix", stand_in_matrix)
        if expected is None:
            spectrum(device, [0.5, 1.0], conservation_tol=tol)
        else:
            with pytest.raises(InvalidTransferError, match=f"^{re.escape(expected)}$"):
                spectrum(device, [0.5, 1.0], conservation_tol=tol)


def test_spectrum_smatrix_is_nan_exactly_on_singular_rows(monkeypatch):
    real = device_mod._compose

    def zero_first(elements, matrices, ks):
        # a zero channel transfer has no S-matrix, at the first momentum only
        channels = real(elements, matrices, ks)
        channels[:, :, 0] = 0.0
        return channels

    monkeypatch.setattr(device_mod, "_compose", zero_first)
    table = spectrum(Device((x1_defect(1.5),)), [0.5, 1.0])
    assert table.singular.tolist() == [True, False]
    assert table.smatrix.shape == (2, 4, 4)
    assert np.isnan(table.smatrix[0]).all() and np.isfinite(table.smatrix[1]).all()
    for idx, channel in enumerate(CHANNELS):
        probs = channel_probabilities(table.smatrix, channel)
        assert np.array_equal(probs, np.abs(table.smatrix[:, :, idx]) ** 2, equal_nan=True)


SMALL_K_CASES = [
    # c = 1e10 over k overflows below k ~ 5.6e-299; at 1e-200 it does not
    pytest.param(Device((x1_defect(1e10),)), [2.3e-308, 1e-300], 1e-200, id="x1-1e10"),
    # c = 6 over k overflows only at the smallest momenta
    pytest.param(
        Device((mass_jump_defect(3.0), FreeSegment(1.0), x1_defect(2.0))),
        [sys.float_info.min, 2.3e-308],
        1e-305,
        id="mass_jump-free-x1",
    ),
]


@pytest.mark.parametrize("device, small, finite_k", SMALL_K_CASES)
def test_small_k_rows_are_finite_unitary_and_totally_reflecting(device, small, finite_k):
    # c/k overflows in 2 delta = a + d - i(bk - c/k) at the ``small`` momenta; those rows are
    # computed again from everything times k, and match the total reflection at ``finite_k``
    ks = np.array([*small, finite_k, 1.0])
    table = spectrum(device, ks)
    assert not table.singular.any() and np.isfinite(table.smatrix).all()
    assert table.unitarity_residual.max() <= 1e-15
    transmission = np.abs(table.smatrix[:, 2:, :2]) ** 2
    assert transmission[:-1].sum(axis=(1, 2)).max() <= 1e-30
    assert np.abs(table.smatrix[: len(small)] - table.smatrix[len(small)]).max() <= 1e-15
    # the rows that did not overflow keep their bits
    alone = spectrum(device, ks[len(small) :])
    assert np.array_equal(table.smatrix[len(small) :], alone.smatrix)
    assert np.array_equal(table.unitarity_residual[len(small) :], alone.unitarity_residual)


def opaque_chain(x1, cells):
    return Device((x1_defect(x1), FreeSegment(1.0), r_flip_defect(0.3), FreeSegment(0.5)) * cells)


OPAQUE_CHAIN = opaque_chain(20.0, 100)


def assert_channel_route_matches_oracle(device, ks, step):
    """No singular row, unitary to 1e-10, and every ``step``-th S within 1e-10 of the oracle."""
    s, singular = channel_scattering(channel_transfer(device, ks), ks)
    assert not singular.any()
    assert ScatteringMatrix(s, ks).unitarity_residual().max() <= 1e-10
    for i in range(0, len(ks), step):
        assert np.abs(s[i] - smatrix_by_matching(device, ks[i])).max() <= 1e-10
    table = spectrum(device, ks)
    assert not table.singular.any()
    assert np.array_equal(table.smatrix, s)


@pytest.mark.parametrize(
    "x1, cells",
    [
        pytest.param(5.0, 30, id="5.0-30"),
        pytest.param(2.0, 60, id="2.0-60"),
        pytest.param(8.0, 20, id="8.0-20"),
    ],
)
def test_opaque_chains_sweep_without_singular_rows(x1, cells):
    # the two channel transfers differ by many orders of magnitude, so the
    # weaker one keeps its digits only when each channel is composed on its own
    assert_channel_route_matches_oracle(opaque_chain(x1, cells), np.geomspace(0.01, 50.0, 200), 5)


def test_spectrum_sweeps_the_opaque_chain():
    # its 4x4 transfer overflows the current gate's scale at every momentum
    assert_channel_route_matches_oracle(OPAQUE_CHAIN, np.geomspace(0.01, 20.0, 200), 10)


@pytest.mark.parametrize("k", [1e4, 1e6, 1e8])
def test_matching_oracle_stays_unitary_at_large_k(k):
    # the wave-basis rows differ in scale by k; the oracle's elimination
    # scales them, so its own round-off does not grow with k
    s = smatrix_by_matching(OPAQUE_CHAIN, k)
    assert np.abs(s.conj().T @ s - np.eye(4)).max() <= 1e-13


strengths = st.floats(min_value=-3.0, max_value=3.0)
single_defects = st.one_of(
    st.builds(x1_defect, strengths),
    st.builds(x4_defect, strengths),
    st.builds(mass_jump_defect, st.floats(min_value=0.3, max_value=3.0)),
    st.builds(flux_defect, st.floats(min_value=-2.0, max_value=2.0)),
    st.builds(r_flip_defect, strengths),
    st.builds(rtilde_flip_defect, strengths),
)
elements = st.one_of(
    single_defects,
    st.builds(product_defect, st.lists(single_defects, min_size=2, max_size=3)),
    st.builds(FreeSegment, st.floats(min_value=0.05, max_value=2.0)),
)


@given(
    elements=st.lists(elements, min_size=1, max_size=6),
    ks=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=5, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_channel_route_matches_oracle_on_random_devices(elements, ks):
    device = Device(elements)
    ks = np.sort(ks)
    s, singular = channel_scattering(channel_transfer(device, ks), ks)
    assert not singular.any()
    for i, k in enumerate(ks):
        assert np.abs(s[i] - smatrix_by_matching(device, k)).max() <= 1e-10


#: Bound on max|S - S^T| (flux-free) and max|S(phi) - S(-phi)^T|; 1500 devices of each
#: sort drawn as below gave at most 3.1e-16 and 1.0e-13.  An error on one side, e.g.
#: S -> P S with P a channel permutation, gives residuals of order 1.
RECIPROCITY_TOL = 1e-11
RECIPROCITY_KS = np.geomspace(0.05, 30.0, 60)
real_defects = st.one_of(
    st.builds(x1_defect, strengths),
    st.builds(x4_defect, strengths),
    st.builds(r_flip_defect, strengths),
    st.builds(rtilde_flip_defect, strengths),
    st.builds(mass_jump_defect, st.floats(min_value=0.3, max_value=3.0)),
)
phases = st.floats(min_value=-2.0, max_value=2.0)
flux_defects = st.one_of(
    st.builds(flux_defect, phases),
    st.builds(
        lambda phi, r: product_defect([flux_defect(phi), rtilde_flip_defect(r)]), phases, strengths
    ),
)


def reversed_flux(spec):
    """The defect with every flux phase negated."""
    if spec.kind is DefectKind.FLUX:
        return flux_defect(-spec.value)
    if spec.kind is DefectKind.PRODUCT:
        return product_defect([reversed_flux(f) for f in spec.factors])
    return spec


def transposed(s):
    return np.swapaxes(s, -2, -1)


gaps_strategy = st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=6, max_size=6)


@given(defects=st.lists(real_defects, min_size=1, max_size=7), gaps=gaps_strategy)
@settings(max_examples=100, deadline=None)
def test_flux_free_devices_are_reciprocal(defects, gaps):
    # every boundary matrix but flux is real, so S = S^T; an error on the output side only
    # (a permutation or phase, S -> P S) keeps S unitary but breaks this
    s = spectrum(device_of(defects, gaps), RECIPROCITY_KS).smatrix
    assert np.abs(s - transposed(s)).max() <= RECIPROCITY_TOL


@given(
    defects=st.lists(real_defects | flux_defects, min_size=0, max_size=6),
    flux=flux_defects,
    at=st.integers(0, 6),
    gaps=gaps_strategy,
)
@settings(max_examples=100, deadline=None)
def test_flux_devices_are_reciprocal_under_time_reversal(defects, flux, at, gaps):
    # time reversal negates every flux phase: S(phi) = S(-phi)^T, while S != S^T in general
    defects.insert(min(at, len(defects)), flux)
    s = spectrum(device_of(defects, gaps), RECIPROCITY_KS).smatrix
    reverse = spectrum(device_of([reversed_flux(d) for d in defects], gaps), RECIPROCITY_KS)
    assert np.abs(s - transposed(reverse.smatrix)).max() <= RECIPROCITY_TOL


def test_flux_breaks_plain_reciprocity():
    # the time-reversal test above is not S = S^T in disguise
    device = device_of([flux_defect(0.3), r_flip_defect(0.8), x1_defect(1.2)], [0.7, 0.4])
    s = spectrum(device, RECIPROCITY_KS).smatrix
    assert np.abs(s - transposed(s)).max() > 0.1


def test_spectrum_overflowing_transfer_raises():
    chain = Device((x1_defect(1e3), x4_defect(1e3)) * 60)
    with pytest.raises(InvalidTransferError, match=r"overflowed at k=0\.01;"):
        spectrum(chain, np.geomspace(0.01, 20.0, 200))
    with pytest.raises(InvalidTransferError, match=r"overflowed at k=0\.01;"):
        total_transfer(chain, 0.01)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda ks: spectrum(Device(), ks),
        lambda ks: dispersion(PeriodicComb(Device((r_flip_defect(0.2),)), 1.0), ks),
        lambda ks: scalar_dispersion(PeriodicComb(Device((x4_defect(0.2),)), 1.0), ks),
    ],
    ids=["spectrum", "dispersion", "scalar_dispersion"],
)
def test_spectrum_grid_validation(sweep):
    with pytest.raises(ParameterDomainError, match="non-empty"):
        sweep([])
    with pytest.raises(ParameterDomainError, match="non-empty 1d"):
        sweep([[1.0, 2.0]])
    with pytest.raises(ParameterDomainError, match=r"> 0, got -1\.0$"):
        sweep([-1.0, 1.0])
    with pytest.raises(ParameterDomainError, match=r"> 0, got 0\.0$"):
        sweep([1.0, 0.0, -1.0])
    with pytest.raises(ParameterDomainError, match="ascending"):
        sweep([2.0, 1.0])
    with pytest.raises(ParameterDomainError, match="ascending"):
        sweep([3.0, 1.0, 2.0])
    top = math.sqrt(sys.float_info.max)  # the largest momentum whose energy k^2 is finite
    sweep([1.0, top])
    for k in (math.nextafter(top, math.inf), 1e200):
        message = rf"^momentum must be <= {re.escape(repr(top))}, .* {re.escape(repr(k))}$"
        with pytest.raises(ParameterDomainError, match=message):
            sweep([1.0, k, 2 * k])


def test_default_k_grid_checks_its_sweep():
    assert np.array_equal(SweepSpec(0.5, 2.0, 4, "linear").grid(), np.linspace(0.5, 2.0, 4))
    with pytest.raises(ConfigError, match="^key 'k_max' in sweep must be a finite number$"):
        SweepSpec(0.01, float("inf"), 5)


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
    p_free, p_res = (channel_probabilities(t.smatrix, "left_up") for t in (free, res))
    assert np.abs(p_free - p_res).max() < 1e-12


def test_derivative_coupling_resonator_flips_more_at_high_k():
    # equal coupling 0.5; the derivative-coupling resonator dominates the
    # upper half of the window k in [1, 10]
    ks = np.linspace(1.0, 10.0, 180)
    upper = ks >= 5.5
    table_r = spectrum(preset_resonator(r_flip_defect(0.5), 1.0), ks)
    table_rt = spectrum(preset_resonator(rtilde_flip_defect(0.5), 1.0), ks)
    p_r, p_rt = (channel_probabilities(t.smatrix, "left_up") for t in (table_r, table_rt))
    flip_r, flip_rt = p_r[:, 1] + p_r[:, 3], p_rt[:, 1] + p_rt[:, 3]
    assert flip_r[upper].mean() > flip_rt[upper].mean()


def test_device_rejects_foreign_elements():
    with pytest.raises(ParameterDomainError):
        Device((1.0,))
