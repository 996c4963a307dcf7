"""Scattering matrices: propagation, spin channels, closed form, probabilities."""

import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpoint import (
    CLOSED_FORM_PERMUTATION,
    Device,
    FreeSegment,
    InvalidTransferError,
    ParameterDomainError,
    PeriodicComb,
    ScatteringMatrix,
    SpectralSingularityError,
    cell_transfer,
    channel_index,
    channel_probabilities,
    closed_form_flip_smatrix,
    closed_form_to_grouped,
    compose,
    defect_matrix,
    dispersion,
    flux_defect,
    mass_jump_defect,
    momentum_from_energy,
    propagation,
    r_flip_defect,
    rtilde_flip_defect,
    scalar_cell_transfer,
    scalar_dispersion,
    scalar_kp_relation,
    spectrum,
    total_transfer,
    transfer_to_scattering,
    x1_defect,
    x4_defect,
)
from spinpoint.device import channel_transfer
from spinpoint.scattering import channel_blocks, channel_matrix, channel_scattering
from spinpoint.scattering import check_conservation, free_channels

# A zero transfer has delta = 0 in both channels, so its S-matrix is not
# finite.  No current-conserving transfer does that, so tests using it
# switch the conservation gate off with an infinite tolerance.
SINGULAR_TRANSFER = np.zeros((4, 4), dtype=complex)

k_values = st.floats(min_value=0.05, max_value=30)
lengths = st.floats(min_value=0.0, max_value=5.0)


def test_propagation_zero_length_identity():
    assert np.allclose(propagation(1.7, 0.0), np.eye(4))


def test_propagation_half_turn():
    m = propagation(np.pi, 1.0)
    assert np.allclose(m, -np.eye(4), atol=1e-12)


def test_propagation_quarter_turn_block():
    m = propagation(1.0, np.pi / 2)
    block = np.array([[0, 1], [-1, 0]])
    assert np.allclose(m[:2, :2], block, atol=1e-12)
    assert np.allclose(m[2:, 2:], block, atol=1e-12)


def test_propagation_domain_errors():
    with pytest.raises(ParameterDomainError):
        propagation(0.0, 1.0)
    with pytest.raises(ParameterDomainError, match=r"length must be >= 0, got -0\.1$"):
        propagation(1.0, -0.1)
    for length in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterDomainError, match="length must be a finite number"):
            propagation(np.array([1.0, 2.0]), length)
    # on a k array the message names the first non-positive momentum
    ks = np.array([1.0, -2.0, 0.0])
    with pytest.raises(ParameterDomainError, match=r"> 0, got -2\.0$"):
        propagation(ks, 1.0)
    with pytest.raises(ParameterDomainError, match=r"> 0, got -2\.0$"):
        total_transfer(Device((x1_defect(1.0),)), ks)
    # an infinite or NaN momentum is named as such on every route
    resonator = Device((x1_defect(1.0), FreeSegment(1.0), x1_defect(1.0)))
    comb = PeriodicComb(Device((x4_defect(0.5),)), 1.0)
    routes = [
        lambda ks: propagation(ks, 1.0),
        lambda ks: total_transfer(resonator, ks),
        lambda ks: channel_transfer(resonator, ks),
        lambda ks: spectrum(resonator, ks),
        lambda ks: spectrum(Device((x1_defect(1.0),)), ks),
        lambda ks: spectrum(Device((FreeSegment(1.0),)), ks),
        lambda ks: dispersion(comb, ks),
        lambda ks: cell_transfer(comb, ks),
        lambda ks: scalar_cell_transfer(comb, ks),
        lambda ks: scalar_dispersion(comb, ks),
        lambda ks: scalar_kp_relation(0.5, 1.0, ks),
        lambda ks: closed_form_flip_smatrix(ks, 0.5),
        # the momentum rules come before the one-momentum shape rule
        lambda ks: transfer_to_scattering(np.eye(4), ks),
    ]
    for bad in (math.inf, -math.inf, math.nan):
        message = f"^momentum must be a finite number, got {bad!r}$"
        for route in routes:
            with pytest.raises(ParameterDomainError, match=message):
                route(np.array([1.0, bad]))
    # dividing by a subnormal momentum overflows, so the least one is the smallest normal float
    message = rf"^momentum must be >= {re.escape(repr(sys.float_info.min))}, .* got 1e-310$"
    for route in routes:
        with pytest.raises(ParameterDomainError, match=message):
            route(np.array([1.0, 1e-310]))
    # a momentum is an int or a float, or an array of them
    # (numpy reads a bool in a list of numbers as a number)
    not_real = ("abc", None, [1.0, "a"], [1.0, [2.0]], 1 + 1j, np.array([1 + 1j]), True, 10**400)
    not_real += ([True, 2], [1.0, False])
    for bad in not_real:
        for route in routes:
            with pytest.raises(ParameterDomainError, match="^momentum must be a real number"):
                route(bad)
    # ints (Python ints beyond int64 too) and float32 give the bits of the float64 momenta
    # they equal; a result's pickle holds every array in it
    same = [
        ([1.0, 2.0, 3.0], ([1, 2, 3], np.arange(1, 4), np.array([1, 2, 3], dtype=np.float32))),
        ([1.0, 2.0, 3e20], ([1, 2, 3 * 10**20],)),
    ]
    for route in routes[:-1]:  # each takes a grid of momenta
        for grid, equals in same:
            expected = pickle.dumps(route(np.array(grid)))
            for ks in equals:
                assert pickle.dumps(route(ks)) == expected
    one_k = defect_matrix(x1_defect(1.0))
    expected = pickle.dumps(transfer_to_scattering(one_k, 2.0))
    for k in (2, np.int64(2), np.float32(2.0)):
        assert pickle.dumps(transfer_to_scattering(one_k, k)) == expected


def test_propagation_blocks_are_the_free_channel_entries_up_to_the_largest_momentum():
    # -k sin kL nears the float limit here, where a sum of two such entries overflows
    ks = np.geomspace(1e-300, 1.79e308, 2000)
    m = propagation(ks, 1.0)
    block = np.moveaxis(free_channels(ks, 1.0)[..., 0], -1, 0)
    assert np.array_equal(m[:, :2, :2], block) and np.array_equal(m[:, 2:, 2:], block)
    assert not m[:, :2, 2:].any() and not m[:, 2:, :2].any()


def test_propagation_overflow_raises_invalid_transfer_error():
    # k * 7.7 exceeds the float range at k = 1e308 only; a warning would fail the test
    ks = [1.0, 1e307, 1e308]
    # a sweep takes no momentum whose k^2 overflows, so the comb's period is 1e300 times
    # longer and k * a exceeds the float range at k = 1e8 only
    comb = PeriodicComb(Device((r_flip_defect(0.5),)), 7.7e300)
    routes = [
        (lambda: propagation(ks, 7.7), r"1e\+308"),
        (lambda: total_transfer(Device((FreeSegment(7.7),)), ks), r"1e\+308"),
        (lambda: dispersion(comb, [1.0, 1e7, 1e8]), r"100000000\.0"),
    ]
    for route, k in routes:
        with pytest.raises(InvalidTransferError, match=rf"overflowed at k={k};"):
            route()


def test_batched_propagation_equals_scalar_calls():
    rng = np.random.default_rng(7)
    ks = np.sort(rng.uniform(0.01, 40.0, 500))
    for length in (0.0, *rng.uniform(0.0, 5.0, 4)):
        per_k = np.stack([propagation(float(k), length) for k in ks])
        assert np.array_equal(propagation(ks, length), per_k)


@given(k=k_values, l1=lengths, l2=lengths)
@example(k=27.90140661506487, l1=4.25, l2=4.999999999999999)
@settings(max_examples=100)
def test_propagation_composes_additively(k, l1, l2):
    # The -k sin kL entry scales the phase round-off (about eps k L) by k.  In the
    # frame D = diag(1, k, 1, k) each block is a rotation, so compare D^-1 (lhs - rhs) D.
    diff = propagation(k, l1) @ propagation(k, l2) - propagation(k, l1 + l2)
    d = np.array([1.0, k, 1.0, k])
    assert np.abs(diff * d[None, :] / d[:, None]).max() < 1e-12


def test_identity_transfer_is_perfect_transmission():
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    for k in (1.3, 1e-300, sys.float_info.min):
        s = transfer_to_scattering(np.eye(4), k)
        assert np.allclose(s.matrix, expected, atol=1e-14)


def test_closed_form_r_zero_full_transmission():
    s = closed_form_flip_smatrix(2.0, 0.0)
    # in its own ordering "4" positions sit at the (left,right) same-spin pairs
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
    assert np.array_equal(s, expected)


def test_closed_form_kr_two_squared_moduli():
    s = closed_form_flip_smatrix(2.0, 1.0)
    assert np.allclose(np.abs(s) ** 2, 0.25, atol=1e-14)


@given(k=k_values, r=st.floats(min_value=-5, max_value=5))
@settings(max_examples=100)
def test_closed_form_row_norm_identity(k, r):
    # k^4 r^4 + 16 + 8 k^2 r^2 = (k^2 r^2 + 4)^2
    u = (k * r) ** 2
    assert u * u + 16 + 8 * u == pytest.approx((u + 4.0) ** 2, rel=1e-12)
    s = closed_form_flip_smatrix(k, r)
    assert np.abs(s.conj().T @ s - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize(
    "r, message",
    [
        (math.nan, r"^r must be a finite number$"),
        (math.inf, r"^r must be a finite number$"),
        (True, r"^r must be a number, got True$"),
        ("0.5", r"^r must be a number, got '0\.5'$"),
    ],
)
def test_closed_form_checks_its_strength(r, message):
    with pytest.raises(ParameterDomainError, match=message):
        closed_form_flip_smatrix(1.0, r)


@pytest.mark.parametrize("r", [0.7, -2.5, 1e-200, -1e-320, 3e150, -0.0])
def test_closed_form_of_an_array_of_k_is_a_stack_of_scalar_calls(r):
    # momenta from subnormal k * r up to (kr)^2 overflow; n = 3 and n = 4 also check that
    # the matrix axes come last, where closed_form_to_grouped permutes
    ks = np.geomspace(sys.float_info.min, 1e300, 64)
    for n in (3, 4, len(ks)):
        stack = closed_form_flip_smatrix(ks[:n], r)
        assert stack.shape == (n, 4, 4)
        grouped = closed_form_to_grouped(stack)
        for i, k in enumerate(ks[:n]):
            alone = closed_form_flip_smatrix(float(k), r)
            assert stack[i].tobytes() == alone.tobytes()
            assert grouped[i].tobytes() == closed_form_to_grouped(alone).tobytes()
    for k in ks:
        # a scalar k keeps the bits of Python's complex 2j * kr / d, signed zeros too
        kr = float(k) * r
        if math.isfinite(kr * kr):
            f = np.complex128(2j * kr / (kr * kr + 4.0))
            assert closed_form_flip_smatrix(float(k), r)[0, 3].tobytes() == f.tobytes()


@pytest.mark.parametrize("k,r", [(1e200, 1.0), (1e200, -1.0), (1e150, 1e10), (1e154, 1.0)])
def test_closed_form_stays_unitary_where_kr_squared_overflows(k, r):
    # (kr)^2 overflows in all but the last case: the limit is total reflection
    s = closed_form_flip_smatrix(k, r)
    assert np.abs(s.conj().T @ s - np.eye(4)).max() <= 1e-15
    assert np.array_equal(np.abs(s) > 0.5, np.eye(4, dtype=bool))


@pytest.mark.parametrize("k,r", [(0.4, 0.9), (2.0, 2.0), (6.3, -1.1)])
def test_transfer_route_matches_closed_form_exactly(k, r):
    s = transfer_to_scattering(defect_matrix(r_flip_defect(r)), k)
    expected = closed_form_to_grouped(closed_form_flip_smatrix(k, r))
    assert np.abs(s.matrix - expected).max() < 1e-12


def test_frozen_permutation_value():
    assert CLOSED_FORM_PERMUTATION == (0, 2, 1, 3)


def test_probabilities_r_zero_incident_left_up():
    s = transfer_to_scattering(defect_matrix(r_flip_defect(0.0)), 1.0)
    assert np.allclose(channel_probabilities(s, "left_up"), [0, 0, 1, 0], atol=1e-14)


def test_probabilities_kr_two_quarters():
    s = transfer_to_scattering(defect_matrix(r_flip_defect(0.5)), 4.0)
    assert np.allclose(channel_probabilities(s, "left_up"), 0.25, atol=1e-12)


@given(k=k_values, r=st.floats(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_flip_probability_closed_form_r_defect(k, r):
    # total spin flip for a single derivative-coupling defect: 8k^2r^2/(k^2r^2+4)^2
    s = transfer_to_scattering(defect_matrix(r_flip_defect(r)), k)
    p = channel_probabilities(s, "left_up")
    expected = 8 * (k * r) ** 2 / ((k * r) ** 2 + 4) ** 2
    assert p[1] + p[3] == pytest.approx(expected, abs=1e-12)


@given(k=k_values, rt=st.floats(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_flip_probability_value_coupling_defect(k, rt):
    # hand-derived from the matching equations: 8k^2 rt^2/(4k^2 + rt^2)^2
    s = transfer_to_scattering(defect_matrix(rtilde_flip_defect(rt)), k)
    p = channel_probabilities(s, "left_up")
    expected = 8 * (k * rt) ** 2 / (4 * k * k + rt * rt) ** 2
    assert p[1] + p[3] == pytest.approx(expected, abs=1e-12)


def test_flip_probability_table_reciprocity_under_sign_and_spin_swap():
    spin_swap = [1, 0, 3, 2]
    for k, r in [(0.7, 0.4), (3.0, 1.5)]:
        p_plus = np.abs(transfer_to_scattering(defect_matrix(r_flip_defect(r)), k).matrix)
        p_minus = np.abs(transfer_to_scattering(defect_matrix(r_flip_defect(-r)), k).matrix)
        assert np.abs(p_plus - p_minus[np.ix_(spin_swap, spin_swap)]).max() < 1e-12


def test_random_conserving_products_yield_unitary_s():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = rng.uniform(0.1, 20.0)
        transfer = compose(
            [
                defect_matrix(r_flip_defect(rng.uniform(-1, 1))),
                propagation(k, rng.uniform(0.1, 2.0)),
                defect_matrix(rtilde_flip_defect(rng.uniform(-1, 1))),
                propagation(k, rng.uniform(0.1, 2.0)),
            ]
        )
        s = transfer_to_scattering(transfer, k)
        assert s.unitarity_residual() < 1e-11


def test_non_conserving_transfer_rejected():
    with pytest.raises(InvalidTransferError):
        transfer_to_scattering(2.0 * np.eye(4), 1.0)


def test_singular_rearrangement_raises():
    with pytest.raises(SpectralSingularityError) as excinfo:
        transfer_to_scattering(SINGULAR_TRANSFER, 1.5, conservation_tol=np.inf)
    assert excinfo.value.k == 1.5


def test_stack_flags_only_the_singular_row():
    ks = np.array([0.3, 1.1, 1.5, 2.7, 9.0])
    specs = [r_flip_defect(0.4), x1_defect(2.0), None, rtilde_flip_defect(-0.7), r_flip_defect(1.3)]
    transfers = np.array(
        [SINGULAR_TRANSFER if spec is None else defect_matrix(spec) for spec in specs]
    )
    s, singular = channel_scattering(channel_blocks(transfers), ks)
    assert singular.tolist() == [False, False, True, False, False]
    assert np.isnan(s[2]).all()
    for i in (0, 1, 3, 4):
        alone = transfer_to_scattering(transfers[i], ks[i], conservation_tol=np.inf)
        assert np.array_equal(s[i], alone.matrix)


def test_stack_probabilities_and_residuals_match_single_matrices():
    ks = np.geomspace(0.1, 10.0, 7)
    transfers = np.array([defect_matrix(r_flip_defect(0.6)) @ propagation(k, 0.8) for k in ks])
    s, _ = channel_scattering(channel_blocks(transfers), ks)
    stack = ScatteringMatrix(matrix=s, k=ks)
    residuals = stack.unitarity_residual()
    probs = channel_probabilities(stack, "left_down")
    for i, k in enumerate(ks):
        alone = transfer_to_scattering(transfers[i], k)
        assert residuals[i] == alone.unitarity_residual()
        assert np.array_equal(probs[i], channel_probabilities(alone, "left_down"))


def test_stack_gate_raises_at_first_failing_momentum():
    ks = np.array([0.5, 1.0, 2.0])
    transfers = np.array([np.eye(4), 2.0 * np.eye(4), 3.0 * np.eye(4)])
    with pytest.raises(InvalidTransferError, match=r"does not conserve.*at k=1\.0 "):
        check_conservation(transfers, ks, 1e-10)


CONSERVATION_ROUTES = {
    "transfer_to_scattering": lambda tol: transfer_to_scattering(
        np.eye(4), 1.0, conservation_tol=tol
    ),
    "spectrum": lambda tol: spectrum(
        Device((r_flip_defect(0.5),)), [0.5, 1.0], conservation_tol=tol
    ),
    "spectrum_of_a_free_line": lambda tol: spectrum(Device(), [1.0], conservation_tol=tol),
}


@pytest.mark.parametrize("route", sorted(CONSERVATION_ROUTES))
@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_conservation_tol_must_be_positive(route, tol):
    # a nan gate would flag nothing, and a negative one every transfer
    with pytest.raises(ParameterDomainError, match=rf"^conservation_tol must be > 0, got {tol}$"):
        CONSERVATION_ROUTES[route](tol)


@pytest.mark.parametrize("route", sorted(CONSERVATION_ROUTES))
@pytest.mark.parametrize("tol", ["1e-10", True, None], ids=["string", "bool", "none"])
def test_conservation_tol_must_be_a_number(route, tol):
    with pytest.raises(ParameterDomainError, match="^conservation_tol must be a number, got "):
        CONSERVATION_ROUTES[route](tol)


def test_transfer_acting_on_one_spin_rejected():
    # an x1 jump on spin up alone conserves the current but does not commute with the spin swap
    transfer = np.eye(4)
    transfer[1, 0] = 2.0
    with pytest.raises(InvalidTransferError, match=r"does not commute with the spin swap at k=1\.0 "):
        transfer_to_scattering(transfer, 1.0)


SINGLE_DEFECTS = [
    x1_defect(2.0),
    x4_defect(2.0),
    mass_jump_defect(2.0),
    flux_defect(0.3),
    r_flip_defect(2.0),
    rtilde_flip_defect(2.0),
]


@pytest.mark.parametrize("k", [1e-12, 1e12])
@pytest.mark.parametrize("spec", SINGLE_DEFECTS, ids=lambda spec: spec.kind.value)
def test_single_defects_at_extreme_momenta(spec, k):
    # the k-scaled transfer entries reach |x1|/k or |x4| k = 2e12 here
    s = transfer_to_scattering(defect_matrix(spec), k)
    assert s.unitarity_residual() <= 1e-14


@pytest.mark.parametrize("k", [1e-12, 1e12])
def test_flip_defect_at_extreme_momenta_matches_closed_form(k):
    s = transfer_to_scattering(defect_matrix(r_flip_defect(2.0)), k)
    expected = closed_form_to_grouped(closed_form_flip_smatrix(k, 2.0))
    assert np.abs(s.matrix - expected).max() <= 1e-15


def test_channel_blocks_round_trip():
    m = compose([defect_matrix(r_flip_defect(0.4)), defect_matrix(rtilde_flip_defect(-1.3))])
    channels = channel_blocks(m)
    assert channels.shape == (2, 2, 2)
    assert np.array_equal(channels[..., 0], m[:2, :2] + m[:2, 2:])
    assert np.array_equal(channels[..., 1], m[:2, :2] - m[:2, 2:])
    assert np.abs(channel_matrix(channels) - m).max() <= 1e-15
    # a stack keeps its momentum axis between the matrix entries and the channel
    stack = np.array([m, 2 * m, 4 * m])
    assert channel_blocks(stack).shape == (2, 2, 3, 2)
    assert np.array_equal(channel_blocks(stack)[:, :, 2], 4 * channels)
    assert np.abs(channel_matrix(channel_blocks(stack)) - stack).max() <= 4e-15


def test_overflowed_transfer_rejected():
    huge = np.full((4, 4), 1e200, dtype=complex)
    for transfer in (huge, np.full((4, 4), np.inf + 0j), np.full((4, 4), np.nan + 0j)):
        with pytest.raises(InvalidTransferError, match=r"overflowed at k=0\.01;") as excinfo:
            transfer_to_scattering(transfer, np.float64(0.01))
        assert "np.float64" not in str(excinfo.value)


def test_stack_shape_validation():
    # one transfer at one momentum: a stack, a 2x2 matrix or an array of momenta is rejected
    for transfer, k in [(np.zeros((2, 4, 4)), 1.0), (np.eye(2), 1.0), (np.eye(4), [1.0, 2.0])]:
        with pytest.raises(ParameterDomainError, match="^need one 4x4 transfer and one momentum"):
            transfer_to_scattering(transfer, k)
    with pytest.raises(ParameterDomainError, match=r"^momentum must be > 0, got 0\.0$"):
        transfer_to_scattering(np.eye(4), 0.0)


def test_channel_index_lookup():
    assert channel_index("left_up") == 0
    assert channel_index(3) == 3
    with pytest.raises(ParameterDomainError):
        channel_index("up_left")
    with pytest.raises(ParameterDomainError):
        channel_index(7)
    assert channel_index(np.int64(2)) == 2


@pytest.mark.parametrize("channel", [2.7, -0.5, 1.0, True, np.bool_(True), np.nan, None])
def test_channel_index_rejects_non_integer_channels(channel):
    with pytest.raises(ParameterDomainError, match="channel must be a name"):
        channel_index(channel)


def test_momentum_from_energy():
    assert momentum_from_energy(4.0) == pytest.approx(2.0)
    with pytest.raises(ParameterDomainError):
        momentum_from_energy(0.0)


def test_channel_probabilities_accepts_raw_matrix():
    s = closed_form_flip_smatrix(2.0, 1.0)
    assert np.allclose(channel_probabilities(s, 0), 0.25, atol=1e-14)
