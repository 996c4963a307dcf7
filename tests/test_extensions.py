"""Boundary matrices, current forms, and conservation checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinpoint import (
    DefectKind,
    DefectSpec,
    ParameterDomainError,
    compose,
    conserves_currents,
    current_forms,
    defect_matrix,
    flux_defect,
    mass_jump_defect,
    mu_from_x2,
    phi_from_x3,
    product_defect,
    r_flip_defect,
    rtilde_flip_defect,
    x1_defect,
    x2_from_mu,
    x3_from_phi,
    x4_defect,
)
from spinpoint.extensions import current_residual

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_current_form_entries():
    fx, fy, fz = current_forms()
    assert fx.matrix[0, 1] == -1j
    assert fy.matrix[0, 1] == -1
    assert fy.matrix[2, 3] == 1
    assert fz.matrix[0, 3] == -1j


def test_current_forms_hermitian_and_x_invertible():
    for form in current_forms():
        assert np.array_equal(form.matrix, form.matrix.conj().T)
    fx = current_forms()[0].matrix
    assert abs(np.linalg.det(fx)) == pytest.approx(1.0)


def test_r_flip_zero_is_identity():
    assert np.array_equal(defect_matrix(r_flip_defect(0.0)), np.eye(4))


def test_r_flip_matrix_entries():
    m = defect_matrix(r_flip_defect(2.0))
    expected = np.eye(4, dtype=complex)
    expected[0, 3] = 2.0
    expected[2, 1] = 2.0
    assert np.array_equal(m, expected)


def test_rtilde_flip_matrix_entries():
    m = defect_matrix(rtilde_flip_defect(1.0))
    expected = np.eye(4, dtype=complex)
    expected[1, 2] = 1.0
    expected[3, 0] = 1.0
    assert np.array_equal(m, expected)


def test_flux_half_is_global_i():
    # strength 2 corresponds to flux fraction 1/2: (2+2i)/(2-2i) = i
    assert phi_from_x3(2.0) == pytest.approx(0.5)
    m = defect_matrix(flux_defect(0.5))
    assert np.allclose(m, 1j * np.eye(4), atol=1e-15)


def test_spinless_kinds_lift_to_both_spin_blocks():
    m = defect_matrix(x1_defect(1.7))
    assert np.array_equal(m[:2, :2], m[2:, 2:])
    assert np.all(m[:2, 2:] == 0) and np.all(m[2:, :2] == 0)
    assert m[1, 0] == 1.7
    m = defect_matrix(x4_defect(0.9))
    assert m[0, 1] == -0.9
    m = defect_matrix(mass_jump_defect(3.0))
    assert m[0, 0] == 3.0 and m[1, 1] == pytest.approx(1 / 3)


@pytest.mark.parametrize(
    "spec",
    [
        x1_defect(2.5),
        x4_defect(-1.2),
        mass_jump_defect(0.3),
        flux_defect(0.7),
        r_flip_defect(1.4),
        rtilde_flip_defect(-0.6),
    ],
)
def test_generator_determinant_modulus_one(spec):
    assert abs(np.linalg.det(defect_matrix(spec))) == pytest.approx(1.0, abs=1e-12)


def test_compose_group_law_example():
    m = compose([defect_matrix(r_flip_defect(1.0)), defect_matrix(r_flip_defect(2.0))])
    assert np.array_equal(m, defect_matrix(r_flip_defect(3.0)))


def test_compose_identity():
    assert np.array_equal(compose([np.eye(4)]), np.eye(4))


def test_compose_flux_decouples():
    r, phi = 0.8, 0.37
    m = compose([defect_matrix(r_flip_defect(r)), defect_matrix(flux_defect(phi))])
    expected = np.exp(1j * np.pi * phi) * defect_matrix(r_flip_defect(r))
    assert np.abs(m - expected).max() < 1e-14


def test_compose_empty_is_usage_error():
    with pytest.raises(ValueError):
        compose([])


def test_product_defect_ordering():
    factors = [rtilde_flip_defect(0.3), r_flip_defect(0.7), mass_jump_defect(2.0)]
    m = defect_matrix(product_defect(factors))
    expected = compose([defect_matrix(f) for f in factors])
    assert np.array_equal(m, expected)


def test_conserves_identity():
    report = conserves_currents(np.eye(4))
    assert (report.x, report.y, report.z) == (True, True, True)
    assert report.all_conserved


def test_conserves_r_flip():
    report = conserves_currents(defect_matrix(r_flip_defect(0.7)))
    assert (report.x, report.y, report.z) == (True, True, True)


def test_x1_lift_fails_transverse_currents():
    # Derived by direct 4x4 arithmetic: the y-residual matrix is
    # blockdiag(-[[2*x1,0],[0,0]], [[2*x1,0],[0,0]]), max-abs 2|x1|.
    x1 = 1.0
    m = defect_matrix(x1_defect(x1))
    report = conserves_currents(m)
    assert (report.x, report.y, report.z) == (True, False, False)
    assert report.residuals[0] < 1e-15
    assert report.residuals[1] == pytest.approx(2 * abs(x1))
    assert report.residuals[2] == pytest.approx(2 * abs(x1))
    fy = current_forms()[1].matrix
    res = m.conj().T @ fy @ m - fy
    assert res[0, 0] == pytest.approx(-2 * x1)
    assert res[2, 2] == pytest.approx(2 * x1)
    assert np.count_nonzero(np.abs(res) > 1e-15) == 2


def test_x4_lift_fails_transverse_currents():
    report = conserves_currents(defect_matrix(x4_defect(0.6)))
    assert (report.x, report.y, report.z) == (True, False, False)
    assert report.residuals[1] == pytest.approx(1.2)


def test_current_residual_serves_one_matrix_and_a_stack():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    for form in [f.matrix for f in current_forms()] + [np.eye(4)]:
        batched = current_residual(stack, form)
        assert batched.shape == (6,)
        for m, value in zip(stack, batched):
            assert value == current_residual(m, form)
            assert value == np.abs(m.conj().T @ form @ m - form).max()
    for m in stack:
        report = conserves_currents(m, tol=1.0)
        assert report.residuals == tuple(float(current_residual(m, f.matrix)) for f in current_forms())
        assert current_residual(m, np.eye(4)) == np.abs(m.conj().T @ m - np.eye(4)).max()


@given(
    parts=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(16), st.just(2)), elements=finite),
    nan_rows=st.lists(st.booleans(), min_size=6, max_size=6),
)
@settings(max_examples=100)
def test_identity_residual_equals_explicit_identity_form(parts, nan_rows):
    stack = (parts[..., 0] + 1j * parts[..., 1]).reshape(-1, 4, 4)
    stack[np.array(nan_rows[: len(stack)])] = np.nan
    expected = current_residual(stack, np.eye(4))
    assert np.array_equal(current_residual(stack), expected, equal_nan=True)
    for m, value in zip(stack, expected):
        assert np.array_equal(current_residual(m), value, equal_nan=True)


def test_conserves_tol_validation():
    with pytest.raises(ParameterDomainError):
        conserves_currents(np.eye(4), tol=0.0)


@given(
    kind=st.sampled_from(["x1", "x4", "mass_jump", "flux", "r_flip", "rtilde_flip"]),
    value=finite,
    mu=st.floats(min_value=0.1, max_value=10, exclude_min=True),
)
@settings(max_examples=100)
def test_every_generator_conserves_longitudinal_current(kind, value, mu):
    spec = {
        "x1": lambda: x1_defect(value),
        "x4": lambda: x4_defect(value),
        "mass_jump": lambda: mass_jump_defect(mu),
        "flux": lambda: flux_defect(value),
        "r_flip": lambda: r_flip_defect(value),
        "rtilde_flip": lambda: rtilde_flip_defect(value),
    }[kind]()
    report = conserves_currents(defect_matrix(spec), tol=1e-13)
    assert report.x
    assert report.residuals[0] < 1e-13


_conserving_factor = st.one_of(
    st.builds(r_flip_defect, st.floats(min_value=-2, max_value=2)),
    st.builds(rtilde_flip_defect, st.floats(min_value=-2, max_value=2)),
    st.builds(mass_jump_defect, st.floats(min_value=0.4, max_value=2.5)),
    st.builds(flux_defect, st.floats(min_value=-2, max_value=2)),
)


@given(st.lists(_conserving_factor, min_size=1, max_size=3))
@settings(max_examples=100)
def test_products_of_conserving_kinds_conserve_all_currents(factors):
    report = conserves_currents(defect_matrix(product_defect(factors)), tol=1e-12)
    assert report.all_conserved


@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
def test_flip_group_law_exact(r1, r2):
    product = defect_matrix(r_flip_defect(r1)) @ defect_matrix(r_flip_defect(r2))
    assert np.array_equal(product, defect_matrix(r_flip_defect(r1 + r2)))


def test_mass_jump_strength_conversion():
    assert x2_from_mu(1.0) == 0.0
    assert x2_from_mu(3.0) == pytest.approx(1.0)
    assert mu_from_x2(1.0) == pytest.approx(3.0)
    assert mu_from_x2(x2_from_mu(0.42)) == pytest.approx(0.42)


def test_mass_jump_conversion_domains():
    with pytest.raises(ParameterDomainError):
        x2_from_mu(-1.0)
    with pytest.raises(ParameterDomainError):
        mu_from_x2(2.0)


def test_flux_strength_conversion_round_trip():
    for phi in (-0.9, -0.25, 0.0, 0.3, 0.5, 0.99):
        assert phi_from_x3(x3_from_phi(phi)) == pytest.approx(phi, abs=1e-12)
    with pytest.raises(ParameterDomainError):
        x3_from_phi(1.0)


def test_defect_spec_validation():
    with pytest.raises(ParameterDomainError):
        mass_jump_defect(-2.0)
    with pytest.raises(ParameterDomainError):
        product_defect([])
    with pytest.raises(ParameterDomainError):
        DefectSpec(DefectKind.X1, factors=(x1_defect(1.0),))


def test_defect_spec_holds_one_value_per_kind():
    assert [f.name for f in dataclasses.fields(DefectSpec)] == ["kind", "value", "factors"]
    assert x1_defect(1) == DefectSpec(DefectKind.X1, 1.0) and type(x1_defect(1).value) is float
    with pytest.raises(ParameterDomainError, match="^parameter 'x1' of a x1 defect must be a num"):
        DefectSpec(DefectKind.X1)
    with pytest.raises(ParameterDomainError, match="^product defect takes no value"):
        DefectSpec(DefectKind.PRODUCT, 1.0, factors=(x1_defect(1.0),))
    with pytest.raises(ParameterDomainError, match="^product factors must be DefectSpec"):
        DefectSpec(DefectKind.PRODUCT, factors=(1.0,))
