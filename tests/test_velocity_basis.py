"""Basis construction, orthonormality and projection behavior.

Oracle values frozen before implementation:
  - sector-0 dimension for (radial_order=8, angular_max=4) is 40; for (12, 6) it is 84
  - (chi0, chi0) weighted at s=1 equals 2
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import genlaguerre

from kslab.velocity_basis import (
    BasisError,
    BasisSpec,
    VelocityFunction,
    build_basis,
    metric_matrix,
    project,
    v_multiplication_matrix,
    weighted_inner,
)


def _oracle_radial(n, l, r):
    # independent route: math.gamma + scipy polynomial object, no shared code path
    norm = math.sqrt(
        (2 * math.pi) ** 1.5 * 2 ** (-(l + 0.5)) * math.factorial(n) / math.gamma(n + l + 1.5)
    )
    lag = genlaguerre(n, l + 0.5)
    return norm * (2 * math.pi) ** (-0.75) * r**l * lag(0.5 * r * r) * np.exp(-0.25 * r * r)


def _oracle_radial_integral(n, l, np_, lp, extra_power=0):
    f = lambda r: _oracle_radial(n, l, r) * _oracle_radial(np_, lp, r) * r ** (2 + extra_power)
    val, err = quad(f, 0.0, 40.0, limit=400, epsabs=1e-12, epsrel=1e-11)
    assert err < 1e-7
    return val


def test_dimension_enumeration():
    b = build_basis(BasisSpec(radial_order=8, angular_max=4))
    assert b.dim0 == 40
    assert b.dim1 == 32
    assert b.dim == 40 + 2 * 32
    assert len(b.elements) == b.dim


def test_default_dimensions(basis_default):
    assert basis_default.dim0 == 84
    assert basis_default.dim1 == 72
    assert basis_default.dim == 228


def test_gram_is_identity(basis_default):
    dev = np.max(np.abs(basis_default.gram - np.eye(basis_default.dim)))
    assert dev <= 1e-10


def test_gram_identity_doubled_truncation():
    b = build_basis(BasisSpec(radial_order=24, angular_max=8))
    dev = np.max(np.abs(b.gram - np.eye(b.dim)))
    assert dev <= 1e-10


def test_chi_orthonormal_under_assembled_gram(basis_default):
    g = basis_default.gram
    for i in range(5):
        for j in range(5):
            val = basis_default.chi(i) @ g @ basis_default.chi(j)
            assert abs(val - (1.0 if i == j else 0.0)) <= 1e-10


def test_chi_functions_match_closed_forms(basis_default):
    # chi0 = sqrt(M), chi1 = v1 sqrt(M), chi4 = (|v|^2-3) sqrt(M)/sqrt(6) evaluated
    # pointwise on a small grid through the independent radial evaluator
    r = np.array([0.3, 1.0, 2.2])
    sqrt_m = (2 * math.pi) ** (-0.75) * np.exp(-0.25 * r * r)
    # axial elements carry Phi0_l(c) / sqrt(2 pi); at l=0 that's 1/sqrt(4 pi)
    chi0_vals = _oracle_radial(0, 0, r) * math.sqrt(1 / 2.0) / math.sqrt(2 * math.pi)
    assert np.allclose(chi0_vals, sqrt_m, rtol=1e-12)
    # chi4 = -(n=1, l=0) element
    lag_part = _oracle_radial(1, 0, r) * math.sqrt(1 / 2.0) / math.sqrt(2 * math.pi)
    assert np.allclose(-lag_part, (r * r - 3.0) / math.sqrt(6.0) * sqrt_m, rtol=1e-12)
    # chi1: l=1 element at c = 1 must equal r sqrt(M)
    c_factor = math.sqrt(3 / 2.0) / math.sqrt(2 * math.pi)  # Phi0_1(1) / sqrt(2 pi)
    chi1_vals = _oracle_radial(0, 1, r) * c_factor
    assert np.allclose(chi1_vals, r * sqrt_m, rtol=1e-12)


def test_projection_idempotence_and_complement(basis_default, rng):
    f = VelocityFunction(basis_default, rng.standard_normal(basis_default.dim))
    for which in ("P0", "P1", "Pd", "Pr"):
        once = project(basis_default, which, f)
        twice = project(basis_default, which, once)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) <= 1e-12
    total = project(basis_default, "P0", f).coeffs + project(basis_default, "P1", f).coeffs
    assert np.array_equal(total, f.coeffs)
    total_d = project(basis_default, "Pd", f).coeffs + project(basis_default, "Pr", f).coeffs
    assert np.array_equal(total_d, f.coeffs)


def test_weighted_inner_values(basis_default):
    chi0 = VelocityFunction(basis_default, basis_default.chi(0))
    assert weighted_inner(basis_default, chi0, chi0, 1.0) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(BasisError):
        weighted_inner(basis_default, chi0, chi0, 0.0)
    g = metric_matrix(basis_default, 0.5)
    manual = basis_default.chi(0) @ g @ basis_default.chi(0)
    assert manual == pytest.approx(1.0 + 1 / 0.25, rel=1e-14)


def test_v_multiplication_symmetry(basis_default):
    for sector in (0, 1):
        v = v_multiplication_matrix(basis_default, sector)
        assert np.max(np.abs(v - v.T)) <= 1e-12


def test_v_multiplication_known_action(basis_default):
    # v1 * chi0 = chi1 exactly in this basis
    v0 = v_multiplication_matrix(basis_default, 0)
    col = v0 @ basis_default.chi(0)[basis_default.slice_axial]
    expect = basis_default.chi(1)[basis_default.slice_axial]
    assert np.max(np.abs(col - expect)) <= 1e-12


def test_v_multiplication_entry_against_quadrature(basis_default):
    # generic sector-0 entry: <v1 e_{n=2,l=1}, e_{n=1,l=2}>
    v0 = v_multiplication_matrix(basis_default, 0)
    i = basis_default.index(0, "axial", 1, 2)
    j = basis_default.index(0, "axial", 2, 1)
    radial = _oracle_radial_integral(1, 2, 2, 1, extra_power=1)
    # angular factor: int c Phi0_2 Phi0_1 dc
    c, wc = np.polynomial.legendre.leggauss(24)
    p1 = np.sqrt(3 / 2.0) * c
    p2 = np.sqrt(5 / 2.0) * 0.5 * (3 * c * c - 1)
    angular = np.sum(wc * c * p1 * p2)
    assert v0[i, j] == pytest.approx(radial * angular, rel=1e-9)


def test_v_multiplication_transverse_entry(basis_default):
    v1 = v_multiplication_matrix(basis_default, 1)
    nr = basis_default.spec.radial_order
    # entry between (n=0,l=1) and (n=0,l=2) in the transverse sector
    i, j = 0 * nr + 0, 1 * nr + 0
    radial = _oracle_radial_integral(0, 1, 0, 2, extra_power=1)
    c, wc = np.polynomial.legendre.leggauss(24)
    f1 = np.sqrt(3.0 / 4.0) * np.sqrt(1 - c * c)
    f2 = np.sqrt(5.0 / 12.0) * 3.0 * c * np.sqrt(1 - c * c)
    angular = np.sum(wc * c * f1 * f2)
    assert v1[i, j] == pytest.approx(radial * angular, rel=1e-9)


def test_build_basis_validation():
    with pytest.raises(BasisError):
        build_basis(BasisSpec(radial_order=1))
    with pytest.raises(BasisError):
        build_basis(BasisSpec(angular_max=0))
    with pytest.raises(BasisError):
        build_basis(BasisSpec(quad_points=5))
    with pytest.raises(TypeError):
        BasisSpec(sectors=(0,))
    with pytest.raises(BasisError):
        build_basis(BasisSpec(quad_points=400))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weighted_inner_is_sesquilinear(basis_small, data):
    dim = basis_small.dim
    seed = data.draw(st.integers(0, 2**31 - 1))
    s = data.draw(st.floats(0.05, 8.0))
    a = data.draw(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    gen = np.random.default_rng(seed)
    f = VelocityFunction(basis_small, gen.standard_normal(dim) + 1j * gen.standard_normal(dim))
    g = VelocityFunction(basis_small, gen.standard_normal(dim) + 1j * gen.standard_normal(dim))
    h = VelocityFunction(basis_small, gen.standard_normal(dim) + 1j * gen.standard_normal(dim))
    lhs = weighted_inner(basis_small, VelocityFunction(basis_small, a * f.coeffs + h.coeffs), g, s)
    rhs = a * weighted_inner(basis_small, f, g, s) + weighted_inner(basis_small, h, g, s)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
    sym = weighted_inner(basis_small, g, f, s)
    assert abs(np.conj(sym) - weighted_inner(basis_small, f, g, s)) <= 1e-9 * max(1.0, abs(sym))
    norm2 = weighted_inner(basis_small, f, f, s)
    assert norm2.real > 0
    assert abs(norm2.imag) <= 1e-9 * norm2.real


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_projection_orthogonality_property(basis_small, seed):
    gen = np.random.default_rng(seed)
    f = VelocityFunction(basis_small, gen.standard_normal(basis_small.dim))
    p0 = project(basis_small, "P0", f)
    p1 = project(basis_small, "P1", f)
    assert abs(p0.inner(p1)) <= 1e-10 * max(1.0, f.norm() ** 2)
