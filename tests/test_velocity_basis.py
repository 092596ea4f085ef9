"""Basis construction, orthonormality and projection behavior.

Oracle values frozen before implementation:
  - sector-0 dimension for (radial_order=8, angular_max=4) is 40; for (12, 6) it is 84
  - (chi0, chi0) weighted at s=1 equals 2

The weighted inner product is the electromagnetic generator's
(oracles.weighted_inner on ModeOperator.metric_diag): its metric charges the
density coefficient 1 + 1/s^2 and every other coordinate 1.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, genlaguerre

from kslab.mode_operators import assemble_A_tilde
from kslab.velocity_basis import (
    SECTOR_AXIAL,
    BasisError,
    BasisSpec,
    _finite_array,
    _finite_complex_array,
    _gauss_legendre,
    _laguerre_rows,
    _legendre_row,
    _line_fit,
    _panel_quadrature,
    build_basis,
    v_multiplication_matrix,
)

import oracles


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


def test_default_dimensions(basis_default):
    assert basis_default.dim0 == 84
    assert basis_default.dim1 == 72
    assert basis_default.dim == 228


def test_gram_is_identity(basis_default):
    dev = np.max(np.abs(oracles.gram_matrix(basis_default) - np.eye(basis_default.dim)))
    assert dev <= 1e-10


def test_gram_identity_doubled_truncation():
    b = build_basis(BasisSpec(radial_order=24, angular_max=8))
    dev = np.max(np.abs(oracles.gram_matrix(b) - np.eye(b.dim)))
    assert dev <= 1e-10


def test_chi_orthonormal_under_assembled_gram(basis_default):
    g = oracles.gram_matrix(basis_default)
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


@pytest.mark.parametrize("j", [True, False, 1.0, "1", None, 5, -1])
def test_chi_rejects_non_invariant_indices(basis_small, j):
    # a bool is not the invariant index 1 (or 0), nor is a float or str
    with pytest.raises(BasisError, match="chi index"):
        basis_small.chi(j)


def test_chi_accepts_numpy_integers(basis_small):
    assert np.array_equal(basis_small.chi(np.int64(1)), basis_small.chi(1))


def test_projection_idempotence_and_complement(basis_default, rng):
    f = rng.standard_normal(basis_default.dim)
    for which in ("P0", "P1"):
        p = basis_default.projection_matrix(which)
        once = p @ f
        assert np.max(np.abs(p @ once - once)) <= 1e-12
    p0, p1 = basis_default.projection_matrix("P0"), basis_default.projection_matrix("P1")
    assert np.array_equal(p0 + p1, np.eye(basis_default.dim))
    with pytest.raises(BasisError):
        basis_default.projection_matrix("P2")


def _field_state(op, kinetic):
    u = np.zeros(op.dim, dtype=complex)
    u[:kinetic.size] = kinetic
    return u


def test_weighted_inner_values(collision_small):
    chi0 = collision_small.basis.chi(0)
    op = assemble_A_tilde(1.0, 0.1, collision_small)
    u = _field_state(op, chi0)
    assert oracles.weighted_inner(op, u, u) == pytest.approx(2.0, abs=1e-14)
    op = assemble_A_tilde(0.5, 0.1, collision_small)
    assert op.metric_diag[0] == 1.0 + 1 / 0.25
    u = _field_state(op, chi0)
    assert oracles.weighted_inner(op, u, u) == pytest.approx(1.0 + 1 / 0.25, rel=1e-14)


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


@pytest.mark.parametrize("sector", [7, 2, -1, True, False, 1.0, "0", None])
def test_v_multiplication_rejects_bad_sector(basis_small, sector):
    with pytest.raises(BasisError, match="sector must be"):
        v_multiplication_matrix(basis_small, sector)


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
    with pytest.raises(TypeError):
        BasisSpec(sectors=(0,))
    # the radial rule is sized by the truncation alone
    with pytest.raises(TypeError):
        BasisSpec(quad_points=40)


@pytest.mark.parametrize("spec", [
    BasisSpec(radial_order=6.5, angular_max=3),
    BasisSpec(radial_order="6", angular_max=3),
    BasisSpec(radial_order=6, angular_max=3.0),
    BasisSpec(radial_order=True, angular_max=3),
], ids=["radial-fraction", "radial-string", "angular-float", "radial-bool"])
def test_build_basis_rejects_non_integer_sizes(spec):
    with pytest.raises(BasisError, match="must be an integer"):
        build_basis(spec)


@pytest.mark.parametrize("call", [
    pytest.param(lambda basis: build_basis(None), id="build_basis-None"),
    pytest.param(lambda basis: build_basis((6, 3)), id="build_basis-tuple"),
    pytest.param(lambda basis: v_multiplication_matrix(None, SECTOR_AXIAL), id="v-None"),
    pytest.param(lambda basis: v_multiplication_matrix(basis.spec, SECTOR_AXIAL),
                 id="v-spec"),
])
def test_wrong_record_types_rejected(basis_small, call):
    with pytest.raises(BasisError, match="expected Basis"):
        call(basis_small)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weighted_inner_is_sesquilinear(collision_small, data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    s = data.draw(st.floats(0.05, 8.0))
    a = data.draw(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    op = assemble_A_tilde(s, 0.1, collision_small)
    gen = np.random.default_rng(seed)
    f, g, h = gen.standard_normal((3, op.dim)) + 1j * gen.standard_normal((3, op.dim))
    lhs = oracles.weighted_inner(op, a * f + h, g)
    rhs = a * oracles.weighted_inner(op, f, g) + oracles.weighted_inner(op, h, g)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
    sym = oracles.weighted_inner(op, g, f)
    assert abs(np.conj(sym) - oracles.weighted_inner(op, f, g)) <= 1e-9 * max(1.0, abs(sym))
    norm2 = oracles.weighted_inner(op, f, f)
    assert norm2.real > 0
    assert abs(norm2.imag) <= 1e-9 * norm2.real


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_projection_orthogonality_property(basis_small, seed):
    f = np.random.default_rng(seed).standard_normal(basis_small.dim)
    p0 = basis_small.projection_matrix("P0") @ f
    p1 = basis_small.projection_matrix("P1") @ f
    assert abs(np.vdot(p1, p0)) <= 1e-10 * max(1.0, np.linalg.norm(f) ** 2)


def test_laguerre_rows_match_scipy_bitwise():
    # the inner nodes of the gain-kernel quadrature at BasisSpec(24, 6)
    spec = BasisSpec(24, 6)
    r = build_basis(spec).quad.r
    xg, _ = np.polynomial.legendre.leggauss(max(64, 3 * spec.radial_order + 4 * spec.angular_max))
    u = 0.5 * (0.5 * r[:, None] * (xg[None, :] + 1.0)).ravel() ** 2
    for l in range(7):
        rows = _laguerre_rows(31, l + 0.5, u)
        for n in range(31):
            assert np.array_equal(rows[n], eval_genlaguerre(n, l + 0.5, u)), (n, l)
    assert _laguerre_rows(1, 0.5, u).shape == (1, u.size)


def test_radial_table_matches_oracle(basis_small):
    r = np.linspace(0.0, 6.0, 13)
    tab = basis_small.radial_table(2, r)
    assert tab.shape == (basis_small.spec.radial_order, r.size)
    for n in range(basis_small.spec.radial_order):
        assert np.allclose(tab[n], _oracle_radial(n, 2, r), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("m", range(5))
def test_legendre_rows_orthonormal(m):
    # products of two rows are polynomials of degree <= 12: exact on 8 Gauss nodes
    c, wc = np.polynomial.legendre.leggauss(8)
    rows = np.stack([_legendre_row(l, m, c) for l in range(m, 7)])
    assert np.allclose((rows * wc) @ rows.T, np.eye(rows.shape[0]), rtol=0.0, atol=1e-13)
    # no Condon-Shortley sign: the lowest row is (2m - 1)!! (1 - c^2)^(m/2) > 0 times N
    assert np.all(rows[0] > 0.0)


@pytest.mark.parametrize("value, real, numeric", [
    (1.0, True, True), (3, True, True), (np.float32(2.0), True, True), ([], True, True),
    ([1.0, 2.0], True, True), (np.arange(4, dtype=np.uint8), True, True),
    (np.ones((2, 3)), True, True),
    (1.0j, False, True), ([1.0, 2.0j], False, True),
    (math.nan, False, False), ([1.0, math.inf], False, False),
    (complex(0.0, math.nan), False, False),
    (True, False, False), (np.ones(2, dtype=bool), False, False),
    ("1", False, False), (["1.0", "2.0"], False, False), (None, False, False),
    ([1.0, None], False, False), (np.array([1.0], dtype=object), False, False),
    ([[1.0], [1.0, 2.0]], False, False), ([2.0, True], False, False),
    ([np.ones(2), np.zeros(2, dtype=bool)], False, False), ([np.ones(2), [3, 4]], True, True),
], ids=["float", "int", "float32", "empty", "list", "uint8", "matrix", "complex",
        "complex-entry", "nan", "inf-entry", "complex-nan", "bool", "bool-array", "str",
        "str-entries", "none", "none-entry", "object", "ragged", "bool-entry",
        "bool-array-entry", "nested-arrays"])
def test_array_predicates(value, real, numeric):
    # the one finiteness check behind every array boundary: bools, strings,
    # None, objects and ragged nestings are not numbers
    assert _finite_array(value) is real
    assert _finite_complex_array(value) is numeric


def test_gauss_legendre_interval_map():
    s, w = _gauss_legendre(8, 3.0)
    assert s.shape == w.shape == (8,)
    assert 0.0 < s.min() and s.max() < 3.0
    # exact for polynomials of degree <= 15
    assert w @ s**15 == pytest.approx(3.0**16 / 16.0, rel=1e-13)
    # a column of tops gives one interval per row, each the scalar map's bits
    tops = np.array([0.5, 2.0, 7.0])
    rows, row_w = _gauss_legendre(8, tops[:, None])
    assert rows.shape == row_w.shape == (3, 8)
    for i, top in enumerate(tops):
        s_i, w_i = _gauss_legendre(8, top)
        assert np.array_equal(rows[i], s_i) and np.array_equal(row_w[i], w_i)


class _RuleError(RuntimeError):
    """The error type a caller hands to _panel_quadrature and _line_fit."""


class TestPanelQuadrature:
    def test_rows_integrate_separately(self):
        # (row + 1) e^{-x} over three rows of base panels, the last one empty;
        # one integrand call per rule over the nodes of every row
        edges = np.array([[0.0, 1.0, 3.0], [0.0, 0.5, 4.0], [0.0, 0.0, 0.0]])
        calls = []

        def integrand(rows, x):
            calls.append(len(x))
            return (rows + 1.0) * np.exp(-x)

        sums = _panel_quadrature(edges, 0.75, 6, 1e-12, integrand, _RuleError)
        # 2 + 3, 1 + 5 and 1 + 1 pieces no wider than 0.75, each bisected by the check
        assert calls == [6 * 13, 12 * 13]
        assert sums[0] == pytest.approx(-math.expm1(-3.0), rel=1e-14)
        assert sums[1] == pytest.approx(-2.0 * math.expm1(-4.0), rel=1e-14)
        assert sums[2] == 0.0

    def test_disagreeing_rules_raise_the_callers_error(self):
        # cos(60 x) on one piece of width 1: the 4-point rule and its bisection differ
        with pytest.raises(_RuleError, match="too rough"):
            _panel_quadrature([0.0, 1.0], 1.0, 4, 1e-8, lambda rows, x: np.cos(60.0 * x),
                              _RuleError)

    def test_node_budget_is_checked_before_any_call(self):
        calls = []
        with pytest.raises(_RuleError, match="nodes"):
            _panel_quadrature([0.0, 120.0], 8e-9, 10, 1e-7,
                              lambda rows, x: calls.append(len(x)), _RuleError)
        assert not calls


class TestLineFit:
    def test_exact_line_through_log_y(self):
        x = np.linspace(0.0, 3.0, 7)
        slope, intercept, ci, rss = _line_fit(x, 2.0 * np.exp(-1.5 * x), _RuleError)
        assert slope == pytest.approx(-1.5, rel=1e-14)
        assert intercept == pytest.approx(math.log(2.0), rel=1e-14)
        assert rss < 1e-28 and ci < 1e-13

    def test_noisy_line_against_the_closed_form(self):
        # the normal-equation slope and the textbook slope interval
        rng = np.random.default_rng(5)
        x = np.linspace(1.0, 9.0, 12)
        ly = 0.3 - 0.8 * x + 0.05 * rng.standard_normal(12)
        slope, intercept, ci, rss = _line_fit(x, np.exp(ly), _RuleError)
        xc = x - x.mean()
        want = xc @ ly / (xc @ xc)
        resid = ly - (ly.mean() + want * xc)
        assert slope == pytest.approx(want, rel=1e-12)
        assert intercept == pytest.approx(ly.mean() - want * x.mean(), rel=1e-12)
        assert rss == pytest.approx(resid @ resid, rel=1e-10)
        assert ci == pytest.approx(1.96 * math.sqrt(rss / 10 / (xc @ xc)), rel=1e-10)

    def test_takes_four_samples(self):
        assert _line_fit([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 0.125], _RuleError)[0] == (
            pytest.approx(-math.log(2.0), rel=1e-14))

    @pytest.mark.parametrize("x, y, match", [
        ([0.0, 1.0, 2.0], [1.0, 0.5, 0.25], "at least 4"),
        ([], [], "at least 4"),
        ([0.0, 1.0, 2.0, math.inf], [1.0, 0.5, 0.25, 0.1], "at least 4 finite"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, math.nan, 0.25, 0.1], "at least 4 finite"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.0, 0.1], "positive"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, -0.5, 0.25, 0.1], "positive"),
        ([0.0, 1.0, 2.0, 3.0], np.zeros(4), "positive"),
        ([2.0, 2.0, 2.0, 2.0], [1.0, 0.5, 0.25, 0.1], "degenerate"),
        ([2.0, 2.0, 2.0, 2.0 + 1e-13], [1.0, 0.5, 0.25, 0.1], "degenerate"),
    ], ids=["three", "empty", "x-inf", "y-nan", "y-zero", "y-negative", "all-zero",
            "repeated", "span-1e-13"])
    def test_refusals_raise_the_callers_error(self, x, y, match):
        with pytest.raises(_RuleError, match=match):
            _line_fit(x, y, _RuleError)


# ---------------------------------------------------------------------------
# boundary contract: every exported callable and every public Basis method,
# with BasisError as the module's documented error for bad input
# ---------------------------------------------------------------------------

_R = np.array([0.5, 1.0, 2.0])


def _index(basis, sector=0, copy="axial", n=0, l=1):
    return basis.index(sector, copy, n, l)


def _radial(basis, l=1, r=_R):
    return basis.radial_table(l, r)


_BAD_CALLS = {
    "build_basis": {
        "spec-none": lambda b: build_basis(None),
        "spec-tuple": lambda b: build_basis((6, 3)),
        "radial-one": lambda b: build_basis(BasisSpec(1, 3)),
        "radial-fraction": lambda b: build_basis(BasisSpec(6.5, 3)),
        "radial-bool": lambda b: build_basis(BasisSpec(True, 3)),
        "angular-zero": lambda b: build_basis(BasisSpec(6, 0)),
        "angular-str": lambda b: build_basis(BasisSpec(6, "3")),
        # 2 * 84 + 1 + 12 = 181 radial points, one above _MAX_QUAD
        "quadrature-above-limit": lambda b: build_basis(BasisSpec(84, 1)),
    },
    "v_multiplication_matrix": {
        "basis-none": lambda b: v_multiplication_matrix(None, SECTOR_AXIAL),
        "sector-two": lambda b: v_multiplication_matrix(b, 2),
        "sector-bool": lambda b: v_multiplication_matrix(b, True),
    },
    "Basis.index": {
        "sector-five": lambda b: _index(b, sector=5, copy="cos"),
        "sector-bool": lambda b: _index(b, sector=True, copy="cos"),
        "sector-none": lambda b: _index(b, sector=None),
        "copy-tan": lambda b: _index(b, sector=1, copy="tan"),
        "copy-axial-transverse": lambda b: _index(b, sector=1, copy="axial"),
        "copy-cos-axial": lambda b: _index(b, copy="cos"),
        "copy-list": lambda b: _index(b, sector=1, copy=["cos"]),
        "n-out-of-range": lambda b: _index(b, n=99, l=0),
        "n-negative": lambda b: _index(b, n=-1),
        "n-bool": lambda b: _index(b, n=True),
        "n-float": lambda b: _index(b, n=1.0),
        "l-negative": lambda b: _index(b, l=-1),
        "l-above-max": lambda b: _index(b, l=b.spec.angular_max + 1),
        "l-zero-transverse": lambda b: _index(b, sector=1, copy="cos", l=0),
        "l-str": lambda b: _index(b, l="1"),
    },
    "Basis.chi": {
        "j-five": lambda b: b.chi(5),
        "j-bool": lambda b: b.chi(True),
        "j-float": lambda b: b.chi(1.0),
    },
    "Basis.projection_matrix": {
        "which-p2": lambda b: b.projection_matrix("P2"),
        "which-none": lambda b: b.projection_matrix(None),
        "which-list": lambda b: b.projection_matrix(["P0"]),
    },
    "Basis.radial_table": {
        "l-negative": lambda b: _radial(b, l=-1),
        "l-fraction": lambda b: _radial(b, l=1.5),
        "l-bool": lambda b: _radial(b, l=True),
        "l-above-max": lambda b: _radial(b, l=b.spec.angular_max + 1),
        "r-nan": lambda b: _radial(b, r=[math.nan]),
        "r-inf": lambda b: _radial(b, r=np.array([1.0, math.inf])),
        "r-negative": lambda b: _radial(b, r=[-0.5]),
        "r-str": lambda b: _radial(b, r=["1.0"]),
        "r-complex": lambda b: _radial(b, r=[1.0j]),
        "r-bool": lambda b: _radial(b, r=[True]),
        "r-none": lambda b: _radial(b, r=None),
        "r-ragged": lambda b: _radial(b, r=[[1.0], [1.0, 2.0]]),
    },
}
# exported names that take no caller input of their own
_NOT_ENTRY_POINTS = {
    "BasisError": "the module's error type",
    "BasisSpec": "the record build_basis checks; building one checks nothing",
    "Basis": "the record build_basis returns; its public methods are in the table",
}


class TestBoundaryContract:
    """Every exported callable of velocity_basis and every public Basis method
    rejects bad input with BasisError."""

    def test_table_covers_the_exports(self):
        import kslab
        from kslab import velocity_basis as vb

        exported = {name for name, obj in vars(kslab).items()
                    if callable(obj) and getattr(obj, "__module__", None) == vb.__name__}
        methods = {f"Basis.{name}" for name, obj in vars(vb.Basis).items()
                   if callable(obj) and not name.startswith("_")}
        assert exported | methods == set(_BAD_CALLS) | set(_NOT_ENTRY_POINTS)
        assert not set(_BAD_CALLS) & set(_NOT_ENTRY_POINTS)

    @pytest.mark.parametrize("name, case", [(name, case) for name, rows in _BAD_CALLS.items()
                                            for case in rows])
    def test_bad_input_raises_basis_error(self, basis_small, name, case):
        with pytest.raises(BasisError):
            _BAD_CALLS[name][case](basis_small)

    def test_table_calls_are_valid_when_repaired(self, basis_small):
        # the helpers behind the rows succeed on good input, so each row fails
        # for its one bad argument
        b = basis_small
        nr = b.spec.radial_order
        assert _index(b) == nr
        assert _index(b, sector=1, copy="sin", n=2, l=1) == b.dim0 + b.dim1 + 2
        assert _radial(b).shape == (nr, _R.size)
        assert _radial(b, l=0, r=[0.0]).shape == (nr, 1)

    def test_largest_radial_rule_builds(self):
        # 2 * 83 + 1 + 12 = 179 radial points, within _MAX_QUAD = 180
        basis = build_basis(BasisSpec(83, 1))
        assert basis.quad.r.size == 179
