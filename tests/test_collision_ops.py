"""Collision operator tests.

Frozen oracle values, derived independently of the implementation:

  nu(0)           = 2 sqrt(2 pi)          = 5.0132565492620005
  k1(|v|=1, v*=0) = (2/sqrt(2 pi)) e^(-1/4) = 0.6213931207538556
  nu(r)/r -> pi for large r (total cross section of the unit sphere)

The loss-integral oracle below recomputes nu by direct two-dimensional
quadrature of pi * |v - v*| M(v*); the kernel-moment oracle recomputes the
per-degree reductions by adaptive quadrature in the angle variable.
"""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import block_diag
from scipy.special import eval_genlaguerre, eval_legendre

from kslab import collision_ops
from kslab.collision_ops import (
    AssemblyError,
    assemble_collision,
    collision_inverse,
    gamma_apply,
    null_coordinates,
)
from kslab.velocity_basis import (
    SECTOR_AXIAL,
    SECTOR_TRANSVERSE,
    Basis,
    BasisSpec,
    _gauss_legendre,
    _radial_norm,
    build_basis,
    v_multiplication_matrix,
)

import oracles
from oracles import kernel_eval, nu_eval, reduced_kernel_tables

NU_ZERO = 5.0132565492620005


@pytest.fixture(scope="module")
def sub_operators(collision_default):
    return oracles.sub_operators(collision_default)
K1_UNIT = 0.6213931207538556
GAMMA_FIXTURE = Path(__file__).parent / "fixtures" / "gamma.json"


def _nu_loss_oracle(rv: float) -> float:
    def inner(rp):
        arc, _ = quad(lambda c: math.sqrt(max(rv * rv + rp * rp - 2 * rv * rp * c, 0.0)), -1, 1)
        return arc * rp * rp * math.exp(-0.5 * rp * rp)

    val, _ = quad(inner, 0, 30, limit=200)
    return math.pi * val * (2 * math.pi) ** -1.5 * 2 * math.pi


def _kernel_moment_oracle(which: str, ra: float, rb: float, l: int) -> float:
    def f(c):
        s = math.sqrt(max(1.0 - c * c, 0.0))
        val = kernel_eval(which, [ra, 0.0, 0.0], [rb * c, rb * s, 0.0])
        return val * eval_legendre(l, c)

    val, err = quad(f, -1, 1, limit=400, epsabs=1e-12, epsrel=1e-11)
    assert err < 1e-7
    return 2 * math.pi * val


class TestNu:
    def test_frozen_values(self):
        assert abs(nu_eval(0.0) - NU_ZERO) < 1e-12
        assert abs(nu_eval([0.0, 0.0, 0.0]) - NU_ZERO) < 1e-12
        assert abs(nu_eval(1000.0) / 1000.0 - math.pi) < 1e-4

    def test_series_joins_closed_form(self):
        lo, hi = nu_eval(0.9e-8), nu_eval(1.1e-8)
        assert abs(lo - hi) < 1e-12

    def test_vector_and_speed_inputs_agree(self):
        assert abs(nu_eval([3.0, 4.0, 0.0]) - nu_eval(5.0)) < 1e-14
        arr = nu_eval(np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
        assert arr.shape == (2,)
        assert abs(arr[1] - nu_eval(1.0)) < 1e-14

    @pytest.mark.parametrize("r", [0.5, 1.7])
    def test_against_loss_integral(self, r):
        assert abs(nu_eval(r) - _nu_loss_oracle(r)) < 1e-7

    @pytest.mark.parametrize("v", [math.nan, math.inf, [1.0, math.nan, 0.0],
                                   [[1.0, 0.0, 0.0], [0.0, -math.inf, 0.0]]])
    def test_non_finite_velocities_rejected(self, v):
        with pytest.raises(ValueError, match="finite"):
            nu_eval(v)

    @pytest.mark.parametrize("v", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], np.ones((2, 2)), [],
                                   np.ones((3, 1))],
                             ids=["two-speeds", "four-speeds", "2x2", "empty", "3x1"])
    def test_arrays_must_hold_velocity_vectors(self, v):
        # a scalar is a speed; an array holds velocities along its last axis
        with pytest.raises(ValueError, match="last axis of length 3"):
            nu_eval(v)

    def test_monotone_growth_bounds(self):
        r = np.linspace(0.0, 20.0, 401)
        vals = nu_eval(np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=1))
        assert np.all(np.diff(vals) > 0)
        ratio = vals / (1.0 + r)
        assert ratio.min() > 0.5


class TestKernelPointwise:
    def test_frozen_k1(self):
        assert abs(kernel_eval("k1", [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) - K1_UNIT) < 1e-12

    def test_k_subtracts_gaussian_product(self):
        v = np.array([0.9, -0.3, 0.4])
        vs = np.array([-0.2, 0.5, 1.1])
        d = np.linalg.norm(v - vs)
        gauss = d / (2 * math.sqrt(2 * math.pi)) * math.exp(-(v @ v + vs @ vs) / 4)
        got = kernel_eval("k1", v, vs) - kernel_eval("k", v, vs)
        assert abs(got - gauss) < 1e-14

    def test_symmetry(self):
        v = np.array([0.3, 1.2, -0.7])
        vs = np.array([1.4, -0.1, 0.2])
        for which in ("k", "k1"):
            assert abs(kernel_eval(which, v, vs) - kernel_eval(which, vs, v)) < 1e-14

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_velocities_rejected(self, bad):
        for v, vs in (([bad, 0.0, 0.0], [0.0, 1.0, 0.0]), ([1.0, 0.0, 0.0], [0.0, bad, 0.0])):
            for which in ("k", "k1"):
                with pytest.raises(ValueError, match="finite"):
                    kernel_eval(which, v, vs)

    @pytest.mark.parametrize("v, vs", [
        ([1.0, 0.0], [0.0, 1.0]),
        ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]),
        ([1.0, 0.0, 0.0], [0.0, 1.0]),
        ([1.0, 0.0], [0.0, 1.0, 0.0]),
        (1.0, 2.0),
    ])
    def test_non_3_vectors_rejected(self, v, vs):
        for which in ("k", "k1"):
            with pytest.raises(ValueError, match="length 3"):
                kernel_eval(which, v, vs)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            kernel_eval("k1", [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            kernel_eval("bogus", [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])


class TestReducedKernels:
    def test_against_angle_quadrature(self):
        nodes = np.array([0.7, 1.0])
        k1_tab, k_tab = reduced_kernel_tables(nodes, lmax=3)
        for l in range(4):
            for (i, j) in ((0, 1), (0, 0), (1, 1)):
                want = _kernel_moment_oracle("k1", nodes[i], nodes[j], l)
                assert abs(k1_tab[l, i, j] - want) < 1e-6 * (1 + abs(want))
            want = _kernel_moment_oracle("k", nodes[0], nodes[1], l)
            assert abs(k_tab[l, 0, 1] - want) < 1e-6 * (1 + abs(want))

    def test_panel_refinement_converged(self):
        nodes = np.linspace(0.05, 9.0, 25)
        coarse, _ = reduced_kernel_tables(nodes, lmax=6, n_panel_points=12)
        fine, _ = reduced_kernel_tables(nodes, lmax=6, n_panel_points=24)
        assert np.max(np.abs(coarse - fine)) < 1e-9 * (1 + np.max(np.abs(fine)))

    def test_symmetric_tables(self):
        nodes = np.array([0.4, 1.3, 2.8])
        k1_tab, k_tab = reduced_kernel_tables(nodes, lmax=2)
        for l in range(3):
            assert np.allclose(k1_tab[l], k1_tab[l].T, atol=0)
            assert np.allclose(k_tab[l], k_tab[l].T, atol=0)

    @pytest.mark.parametrize("nodes, kwargs, match", [
        ([0.5, np.nan], {}, "r_nodes"),
        ([0.5, np.inf], {}, "r_nodes"),
        ([0.0, 1.0], {}, "r_nodes"),
        ([-0.5, 1.0], {}, "r_nodes"),
        ([[0.5, 1.0]], {}, "r_nodes"),
        ([0.5, 1.0], {"lmax": -1}, "lmax"),
        ([0.5, 1.0], {"lmax": 2.0}, "lmax"),
        ([0.5, 1.0], {"lmax": True}, "lmax"),
        ([0.5, 1.0], {"n_panel_points": 0}, "n_panel_points"),
    ])
    def test_bad_input_rejected(self, nodes, kwargs, match):
        with pytest.raises(ValueError, match=match):
            reduced_kernel_tables(np.array(nodes), **{"lmax": 2, **kwargs})


def _per_nl_gain_matrices(basis, n_panel_points):
    """The gain assembly as it was: one eval_genlaguerre table per (n, l) and pass."""
    lmax, nr = basis.spec.angular_max, basis.spec.radial_order
    r_out = basis.quad.r
    nq = r_out.size
    n_inner = max(64, 3 * nr + 4 * lmax)
    xg, wg = np.polynomial.legendre.leggauss(n_inner)
    r_in = 0.5 * r_out[:, None] * (xg[None, :] + 1.0)
    w_in = 0.5 * r_out[:, None] * wg[None, :]
    rb = r_in.ravel()
    ((k1p, gp),) = collision_ops._pair_kernel_moments(
        np.repeat(r_out, n_inner), rb, lmax, (n_panel_points,))
    inner_w = (w_in * r_in**2).ravel()
    u = 0.5 * rb**2
    K1_deg, K_deg = {}, {}
    for l in range(lmax + 1):
        half_out = basis.radial_tables[l] * basis.quad.wr_half
        tab_in = np.stack([_radial_norm(n, l) * (2 * math.pi) ** (-0.75) * rb**l
                           * eval_genlaguerre(n, l + 0.5, u) * np.exp(-u / 2.0)
                           for n in range(nr)])
        bw = (tab_in * inner_w[None, :]).reshape(-1, nq, n_inner)
        m1 = half_out @ (k1p[l].reshape(nq, n_inner)[None] * bw).sum(axis=-1).T
        mg = half_out @ (gp[l].reshape(nq, n_inner)[None] * bw).sum(axis=-1).T
        K1_deg[l] = 0.5 * (m1 + m1.T)
        mk = m1 - mg
        K_deg[l] = mk + mk.T
    return K1_deg, K_deg


def _gain_pairs(spec):
    """The (ra, rb) node pairs at which _gain_matrices evaluates the kernel moments."""
    basis = build_basis(BasisSpec(*spec))
    r_out = basis.quad.r
    n_inner = max(64, 3 * spec[0] + 4 * spec[1])
    r_in, _ = _gauss_legendre(n_inner, r_out[:, None])
    return np.repeat(r_out, n_inner), r_in.ravel()


def _random_pairs(n):
    rng = np.random.default_rng(n)
    ra, rb = rng.uniform(0.05, 9.0, (2, n))
    rb[: n // 3] = ra[: n // 3]
    return ra, rb


class TestGainAssembly:
    @pytest.mark.parametrize("pairs, tops", [
        pytest.param(lambda: _gain_pairs((6, 3)), (0, 1, 2, 3), id="basis-6-3"),
        pytest.param(lambda: _gain_pairs((12, 6)), (0, 1, 2, 6), id="basis-12-6"),
        pytest.param(lambda: _gain_pairs((18, 6)), (0, 1, 2, 6), id="basis-18-6"),
        pytest.param(lambda: _random_pairs(2 * collision_ops._PAIR_CHUNK + 37), (0, 1, 2, 6),
                     id="ragged"),
        pytest.param(lambda: _random_pairs(collision_ops._PAIR_CHUNK // 3), (0, 1, 2, 6),
                     id="under-a-block"),
        pytest.param(lambda: _random_pairs(0), (0, 1, 2, 6), id="no-pairs"),
    ])
    def test_one_pass_matches_the_per_rule_kernel(self, pairs, tops):
        ra, rb = pairs()
        # row l of the per-rule kernel does not depend on lmax, so one run at
        # the top degree serves every lower top
        want = dict(zip((12, 24, 16),
                        oracles.pair_kernel_moments_by_rule(ra, rb, max(tops), (12, 24, 16))))
        for rules in ((12, 24), (24, 12), (16,)):
            for lmax in tops:
                got = collision_ops._pair_kernel_moments(ra, rb, lmax, rules)
                assert len(got) == len(rules)
                for points, moments in zip(rules, got):
                    for a, b in zip(moments, want[points]):
                        assert a.shape == (lmax + 1, ra.size)
                        assert np.array_equal(a, b[: lmax + 1]), (points, lmax)

    def test_pair_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        ra, rb = rng.uniform(0.05, 9.0, (2, 200))
        monkeypatch.setattr(collision_ops, "_PAIR_CHUNK", ra.size)
        (whole,) = collision_ops._pair_kernel_moments(ra, rb, 6, (24,))
        monkeypatch.setattr(collision_ops, "_PAIR_CHUNK", 7)
        (blocked,) = collision_ops._pair_kernel_moments(ra, rb, 6, (24,))
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b)

    def test_inner_table_built_once_per_degree(self, basis_small, monkeypatch):
        calls = []
        original = Basis.radial_table

        def counted(self, l, r):
            calls.append(l)
            return original(self, l, r)

        monkeypatch.setattr(Basis, "radial_table", counted)
        assemble_collision(basis_small, build_gamma=False)
        assert sorted(calls) == list(range(basis_small.spec.angular_max + 1))

    @pytest.mark.parametrize("spec", [(12, 3), (18, 6)])
    def test_low_degrees_independent_of_top_degree(self, spec):
        basis = build_basis(BasisSpec(*spec))
        full = collision_ops._degree_blocks(basis, basis.spec.angular_max)
        low = collision_ops._degree_blocks(basis, 2)
        for part in ("K1", "K", "nu"):
            assert sorted(getattr(low, part)) == [0, 1, 2]
            for l in range(3):
                assert np.array_equal(getattr(low, part)[l], getattr(full, part)[l])
        for part in ("raw", "clean"):
            for which in ("L", "L1"):
                assert sorted(getattr(low, part)[which]) == [0, 1, 2]
                for l in range(3):
                    assert np.array_equal(getattr(low, part)[which][l],
                                          getattr(full, part)[which][l])

    def test_kernel_moment_rows_independent_of_lmax(self):
        rng = np.random.default_rng(8)
        ra, rb = rng.uniform(0.05, 9.0, (2, 300))
        for points in (12, 24):
            (low,) = collision_ops._pair_kernel_moments(ra, rb, 2, (points,))
            (full,) = collision_ops._pair_kernel_moments(ra, rb, 6, (points,))
            for a, b in zip(low, full):
                assert np.array_equal(a, b[:3])

    def test_matches_per_nl_build_exactly(self, collision_small):
        basis = collision_small.basis
        K1_coarse, K_coarse = _per_nl_gain_matrices(basis, 12)
        K1_fine, K_fine = _per_nl_gain_matrices(basis, 24)
        blocks = collision_ops._degree_blocks(basis, basis.spec.angular_max)
        for l in range(basis.spec.angular_max + 1):
            assert np.array_equal(blocks.K1[l], K1_fine[l])
            assert np.array_equal(blocks.K[l], K_fine[l])
        delta = max(max(np.max(np.abs(K1_coarse[l] - K1_fine[l])) for l in K1_fine),
                    max(np.max(np.abs(K_coarse[l] - K_fine[l])) for l in K_fine))
        assert collision_small.kernel_refinement_delta == delta


class TestAssemblyInputs:
    @pytest.mark.parametrize("basis, build_gamma, match", [
        pytest.param(None, False, "expected Basis", id="basis-None"),
        pytest.param(BasisSpec(6, 3), False, "expected Basis", id="basis-spec"),
        pytest.param("small", "no", "build_gamma must be a bool", id="gamma-string"),
        pytest.param("small", 1, "build_gamma must be a bool", id="gamma-int"),
    ])
    def test_bad_input_rejected(self, basis_small, basis, build_gamma, match):
        # a truthy non-bool build_gamma used to build Gamma silently
        with pytest.raises(ValueError, match=match):
            assemble_collision(basis_small if basis == "small" else basis,
                               build_gamma=build_gamma)

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda cm: gamma_apply(None, np.zeros(35), np.zeros(35)),
                     "expected CollisionMatrices", id="gamma_apply-cm-None"),
        pytest.param(lambda cm: collision_inverse(None, "L", SECTOR_AXIAL, np.zeros(3)),
                     "expected CollisionMatrices", id="collision_inverse-cm-None"),
        pytest.param(lambda cm: collision_inverse(cm.basis, "L", SECTOR_AXIAL, np.zeros(3)),
                     "expected CollisionMatrices", id="collision_inverse-cm-basis"),
        pytest.param(lambda cm: null_coordinates(None, "L", SECTOR_AXIAL),
                     "expected Basis", id="null_coordinates-basis-None"),
        pytest.param(lambda cm: null_coordinates(cm, "L", SECTOR_AXIAL),
                     "expected Basis", id="null_coordinates-basis-cm"),
    ])
    def test_wrong_record_types_rejected(self, collision_small, call, match):
        # a ValueError of the module, not an AttributeError further in
        with pytest.raises(ValueError, match=match):
            call(collision_small)


class TestSectorBlocks:
    """The sector blocks are the block diagonal of their degree blocks."""

    @pytest.mark.parametrize("count,size,kinds", [
        (1, 1, "r"), (1, 4, "r"), (3, 2, "r"), (4, 6, "r"), (5, 3, "c"), (3, 3, "rcr"),
    ], ids=["one-scalar", "one-block", "three-2x2", "four-6x6", "complex", "mixed"])
    def test_block_diagonal_matches_scipy(self, count, size, kinds):
        rng = np.random.default_rng(41)
        blocks = []
        for i in range(count):
            block = rng.standard_normal((size, size))
            if kinds[i % len(kinds)] == "c":
                block = block + 1j * rng.standard_normal((size, size))
            blocks.append(block)
        got = collision_ops._block_diagonal(blocks)
        want = block_diag(*blocks)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("which,field", [("L", "L_sector"), ("L1", "L1_sector")])
    def test_sectors_stack_the_degree_blocks(self, collision_small, which, field):
        # the axial sector holds every degree, the transverse one l >= 1
        degrees = collision_ops._degree_blocks(collision_small.basis, 3).clean[which]
        sectors = getattr(collision_small, field)
        assert np.array_equal(sectors[SECTOR_AXIAL], block_diag(*degrees.values()))
        assert np.array_equal(sectors[SECTOR_TRANSVERSE],
                              block_diag(*(degrees[l] for l in range(1, 4))))


    @pytest.mark.parametrize("shared", [
        lambda cm: cm.basis.chi(4),
        lambda cm: cm.basis.projection_matrix("P0"),
        lambda cm: cm.basis.projection_matrix("P1"),
        lambda cm: v_multiplication_matrix(cm.basis, SECTOR_AXIAL),
        lambda cm: v_multiplication_matrix(cm.basis, SECTOR_TRANSVERSE),
        lambda cm: cm.L_sector[SECTOR_AXIAL],
        lambda cm: cm.L_sector[SECTOR_TRANSVERSE],
        lambda cm: cm.L1_sector[SECTOR_AXIAL],
        lambda cm: cm.L1_sector[SECTOR_TRANSVERSE],
    ], ids=["chi", "P0", "P1", "v_axial", "v_transverse", "L_axial", "L_transverse",
            "L1_axial", "L1_transverse"])
    def test_shared_arrays_are_read_only(self, collision_small, shared):
        # every operator and transport form on a basis reads these arrays: a
        # write into one would move them all
        a = shared(collision_small)
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
        assert shared(collision_small) is a


class TestAssembledOperators:
    def test_shapes(self, collision_default):
        b = collision_default.basis
        assert collision_default.L_sector[0].shape == (b.dim0, b.dim0)
        assert collision_default.L_sector[1].shape == (b.dim1, b.dim1)

    def test_symmetry_and_sign(self, collision_default):
        for sec in (0, 1):
            for mat in (collision_default.L_sector[sec], collision_default.L1_sector[sec]):
                assert np.max(np.abs(mat - mat.T)) < 1e-12
                assert np.linalg.eigvalsh(mat).max() < 1e-10

    def test_raw_null_residuals_small(self, collision_default):
        for name, res in oracles.raw_null_residuals(collision_default).items():
            assert res < 1e-6, f"{name}: {res}"

    def test_enforced_null_columns_vanish(self, collision_default):
        nr = collision_default.basis.spec.radial_order
        L0 = collision_default.L_sector[0]
        for idx in (0, 1, nr):  # chi0, chi4, chi1 coordinates
            assert np.all(L0[:, idx] == 0.0) and np.all(L0[idx, :] == 0.0)
        assert np.all(collision_default.L1_sector[0][:, 0] == 0.0)
        # transverse sector: degree-1 lowest radial element is chi2 / chi3
        assert np.all(collision_default.L_sector[1][:, 0] == 0.0)

    def test_nu_matrix_element_oracle(self, collision_default):
        want, err = quad(
            lambda r: nu_eval(r) * r * r * math.exp(-0.5 * r * r), 0, 40, limit=200
        )
        want *= 4 * math.pi * (2 * math.pi) ** -1.5
        assert err < 1e-9
        blocks = collision_ops._degree_blocks(collision_default.basis, 0)
        got = blocks.nu[0][0, 0]
        assert abs(got - want) < 1e-8 * want
        # L1 chi0 = 0 forces the gain table to reproduce the same number
        assert abs(blocks.K1[0][0, 0] - want) < 1e-6 * want

    def test_gap_estimate(self, collision_default, collision_small):
        mu = collision_default.mu_estimate
        # discrete eigenvalues sit above the essential infimum -nu(0)
        assert 0.05 < mu < NU_ZERO
        # variational: enlarging the space can only lower the estimate
        assert collision_small.mu_estimate >= mu - 1e-9

    @pytest.mark.parametrize("angular_max", [1, 2, 3])
    def test_gap_estimate_at_radial_order_two(self, angular_max):
        # degree 0 holds only the density and energy coordinates there, so it
        # has nothing off the null space; the gap comes from the other degrees
        cm = assemble_collision(build_basis(BasisSpec(2, angular_max)), build_gamma=False)
        basis = cm.basis
        null = set(null_coordinates(basis, "L", SECTOR_AXIAL))
        top = []
        for l in range(basis.spec.angular_max + 1):
            rows = [i for i in (basis.index(SECTOR_AXIAL, "axial", n, l) for n in range(2))
                    if i not in null]
            if rows:
                top.append(np.linalg.eigvalsh(cm.L_sector[SECTOR_AXIAL][np.ix_(rows, rows)])[-1])
        assert len(top) == angular_max
        assert cm.mu_estimate == pytest.approx(-max(top), rel=1e-12)
        assert 0.05 < cm.mu_estimate < NU_ZERO
        assert cm.kernel_refinement_delta <= 1e-11

    def test_nu_bounds(self):
        nu0, nu1 = oracles.nu_bounds()
        assert 0.5 < nu0 < nu1 < 6.0

    def test_coercivity_on_hydrodynamic_complement(self, collision_default, rng):
        L0 = collision_default.L_sector[0]
        nr = collision_default.basis.spec.radial_order
        mu = collision_default.mu_estimate
        for _ in range(50):
            f = rng.standard_normal(L0.shape[0])
            f[[0, 1, nr]] = 0.0
            q = f @ L0 @ f
            assert q <= -mu * (f @ f) + 1e-8 * (f @ f)


class TestCollisionInverse:
    @pytest.mark.parametrize("which, invariants", [("L", range(5)), ("L1", [0])])
    def test_null_coordinates_are_invariant_support(self, collision_small, which,
                                                    invariants):
        b = collision_small.basis
        for sector, copies in ((SECTOR_AXIAL, [b.slice_axial]),
                               (SECTOR_TRANSVERSE, [b.slice_cos, b.slice_sin])):
            support = {int(i) for j in invariants for sl in copies
                       for i in np.flatnonzero(b.chi(j)[sl])}
            assert null_coordinates(b, which, sector) == sorted(support)

    @pytest.mark.parametrize("which", ["L", "L1"])
    @pytest.mark.parametrize("sector", [SECTOR_AXIAL, SECTOR_TRANSVERSE])
    def test_solution_inverts_on_the_range(self, collision_small, which, sector):
        cm = collision_small
        block = {"L": cm.L_sector, "L1": cm.L1_sector}[which][sector]
        null = null_coordinates(cm.basis, which, sector)
        w = np.random.default_rng(5).standard_normal(block.shape[0])
        sol = collision_inverse(cm, which, sector, w)
        pw = w.copy()
        pw[null] = 0.0
        assert np.linalg.norm(block @ sol - pw) < 1e-12 * np.linalg.norm(pw)
        assert np.all(sol[null] == 0.0)

    @pytest.mark.parametrize("which, sector, w_kind, match", [
        ("X", SECTOR_AXIAL, "ok", "'L' or 'L1'"),
        ("L", 7, "ok", "SECTOR_AXIAL"),
        ("L1", SECTOR_TRANSVERSE, "nan", "length n = "),
        ("L", SECTOR_AXIAL, "2-d", "length n = "),
        ("L", SECTOR_TRANSVERSE, "short", "length n = "),
    ])
    def test_bad_input_rejected(self, collision_small, which, sector, w_kind, match):
        cm = collision_small
        n = {"L": cm.L_sector, "L1": cm.L1_sector}.get(which, cm.L_sector).get(
            sector, cm.L_sector[SECTOR_AXIAL]).shape[0]
        w = {"ok": np.ones(n), "nan": np.full(n, np.nan), "2-d": np.ones((n, 1)),
             "short": np.ones(n - 1)}[w_kind]
        with pytest.raises(ValueError, match=match):
            collision_inverse(cm, which, sector, w)
        if w_kind == "ok":
            with pytest.raises(ValueError, match=match):
                null_coordinates(cm.basis, which, sector)

    @pytest.mark.parametrize("sector", [True, False, 1.0, 0.0, "1", None])
    def test_sector_must_be_an_integer(self, collision_small, sector):
        # a bool or float equal to a sector number is not a sector
        with pytest.raises(ValueError, match="SECTOR_AXIAL"):
            null_coordinates(collision_small.basis, "L", sector)
        with pytest.raises(ValueError, match="SECTOR_AXIAL"):
            collision_inverse(collision_small, "L", sector, np.ones(4))

    @pytest.mark.parametrize("direction", ["coordinate", "generic"])
    def test_extra_null_direction_raises(self, collision_small, direction):
        cm = collision_small
        block = cm.L_sector[SECTOR_AXIAL]
        n = block.shape[0]
        keep = np.ones(n)
        keep[null_coordinates(cm.basis, "L", SECTOR_AXIAL)] = 0.0
        rng = np.random.default_rng(11)
        if direction == "coordinate":
            v = np.eye(n)[2]
        else:
            v = keep * rng.standard_normal(n)
            v /= np.linalg.norm(v)
        proj = np.eye(n) - np.outer(v, v)
        broken = dataclasses.replace(
            cm, L_sector={**cm.L_sector, SECTOR_AXIAL: proj @ block @ proj}, _cache={})
        w = keep * rng.standard_normal(n) + v
        with pytest.raises(AssemblyError):
            collision_inverse(broken, "L", SECTOR_AXIAL, w)


class TestGammaTensor:
    def test_sub_basis_enumeration(self, collision_default):
        idx = collision_default.gamma.indices
        assert isinstance(idx, tuple)
        assert len(idx) == 35
        assert idx[0] == (0, 0, 0)
        assert all(sum(t) <= 4 for t in idx)
        assert len(set(idx)) == 35

    def test_collision_invariants_annihilate(self, collision_default):
        # mass is conserved slot-wise; momentum and energy only after
        # symmetrizing over the two arguments (the one-sided projection is
        # exactly antisymmetric under swapping them)
        g = collision_default.gamma
        scale = np.max(np.abs(g.tensor))
        proj0 = np.einsum("ijk,k->ij", g.tensor, g.chi_sub[0])
        assert np.max(np.abs(proj0)) < 1e-10 * scale
        for j in range(1, 5):
            proj = np.einsum("ijk,k->ij", g.tensor, g.chi_sub[j])
            assert np.max(np.abs(proj + proj.T)) < 1e-10 * scale

    @given(
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_invariants_for_random_states(self, collision_default, seed):
        g = collision_default.gamma
        local = np.random.default_rng(seed)
        f = local.standard_normal(35)
        h = local.standard_normal(35)
        out_fh = gamma_apply(collision_default, f, h)
        out_hf = gamma_apply(collision_default, h, f)
        out_ff = gamma_apply(collision_default, f, f)
        bound = 1e-9 * (1 + np.linalg.norm(f) * np.linalg.norm(h)) ** 2 * np.max(np.abs(g.tensor))
        assert abs(out_fh @ g.chi_sub[0]) < bound
        for j in range(1, 5):
            assert abs((out_fh + out_hf) @ g.chi_sub[j]) < bound
            assert abs(out_ff @ g.chi_sub[j]) < bound

    def test_change_of_basis_orthogonal(self, collision_default):
        c = collision_default.gamma.change_of_basis
        assert c is not None
        assert np.max(np.abs(c.T @ c - np.eye(35))) < 1e-10

    def test_change_of_basis_maps_invariants(self, collision_default):
        g = collision_default.gamma
        from kslab.collision_ops import _burnett_sub_elements

        els = _burnett_sub_elements()
        col = {e: i for i, e in enumerate(els)}
        c = g.change_of_basis
        assert np.allclose(c[:, col[(0, 0, 0, "axial")]], g.chi_sub[0], atol=1e-12)
        assert np.allclose(c[:, col[(0, 1, 0, "axial")]], g.chi_sub[1], atol=1e-12)
        assert np.allclose(c[:, col[(0, 1, 1, "cos")]], g.chi_sub[2], atol=1e-12)
        assert np.allclose(c[:, col[(0, 1, 1, "sin")]], g.chi_sub[3], atol=1e-12)
        assert np.allclose(c[:, col[(1, 0, 0, "axial")]], -g.chi_sub[4], atol=1e-12)

    def test_sub_operators_consistent(self, collision_default, sub_operators):
        g = collision_default.gamma
        L_sub, L1_sub = sub_operators
        for mat in (L_sub, L1_sub):
            assert mat is not None
            assert np.max(np.abs(mat - mat.T)) < 1e-8
            assert np.linalg.eigvalsh(mat).max() < 1e-6
        for j in range(5):
            assert np.linalg.norm(L_sub @ g.chi_sub[j]) < 1e-6
        assert np.linalg.norm(L1_sub @ g.chi_sub[0]) < 1e-6

    def test_apply_validates_shape(self, collision_default):
        with pytest.raises(ValueError):
            gamma_apply(collision_default, np.zeros(34), np.zeros(35))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_apply_rejects_non_finite(self, collision_default, bad):
        f = np.zeros(35)
        f[3] = bad
        with pytest.raises(ValueError, match="finite"):
            gamma_apply(collision_default, f, np.ones(35))
        with pytest.raises(ValueError, match="finite"):
            gamma_apply(collision_default, np.ones(35), f)

    def test_apply_without_tensor_raises(self, collision_small):
        assert collision_small.gamma.tensor is None
        with pytest.raises(AssemblyError, match="build_gamma=True"):
            gamma_apply(collision_small, np.zeros(35), np.zeros(35))

    def test_matches_frozen_fixture(self, collision_default):
        # the fixture was computed with 8 radial nodes, 16 azimuths, the full
        # 7^3 center-of-mass grid and the loss term summed over all (i, k)
        # without linearization, so it checks that the smaller rule is exact
        ref = json.loads(GAMMA_FIXTURE.read_text())
        t = collision_default.gamma.tensor
        assert abs(np.linalg.norm(t) - ref["frobenius_norm"]) <= 1e-12 * ref["frobenius_norm"]
        for triple in ref["triples"]:
            f, g, h = np.random.default_rng(triple["seed"]).standard_normal((3, 35))
            want = triple["h_dot_gamma_fg"]
            got = h @ gamma_apply(collision_default, f, g)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_odd_parity_entries_vanish_exactly(self, collision_default):
        # H_i(-v) = (-1)^|i| H_i(v): an entry whose three total degrees sum to
        # an odd number is odd in some axis, where the reflected nodes cancel it
        t = collision_default.gamma.tensor
        deg = np.array([sum(abc) for abc in collision_default.gamma.indices])
        odd = (deg[:, None, None] + deg[None, :, None] + deg[None, None, :]) % 2 == 1
        assert odd.sum() == 21073
        assert np.all(t[odd] == 0.0)
        assert np.count_nonzero(t[~odd]) > 0

    def test_odd_axis_parity_entries_vanish_exactly(self, collision_default):
        # reflecting axis d of p and sigma multiplies an entry by
        # (-1)^(i_d + j_d + k_d), so the octant fold zeroes it when that is odd
        t = collision_default.gamma.tensor
        idx = np.array(collision_default.gamma.indices)
        odd = ((idx[:, None, None] + idx[None, :, None] + idx[None, None, :]) % 2).any(axis=-1)
        assert odd.sum() == 37141
        assert np.all(t[odd] == 0.0)
        assert np.count_nonzero(t[~odd]) > 0

    def test_matches_full_grid_oracle(self, collision_default):
        # the octant fold and the closed-form linearization against the build
        # on every center-of-mass node with the quadrature linearization
        t = collision_default.gamma.tensor
        assert np.max(np.abs(t - oracles.gamma_full_grid())) <= 1e-13 * np.max(np.abs(t))

    def test_product_coefficients_reproduce_products(self):
        # oracle: numpy's own probabilists' Hermite series, normalized by sqrt(n!)
        from numpy.polynomial.hermite_e import hermeval

        def herm(x, abc):
            out = np.ones(x.shape[0])
            for d, n in enumerate(abc):
                out = out * hermeval(x[:, d], np.eye(n + 1)[n]) / math.sqrt(math.factorial(n))
            return out

        x = np.random.default_rng(17).standard_normal((200, 3))
        sub = np.stack([herm(x, abc) for abc in collision_ops._SUB_INDICES], axis=1)
        prod_idx = collision_ops._PRODUCT_INDICES
        assert len(prod_idx) == 165 and all(sum(abc) <= 8 for abc in prod_idx)
        h8 = np.stack([herm(x, abc) for abc in prod_idx], axis=1)
        c = collision_ops._product_coefficients()
        assert c.shape == (35, 35, 165)
        want = sub[:, :, None] * sub[:, None, :]
        got = np.einsum("ikm,pm->pik", c, h8)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    def test_product_table_extends_sub_table(self):
        pts = np.random.default_rng(23).standard_normal((300, 3))
        h4 = collision_ops._sub_table(pts, collision_ops._SUB_INDICES)
        h8 = collision_ops._sub_table(pts, collision_ops._PRODUCT_INDICES)
        assert h4.shape == (300, 35) and h8.shape == (300, 165)
        assert np.array_equal(h8[:, :35], h4)

    def test_sub_table_matches_gather_build(self):
        # reference: the (n_products, n_points) gather build it replaced
        def gather_table(points, indices):
            idx = np.array(indices)
            norm = np.sqrt([float(math.factorial(a) * math.factorial(b) * math.factorial(c))
                            for (a, b, c) in indices])
            he = [collision_ops._hermite_values(points[:, d], int(idx.max())) for d in range(3)]
            return (he[0][idx[:, 0]] * he[1][idx[:, 1]] * he[2][idx[:, 2]] / norm[:, None]).T

        pts = 2.0 * np.random.default_rng(29).standard_normal((500, 3))
        for indices in (collision_ops._SUB_INDICES, collision_ops._PRODUCT_INDICES):
            got = collision_ops._sub_table(pts, indices)
            assert got.flags.f_contiguous
            assert np.array_equal(got, gather_table(pts, indices))

    def test_sphere_rule_closed_under_negation(self):
        sig, w = collision_ops._sphere_rule()
        n = sig.shape[0]
        assert sig.shape == (collision_ops._N_POLAR * collision_ops._N_AZIM, 3)
        assert np.array_equal(sig[n // 2:], -sig[:n // 2])
        assert np.array_equal(w[n // 2:], w[:n // 2])
        assert np.all(np.abs(np.linalg.norm(sig, axis=1) - 1.0) < 1e-15)
        # exact on every monomial of degree <= 12, as the product rule is:
        # the sphere integral of x^a y^b z^c is 2 G(A) G(B) G(C) / G(A + B + C),
        # with A = (a + 1) / 2 and so on, for a, b, c all even, else 0
        for a, b, c in collision_ops._hermite_indices(12):
            if a % 2 or b % 2 or c % 2:
                want = 0.0
            else:
                ga, gb, gc = (math.gamma((e + 1) / 2) for e in (a, b, c))
                want = 2.0 * ga * gb * gc / math.gamma((a + b + c + 3) / 2)
            got = w @ (sig[:, 0] ** a * sig[:, 1] ** b * sig[:, 2] ** c)
            assert abs(got - want) < 1e-13

    def test_sphere_rule_closed_under_axis_reflections(self):
        # the octant fold needs each single-axis reflection to map the rule
        # onto itself: mu -> -mu, phi -> pi - phi and phi -> -phi; it does so
        # to rounding, not bit for bit
        sig, w = collision_ops._sphere_rule()
        for d in range(3):
            flipped = sig.copy()
            flipped[:, d] *= -1.0
            image = np.argmin(np.linalg.norm(flipped[:, None] - sig[None], axis=-1), axis=1)
            assert sorted(image) == list(range(sig.shape[0]))
            assert np.max(np.abs(flipped - sig[image])) <= 2e-15
            assert np.array_equal(w[image], w)

    def test_build_working_set_bounded(self):
        # one block's (16 x 98, 165) Hermite table is about 2 MB; keeping a
        # 32-pair block's arrays alive while the next table filled peaked at
        # 12.7 MB, and 128-pair blocks with gathered copies at about 59 MB
        import tracemalloc

        tracemalloc.start()
        try:
            collision_ops._assemble_gamma_tensor.__wrapped__()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("chunk", [24, 100])
    def test_build_independent_of_block_size(self, collision_default, monkeypatch, chunk):
        # the 256 octant node pairs split into full blocks and a shorter tail
        n_pairs = ((collision_ops._N_HERM + 1) // 2) ** 3 * collision_ops._N_RAD
        assert n_pairs == 256 and n_pairs % chunk != 0
        monkeypatch.setattr(collision_ops, "_GAMMA_CHUNK", chunk)
        got = collision_ops._assemble_gamma_tensor.__wrapped__()
        want = collision_default.gamma.tensor
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        idx = np.array(collision_default.gamma.indices)
        odd = ((idx[:, None, None] + idx[None, :, None] + idx[None, None, :]) % 2).any(axis=-1)
        assert np.all(got[odd] == 0.0) and np.all(want[odd] == 0.0)

    def test_built_once_and_read_only(self, collision_default, basis_small):
        other = assemble_collision(basis_small, build_gamma=True)
        assert other.gamma.tensor is collision_default.gamma.tensor
        assert other.gamma.change_of_basis is collision_default.gamma.change_of_basis
        g = collision_default.gamma
        for arr in (g.tensor, g.chi_sub, g.change_of_basis):
            with pytest.raises(ValueError):
                arr[0, 0] += 1.0


class TestGammaIdentities:
    """Weak-form identities linking the bilinear term to the linear operators.

    All sub-basis coefficient vectors on the right-hand sides lie inside the
    degree-4 space, so projecting both sides onto it is exact and the only
    error budget is quadrature roundoff in the operator assembly.
    """

    def _p1_sub(self, g):
        p = np.eye(35)
        for j in range(5):
            p -= np.outer(g.chi_sub[j], g.chi_sub[j])
        return p

    def test_single_species_forcing(self, collision_default, sub_operators):
        g = collision_default.gamma
        L1_sub = sub_operators[1]
        chi0 = g.chi_sub[0]
        for j in (1, 2, 3):
            lhs = gamma_apply(collision_default, chi0, g.chi_sub[j])
            rhs = -L1_sub @ g.chi_sub[j]
            assert np.max(np.abs(lhs - rhs)) < 1e-5
        vsq = oracles.project_poly_to_sub(g, lambda v: np.sum(v * v, axis=1))
        lhs = gamma_apply(collision_default, chi0, vsq)
        rhs = -L1_sub @ vsq
        assert np.max(np.abs(lhs - rhs)) < 1e-5

    def test_symmetrized_quadratic_forcing(self, collision_default, sub_operators):
        g = collision_default.gamma
        L_sub = sub_operators[0]
        p1 = self._p1_sub(g)

        def sym_gamma(a, b):
            return 0.5 * (
                gamma_apply(collision_default, a, b) + gamma_apply(collision_default, b, a)
            )

        vecs = [g.chi_sub[1], g.chi_sub[2], g.chi_sub[3]]
        for i in range(3):
            for j in range(i, 3):
                prod = oracles.project_poly_to_sub(
                    g, lambda v, a=i, b=j: v[:, a] * v[:, b]
                )
                lhs = sym_gamma(vecs[i], vecs[j])
                rhs = -0.5 * L_sub @ (p1 @ prod)
                assert np.max(np.abs(lhs - rhs)) < 1e-5

        vsq = oracles.project_poly_to_sub(g, lambda v: np.sum(v * v, axis=1))
        for i in range(3):
            prod = oracles.project_poly_to_sub(
                g, lambda v, a=i: v[:, a] * np.sum(v * v, axis=1)
            )
            lhs = sym_gamma(vecs[i], vsq)
            rhs = -0.5 * L_sub @ (p1 @ prod)
            assert np.max(np.abs(lhs - rhs)) < 1e-5

        quart = oracles.project_poly_to_sub(g, lambda v: np.sum(v * v, axis=1) ** 2)
        lhs = sym_gamma(vsq, vsq)
        rhs = -0.5 * L_sub @ (p1 @ quart)
        assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_projection_helper_roundtrip(collision_default):
    g = collision_default.gamma
    got = oracles.project_poly_to_sub(g, lambda v: np.ones(v.shape[0]))
    assert np.allclose(got, g.chi_sub[0], atol=1e-12)
    got = oracles.project_poly_to_sub(g, lambda v: v[:, 0] * v[:, 1])
    want = np.zeros(35)
    want[g.indices.index((1, 1, 0))] = 1.0
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# the pointwise oracles against bad input
# ---------------------------------------------------------------------------

_V = [1.0, 0.0, 0.0]
_RAGGED = [[1.0, 0.0, 0.0], [1.0, 0.0]]


def _kernel(which="k1", v=_V, vstar=(0.0, 1.0, 0.0)):
    return kernel_eval(which, v, vstar)


def _tables(r_nodes=(0.5, 1.0), lmax=2, n_panel_points=12):
    return reduced_kernel_tables(r_nodes, lmax, n_panel_points)


# the tests' pointwise kernels (oracles.nu_eval, kernel_eval) reject a bad
# velocity or kernel name, and their kernel tables (oracles.reduced_kernel_tables)
# bad nodes or sizes, with a ValueError that carries their own message
_ORACLE_BAD_CALLS = {
    "nu_eval": {
        "nan": lambda: nu_eval(math.nan),
        "inf-entry": lambda: nu_eval([1.0, math.inf, 0.0]),
        "str": lambda: nu_eval("a"),
        "str-entries": lambda: nu_eval(["1", "0", "0"]),
        "none": lambda: nu_eval(None),
        "bool": lambda: nu_eval(True),
        "bool-entry": lambda: nu_eval([True, 0.0, 0.0]),
        "complex": lambda: nu_eval([1.0j, 0.0, 0.0]),
        "ragged": lambda: nu_eval(_RAGGED),
        "two-components": lambda: nu_eval([1.0, 2.0]),
    },
    "kernel_eval": {
        "name-unknown": lambda: _kernel(which="k2"),
        "name-none": lambda: _kernel(which=None),
        "v-nan": lambda: _kernel(v=[math.nan, 0.0, 0.0]),
        "vstar-inf": lambda: _kernel(vstar=[0.0, math.inf, 0.0]),
        "v-str": lambda: _kernel(v=["1", "0", "0"]),
        "vstar-str": lambda: _kernel(vstar="abc"),
        "v-none": lambda: _kernel(v=None),
        "v-bool": lambda: _kernel(v=[True, False, False]),
        "v-complex": lambda: _kernel(v=[1.0j, 0.0, 0.0]),
        "v-ragged": lambda: _kernel(v=_RAGGED),
        "v-two-components": lambda: _kernel(v=[1.0, 0.0]),
        "coincident": lambda: _kernel(vstar=_V),
    },
    "reduced_kernel_tables": {
        "nodes-nan": lambda: _tables(r_nodes=(0.5, math.nan)),
        "nodes-zero": lambda: _tables(r_nodes=(0.0, 1.0)),
        "nodes-negative": lambda: _tables(r_nodes=(-0.5, 1.0)),
        "nodes-2d": lambda: _tables(r_nodes=((0.5, 1.0),)),
        "nodes-scalar": lambda: _tables(r_nodes=0.5),
        "nodes-str": lambda: _tables(r_nodes=("a", "b")),
        "nodes-none": lambda: _tables(r_nodes=None),
        "nodes-bool": lambda: _tables(r_nodes=(True, True)),
        "nodes-complex": lambda: _tables(r_nodes=(0.5j, 1.0)),
        "nodes-ragged": lambda: _tables(r_nodes=((0.5,), (1.0, 2.0))),
        "lmax-negative": lambda: _tables(lmax=-1),
        "lmax-float": lambda: _tables(lmax=2.0),
        "lmax-bool": lambda: _tables(lmax=True),
        "points-zero": lambda: _tables(n_panel_points=0),
        "points-str": lambda: _tables(n_panel_points="12"),
    },
}
_ORACLE_MESSAGES = {"nu_eval": "velocities must", "kernel_eval": "velocities must|kernel",
                    "reduced_kernel_tables": "r_nodes must|lmax must|n_panel_points must"}


@pytest.mark.parametrize("name, case", [(name, case) for name, rows in _ORACLE_BAD_CALLS.items()
                                        for case in rows])
def test_pointwise_oracle_rejects_bad_input(name, case):
    with pytest.raises(ValueError, match=_ORACLE_MESSAGES[name]):
        _ORACLE_BAD_CALLS[name][case]()


# ---------------------------------------------------------------------------
# boundary contract: every public callable of the module against bad input,
# with ValueError as the module's documented error for bad input
# ---------------------------------------------------------------------------

def _gamma(cm, f=None, g=None):
    zero = np.zeros(35)
    return gamma_apply(cm, zero if f is None else f, zero if g is None else g)


def _inverse(cm, which="L", sector=SECTOR_AXIAL, w=None):
    n = cm.L_sector[SECTOR_AXIAL].shape[0]
    return collision_inverse(cm, which, sector, np.ones(n) if w is None else w(n))


_BAD_CALLS = {
    "assemble_collision": {
        "basis-none": lambda cm: assemble_collision(None),
        "basis-spec": lambda cm: assemble_collision(BasisSpec(6, 3)),
        "gamma-str": lambda cm: assemble_collision(cm.basis, build_gamma="no"),
        "gamma-int": lambda cm: assemble_collision(cm.basis, build_gamma=1),
    },
    "gamma_apply": {
        "cm-none": lambda cm: _gamma(None),
        "cm-basis": lambda cm: _gamma(cm.basis),
        "f-short": lambda cm: _gamma(cm, f=np.zeros(34)),
        "g-2d": lambda cm: _gamma(cm, g=np.zeros((35, 1))),
        "f-nan": lambda cm: _gamma(cm, f=np.full(35, math.nan)),
        "g-inf": lambda cm: _gamma(cm, g=np.full(35, math.inf)),
        "f-str": lambda cm: _gamma(cm, f=np.full(35, "1")),
        "g-none": lambda cm: gamma_apply(cm, np.zeros(35), None),
        "f-bool": lambda cm: _gamma(cm, f=np.zeros(35, dtype=bool)),
        "f-ragged": lambda cm: _gamma(cm, f=[[0.0] * 34, [0.0]]),
    },
    "collision_inverse": {
        "cm-none": lambda cm: collision_inverse(None, "L", SECTOR_AXIAL, np.zeros(3)),
        "cm-basis": lambda cm: collision_inverse(cm.basis, "L", SECTOR_AXIAL, np.zeros(3)),
        "which-unknown": lambda cm: _inverse(cm, which="L2"),
        "sector-two": lambda cm: _inverse(cm, sector=2),
        "sector-bool": lambda cm: _inverse(cm, sector=True),
        "w-short": lambda cm: _inverse(cm, w=lambda n: np.ones(n - 1)),
        "w-2d": lambda cm: _inverse(cm, w=lambda n: np.ones((n, 1))),
        "w-nan": lambda cm: _inverse(cm, w=lambda n: np.full(n, math.nan)),
        "w-str": lambda cm: _inverse(cm, w=lambda n: np.full(n, "1")),
        "w-none": lambda cm: collision_inverse(cm, "L", SECTOR_AXIAL, None),
        "w-bool": lambda cm: _inverse(cm, w=lambda n: np.ones(n, dtype=bool)),
        "w-ragged": lambda cm: _inverse(cm, w=lambda n: [[1.0] * (n - 1), [1.0]]),
    },
    "null_coordinates": {
        "basis-none": lambda cm: null_coordinates(None, "L", SECTOR_AXIAL),
        "basis-cm": lambda cm: null_coordinates(cm, "L", SECTOR_AXIAL),
        "which-unknown": lambda cm: null_coordinates(cm.basis, "L2", SECTOR_AXIAL),
        "which-list": lambda cm: null_coordinates(cm.basis, ["L"], SECTOR_AXIAL),
        "sector-two": lambda cm: null_coordinates(cm.basis, "L", 2),
        "sector-bool": lambda cm: null_coordinates(cm.basis, "L", True),
        "sector-float": lambda cm: null_coordinates(cm.basis, "L", 1.0),
    },
}
# the module's own messages per callable: a ValueError that numpy raises on
# the way (say "could not convert string to float") does not match them
_MESSAGES = {
    "assemble_collision": "expected Basis|build_gamma must",
    "gamma_apply": "expected CollisionMatrices|sub-basis coefficients must",
    "collision_inverse": "expected CollisionMatrices|which must|sector must|w must",
    "null_coordinates": "expected Basis|which must|sector must",
}
# public names that take no caller input of their own
_NOT_ENTRY_POINTS = {
    "AssemblyError": "the error of an assembly or solve that fails on valid input",
    "CollisionMatrices": "the record assemble_collision returns; the functions check it",
    "GammaTensor": "the record inside CollisionMatrices; no caller builds one",
}


class TestBoundaryContract:
    """Every public callable of collision_ops rejects bad input with a ValueError
    that carries the module's own message."""

    def test_table_covers_the_public_names(self):
        public = {name for name, obj in vars(collision_ops).items()
                  if callable(obj) and getattr(obj, "__module__", None) == collision_ops.__name__
                  and not name.startswith("_")}
        assert public == set(_BAD_CALLS) | set(_NOT_ENTRY_POINTS)
        assert not set(_BAD_CALLS) & set(_NOT_ENTRY_POINTS)
        assert set(_MESSAGES) == set(_BAD_CALLS)

    @pytest.mark.parametrize("name, case", [(name, case) for name, rows in _BAD_CALLS.items()
                                            for case in rows])
    def test_bad_input_raises_value_error(self, collision_small, name, case):
        with pytest.raises(ValueError, match=_MESSAGES[name]):
            _BAD_CALLS[name][case](collision_small)

    def test_table_calls_are_valid_when_repaired(self, collision_small):
        # the helpers behind the rows succeed on good input, so each row fails
        # for its one bad argument; gamma_apply gets as far as the missing tensor
        cm = collision_small
        assert _kernel() > 0.0
        assert _tables()[0].shape == (3, 2, 2)
        assert _inverse(cm).shape == (cm.L_sector[SECTOR_AXIAL].shape[0],)
        with pytest.raises(AssemblyError, match="build_gamma=True"):
            _gamma(cm)
