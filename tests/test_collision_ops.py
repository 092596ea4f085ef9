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
from scipy.special import eval_legendre

from kslab.collision_ops import (
    AssemblyError,
    assemble_collision,
    collision_inverse,
    gamma_apply,
    hermite_sub_indices,
    kernel_eval,
    null_coordinates,
    nu_eval,
    project_poly_to_sub,
    reduced_kernel_tables,
)
from kslab.velocity_basis import SECTOR_AXIAL, SECTOR_TRANSVERSE

NU_ZERO = 5.0132565492620005
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
        for name, res in collision_default.raw_null_residuals.items():
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
        got = collision_default.nu_deg[0][0, 0]
        assert abs(got - want) < 1e-8 * want
        # L1 chi0 = 0 forces the gain table to reproduce the same number
        assert abs(collision_default.K1_deg[0][0, 0] - want) < 1e-6 * want

    def test_gap_estimate(self, collision_default, collision_small):
        mu = collision_default.mu_estimate
        # discrete eigenvalues sit above the essential infimum -nu(0)
        assert 0.05 < mu < NU_ZERO
        # variational: enlarging the space can only lower the estimate
        assert collision_small.mu_estimate >= mu - 1e-9

    def test_nu_bounds(self, collision_default):
        assert 0.5 < collision_default.nu0 < collision_default.nu1 < 6.0

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
    def test_sub_basis_enumeration(self):
        idx = hermite_sub_indices()
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

    def test_sub_operators_consistent(self, collision_default):
        g = collision_default.gamma
        for mat in (g.L_sub, g.L1_sub):
            assert mat is not None
            assert np.max(np.abs(mat - mat.T)) < 1e-8
            assert np.linalg.eigvalsh(mat).max() < 1e-6
        for j in range(5):
            assert np.linalg.norm(g.L_sub @ g.chi_sub[j]) < 1e-6
        assert np.linalg.norm(g.L1_sub @ g.chi_sub[0]) < 1e-6

    def test_apply_validates_shape(self, collision_default):
        with pytest.raises(ValueError):
            gamma_apply(collision_default, np.zeros(34), np.zeros(35))

    def test_apply_without_tensor_raises(self, collision_small):
        assert collision_small.gamma.tensor is None
        with pytest.raises(AssemblyError, match="build_gamma=True"):
            gamma_apply(collision_small, np.zeros(35), np.zeros(35))

    def test_matches_frozen_fixture(self, collision_default):
        # the fixture was computed with 8 radial nodes and the loss term summed
        # over all (i, k), so it checks that the smaller rule is exact
        ref = json.loads(GAMMA_FIXTURE.read_text())
        t = collision_default.gamma.tensor
        assert abs(np.linalg.norm(t) - ref["frobenius_norm"]) <= 1e-12 * ref["frobenius_norm"]
        for triple in ref["triples"]:
            f, g, h = np.random.default_rng(triple["seed"]).standard_normal((3, 35))
            want = triple["h_dot_gamma_fg"]
            got = h @ gamma_apply(collision_default, f, g)
            assert abs(got - want) <= 1e-12 * abs(want)

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

    def test_single_species_forcing(self, collision_default):
        g = collision_default.gamma
        chi0 = g.chi_sub[0]
        for j in (1, 2, 3):
            lhs = gamma_apply(collision_default, chi0, g.chi_sub[j])
            rhs = -g.L1_sub @ g.chi_sub[j]
            assert np.max(np.abs(lhs - rhs)) < 1e-5
        vsq = project_poly_to_sub(g, lambda v: np.sum(v * v, axis=1))
        lhs = gamma_apply(collision_default, chi0, vsq)
        rhs = -g.L1_sub @ vsq
        assert np.max(np.abs(lhs - rhs)) < 1e-5

    def test_symmetrized_quadratic_forcing(self, collision_default):
        g = collision_default.gamma
        p1 = self._p1_sub(g)

        def sym_gamma(a, b):
            return 0.5 * (
                gamma_apply(collision_default, a, b) + gamma_apply(collision_default, b, a)
            )

        vecs = [g.chi_sub[1], g.chi_sub[2], g.chi_sub[3]]
        for i in range(3):
            for j in range(i, 3):
                prod = project_poly_to_sub(
                    g, lambda v, a=i, b=j: v[:, a] * v[:, b]
                )
                lhs = sym_gamma(vecs[i], vecs[j])
                rhs = -0.5 * g.L_sub @ (p1 @ prod)
                assert np.max(np.abs(lhs - rhs)) < 1e-5

        vsq = project_poly_to_sub(g, lambda v: np.sum(v * v, axis=1))
        for i in range(3):
            prod = project_poly_to_sub(
                g, lambda v, a=i: v[:, a] * np.sum(v * v, axis=1)
            )
            lhs = sym_gamma(vecs[i], vsq)
            rhs = -0.5 * g.L_sub @ (p1 @ prod)
            assert np.max(np.abs(lhs - rhs)) < 1e-5

        quart = project_poly_to_sub(g, lambda v: np.sum(v * v, axis=1) ** 2)
        lhs = sym_gamma(vsq, vsq)
        rhs = -0.5 * g.L_sub @ (p1 @ quart)
        assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_projection_helper_roundtrip(collision_default):
    g = collision_default.gamma
    got = project_poly_to_sub(g, lambda v: np.ones(v.shape[0]))
    assert np.allclose(got, g.chi_sub[0], atol=1e-12)
    got = project_poly_to_sub(g, lambda v: v[:, 0] * v[:, 1])
    want = np.zeros(35)
    want[g.index_of((1, 1, 0))] = 1.0
    assert np.allclose(got, want, atol=1e-12)
