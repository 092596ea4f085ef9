"""Fluid-limit tests.

Covers transport coefficients (positivity, branch identities, the frozen
fixture), the heat-branch and field-system mode semigroups, the Helmholtz and
compressible/incompressible splittings, the linear fluid-Maxwell mode solver
with Duhamel forcing, and the aggregate decay-rate fits.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from kslab import fluid_limits as fl
from kslab.dispersion import eta_coefficient, expansion_coefficients

FIXTURE = Path(__file__).parent / "fixtures" / "transport.json"


@pytest.fixture(scope="module")
def tc(collision_default):
    return fl.transport_coefficients(collision_default)


class TestTransportCoefficients:
    def test_strictly_positive(self, tc):
        assert tc.kappa0 > 0 and tc.kappa1 > 0 and tc.eta > 0
        assert all(v > 0 for v in tc.a_list.values())

    def test_branch_symmetries(self, tc):
        assert tc.a_list[2] == tc.a_list[3]
        # the two acoustic forms are separate solves and must agree by parity
        assert abs(tc.a_list[-1] - tc.a_list[1]) < 1e-12 * tc.a_list[1]

    def test_shear_and_entropy_identities(self, tc):
        assert tc.a_list[2] == pytest.approx(tc.kappa0, rel=1e-6)
        # entropy-branch curvature against the scaled heat-flux form
        assert tc.a_list[0] == pytest.approx(tc.kappa1, rel=1e-6)

    def test_matches_frozen_fixture(self, tc):
        fx = json.loads(FIXTURE.read_text())
        tol = 10.0 ** (-fx["digits"])
        assert abs(tc.kappa0 - fx["kappa0"]) < tol
        assert abs(tc.kappa1 - fx["kappa1"]) < tol
        assert abs(tc.eta - fx["eta"]) < tol
        for key, j in (("a_minus1", -1), ("a_0", 0), ("a_1", 1),
                       ("a_2", 2), ("a_3", 3)):
            assert abs(tc.a_list[j] - fx[key]) < tol

    def test_truncation_deltas_small(self, tc):
        assert set(tc.truncation_delta) == {"kappa0", "kappa1", "eta", "a1"}
        for value in tc.truncation_delta.values():
            assert 0 <= value < 1e-6

    def test_agrees_with_dispersion_route(self, tc, collision_default):
        assert tc.eta == pytest.approx(eta_coefficient(collision_default),
                                       rel=1e-10)
        coeffs = expansion_coefficients(collision_default)
        assert tc.a_list[0] == pytest.approx(coeffs["boltzmann_0"][1], rel=1e-10)
        assert tc.a_list[1] == pytest.approx(coeffs["boltzmann_1"][1], rel=1e-10)
        assert tc.kappa0 == pytest.approx(coeffs["boltzmann_2"][1], rel=1e-10)

    def test_cached_on_matrices(self, tc, collision_default):
        assert fl.transport_coefficients(collision_default) is tc


class TestY1Mode:
    def _heat_state(self, basis, c0, c2, c3):
        h0 = math.sqrt(0.4) * basis.chi(0) - math.sqrt(0.6) * basis.chi(4)
        return c0 * h0 + c2 * basis.chi(2) + c3 * basis.chi(3)

    def test_time_zero_is_projection_sum(self, tc, basis_default):
        f0 = self._heat_state(basis_default, 0.4, -0.9, 0.25)
        state = fl.Y1_mode(0.0, 1.3, f0, tc, basis_default)
        assert np.linalg.norm(state.f - f0) < 1e-13
        assert state.coefficients == pytest.approx([0.4, -0.9, 0.25], abs=1e-13)

    def test_acoustic_content_dropped(self, tc, basis_default):
        # axial momentum lies in the macroscopic space but not on the three
        # heat branches, so the semigroup annihilates it
        state = fl.Y1_mode(0.0, 1.0, basis_default.chi(1), tc, basis_default)
        assert np.linalg.norm(state.f) < 1e-13

    def test_microscopic_component_rejected(self, tc, basis_default):
        f0 = np.zeros(basis_default.dim)
        f0[basis_default.index(0, 0, 3, 0)] = 1.0
        with pytest.raises(fl.FluidError, match="microscopic"):
            fl.Y1_mode(0.5, 1.0, f0, tc, basis_default)

    def test_parallel_projection_vanishes(self, tc, basis_default):
        f0 = self._heat_state(basis_default, 1.0, 0.3, -0.7)
        for t in (0.0, 0.8, 4.0):
            state = fl.Y1_mode(t, 0.9, f0, tc, basis_default)
            f_par, f_perp = fl.p_split(state.f, basis_default)
            assert np.linalg.norm(f_par) < 1e-13
            assert np.linalg.norm(f_perp - state.f) < 1e-13

    def test_semigroup_law(self, tc, basis_default):
        f0 = self._heat_state(basis_default, 0.3, 0.7, -0.2)
        one = fl.Y1_mode(0.4, 1.2, f0, tc, basis_default)
        two = fl.Y1_mode(0.9, 1.2, one.f, tc, basis_default)
        direct = fl.Y1_mode(1.3, 1.2, f0, tc, basis_default)
        assert np.linalg.norm(two.f - direct.f) < 1e-12

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_heat_decay_rates(self, tc, basis_default, seed):
        r = np.random.default_rng(seed)
        c = r.standard_normal(3)
        s = float(r.uniform(0.1, 3.0))
        t = float(r.uniform(0.0, 5.0))
        f0 = self._heat_state(basis_default, *c)
        state = fl.Y1_mode(t, s, f0, tc, basis_default)
        rates = (tc.a_list[0], tc.a_list[2], tc.a_list[3])
        expected = [ck * math.exp(-a * s * s * t) for ck, a in zip(c, rates)]
        assert state.coefficients == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(state.f) <= np.linalg.norm(f0) * (1 + 1e-12)

    def test_heat_flow_grid_matches_y1_mode(self, tc, basis_default, rng):
        # _heat_flow drops everything off the heat span, so the per-mode
        # oracle is Y1_mode of the heat-span projection
        dim = basis_default.dim
        hs = np.array([self._heat_state(basis_default, *row) for row in np.eye(3)])
        s = np.array([0.2, 0.9, 2.5])
        t = np.array([0.0, 0.3, 1.7, 6.0])
        f0 = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        flow = fl._heat_flow(f0, s, t, tc, basis_default)
        assert flow.shape == (4, 3, dim)
        for i, si in enumerate(s):
            heat_part = (hs @ f0[i]) @ hs
            for j, tj in enumerate(t):
                want = fl.Y1_mode(float(tj), float(si), heat_part, tc, basis_default).f
                assert np.max(np.abs(flow[j, i] - want)) < 1e-14


def _random_field_mode(rng, s, omega=None):
    omega = np.array([1.0, 0.0, 0.0]) if omega is None else omega
    e0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b0 -= (omega @ b0) * omega
    rho0 = 1j * s * (omega @ e0)
    return rho0, e0, b0


class TestModeInputs:
    """Non-finite times and wave numbers fail with FluidError."""

    @pytest.mark.parametrize("t, s", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, math.nan), (1.0, math.inf)])
    def test_y1_rejects(self, tc, basis_default, t, s):
        f0 = basis_default.chi(2)
        with pytest.raises(fl.FluidError, match="finite"):
            fl.Y1_mode(t, s, f0, tc, basis_default)

    @pytest.mark.parametrize("t, s", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, math.nan), (1.0, math.inf)])
    def test_y2_rejects(self, tc, t, s):
        e0 = np.array([0.0, 1.0, 0.0], complex)
        with pytest.raises(fl.FluidError, match="finite"):
            fl.Y2_mode(t, s, 0.0, e0, np.zeros(3, complex), tc)


class TestY2Mode:
    def test_time_zero_reproduction(self, tc):
        rng = np.random.default_rng(3)
        rho0, e0, b0 = _random_field_mode(rng, 0.8)
        state = fl.Y2_mode(0.0, 0.8, rho0, e0, b0, tc)
        assert abs(state.rho - rho0) < 1e-10
        assert np.linalg.norm(state.E - e0) < 1e-10
        assert np.linalg.norm(state.B - b0) < 1e-10

    def test_biorthonormality_at_unit_wavenumber(self, tc):
        b, x, metric = fl.y2_eigenbasis(1.0, tc.eta)
        gram = (x * metric[:, None]).T @ x
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12
        assert abs((np.abs(x[:, 0]) ** 2 * metric).sum() - 1.0) < 1e-12

    def test_eigenbasis_degenerate_at_crossing(self, tc):
        with pytest.raises(fl.FluidError, match="branch collision"):
            fl.y2_eigenbasis(tc.eta / 2.0, tc.eta)

    def test_eigen_expansion_matches_block_route(self, tc):
        rng = np.random.default_rng(11)
        s, t = 1.0, 1.7
        rho0, e0, b0 = _random_field_mode(rng, s)
        b, x, metric = fl.y2_eigenbasis(s, tc.eta)
        v0 = fl.Y2_mode(0.0, s, rho0, e0, b0, tc).coefficients
        weights = np.array([(v0 * metric) @ x[:, j] for j in range(5)])
        via_eigen = x @ (np.exp(b * t) * weights)
        state = fl.Y2_mode(t, s, rho0, e0, b0, tc)
        assert np.max(np.abs(via_eigen - state.coefficients)) < 1e-12

    def test_confluent_continuity_at_crossing(self, tc):
        omega = np.array([1.0, 0.0, 0.0])
        rng = np.random.default_rng(5)
        e0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b0 -= (omega @ b0) * omega
        s_star = tc.eta / 2.0
        outs = []
        for s in (s_star, s_star - 1e-6, s_star + 1e-6):
            state = fl.Y2_mode(3.0, s, 1j * s * (omega @ e0), e0, b0, tc)
            outs.append(np.concatenate([[state.rho], state.E, state.B]))
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-4
        assert np.max(np.abs(outs[0] - outs[2])) < 1e-4

    def test_constraints_preserved_along_trajectory(self, tc):
        rng = np.random.default_rng(7)
        s = 1.4
        rho0, e0, b0 = _random_field_mode(rng, s)
        omega = np.array([1.0, 0.0, 0.0])
        for t in (0.3, 2.5, 12.0):
            state = fl.Y2_mode(t, s, rho0, e0, b0, tc)
            assert abs(state.rho - 1j * s * (omega @ state.E)) < 1e-10
            assert abs(omega @ state.B) < 1e-10

    def test_constraint_violations_rejected(self, tc):
        rng = np.random.default_rng(9)
        rho0, e0, b0 = _random_field_mode(rng, 1.0)
        with pytest.raises(fl.FluidError, match="charge"):
            fl.Y2_mode(1.0, 1.0, rho0 + 0.1, e0, b0, tc)
        with pytest.raises(fl.FluidError, match="divergence free"):
            fl.Y2_mode(1.0, 1.0, rho0, e0, b0 + np.array([0.1, 0, 0]), tc)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_field_energy_nonincreasing(self, tc, seed):
        r = np.random.default_rng(seed)
        s = float(r.uniform(0.05, 3.0))
        t = float(r.uniform(0.0, 20.0))
        rho0, e0, b0 = _random_field_mode(r, s)
        metric = np.array([1.0 + s**-2, 1, 1, 1, 1])

        def energy(state):
            return float(metric @ np.abs(state.coefficients) ** 2)

        start = fl.Y2_mode(0.0, s, rho0, e0, b0, tc)
        later = fl.Y2_mode(t, s, rho0, e0, b0, tc)
        assert energy(later) <= energy(start) * (1 + 1e-11)


class TestFieldFlow:
    def test_grid_matches_generator_exponential(self, tc):
        eta = tc.eta
        s = eta / 2.0 * np.array([0.3, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.4, 4.0])
        t = np.array([0.0, 0.4, 1.7, 6.0])
        rng = np.random.default_rng(17)
        v0 = rng.standard_normal((5, len(s))) + 1j * rng.standard_normal((5, len(s)))
        flow = np.array(fl._field_flow(eta, s, t, *v0))        # (5, n_t, n_s)
        assert flow.shape == (5, len(t), len(s))
        for j, sj in enumerate(s):
            # reduced order (rho, X2, X3, Y2, Y3); (X3, Y2) couple through
            # +i s and (X2, Y3) through -i s
            gen = np.diag([-eta * (1.0 + sj * sj), -eta, -eta, 0.0, 0.0]).astype(complex)
            gen[2, 3] = gen[3, 2] = 1j * sj
            gen[1, 4] = gen[4, 1] = -1j * sj
            for k, tk in enumerate(t):
                want = expm(tk * gen) @ v0[:, j]
                assert np.max(np.abs(flow[:, k, j] - want)) < 1e-12
            if abs(2.0 * sj / eta - 1.0) > 0.2:
                b, x, metric = fl.y2_eigenbasis(sj, eta)
                weights = (v0[:, j] * metric) @ x
                for k, tk in enumerate(t):
                    via_eigen = x @ (np.exp(b * tk) * weights)
                    assert np.max(np.abs(flow[:, k, j] - via_eigen)) < 1e-12

    @pytest.mark.parametrize("s", [0.0, 0.01, 0.1, 0.107790, 0.2, 1.0])
    def test_long_time_block_matches_generator_exponential(self, s):
        # past t ~ 6600 a separate cosh(delta t) overflows at this eta
        eta, t = 0.215581, 1e4
        for c in (1j * s, -1j * s):
            e11, e12, e22 = fl._field_block(eta, c, t)
            got = np.array([[e11, e12], [e12, e22]], dtype=complex)
            want = expm(t * np.array([[-eta, c], [c, 0.0]]))
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-10 * max(np.max(np.abs(want)), 1e-300)


class TestSplittings:
    def test_helmholtz_trivial_cases(self):
        omega = np.array([0.0, 0.0, 1.0])
        par, perp = fl.helmholtz_split(omega.astype(complex), omega)
        assert np.linalg.norm(par - omega) < 1e-15
        assert np.linalg.norm(perp) < 1e-15
        u = np.array([1.0, 2.0, 0.0], complex)
        par, perp = fl.helmholtz_split(u, omega)
        assert np.linalg.norm(par) < 1e-15
        assert np.linalg.norm(perp - u) < 1e-15

    def test_helmholtz_random_parts(self):
        rng = np.random.default_rng(21)
        omega = rng.standard_normal(3)
        omega /= np.linalg.norm(omega)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        par, perp = fl.helmholtz_split(u, omega)
        assert np.linalg.norm(par + perp - u) < 1e-14
        assert abs(par @ np.conj(perp)) < 1e-14

    def test_mixing_pair_orthonormal(self, basis_default):
        chi0, chi4 = basis_default.chi(0), basis_default.chi(4)
        ht0 = math.sqrt(0.4) * chi0 - math.sqrt(0.6) * chi4
        ht1 = math.sqrt(0.6) * chi0 + math.sqrt(0.4) * chi4
        assert abs(ht0 @ ht1) < 1e-14
        assert abs(ht0 @ ht0 - 1.0) < 1e-14
        assert abs(ht1 @ ht1 - 1.0) < 1e-14

    def test_transverse_momentum_is_incompressible(self, basis_default):
        f_par, f_perp = fl.p_split(basis_default.chi(2), basis_default)
        assert np.linalg.norm(f_par) < 1e-14
        assert np.linalg.norm(f_perp - basis_default.chi(2)) < 1e-14

    def test_array_split_matches_per_mode_formula(self, basis_default, rng):
        basis = basis_default
        chi = [basis.chi(j) for j in range(5)]
        h0 = math.sqrt(0.4) * chi[0] - math.sqrt(0.6) * chi[4]
        ht1 = math.sqrt(0.6) * chi[0] + math.sqrt(0.4) * chi[4]
        stack = (rng.standard_normal((3, 4, basis.dim))
                 + 1j * rng.standard_normal((3, 4, basis.dim)))
        f_par, f_perp = fl.p_split(stack, basis)
        assert f_par.shape == f_perp.shape == stack.shape
        for idx in np.ndindex(3, 4):
            f = stack[idx]
            micro = f - sum((f @ c) * c for c in chi)
            par = (f @ chi[1]) * chi[1] + (f @ ht1) * ht1
            perp = (f @ chi[2]) * chi[2] + (f @ chi[3]) * chi[3] + (f @ h0) * h0 + micro
            assert np.max(np.abs(f_par[idx] - par)) < 1e-14
            assert np.max(np.abs(f_perp[idx] - perp)) < 1e-14
        inner = np.sum(f_par * f_perp.conj(), axis=-1)
        size = np.sum(np.abs(stack) ** 2, axis=-1)
        assert np.all(np.abs(inner) <= 1e-14 * size)

    def test_identity_on_random_states(self, basis_default, rng):
        for _ in range(100):
            f = rng.standard_normal(basis_default.dim) \
                + 1j * rng.standard_normal(basis_default.dim)
            f_par, f_perp = fl.p_split(f, basis_default)
            assert np.linalg.norm(f_par + f_perp - f) < 1e-12
            assert abs(f_par @ np.conj(f_perp)) < 1e-12 * (f @ np.conj(f)).real


def _osc_integral(alpha, beta, t):
    """integral_0^t exp(alpha (t - tau)) cos(beta tau) dtau, closed form."""
    return ((np.exp(1j * beta * t) - np.exp(alpha * t)) / (1j * beta - alpha)).real \
        if beta else (1.0 - np.exp(alpha * t)) / (-alpha)


class TestLinearNsmf:
    def test_unforced_closed_forms(self, tc):
        omega = np.array([1.0, 0.0, 0.0])
        rng = np.random.default_rng(13)
        rho0, e0, b0 = _random_field_mode(rng, 2.0)
        q0 = 0.3
        mode = fl.NsmfMode(s=2.0, n0=-math.sqrt(2 / 3) * q0, q0=q0,
                           m0=np.array([0.0, 1.0, 0.5], complex),
                           rho0=rho0, E0=e0, B0=b0)
        times = np.array([0.0, 0.5, 2.0])
        out = fl.linear_nsmf_solve([mode], times, tc)
        for i, t in enumerate(times):
            k2 = 4.0
            assert np.linalg.norm(out["m"][i, 0]
                                  - math.exp(-tc.kappa0 * k2 * t) * mode.m0) < 1e-12
            assert abs(out["q"][i, 0] - math.exp(-tc.kappa1 * k2 * t) * q0) < 1e-12
            assert abs(out["n"][i, 0]
                       + math.sqrt(2 / 3) * out["q"][i, 0]) < 1e-14
            assert abs(out["rho"][i, 0]
                       - math.exp(-tc.eta * 5.0 * t) * rho0) < 1e-12
        # field trajectory must match the mode semigroup itself
        ref = fl.Y2_mode(2.0, 2.0, rho0, e0, b0, tc)
        assert np.linalg.norm(out["E"][2, 0] - ref.E) < 1e-12
        assert np.linalg.norm(out["B"][2, 0] - ref.B) < 1e-12

    def test_constraint_rejections(self, tc):
        times = np.array([0.0, 1.0])
        with pytest.raises(fl.FluidError, match="divergence free"):
            fl.linear_nsmf_solve(
                [fl.NsmfMode(s=1.0, m0=np.array([1.0, 0, 0], complex))],
                times, tc)
        with pytest.raises(fl.FluidError, match="trace relation"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, n0=0.5, q0=0.5)], times, tc)
        with pytest.raises(fl.FluidError, match="charge"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, rho0=1.0)], times, tc)
        with pytest.raises(fl.FluidError, match="magnetic"):
            fl.linear_nsmf_solve(
                [fl.NsmfMode(s=1.0, B0=np.array([1.0, 0, 0], complex))],
                times, tc)

    def test_transverse_momentum_forcing(self, tc):
        s, beta = 1.5, 2.0
        force = lambda tau: np.array([0.0, 0.0, math.cos(beta * tau)], complex)
        mode = fl.NsmfMode(s=s, g1=force)
        times = np.array([0.0, 0.7, 1.9])
        out = fl.linear_nsmf_solve([mode], times, tc)
        alpha = -tc.kappa0 * s * s
        for i, t in enumerate(times):
            want = np.array([0.0, 0.0, _osc_integral(alpha, beta, t)])
            assert np.linalg.norm(out["m"][i, 0] - want) < 1e-8
        # pressure diagnostic reports the parallel multiplier of the forcing
        mode_par = fl.NsmfMode(s=s, g1=lambda tau: np.array([1.0, 0, 0], complex))
        out_par = fl.linear_nsmf_solve([mode_par], times, tc)
        assert np.linalg.norm(out_par["m"][2, 0]) < 1e-12
        assert out_par["p"][2, 0] == pytest.approx(-1j / s)

    def test_heat_forcing_constant(self, tc):
        s = 0.9
        mode = fl.NsmfMode(s=s, q0=0.2, n0=-math.sqrt(2 / 3) * 0.2,
                           g2=lambda tau: 1.0)
        out = fl.linear_nsmf_solve([mode], np.array([1.3]), tc)
        a = tc.kappa1 * s * s
        want = math.exp(-a * 1.3) * 0.2 + 0.6 * (1.0 - math.exp(-a * 1.3)) / a
        assert abs(out["q"][0, 0] - want) < 1e-8

    def test_axial_field_forcing_drives_charge_only(self, tc):
        s, beta = 1.2, 1.0
        omega = np.array([1.0, 0.0, 0.0])
        force = lambda tau: omega.astype(complex) * math.cos(beta * tau)
        mode = fl.NsmfMode(s=s, g3=force)
        times = np.array([0.0, 0.8, 2.4])
        out = fl.linear_nsmf_solve([mode], times, tc)
        alpha = -tc.eta * (1.0 + s * s)
        for i, t in enumerate(times):
            want = 1j * s * _osc_integral(alpha, beta, t)
            assert abs(out["rho"][i, 0] - want) < 1e-8
            assert np.linalg.norm(out["B"][i, 0]) < 1e-12
            # the driven field stays parallel: E = -i omega rho / s
            assert np.linalg.norm(out["E"][i, 0]
                                  + 1j * omega * out["rho"][i, 0] / s) < 1e-10

    def test_transverse_field_forcing_matches_quadrature(self, tc):
        s = 0.7
        force = lambda tau: np.array([0.0, math.sin(tau), 0.0], complex)
        mode = fl.NsmfMode(s=s, g3=force)
        out = fl.linear_nsmf_solve([mode], np.array([2.0]), tc)
        # dense-grid trapezoid oracle on the block Duhamel integral
        taus = np.linspace(0.0, 2.0, 20001)
        vals = np.zeros((len(taus), 2), complex)
        omega = np.array([1.0, 0.0, 0.0])
        p1 = np.array([0.0, 1.0, 0.0])
        p2 = np.array([0.0, 0.0, 1.0])
        for k, tau in enumerate(taus):
            e11, e12, _ = fl._field_block(tc.eta, 1j * s, 2.0 - tau)
            f1 = np.cross(omega, force(tau)) @ p2
            vals[k] = (e11 * f1, e12 * f1)
        xb, ya = np.trapezoid(vals[:, 0], taus), np.trapezoid(vals[:, 1], taus)
        want_e = -np.cross(omega, xb * p2)
        want_b = -np.cross(omega, ya * p1)
        assert np.linalg.norm(out["E"][0, 0] - want_e) < 1e-6
        assert np.linalg.norm(out["B"][0, 0] - want_b) < 1e-6

    @pytest.mark.parametrize("s", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_wavenumber_rejected(self, tc, s):
        with pytest.raises(fl.FluidError, match="wave number"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=s)], np.array([0.0, 1.0]), tc)

    def test_non_finite_times_rejected(self, tc):
        with pytest.raises(fl.FluidError, match="finite"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0)], np.array([0.0, math.nan]), tc)

    def test_rough_forcing_rejected(self, tc):
        mode = fl.NsmfMode(s=1.0, g2=lambda tau: math.cos(300.0 * tau))
        with pytest.raises(fl.FluidError, match="too rough"):
            fl.linear_nsmf_solve([mode], np.array([2.0]), tc)


class TestDecayExperiments:
    def test_generic_exponent(self, tc):
        fit = fl.y2_decay_experiment(tc, "generic")
        assert fit.exponent == pytest.approx(-0.75, abs=0.08)
        assert np.all(np.diff(fit.norms) < 0)

    def test_generic_exponent_width_robust(self, tc):
        base = tc.eta / math.sqrt(2.0)
        for factor in (0.9, 1.1):
            fit = fl.y2_decay_experiment(tc, "generic",
                                         profile_width=factor * base)
            assert fit.exponent == pytest.approx(-0.75, abs=0.08)

    def test_enhanced_exponent(self, tc):
        fit = fl.y2_decay_experiment(tc, "enhanced")
        assert fit.exponent == pytest.approx(-1.25, abs=0.1)

    def test_heat_branch_exponent(self, tc):
        fit = fl.y1_decay_experiment(tc)
        assert fit.exponent == pytest.approx(-0.75, abs=0.1)

    def test_unknown_kind_rejected(self, tc):
        with pytest.raises(fl.FluidError, match="unknown"):
            fl.y2_decay_experiment(tc, "other")
