"""Fluid-limit tests.

Covers transport coefficients (positivity, branch identities, the frozen
fixture) and their truncation deltas, the heat-branch and field-system mode
semigroups, the Helmholtz and compressible/incompressible splittings, the
linear fluid-Maxwell mode solver with Duhamel forcing, and the aggregate
decay-rate fits.
"""
import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from kslab import collision_ops, fluid_limits as fl
from kslab.collision_ops import AssemblyError, CollisionMatrices, assemble_collision
from kslab.dispersion import eta_coefficient, expansion_coefficients
from kslab.velocity_basis import BasisSpec, build_basis

import oracles

FIXTURE = Path(__file__).parent / "fixtures" / "transport.json"


@pytest.fixture(scope="module")
def tc(collision_default):
    return fl.transport_coefficients(collision_default)


@functools.cache
def _angular_max_one():
    """Collision data whose basis stops at Legendre degree 1."""
    return assemble_collision(build_basis(BasisSpec(2, 1)), build_gamma=False)


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

    @pytest.mark.parametrize("first", ["transport", "expansion"])
    def test_forms_run_once_per_collision_set(self, collision_small, monkeypatch, first):
        # transport_coefficients and expansion_coefficients read one pass of
        # _core_values on the set's own blocks; the refined pass of
        # truncation_deltas is the other call, and only it makes that call
        cm = dataclasses.replace(collision_small, _cache={})
        own = []
        core_values = fl._core_values

        def counting(basis, L_sector, L1_sector):
            own.append(L_sector is cm.L_sector)
            return core_values(basis, L_sector, L1_sector)

        monkeypatch.setattr(fl, "_core_values", counting)
        calls = [lambda: fl.transport_coefficients(cm), lambda: expansion_coefficients(cm)]
        for call in calls if first == "transport" else calls[::-1]:
            call()
            call()
        assert sorted(own) == [True]
        fl.truncation_deltas(cm)
        fl.truncation_deltas(cm)
        assert sorted(own) == [False, True]
        tc = fl.transport_coefficients(cm)
        coeffs = expansion_coefficients(cm)
        assert coeffs["boltzmann_1"][1] == tc.a_list[1]
        assert coeffs["boltzmann_0"][1] == tc.a_list[0]
        assert coeffs["boltzmann_1"][0] == fl._SOUND_SPEED == math.sqrt(5.0 / 3.0)

    @pytest.mark.parametrize("cm", [None, "basis"])
    def test_non_collision_data_rejected(self, basis_small, cm):
        with pytest.raises(fl.FluidError, match="expected CollisionMatrices"):
            fl.transport_coefficients(basis_small if cm == "basis" else cm)

    def test_truncation_deltas_small(self, collision_default):
        deltas = fl.truncation_deltas(collision_default)
        assert set(deltas) == {"kappa0", "kappa1", "eta", "a1"}
        for value in deltas.values():
            assert 0 <= value < 1e-6

    def test_builds_no_basis_and_runs_no_kernel_moments(self, collision_small, monkeypatch):
        # the refined pass belongs to truncation_deltas alone
        cm = dataclasses.replace(collision_small, _cache={})
        calls = []
        for module, name in ((fl, "build_basis"), (collision_ops, "_pair_kernel_moments")):
            def spy(*args, _name=name, _call=getattr(module, name)):
                calls.append(_name)
                return _call(*args)

            monkeypatch.setattr(module, name, spy)
        fl.transport_coefficients(cm)
        assert calls == []
        assert "truncation_deltas" not in cm._cache

    def test_agrees_with_dispersion_route(self, tc, collision_default):
        assert tc.eta == pytest.approx(eta_coefficient(collision_default),
                                       rel=1e-10)
        coeffs = expansion_coefficients(collision_default)
        assert tc.a_list[0] == pytest.approx(coeffs["boltzmann_0"][1], rel=1e-10)
        assert tc.a_list[1] == pytest.approx(coeffs["boltzmann_1"][1], rel=1e-10)
        assert tc.kappa0 == pytest.approx(coeffs["boltzmann_2"][1], rel=1e-10)

    def test_cached_on_matrices(self, tc, collision_default):
        assert fl.transport_coefficients(collision_default) is tc

    @pytest.mark.parametrize("key, value", [("kappa0", 0.0), ("eta", -1.0),
                                            ("a_minus1", 0.0)])
    def test_non_positive_coefficient_refused(self, collision_small, monkeypatch,
                                              key, value):
        cm = dataclasses.replace(collision_small, _cache={})
        core = fl._own_core_values(cm, fl.FluidError)
        monkeypatch.setattr(fl, "_own_core_values", lambda cm, error: {**core, key: value})
        with pytest.raises(fl.FluidError, match="strictly positive"):
            fl.transport_coefficients(cm)
        assert "transport" not in cm._cache


@functools.cache
def _radial_order_collision(radial_order):
    return assemble_collision(build_basis(BasisSpec(radial_order, 2)), build_gamma=False)


class TestKineticTheoryAnchors:
    """Two classical results on the linearized hard-sphere operator, from outside
    kslab's own history (Chapman & Cowling, The Mathematical Theory of
    Non-Uniform Gases, 3rd ed., 1970)."""

    def test_eucken_ratio_in_the_first_sonine_approximation(self):
        # for any kernel the first approximations give a Prandtl number of 2/3
        kappa0, kappa1 = oracles.first_sonine_forms(_radial_order_collision(2))
        assert abs(kappa0 / kappa1 - 2.0 / 3.0) <= 1e-10

    def test_hard_sphere_corrections_to_the_first_approximation(self):
        # converged over first approximation: 1.016 for viscosity and 1.025
        # for heat conduction, the printed digits (1.0 for Maxwell molecules)
        cm = _radial_order_collision(12)
        tc = fl.transport_coefficients(cm)
        kappa0, kappa1 = oracles.first_sonine_forms(cm)
        assert abs(tc.kappa0 / kappa0 - 1.016) <= 5e-4
        assert abs(tc.kappa1 / kappa1 - 1.025) <= 5e-4


class TestRefinedPass:
    """truncation_deltas: the order + 6 pass builds only the degrees l <= 2 its
    forms read, once per collision set."""

    @pytest.mark.parametrize("cm_name", ["collision_small", "collision_default"])
    def test_deltas_match_full_refined_assembly(self, cm_name, request):
        cm = request.getfixturevalue(cm_name)
        deltas = fl.truncation_deltas(cm)
        spec = cm.basis.spec
        refined = assemble_collision(
            build_basis(BasisSpec(spec.radial_order + 6, spec.angular_max)),
            build_gamma=False)
        core = fl._core_values(cm.basis, cm.L_sector, cm.L1_sector)
        fine = fl._core_values(refined.basis, refined.L_sector, refined.L1_sector)
        for key in ("kappa0", "kappa1", "eta"):
            assert deltas[key] == abs(core[key] - fine[key])
        # a1 reads the rounding that v_multiplication_matrix leaves in degrees
        # l >= 3, which the full refined blocks see and the l <= 2 ones do not
        assert abs(deltas["a1"] - abs(core["a1"] - fine["a1"])) \
            <= 4e-15 * core["a1"]

    def test_refined_pass_builds_degrees_up_to_two(self, collision_small, monkeypatch):
        cm = dataclasses.replace(collision_small, _cache={})
        calls, built = [], []
        moments = collision_ops._pair_kernel_moments

        def spy_moments(ra, rb, lmax, rules):
            calls.append((lmax, rules))
            return moments(ra, rb, lmax, rules)

        init = CollisionMatrices.__init__

        def spy_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(collision_ops, "_pair_kernel_moments", spy_moments)
        monkeypatch.setattr(CollisionMatrices, "__init__", spy_init)
        deltas = fl.truncation_deltas(cm)
        assert calls == [(2, (12, 24))]
        assert built == []
        # once per collision set: a second call reads the cache
        assert fl.truncation_deltas(cm) is deltas
        assert calls == [(2, (12, 24))]

    def test_refined_pass_checks_kernel_refinement(self, collision_small, monkeypatch):
        cm = dataclasses.replace(collision_small, _cache={})
        moments = collision_ops._pair_kernel_moments

        def perturbed(ra, rb, lmax, rules):
            out = moments(ra, rb, lmax, rules)
            k1, _ = out[rules.index(12)]
            k1[lmax] *= 1.0 + 1e-5
            return out

        monkeypatch.setattr(collision_ops, "_pair_kernel_moments", perturbed)
        with pytest.raises(AssemblyError, match="not converged"):
            fl.truncation_deltas(cm)

    def test_short_angular_basis_refused_before_the_refined_pass(self, monkeypatch):
        cm = _angular_max_one()

        def no_basis(spec):
            raise AssertionError(f"built a basis at {spec}")

        monkeypatch.setattr(fl, "build_basis", no_basis)
        with pytest.raises(fl.FluidError, match="angular_max >= 2"):
            fl.truncation_deltas(cm)


def _heat_directions(basis):
    """The heat span (h0, chi2, chi3) as rows: entropy, then the two shears."""
    h0 = math.sqrt(0.4) * basis.chi(0) - math.sqrt(0.6) * basis.chi(4)
    return np.array([h0, basis.chi(2), basis.chi(3)])


def _heat_closed_form(tc, basis, c, t, s):
    """sum_k c_k e^{-a_k s^2 t} h_k over the heat span: the oracle of _heat_flow."""
    rates = (tc.a_list[0], tc.a_list[2], tc.a_list[3])
    return sum(ck * math.exp(-a * s * s * t) * h
               for ck, a, h in zip(c, rates, _heat_directions(basis)))


def _heat(tc, basis, f0, t, s):
    """_heat_flow of the one mode f0 at the one (t, s)."""
    return fl._heat_flow(np.asarray(f0)[None], np.array([s]), np.array([t]), tc, basis)[0, 0]


class TestHeatFlow:
    def _heat_state(self, basis, c0, c2, c3):
        return np.array([c0, c2, c3]) @ _heat_directions(basis)

    def test_time_zero_is_projection_sum(self, tc, basis_default):
        f0 = self._heat_state(basis_default, 0.4, -0.9, 0.25)
        f = _heat(tc, basis_default, f0, 0.0, 1.3)
        assert np.linalg.norm(f - f0) < 1e-13
        assert _heat_directions(basis_default) @ f == pytest.approx([0.4, -0.9, 0.25], abs=1e-13)

    def test_acoustic_content_dropped(self, tc, basis_default):
        # axial momentum lies in the macroscopic space but not on the three
        # heat branches, so the semigroup annihilates it
        f = _heat(tc, basis_default, basis_default.chi(1), 0.0, 1.0)
        assert np.linalg.norm(f) < 1e-13

    def test_microscopic_component_dropped(self, tc, basis_default):
        # a state off the macroscopic space has no heat-span part
        f0 = np.zeros(basis_default.dim)
        f0[basis_default.index(0, "axial", 3, 0)] = 1.0
        assert np.linalg.norm(_heat(tc, basis_default, f0, 0.5, 1.0)) < 1e-13

    def test_parallel_projection_vanishes(self, tc, basis_default):
        f0 = self._heat_state(basis_default, 1.0, 0.3, -0.7)
        for t in (0.0, 0.8, 4.0):
            f = _heat(tc, basis_default, f0, t, 0.9)
            f_par, f_perp = fl.p_split(f, basis_default)
            assert np.linalg.norm(f_par) < 1e-13
            assert np.linalg.norm(f_perp - f) < 1e-13

    def test_semigroup_law(self, tc, basis_default):
        f0 = self._heat_state(basis_default, 0.3, 0.7, -0.2)
        one = _heat(tc, basis_default, f0, 0.4, 1.2)
        two = _heat(tc, basis_default, one, 0.9, 1.2)
        direct = _heat(tc, basis_default, f0, 1.3, 1.2)
        assert np.linalg.norm(two - direct) < 1e-12

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_heat_decay_rates(self, tc, basis_default, seed):
        r = np.random.default_rng(seed)
        c = r.standard_normal(3)
        s = float(r.uniform(0.1, 3.0))
        t = float(r.uniform(0.0, 5.0))
        f0 = self._heat_state(basis_default, *c)
        f = _heat(tc, basis_default, f0, t, s)
        rates = (tc.a_list[0], tc.a_list[2], tc.a_list[3])
        expected = [ck * math.exp(-a * s * s * t) for ck, a in zip(c, rates)]
        assert _heat_directions(basis_default) @ f == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(f) <= np.linalg.norm(f0) * (1 + 1e-12)

    def test_heat_flow_grid_matches_closed_form(self, tc, basis_default, rng):
        # _heat_flow drops everything off the heat span, so the per-mode
        # oracle is the closed form on the heat coordinates of the mode
        dim = basis_default.dim
        hs = _heat_directions(basis_default)
        s = np.array([0.2, 0.9, 2.5])
        t = np.array([0.0, 0.3, 1.7, 6.0])
        f0 = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        flow = fl._heat_flow(f0, s, t, tc, basis_default)
        assert flow.shape == (4, 3, dim)
        for i, si in enumerate(s):
            for j, tj in enumerate(t):
                want = _heat_closed_form(tc, basis_default, hs @ f0[i], float(tj), float(si))
                assert np.max(np.abs(flow[j, i] - want)) < 1e-14


def _random_field_mode(rng, s, omega=None):
    omega = np.array([1.0, 0.0, 0.0]) if omega is None else omega
    e0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b0 -= (omega @ b0) * omega
    rho0 = 1j * s * (omega @ e0)
    return rho0, e0, b0


class TestModeInputs:
    """Non-finite inputs and bad wave directions fail with FluidError."""

    @pytest.mark.parametrize("t, s", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, math.nan), (1.0, math.inf)])
    def test_field_mode_rejects(self, tc, t, s):
        mode = fl.NsmfMode(s=s, E0=np.array([0.0, 1.0, 0.0], complex))
        with pytest.raises(fl.FluidError, match="finite"):
            fl.linear_nsmf_solve([mode], np.array([t]), tc)

    @pytest.mark.parametrize("t, s", [("1.0", 0.5), (1.0, None), (True, 0.5),
                                      (1.0, True), (1.0 + 0j, 0.5), (1.0, np.array(0.5))])
    def test_non_real_time_or_wave_rejected(self, tc, t, s):
        # strs, None, complex and arrays fail at the boundary, and a bool is not
        # a time; the times and the wave number each have their own message
        mode = fl.NsmfMode(s=s, E0=np.array([0.0, 1.0, 0.0], complex))
        match = "wave number must be finite" if type(t) is float else "finite real"
        with pytest.raises(fl.FluidError, match=match):
            fl.linear_nsmf_solve([mode], [t], tc)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_states_rejected(self, tc, value):
        with pytest.raises(fl.FluidError, match="non-finite"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, rho0=value)], np.array([0.0, 1.0]), tc)
        with pytest.raises(fl.FluidError, match="non-finite"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, E0=np.array([0.0, value, 0.0]))],
                                 np.array([0.0, 1.0]), tc)
        with pytest.raises(fl.FluidError, match="non-finite"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, n0=value, q0=value)],
                                 np.array([0.0, 1.0]), tc)
        with pytest.raises(fl.FluidError, match="non-finite"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, B0=np.array([0.0, 0.0, value]))],
                                 np.array([0.0, 1.0]), tc)

    @pytest.mark.parametrize("forcing", ["g1", "g2", "g3"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_forcing_rejected(self, tc, forcing, value):
        force = {"g1": lambda tau: np.array([0.0, value, 0.0]),
                 "g2": lambda tau: value,
                 "g3": lambda tau: np.array([0.0, 0.0, value])}[forcing]
        mode = fl.NsmfMode(s=1.0, **{forcing: force})
        for times in ([0.0, 1.0], [0.0]):
            with pytest.raises(fl.FluidError, match="non-finite forcing"):
                fl.linear_nsmf_solve([mode], np.array(times), tc)

    @pytest.mark.parametrize("arg", ["E0", "B0", "m0"])
    @pytest.mark.parametrize("value", [np.zeros(2, complex), np.zeros(4, complex), 0.0],
                             ids=["two", "four", "scalar"])
    def test_non_3vectors_rejected(self, tc, arg, value):
        with pytest.raises(fl.FluidError, match=f"{arg} must be a 3-vector"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, **{arg: value})], np.array([0.0, 1.0]), tc)

    @pytest.mark.parametrize("omega", [
        [2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0 + 1e-8, 0.0, 0.0],
        [math.nan, 0.0, 0.0], [1.0, 0.0], [0.6, 0.8, 0.0, 0.0],
    ], ids=["twice-unit", "zero", "near-unit", "nan", "two-components", "four-components"])
    def test_non_unit_direction_rejected(self, tc, omega):
        e2 = np.array([0.0, 1.0, 0.0], complex)
        with pytest.raises(fl.FluidError, match="unit"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, E0=e2, omega=np.array(omega))],
                                 np.array([0.0, 1.0]), tc)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 7)], ids=["scalar", "short", "stack"])
    def test_p_split_rejects_wrong_length(self, basis_small, shape):
        with pytest.raises(fl.FluidError, match="last-axis length"):
            fl.p_split(np.ones(shape), basis_small)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_p_split_rejects_non_finite(self, basis_small, value):
        f = np.zeros((3, basis_small.dim), complex)
        f[1, 4] = value
        with pytest.raises(fl.FluidError, match="non-finite"):
            fl.p_split(f, basis_small)

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda tc, b: fl.linear_nsmf_solve([fl.NsmfMode(s=1.0)], [0.0, 1.0],
                                                        None),
                     "expected TransportCoefficients", id="linear_nsmf_solve-tc-None"),
        pytest.param(lambda tc, b: fl.linear_nsmf_solve([None], [0.0, 1.0], tc),
                     "expected NsmfMode", id="linear_nsmf_solve-mode-None"),
        pytest.param(lambda tc, b: fl.linear_nsmf_solve([fl.NsmfMode(s=True)], [0.0, 1.0], tc),
                     "wave number must be finite", id="linear_nsmf_solve-s-bool"),
        pytest.param(lambda tc, b: fl.linear_nsmf_solve([fl.NsmfMode(s="1.0")], [0.0, 1.0],
                                                        tc),
                     "wave number must be finite", id="linear_nsmf_solve-s-str"),
        pytest.param(lambda tc, b: fl.y1_decay_experiment(None),
                     "expected TransportCoefficients", id="y1_decay_experiment-tc-None"),
        pytest.param(lambda tc, b: fl.y2_decay_experiment(None),
                     "expected TransportCoefficients", id="y2_decay_experiment-tc-None"),
        pytest.param(lambda tc, b: fl.p_split(np.ones(b.dim), None),
                     "expected Basis", id="p_split-basis-None"),
        pytest.param(lambda tc, b: fl.p_split(np.ones(b.dim), b.spec),
                     "expected Basis", id="p_split-basis-spec"),
    ])
    def test_wrong_record_types_rejected(self, tc, basis_small, call, match):
        # the module's error, not an AttributeError further in
        with pytest.raises(fl.FluidError, match=match):
            call(tc, basis_small)

    def test_unit_direction_accepted(self, tc):
        omega = np.array([0.6, 0.0, 0.8])
        e0 = np.array([-0.8, 0.0, 0.6], complex)
        out = fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, E0=e0, omega=omega)], np.array([0.0]), tc)
        assert np.abs(out["E"][0, 0] - e0).max() <= 1e-14


def _field_solve(tc, times, s, rho0, e0, b0, omega=None):
    """linear_nsmf_solve of one unforced charge-and-field mode over times: the
    charge, E and B per time, and the reduced state (rho, X2, X3, Y2, Y3) of
    fluid_limits._field_flow read back from them."""
    omega = np.array([1.0, 0.0, 0.0]) if omega is None else omega
    out = fl.linear_nsmf_solve([fl.NsmfMode(s=s, rho0=rho0, E0=e0, B0=b0, omega=omega)],
                               np.asarray(times, dtype=float), tc)
    rho, e_field, b_field = out["rho"][:, 0], out["E"][:, 0], out["B"][:, 0]
    reduced = np.array([[r, *fl._rotated(omega, e), *fl._rotated(omega, b)]
                        for r, e, b in zip(rho, e_field, b_field)])
    return rho, e_field, b_field, reduced


# wave directions: the three axes, an oblique one in a coordinate plane and
# one off every coordinate plane
_OMEGAS = pytest.mark.parametrize("omega", [
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8),
    (1 / 3, 2 / 3, 2 / 3)], ids=["x", "y", "z", "oblique", "generic"])


class TestFieldMode:
    """The damped-Maxwell flow of one unforced mode, through linear_nsmf_solve."""

    @_OMEGAS
    def test_time_zero_reproduction(self, tc, omega):
        rng = np.random.default_rng(3)
        omega = np.array(omega)
        rho0, e0, b0 = _random_field_mode(rng, 0.8, omega)
        rho, e_field, b_field, _ = _field_solve(tc, [0.0], 0.8, rho0, e0, b0, omega)
        assert abs(rho[0] - rho0) < 1e-10
        assert np.linalg.norm(e_field[0] - e0) < 1e-10
        assert np.linalg.norm(b_field[0] - b0) < 1e-10

    def test_biorthonormality_at_unit_wavenumber(self, tc):
        b, x, metric = oracles.y2_eigenbasis(1.0, tc.eta)
        gram = (x * metric[:, None]).T @ x
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12
        assert abs((np.abs(x[:, 0]) ** 2 * metric).sum() - 1.0) < 1e-12

    @_OMEGAS
    def test_eigen_expansion_matches_block_route(self, tc, omega):
        rng = np.random.default_rng(11)
        s, t = 1.0, 1.7
        omega = np.array(omega)
        rho0, e0, b0 = _random_field_mode(rng, s, omega)
        b, x, metric = oracles.y2_eigenbasis(s, tc.eta)
        v0, state = _field_solve(tc, [0.0, t], s, rho0, e0, b0, omega)[3]
        weights = np.array([(v0 * metric) @ x[:, j] for j in range(5)])
        via_eigen = x @ (np.exp(b * t) * weights)
        assert np.max(np.abs(via_eigen - state)) < 1e-12

    def test_confluent_continuity_at_crossing(self, tc):
        omega = np.array([1.0, 0.0, 0.0])
        rng = np.random.default_rng(5)
        e0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b0 -= (omega @ b0) * omega
        s_star = tc.eta / 2.0
        outs = []
        for s in (s_star, s_star - 1e-6, s_star + 1e-6):
            rho, e_field, b_field, _ = _field_solve(tc, [3.0], s, 1j * s * (omega @ e0), e0, b0)
            outs.append(np.concatenate([rho, e_field[0], b_field[0]]))
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-4
        assert np.max(np.abs(outs[0] - outs[2])) < 1e-4

    @_OMEGAS
    def test_constraints_preserved_along_trajectory(self, tc, omega):
        rng = np.random.default_rng(7)
        s = 1.4
        omega = np.array(omega)
        rho0, e0, b0 = _random_field_mode(rng, s, omega)
        rho, e_field, b_field, _ = _field_solve(tc, [0.3, 2.5, 12.0], s, rho0, e0, b0, omega)
        for k in range(3):
            assert abs(rho[k] - 1j * s * (omega @ e_field[k])) < 1e-10
            assert abs(omega @ b_field[k]) < 1e-10

    def test_constraint_violations_rejected(self, tc):
        rng = np.random.default_rng(9)
        rho0, e0, b0 = _random_field_mode(rng, 1.0)
        with pytest.raises(fl.FluidError, match="charge"):
            _field_solve(tc, [1.0], 1.0, rho0 + 0.1, e0, b0)
        with pytest.raises(fl.FluidError, match="divergence free"):
            _field_solve(tc, [1.0], 1.0, rho0, e0, b0 + np.array([0.1, 0, 0]))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_field_energy_nonincreasing(self, tc, seed):
        r = np.random.default_rng(seed)
        s = float(r.uniform(0.05, 3.0))
        t = float(r.uniform(0.0, 20.0))
        rho0, e0, b0 = _random_field_mode(r, s)
        metric = np.array([1.0 + s**-2, 1, 1, 1, 1])
        start, later = metric @ np.abs(_field_solve(tc, [0.0, t], s, rho0, e0, b0)[3]).T ** 2
        assert later <= start * (1 + 1e-11)


class TestFieldFlow:
    def test_grid_matches_generator_exponential(self, tc):
        eta = tc.eta
        s = eta / 2.0 * np.array([0.3, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.4, 4.0])
        t = np.array([0.0, 0.4, 1.7, 6.0])
        rng = np.random.default_rng(17)
        v0 = rng.standard_normal((5, len(s))) + 1j * rng.standard_normal((5, len(s)))
        flow = fl._field_flow(eta, s, t, *v0)                  # (n_t, n_s, 5)
        assert isinstance(flow, np.ndarray) and flow.shape == (len(t), len(s), 5)
        for j, sj in enumerate(s):
            # reduced order (rho, X2, X3, Y2, Y3); (X3, Y2) couple through
            # +i s and (X2, Y3) through -i s
            gen = np.diag([-eta * (1.0 + sj * sj), -eta, -eta, 0.0, 0.0]).astype(complex)
            gen[2, 3] = gen[3, 2] = 1j * sj
            gen[1, 4] = gen[4, 1] = -1j * sj
            for k, tk in enumerate(t):
                want = expm(tk * gen) @ v0[:, j]
                assert np.max(np.abs(flow[k, j] - want)) < 1e-12
            if abs(2.0 * sj / eta - 1.0) > 0.2:
                b, x, metric = oracles.y2_eigenbasis(sj, eta)
                weights = (v0[:, j] * metric) @ x
                for k, tk in enumerate(t):
                    via_eigen = x @ (np.exp(b * tk) * weights)
                    assert np.max(np.abs(flow[k, j] - via_eigen)) < 1e-12

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

    def test_decayed_sinhc_keeps_the_bits_of_the_unguarded_series(self):
        # the series branch once ran on every entry; for |z| <= 1e150, where
        # z^2 does not overflow, the guarded form gives the same bits
        def unguarded(z):
            z = np.asarray(z, dtype=complex)
            small = np.abs(z) < 1e-6
            guarded = np.where(small, 1.0, z)
            return np.where(small, 1.0 - z + (2.0 / 3.0) * z * z,
                            -np.expm1(-2.0 * guarded) / (2.0 * guarded))

        switch = 1e-6
        moduli = np.array([0.0, 1e-300, 1e-12, 1e-7, np.nextafter(switch, 0.0), switch,
                           np.nextafter(switch, 1.0), 1e-3, 0.5, 1.0, 7.0, 1e3, 1e50, 1e150])
        phases = np.exp(1j * np.linspace(-0.5 * np.pi, 0.5 * np.pi, 7))
        z = np.multiply.outer(moduli, phases)
        assert np.array_equal(fl._decayed_sinhc(z), unguarded(z))

    def test_long_times_stay_finite(self, tc):
        # t z^2 overflowed in the series branch from t ~ 1e155 on
        e2 = np.array([0.0, 1.0, 0.0])
        assert np.all(np.isfinite(fl._decayed_sinhc([1e155, 1e200j, 1e300])))
        out = fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, E0=e2)], np.array([1e200]), tc)
        for key in ("rho", "E", "B"):
            assert np.all(np.isfinite(out[key]))
        s = tc.eta / 2.0 * np.array([0.3, 1.0, 4.0])
        assert np.all(np.isfinite(fl._field_flow(tc.eta, s, [1e200], 1.0, 1.0, 1.0, 1.0, 1.0)))

    def test_time_past_the_float_range_is_refused(self, tc):
        e2 = np.array([0.0, 1.0, 0.0])
        with pytest.raises(fl.FluidError, match="non-finite solution"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0, E0=e2)], np.array([1.7e308]), tc)


class TestSplittings:
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


def _mixed_modes(rng):
    """Four modes at different wave numbers and random directions: g1 only, g2 only,
    all three forcings, and g3 only."""
    modes = []
    for k, s in enumerate([0.4, 1.1, 2.3, 3.0]):
        omega = rng.standard_normal(3)
        omega /= np.linalg.norm(omega)
        rho0, e0, b0 = _random_field_mode(rng, s, omega)
        m0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q0 = 0.3 + 0.1j * k
        forcings = {}
        if k in (0, 2):
            forcings["g1"] = lambda tau, k=k: np.array([math.cos(tau), math.sin(0.3 * k * tau),
                                                        0.5])
        if k in (1, 2):
            forcings["g2"] = lambda tau, k=k: (1.0 + k) * math.exp(-0.2 * tau)
        if k in (2, 3):
            forcings["g3"] = lambda tau: np.array([math.sin(tau), 0.3, math.cos(0.5 * tau)])
        modes.append(fl.NsmfMode(s=s, omega=omega, rho0=rho0, E0=e0, B0=b0,
                                 m0=m0 - (omega @ m0) * omega, q0=q0,
                                 n0=-math.sqrt(2 / 3) * q0, **forcings))
    return modes


# the (s, t) grid of the Duhamel regression tests: decay lengths from 4e-3 to
# about 400, and up to about 480 field periods of lag
_GRID_S = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
_GRID_T = np.array([0.01, 0.1, 1.0, 5.5, 20.0, 100.0])


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
        # field trajectory must match the mode semigroup in its eigenbasis
        b, x, metric = oracles.y2_eigenbasis(2.0, tc.eta)
        v0 = np.array([rho0, *fl._rotated(omega, e0), *fl._rotated(omega, b0)])
        ref_e, ref_b = fl._fields(omega, 2.0, *(x @ (np.exp(b * 2.0) * ((v0 * metric) @ x))))
        assert np.linalg.norm(out["E"][2, 0] - ref_e) < 1e-12
        assert np.linalg.norm(out["B"][2, 0] - ref_b) < 1e-12

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

    @pytest.mark.parametrize("s, t", [(3.0, 5.5), (10.0, 1.0)])
    def test_heat_forcing_constant_past_the_decay_scale(self, tc, s, t):
        # t is many decay times 1/(a0 s^2): the integrand lives at small lags
        a = tc.a_list[0] * s * s
        mode = fl.NsmfMode(s=s, g2=lambda tau: 1.0)
        out = fl.linear_nsmf_solve([mode], np.array([t]), tc)
        assert abs(out["q"][0, 0] - 0.6 * (1.0 - math.exp(-a * t)) / a) < 1e-14

    @pytest.mark.parametrize("s", _GRID_S)
    def test_constant_heat_and_charge_forcing_over_the_grid(self, tc, s):
        # at s = 30, t = 100 both flows die out within 5e-3 of lag, far inside
        # the first panel [0, 1e-3 t] a grading in t alone would start with
        modes = [fl.NsmfMode(s=s, g2=lambda tau: 1.0),
                 fl.NsmfMode(s=s, g3=lambda tau: np.array([1.0, 0.0, 0.0], complex))]
        out = fl.linear_nsmf_solve(modes, _GRID_T, tc)
        a, b = tc.a_list[0] * s * s, tc.eta * (1.0 + s * s)
        want_q = -0.6 * np.expm1(-a * _GRID_T) / a
        want_rho = -1j * s * np.expm1(-b * _GRID_T) / b
        assert np.all(np.abs(out["q"][:, 0] - want_q) <= 1e-9 * np.abs(want_q))
        assert np.all(np.abs(out["rho"][:, 1] - want_rho) <= 1e-9 * np.abs(want_rho))

    @pytest.mark.parametrize("s", _GRID_S)
    def test_constant_transverse_field_forcing_over_the_grid(self, tc, s):
        # the field blocks ring at frequency ~s over many periods of lag;
        # with omega = e1 the frame is (e2, e3), and a constant forcing f of
        # one block [[-eta, c], [c, 0]] adds M^{-1} (e^{tM} - 1) (f, 0)
        vectors = ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        modes = [fl.NsmfMode(s=s, g3=lambda tau, v=v: np.array(v, complex)) for v in vectors]
        out = fl.linear_nsmf_solve(modes, _GRID_T, tc)

        def block(c, t):
            gen = np.array([[-tc.eta, c], [c, 0.0]])
            return np.linalg.solve(gen, (expm(t * gen) - np.eye(2))[:, 0])

        b = tc.eta * (1.0 + s * s)
        e2, e3 = np.eye(3)[1:]
        for i, t in enumerate(_GRID_T):
            x3, y2 = block(1j * s, t)      # driven by e2: omega x e2 = e3
            x2, y3 = -block(-1j * s, t)    # driven by e3: omega x e3 = -e2
            rho = -1j * s * math.expm1(-b * t) / b
            wants = [(x3 * e2, -y2 * e3), (-x2 * e3, y3 * e2),
                     (x3 * e2 - x2 * e3 - 1j * rho / s * np.eye(3)[0], y3 * e2 - y2 * e3)]
            for j, (want_e, want_b) in enumerate(wants):
                got = np.concatenate((out["E"][i, j], out["B"][i, j]))
                want = np.concatenate((want_e, want_b))
                assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), (t, j)

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

    @pytest.mark.parametrize("s, t", [(0.7, 2.0), (1.0, 20.0), (3.0, 5.5), (10.0, 1.0)])
    def test_transverse_field_forcing_matches_quadrature(self, tc, s, t):
        force = lambda tau: np.array([0.0, math.sin(tau), 0.0], complex)
        mode = fl.NsmfMode(s=s, g3=force)
        out = fl.linear_nsmf_solve([mode], np.array([t]), tc)
        # dense-grid trapezoid oracle on the block Duhamel integral
        taus = np.linspace(0.0, t, 20001)
        omega = np.array([1.0, 0.0, 0.0])
        p1 = np.array([0.0, 1.0, 0.0])
        p2 = np.array([0.0, 0.0, 1.0])
        e11, e12, _ = fl._field_block(tc.eta, 1j * s, t - taus)
        f1 = np.cross(omega, np.array([force(tau) for tau in taus])) @ p2
        xb, ya = np.trapezoid(e11 * f1, taus), np.trapezoid(e12 * f1, taus)
        want_e = -np.cross(omega, xb * p2)
        want_b = -np.cross(omega, ya * p1)
        assert np.linalg.norm(out["E"][0, 0] - want_e) < 1e-6
        assert np.linalg.norm(out["B"][0, 0] - want_b) < 1e-6

    def test_modes_solve_independently(self, tc):
        # one _field_flow call over all modes and the per-mode rotations give
        # each column the one-mode solve of its mode
        modes = _mixed_modes(np.random.default_rng(29))
        times = np.array([0.0, 0.1, 0.7, 2.0])
        out = fl.linear_nsmf_solve(modes, times, tc)
        assert np.array_equal(out["t"], times)
        for j, mode in enumerate(modes):
            alone = fl.linear_nsmf_solve([mode], times, tc)
            for key in ("n", "m", "q", "rho", "E", "B", "p"):
                assert out[key].shape[:2] == (len(times), len(modes))
                assert (np.abs(out[key][:, j] - alone[key][:, 0]).max()
                        <= 1e-14 * np.abs(alone[key]).max())

    def test_no_modes_give_zero_width_arrays(self, tc):
        out = fl.linear_nsmf_solve([], np.array([0.0, 1.0, 2.5]), tc)
        for key in ("n", "q", "rho", "p"):
            assert out[key].shape == (3, 0)
        for key in ("m", "E", "B"):
            assert out[key].shape == (3, 0, 3)

    def test_no_times_give_no_rows(self, tc):
        mode = _mixed_modes(np.random.default_rng(31))[2]
        assert None not in (mode.g1, mode.g2, mode.g3)
        out = fl.linear_nsmf_solve([mode], np.array([]), tc)
        assert out["t"].shape == (0,)
        for key in ("n", "q", "rho", "p"):
            assert out[key].shape == (0, 1)
        for key in ("m", "E", "B"):
            assert out[key].shape == (0, 1, 3)

    def test_forced_initial_row_is_the_initial_state(self, tc):
        # a t = 0 row has zero Duhamel weights, so the forcing adds exactly nothing
        mode = _mixed_modes(np.random.default_rng(37))[2]
        unforced = dataclasses.replace(mode, g1=None, g2=None, g3=None)
        times = np.array([0.0, 0.6])
        out = fl.linear_nsmf_solve([mode], times, tc)
        ref = fl.linear_nsmf_solve([unforced], times, tc)
        for key in ("n", "m", "q", "rho", "E", "B"):
            assert np.array_equal(out[key][0], ref[key][0])
            assert not np.array_equal(out[key][1], ref[key][1])
        assert out["q"][0, 0] == mode.q0 and out["rho"][0, 0] == mode.rho0
        assert np.array_equal(out["m"][0, 0], mode.m0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_wavenumber_rejected(self, tc, s):
        with pytest.raises(fl.FluidError, match="wave number"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=s)], np.array([0.0, 1.0]), tc)

    def test_non_finite_times_rejected(self, tc):
        with pytest.raises(fl.FluidError, match="finite"):
            fl.linear_nsmf_solve([fl.NsmfMode(s=1.0)], np.array([0.0, math.nan]), tc)

    def test_overflowing_forcing_rejected(self, tc):
        # a finite forcing whose transform overflows raises FluidError, with no
        # floating-point warning let out first: the charge drive i s (omega . g3)
        # inside the Duhamel integrand, and the pressure -i (omega . g1) / s
        g3 = fl.NsmfMode(s=10.0, g3=lambda tau: np.array([1e308, 0.0, 0.0]))
        with pytest.raises(fl.FluidError, match="non-finite forcing"):
            fl.linear_nsmf_solve([g3], np.array([0.0, 1.0]), tc)
        g1 = fl.NsmfMode(s=0.1, g1=lambda tau: np.array([1e308, 0.0, 0.0]))
        with pytest.raises(fl.FluidError, match="non-finite solution"):
            fl.linear_nsmf_solve([g1], np.array([0.0, 1.0]), tc)

    def test_rough_forcing_rejected(self, tc):
        mode = fl.NsmfMode(s=1.0, g2=lambda tau: math.cos(300.0 * tau))
        with pytest.raises(fl.FluidError, match="too rough"):
            fl.linear_nsmf_solve([mode], np.array([2.0]), tc)


class TestDecayExperiments:
    def test_generic_exponent(self, tc):
        fit = fl.y2_decay_experiment(tc, "generic")
        assert fit.exponent == pytest.approx(-0.75, abs=0.08)
        assert np.all(np.diff(fit.norms) < 0)

    def test_generic_exponent_width_robust(self, tc, monkeypatch):
        # widths of 0.9 and 1.1 times the default eta / sqrt(2)
        for factor in (0.9, 1.1):
            monkeypatch.setattr(fl, "_Y2_WIDTH_DIVISOR", math.sqrt(2.0) / factor)
            fit = fl.y2_decay_experiment(tc, "generic")
            assert fit.exponent == pytest.approx(-0.75, abs=0.08)

    def test_enhanced_exponent(self, tc):
        fit = fl.y2_decay_experiment(tc, "enhanced")
        assert fit.exponent == pytest.approx(-1.25, abs=0.1)

    def test_heat_branch_exponent(self, tc):
        fit = fl.y1_decay_experiment(tc)
        assert fit.exponent == pytest.approx(-0.75, abs=0.1)

    def test_unknown_kind_rejected(self, tc):
        for kind in ("other", ["generic"]):
            with pytest.raises(fl.FluidError, match="unknown"):
                fl.y2_decay_experiment(tc, kind)


# ---------------------------------------------------------------------------
# boundary contract: every exported callable against bad input, with
# FluidError as the module's documented error
# ---------------------------------------------------------------------------

_E2 = np.array([0.0, 1.0, 0.0], complex)
_ZERO3 = np.zeros(3, complex)
_STR3 = ["a", "b", "c"]


def _solve(tc, times=(0.0, 1.0), **mode):
    return fl.linear_nsmf_solve([fl.NsmfMode(**{"s": 1.0, **mode})], times, tc)


def _y2_decay_at_width(tc, width):
    """y2_decay_experiment(tc) with its profile width set to width."""
    divisor = fl._Y2_WIDTH_DIVISOR
    fl._Y2_WIDTH_DIVISOR = tc.eta / width
    try:
        return fl.y2_decay_experiment(tc, "generic")
    finally:
        fl._Y2_WIDTH_DIVISOR = divisor


_BAD_CALLS = {
    "transport_coefficients": {
        "cm-none": lambda tc, b: fl.transport_coefficients(None),
        "cm-basis": lambda tc, b: fl.transport_coefficients(b),
        "cm-transport": lambda tc, b: fl.transport_coefficients(tc),
        # kappa0 and a+-1 read degree 2, which angular_max = 1 cuts away
        "angular-max-one": lambda tc, b: fl.transport_coefficients(_angular_max_one()),
    },
    "truncation_deltas": {
        "cm-none": lambda tc, b: fl.truncation_deltas(None),
        "cm-basis": lambda tc, b: fl.truncation_deltas(b),
        "cm-transport": lambda tc, b: fl.truncation_deltas(tc),
        # the forms it refines read degree 2; it refuses before building a basis
        "angular-max-one": lambda tc, b: fl.truncation_deltas(_angular_max_one()),
    },
    "p_split": {
        "f-str": lambda tc, b: fl.p_split(np.full(b.dim, "1"), b),
        "f-none": lambda tc, b: fl.p_split(None, b),
        "f-nan": lambda tc, b: fl.p_split(np.full(b.dim, math.nan), b),
        "f-bool": lambda tc, b: fl.p_split(np.ones(b.dim, dtype=bool), b),
        "f-short": lambda tc, b: fl.p_split(np.ones(b.dim - 1), b),
        "f-ragged": lambda tc, b: fl.p_split([[1.0] * b.dim, [1.0]], b),
        "basis-none": lambda tc, b: fl.p_split(np.ones(b.dim), None),
        "basis-spec": lambda tc, b: fl.p_split(np.ones(b.dim), b.spec),
    },
    "linear_nsmf_solve": {
        "modes-none": lambda tc, b: fl.linear_nsmf_solve(None, (0.0, 1.0), tc),
        "modes-bare-mode": lambda tc, b: fl.linear_nsmf_solve(fl.NsmfMode(s=1.0), (0.0, 1.0),
                                                              tc),
        "mode-none": lambda tc, b: fl.linear_nsmf_solve([None], (0.0, 1.0), tc),
        "tc-none": lambda tc, b: fl.linear_nsmf_solve([fl.NsmfMode(s=1.0)], (0.0, 1.0), None),
        "times-nan": lambda tc, b: _solve(tc, times=(0.0, math.nan)),
        "times-2d": lambda tc, b: _solve(tc, times=((0.0, 1.0), (2.0, 3.0))),
        "times-scalar": lambda tc, b: _solve(tc, times=1.0),
        "times-str": lambda tc, b: _solve(tc, times=("0", "1")),
        "times-none": lambda tc, b: _solve(tc, times=None),
        "times-bool": lambda tc, b: _solve(tc, times=(False, True)),
        "times-complex": lambda tc, b: _solve(tc, times=(0.0, 1.0j)),
        "times-negative": lambda tc, b: _solve(tc, times=(-1.0, 1.0)),
        "times-unsorted": lambda tc, b: _solve(tc, times=(1.0, 0.0)),
        "s-bool": lambda tc, b: _solve(tc, s=True),
        "s-str": lambda tc, b: _solve(tc, s="1.0"),
        "s-zero": lambda tc, b: _solve(tc, s=0.0),
        "s-none": lambda tc, b: _solve(tc, s=None),
        "s-complex": lambda tc, b: _solve(tc, s=1 + 1j),
        "s-nan": lambda tc, b: _solve(tc, s=math.nan),
        "s-inf": lambda tc, b: _solve(tc, s=math.inf),
        "s-negative": lambda tc, b: _solve(tc, s=-1.0),
        "n0-str": lambda tc, b: _solve(tc, n0="x"),
        "q0-none": lambda tc, b: _solve(tc, q0=None),
        "rho0-nan": lambda tc, b: _solve(tc, rho0=math.nan),
        "rho0-str": lambda tc, b: _solve(tc, rho0="x"),
        "rho0-none": lambda tc, b: _solve(tc, rho0=None),
        "rho0-bool": lambda tc, b: _solve(tc, rho0=False),
        "rho0-vector": lambda tc, b: _solve(tc, rho0=np.zeros(2)),
        "m0-str": lambda tc, b: _solve(tc, m0=_STR3),
        "m0-ragged": lambda tc, b: _solve(tc, m0=[[0.0], [0.0, 0.0]]),
        "E0-short": lambda tc, b: _solve(tc, E0=_E2[:2]),
        "E0-str": lambda tc, b: _solve(tc, E0=_STR3),
        "E0-nan": lambda tc, b: _solve(tc, E0=np.array([0.0, math.nan, 0.0])),
        "E0-none": lambda tc, b: _solve(tc, E0=None),
        "E0-ragged": lambda tc, b: _solve(tc, E0=[[0.0, 1.0], [0.0]]),
        "B0-none": lambda tc, b: _solve(tc, B0=None),
        "B0-str": lambda tc, b: _solve(tc, B0="abc"),
        "B0-bool": lambda tc, b: _solve(tc, B0=np.zeros(3, dtype=bool)),
        "omega-str": lambda tc, b: _solve(tc, omega=_STR3),
        "omega-ragged": lambda tc, b: _solve(tc, omega=[[1.0], [0.0, 0.0]]),
        "omega-complex": lambda tc, b: _solve(tc, omega=np.array([1.0j, 0.0, 0.0])),
        "omega-not-unit": lambda tc, b: _solve(tc, omega=np.array([0.0, 0.0, 0.0])),
        "m0-divergent": lambda tc, b: _solve(tc, m0=np.array([1.0, 0.0, 0.0])),
        "trace-relation": lambda tc, b: _solve(tc, n0=0.5, q0=0.5),
        "charge-mismatch": lambda tc, b: _solve(tc, rho0=1.0),
        "B0-divergent": lambda tc, b: _solve(tc, B0=np.array([1.0, 0.0, 0.0])),
        "g1-not-callable": lambda tc, b: _solve(tc, g1="force"),
        "g2-not-callable": lambda tc, b: _solve(tc, g2=1.0),
        "g3-not-callable": lambda tc, b: _solve(tc, g3=np.zeros(3)),
        "g1-two-vector": lambda tc, b: _solve(tc, g1=lambda tau: np.zeros(2)),
        "g2-str": lambda tc, b: _solve(tc, g2=lambda tau: "1"),
        "g2-vector": lambda tc, b: _solve(tc, g2=lambda tau: np.ones(3)),
        "g3-none": lambda tc, b: _solve(tc, g3=lambda tau: None),
        "g3-inf": lambda tc, b: _solve(tc, g3=lambda tau: np.array([0.0, math.inf, 0.0])),
        "g3-bool": lambda tc, b: _solve(tc, g3=lambda tau: np.array([False, True, False])),
        "g3-bool-late": lambda tc, b: _solve(tc, times=(0.0, 100.0), g3=lambda tau: (
            np.array([False, True, False]) if tau >= 50.0 else _E2)),
        "g3-node-budget": lambda tc, b: _solve(tc, times=(0.0, 1e9), g3=lambda tau: _E2),
    },
    "y1_decay_experiment": {
        "tc-none": lambda tc, b: fl.y1_decay_experiment(None),
        "tc-basis": lambda tc, b: fl.y1_decay_experiment(b),
    },
    "y2_decay_experiment": {
        "tc-none": lambda tc, b: fl.y2_decay_experiment(None),
        "kind-unknown": lambda tc, b: fl.y2_decay_experiment(tc, "other"),
        "kind-list": lambda tc, b: fl.y2_decay_experiment(tc, ["generic"]),
        "kind-none": lambda tc, b: fl.y2_decay_experiment(tc, None),
        # a profile the radial grid cannot resolve: every aggregate norm is 0
        "width-unresolved": lambda tc, b: _y2_decay_at_width(tc, 1e-6),
    },
}
# exported names that take no caller input of their own
_NOT_ENTRY_POINTS = {
    "FluidError": "the module's error type",
    "NsmfMode": "the record linear_nsmf_solve checks (its rows above); building one checks "
                "nothing",
    "TransportCoefficients": "the record transport_coefficients returns; the functions "
                             "check it",
    "DecayFit": "the record the decay experiments return",
}


class TestBoundaryContract:
    """Every exported callable of fluid_limits rejects bad input with FluidError."""

    def test_table_covers_the_exports(self):
        import kslab

        exported = {name for name, obj in vars(kslab).items()
                    if callable(obj) and getattr(obj, "__module__", None) == fl.__name__}
        assert exported == set(_BAD_CALLS) | set(_NOT_ENTRY_POINTS)
        assert not set(_BAD_CALLS) & set(_NOT_ENTRY_POINTS)

    @pytest.mark.parametrize("name, case", [(name, case) for name, rows in _BAD_CALLS.items()
                                            for case in rows])
    def test_bad_input_raises_fluid_error(self, tc, basis_small, name, case):
        with pytest.raises(fl.FluidError):
            _BAD_CALLS[name][case](tc, basis_small)

    def test_table_calls_are_valid_when_repaired(self, tc, basis_small):
        # the helpers behind the rows succeed on good input, so each row fails
        # for its one bad argument
        assert _solve(tc)["q"].shape == (2, 1)
        assert _solve(tc, omega=[0.0, 1.0, 0.0], E0=np.array([1.0, 0.0, 0.0]))["E"].shape \
            == (2, 1, 3)
        forced = _solve(tc, g1=lambda tau: np.zeros(3), g2=lambda tau: 0.0,
                        g3=lambda tau: np.zeros(3))
        assert np.all(forced["E"] == 0.0)
