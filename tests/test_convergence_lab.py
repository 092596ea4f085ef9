"""Diffusion-limit convergence laboratory tests.

Covers the power-law fitter against exact and seeded-noise data, experiment
configuration validation, the initial-data shapes and their compatibility
constraints, corrector solves, the oscillatory radial integral against a
Monte Carlo oracle with an exact inverse-CDF sampler, and the experiment
drivers at the small basis: first-order rates, the acoustic layer profile,
second-order rates, the microscopic transient, and report determinism.
"""
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.linalg as sl

from kslab import convergence_lab as cl
from kslab import mode_operators as mo
from kslab.collision_ops import assemble_collision
from kslab.velocity_basis import BasisSpec, build_basis, v_multiplication_matrix


REPORTS_FIXTURE = Path(__file__).parent / "fixtures" / "reports.json"


def _small_cfg(**kw):
    base = dict(eps_list=(0.2, 0.1, 0.05, 0.025), n_s=16, n_t=12,
                t_max=50.0)
    base.update(kw)
    return cl.ExperimentConfig(**base)


@pytest.fixture(scope="module")
def wp_report(collision_small):
    return cl.first_order_experiment(
        cl.ExperimentConfig(data_kind="well_prepared"), collision_small)


@pytest.fixture(scope="module")
def generic_report(collision_small):
    return cl.first_order_experiment(
        cl.ExperimentConfig(data_kind="generic"), collision_small)


@pytest.fixture(scope="module")
def second_report(collision_small):
    return cl.second_order_experiment(cl.ExperimentConfig(), collision_small)


@pytest.fixture(scope="module")
def layer_report(collision_small):
    return cl.initial_layer_profile(
        cl.ExperimentConfig(data_kind="generic"), collision_small)


@pytest.fixture(scope="module")
def twin_reports():
    reports = []
    for _ in range(2):
        cm = assemble_collision(build_basis(BasisSpec(6, 3)), build_gamma=False)
        cfg = _small_cfg(data_kind="well_prepared")
        reports.append(cl.first_order_experiment(cfg, cm))
    return reports


class TestRateFit:
    def test_exact_quadratic(self):
        x = np.geomspace(0.5, 8.0, 9)
        fit = cl.rate_fit(x, 3.0 * x**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
        assert fit.rss < 1e-24
        assert fit.n_points == 9

    def test_noisy_power_law_within_interval(self):
        rng = np.random.default_rng(7)
        x = np.geomspace(1.0, 40.0, 16)
        y = 2.0 * x**-0.75 * np.exp(0.01 * rng.standard_normal(16))
        fit = cl.rate_fit(x, y)
        assert abs(fit.exponent + 0.75) <= fit.ci
        assert fit.ci < 0.05

    def test_shape_mismatch(self):
        with pytest.raises(cl.ConvergenceError, match="matching one-dimensional"):
            cl.rate_fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(cl.ConvergenceError, match="at least four points"):
            cl.rate_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(cl.ConvergenceError, match="positive abscissae"):
            cl.rate_fit([1.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.0, 4.0])

    @pytest.mark.parametrize("x, y", [
        ([1.0, 2.0, 3.0, math.nan], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, math.inf], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.inf, 4.0]),
    ])
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(cl.ConvergenceError, match="finite abscissae"):
            cl.rate_fit(x, y)

    def test_degenerate_abscissae(self):
        with pytest.raises(cl.ConvergenceError, match="degenerate"):
            cl.rate_fit([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    @given(p=st.floats(-3.0, 3.0), c=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_recovers_any_exact_power(self, p, c):
        x = np.geomspace(1.0, 20.0, 12)
        fit = cl.rate_fit(x, c * x**p)
        assert fit.exponent == pytest.approx(p, abs=1e-8)


class TestExperimentConfig:
    def test_default_round_trip(self):
        cfg = cl.ExperimentConfig()
        again = cl.ExperimentConfig.from_mapping(cfg.as_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(cl.ConvergenceError, match="unknown configuration keys"):
            cl.ExperimentConfig.from_mapping({"epsilon": [0.1, 0.05]})

    def test_eps_must_decrease(self):
        with pytest.raises(cl.ConvergenceError, match="strictly decreasing"):
            cl.ExperimentConfig(eps_list=(0.05, 0.1))
        with pytest.raises(cl.ConvergenceError, match="at least two"):
            cl.ExperimentConfig(eps_list=(0.1,))

    def test_kind_and_norm_messages_enumerate_options(self):
        with pytest.raises(cl.ConvergenceError, match="generic, well_prepared"):
            cl.ExperimentConfig(data_kind="wrong")
        with pytest.raises(cl.ConvergenceError, match="H0, H1, H2"):
            cl.ExperimentConfig(norm="L7")
        with pytest.raises(cl.ConvergenceError, match="unknown norm 'Linf_proxy'"):
            cl.ExperimentConfig(norm="Linf_proxy")

    def test_grid_validation(self):
        with pytest.raises(cl.ConvergenceError, match="t_min < t_max"):
            cl.ExperimentConfig(t_min=2.0, t_max=1.0)
        with pytest.raises(cl.ConvergenceError, match="four points"):
            cl.ExperimentConfig(n_t=3)
        with pytest.raises(cl.ConvergenceError, match="eight points"):
            cl.ExperimentConfig(n_s=4)
        with pytest.raises(cl.ConvergenceError, match="width"):
            cl.ExperimentConfig(profile_width=0.0)

    def test_mode_cap_shrinks_with_eps(self):
        cfg = cl.ExperimentConfig()
        assert cfg.s_max(0.0125) == pytest.approx(4.0)
        assert cfg.s_max(0.2) == pytest.approx(0.6 / 0.2 - 1.0)
        with pytest.raises(cl.ConvergenceError, match="no resolvable modes"):
            cfg.s_max(0.5)

    def test_t_grid_endpoints(self):
        cfg = cl.ExperimentConfig(t_min=0.01, t_max=10.0, n_t=7)
        grid = cfg.t_grid()
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(10.0)
        assert len(grid) == 7

    def test_s_grid_respects_cap(self):
        cfg = cl.ExperimentConfig()
        s, w = cfg.s_grid(0.1)
        assert s.max() < cfg.s_max(0.1)
        assert s.min() > 0.0
        assert w.sum() == pytest.approx(cfg.s_max(0.1))

    def test_long_time_report_is_finite(self, collision_small):
        cfg = cl.ExperimentConfig(seed=12, t_max=1e4, n_t=41,
                                  eps_list=(0.1, 0.05, 0.025, 0.0125))
        report = cl.first_order_experiment(cfg, collision_small)
        assert np.all(np.isfinite(np.asarray(report.errors["vmb"])))
        assert json.loads(report.to_json())["config"]["t_max"] == 1e4


def _config(**kw):
    return lambda cm: cl.ExperimentConfig(**kw)


def _layer(**kw):
    return lambda cm: cl.initial_layer_profile(cl.ExperimentConfig(data_kind="generic"),
                                               cm, **kw)


def _transient(**kw):
    return lambda cm: cl.transient_rate_check(cl.ExperimentConfig(data_kind="generic"),
                                              cm, **kw)


class TestBoundaryValidation:
    """Bad input fails with ConvergenceError before any numerical work."""

    @pytest.mark.parametrize("call, match", [
        pytest.param(_config(eps_list=(0.2, math.nan)), "finite positive", id="eps-nan"),
        pytest.param(_config(s_cap=math.nan), "s_cap", id="s_cap-nan"),
        pytest.param(_config(n_s=8.5), "n_s must be an integer", id="n_s-fraction"),
        pytest.param(_config(n_t=4.5), "n_t must be an integer", id="n_t-fraction"),
        pytest.param(_config(seed=-1), "seed", id="seed-negative"),
        pytest.param(_layer(n_layer=0), "n_layer", id="layer-n_layer-0"),
        pytest.param(_layer(tau_max=-1.0), "tau_max", id="layer-tau_max-negative"),
        pytest.param(_layer(layer_width=math.nan), "layer width", id="layer-width-nan"),
        pytest.param(_transient(eps=0.0), "eps > 0", id="transient-eps-0"),
        pytest.param(_transient(eps=-0.1), "eps > 0", id="transient-eps-negative"),
        pytest.param(_transient(s0=-1.0), "s0", id="transient-s0-negative"),
    ])
    def test_rejected_with_module_error(self, collision_small, call, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cl.ConvergenceError, match=match):
                call(collision_small)


class TestInitialData:
    def test_unknown_kind(self, collision_small):
        with pytest.raises(cl.ConvergenceError, match="second_order"):
            cl.make_initial_data("adiabatic", cl.ExperimentConfig(), collision_small)

    def test_generic_satisfies_field_compatibility(self, collision_small):
        cfg = _small_cfg(data_kind="generic")
        data = cl.make_initial_data("generic", cfg, collision_small)
        s = np.geomspace(0.05, 3.0, 12)
        assert data.constraint_residual(s) < 1e-10

    def test_well_prepared_has_no_microscopic_part(self, collision_small):
        cfg = _small_cfg(data_kind="well_prepared")
        data = cl.make_initial_data("well_prepared", cfg, collision_small)
        basis = collision_small.basis
        s = np.geomspace(0.05, 3.0, 9)
        f0 = data.boltzmann_states(s)
        p1 = basis.projection_matrix("P1")
        assert np.abs(f0 @ p1.T).max() < 1e-12
        assert np.abs(f0 @ basis.chi(1)).max() < 1e-12
        v0 = data.vmb_states(s)
        kin = v0[:, : basis.dim]
        assert np.abs(kin - np.outer(kin @ basis.chi(0), basis.chi(0))).max() < 1e-12

    def test_second_order_is_purely_microscopic(self, collision_small):
        data = cl.make_initial_data("second_order", _small_cfg(), collision_small)
        basis = collision_small.basis
        p0 = basis.projection_matrix("P0")
        assert np.abs(data.boltzmann_macro).max() == 0.0
        assert np.abs(p0 @ data.boltzmann_micro).max() < 1e-12
        assert np.abs(data.field_amp).max() == 0.0

    def test_same_seed_reproduces_states(self, collision_small):
        cfg = _small_cfg(data_kind="generic")
        s = np.geomspace(0.1, 2.0, 6)
        a = cl.make_initial_data("generic", cfg, collision_small)
        b = cl.make_initial_data("generic", cfg, collision_small)
        assert np.array_equal(a.boltzmann_states(s), b.boltzmann_states(s))
        assert np.array_equal(a.vmb_states(s), b.vmb_states(s))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_any_seed_keeps_wp_constraints(self, collision_small, seed):
        cfg = _small_cfg(data_kind="well_prepared", seed=seed)
        data = cl.make_initial_data("well_prepared", cfg, collision_small)
        s = np.geomspace(0.1, 2.0, 5)
        p1 = collision_small.basis.projection_matrix("P1")
        assert np.abs(data.boltzmann_states(s) @ p1.T).max() < 1e-12
        assert data.constraint_residual(s) < 1e-10


class TestCorrectorShapes:
    def test_kinetic_corrector_is_macroscopic(self, collision_small):
        data = cl.make_initial_data("second_order", _small_cfg(), collision_small)
        z2, e_z = cl.corrector_shapes(collision_small, data.boltzmann_micro,
                                      data.vmb_micro)
        basis = collision_small.basis
        p1 = basis.projection_matrix("P1")
        assert np.abs(p1 @ z2).max() < 1e-10
        assert e_z.shape == (3,)
        assert np.all(np.isfinite(e_z))

    def test_field_corrector_solve_residual(self, collision_small):
        data = cl.make_initial_data("second_order", _small_cfg(), collision_small)
        cm = collision_small
        basis = cm.basis
        chi0 = basis.chi(0)
        p0 = basis.projection_matrix("P0")

        def dense(sectors):
            return sl.block_diag(sectors[0], sectors[1], sectors[1])

        v1 = dense([v_multiplication_matrix(basis, sec) for sec in (0, 1)])
        w = np.linalg.solve(dense(cm.L_sector) - p0, data.boltzmann_micro)
        z2_ref = p0 @ (v1 @ w)
        w1 = np.linalg.solve(dense(cm.L1_sector) - np.outer(chi0, chi0), data.vmb_micro)
        e_ref = np.array([w1 @ basis.chi(j) for j in (1, 2, 3)])
        z2, e_z = cl.corrector_shapes(cm, data.boltzmann_micro, data.vmb_micro)
        assert np.abs(z2 - z2_ref).max() <= 1e-12 * np.abs(z2_ref).max()
        assert np.abs(e_z - e_ref).max() <= 1e-12 * np.abs(e_ref).max()

    def test_macroscopic_kinetic_data_rejected(self, collision_small):
        basis = collision_small.basis
        with pytest.raises(cl.ConvergenceError, match="purely microscopic"):
            cl.corrector_shapes(collision_small, basis.chi(0),
                                np.zeros(basis.dim))

    def test_density_in_field_data_rejected(self, collision_small):
        basis = collision_small.basis
        p1 = basis.projection_matrix("P1")
        rng = np.random.default_rng(3)
        micro = p1 @ rng.standard_normal(basis.dim)
        with pytest.raises(cl.ConvergenceError, match="no density part"):
            cl.corrector_shapes(collision_small, micro, basis.chi(0))


class TestOscillatory:
    def test_static_value_matches_closed_form_to_truncation(self):
        r_cut = 120.0
        val = cl.oscillatory_value(0.0, 0.0, r_cut=r_cut)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert abs(val.real - 4.0 * math.pi / 3.0) <= 4.0 * math.pi / (1.0 + r_cut)

    def test_small_x_limit_is_continuous(self):
        a = cl.oscillatory_value(3.0, 0.0)
        b = cl.oscillatory_value(3.0, 1e-6)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_monte_carlo_agreement(self):
        val = cl.oscillatory_value(5.0, 2.5)
        ref, sigma = cl.mc_reference(5.0, 2.5, n=400_000, seed=11)
        assert abs(val - ref) <= 3.0 * sigma

    def test_monte_carlo_static_mass_is_exact(self):
        ref, sigma = cl.mc_reference(0.0, 0.0, n=1000, seed=0)
        assert ref.real == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_chunked_draws_match_single_shot(self, monkeypatch):
        monkeypatch.setattr(cl, "_MC_CHUNK", 1000)
        n, theta, x = 3500, 5.0, 2.5
        v = np.cbrt(np.random.default_rng(11).random(n))
        r = v / (1.0 - v)
        samples = np.sinc(r * x / math.pi) * np.exp(1j * theta * r)
        total = 4.0 * math.pi / 3.0
        ref = total * complex(samples.mean())
        ref_sigma = total * max(samples.real.std(), samples.imag.std()) / math.sqrt(n)
        val, sigma = cl.mc_reference(theta, x, n=n, seed=11)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        assert abs(sigma - ref_sigma) <= 1e-12 * ref_sigma

    @pytest.mark.parametrize("theta, x", [(math.nan, 0.5), (1.0, math.nan),
                                          (math.inf, 0.5), (1.0, -math.inf)])
    def test_non_finite_arguments_rejected(self, theta, x):
        with pytest.raises(cl.ConvergenceError, match="finite theta and x"):
            cl.oscillatory_value(theta, x)

    @pytest.mark.parametrize("n", [0, -3, 2.5, 1000.0, True])
    def test_monte_carlo_rejects_bad_sample_count(self, n):
        with pytest.raises(cl.ConvergenceError, match="sample count"):
            cl.mc_reference(1.0, 0.5, n=n)

    def test_decay_check_rejects_empty_ratios(self):
        with pytest.raises(cl.ConvergenceError, match="at least one x ratio"):
            cl.oscillatory_decay_check(x_ratios=())

    def test_slowly_decaying_envelope_rejected(self):
        with pytest.raises(cl.ConvergenceError, match="does not decay fast enough"):
            cl.oscillatory_decay_check(phi=lambda s: 1.0 / (1.0 + s))

    def test_decay_check_flags_and_exponent(self):
        rep = cl.oscillatory_decay_check()
        assert rep.flags["oscillatory_exponent"]
        assert rep.fits["oscillatory_exponent"]["exponent"] == pytest.approx(
            -1.0, abs=0.1)
        assert rep.passed()

    @given(theta=st.floats(0.5, 20.0), x=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_conjugate_symmetry_in_phase(self, theta, x):
        plus = cl.oscillatory_value(theta, x)
        minus = cl.oscillatory_value(-theta, x)
        assert minus == pytest.approx(np.conj(plus), rel=1e-9, abs=1e-12)


class TestEvolveGrid:
    S_NODES = np.array([0.05, 0.7, 1.9])
    TIMES = np.array([0.0, 1e-3, 0.1, 2.0])

    @staticmethod
    def _states(dim, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((len(TestEvolveGrid.S_NODES), dim))
                + 1j * rng.standard_normal((len(TestEvolveGrid.S_NODES), dim)))

    @staticmethod
    def _count_eig(monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counting(a):
            calls.append(np.shape(a))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        return calls

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    @pytest.mark.parametrize("eps", [0.2, 0.0125])
    def test_matches_dense_exponential(self, collision_small, assemble, eps):
        cm = collision_small
        u0 = self._states(assemble(1.0, eps, cm).dim, 21)
        failures = []
        states, keep = cl._evolve_grid(assemble, self.S_NODES, eps, cm, u0,
                                       self.TIMES, failures)
        assert keep.all() and not failures
        for i, s in enumerate(self.S_NODES):
            op = assemble(float(s), eps, cm)
            for j, t in enumerate(self.TIMES):
                ref = sl.expm((t / eps**2) * op.matrix) @ u0[i]
                assert np.abs(states[j, i] - ref).max() <= 1e-9 * np.linalg.norm(u0[i])

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    def test_schur_fallback_gives_same_states(self, collision_small, monkeypatch, assemble):
        cm, eps = collision_small, 0.2
        u0 = self._states(assemble(1.0, eps, cm).dim, 22)
        fast, _ = cl._evolve_grid(assemble, self.S_NODES, eps, cm, u0, self.TIMES, [])
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        failures = []
        slow, keep = cl._evolve_grid(assemble, self.S_NODES, eps, cm, u0,
                                     self.TIMES, failures)
        assert keep.all() and not failures
        assert mo._decomposition(assemble(1.0, eps, cm))[0] == "schur"
        assert np.abs(fast - slow).max() <= 1e-9 * np.abs(u0).max()

    def test_one_stacked_eig_per_block(self, collision_small, monkeypatch):
        calls = self._count_eig(monkeypatch)
        cm = collision_small
        u0 = self._states(cm.basis.dim + 4, 23)
        cl._evolve_grid(mo.assemble_A_tilde, self.S_NODES, 0.2, cm, u0, self.TIMES, [])
        n0, n1 = cm.basis.dim0, cm.basis.dim1
        assert calls == [(3, n0, n0), (3, n1 + 2, n1 + 2)]

    def test_schur_fallback_decomposes_once(self, collision_small, monkeypatch):
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        calls = self._count_eig(monkeypatch)
        cm = collision_small
        u0 = self._states(cm.basis.dim, 25)
        _, keep = cl._evolve_grid(mo.assemble_B, self.S_NODES, 0.2, cm, u0, self.TIMES, [])
        assert keep.all()
        assert len(calls) == 2

    def test_transient_check_decomposes_once(self, collision_small, monkeypatch):
        calls = self._count_eig(monkeypatch)
        cl.transient_rate_check(cl.ExperimentConfig(data_kind="generic"), collision_small)
        assert len(calls) == 2

    def test_non_finite_flow_drops_the_modes(self, collision_small, monkeypatch):
        def nan_flow(layout, parts, states0, taus):
            return np.full((len(states0), len(taus), states0.shape[1]), np.nan + 0j)

        monkeypatch.setattr(cl, "_block_flow", nan_flow)
        cm = collision_small
        u0 = self._states(cm.basis.dim + 4, 26)
        failures = []
        states, keep = cl._evolve_grid(mo.assemble_A_tilde, self.S_NODES, 0.2, cm, u0,
                                       self.TIMES, failures)
        assert not keep.any()
        assert [f["s"] for f in failures] == list(self.S_NODES)
        assert all("contraction violated" in f["reason"] for f in failures)
        assert np.all(states == 0.0)

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    def test_matches_propagate(self, collision_small, assemble):
        cm, eps = collision_small, 0.05
        u0 = self._states(assemble(1.0, eps, cm).dim, 27)
        states, _ = cl._evolve_grid(assemble, self.S_NODES, eps, cm, u0, self.TIMES, [])
        for i, s in enumerate(self.S_NODES):
            op = assemble(float(s), eps, cm)
            for j, t in enumerate(self.TIMES):
                got = mo.propagate(op, u0[i], t)
                assert np.abs(states[j, i] - got).max() <= 1e-13 * np.abs(u0[i]).max()

    def test_sine_copy_is_signed_cosine_copy(self, collision_small):
        # the sine copy (sin, X2, Y3) evolves like the cosine copy (cos, X3, Y2)
        # with the sign of its X component flipped
        cm, eps = collision_small, 0.0125
        basis = cm.basis
        n0, n1, dim = basis.dim0, basis.dim1, basis.dim
        cos_idx = np.r_[n0:n0 + n1, dim + 1, dim + 2]
        sin_idx = np.r_[n0 + n1:n0 + 2 * n1, dim, dim + 3]
        sign = np.ones(n1 + 2)
        sign[n1] = -1.0
        block = self._states(n1 + 2, 24)
        u_cos = np.zeros((len(self.S_NODES), dim + 4), dtype=complex)
        u_sin = np.zeros_like(u_cos)
        u_cos[:, cos_idx] = block
        u_sin[:, sin_idx] = block * sign
        a, _ = cl._evolve_grid(mo.assemble_A_tilde, self.S_NODES, eps, cm, u_cos,
                               self.TIMES, [])
        b, _ = cl._evolve_grid(mo.assemble_A_tilde, self.S_NODES, eps, cm, u_sin,
                               self.TIMES, [])
        assert np.abs(b[..., sin_idx] - a[..., cos_idx] * sign).max() <= 1e-14
        assert np.abs(np.delete(b, sin_idx, axis=-1)).max() == 0.0


class TestFirstOrder:
    def test_time_zero_identities(self, wp_report, generic_report):
        for rep in (wp_report, generic_report):
            assert rep.flags["t0_identity_boltzmann"]
            assert rep.flags["t0_identity_vmb"]
            assert rep.t[0] == 0.0

    def test_well_prepared_eps_slopes(self, wp_report):
        assert wp_report.flags["eps_slope_boltzmann"]
        assert wp_report.flags["eps_slope_vmb"]
        assert wp_report.fits["eps_slope_boltzmann"]["exponent"] == pytest.approx(
            1.0, abs=0.15)
        assert wp_report.fits["eps_slope_vmb"]["exponent"] == pytest.approx(
            1.0, abs=0.15)
        assert wp_report.flags["eps_monotone"]

    def test_aggregated_projection_decay_rates(self, wp_report):
        assert wp_report.flags["p0_decay_rate"]
        assert wp_report.flags["p1_decay_rate"]
        assert wp_report.flags["p1_prefactor_slope"]
        assert wp_report.fits["boltzmann_p0_decay"]["exponent"] == pytest.approx(
            -0.75, abs=0.15)
        assert wp_report.fits["boltzmann_p1_decay"]["exponent"] == pytest.approx(
            -1.25, abs=0.15)

    def test_generic_transient_matches_split_gap(self, generic_report):
        assert generic_report.flags["transient_gap_match"]
        tr = generic_report.fits["transient_rate"]
        assert abs(tr["fitted_b"] - tr["split_b"]) <= 0.2 * tr["split_b"]
        assert tr["split_b"] > 0.0

    def test_full_mode_coverage(self, wp_report):
        assert wp_report.metadata["coverage"] == 1.0
        assert wp_report.metadata["propagation_failures"] == []

    def test_report_passes(self, wp_report, generic_report):
        assert wp_report.passed()
        assert generic_report.passed()


class TestTransientRate:
    def test_explicit_eps_and_mode(self, collision_small):
        cfg = cl.ExperimentConfig(data_kind="generic")
        out = cl.transient_rate_check(cfg, collision_small, s0=0.5, eps=0.1)
        assert out["match"]
        assert out["eps"] == 0.1
        assert out["s"] == 0.5


class TestInitialLayer:
    def test_generic_layer_exponent(self, layer_report):
        assert layer_report.flags["t0_amplitude"]
        assert layer_report.flags["layer_exponent"]
        assert layer_report.fits["layer_exponent"]["exponent"] == pytest.approx(
            -1.0, abs=0.2)

    def test_well_prepared_layer_is_small(self, collision_small):
        cfg = cl.ExperimentConfig(data_kind="well_prepared")
        rep = cl.initial_layer_profile(cfg, collision_small)
        assert rep.flags["t0_amplitude"]
        assert rep.flags["wp_amplitude_small"]
        assert rep.metadata["amplitude_max"] <= 10.0 * rep.metadata["bulk_reference"]


class TestSecondOrder:
    def test_eps_slopes(self, second_report):
        assert second_report.flags["eps_slope_boltzmann"]
        assert second_report.flags["eps_slope_vmb"]
        assert second_report.fits["eps_slope_boltzmann"]["exponent"] == pytest.approx(
            1.0, abs=0.2)
        assert second_report.fits["eps_slope_vmb"]["exponent"] == pytest.approx(
            1.0, abs=0.2)

    def test_scaled_solutions_stay_bounded_at_log_time(self, second_report):
        assert second_report.flags["bounded_boltzmann"]
        assert second_report.flags["bounded_vmb"]
        marks = second_report.metadata["scaled_norm_at_log_time"]
        for vals in marks.values():
            assert np.all(np.isfinite(vals))


class TestReportSerialization:
    def test_json_byte_identical_across_rebuilds(self, twin_reports):
        a, b = twin_reports
        assert a.to_json() == b.to_json()

    def test_csv_byte_identical_across_rebuilds(self, twin_reports):
        a, b = twin_reports
        assert a.csv_rows() == b.csv_rows()

    def test_json_is_sorted_and_timestamp_free(self, twin_reports):
        doc = json.loads(twin_reports[0].to_json())
        assert doc["experiment"] == "first_order"
        assert set(doc) == {"experiment", "config", "eps", "t", "errors",
                            "fits", "flags", "metadata"}
        assert "time" not in json.dumps(doc["metadata"]).lower()

    def test_csv_values_round_trip(self, twin_reports):
        rep = twin_reports[0]
        rows = rep.csv_rows()
        assert rows[0] == "experiment,stream,eps,t,value"
        body = [r.split(",") for r in rows[1:]]
        streams = sorted(rep.errors)
        assert [r[1] for r in body[:1]][0] == streams[0]
        first = body[0]
        assert float(first[4]) == rep.errors[streams[0]][0][0]

    def test_write_creates_both_files(self, twin_reports, tmp_path):
        rep = twin_reports[0]
        jp = tmp_path / "report.json"
        cp = tmp_path / "report.csv"
        rep.write(jp, cp)
        assert jp.read_text() == rep.to_json() + "\n"
        assert cp.read_text() == "\n".join(rep.csv_rows()) + "\n"

    def test_non_finite_value_fails_before_writing(self, tmp_path):
        rep = cl.ConvergenceReport(experiment="first_order", config={}, eps=[0.1],
                                   t=[0.0, 1.0], errors={"vmb": [[0.5, float("nan")]]})
        with pytest.raises(cl.ConvergenceError, match="non-finite"):
            rep.to_json()
        jp = tmp_path / "report.json"
        cp = tmp_path / "report.csv"
        with pytest.raises(cl.ConvergenceError, match="non-finite"):
            rep.write(jp, cp)
        assert not jp.exists() and not cp.exists()


def _leaves(node, path=()):
    """(path, value) for every scalar of a JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


class TestFrozenReports:
    """The tier-1 reports against payloads frozen from an earlier revision.

    A table is one error stream, one fit, or one whole top-level section;
    every number must agree to 1e-10 of its table's largest value.
    """

    @pytest.mark.parametrize("label, report", [
        ("first_order/well_prepared", "wp_report"),
        ("first_order/generic", "generic_report"),
        ("second_order", "second_report"),
        ("initial_layer/generic", "layer_report"),
    ])
    def test_matches_fixture(self, request, label, report):
        want = json.loads(REPORTS_FIXTURE.read_text())[label]
        got = json.loads(request.getfixturevalue(report).to_json())
        assert got["flags"] == want["flags"]
        got_leaves, want_leaves = dict(_leaves(got)), dict(_leaves(want))
        assert got_leaves.keys() == want_leaves.keys()

        def table(path):
            return path[:2] if path[0] in ("errors", "fits") else path[:1]

        scale: dict = {}
        for path, value in want_leaves.items():
            if isinstance(value, (int, float)):
                key = table(path)
                scale[key] = max(scale.get(key, 0.0), abs(value))
        for path, value in want_leaves.items():
            if isinstance(value, (int, float)):
                assert abs(got_leaves[path] - value) <= 1e-10 * scale[table(path)], path
            else:
                assert got_leaves[path] == value, path
