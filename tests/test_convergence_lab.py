"""Diffusion-limit convergence laboratory tests.

Covers the power-law fitter against exact and seeded-noise data, experiment
configuration validation, the initial-data shapes and their compatibility
constraints, corrector solves, the oscillatory radial integral against a
Monte Carlo oracle with an exact inverse-CDF sampler (oracles.mc_reference),
and the experiment drivers at the small basis: first-order rates, the
acoustic layer profile, second-order rates, the microscopic transient, and
report determinism.
"""
import copy
import dataclasses
import importlib.util
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.linalg as sl

from kslab import collision_ops
from kslab import convergence_lab as cl
from kslab import fluid_limits as fl
from kslab import mode_operators as mo
from kslab.collision_ops import AssemblyError, assemble_collision
from kslab.fluid_limits import FluidError
from kslab.velocity_basis import (
    BasisSpec, _line_fit, _panel_quadrature, build_basis, v_multiplication_matrix,
)

import oracles


REPORTS_FIXTURE = Path(__file__).parent / "fixtures" / "reports.json"
DIGEST_TOOL = Path(__file__).parent.parent / "tools" / "report_digests.py"


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
        with pytest.raises(cl.ConvergenceError, match="at least 4 finite samples"):
            cl.rate_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(cl.ConvergenceError, match="needs positive values"):
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

    @pytest.mark.parametrize("x, y", [
        ([1.0, 2.0], [1.0, 2.0]),
        ([], []),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0, 5.0], [-1.0, -2.0, -3.0, -4.0, -5.0]),
        ([3.0, 3.0 * (1.0 + 1e-14), 3.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
    ], ids=["two-points", "empty", "y-zero", "y-all-negative", "x-span-below-1e-12"])
    def test_usable_sample_rule_is_the_line_fits(self, x, y):
        # past its own finite, shape and x > 0 checks, rate_fit raises exactly
        # what the shared line fit raises on log x
        with pytest.raises(cl.ConvergenceError) as want:
            _line_fit(np.log(np.asarray(x, dtype=float)), np.asarray(y, dtype=float),
                      cl.ConvergenceError)
        with pytest.raises(cl.ConvergenceError) as got:
            cl.rate_fit(x, y)
        assert str(got.value) == str(want.value)

    def test_negative_abscissa_rejected(self):
        # log x needs x > 0, so rate_fit checks it before the line fit
        with pytest.raises(cl.ConvergenceError, match="positive abscissae"):
            cl.rate_fit([1.0, -2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])

    def test_is_the_shared_line_fit_on_log_x(self):
        x = np.geomspace(0.3, 7.0, 6)
        y = 1.7 * x**-1.2 * (1.0 + 0.01 * np.sin(5.0 * x))
        fit = cl.rate_fit(x, y)
        assert (fit.exponent, fit.intercept, fit.ci, fit.rss) == _line_fit(
            np.log(x), y, cl.ConvergenceError)
        assert fit.n_points == 6

    @given(p=st.floats(-3.0, 3.0), c=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_recovers_any_exact_power(self, p, c):
        x = np.geomspace(1.0, 20.0, 12)
        fit = cl.rate_fit(x, c * x**p)
        assert fit.exponent == pytest.approx(p, abs=1e-8)


class TestExperimentConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'epsilon'"):
            cl.ExperimentConfig(**{"epsilon": [0.1, 0.05]})

    def test_default_round_trip(self):
        cfg = cl.ExperimentConfig()
        again = cl.ExperimentConfig(**cfg.as_dict())
        assert again == cfg
        # every field of each record makes the round trip, in declaration order
        assert list(cfg.as_dict()) == [f.name for f in dataclasses.fields(cfg)]
        assert cfg.as_dict()["eps_list"] == list(cfg.eps_list)
        fit = cl.rate_fit(np.arange(1.0, 6.0), np.arange(1.0, 6.0) ** -2)
        assert fit.as_dict() == {f.name: getattr(fit, f.name) for f in dataclasses.fields(fit)}
        report = cl.ConvergenceReport("probe", cfg.as_dict(), [0.1], [1.0], {"e": [[2.0]]})
        assert json.loads(report.to_json()) == {
            f.name: getattr(report, f.name) for f in dataclasses.fields(report)}

    def test_eps_must_decrease(self):
        with pytest.raises(cl.ConvergenceError, match="strictly decreasing"):
            cl.ExperimentConfig(eps_list=(0.05, 0.1))
        with pytest.raises(cl.ConvergenceError, match="at least two"):
            cl.ExperimentConfig(eps_list=(0.1,))

    def test_kind_message_enumerates_options(self):
        with pytest.raises(cl.ConvergenceError, match="generic, well_prepared"):
            cl.ExperimentConfig(data_kind="wrong")

    def test_reports_record_the_aggregation_constants(self, twin_reports):
        cfg = _small_cfg(data_kind="well_prepared")
        config = twin_reports[0].config
        assert config == {**cfg.as_dict(), "norm": "H2", "s_cap": 4.0, "regime_radius": 0.6,
                          "t_min": 1e-3, "profile_width": 0.6}
        # constants, not options: a config that sets them is rejected
        with pytest.raises(TypeError, match="unexpected keyword argument 'norm'"):
            cl.ExperimentConfig(**config)

    def test_grid_validation(self):
        with pytest.raises(cl.ConvergenceError, match="0 < t_min < t_max"):
            cl.ExperimentConfig(t_max=1e-4)
        with pytest.raises(cl.ConvergenceError, match="four points"):
            cl.ExperimentConfig(n_t=3)
        with pytest.raises(cl.ConvergenceError, match="eight points"):
            cl.ExperimentConfig(n_s=4)

    def test_removed_options_are_type_errors(self, collision_small):
        # the time grid's first time and the profile widths are module
        # constants: _T_MIN, _PROFILE_WIDTH and fluid_limits._Y2_WIDTH_DIVISOR
        tc = cl.transport_coefficients(collision_small)
        with pytest.raises(TypeError, match="unexpected keyword argument 't_min'"):
            cl.ExperimentConfig(t_min=1e-2)
        with pytest.raises(TypeError, match="unexpected keyword argument 'profile_width'"):
            cl.ExperimentConfig(profile_width=0.4)
        with pytest.raises(TypeError, match="positional argument"):
            fl.y2_decay_experiment(tc, "generic", 1.0)
        with pytest.raises(TypeError, match="unexpected keyword argument 'profile_width'"):
            fl.y2_decay_experiment(tc, kind="generic", profile_width=1.0)

    def test_mode_cap_shrinks_with_eps(self):
        cfg = cl.ExperimentConfig()
        assert cfg.s_max(0.0125) == pytest.approx(4.0)
        assert cfg.s_max(0.2) == pytest.approx(0.6 / 0.2 - 1.0)
        with pytest.raises(cl.ConvergenceError, match="no resolvable modes"):
            cfg.s_max(0.5)

    def test_t_grid_endpoints(self):
        cfg = cl.ExperimentConfig(t_max=10.0, n_t=7)
        grid = cfg.t_grid()
        assert grid[0] == pytest.approx(cl._T_MIN)
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


class TestInitialData:
    def test_unknown_kind(self, collision_small):
        with pytest.raises(cl.ConvergenceError, match="second_order"):
            cl.make_initial_data("adiabatic", cl.ExperimentConfig(), collision_small)

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

    @pytest.mark.parametrize("arg", ["f_shape", "g_shape"])
    @pytest.mark.parametrize("bad", ["short", "long", "matrix", "nan", "inf"])
    def test_bad_shapes_rejected(self, collision_small, arg, bad):
        data = cl.make_initial_data("second_order", _small_cfg(), collision_small)
        shapes = {"f_shape": data.boltzmann_micro, "g_shape": data.vmb_micro}
        good = shapes[arg]
        shapes[arg] = {"short": good[:-1], "long": np.append(good, 0.0),
                       "matrix": good[None, :],
                       "nan": np.where(np.arange(good.size) == 7, math.nan, good),
                       "inf": np.where(np.arange(good.size) == 7, math.inf, good)}[bad]
        with pytest.raises(cl.ConvergenceError, match=f"{arg} must be a finite 1-D array"):
            cl.corrector_shapes(collision_small, shapes["f_shape"], shapes["g_shape"])


class TestOscillatory:
    def test_static_value_matches_closed_form_to_truncation(self):
        r_cut = cl._OSC_R_CUT
        val = cl.oscillatory_value(0.0, 0.0)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert abs(val.real - 4.0 * math.pi / 3.0) <= 4.0 * math.pi / (1.0 + r_cut)

    def test_small_x_limit_is_continuous(self):
        a = cl.oscillatory_value(3.0, 0.0)
        b = cl.oscillatory_value(3.0, 1e-6)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    @pytest.mark.parametrize("theta", [3.0, 10.0, 100.0, 1000.0])
    def test_continuous_down_to_zero_offset(self, theta):
        # one integral at every offset, so nothing cancels as x goes to 0
        v0 = cl.oscillatory_value(theta, 0.0)
        for x in (1e-11, 1e-9, 1e-7):
            assert abs(cl.oscillatory_value(theta, x) - v0) <= 1e-8 * abs(v0)

    @staticmethod
    def _two_kernel_value(theta, x):
        """(2 pi / (i x)) (K(theta + x) - K(theta - x)), K(k) the half-line
        integral of e^{i k r} r under the envelope: the sphere kernel split in two."""
        def kernel(kappa):
            def values(rows, r):
                return np.exp(1j * kappa * r) * cl._envelope(r) * r
            cap = min(1.0, 8.0 / max(abs(kappa), 1.0))
            return complex(_panel_quadrature([0.0, cl._OSC_R_CUT], cap, 10, 1e-7, values,
                                             cl.ConvergenceError)[0])
        return (2.0 * math.pi / (1j * x)) * (kernel(theta + x) - kernel(theta - x))

    @pytest.mark.parametrize("theta", [3.0, 10.0, 100.0, 1000.0])
    def test_matches_the_two_kernel_form_at_the_front(self, theta):
        for x in (theta / 2.0, theta):
            want = self._two_kernel_value(theta, x)
            assert abs(cl.oscillatory_value(theta, x) - want) <= 1e-9 * abs(want)

    def test_monte_carlo_agreement(self):
        val = cl.oscillatory_value(5.0, 2.5)
        ref, sigma = oracles.mc_reference(5.0, 2.5, n=400_000, seed=11)
        assert abs(val - ref) <= 3.0 * sigma
        # the integral reads the offset |x|
        assert cl.oscillatory_value(5.0, -2.5) == val

    def test_monte_carlo_static_mass_is_exact(self):
        ref, sigma = oracles.mc_reference(0.0, 0.0, n=1000, seed=0)
        assert ref.real == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_chunked_draws_match_single_shot(self, monkeypatch):
        monkeypatch.setattr(oracles, "_MC_CHUNK", 1000)
        n, theta, x = 3500, 5.0, 2.5
        v = np.cbrt(np.random.default_rng(11).random(n))
        r = v / (1.0 - v)
        samples = np.sinc(r * x / math.pi) * np.exp(1j * theta * r)
        total = 4.0 * math.pi / 3.0
        ref = total * complex(samples.mean())
        ref_sigma = total * max(samples.real.std(), samples.imag.std()) / math.sqrt(n)
        val, sigma = oracles.mc_reference(theta, x, n=n, seed=11)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        assert abs(sigma - ref_sigma) <= 1e-12 * ref_sigma

    @pytest.mark.parametrize("theta, x", [(math.nan, 0.5), (1.0, math.nan),
                                          (math.inf, 0.5), (1.0, -math.inf)])
    def test_non_finite_arguments_rejected(self, theta, x):
        with pytest.raises(cl.ConvergenceError, match="finite theta and x"):
            cl.oscillatory_value(theta, x)

    def test_unresolved_integral_raises_convergence_error(self, monkeypatch):
        # an envelope that rings at 200 is far below the pieces of width 1 at phase 1
        monkeypatch.setattr(cl, "_envelope", lambda s: np.cos(200.0 * s))
        with pytest.raises(cl.ConvergenceError, match="too rough"):
            cl.oscillatory_value(1.0, 0.0)

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


def _whole_grid(assemble, s_nodes, eps, cm, states0, times, failures):
    """_evolve_grid's chunks put together: the (n_t, n_s, dim) states and the keep mask.

    Each chunk must be the next run of at most _MODE_CHUNK modes, its states
    contiguous (n_t, len, dim); a reducer that returns no table gets none back.
    """
    chunks = []

    def collect(chunk, states):
        assert chunk.start == sum(c.shape[1] for c in chunks)
        assert states.flags.c_contiguous
        assert states.shape[:2] == (len(times), len(s_nodes[chunk]))
        assert 0 < states.shape[1] <= cl._MODE_CHUNK
        chunks.append(states)
        return ()

    keep, tables = cl._evolve_grid(assemble, s_nodes, eps, cm, states0, times, failures,
                                   collect)
    assert tables == ()
    assert sum(c.shape[1] for c in chunks) == len(s_nodes)
    return np.concatenate(chunks, axis=1), keep


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
        states, keep = _whole_grid(assemble, self.S_NODES, eps, cm, u0,
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
        fast, _ = _whole_grid(assemble, self.S_NODES, eps, cm, u0, self.TIMES, [])
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        failures = []
        slow, keep = _whole_grid(assemble, self.S_NODES, eps, cm, u0,
                                 self.TIMES, failures)
        assert keep.all() and not failures
        assert mo._decomposition(assemble(1.0, eps, cm)).schur.any()
        assert np.abs(fast - slow).max() <= 1e-9 * np.abs(u0).max()

    @pytest.mark.parametrize("cond_limit", [mo._EIG_COND_LIMIT, 1.0], ids=["eig", "schur"])
    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    def test_grid_operators_hold_no_decomposition(self, collision_small, monkeypatch,
                                                  assemble, cond_limit):
        # each chunk's decomposition is a value _evolve_grid hands to
        # _block_flow: no operator it assembles keeps one
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", cond_limit)
        cm, ops = collision_small, []

        def assemble_kept(s, eps, cm):
            ops.append(assemble(s, eps, cm))
            return ops[-1]

        u0 = self._states(assemble(1.0, 0.2, cm).dim, 29)
        _, keep = _whole_grid(assemble_kept, self.S_NODES, 0.2, cm, u0, self.TIMES, [])
        assert keep.all() and len(ops) == len(self.S_NODES)
        assert all(op._decomp is None for op in ops)

    def test_one_stacked_eig_per_block(self, collision_small, monkeypatch):
        calls = self._count_eig(monkeypatch)
        cm = collision_small
        u0 = self._states(cm.basis.dim + 4, 23)
        _whole_grid(mo.assemble_A_tilde, self.S_NODES, 0.2, cm, u0, self.TIMES, [])
        n0, n1 = cm.basis.dim0, cm.basis.dim1
        assert calls == [(3, n0, n0), (3, n1 + 2, n1 + 2)]

    def test_schur_fallback_decomposes_once(self, collision_small, monkeypatch):
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        calls = self._count_eig(monkeypatch)
        cm = collision_small
        u0 = self._states(cm.basis.dim, 25)
        _, keep = _whole_grid(mo.assemble_B, self.S_NODES, 0.2, cm, u0, self.TIMES, [])
        assert keep.all()
        assert len(calls) == 2

    def test_decomposition_runs_no_svd(self, collision_small, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the decomposition took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cm = collision_small
        u0 = self._states(cm.basis.dim + 4, 27)
        failures = []
        _, keep = _whole_grid(mo.assemble_A_tilde, self.S_NODES, 0.2, cm, u0,
                              self.TIMES, failures)
        assert keep.all() and not failures

    def test_transient_check_decomposes_once(self, collision_small, monkeypatch):
        calls = self._count_eig(monkeypatch)
        cl.transient_rate_check(cl.ExperimentConfig(data_kind="generic"), collision_small)
        assert len(calls) == 2

    def test_non_finite_flow_drops_the_modes(self, collision_small, monkeypatch):
        def nan_flow(ops, dec, states0, taus):
            return np.full((len(taus), len(states0), states0.shape[1]), np.nan + 0j)

        monkeypatch.setattr(cl, "_block_flow", nan_flow)
        cm = collision_small
        u0 = self._states(cm.basis.dim + 4, 26)
        failures = []
        states, keep = _whole_grid(mo.assemble_A_tilde, self.S_NODES, 0.2, cm, u0,
                                   self.TIMES, failures)
        assert not keep.any()
        assert [f["s"] for f in failures] == list(self.S_NODES)
        assert all("contraction violated" in f["reason"] for f in failures)
        assert np.all(states == 0.0)

    def test_reducer_tables_cover_every_mode(self, collision_small, monkeypatch):
        # 20 modes in chunks of 7 (7, 7, 6): each table the reducer returns is
        # the same reduction of the whole grid's states, zero on the dropped modes
        monkeypatch.setattr(cl, "_MODE_CHUNK", 7)
        cm, eps, n = collision_small, 0.2, 20
        s = np.linspace(0.05, 1.9, n)
        rng = np.random.default_rng(28)
        u0 = rng.standard_normal((n, cm.basis.dim)) + 1j * rng.standard_normal((n, cm.basis.dim))
        u0[[2, 15, 19]] *= np.nan

        def reduce(chunk, states):
            return cl._norm_sq(states), np.sum(states[-1], axis=-1)

        failures, want_failures = [], []
        keep, tables = cl._evolve_grid(mo.assemble_B, s, eps, cm, u0, self.TIMES, failures,
                                       reduce)
        states, want_keep = _whole_grid(mo.assemble_B, s, eps, cm, u0, self.TIMES,
                                        want_failures)
        assert np.flatnonzero(~keep).tolist() == [2, 15, 19]
        assert np.array_equal(keep, want_keep) and failures == want_failures
        norms, last = tables
        assert norms.shape == (len(self.TIMES), n) and norms.dtype == float
        assert last.shape == (n,) and last.dtype == complex
        for got, want in zip(tables, reduce(slice(None), states)):
            assert np.array_equal(got, want)
        assert not norms[:, ~keep].any() and not last[~keep].any()

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    def test_matches_propagate(self, collision_small, assemble):
        cm, eps = collision_small, 0.05
        u0 = self._states(assemble(1.0, eps, cm).dim, 27)
        states, _ = _whole_grid(assemble, self.S_NODES, eps, cm, u0, self.TIMES, [])
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
        a, _ = _whole_grid(mo.assemble_A_tilde, self.S_NODES, eps, cm, u_cos,
                           self.TIMES, [])
        b, _ = _whole_grid(mo.assemble_A_tilde, self.S_NODES, eps, cm, u_sin,
                           self.TIMES, [])
        assert np.abs(b[..., sin_idx] - a[..., cos_idx] * sign).max() <= 1e-14
        assert np.abs(np.delete(b, sin_idx, axis=-1)).max() == 0.0


def _one_stack_grid(assemble, s_nodes, eps, cm, states0, times, failures):
    """The whole grid in one stack: _evolve_grid as it was before its mode chunks."""
    ops = [assemble(float(s), eps, cm) for s in s_nodes]
    out = mo._block_flow(ops, mo._decompose_stacked(ops), states0,
                         np.asarray(times, dtype=float) / eps**2)
    growth, bad = mo._contraction_violations(np.stack([op.metric_diag for op in ops]),
                                             states0, out)
    for i in np.flatnonzero(bad):
        failures.append({"eps": float(eps), "s": float(s_nodes[i]),
                         "reason": f"contraction violated ({growth[i]:.3e})"})
    out[:, bad] = 0.0
    return out, ~bad


class TestModeChunks:
    """_evolve_grid runs in chunks of _MODE_CHUNK modes, bit for bit one stack."""

    EPS = 0.0125
    TIMES = EPS * np.linspace(0.0, 20.0, 21)   # the initial layer's time grid

    @staticmethod
    def _grid(n, dim, seed):
        x, _ = np.polynomial.legendre.leggauss(n)
        rng = np.random.default_rng(seed)
        return 1.2 * (x + 1.0), rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    @pytest.mark.parametrize("n", [240, 100])
    def test_chunks_equal_one_stack(self, collision_small, assemble, n):
        cm = collision_small
        s, u0 = self._grid(n, assemble(1.0, self.EPS, cm).dim, 31)
        got_failures, want_failures = [], []
        states, keep = _whole_grid(assemble, s, self.EPS, cm, u0, self.TIMES, got_failures)
        want, want_keep = _one_stack_grid(assemble, s, self.EPS, cm, u0, self.TIMES,
                                          want_failures)
        assert states.flags.c_contiguous and states.shape == want.shape
        assert np.array_equal(states, want)
        assert np.array_equal(keep, want_keep)
        assert got_failures == want_failures

    def test_dropped_modes_in_later_chunks(self, collision_small, monkeypatch):
        # a mode dropped in any chunk is zero at its own place in the grid
        cm = collision_small
        s, u0 = self._grid(150, cm.basis.dim, 32)
        u0[[3, 97, 149]] *= np.nan
        failures = []
        states, keep = _whole_grid(mo.assemble_B, s, self.EPS, cm, u0, self.TIMES,
                                   failures)
        assert np.flatnonzero(~keep).tolist() == [3, 97, 149]
        assert [f["s"] for f in failures] == [float(s[i]) for i in (3, 97, 149)]
        assert np.all(states[:, ~keep] == 0.0)
        assert np.all(np.isfinite(states))

    @pytest.mark.parametrize("n", [240, 16])
    def test_kinetic_tables_equal_the_unblocked_formula(self, collision_small, n):
        # the whole chunk at once: 16 modes (one chunk of the grid), and 240
        # modes, 5040 states, more than any chunk of a report holds
        cm = collision_small
        s, f0 = self._grid(n, cm.basis.dim, 33)
        tc = cl.transport_coefficients(cm)
        rng = np.random.default_rng(35)
        shape = (len(self.TIMES), n, cm.basis.dim)
        kin = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wq, wl = rng.random(n), rng.random(n)
        f_par, f_perp = cl.p_split(kin, cm.basis)
        fluid = cl._heat_flow(f0, s, self.TIMES, tc, cm.basis)
        perp_sq, par = cl._kinetic_tables(kin, f0, s, self.TIMES, tc, cm.basis)
        # the states become the error in place
        assert np.array_equal(kin, f_perp - fluid)
        assert np.array_equal(perp_sq, cl._norm_sq(f_perp - fluid))
        assert np.array_equal(par, np.linalg.norm(f_par, axis=-1))
        assert np.array_equal(np.sqrt(perp_sq @ wq), cl._mode_l2(f_perp - fluid, wq))
        assert np.array_equal(par @ wl, np.linalg.norm(f_par, axis=-1) @ wl)

    def test_field_table_equals_the_padded_formula(self, collision_small):
        # _field_table builds no padded fluid grid; here it is written out in the
        # (kinetic, X, Y) layout, zero on the dropped mode
        cm = collision_small
        dim = cm.basis.dim
        s, _ = self._grid(48, dim, 36)
        rng = np.random.default_rng(37)
        shape = (len(self.TIMES), 48, dim + 4)
        kin = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rho, *fields = rng.standard_normal((5, 48)) + 1j * rng.standard_normal((5, 48))
        keep = np.ones(48, dtype=bool)
        keep[17] = False
        kin[:, ~keep] = 0.0
        wq = rng.random(48) * keep
        eta = cl.transport_coefficients(cm).eta
        flow = cl._field_flow(eta, s, self.TIMES, rho, *fields)
        fluid = np.zeros(shape, dtype=complex)
        fluid[..., 0] = flow[..., 0]
        fluid[..., dim:] = flow[..., 1:]
        fluid[:, ~keep] = 0.0
        want = cl._field_sq(kin - fluid, s)
        got = cl._field_table(kin.copy(), eta, s, self.TIMES, rho, *fields)
        assert np.array_equal(got[:, keep], want[:, keep])
        assert np.array_equal(np.sqrt(got @ wq), np.sqrt(want @ wq))

    @pytest.mark.parametrize("block", [1, 2, 4, 5, 7])
    def test_heat_flow_is_the_same_bits_per_row_block(self, collision_small, block):
        # each time row of the heat flow is the same bits whatever rows it runs with
        cm = collision_small
        s, f0 = self._grid(240, cm.basis.dim, 34)
        tc = cl.transport_coefficients(cm)
        got = np.concatenate([cl._heat_flow(f0, s, self.TIMES[lo:lo + block], tc, cm.basis)
                              for lo in range(0, len(self.TIMES), block)])
        assert np.array_equal(got, cl._heat_flow(f0, s, self.TIMES, tc, cm.basis))


class TestStreamedReports:
    """The rate experiments reduce each chunk of modes as it flows: no report
    holds a grid of all its modes, and the chunk size moves no bit."""

    @pytest.mark.parametrize("experiment, kind, report", [
        pytest.param(cl.initial_layer_profile, "generic", "layer_report", id="layer"),
        pytest.param(cl.second_order_experiment, "well_prepared", "second_report",
                     id="second_order"),
    ])
    def test_working_set_holds_no_state_grid(self, request, collision_small, experiment,
                                             kind, report):
        # the tier-1 configuration, warm: 10.1 and 8.7 MB while the reports
        # built their (n_t, n_s, dim) state grids, about 2.3 MB streamed
        request.getfixturevalue(report)   # the same report, so the caches are warm
        tracemalloc.start()
        try:
            experiment(cl.ExperimentConfig(data_kind=kind), collision_small)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("experiment", [
        cl.first_order_experiment, cl.second_order_experiment, cl.initial_layer_profile])
    def test_reports_do_not_depend_on_the_chunk(self, collision_small, monkeypatch,
                                                experiment):
        # chunks of 7 (20 modes: 7, 7, 6; the layer's 240 end in 2) against one stack
        cfg = cl.ExperimentConfig(data_kind="generic", n_s=20, n_t=7, t_max=50.0)
        texts = []
        for chunk in (7, 10**6):
            monkeypatch.setattr(cl, "_MODE_CHUNK", chunk)
            rep = experiment(cfg, collision_small)
            texts.append((rep.to_json(), rep.csv_rows()))
        assert texts[0] == texts[1]


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

    @pytest.mark.parametrize("t_max, n_t, n_fit", [
        pytest.param(4.0, 6, 4, id="none-past-5"),
        pytest.param(6.0, 8, 4, id="one-past-5"),
        pytest.param(50.0, 20, 5, id="five-past-5"),
    ])
    def test_decay_fits_share_one_window(self, collision_small, t_max, n_t, n_fit):
        # t >= 5, or the last four times when fewer reach 5: a tail of the grid;
        # P1 decays at the sharpest eps, its prefactor from every eps's intercept
        cfg = _small_cfg(data_kind="well_prepared", t_max=t_max, n_t=n_t)
        rep = cl.first_order_experiment(cfg, collision_small)
        tw = 1.0 + np.asarray(rep.t[-n_fit:])
        p0 = cl.rate_fit(tw, rep.errors["boltzmann_p0"][-1][-n_fit:])
        p1 = [cl.rate_fit(tw, row[-n_fit:]) for row in rep.errors["boltzmann_p1"]]
        pref = cl.rate_fit(rep.eps, [math.exp(f.intercept) for f in p1])
        assert rep.fits["boltzmann_p0_decay"] == p0.as_dict()
        assert rep.fits["boltzmann_p0_decay"]["n_points"] == n_fit
        assert rep.fits["boltzmann_p1_decay"] == p1[-1].as_dict()
        assert rep.fits["p1_prefactor"] == pref.as_dict()

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

    def test_degree_one_basis_fails_before_any_propagation(self, monkeypatch):
        _fails_before_any_propagation(cl.first_order_experiment, monkeypatch)

    def test_kernel_refinement_check_guards_the_truncation_notes(self, collision_small,
                                                                 monkeypatch):
        # the report's truncation deltas come from the refined pass, which
        # refuses 12- and 24-point moments that disagree
        cm = dataclasses.replace(collision_small, _cache={})
        moments = collision_ops._pair_kernel_moments

        def perturbed(ra, rb, lmax, rules):
            out = moments(ra, rb, lmax, rules)
            k1, _ = out[rules.index(12)]
            k1[lmax] *= 1.0 + 1e-5
            return out

        monkeypatch.setattr(collision_ops, "_pair_kernel_moments", perturbed)
        with pytest.raises(AssemblyError, match="not converged"):
            cl.first_order_experiment(_small_cfg(data_kind="well_prepared"), cm)


def _fails_before_any_propagation(experiment, monkeypatch):
    """The experiment refuses collision data whose basis stops at Legendre degree 1,
    where its transport forms read degree 2, before it evolves any mode."""
    cm = assemble_collision(build_basis(BasisSpec(2, 1)), build_gamma=False)
    calls = []
    monkeypatch.setattr(cl, "_evolve_grid", lambda *args: calls.append(args))
    with pytest.raises(FluidError, match="angular_max >= 2"):
        experiment(cl.ExperimentConfig(), cm)
    assert calls == []


class TestTransientRate:
    def test_explicit_eps_and_mode(self, collision_small, monkeypatch):
        # the middle eps of the sweep and the module's one wave number
        monkeypatch.setattr(cl, "_TRANSIENT_S0", 0.5)
        cfg = cl.ExperimentConfig(data_kind="generic", eps_list=(0.2, 0.1, 0.05))
        out = cl.transient_rate_check(cfg, collision_small)
        assert out["match"]
        assert out["eps"] == 0.1
        assert out["s"] == 0.5

    @pytest.mark.parametrize("eps_list, eps", [
        pytest.param((0.2, 0.1), 0.1, id="two"),
        pytest.param((0.1, 0.05, 0.025), 0.05, id="three"),
        pytest.param((0.2, 0.1, 0.05, 0.025), 0.05, id="four"),
        pytest.param((0.4, 0.2, 0.1, 0.05, 0.025), 0.1, id="five"),
    ])
    def test_scale_is_middle_of_sweep(self, collision_small, eps_list, eps):
        # eps_list[len // 2] at the module's wave number, nothing else read
        cfg = cl.ExperimentConfig(data_kind="generic", eps_list=eps_list)
        out = cl.transient_rate_check(cfg, collision_small)
        assert out["eps"] == eps
        assert out["s"] == cl._TRANSIENT_S0 == 1.0
        assert out["match"]

    @pytest.mark.parametrize("gap", [math.nan, 0.0, -1.0])
    def test_unusable_gap_refused(self, collision_small, monkeypatch, gap):
        split = cl.semigroup_split
        monkeypatch.setattr(cl, "semigroup_split",
                            lambda op: dataclasses.replace(split(op), measured_gap_b=gap))
        with pytest.raises(cl.ConvergenceError, match="no usable gap"):
            cl.transient_rate_check(cl.ExperimentConfig(data_kind="generic"), collision_small)

    def test_contraction_violation_refused(self, collision_small, monkeypatch):
        monkeypatch.setattr(cl, "_contraction_violations",
                            lambda *args: (np.array([2.0]), np.array([True])))
        with pytest.raises(mo.PropagationError, match="contraction violated"):
            cl.transient_rate_check(cl.ExperimentConfig(data_kind="generic"), collision_small)

    @pytest.mark.parametrize("kept", [0, 3])
    def test_weak_transient_refused_by_the_fit(self, collision_small, monkeypatch, kept):
        # the remainder flow with all but its first `kept` fit times set to 0:
        # fewer than four samples above 1e-12 leave nothing to fit
        flow = cl._remainder_flow

        def weak(split, f0, taus):
            states = flow(split, f0, taus)
            states[1 + kept:] = 0.0
            return states

        monkeypatch.setattr(cl, "_remainder_flow", weak)
        with pytest.raises(cl.ConvergenceError, match="at least 4"):
            cl.transient_rate_check(cl.ExperimentConfig(data_kind="generic"), collision_small)


class TestInitialLayer:
    def test_generic_layer_exponent(self, layer_report):
        assert layer_report.flags["t0_amplitude"]
        assert layer_report.flags["layer_exponent"]
        assert layer_report.fits["layer_exponent"]["exponent"] == pytest.approx(
            -1.0, abs=0.2)

    @pytest.mark.parametrize("width", [0.4, 0.8])
    def test_profile_width_sets_the_layer(self, collision_small, layer_report, monkeypatch,
                                          width):
        monkeypatch.setattr(cl, "_PROFILE_WIDTH", width)
        cfg = cl.ExperimentConfig(data_kind="generic")
        rep = cl.initial_layer_profile(cfg, collision_small)
        assert rep.config["profile_width"] == width
        assert rep.errors["layer_front"] != layer_report.errors["layer_front"]
        assert rep.flags["t0_amplitude"] and rep.flags["layer_exponent"]

    def test_well_prepared_layer_is_small(self, collision_small):
        cfg = cl.ExperimentConfig(data_kind="well_prepared")
        rep = cl.initial_layer_profile(cfg, collision_small)
        assert rep.flags["t0_amplitude"]
        assert rep.flags["wp_amplitude_small"]
        assert rep.metadata["amplitude_max"] <= 10.0 * rep.metadata["bulk_reference"]

    def test_layer_below_noise_floor_refused(self, collision_small, monkeypatch):
        # a kinetic flow that is 0 from t = 0 on leaves no front to fit
        def silent(assemble, s, eps, cm, f0, times, failures, reduce):
            tables = reduce(slice(0, len(s)), np.zeros((len(times), *f0.shape), complex))
            return np.ones(len(s), bool), tables

        monkeypatch.setattr(cl, "_evolve_grid", silent)
        with pytest.raises(cl.ConvergenceError, match="below noise floor"):
            cl.initial_layer_profile(cl.ExperimentConfig(data_kind="generic"), collision_small)

    def test_degree_one_basis_fails_before_any_propagation(self, monkeypatch):
        _fails_before_any_propagation(cl.initial_layer_profile, monkeypatch)


class TestSecondOrder:
    def test_degree_one_basis_fails_before_any_propagation(self, monkeypatch):
        _fails_before_any_propagation(cl.second_order_experiment, monkeypatch)

    def test_short_window_fails_before_any_propagation(self, collision_small, monkeypatch):
        # the supremum window t >= _SECOND_ORDER_T_FLOOR must hold a time:
        # a shorter sweep is refused before any mode is evolved, and the
        # window's start itself is accepted
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(cl, "_evolve_grid", lambda *args: calls.append(args))
            with pytest.raises(cl.ConvergenceError, match="supremum window"):
                cl.second_order_experiment(cl.ExperimentConfig(n_s=8, n_t=5, t_max=0.4),
                                           collision_small)
        assert calls == []
        report = cl.second_order_experiment(
            cl.ExperimentConfig(n_s=8, n_t=5, t_max=cl._SECOND_ORDER_T_FLOOR), collision_small)
        assert report.t[-1] == cl._SECOND_ORDER_T_FLOOR

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

    def test_flags_are_json_booleans(self, twin_reports):
        for rep in (twin_reports[0], cl.oscillatory_decay_check()):
            flags = json.loads(rep.to_json())["flags"]
            assert flags and all(type(v) is bool for v in flags.values()), rep.experiment

    def test_numpy_values_encode_as_python_values(self):
        rep = cl.ConvergenceReport("probe", {"n": np.int64(3)}, [np.float32(0.5)], [1.0],
                                   {"e": np.array([[2.0]])}, flags={"ok": np.bool_(True)})
        doc = json.loads(rep.to_json())
        assert doc["config"] == {"n": 3} and doc["eps"] == [0.5]
        assert doc["errors"] == {"e": [[2.0]]} and doc["flags"] == {"ok": True}
        with pytest.raises(TypeError):
            cl.ConvergenceReport("probe", {"z": 1j}, [], [], {}).to_json()

    @staticmethod
    def _digest_tool():
        spec = importlib.util.spec_from_file_location("report_digests", DIGEST_TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    def test_digest_tool_on_the_tier1_reports(self, wp_report, generic_report, second_report,
                                              layer_report):
        # tools/report_digests.py: one sha256 of to_json() and csv_rows() per report
        tool = self._digest_tool()
        reports = (wp_report, generic_report, second_report, layer_report)
        digests = [tool.report_digest(rep) for rep in reports]
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
        assert len(set(digests)) == len(reports)
        assert [tool.report_digest(copy.deepcopy(rep)) for rep in reports] == digests

    def test_digest_tool_on_the_science(self, collision_small):
        # the transport, crossing and mode sections: one sha256 of exact values each
        tool, limit = self._digest_tool(), mo._EIG_COND_LIMIT
        got = tool.science_digests({"(6, 3)": collision_small})
        assert mo._EIG_COND_LIMIT == limit
        modes = got["modes"]
        assert len(modes) == 12 and all(len(entry) == 4 for entry in modes.values())
        leaves = [got["transport"]["(6, 3)"], got["crossing"]["(6, 3)"]]
        leaves += [d for entry in modes.values() for d in entry.values()]
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in leaves)
        # the fallback keeps each block's eig pair, and flows by expm instead
        for key in (k for k in modes if k.startswith("eig ")):
            fallback = modes["fallback" + key[3:]]
            assert modes[key]["spectrum"] == fallback["spectrum"]
            assert modes[key]["propagate"] != fallback["propagate"]
        assert tool.science_digests({"(6, 3)": collision_small}) == got
        assert tool.value_digest(1.0) != tool.value_digest(np.nextafter(1.0, 2.0))

    def test_digest_tool_on_the_assembly(self, collision_small, collision_default):
        # the collision section (gain, delta, nu, sectors) and the Gamma section
        tool = self._digest_tool()
        collision = tool.collision_digests(collision_small)
        gamma = tool.gamma_digests(collision_default)
        assert sorted(collision) == ["delta", "gain", "nu", "sectors"]
        assert sorted(gamma) == ["change_of_basis", "chi_sub", "sub_operators", "tensor"]
        leaves = [*collision.values(), *gamma.values()]
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in leaves)
        assert len(set(leaves)) == len(leaves)
        assert tool.collision_digests(collision_small) == collision
        assert tool.collision_digests(collision_default) != collision

    def test_digest_tool_on_the_fluid_flows(self, collision_small):
        # the fluid section: the three decay experiments and one forced solve
        tool = self._digest_tool()
        got = tool.fluid_digests(collision_small)
        assert sorted(got) == ["nsmf", "y1", "y2 enhanced", "y2 generic"]
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in got.values())
        assert len(set(got.values())) == len(got)
        assert tool.fluid_digests(collision_small) == got
        modes = tool.nsmf_modes()
        assert [m.s for m in modes] == list(tool.NSMF_S)
        assert all(None not in (m.g1, m.g2, m.g3) for m in modes)

    @pytest.mark.parametrize("report", ["wp_report", "generic_report", "second_report",
                                        "layer_report"])
    def test_truncation_notes_are_the_truncation_deltas(self, request, collision_small,
                                                        report):
        notes = request.getfixturevalue(report).metadata["truncation_delta"]
        assert notes == fl.truncation_deltas(collision_small)
        assert notes is not fl.truncation_deltas(collision_small)

    def test_tier1_runs_at_the_tools_blas_threads(self):
        # tests/conftest.py sets these before numpy loads, unless the caller did
        assert all(os.environ.get(var) for var in self._digest_tool().BLAS_VARS)

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


# ---------------------------------------------------------------------------
# boundary contract: every exported callable against bad input, with
# ConvergenceError as the module's documented error
# ---------------------------------------------------------------------------

def _shapes(cm, f=None, g=None):
    """corrector_shapes on microscopic data without density, or on f(basis), g(basis)."""
    b = cm.basis
    micro = b.projection_matrix("P1") @ np.linspace(-1.0, 1.0, b.dim)
    return cl.corrector_shapes(cm, micro if f is None else f(b), micro if g is None else g(b))


def _fit(x=(1.0, 2.0, 3.0, 4.0), y=(1.0, 0.5, 0.3, 0.2)):
    return cl.rate_fit(x, y)


def _experiment_rows(experiment):
    cfg = cl.ExperimentConfig
    return {
        "cfg-none": ("expected ExperimentConfig", lambda cm: experiment(None, cm)),
        "cfg-dict": ("expected ExperimentConfig", lambda cm: experiment(cfg().as_dict(), cm)),
        "cm-none": ("expected CollisionMatrices", lambda cm: experiment(cfg(), None)),
        "cm-basis": ("expected CollisionMatrices", lambda cm: experiment(cfg(), cm.basis)),
    }


def _config(**kw):
    return lambda cm: cl.ExperimentConfig(**kw)


def _initial(kind, cfg=cl.ExperimentConfig()):
    return lambda cm: cl.make_initial_data(kind, cfg, cm)


# per callable, per case: (the message the ConvergenceError matches, the call)
_BAD_CALLS = {
    "ExperimentConfig": {
        "eps-nan": ("two finite positive", _config(eps_list=(0.2, math.nan))),
        "eps-none": ("two finite positive", _config(eps_list=None)),
        "eps-str": ("two finite positive", _config(eps_list=("a", 0.1))),
        "eps-bool": ("two finite positive", _config(eps_list=(True, 0.1))),
        "eps-single": ("two finite positive", _config(eps_list=(0.1,))),
        "eps-increasing": ("strictly decreasing", _config(eps_list=(0.05, 0.1))),
        "data-kind-unknown": ("unknown data_kind", _config(data_kind="second_order")),
        "data-kind-list": ("unknown data_kind", _config(data_kind=["generic"])),
        "t-min-above-t-max": ("0 < t_min < t_max", _config(t_max=1e-4)),
        "t-max-nan": ("t_max must be a finite number", _config(t_max=math.nan)),
        "t-max-inf": ("t_max must be a finite number", _config(t_max=math.inf)),
        "t-max-str": ("t_max must be a finite number", _config(t_max="100")),
        "t-max-bool": ("t_max must be a finite number", _config(t_max=True)),
        "t-max-none": ("t_max must be a finite number", _config(t_max=None)),
        "n-s-fraction": ("n_s must be an integer", _config(n_s=16.5)),
        "n-s-bool": ("n_s must be an integer", _config(n_s=True)),
        "n-s-four": ("at least eight points", _config(n_s=4)),
        "n-t-three": ("at least four points", _config(n_t=3)),
        "n-t-fraction": ("n_t must be an integer", _config(n_t=4.5)),
        "seed-negative": ("seed must be nonnegative", _config(seed=-1)),
        "seed-float": ("seed must be an integer", _config(seed=1.0)),
        "eps-scalar": ("two finite positive", _config(eps_list=5)),
    },
    "rate_fit": {
        "x-str": ("real samples", lambda cm: _fit(x="abcd")),
        "y-str-entry": ("real samples", lambda cm: _fit(y=(1.0, 2.0, "x", 4.0))),
        "x-none": ("real samples", lambda cm: _fit(x=None)),
        "x-ragged": ("real samples", lambda cm: _fit(x=((1.0, 2.0), (3.0,)))),
        "x-bool": ("real samples", lambda cm: _fit(x=(True, True, True, True))),
        "x-bool-entry": ("real samples", lambda cm: _fit(x=(True, 2.0, 3.0, 4.0))),
        "y-complex": ("real samples", lambda cm: _fit(y=(1.0, 0.5j, 0.3, 0.2))),
        "x-nan": ("real samples", lambda cm: _fit(x=(1.0, 2.0, math.nan, 4.0))),
        "y-inf": ("real samples", lambda cm: _fit(y=(1.0, math.inf, 0.3, 0.2))),
        "shape-mismatch": ("matching one-dimensional", lambda cm: _fit(y=(1.0, 0.5, 0.3))),
        "two-dimensional": ("matching one-dimensional", lambda cm: _fit(
            x=((1.0, 2.0), (3.0, 4.0)), y=((1.0, 0.5), (0.3, 0.2)))),
        "three-points": ("at least 4 finite samples",
                         lambda cm: _fit(x=(1.0, 2.0, 3.0), y=(1.0, 0.5, 0.3))),
        "y-negative": ("needs positive values", lambda cm: _fit(y=(1.0, -0.5, 0.3, 0.2))),
        "y-zero": ("needs positive values", lambda cm: _fit(y=(1.0, 0.5, 0.0, 0.2))),
        "x-zero": ("positive abscissae", lambda cm: _fit(x=(0.0, 2.0, 3.0, 4.0))),
        "x-repeated": ("degenerate", lambda cm: _fit(x=(2.0, 2.0, 2.0, 2.0))),
        "x-span-1e-13": ("degenerate", lambda cm: _fit(x=(2.0, 2.0, 2.0, 2.0 + 2e-13))),
    },
    "corrector_shapes": {
        "cm-none": ("expected CollisionMatrices",
                    lambda cm: cl.corrector_shapes(None, np.zeros(3), np.zeros(3))),
        "cm-basis": ("expected CollisionMatrices",
                     lambda cm: cl.corrector_shapes(cm.basis, np.zeros(3), np.zeros(3))),
        "f-short": ("f_shape must be", lambda cm: _shapes(cm, f=lambda b: np.zeros(b.dim - 1))),
        "g-matrix": ("g_shape must be", lambda cm: _shapes(cm, g=lambda b: np.zeros((1, b.dim)))),
        "f-nan": ("f_shape must be", lambda cm: _shapes(cm, f=lambda b: np.full(b.dim, math.nan))),
        "g-inf": ("g_shape must be", lambda cm: _shapes(cm, g=lambda b: np.full(b.dim, math.inf))),
        "f-str": ("f_shape must be", lambda cm: _shapes(cm, f=lambda b: np.full(b.dim, "1"))),
        "g-none": ("g_shape must be", lambda cm: _shapes(cm, g=lambda b: None)),
        "f-bool": ("f_shape must be",
                   lambda cm: _shapes(cm, f=lambda b: np.zeros(b.dim, dtype=bool))),
        "f-ragged": ("f_shape must be",
                     lambda cm: _shapes(cm, f=lambda b: [[0.0] * (b.dim - 1), [0.0]])),
        "f-macroscopic": ("purely microscopic", lambda cm: _shapes(cm, f=lambda b: b.chi(0))),
        "g-density": ("no density part", lambda cm: _shapes(cm, g=lambda b: b.chi(0))),
    },
    "make_initial_data": {
        "kind-unknown": ("unknown data kind", _initial("adiabatic")),
        "kind-list": ("unknown data kind", _initial(["generic"])),
        "kind-none": ("unknown data kind", _initial(None)),
        "cfg-none": ("expected ExperimentConfig", _initial("generic", cfg=None)),
        "cfg-cm": ("expected ExperimentConfig",
                   lambda cm: cl.make_initial_data("generic", cm, cm)),
        "cm-none": ("expected CollisionMatrices",
                    lambda cm: cl.make_initial_data("generic", cl.ExperimentConfig(), None)),
        "second-order-cm-none": ("expected CollisionMatrices", lambda cm: cl.make_initial_data(
            "second_order", cl.ExperimentConfig(), None)),
    },
    "first_order_experiment": _experiment_rows(cl.first_order_experiment),
    "second_order_experiment": {
        **_experiment_rows(cl.second_order_experiment),
        "t-max-below-window": ("supremum window", lambda cm: cl.second_order_experiment(
            cl.ExperimentConfig(n_s=8, n_t=5, t_max=0.4), cm)),
    },
    "initial_layer_profile": _experiment_rows(cl.initial_layer_profile),
    "transient_rate_check": _experiment_rows(cl.transient_rate_check),
    "oscillatory_value": {
        "theta-nan": ("finite theta and x", lambda cm: cl.oscillatory_value(math.nan, 0.5)),
        "x-inf": ("finite theta and x", lambda cm: cl.oscillatory_value(1.0, math.inf)),
        "theta-str": ("finite theta and x", lambda cm: cl.oscillatory_value("1", 0.5)),
        "x-none": ("finite theta and x", lambda cm: cl.oscillatory_value(1.0, None)),
        "theta-bool": ("finite theta and x", lambda cm: cl.oscillatory_value(True, 0.5)),
        "theta-complex": ("finite theta and x", lambda cm: cl.oscillatory_value(1.0j, 0.5)),
        "theta-node-budget": ("more than", lambda cm: cl.oscillatory_value(1e9, 0.0)),
    },
}
# exported names that take no caller input of their own
_NOT_ENTRY_POINTS = {
    "ConvergenceError": "the module's error type",
    "ConvergenceReport": "the record the experiments return",
    "InitialData": "the record make_initial_data returns",
    "RateFit": "the record rate_fit returns",
    "oscillatory_decay_check": "takes no arguments: its inputs are module constants",
}


class TestBoundaryContract:
    """Every exported callable of convergence_lab rejects bad input with ConvergenceError."""

    def test_table_covers_the_exports(self):
        import kslab

        exported = {name for name, obj in vars(kslab).items()
                    if callable(obj) and getattr(obj, "__module__", None) == cl.__name__}
        assert exported == set(_BAD_CALLS) | set(_NOT_ENTRY_POINTS)
        assert not set(_BAD_CALLS) & set(_NOT_ENTRY_POINTS)

    @pytest.mark.parametrize("name, case", [(name, case) for name, rows in _BAD_CALLS.items()
                                            for case in rows])
    def test_bad_input_raises_convergence_error(self, collision_small, name, case):
        match, call = _BAD_CALLS[name][case]
        with pytest.raises(cl.ConvergenceError, match=match):
            call(collision_small)

    def test_table_calls_are_valid_when_repaired(self, collision_small):
        # the helpers behind the rows succeed on good input, so each row fails
        # for its one bad argument
        z2, e_z = _shapes(collision_small)
        assert z2.shape == (collision_small.basis.dim,) and e_z.shape == (3,)
        assert _fit().n_points == 4
        assert cl.ExperimentConfig(n_s=16).n_s == 16
