"""Scalar dispersion-relation tests.

Covers the two sector resolvent scalars (symmetry at the origin, derivative
structure, deflation consistency, singular-point detection), the three root
solvers (closed forms at eps = 0, quadratic eps rates, duality with the
assembled operator spectra, branch tracking through the collision point),
and the small wave-number expansion of the kinetic-only slow branches.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslab import dispersion as dsp
from kslab.mode_operators import assemble_A_tilde


def _nearest(lam, w):
    return lam[np.argmin(np.abs(lam - w))]


def _spectrum_mismatch(op, z):
    w = op.eps**2 * z
    lam = np.linalg.eigvals(op.matrix)
    return abs(_nearest(lam, w) - w) / max(abs(w), 1e-30)


class TestResolventScalars:
    def test_sector_symmetry_at_origin(self, collision_default):
        rs = dsp.resolvent_scalars(0.0, 0.0, 0.0, collision_default)
        eta = dsp.eta_coefficient(collision_default)
        assert eta > 0
        assert rs.R11 == pytest.approx(-eta, abs=1e-13)
        # the axial and transverse scalars agree at the origin because both
        # reduce to the same degree-one radial block
        assert abs(rs.R11 - rs.R22) < 1e-13

    def test_wavenumber_derivative_vanishes_at_origin(self, collision_default):
        h = 1e-6
        base = dsp.resolvent_scalars(0.0, 0.0, 0.0, collision_default).R11
        bumped = dsp.resolvent_scalars(0.0, 1.0, h, collision_default).R11
        assert abs(bumped - base) / h < 1e-6

    def test_spectral_derivative_positive(self, collision_default):
        ax, _ = dsp._solvers(collision_default)
        val, dval = ax.value_and_xderiv(0.0, 0.0)
        assert dval.real > 0
        assert abs(dval.imag) < 1e-13
        h = 1e-6
        fd = (ax.value(h, 0.0) - val) / h
        assert abs(fd - dval) < 1e-5 * abs(dval)

    def test_deflation_matches_direct_solve(self, collision_default):
        # away from the origin the undeflated axial matrix is regular and
        # must give the same scalar as the shifted solve
        ax, _ = dsp._solvers(collision_default)
        x, y = -0.003 + 0.001j, 0.07
        mat = ax.l1 - x * np.eye(ax.n) - 1j * y * ax.stream
        direct = ax.chi @ np.linalg.solve(mat, ax.chi)
        assert abs(ax.value(x, y) - direct) < 1e-12

    def test_singular_point_raises(self, collision_default):
        _, tr = dsp._solvers(collision_default)
        lam = np.linalg.eigvalsh(tr.l1)[-1]
        with pytest.raises(ValueError):
            tr.value(complex(lam), 0.0)


class TestInputValidation:
    """Non-finite s or eps fails with DispersionError before any root work."""

    @pytest.mark.parametrize("solve", [dsp.solve_z0, dsp.solve_z_pm, dsp.solve_highfreq,
                                       dsp.boltzmann_dispersion])
    @pytest.mark.parametrize("s, eps", [(math.nan, 0.1), (math.inf, 0.1),
                                        (1.0, math.nan), (1.0, math.inf)])
    def test_root_solvers_reject(self, collision_small, solve, s, eps):
        with pytest.raises(dsp.DispersionError, match="non-finite"):
            solve(s, eps, collision_small)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_crossing_rejects(self, collision_small, eps):
        with pytest.raises(dsp.DispersionError, match="non-finite"):
            dsp.crossing_location(eps, collision_small)

    def test_highfreq_needs_positive_wavenumber(self, collision_small):
        with pytest.raises(dsp.DispersionError, match="s > 0"):
            dsp.solve_highfreq(0.0, 0.5, collision_small)


class TestDensityBranch:
    @pytest.mark.parametrize("s", [0.3, 1.3])
    def test_zero_eps_closed_form(self, collision_default, s):
        eta = dsp.eta_coefficient(collision_default)
        br = dsp.solve_z0(s, 0.0, collision_default)
        assert br.value == pytest.approx(-eta * (1 + s * s), abs=1e-12)
        assert br.residual < 1e-12

    def test_root_is_real(self, collision_default):
        br = dsp.solve_z0(1.3, 0.04, collision_default)
        assert abs(br.value.imag) < 1e-12

    def test_eps_rate_quadratic(self, collision_default):
        base = dsp.solve_z0(1.3, 0.0, collision_default).value
        errs = [
            abs(dsp.solve_z0(1.3, e, collision_default).value - base)
            for e in (0.02, 0.01, 0.005)
        ]
        for hi, lo in zip(errs, errs[1:]):
            slope = math.log(hi / lo) / math.log(2.0)
            assert 1.8 < slope < 2.2

    @pytest.mark.parametrize("s,eps", [(1.3, 0.04), (0.5, 0.02)])
    def test_matches_operator_spectrum(self, collision_default, s, eps):
        br = dsp.solve_z0(s, eps, collision_default)
        op = assemble_A_tilde(s, eps, collision_default)
        assert _spectrum_mismatch(op, br.value) < 1e-8

    def test_out_of_regime_raises(self, collision_default):
        with pytest.raises(dsp.DispersionError):
            dsp.solve_z0(30.0, 1.0, collision_default)


class TestTransversePair:
    def test_zero_wavenumber_pair(self, collision_default):
        eta = dsp.eta_coefficient(collision_default)
        zp, zm = dsp.solve_z_pm(0.0, 0.0, collision_default)
        assert zp.value == pytest.approx(0.0, abs=1e-13)
        assert zm.value == pytest.approx(-eta, abs=1e-13)

    @pytest.mark.parametrize("s", [0.04, 0.3])
    def test_zero_eps_equals_seeds(self, collision_default, s):
        seeds = dsp.transverse_seeds(s, collision_default)
        zp, zm = dsp.solve_z_pm(s, 0.0, collision_default)
        assert abs(zp.value - seeds[0]) < 1e-13
        assert abs(zm.value - seeds[1]) < 1e-13

    def test_real_below_crossing_conjugate_above(self, collision_default):
        eta = dsp.eta_coefficient(collision_default)
        zp, zm = dsp.solve_z_pm(0.25 * eta, 0.02, collision_default)
        assert abs(zp.value.imag) < 1e-12 and abs(zm.value.imag) < 1e-12
        zp, zm = dsp.solve_z_pm(2.0 * eta, 0.02, collision_default)
        assert abs(zp.value - np.conj(zm.value)) < 1e-12
        assert zp.value.imag > 0

    def test_eps_rate_quadratic_off_crossing(self, collision_default):
        seed = dsp.transverse_seeds(0.5, collision_default)[0]
        errs = [
            abs(dsp.solve_z_pm(0.5, e, collision_default)[0].value - seed)
            for e in (0.02, 0.01, 0.005)
        ]
        for hi, lo in zip(errs, errs[1:]):
            slope = math.log(hi / lo) / math.log(2.0)
            assert 1.8 < slope < 2.2

    @pytest.mark.parametrize("s,eps", [(1.3, 0.04), (0.5, 0.02)])
    def test_matches_operator_spectrum(self, collision_default, s, eps):
        op = assemble_A_tilde(s, eps, collision_default)
        for br in dsp.solve_z_pm(s, eps, collision_default):
            assert _spectrum_mismatch(op, br.value) < 1e-8

    def test_tracked_through_crossing(self, collision_default):
        values = []
        gaps = []
        for s in np.linspace(0.100, 0.116, 17):
            zp, zm = dsp.solve_z_pm(float(s), 0.02, collision_default)
            assert zp.residual < 1e-10 and zm.residual < 1e-10
            values.append(zp.value)
            gaps.append(abs(zp.value - zm.value))
        # the pair closes up near the collision point and reopens along the
        # imaginary axis; the tracked branch stays continuous
        assert min(gaps) < 0.02
        assert gaps[0] > 0.05 and gaps[-1] > 0.05
        steps = np.abs(np.diff(values))
        assert np.max(steps) < 0.05

    @given(
        s=st.floats(0.12, 2.0),
        eps=st.floats(0.0, 0.04),
    )
    @settings(max_examples=15, deadline=None)
    def test_conjugate_pair_above_crossing(self, collision_default, s, eps):
        zp, zm = dsp.solve_z_pm(s, eps, collision_default)
        assert abs(zp.value - np.conj(zm.value)) < 1e-10
        assert zp.value.real < 0


class TestCrossing:
    def test_location_converges_to_half_eta(self, collision_default):
        eta = dsp.eta_coefficient(collision_default)
        target = 0.5 * eta
        locs = [
            dsp.crossing_location(e, collision_default)
            for e in (0.02, 0.01, 0.005)
        ]
        errs = [abs(v - target) for v in locs]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.4)
        extrap = locs[2] + (locs[2] - locs[1]) / 3.0
        assert abs(extrap - target) < 0.02 * target


class TestHighFrequency:
    def test_decay_band(self, collision_default):
        products = []
        for es in (20.0, 40.0, 80.0):
            for br in dsp.solve_highfreq(es, 1.0, collision_default):
                y = br.value - br.prediction
                products.append(-y.real * es)
        assert min(products) > 0
        assert max(products) / min(products) < 3.0

    def test_imaginary_log_bound(self, collision_default):
        for es in (20.0, 40.0, 80.0):
            br = dsp.solve_highfreq(es, 1.0, collision_default)[0]
            y = br.value - br.prediction
            assert abs(y.imag) * es / math.log(es) < 1.0

    def test_conjugate_pair(self, collision_default):
        zp, zm = dsp.solve_highfreq(20.0, 1.0, collision_default)
        assert abs(zp.value - np.conj(zm.value)) < 1e-12

    def test_matches_operator_spectrum(self, collision_default):
        op = assemble_A_tilde(20.0, 1.0, collision_default)
        for br in dsp.solve_highfreq(20.0, 1.0, collision_default):
            assert _spectrum_mismatch(op, br.value) < 1e-6


class TestSlowBranchExpansion:
    def test_sound_speed_from_fit(self, collision_default):
        fit = dsp.fit_boltzmann_expansion(collision_default)
        speed = math.sqrt(5.0 / 3.0)
        assert fit["boltzmann_1"][0] == pytest.approx(speed, abs=1e-3)
        assert fit["boltzmann_-1"][0] == pytest.approx(-speed, abs=1e-3)

    def test_zero_speed_branches(self, collision_default):
        fit = dsp.fit_boltzmann_expansion(collision_default)
        for label in ("boltzmann_0", "boltzmann_2", "boltzmann_3"):
            assert abs(fit[label][0]) < 1e-6

    def test_fit_matches_quadratic_forms(self, collision_default):
        fit = dsp.fit_boltzmann_expansion(collision_default)
        closed = dsp.expansion_coefficients(collision_default)
        for label, (_, a_fit) in fit.items():
            a_closed = closed[label][1]
            assert abs(a_fit - a_closed) / a_closed < 1e-4

    def test_coefficient_symmetries(self, collision_default):
        closed = dsp.expansion_coefficients(collision_default)
        assert closed["boltzmann_2"][1] == closed["boltzmann_3"][1]
        assert abs(closed["boltzmann_-1"][1] - closed["boltzmann_1"][1]) < 1e-12

    def test_positive_decay_coefficients(self, collision_default):
        closed = dsp.expansion_coefficients(collision_default)
        assert all(a > 0 for _, a in closed.values())

    def test_zero_wavenumber_degenerate(self, collision_default):
        branches = dsp.boltzmann_dispersion(0.0, 0.1, collision_default)
        assert len(branches) == 5
        for br in branches:
            assert abs(br.value) < 1e-10
            assert br.prediction == 0

    def test_prediction_tracks_eigenvalues(self, collision_default):
        for br in dsp.boltzmann_dispersion(1.0, 0.05, collision_default):
            assert abs(br.value - br.prediction) < 1e-5

    def test_regime_guard_raises(self, collision_default):
        with pytest.raises(dsp.DispersionError):
            dsp.boltzmann_dispersion(10.0, 0.2, collision_default)

    def test_truncation_stability(self, collision_default, collision_small):
        big = dsp.expansion_coefficients(collision_default)
        small = dsp.expansion_coefficients(collision_small)
        for label in big:
            assert abs(big[label][1] - small[label][1]) / big[label][1] < 5e-4
        eta_big = dsp.eta_coefficient(collision_default)
        eta_small = dsp.eta_coefficient(collision_small)
        assert abs(eta_big - eta_small) / eta_big < 1e-4
