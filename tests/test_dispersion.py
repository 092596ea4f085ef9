"""Scalar dispersion-relation tests.

Covers the two sector resolvent scalars (symmetry at the origin, wave-number
derivative, deflation consistency, singular-point detection), the root
solvers (closed forms at eps = 0, quadratic eps rates, duality with the
assembled operator spectra, branch tracking through the collision point,
failure on non-convergence and on residuals above tolerance), the crossing's
fixed point against the root of the bracketed discriminant by scipy's brentq
(which only the oracle in tests/oracles.py imports), the oscillatory branch
pair of tests/oracles.py (solve_highfreq, on the solvers' transverse map), and
the small wave-number expansion of the kinetic-only slow branches.
"""
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslab import dispersion as dsp
from kslab.collision_ops import assemble_collision
from kslab.mode_operators import assemble_A_tilde
from kslab.velocity_basis import BasisSpec, build_basis

import oracles


def _nearest(lam, w):
    return lam[np.argmin(np.abs(lam - w))]


def _spectrum_mismatch(op, z):
    w = op.eps**2 * z
    lam = np.linalg.eigvals(op.matrix)
    return abs(_nearest(lam, w) - w) / max(abs(w), 1e-30)


class TestResolventScalars:
    def test_sector_symmetry_at_origin(self, collision_default):
        rs = oracles.resolvent_scalars(0.0, 0.0, 0.0, collision_default)
        eta = dsp.eta_coefficient(collision_default)
        assert eta > 0
        assert rs.R11 == pytest.approx(-eta, abs=1e-13)
        # the axial and transverse scalars agree at the origin because both
        # reduce to the same degree-one radial block
        assert abs(rs.R11 - rs.R22) < 1e-13

    def test_wavenumber_derivative_vanishes_at_origin(self, collision_default):
        h = 1e-6
        base = oracles.resolvent_scalars(0.0, 0.0, 0.0, collision_default).R11
        bumped = oracles.resolvent_scalars(0.0, 1.0, h, collision_default).R11
        assert abs(bumped - base) / h < 1e-6

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
        with pytest.raises(dsp.DispersionError, match="singular"):
            tr.value(complex(lam), 0.0)


class TestInputValidation:
    """Non-finite s or eps fails with DispersionError before any root work."""

    @pytest.mark.parametrize("solve", [dsp.solve_z0, dsp.solve_z_pm, oracles.solve_highfreq,
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
            oracles.solve_highfreq(0.0, 0.5, collision_small)


_ROOT_CALLS = {
    "z0": lambda cm: dsp.solve_z0(1.3, 0.04, cm),
    "z_pm": lambda cm: dsp.solve_z_pm(0.5, 0.02, cm),
    "highfreq": lambda cm: oracles.solve_highfreq(1.0, 0.5, cm),
    "crossing": lambda cm: dsp.crossing_location(0.02, cm),
}


class TestCertification:
    """No root comes back without a converged iteration and a small residual."""

    @pytest.mark.parametrize("name", sorted(_ROOT_CALLS))
    def test_unconverged_iteration_raises(self, collision_default, monkeypatch, name):
        monkeypatch.setattr(dsp, "_MAX_ITER", 1)
        with pytest.raises(dsp.DispersionError, match="no convergence"):
            _ROOT_CALLS[name](collision_default)

    @pytest.mark.parametrize("name", sorted(_ROOT_CALLS))
    def test_residual_above_tolerance_raises(self, collision_default, monkeypatch, name):
        # a negative tolerance fails every residual, an exact 0 included: the
        # crossing is an exact fixed point in floating point at eps = 0.02
        monkeypatch.setattr(dsp, "_RES_TOL", -1.0)
        with pytest.raises(dsp.DispersionError, match="residual"):
            _ROOT_CALLS[name](collision_default)

    @pytest.mark.parametrize("name", sorted(_ROOT_CALLS))
    def test_nan_iterate_raises(self, collision_default, monkeypatch, name):
        dsp.eta_coefficient(collision_default)  # cached before the scalars turn NaN
        for solver in dsp._solvers(collision_default):
            monkeypatch.setattr(solver, "value", lambda x, y: complex(math.nan, 0.0))
        with pytest.raises(dsp.DispersionError, match="left its contraction region"):
            _ROOT_CALLS[name](collision_default)


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
        seeds = dsp._transverse_seeds(s, collision_default)
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
        seed = dsp._transverse_seeds(0.5, collision_default)[0]
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


    def test_import_leaves_the_root_finder_out(self, collision_small):
        # no kslab path loads scipy.optimize, a crossing included, and the
        # crossing is the same number in a fresh process
        script = (
            "import sys\n"
            "from kslab import collision_ops, dispersion, velocity_basis\n"
            "basis = velocity_basis.build_basis(velocity_basis.BasisSpec(6, 3))\n"
            "cm = collision_ops.assemble_collision(basis, build_gamma=False)\n"
            "x = dispersion.crossing_location(0.05, cm).hex()\n"
            "print('scipy.optimize' in sys.modules, x)\n"
        )
        src = str(Path(dsp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == ["False", dsp.crossing_location(0.05, collision_small).hex()]

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.02, 0.0125, 0.01])
    @pytest.mark.parametrize("cm_name", ["collision_small", "collision_default"])
    def test_double_root_of_the_transverse_relation(self, request, cm_name, eps):
        # the fixed point agrees with the bracketed discriminant's root and is
        # the more accurate root of it; there z = -s solves the transverse
        # relation z^2 - R22(eps^2 z, eps s) z + s^2 = 0
        cm = request.getfixturevalue(cm_name)
        s = dsp.crossing_location(eps, cm)
        assert abs(s - oracles.crossing_by_bracket(eps, cm)) <= 1e-12
        assert abs(oracles.crossing_discriminant(s, eps, cm)) <= 1e-15
        r22 = oracles.resolvent_scalars(-eps * eps * s, s, eps, cm).R22
        assert abs(s * s + r22 * s + s * s) <= 1e-15

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("cm_name", ["collision_small", "collision_default"])
    def test_strong_streaming_stays_on_the_bracketed_root(self, request, cm_name, eps):
        # the crossing drifts from 0.50 eta to 0.71 eta by eps = 3 and stays
        # within 3.5e-14 of the oracle; there |2 s^2 + R22 s| reaches 7.0e-15
        cm = request.getfixturevalue(cm_name)
        eta = dsp.eta_coefficient(cm)
        s = dsp.crossing_location(eps, cm)
        assert 0.5 * eta < s < 0.95 * eta
        assert abs(s - oracles.crossing_by_bracket(eps, cm)) <= 1e-12
        r22 = oracles.resolvent_scalars(-eps * eps * s, s, eps, cm).R22
        assert abs(s * s + r22 * s + s * s) <= 1e-13

    @pytest.mark.parametrize("eps", [4.0, 5.0, 10.0])
    @pytest.mark.parametrize("cm_name", ["collision_small", "collision_default"])
    def test_beyond_the_contraction_region_raises(self, request, cm_name, eps):
        cm = request.getfixturevalue(cm_name)
        with pytest.raises(dsp.DispersionError, match="left its contraction region"):
            dsp.crossing_location(eps, cm)

    @pytest.mark.parametrize("eps", [0.05, 0.02])
    def test_one_fixed_point_and_few_solves(self, collision_default, monkeypatch, eps):
        dsp.eta_coefficient(collision_default)  # cached before the solves are counted
        _, tr = dsp._solvers(collision_default)
        where, fixed_point, solves, value = [], dsp._fixed_point, [], tr.value

        def counting(step, z, inside, label):
            where.append(label)
            return fixed_point(step, z, inside, label)

        def counting_value(x, y):
            solves.append((x, y))
            return value(x, y)

        monkeypatch.setattr(dsp, "_fixed_point", counting)
        monkeypatch.setattr(tr, "value", counting_value)
        dsp.crossing_location(eps, collision_default)
        assert where == [f"crossing at eps={eps}"]
        assert len(solves) <= 8


class TestHighFrequency:
    """The oscillatory branch pair of tests/oracles.py, on the library's
    transverse contraction map."""

    def test_decay_band(self, collision_default):
        products = []
        for es in (20.0, 40.0, 80.0):
            for br in oracles.solve_highfreq(es, 1.0, collision_default):
                y = br.value - br.prediction
                products.append(-y.real * es)
        assert min(products) > 0
        assert max(products) / min(products) < 3.0

    def test_imaginary_log_bound(self, collision_default):
        for es in (20.0, 40.0, 80.0):
            br = oracles.solve_highfreq(es, 1.0, collision_default)[0]
            y = br.value - br.prediction
            assert abs(y.imag) * es / math.log(es) < 1.0

    def test_conjugate_pair(self, collision_default):
        zp, zm = oracles.solve_highfreq(20.0, 1.0, collision_default)
        assert abs(zp.value - np.conj(zm.value)) < 1e-12

    def test_matches_operator_spectrum(self, collision_default):
        op = assemble_A_tilde(20.0, 1.0, collision_default)
        for br in oracles.solve_highfreq(20.0, 1.0, collision_default):
            assert _spectrum_mismatch(op, br.value) < 1e-6


class TestSlowBranchExpansion:
    def test_sound_speed_from_fit(self, collision_default):
        fit = oracles.fit_boltzmann_expansion(collision_default)
        speed = math.sqrt(5.0 / 3.0)
        assert fit["boltzmann_1"][0] == pytest.approx(speed, abs=1e-3)
        assert fit["boltzmann_-1"][0] == pytest.approx(-speed, abs=1e-3)

    def test_zero_speed_branches(self, collision_default):
        fit = oracles.fit_boltzmann_expansion(collision_default)
        for label in ("boltzmann_0", "boltzmann_2", "boltzmann_3"):
            assert abs(fit[label][0]) < 1e-6

    def test_fit_matches_quadratic_forms(self, collision_default):
        fit = oracles.fit_boltzmann_expansion(collision_default)
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


class TestRealFrameSlowEigenvalues:
    """_slow_eigenvalues runs real eigvals on each B block's parity frame."""

    @pytest.mark.parametrize("which", ["collision_small", "collision_default"])
    @pytest.mark.parametrize("s, eps", [(0.4, 0.05), (1.3, 0.04), (3.0, 0.02), (4.5, 0.1)])
    def test_matches_complex_eigvals(self, request, which, s, eps):
        from kslab.mode_operators import _by_column, assemble_B

        cm = request.getfixturevalue(which)
        op = assemble_B(s, eps, cm)
        lam = _by_column(op, [np.linalg.eigvals(b.matrix) for b in op.blocks])
        want = lam[np.argsort(np.abs(lam))[:5]]
        got = dsp._slow_eigenvalues(s, eps, cm)
        dist = np.abs(got[:, None] - want[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12
        # conjugate pairs come out exactly conjugate, real ones exactly real
        matched = dsp._match_slow_branches(got)
        assert matched["boltzmann_-1"] == np.conj(matched["boltzmann_1"])
        assert matched["boltzmann_0"].imag == 0.0


class TestSectorSolverMatrix:
    """The identity and the deflation product are built once per solver, and a
    singular solve raises DispersionError."""

    @pytest.mark.parametrize("which", ["collision_small", "collision_default"])
    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (-0.003 + 0.001j, 0.07), (1.0 + 1e-7j, 0.3),
                                      (-2.5, 1.9)])
    def test_matches_fresh_assembly_bit_for_bit(self, request, which, x, y):
        ax, tr = dsp._solvers(request.getfixturevalue(which))
        want = ax.l1 - x * np.eye(ax.n) - 1j * y * ax.stream
        theta = 1.0 if abs(1.0 - x) >= 1e-6 else 1.0 + 2.0 * abs(x)
        chi0 = np.zeros(ax.n)
        chi0[0] = 1.0
        want = want + theta * np.outer(chi0, chi0)
        assert np.array_equal(ax._matrix(x, y), want)
        assert np.array_equal(tr._matrix(x, y), tr.l1 - x * np.eye(tr.n) - 1j * y * tr.stream)

    def test_exactly_singular_solve_raises(self):
        solver = dsp._SectorSolver(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2), None)
        with pytest.raises(dsp.DispersionError, match="singular"):
            solver.value(0.0, 0.0)


class TestRealFrameGuard:
    def test_block_without_real_frame_raises(self, collision_small, monkeypatch):
        # no B block built here reaches this path; the guard replaces a silent
        # complex fallback
        monkeypatch.setattr(dsp, "_real_frame", lambda block: None)
        with pytest.raises(dsp.DispersionError, match="parity frame"):
            dsp._slow_eigenvalues(1.3, 0.04, collision_small)


# ---------------------------------------------------------------------------
# boundary contract: every exported callable, with DispersionError as the
# module's documented error for bad input
# ---------------------------------------------------------------------------

def _scalar_rows(call, names):
    """Bad-value rows for each named real argument of call(cm, **values)."""
    bad = {"nan": math.nan, "inf": math.inf, "negative": -0.1, "bool": True, "str": "1",
           "none": None, "complex": 1j}
    return {f"{name}-{label}": (lambda cm, name=name, value=value: call(cm, **{name: value}))
            for name in names for label, value in bad.items()}


@functools.cache
def _angular_max_one():
    """Collision data whose basis stops at Legendre degree 1."""
    return assemble_collision(build_basis(BasisSpec(2, 1)), build_gamma=False)


def _collision_rows(call):
    return {"cm-none": lambda cm: call(None), "cm-basis": lambda cm: call(cm.basis)}


def _root_rows(solve):
    def call(cm, s=1.0, eps=0.1):
        return solve(s, eps, cm)
    return {**_scalar_rows(call, ("s", "eps")), **_collision_rows(call)}


def _crossing(cm, eps=0.02):
    return dsp.crossing_location(eps, cm)


_BAD_CALLS = {
    "solve_z0": _root_rows(dsp.solve_z0),
    "solve_z_pm": _root_rows(dsp.solve_z_pm),
    "boltzmann_dispersion": {**_root_rows(dsp.boltzmann_dispersion),
                             "out-of-regime": lambda cm: dsp.boltzmann_dispersion(10.0, 0.2, cm)},
    "crossing_location": {**_scalar_rows(_crossing, ("eps",)), **_collision_rows(_crossing)},
    "eta_coefficient": _collision_rows(dsp.eta_coefficient),
    "expansion_coefficients": {
        **_collision_rows(dsp.expansion_coefficients),
        # the a+-1 and kappa0 forms read degree 2, which angular_max = 1 cuts away
        "angular-max-one": lambda cm: dsp.expansion_coefficients(_angular_max_one()),
    },
}
# the oscillatory pair of tests/oracles.py checks its input as the root solvers do
_ORACLE_BAD_CALLS = {
    "solve_highfreq": {**_root_rows(oracles.solve_highfreq),
                       "s-zero": lambda cm: oracles.solve_highfreq(0.0, 0.5, cm)},
}
# exported names that take no caller input of their own
_NOT_ENTRY_POINTS = {
    "DispersionError": "the module's error type",
    "DispersionBranch": "the record the root solvers return; no caller builds one",
}


class TestBoundaryContract:
    """Every exported callable of dispersion rejects bad input with DispersionError."""

    def test_table_covers_the_exports(self):
        import kslab

        exported = {name for name, obj in vars(kslab).items()
                    if callable(obj) and getattr(obj, "__module__", None) == dsp.__name__}
        assert exported == set(_BAD_CALLS) | set(_NOT_ENTRY_POINTS)
        assert not set(_BAD_CALLS) & set(_NOT_ENTRY_POINTS)

    @pytest.mark.parametrize("name, case", [(name, case) for name, rows in _BAD_CALLS.items()
                                            for case in rows])
    def test_bad_input_raises_dispersion_error(self, collision_small, name, case):
        with pytest.raises(dsp.DispersionError):
            _BAD_CALLS[name][case](collision_small)

    @pytest.mark.parametrize("name, case", [(name, case)
                                            for name, rows in _ORACLE_BAD_CALLS.items()
                                            for case in rows])
    def test_oracle_bad_input_raises_dispersion_error(self, collision_small, name, case):
        with pytest.raises(dsp.DispersionError):
            _ORACLE_BAD_CALLS[name][case](collision_small)

    def test_table_calls_are_valid_when_repaired(self, collision_small):
        # the helpers behind the rows succeed on good input, so each row fails
        # for its one bad argument
        cm = collision_small
        for solve in (dsp.solve_z0, dsp.solve_z_pm, oracles.solve_highfreq,
                      dsp.boltzmann_dispersion):
            assert solve(1.0, 0.1, cm)
        assert _crossing(cm) > 0.0
        assert dsp.eta_coefficient(cm) > 0.0

    def test_zero_eps_is_in_the_domain(self, collision_small):
        # eps = 0 is each root's closed-form limit; only eps < 0 is out of domain
        eta = dsp.eta_coefficient(collision_small)
        assert dsp.solve_z0(1.0, 0.0, collision_small).value == pytest.approx(-2.0 * eta)
        assert dsp.crossing_location(0.0, collision_small) == 0.5 * eta
