"""Per-mode generator tests.

Checks the assembled kinetic and kinetic-electromagnetic matrices against
structural identities (dissipativity in the weighted product, explicit metric
adjoint, scaling in eps*s), the semigroup contract (contraction, composition,
branch splitting with a fitted remainder rate), and the resolvent-composition
probe scalings.
"""
import numpy as np
import pytest
import scipy.linalg as sl

from kslab.collision_ops import nu_eval
from kslab import mode_operators as mo
from kslab.velocity_basis import SECTOR_AXIAL, SECTOR_TRANSVERSE, v_multiplication_matrix


def _blockdiag(sectors):
    """A sector-block operator on the full axial|cos|sin layout."""
    return sl.block_diag(sectors[0], sectors[1], sectors[1])


def _dense_reference(kind, s, eps, cm, sign_flip=False):
    """Dense generator built on the full axial|cos|sin(|X2 X3 Y2 Y3) layout."""
    basis = cm.basis
    n0, n1 = basis.dim0, basis.dim1
    v0 = v_multiplication_matrix(basis, SECTOR_AXIAL)
    v1 = v_multiplication_matrix(basis, SECTOR_TRANSVERSE)
    ax, co, si = basis.slice_axial, basis.slice_cos, basis.slice_sin
    if kind == "B":
        mat = _blockdiag(cm.L_sector).astype(complex)
        w = eps * s
        mat[ax, ax] -= 1j * w * v0
        mat[co, co] -= 1j * w * v1
        mat[si, si] -= 1j * w * v1
        return mat
    sk = -1.0 if sign_flip else 1.0
    ix2, ix3, iy2, iy3 = (basis.dim + k for k in range(4))
    chi0 = np.eye(n0)[0]
    chi1 = v0 @ chi0
    chi2 = np.eye(n1)[0]
    mat = np.zeros((basis.dim + 4, basis.dim + 4), dtype=complex)
    mat[:basis.dim, :basis.dim] = _blockdiag(cm.L1_sector)
    mat[ax, ax] -= sk * 1j * eps * s * v0
    mat[ax, ax] -= sk * 1j * (eps / s) * np.outer(chi1, chi0)
    mat[co, co] -= sk * 1j * eps * s * v1
    mat[si, si] -= sk * 1j * eps * s * v1
    mat[co, ix3] = sk * eps * chi2
    mat[ix3, co] = -sk * eps * chi2
    mat[ix3, iy2] = mat[iy2, ix3] = sk * 1j * eps**2 * s
    mat[si, ix2] = -sk * eps * chi2
    mat[ix2, si] = sk * eps * chi2
    mat[ix2, iy3] = mat[iy3, ix2] = -sk * 1j * eps**2 * s
    return mat


def _random_states(dim, count, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))


class TestAssembly:
    def test_vmb_layout(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        basis = collision_default.basis
        assert op.dim == basis.dim + 4
        assert op.n_field == 4
        assert op.metric_diag[0] == pytest.approx(1.0 + 1.3**-2)
        assert np.all(op.metric_diag[1:] == 1.0)

    def test_boltzmann_has_plain_metric(self, collision_default):
        op = mo.assemble_B(0.7, 0.3, collision_default)
        assert op.n_field == 0
        assert np.all(op.metric_diag == 1.0)

    def test_bad_wavenumbers_rejected(self, collision_default):
        with pytest.raises(ValueError):
            mo.assemble_A_tilde(0.0, 0.1, collision_default)
        with pytest.raises(ValueError):
            mo.assemble_A_tilde(-1.0, 0.1, collision_default)
        with pytest.raises(ValueError):
            mo.assemble_B(-0.5, 0.1, collision_default)

    def test_scaling_law(self, collision_default):
        a = mo.assemble_B(2.0, 0.3, collision_default)
        b = mo.assemble_B(0.6, 1.0, collision_default)
        assert np.abs(a.matrix - b.matrix).max() == 0.0

    @pytest.mark.parametrize("s, eps", [(0.0, 0.1), (1.3, 0.2), (4.0, 0.0125)])
    def test_dense_view_matches_full_layout(self, collision_default, s, eps):
        cm = collision_default
        cases = [(mo.assemble_B(s, eps, cm), "B", False)]
        if s > 0:
            cases += [(mo.assemble_A_tilde(s, eps, cm), "A", False),
                      (mo.assemble_A_tilde_star(s, eps, cm), "A", True)]
        for op, kind, flip in cases:
            ref = _dense_reference(kind, s, eps, cm, sign_flip=flip)
            assert np.abs(op.matrix - ref).max() == 0.0
            assert [b.matrix.shape[0] for b in op.blocks] == (
                [cm.basis.dim0, cm.basis.dim1 + (2 if kind == "A" else 0)])
            lam, lam_ref = mo.eigenvalues(op), np.linalg.eigvals(ref)
            assert lam.shape == lam_ref.shape
            dist = np.abs(lam[:, None] - lam_ref[None, :])
            assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) < 1e-8

    def test_zero_wavenumber_boltzmann_has_five_zero_modes(self, collision_default):
        op = mo.assemble_B(0.0, 0.1, collision_default)
        lam = np.linalg.eigvalsh(op.matrix.real)
        assert np.sum(np.abs(lam) < 1e-9) == 5
        assert lam.max() <= 1e-10

    def test_eps_zero_spectrum_is_collision_plus_fourfold_zero(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.0, collision_default)
        lam = np.linalg.eigvals(op.matrix)
        assert np.abs(lam.imag).max() < 1e-10
        expect = np.concatenate([
            np.linalg.eigvalsh(_blockdiag(collision_default.L1_sector)),
            np.zeros(4),
        ])
        assert np.abs(np.sort(lam.real) - np.sort(expect)).max() < 1e-8


class TestDissipativity:
    def test_weighted_form_reduces_to_collision_form(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        l1k = _blockdiag(collision_default.L1_sector)
        nk = l1k.shape[0]
        for u in _random_states(op.dim, 100, 814):
            lhs = np.real(np.vdot(u, op.metric_diag * (op.matrix @ u)))
            rhs = np.real(np.vdot(u[:nk], l1k @ u[:nk]))
            scale = max(1.0, float(np.vdot(u, u).real))
            assert abs(lhs - rhs) <= 1e-10 * scale
            assert lhs <= 1e-10 * scale

    def test_spectrum_strictly_stable_for_nonzero_eps(self, collision_default):
        for s, eps in [(1.3, 0.2), (5.0, 0.4), (0.5, 0.05)]:
            op = mo.assemble_A_tilde(s, eps, collision_default)
            lam, _, _ = mo.spectrum(op)
            assert lam.real.max() < 0.0

    def test_mid_regime_spectral_margin(self, collision_default):
        # for r0 <= eps*s <= r1 the whole spectrum sits left of a measured -alpha
        for s, eps in [(5.0, 0.4), (2.0, 0.5)]:
            op = mo.assemble_A_tilde(s, eps, collision_default)
            lam, _, _ = mo.spectrum(op)
            alpha = -lam.real.max()
            assert alpha > 1e-4


class TestAdjoint:
    def test_explicit_star_matches_metric_conjugation(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        star = mo.assemble_A_tilde_star(1.3, 0.2, collision_default)
        dense = mo.metric_adjoint(op)
        assert np.abs(star.matrix - dense).max() <= 1e-10

    def test_pairing_identity(self, collision_default):
        op = mo.assemble_A_tilde(0.9, 0.15, collision_default)
        star = mo.assemble_A_tilde_star(0.9, 0.15, collision_default)
        states = _random_states(op.dim, 40, 217)
        for u, w in zip(states[:20], states[20:]):
            lhs = op.weighted_inner(op.matrix @ u, w)
            rhs = op.weighted_inner(u, star.matrix @ w)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_star_spectrum_is_conjugate(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        star = mo.assemble_A_tilde_star(1.3, 0.2, collision_default)
        a = np.sort_complex(np.linalg.eigvals(op.matrix))
        b = np.sort_complex(np.conj(np.linalg.eigvals(star.matrix)))
        assert np.abs(a - b).max() < 1e-8


class TestPropagation:
    def test_identity_at_t_zero(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        u = _random_states(op.dim, 1, 3)[0]
        assert np.abs(mo.propagate(op, u, 0.0) - u).max() < 1e-12

    def test_matches_dense_exponential(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        t = 0.7
        direct = sl.expm((t / op.eps**2) * op.matrix)
        assert np.abs(mo.propagator_matrix(op, t) - direct).max() < 1e-9

    def test_composition(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.3, collision_default)
        u = _random_states(op.dim, 1, 11)[0]
        one = mo.propagate(op, mo.propagate(op, u, 0.4), 0.9)
        both = mo.propagate(op, u, 1.3)
        assert np.abs(one - both).max() <= 1e-9 * max(1.0, np.abs(both).max())

    def test_contraction_on_random_states(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        states = _random_states(op.dim, 100, 99)
        for t in (0.1, 1.0, 10.0):
            prop = mo.propagator_matrix(op, t)
            for u in states:
                before = op.weighted_norm(u)
                after = op.weighted_norm(prop @ u)
                assert after <= before * (1.0 + 1e-9)

    def test_weighted_norm_monotone_in_time(self, collision_default):
        op = mo.assemble_A_tilde(0.8, 0.25, collision_default)
        u = _random_states(op.dim, 1, 40)[0]
        norms = [op.weighted_norm(mo.propagate(op, u, t))
                 for t in (0.0, 0.05, 0.2, 0.8, 3.0)]
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-12 * norms[0])

    def test_input_validation(self, collision_default):
        op = mo.assemble_B(1.0, 0.2, collision_default)
        with pytest.raises(ValueError):
            mo.propagate(op, np.zeros(op.dim - 1), 1.0)
        with pytest.raises(ValueError):
            mo.propagate(op, np.zeros(op.dim), -1.0)

    def test_schur_path_on_defective_matrix(self, collision_default):
        mat = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
        block = mo.SectorBlock(mat, ((np.arange(2), np.ones(2)),))
        op = mo.ModeOperator(
            kind=mo.KIND_BOLTZMANN, s=1.0, eps=1.0, metric_diag=np.ones(2),
            collision=collision_default, blocks=(block,),
        )
        assert mo.eigen_condition(op) > 1e8
        assert op._decomp[0] == "schur"
        direct = sl.expm(0.6 * mat)
        assert np.abs(mo.propagator_matrix(op, 0.6) - direct).max() < 1e-12


class TestInputValidation:
    """Non-finite or out-of-range input raises ValueError at the boundary."""

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde,
                                          mo.assemble_A_tilde_star])
    @pytest.mark.parametrize("s, eps", [(np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan),
                                        (1.0, np.inf), (1.0, -1.0)])
    def test_assembly_rejects(self, collision_small, assemble, s, eps):
        with pytest.raises(ValueError):
            assemble(s, eps, collision_small)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_time_rejected(self, collision_small, t):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_small)
        with pytest.raises(ValueError):
            mo.propagate(op, np.ones(op.dim), t)
        with pytest.raises(ValueError):
            mo.propagator_matrix(op, t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_rejected(self, collision_small, bad):
        op = mo.assemble_B(1.0, 0.2, collision_small)
        u = np.ones(op.dim, dtype=complex)
        u[3] = bad
        with pytest.raises(ValueError):
            mo.propagate(op, u, 0.5)


class TestBlockFlow:
    """propagate runs on the one eig-path apply, behind the one guard."""

    def test_time_array_matches_single_times(self, collision_small):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_small)
        u = _random_states(op.dim, 1, 8)[0]
        times = np.array([0.0, 0.3, 1.1])
        rows = mo.propagate(op, u, times)
        assert rows.shape == (3, op.dim)
        for t, row in zip(times, rows):
            assert np.abs(row - mo.propagate(op, u, t)).max() <= 1e-14 * np.abs(u).max()

    def test_non_finite_flow_raises(self, collision_small, monkeypatch):
        op = mo.assemble_B(1.0, 0.2, collision_small)
        monkeypatch.setattr(mo, "_block_flow",
                            lambda layout, parts, states0, taus: np.full(
                                (len(states0), len(taus), states0.shape[1]), np.nan + 0j))
        with pytest.raises(mo.PropagationError, match="contraction violated"):
            mo.propagate(op, np.ones(op.dim), 0.5)


class TestSemigroupSplit:
    def test_low_regime_partition_and_count(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.04, collision_default)
        lam, _, _ = mo.spectrum(op)
        mu = collision_default.mu_estimate
        assert np.sum(lam.real > -mu / 2) == 5
        sp = mo.semigroup_split(op)
        assert sp.regime == "low"
        assert not sp.defective
        eye = np.eye(op.dim)
        assert np.abs(sp.S1_part + sp.S2_part + sp.S3_part - eye).max() <= 1e-10
        assert int(round(np.real(np.trace(sp.S1_part)))) == 5

    def test_low_regime_boltzmann_count(self, collision_default):
        op = mo.assemble_B(1.0, 0.05, collision_default)
        lam, _, _ = mo.spectrum(op)
        assert np.sum(lam.real > -collision_default.mu_estimate / 2) == 5
        sp = mo.semigroup_split(op)
        assert sp.regime == "low"
        assert int(round(np.real(np.trace(sp.S1_part)))) == 5

    def test_branch_projections_biorthonormal(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.04, collision_default)
        sp = mo.semigroup_split(op)
        gram = np.array([
            [op.weighted_inner(ri, lj) for (_, _, lj) in sp.eigen_projections]
            for (_, ri, _) in sp.eigen_projections
        ])
        assert np.abs(gram - np.eye(len(sp.eigen_projections))).max() <= 1e-10

    def test_remainder_rate_positive_and_matches_gap(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.04, collision_default)
        sp = mo.semigroup_split(op)
        assert sp.measured_gap_b > 0.0
        assert np.isfinite(sp.fit_C) and sp.fit_C > 0.0
        lam, _, _ = mo.spectrum(op)
        gap = -lam.real[5:].max()
        assert abs(sp.measured_gap_b - gap) <= 0.05 * gap

    def test_high_regime_four_oscillatory_branches(self, collision_default):
        op = mo.assemble_A_tilde(16.0, 1.0, collision_default)
        sp = mo.semigroup_split(op)
        assert sp.regime == "high"
        assert int(round(np.real(np.trace(sp.S2_part)))) == 4
        assert np.abs(sp.S1_part).max() == 0.0
        eye = np.eye(op.dim)
        assert np.abs(sp.S2_part + sp.S3_part - eye).max() <= 1e-10
        centers = np.array([1j * op.eps**2 * op.s, -1j * op.eps**2 * op.s])
        for lam_j, _, _ in sp.eigen_projections:
            assert np.min(np.abs(lam_j - centers)) <= 0.1 * op.eps**2

    def test_mid_regime_is_remainder_only(self, collision_default):
        op = mo.assemble_A_tilde(5.0, 0.4, collision_default)
        sp = mo.semigroup_split(op)
        assert sp.regime == "mid"
        assert np.abs(sp.S1_part).max() == 0.0
        assert np.abs(sp.S2_part).max() == 0.0
        assert np.abs(sp.S3_part - np.eye(op.dim)).max() == 0.0

    def test_block_opnorm_equals_dense_norm(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.04, collision_default)
        sp = mo.semigroup_split(op)
        gh = np.sqrt(op.metric_diag)
        # the axial block leads the remainder, the transverse block the fluid part
        for mat in (mo.propagator_matrix(op, 0.3 * op.eps**2) @ sp.S3_part,
                    mo.propagator_matrix(op, 1.0) @ sp.S1_part):
            dense = np.linalg.norm((mat / gh[None, :]) * gh[:, None], ord=2)
            assert abs(mo._weighted_opnorm(op, mat) - dense) <= 1e-12 * dense

    def test_schur_cluster_projector_on_defective_matrix(self):
        mat = np.array([
            [-1.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -3.0],
        ], dtype=complex)
        proj, k = mo._schur_projector(mat, lambda z: z.real > -2.0)
        assert k == 2
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert np.abs(proj @ mat - mat @ proj).max() < 1e-12
        assert round(float(np.real(np.trace(proj)))) == 2


class TestPerBlockSplit:
    """The eig path works on the sector blocks; dense matrices are views only."""

    @pytest.mark.parametrize("kind,s,eps,regime", [
        ("B", 1.0, 0.05, "low"),
        ("B", 5.0, 0.4, "mid"),
        ("A", 1.3, 0.04, "low"),
        ("A", 5.0, 0.4, "mid"),
        ("A", 16.0, 1.0, "high"),
    ])
    def test_remainder_norms_match_dense_exponential(self, collision_default,
                                                     kind, s, eps, regime):
        assemble = mo.assemble_B if kind == "B" else mo.assemble_A_tilde
        op = assemble(s, eps, collision_default)
        sp = mo.semigroup_split(op)
        assert sp.regime == regime and sp.branch_mask is not None
        gh = np.sqrt(op.metric_diag)
        # inside the fit window, where the remainder is still well above the
        # rounding floor of the dense exponential
        taus = np.array([0.3, 1.0, 3.0]) / sp.measured_gap_b
        got = mo._remainder_norms(op, sp.branch_mask, taus)
        for tau, norm in zip(taus, got):
            flow = sl.expm(tau * op.matrix) @ sp.S3_part
            dense = np.linalg.norm((flow / gh[None, :]) * gh[:, None], ord=2)
            assert abs(norm - dense) <= 1e-10 * dense

    def test_split_and_propagate_build_no_dense_propagator(self, collision_default,
                                                          monkeypatch):
        op = mo.assemble_A_tilde(1.3, 0.04, collision_default)
        u = _random_states(op.dim, 1, 5)[0]
        t = 0.8 * op.eps**2
        want = sl.expm((t / op.eps**2) * op.matrix) @ u

        def dense_propagator(*args, **kwargs):
            raise AssertionError("dense propagator built on the eig path")

        monkeypatch.setattr(mo, "propagator_matrix", dense_propagator)
        sp = mo.semigroup_split(op)
        assert not sp.defective
        assert sp.measured_gap_b > 0.0 and np.isfinite(sp.fit_C)
        got = mo.propagate(op, u, t)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_schur_fallback_still_fits_the_gap(self, collision_small, monkeypatch):
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        op = mo.assemble_A_tilde(1.3, 0.04, collision_small)
        sp = mo.semigroup_split(op)
        assert sp.defective and sp.branch_mask is None
        assert mo._decomposition(op).path == "schur"
        eye = np.eye(op.dim)
        assert np.abs(sp.S1_part + sp.S2_part + sp.S3_part - eye).max() <= 1e-10
        lam = np.sort(np.linalg.eigvals(op.matrix).real)[::-1]
        gap = -lam[5:].max()
        assert abs(sp.measured_gap_b - gap) <= 0.05 * gap

    @pytest.mark.parametrize("kind,s,eps", [("B", 1.0, 0.05), ("A", 1.3, 0.04),
                                            ("A", 16.0, 1.0), ("A", 5.0, 0.4)])
    def test_lazy_parts_sum_to_identity(self, collision_default, kind, s, eps):
        assemble = mo.assemble_B if kind == "B" else mo.assemble_A_tilde
        op = assemble(s, eps, collision_default)
        sp = mo.semigroup_split(op)
        s1, s2, s3 = sp.S1_part, sp.S2_part, sp.S3_part
        assert sp.S1_part is s1 and sp.S2_part is s2 and sp.S3_part is s3
        eye = np.eye(op.dim)
        assert np.array_equal(s3, eye - s1 - s2)
        assert np.abs(s1 + s2 + s3 - eye).max() <= 1e-10
        # the branch part is the dense spectral projector of the taken eigenvalues
        lam, vr = np.linalg.eig(op.matrix)
        sel = np.zeros(lam.size, bool)
        for lam_j, _, _ in sp.eigen_projections:
            sel |= np.abs(lam - lam_j) <= 1e-8 * max(1.0, abs(lam_j))
        assert sel.sum() == len(sp.eigen_projections)
        dense = vr[:, sel] @ np.linalg.inv(vr)[sel]
        assert np.abs(s1 + s2 - dense).max() <= 1e-8


class TestHighFrequencyClustering:
    def test_branches_tighten_toward_pure_oscillation(self, collision_default):
        nu0 = collision_default.nu0
        spread = []
        for s in (20.0, 40.0, 80.0):
            op = mo.assemble_A_tilde(s, 1.0, collision_default)
            lam, _, _ = mo.spectrum(op)
            top = lam[lam.real >= -nu0 / 2]
            assert top.size == 4
            centers = np.array([1j * s, -1j * s])
            spread.append(max(np.min(np.abs(z - centers)) for z in top))
        assert spread[-1] < spread[0]


class TestTruncationBehavior:
    def test_branch_count_stable_under_truncation(self, collision_small, collision_default):
        for cm in (collision_small, collision_default):
            op = mo.assemble_A_tilde(1.3, 0.04, cm)
            lam, _, _ = mo.spectrum(op)
            assert np.sum(lam.real > -cm.mu_estimate / 2) == 5

    def test_new_modes_accumulate_only_deep_in_left_half_plane(
            self, collision_small, collision_default):
        frac = []
        for cm in (collision_small, collision_default):
            op = mo.assemble_A_tilde(1.3, 0.04, cm)
            lam, _, _ = mo.spectrum(op)
            frac.append(np.mean(lam.real > -cm.nu0))
        assert frac[1] <= frac[0] + 0.01


class TestResolventProbe:
    def test_right_half_plane_is_resolvent_set(self, collision_small):
        op = mo.assemble_B(4.0, 1.0, collision_small)
        val = mo.resolvent_norm_probe(op, complex(1.0, 0.0))
        assert np.isfinite(val) and val > 0.0

    def test_spectral_lambda_reported(self, collision_small):
        op = mo.assemble_B(2.0, 1.0, collision_small)
        r, _, c, _, _, _ = mo._probe_grid(96, 80, 48, 24.0)
        lam = complex(-nu_eval(r[10]), -2.0 * r[10] * c[5])
        with pytest.raises(ValueError):
            mo.resolvent_norm_probe(op, lam)

    def test_decay_in_imaginary_part_at_small_streaming(self, collision_small):
        re = -0.5 * collision_small.nu0
        op = mo.assemble_B(2.0, 1.0, collision_small)
        ims = np.array([2.0, 4.0, 8.0, 16.0])
        vals = [mo.resolvent_norm_probe(op, complex(re, im)) for im in ims]
        slope = np.polyfit(np.log(ims), np.log(vals), 1)[0]
        assert -0.65 <= slope <= -0.35

    @pytest.mark.xfail(
        strict=True,
        reason="measured slope is about -0.34 over this sweep: the norm only "
        "enters its streaming-limited decay once eps*s exceeds the mean "
        "collision frequency, so the first two points sit on a plateau; "
        "the 16 -> 64 segment alone fits -0.46",
    )
    def test_decay_in_streaming_strength(self, collision_small):
        re = -0.5 * collision_small.nu0
        ws = np.array([1.0, 4.0, 16.0, 64.0])
        vals = [mo.resolvent_norm_probe(mo.assemble_B(w, 1.0, collision_small),
                                        complex(re, 0.0)) for w in ws]
        slope = np.polyfit(np.log1p(ws), np.log(vals), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_streaming_decay_reaches_asymptotic_rate(self, collision_small):
        re = -0.5 * collision_small.nu0
        vals = [mo.resolvent_norm_probe(mo.assemble_B(w, 1.0, collision_small),
                                        complex(re, 0.0)) for w in (16.0, 64.0)]
        assert vals[1] < vals[0]
        tail = (np.log(vals[1]) - np.log(vals[0])) / (np.log(65.0) - np.log(17.0))
        assert -0.65 <= tail <= -0.35

    def test_probe_deterministic(self, collision_small):
        op = mo.assemble_B(4.0, 1.0, collision_small)
        lam = complex(-0.5 * collision_small.nu0, 3.0)
        assert mo.resolvent_norm_probe(op, lam) == mo.resolvent_norm_probe(op, lam)
