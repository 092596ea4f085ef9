"""Per-mode generator tests.

Checks the assembled kinetic and kinetic-electromagnetic matrices against
structural identities (dissipativity in the weighted product, explicit metric
adjoint, scaling in eps*s), the semigroup contract (contraction, composition,
branch splitting with a fitted remainder rate), the parity frame in which
every block is real and the real-arithmetic remainder norms it allows, the
resolvent-composition probe scalings, and the boundary table of bad input
for every exported callable.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sl

from kslab.collision_ops import _pair_kernel_moments
from kslab import convergence_lab as cl
from kslab import mode_operators as mo
from kslab.velocity_basis import SECTOR_AXIAL, SECTOR_TRANSVERSE, v_multiplication_matrix

import oracles


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


def _eigenvalues(op):
    """The eigenvalue of every column (mo._copy_columns) of op's decomposition."""
    return mo._by_column(op, [lb[0] for lb, _, _ in mo._decomposition(op).blocks])


def _defective(split):
    """Whether a block of the split's operator fell back: it has a Schur projector."""
    return any(p is not None for p in split.schur_projectors)


class TestAssembly:
    def test_generators_share_a_read_only_layout(self, collision_small):
        b = mo.assemble_B(1.0, 0.1, collision_small)
        a = mo.assemble_A_tilde(2.0, 0.3, collision_small)
        assert a.blocks[0].copies is b.blocks[0].copies
        assert oracles.assemble_A_tilde_star(0.5, 0.1, collision_small).blocks[1].copies \
            is a.blocks[1].copies
        index, sign = a.blocks[1].copies[1]
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            sign[0] = 1.0

    def test_vmb_layout(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        basis = collision_default.basis
        assert op.dim == basis.dim + 4
        assert op.metric_diag[0] == pytest.approx(1.0 + 1.3**-2)
        assert np.all(op.metric_diag[1:] == 1.0)

    def test_boltzmann_has_plain_metric(self, collision_default):
        op = mo.assemble_B(0.7, 0.3, collision_default)
        assert op.dim == collision_default.basis.dim
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
                      (oracles.assemble_A_tilde_star(s, eps, cm), "A", True)]
        for op, kind, flip in cases:
            ref = _dense_reference(kind, s, eps, cm, sign_flip=flip)
            assert np.abs(op.matrix - ref).max() == 0.0
            assert [b.matrix.shape[0] for b in op.blocks] == (
                [cm.basis.dim0, cm.basis.dim1 + (2 if kind == "A" else 0)])
            lam, lam_ref = mo.spectrum(op)[0], np.linalg.eigvals(ref)
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
        star = oracles.assemble_A_tilde_star(1.3, 0.2, collision_default)
        dense = oracles.metric_adjoint(op)
        assert np.abs(star.matrix - dense).max() <= 1e-10

    def test_pairing_identity(self, collision_default):
        op = mo.assemble_A_tilde(0.9, 0.15, collision_default)
        star = oracles.assemble_A_tilde_star(0.9, 0.15, collision_default)
        states = _random_states(op.dim, 40, 217)
        for u, w in zip(states[:20], states[20:]):
            lhs = oracles.weighted_inner(op, op.matrix @ u, w)
            rhs = oracles.weighted_inner(op, u, star.matrix @ w)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_star_spectrum_is_conjugate(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.2, collision_default)
        star = oracles.assemble_A_tilde_star(1.3, 0.2, collision_default)
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
        assert np.abs(oracles.propagator_matrix(op, t) - direct).max() < 1e-9

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
            prop = oracles.propagator_matrix(op, t)
            for u in states:
                before = oracles.weighted_norm(op, u)
                after = oracles.weighted_norm(op, prop @ u)
                assert after <= before * (1.0 + 1e-9)

    def test_weighted_norm_monotone_in_time(self, collision_default):
        op = mo.assemble_A_tilde(0.8, 0.25, collision_default)
        u = _random_states(op.dim, 1, 40)[0]
        norms = [oracles.weighted_norm(op, mo.propagate(op, u, t))
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
        block = mo.SectorBlock(mat, ((np.arange(2), np.ones(2)),), np.ones(2))
        op = mo.ModeOperator(
            kind=mo.KIND_BOLTZMANN, s=1.0, eps=1.0, metric_diag=np.ones(2),
            collision=collision_default, blocks=(block,),
        )
        assert mo._decomposition(op).cond[0] > 1e8
        assert op._decomp.schur.any()
        direct = sl.expm(0.6 * mat)
        assert np.abs(oracles.propagator_matrix(op, 0.6) - direct).max() < 1e-12


class TestInputValidation:
    """Non-finite or out-of-range input raises ValueError at the boundary."""

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_rejected(self, collision_small, bad):
        op = mo.assemble_B(1.0, 0.2, collision_small)
        u = np.ones(op.dim, dtype=complex)
        u[3] = bad
        with pytest.raises(ValueError):
            mo.propagate(op, u, 0.5)

    def test_eps_zero_semigroup_rejected(self, collision_small):
        op = mo.assemble_B(1.0, 0.0, collision_small)
        with pytest.raises(ValueError, match="needs eps > 0"):
            mo.propagate(op, np.ones(op.dim), 0.5)
        # the spectrum and the split stay defined at eps = 0
        assert _eigenvalues(op).size == op.dim
        assert mo.spectrum(op)[0].size == op.dim
        assert mo.semigroup_split(op).regime == "low"


class TestBlockFlow:
    """propagate runs on the one block apply, behind the one guard."""

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
                            lambda ops, dec, states0, taus: np.full(
                                (len(taus), len(states0), states0.shape[1]), np.nan + 0j))
        with pytest.raises(mo.PropagationError, match="contraction violated"):
            mo.propagate(op, np.ones(op.dim), 0.5)

    @pytest.mark.parametrize("cond_limit,fallbacks", [(mo._EIG_COND_LIMIT, 0), (None, 1),
                                                      (1.0, 10)], ids=["eig", "one", "schur"])
    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    def test_grid_flows_member_by_member(self, collision_small, monkeypatch, assemble,
                                         cond_limit, fallbacks):
        # _block_flow applies the decomposition it is handed, with no eig of
        # its own: each member of a grid's _decompose_stacked value is that
        # operator's own decomposition, and flows as the operator alone on it,
        # bit for bit.  A fallback member's stacked inverse is zero rows, and
        # no operator of the grid holds a decomposition afterwards.  A limit
        # of None sends exactly one (member, block) to the fallback, and 1.0
        # all ten
        cm, eps, s_nodes = collision_small, 0.05, (0.05, 0.4, 0.7, 1.3, 1.9)
        if cond_limit is None:
            cond_limit = self._one_member_limit([assemble(s, eps, cm) for s in s_nodes])
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", cond_limit)
        ops = [assemble(s, eps, cm) for s in s_nodes]
        alone = [assemble(s, eps, cm) for s in s_nodes]
        u0 = _random_states(ops[0].dim, len(s_nodes), 41)
        taus = np.array([0.0, 0.3, 4.0, 60.0])
        keep = np.random.default_rng(42).random((len(s_nodes), ops[0].dim)) < 0.7
        dec = mo._decompose_stacked(ops)
        assert dec.schur.shape == (len(ops), len(ops[0].blocks)) and dec.cond.shape == (len(ops),)
        assert dec.schur.sum() == fallbacks
        for b, (_, _, inverse) in enumerate(dec.blocks):
            assert not inverse[dec.schur[:, b]].any()
        for i, op in enumerate(alone):
            own = mo._decomposition(op)
            assert np.array_equal(own.schur[0], dec.schur[i]) and own.cond[0] == dec.cond[i]
            assert all(np.array_equal(x[0], y[i]) for ra, rb in zip(own.blocks, dec.blocks)
                       for x, y in zip(ra, rb))
        for mask in (None, keep):
            eig, calls = np.linalg.eig, []
            monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(len(a)) or eig(a))
            got = mo._block_flow(ops, dec, u0, taus, mask)
            monkeypatch.setattr(np.linalg, "eig", eig)
            assert calls == []
            for i, op in enumerate(alone):
                want = mo._block_flow([op], mo._decomposition(op), u0[i:i + 1], taus,
                                      None if mask is None else mask[i:i + 1])
                assert np.array_equal(got[:, i], want[:, 0])
        assert all(op._decomp is None for op in ops)

    @pytest.mark.parametrize("cond_limit", [mo._EIG_COND_LIMIT, 1.0], ids=["eig", "schur"])
    def test_empty_time_array_gives_no_rows(self, collision_small, monkeypatch, cond_limit):
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", cond_limit)
        op = mo.assemble_A_tilde(1.3, 0.2, collision_small)
        rows = mo.propagate(op, _random_states(op.dim, 1, 8)[0], np.array([]))
        assert rows.shape == (0, op.dim)
        assert mo._decomposition(op).schur.any() == (cond_limit == 1.0)

    @staticmethod
    def _one_member_limit(ops):
        """A conditioning limit between the two largest gate products
        sqrt(k) ||V_b^{-1}||_F of the ops, so exactly one (member, block) falls back."""
        products = []
        for b in range(len(ops[0].blocks)):
            lam, vr = np.linalg.eig(np.stack([op.blocks[b].matrix for op in ops]))
            products.append(math.sqrt(lam.shape[1]) * mo._stacked_inverse(vr)[1])
        second, first = np.sort(np.concatenate(products))[-2:]
        assert second < first
        return math.sqrt(first * second)


class TestSemigroupSplit:
    def test_low_regime_partition_and_count(self, collision_default):
        op = mo.assemble_A_tilde(1.3, 0.04, collision_default)
        lam, _, _ = mo.spectrum(op)
        mu = collision_default.mu_estimate
        assert np.sum(lam.real > -mu / 2) == 5
        sp = mo.semigroup_split(op)
        assert sp.regime == "low"
        assert not _defective(sp)
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
        dec = mo._decomposition(op)
        assert not dec.schur.any()
        right, left = mo._dense_vectors(op, np.flatnonzero(sp.branch_mask), inverse=True)
        # the adjoint vectors of the weighted product pair with the branch vectors
        adjoint = left.conj() / op.metric_diag
        gram = np.array([[oracles.weighted_inner(op, ri, lj) for lj in adjoint] for ri in right.T])
        assert np.abs(gram - np.eye(5)).max() <= 1e-10
        assert np.abs(right @ left - sp.S1_part).max() <= 1e-10

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
        for lam_j in _eigenvalues(op)[sp.branch_mask]:
            assert np.min(np.abs(lam_j - centers)) <= 0.1 * op.eps**2

    def test_mid_regime_is_remainder_only(self, collision_default):
        op = mo.assemble_A_tilde(5.0, 0.4, collision_default)
        sp = mo.semigroup_split(op)
        assert sp.regime == "mid"
        assert np.abs(sp.S1_part).max() == 0.0
        assert np.abs(sp.S2_part).max() == 0.0
        assert np.abs(sp.S3_part - np.eye(op.dim)).max() == 0.0

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

    def test_schur_projector_taking_every_eigenvalue_is_identity(self):
        mat = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -3.0]], dtype=complex)
        proj, k = mo._schur_projector(mat, lambda z: True)
        assert k == 3
        assert np.array_equal(proj, np.eye(3))

    def test_no_remainder_gives_the_nan_sentinel(self):
        calls = []
        b, c = mo._fit_remainder_decay(np.array([]), calls.append)
        assert math.isnan(b) and math.isnan(c) and not calls

    @pytest.mark.parametrize("kept", [3, 4, 10])
    def test_remainder_fit_needs_four_norms(self, kept):
        # 3 e^{-2 tau} on the window [1/2, 9] of the gap 2, with the norms past
        # the first `kept` below 1e-13: fewer than four is nothing to fit
        def norms(taus):
            return np.where(np.arange(taus.size) < kept, 3.0 * np.exp(-2.0 * taus), 1e-14)

        b, c = mo._fit_remainder_decay(np.array([-2.0, -5.0 + 1.0j]), norms)
        if kept < 4:
            assert math.isnan(b) and math.isnan(c)
        else:
            assert b == pytest.approx(2.0, rel=1e-13)
            assert c == pytest.approx(3.0, rel=1e-13)


def _conditioned_matrices(rng, k, count, spread):
    """Random k-dim matrices whose eigenvector matrices have condition ~10**spread."""
    mats = []
    for _ in range(count):
        q1, q2 = (np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
                  for _ in range(2))
        vecs = q1 @ np.diag(np.logspace(0.0, -spread, k)) @ q2
        lam = -rng.uniform(0.1, 2.0, k) + 1j * rng.standard_normal(k)
        mats.append(vecs @ np.diag(lam) @ np.linalg.inv(vecs))
    return mats


def _stacked_ops(cm, rng, count, spread):
    """Operators with a 4-dim block and a 3-dim block in two signed copies."""
    sign = np.array([1.0, -1.0, 1.0])
    return [mo.ModeOperator(mo.KIND_BOLTZMANN, 1.0, 0.1, np.ones(10), cm, (
                mo.SectorBlock(a, ((np.arange(4), np.ones(4)),), np.ones(4)),
                mo.SectorBlock(b, ((np.arange(4, 7), np.ones(3)), (np.arange(7, 10), sign)),
                               np.ones(3))))
            for a, b in zip(_conditioned_matrices(rng, 4, count, spread),
                            _conditioned_matrices(rng, 3, count, spread))]


class TestConditioningGate:
    """The eig/Schur gate and the decomposition condition come from the stacked inverse."""

    @pytest.mark.parametrize("spread", [0.0, 4.0, 11.0])
    def test_condition_bounds_two_norm_condition(self, collision_small, spread):
        ops = _stacked_ops(collision_small, np.random.default_rng(31), 12, spread)
        dec = mo._decompose_stacked(ops)
        for i in range(len(ops)):
            vecs = sl.block_diag(*(vr[i] for _, vr, _ in dec.blocks))
            assert dec.cond[i] >= np.linalg.cond(vecs, 2)
        # past the limit the members fall back
        assert all(dec.schur.any(axis=1) == (spread > 8))

    def test_singular_member_alone_takes_schur(self, collision_small, monkeypatch):
        reference = _stacked_ops(collision_small, np.random.default_rng(32), 4, 1.0)
        ops = [mo.ModeOperator(op.kind, op.s, op.eps, op.metric_diag, op.collision, op.blocks)
               for op in reference]
        eig = np.linalg.eig

        def singular_second(a):
            lam, vr = eig(a)
            if a.shape[1] == 4:
                vr[1, :, 0] = 0.0
            return lam, vr

        monkeypatch.setattr(np.linalg, "eig", singular_second)
        dec = mo._decompose_stacked(ops)
        monkeypatch.undo()
        ref = mo._decompose_stacked(reference)
        assert dec.schur.tolist() == [[False, False], [True, False],
                                      [False, False], [False, False]]
        assert dec.cond[1] == np.inf
        for i in (0, 2, 3):
            for got, want in zip(dec.blocks, ref.blocks):
                for x, y in zip(got, want):
                    assert np.array_equal(x[i], y[i])
            assert dec.cond[i] == ref.cond[i]
        # the fallback member keeps the stack's eig pair and zero inverse rows,
        # and only its schur flag marks it
        lam, vr, inverse = (x[1] for x in dec.blocks[0])
        assert dec.schur[1, 0] and inverse.shape == vr.shape and not inverse.any()
        want_lam, want_vr = singular_second(np.stack([op.blocks[0].matrix for op in ops]))
        assert np.array_equal(lam, want_lam[1]) and np.array_equal(vr, want_vr[1])
        # and flows by expm of its own block, not of the stack's first member
        block = ops[1].blocks[0].matrix
        taus = np.array([0.0, 0.3, 1.1])
        u0 = np.random.default_rng(33).standard_normal((len(ops), ops[1].dim)).astype(complex)
        states = mo._block_flow(ops, dec, u0, taus)
        for tau, flow, got in zip(taus, mo._fallback_flow(block, taus), states[:, 1]):
            want = sl.expm(tau * block)
            assert np.array_equal(flow, want)
            assert np.abs(got[:4] - want @ u0[1, :4]).max() <= 1e-12 * np.abs(u0[1]).max()

    @pytest.mark.parametrize("kind", ["B", "A"])
    def test_fallback_spectrum_runs_no_eig(self, collision_small, monkeypatch, kind):
        # every block falls back, and spectrum still reads the eig pairs the
        # decomposition kept: no eig of its own, and the eig path's bits
        assemble = mo.assemble_B if kind == "B" else mo.assemble_A_tilde
        want = mo.spectrum(assemble(1.3, 0.05, collision_small))
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        op = assemble(1.3, 0.05, collision_small)
        assert mo._decomposition(op).schur.tolist() == [[True, True]]

        def no_eig(a):
            raise AssertionError("spectrum ran an eig")

        monkeypatch.setattr(np.linalg, "eig", no_eig)
        for got, ref in zip(mo.spectrum(op), want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("kind", ["B", "A"])
    @pytest.mark.parametrize("s,eps", [(0.2, 0.0125), (5.0, 0.4), (16.0, 1.0)],
                             ids=["low", "mid", "high"])
    def test_fallback_spectrum_keeps_the_eig_path_bits(self, collision_default, monkeypatch,
                                                      kind, s, eps):
        # the larger basis, across the three regimes: the fallback record's
        # pair is the one the eig path keeps, so (lam, V, residuals) agree bit for bit
        assemble = mo.assemble_B if kind == "B" else mo.assemble_A_tilde
        op = assemble(s, eps, collision_default)
        want = mo.spectrum(op)
        assert not mo._decomposition(op).schur.any()
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        op = assemble(s, eps, collision_default)
        assert mo._decomposition(op).schur.all()
        got = mo.spectrum(op)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("kind", ["B", "A"])
    @pytest.mark.parametrize("s,eps", [(1.3, 0.05), (5.0, 0.4), (16.0, 1.0)],
                             ids=["low", "mid", "high"])
    def test_fallback_propagate_matches_the_eig_path(self, collision_small, monkeypatch,
                                                     kind, s, eps):
        # expm of each block and the eigen-expansion give the same states
        assemble = mo.assemble_B if kind == "B" else mo.assemble_A_tilde
        op = assemble(s, eps, collision_small)
        u = _random_states(op.dim, 1, 34)[0]
        times = np.array([0.0, 0.1, 1.0, 4.0]) * eps**2
        want = mo.propagate(op, u, times)
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        op = assemble(s, eps, collision_small)
        got = mo.propagate(op, u, times)
        assert mo._decomposition(op).schur.any()
        assert np.array_equal(got[0], u)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(u).max()

    def test_import_leaves_scipy_linalg_to_the_fallback(self):
        # import kslab leaves scipy.linalg unloaded.  Building a basis loads it
        # (scipy.special's Gauss-Laguerre roots do), so from there on the
        # script watches the imports that run: the eig path of propagate and
        # semigroup_split runs none, and the first block that falls back does
        script = (
            "import builtins, sys\n"
            "import kslab\n"
            "print('scipy.linalg' in sys.modules)\n"
            "import numpy as np\n"
            "from kslab import collision_ops, mode_operators as mo, velocity_basis\n"
            "basis = velocity_basis.build_basis(velocity_basis.BasisSpec(6, 3))\n"
            "cm = collision_ops.assemble_collision(basis, build_gamma=False)\n"
            "loads, real_import = [], builtins.__import__\n"
            "def traced(name, globals=None, locals=None, fromlist=(), level=0):\n"
            "    if name.startswith('scipy.linalg') or (\n"
            "            name == 'scipy' and 'linalg' in (fromlist or ())):\n"
            "        loads.append(name)\n"
            "    return real_import(name, globals, locals, fromlist, level)\n"
            "builtins.__import__ = traced\n"
            "for limit in (mo._EIG_COND_LIMIT, 1.0):\n"
            "    mo._EIG_COND_LIMIT = limit\n"
            "    op = mo.assemble_A_tilde(1.3, 0.05, cm)\n"
            "    mo.propagate(op, np.ones(op.dim), np.array([0.0, 0.01]))\n"
            "    mo.semigroup_split(op)\n"
            "    print(mo._decomposition(op).schur.any(), bool(loads))\n"
        )
        src = str(Path(mo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == ["False", "False", "False", "True", "True"]


class TestPerBlockSplit:
    """Both paths work on the sector blocks; dense matrices are views only."""

    @pytest.mark.parametrize("cond_limit", [mo._EIG_COND_LIMIT, 1.0], ids=["eig", "schur"])
    @pytest.mark.parametrize("kind,s,eps,regime", [
        ("B", 1.0, 0.05, "low"),
        ("B", 5.0, 0.4, "mid"),
        ("A", 1.3, 0.04, "low"),
        ("A", 5.0, 0.4, "mid"),
        ("A", 16.0, 1.0, "high"),
    ])
    def test_remainder_norms_match_dense_exponential(self, collision_default, monkeypatch,
                                                     kind, s, eps, regime, cond_limit):
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", cond_limit)
        assemble = mo.assemble_B if kind == "B" else mo.assemble_A_tilde
        op = assemble(s, eps, collision_default)
        sp = mo.semigroup_split(op)
        assert sp.regime == regime and sp.branch_mask is not None
        assert _defective(sp) == (cond_limit == 1.0)
        gh = np.sqrt(op.metric_diag)
        # inside the fit window, where the remainder is still well above the
        # rounding floor of the dense exponential
        taus = np.array([0.3, 1.0, 3.0]) / sp.measured_gap_b
        got = mo._remainder_norms(op, sp.branch_mask, sp.schur_projectors, taus)
        for tau, norm in zip(taus, got):
            flow = sl.expm(tau * op.matrix) @ sp.S3_part
            dense = np.linalg.norm((flow / gh[None, :]) * gh[:, None], ord=2)
            assert abs(norm - dense) <= 1e-10 * dense

    @pytest.mark.parametrize("cond_limit", [mo._EIG_COND_LIMIT, 1.0], ids=["eig", "schur"])
    @pytest.mark.parametrize("kind,s,eps", [("B", 1.0, 0.05), ("A", 1.3, 0.04),
                                            ("A", 16.0, 1.0)], ids=["B-low", "A-low", "A-high"])
    def test_remainder_flow_matches_dense_exponential(self, collision_default, monkeypatch,
                                                      kind, s, eps, cond_limit):
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", cond_limit)
        assemble = mo.assemble_B if kind == "B" else mo.assemble_A_tilde
        op = assemble(s, eps, collision_default)
        sp = mo.semigroup_split(op)
        assert _defective(sp) == (cond_limit == 1.0)
        u0 = _random_states(op.dim, 1, 12)[0]
        taus = np.array([0.0, 0.3, 1.0, 3.0]) / sp.measured_gap_b
        got = mo._remainder_flow(sp, u0, taus)
        for tau, row in zip(taus, got):
            want = sl.expm(tau * op.matrix) @ sp.S3_part @ u0
            assert np.abs(row - want).max() <= 1e-11 * np.abs(want).max()

    def test_split_and_propagate_build_no_dense_propagator(self, collision_default,
                                                          collision_small, monkeypatch):
        op = mo.assemble_A_tilde(1.3, 0.04, collision_default)
        u = _random_states(op.dim, 1, 5)[0]
        t = 0.8 * op.eps**2
        want = sl.expm((t / op.eps**2) * op.matrix) @ u
        cm = collision_small
        states0 = _random_states(cm.basis.dim, 3, 6)

        def dense_view(*args, **kwargs):
            raise AssertionError("dense view built inside the library")

        monkeypatch.setattr(mo.ModeOperator, "matrix", property(dense_view))
        for name in ("S1_part", "S2_part", "S3_part"):
            monkeypatch.setattr(mo.SemigroupSplit, name, property(dense_view))
        for cond_limit in (mo._EIG_COND_LIMIT, 1.0):
            monkeypatch.setattr(mo, "_EIG_COND_LIMIT", cond_limit)
            op = mo.assemble_A_tilde(1.3, 0.04, collision_default)
            sp = mo.semigroup_split(op)
            assert _defective(sp) == (cond_limit == 1.0)
            assert sp.measured_gap_b > 0.0 and np.isfinite(sp.fit_C)
            got = mo.propagate(op, u, t)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            assert mo.spectrum(op)[0].size == _eigenvalues(op).size == op.dim
            keep, tables = cl._evolve_grid(mo.assemble_B, np.array([0.05, 0.7, 1.9]), 0.2, cm,
                                           states0, np.array([0.0, 0.1, 2.0]), [],
                                           lambda chunk, states: ())
            assert tables == ()
            assert keep.all()
            gap = cl.transient_rate_check(cl.ExperimentConfig(data_kind="generic"), cm)
            assert gap["match"]

    def test_schur_fallback_still_fits_the_gap(self, collision_small, monkeypatch):
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", 1.0)
        op = mo.assemble_A_tilde(1.3, 0.04, collision_small)
        sp = mo.semigroup_split(op)
        assert _defective(sp)
        assert mo._decomposition(op).schur.any()
        eye = np.eye(op.dim)
        assert np.abs(sp.S1_part + sp.S2_part + sp.S3_part - eye).max() <= 1e-10
        lam = np.sort(np.linalg.eigvals(op.matrix).real)[::-1]
        gap = -lam[5:].max()
        assert abs(sp.measured_gap_b - gap) <= 0.05 * gap

    def test_mixed_eig_and_schur_blocks(self, collision_small, monkeypatch):
        # a defective block (Jordan pair at -1) and a well-conditioned block
        # with two signed copies, under a metric that is not the identity
        defective = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.3], [0.0, 0.0, -4.0]],
                             dtype=complex)
        regular = np.array([[-0.1, 0.05, 0.0], [0.0, -2.0, 0.5j], [0.05, 0.0, -3.0]])
        blocks = (mo.SectorBlock(defective, ((np.arange(3), np.ones(3)),), np.ones(3)),
                  mo.SectorBlock(regular, ((np.arange(3, 6), np.ones(3)),
                                           (np.arange(6, 9), np.array([1.0, -1.0, 1.0]))),
                                 np.ones(3)))
        metric = np.ones(9)
        metric[0] = 2.0
        op = mo.ModeOperator(kind=mo.KIND_BOLTZMANN, s=1.0, eps=0.05, metric_diag=metric,
                             collision=collision_small, blocks=blocks)
        dec = mo._decomposition(op)
        assert dec.schur.any() and dec.schur.tolist() == [[True, False]]
        mat = op.matrix
        times = np.array([0.0, 1e-3, 0.01])
        u = _random_states(op.dim, 1, 12)[0]
        rows = mo.propagate(op, u, times)
        for t, row in zip(times, rows):
            direct = sl.expm((t / op.eps**2) * mat)
            assert np.abs(oracles.propagator_matrix(op, t) - direct).max() <= 1e-12
            assert np.abs(row - direct @ u).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(mo.spectrum(op)[0] - np.sort_complex(sl.eigvals(mat))[::-1]).max() <= 1e-12
        sp = mo.semigroup_split(op)
        assert sp.regime == "low" and sp.branch_mask.sum() == 5
        assert np.abs(sp.S1_part + sp.S2_part + sp.S3_part - np.eye(op.dim)).max() <= 1e-12
        # a projector cannot split the Jordan pair, so the mask takes both
        monkeypatch.setattr(mo, "_N_FLUID", 3)
        sp3 = mo.semigroup_split(op)
        assert sp3.branch_mask.sum() == round(np.trace(sp3.S1_part).real) == 4
        gh = np.sqrt(metric)
        taus = np.array([0.3, 1.0, 3.0]) / sp.measured_gap_b
        got = mo._remainder_norms(op, sp.branch_mask, sp.schur_projectors, taus)
        for tau, norm in zip(taus, got):
            flow = sl.expm(tau * mat) @ sp.S3_part
            dense = np.linalg.norm((flow / gh[None, :]) * gh[:, None], ord=2)
            assert abs(norm - dense) <= 1e-12 * dense

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
        for lam_j in _eigenvalues(op)[sp.branch_mask]:
            sel |= np.abs(lam - lam_j) <= 1e-8 * max(1.0, abs(lam_j))
        assert sel.sum() == sp.branch_mask.sum()
        dense = vr[:, sel] @ np.linalg.inv(vr)[sel]
        assert np.abs(s1 + s2 - dense).max() <= 1e-8


class TestHighFrequencyClustering:
    def test_branches_tighten_toward_pure_oscillation(self, collision_default):
        nu0 = oracles.nu_bounds()[0]
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
            frac.append(np.mean(lam.real > -oracles.nu_bounds()[0]))
        assert frac[1] <= frac[0] + 0.01


class TestResolventProbe:
    """The gain-times-resolvent norm probe of tests/oracles.py on the operators
    the assemblers build."""

    def test_right_half_plane_is_resolvent_set(self, collision_small):
        op = mo.assemble_B(4.0, 1.0, collision_small)
        val = oracles.resolvent_norm_probe(op, complex(1.0, 0.0))
        assert np.isfinite(val) and val > 0.0

    def test_probe_tables_match_all_pairs_build(self):
        # the tables mirror one triangle of node pairs; the kernel moments are
        # symmetric in the pair bit for bit, so they equal an all-pairs build
        r, _, _, tables = oracles._probe_grid()
        n = r.size
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        ((k1p, _),) = _pair_kernel_moments(r[ii.ravel()], r[jj.ravel()], oracles._PROBE_LMAX, (16,))
        _, wg = np.polynomial.legendre.leggauss(n)
        sw = np.sqrt(0.5 * oracles._PROBE_R_MAX * wg * r**2)
        assert len(tables) == oracles._PROBE_LMAX + 1
        for l in range(oracles._PROBE_LMAX + 1):
            want = 0.5 * k1p[l].reshape(n, n) * np.outer(sw, sw)
            assert np.array_equal(tables[l], want), l

    def test_spectral_lambda_reported(self, collision_small):
        op = mo.assemble_B(2.0, 1.0, collision_small)
        r, c, _, _ = oracles._probe_grid()
        lam = complex(-oracles.nu_eval(r[10]), -2.0 * r[10] * c[5])
        with pytest.raises(ValueError):
            oracles.resolvent_norm_probe(op, lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan), complex(-1.0, math.inf)])
    def test_non_finite_lambda_rejected(self, collision_small, lam):
        op = mo.assemble_B(2.0, 1.0, collision_small)
        with pytest.raises(ValueError, match="finite"):
            oracles.resolvent_norm_probe(op, lam)

    def test_decay_in_imaginary_part_at_small_streaming(self, collision_small):
        re = -0.5 * oracles.nu_bounds()[0]
        op = mo.assemble_B(2.0, 1.0, collision_small)
        ims = np.array([2.0, 4.0, 8.0, 16.0])
        vals = [oracles.resolvent_norm_probe(op, complex(re, im)) for im in ims]
        slope = np.polyfit(np.log(ims), np.log(vals), 1)[0]
        assert -0.65 <= slope <= -0.35

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="measured slope is about -0.34 over this sweep: the norm only "
        "enters its streaming-limited decay once eps*s exceeds the mean "
        "collision frequency, so the first two points sit on a plateau; "
        "the 16 -> 64 segment alone fits -0.46",
    )
    def test_decay_in_streaming_strength(self, collision_small):
        re = -0.5 * oracles.nu_bounds()[0]
        ws = np.array([1.0, 4.0, 16.0, 64.0])
        vals = [oracles.resolvent_norm_probe(mo.assemble_B(w, 1.0, collision_small),
                                        complex(re, 0.0)) for w in ws]
        slope = np.polyfit(np.log1p(ws), np.log(vals), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_streaming_decay_reaches_asymptotic_rate(self, collision_small):
        re = -0.5 * oracles.nu_bounds()[0]
        vals = [oracles.resolvent_norm_probe(mo.assemble_B(w, 1.0, collision_small),
                                        complex(re, 0.0)) for w in (16.0, 64.0)]
        assert vals[1] < vals[0]
        tail = (np.log(vals[1]) - np.log(vals[0])) / (np.log(65.0) - np.log(17.0))
        assert -0.65 <= tail <= -0.35

    def test_probe_deterministic(self, collision_small):
        op = mo.assemble_B(4.0, 1.0, collision_small)
        lam = complex(-0.5 * oracles.nu_bounds()[0], 3.0)
        assert oracles.resolvent_norm_probe(op, lam) == oracles.resolvent_norm_probe(op, lam)

    def test_unconverged_iteration_refused(self, collision_small, monkeypatch):
        # two steps cannot meet the 1e-10 test, which takes 7 to 13 here
        monkeypatch.setattr(oracles, "_PROBE_ITERS", 2)
        op = mo.assemble_B(4.0, 1.0, collision_small)
        with pytest.raises(ValueError, match="did not converge in 2 steps"):
            oracles.resolvent_norm_probe(op, complex(1.0, 0.0))

    def test_zero_gain_has_norm_zero(self, collision_small, monkeypatch):
        r, c, pc, tables = oracles._probe_grid()
        monkeypatch.setattr(oracles, "_probe_grid", lambda: (r, c, pc, np.zeros_like(tables)))
        op = mo.assemble_B(4.0, 1.0, collision_small)
        assert oracles.resolvent_norm_probe(op, complex(1.0, 0.0)) == 0.0


def _complex_remainder_norms(op, mask, projectors, taus):
    """The remainder norms by complex SVDs on every eig copy: the formula the
    real-frame path replaces, kept here as its oracle."""
    dec = mo._decomposition(op)
    gh = np.sqrt(op.metric_diag)
    norms = np.zeros(len(taus))
    for b, idx, _, cols in mo._copy_columns(op):
        (lb,), (x,), (y,) = dec.blocks[b]
        g = gh[idx]
        if dec.schur[0, b]:
            flows = np.array([sl.expm(tau * op.blocks[b].matrix) for tau in taus])
            flows = g[:, None] * flows @ (np.eye(lb.size) - projectors[b]) / g[None, :]
        else:
            growth = np.exp(np.multiply.outer(taus, lb)) * ~mask[cols]
            flows = ((g[:, None] * x)[None] * growth[:, None, :]) @ (y / g[None, :])
        norms = np.maximum(norms, np.linalg.norm(flows, ord=2, axis=(1, 2)))
    return norms


def _fit_window(lam, mask):
    gap = -lam[~mask].real.max()
    return np.linspace(1.0, 18.0, 10) / gap


@pytest.fixture
def real_path_sizes(monkeypatch):
    """The block sizes of the copies whose norms took the real-frame path."""
    sizes = []
    real_norms = mo._real_frame_norms

    def spy(left, right, lam, keep, taus):
        sizes.append(lam.size)
        return real_norms(left, right, lam, keep, taus)

    monkeypatch.setattr(mo, "_real_frame_norms", spy)
    return sizes


# (kind, s, eps) in the low, mid and high split regimes
_REGIME_CASES = [("B", 1.0, 0.05), ("B", 0.3, 0.02), ("B", 5.0, 0.4), ("B", 16.0, 1.0),
                 ("A", 1.3, 0.04), ("A", 5.0, 0.4), ("A", 4.2, 0.05), ("A", 16.0, 1.0)]


class TestParityFrame:
    """Every generator block is D T D^{-1} with T real and D its parity phases."""

    @pytest.mark.parametrize("which", ["collision_small", "collision_default"])
    @pytest.mark.parametrize("kind,s,eps", _REGIME_CASES)
    def test_blocks_are_real_in_their_frame(self, request, which, kind, s, eps):
        cm = request.getfixturevalue(which)
        op = (mo.assemble_B if kind == "B" else mo.assemble_A_tilde)(s, eps, cm)
        for block in op.blocks:
            t = block.matrix * np.outer(block.phase.conj(), block.phase)
            assert np.abs(t.imag).max() <= 1e-12 * np.abs(t).max()
            frame = mo._real_frame(block)
            assert frame.dtype == float and np.array_equal(frame, t.real)
            # P G T is symmetric, G the metric and P = (-1)^l on the kinetic
            # rows (D^2 there), +1 on X and -1 on Y (-D^2 on the field rows)
            idx = block.copies[0][0]
            pg = (np.where(idx < cm.basis.dim, 1.0, -1.0) * (block.phase ** 2).real
                  * op.metric_diag[idx])
            pgt = pg[:, None] * frame
            assert np.abs(pgt - pgt.T).max() <= 1e-14 * np.abs(pgt).max()

    @pytest.mark.parametrize("which", ["collision_small", "collision_default"])
    @pytest.mark.parametrize("cond_limit", [mo._EIG_COND_LIMIT, 1.0], ids=["eig", "schur"])
    def test_propagate_commutes_with_the_parity_conjugation(self, request, monkeypatch,
                                                            which, cond_limit):
        # T real gives e^{tA} D^2 conj(u) = D^2 conj(e^{tA} u), where D^2 is
        # (-1)^l on the kinetic rows, -1 on X and +1 on Y
        monkeypatch.setattr(mo, "_EIG_COND_LIMIT", cond_limit)
        cm = request.getfixturevalue(which)
        times = np.array([0.0, 0.4, 3.0])
        for seed, (kind, s, eps) in enumerate([("B", 0.5, 0.1), ("B", 3.0, 0.05),
                                               ("B", 16.0, 1.0), ("A", 0.5, 0.1),
                                               ("A", 3.0, 0.05), ("A", 16.0, 1.0)]):
            op = (mo.assemble_B if kind == "B" else mo.assemble_A_tilde)(s, eps, cm)
            d2 = np.zeros(op.dim)
            for block in op.blocks:
                for idx, _ in block.copies:
                    d2[idx] = (block.phase ** 2).real
            u = _random_states(op.dim, 1, seed)[0]
            lhs = mo.propagate(op, d2 * u.conj(), times)
            rhs = d2 * mo.propagate(op, u, times).conj()
            assert np.linalg.norm(lhs - rhs, axis=1).max() <= 1e-12 * np.linalg.norm(u)
            assert mo._decomposition(op).schur.any() == (cond_limit == 1.0)

    def test_phases_follow_degree_and_field(self, collision_small):
        basis = collision_small.basis
        nr, lmax = basis.spec.radial_order, basis.spec.angular_max
        ax, tr = mo.assemble_B(1.0, 0.1, collision_small).blocks
        field = mo.assemble_A_tilde(1.0, 0.1, collision_small).blocks[1]
        assert np.array_equal(ax.phase, np.repeat(1j ** np.arange(lmax + 1), nr).round())
        assert np.array_equal(tr.phase, np.repeat(1j ** np.arange(1, lmax + 1), nr).round())
        assert np.array_equal(field.phase, np.r_[tr.phase, 1j, 1.0])
        assert not (ax.phase.flags.writeable or tr.phase.flags.writeable
                    or field.phase.flags.writeable)
        assert ax.phase is mo.assemble_A_tilde(2.0, 0.3, collision_small).blocks[0].phase

    def test_blocks_built_elsewhere_pass_their_phases(self):
        # no default phase: a caller's block states the frame it is real in
        mat, copies = np.array([[-1.0, 0.5j], [0.5j, -2.0]]), ((np.arange(2), np.ones(2)),)
        with pytest.raises(TypeError):
            mo.SectorBlock(mat, copies)
        assert mo._real_frame(mo.SectorBlock(mat, copies, np.ones(2))) is None
        assert mo._real_frame(mo.SectorBlock(mat.real, copies, np.ones(2))) is not None
        assert np.array_equal(mo._real_frame(mo.SectorBlock(mat, copies, np.array([1.0, 1j]))),
                              [[-1.0, -0.5], [0.5, -2.0]])


class TestRealFrameNorms:
    """_remainder_norms in real arithmetic against the complex-SVD oracle."""

    @pytest.mark.parametrize("which", ["collision_small", "collision_default"])
    @pytest.mark.parametrize("kind,s,eps", _REGIME_CASES)
    def test_matches_complex_formula(self, request, real_path_sizes, which, kind, s, eps):
        cm = request.getfixturevalue(which)
        op = (mo.assemble_B if kind == "B" else mo.assemble_A_tilde)(s, eps, cm)
        sp = mo.semigroup_split(op)
        assert not _defective(sp)
        taus = _fit_window(_eigenvalues(op), sp.branch_mask)
        real_path_sizes.clear()
        got = mo._remainder_norms(op, sp.branch_mask, sp.schur_projectors, taus)
        want = _complex_remainder_norms(op, sp.branch_mask, sp.schur_projectors, taus)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        # every distinct copy took the real path
        assert sorted(set(real_path_sizes)) == sorted(b.matrix.shape[0] for b in op.blocks)

    def test_one_member_of_a_pair_takes_the_complex_path(self, collision_default,
                                                         real_path_sizes):
        op = mo.assemble_B(1.0, 0.05, collision_default)
        sp = mo.semigroup_split(op)
        dec = mo._decomposition(op)
        lam_axial = dec.blocks[0][0][0]
        # the slowest non-real eigenvalue the split leaves in the axial block
        left = ~sp.branch_mask[:lam_axial.size] & (np.abs(lam_axial.imag) > 1e-3)
        j = np.flatnonzero(left)[np.argmax(lam_axial.real[left])]
        mask = sp.branch_mask.copy()
        mask[j] = True
        taus = _fit_window(_eigenvalues(op), mask)
        real_path_sizes.clear()
        got = mo._remainder_norms(op, mask, sp.schur_projectors, taus)
        want = _complex_remainder_norms(op, mask, sp.schur_projectors, taus)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert real_path_sizes == [op.blocks[1].matrix.shape[0]]

    def test_complex_block_takes_the_complex_path(self, collision_small, real_path_sizes):
        rng = np.random.default_rng(18)
        k = 5
        mat = (np.diag(-rng.uniform(0.5, 3.0, k)) + 0.3 * (rng.standard_normal((k, k))
               + 1j * rng.standard_normal((k, k))))
        blocks = (mo.SectorBlock(mat, ((np.arange(k), np.ones(k)),
                                       (np.arange(k, 2 * k), np.array([1.0, -1, 1, -1, 1]))),
                                 np.ones(k)),)
        metric = np.ones(2 * k)
        metric[0] = 3.0
        op = mo.ModeOperator(mo.KIND_BOLTZMANN, 1.0, 0.05, metric, collision_small, blocks)
        dec = mo._decomposition(op)
        assert not dec.schur.any() and mo._real_frame(blocks[0]) is None
        lam = _eigenvalues(op)
        mask = np.zeros(2 * k, dtype=bool)
        mask[np.argmax(lam.real)] = True
        taus = _fit_window(lam, mask)
        got = mo._remainder_norms(op, mask, (None,), taus)
        want = _complex_remainder_norms(op, mask, (None,), taus)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert real_path_sizes == []
        # the dense exponential agrees as well
        s3 = np.eye(2 * k) - mo.SemigroupSplit(
            op=op, regime="low", measured_gap_b=0.0, fit_C=0.0,
            branch_mask=mask, schur_projectors=(None,)).S1_part
        gh = np.sqrt(metric)
        for tau, norm in zip(taus[:3], got):
            flow = sl.expm(tau * op.matrix) @ s3
            dense = np.linalg.norm((flow / gh[None, :]) * gh[:, None], ord=2)
            assert abs(norm - dense) <= 1e-10 * dense


# ---------------------------------------------------------------------------
# boundary contract: every exported callable, with ValueError as the
# module's documented error for bad input
# ---------------------------------------------------------------------------

_TINY = np.array([[-1.0, 0.5], [0.0, -2.0]])


def _tiny_block(matrix=_TINY, index=np.arange(2), sign=np.ones(2), phase=np.ones(2)):
    """The one block of _tiny_operator, a single copy, with one part replaced."""
    return mo.SectorBlock(matrix, ((index, sign),), phase)


def _two_copies(second):
    """The tiny block in two copies, the second on rows ``second``."""
    return mo.SectorBlock(_TINY, ((np.arange(2), np.ones(2)), (second, np.ones(2))), np.ones(2))


def _tiny_operator(cm, kind=mo.KIND_BOLTZMANN, s=1.0, eps=1.0, metric=(1.0, 1.0),
                   collision=None, blocks=(_tiny_block(),)):
    return mo.ModeOperator(kind, s, eps, np.asarray(metric), cm if collision is None
                           else collision, blocks)


def _tiny_blocks(cm, *blocks, metric=(1.0, 1.0)):
    return _tiny_operator(cm, metric=metric, blocks=blocks)


def _propagate(cm, u0=None, t=0.5, op=None):
    op = mo.assemble_B(1.0, 0.2, cm) if op is None else op
    return mo.propagate(op, np.ones(cm.basis.dim) if u0 is None else u0, t)


def _probe(cm, lam=complex(1.0, 0.0), op=None):
    return oracles.resolvent_norm_probe(mo.assemble_B(2.0, 1.0, cm) if op is None else op, lam)


def _assembly_rows(assemble):
    return {
        "s-nan": lambda cm: assemble(math.nan, 0.1, cm),
        "s-inf": lambda cm: assemble(math.inf, 0.1, cm),
        "s-negative": lambda cm: assemble(-0.5, 0.1, cm),
        "s-bool": lambda cm: assemble(True, 0.1, cm),
        "s-str": lambda cm: assemble("1.0", 0.1, cm),
        "s-complex": lambda cm: assemble(1.0j, 0.1, cm),
        "s-none": lambda cm: assemble(None, 0.1, cm),
        "eps-nan": lambda cm: assemble(1.0, math.nan, cm),
        "eps-inf": lambda cm: assemble(1.0, math.inf, cm),
        "eps-negative": lambda cm: assemble(1.0, -0.1, cm),
        "eps-bool": lambda cm: assemble(1.0, False, cm),
        "eps-str": lambda cm: assemble(1.0, "0.1", cm),
        "cm-none": lambda cm: assemble(1.0, 0.1, None),
        "cm-basis": lambda cm: assemble(1.0, 0.1, cm.basis),
        # finite s and eps whose streaming load eps*s*max|v| overflows
        "w-overflow": lambda cm: assemble(1e200, 1e200, cm),
        "s-overflow": lambda cm: assemble(1e308, 1.0, cm),
        "eps-overflow": lambda cm: assemble(1.0, 1e308, cm),
    }


_BAD_CALLS = {
    "assemble_B": _assembly_rows(mo.assemble_B),
    "assemble_A_tilde": {
        **_assembly_rows(mo.assemble_A_tilde),
        "s-zero": lambda cm: mo.assemble_A_tilde(0.0, 0.1, cm),
        # the metric weight 1 + 1/s^2 and the couplings eps/s and eps^2 s: s^2
        # underflows to 0, 1/s^2 overflows, s^2 overflows, eps^2 overflows
        "s-underflow": lambda cm: mo.assemble_A_tilde(1e-300, 0.1, cm),
        "metric-overflow": lambda cm: mo.assemble_A_tilde(1e-160, 0.1, cm),
        "s-overflow": lambda cm: mo.assemble_A_tilde(1e300, 0.1, cm),
        "eps-overflow": lambda cm: mo.assemble_A_tilde(1.0, 1e160, cm),
    },
    "ModeOperator": {
        "kind-unknown": lambda cm: _tiny_operator(cm, kind="fluid"),
        "s-nan": lambda cm: _tiny_operator(cm, s=math.nan),
        "s-str": lambda cm: _tiny_operator(cm, s="1.0"),
        "eps-negative": lambda cm: _tiny_operator(cm, eps=-1.0),
        "eps-bool": lambda cm: _tiny_operator(cm, eps=True),
        "metric-short": lambda cm: _tiny_operator(cm, metric=(1.0,)),
        "metric-zero": lambda cm: _tiny_operator(cm, metric=(1.0, 0.0)),
        "metric-nan": lambda cm: _tiny_operator(cm, metric=(1.0, math.nan)),
        "metric-inf": lambda cm: _tiny_operator(cm, metric=(1.0, math.inf)),
        "metric-complex": lambda cm: _tiny_operator(cm, metric=(1.0, 1.0j)),
        "collision-basis": lambda cm: _tiny_operator(cm, collision=cm.basis),
        "blocks-empty": lambda cm: _tiny_operator(cm, blocks=()),
        "blocks-matrix": lambda cm: _tiny_operator(cm, blocks=(np.eye(2),)),
        "block-nonsquare": lambda cm: _tiny_blocks(cm, _tiny_block(matrix=np.ones((2, 3)))),
        "block-nan": lambda cm: _tiny_blocks(cm, _tiny_block(matrix=np.diag([math.nan, 1.0]))),
        "block-str": lambda cm: _tiny_blocks(cm, _tiny_block(matrix=np.full((2, 2), "1"))),
        "copies-empty": lambda cm: _tiny_blocks(cm, mo.SectorBlock(_TINY, (), np.ones(2))),
        "index-float": lambda cm: _tiny_blocks(cm, _tiny_block(index=np.array([0.0, 1.0]))),
        "index-short": lambda cm: _tiny_blocks(cm, _tiny_block(index=np.arange(1))),
        "index-out-of-range": lambda cm: _tiny_blocks(cm, _tiny_block(index=np.array([0, 2]))),
        "index-overlap": lambda cm: _tiny_blocks(cm, _two_copies(np.arange(1, 3)),
                                                 metric=(1.0,) * 4),
        "sign-two": lambda cm: _tiny_blocks(cm, _tiny_block(sign=np.array([1.0, 2.0]))),
        "phase-short": lambda cm: _tiny_blocks(cm, _tiny_block(phase=np.ones(1))),
        "phase-modulus": lambda cm: _tiny_blocks(cm, _tiny_block(phase=np.array([1.0, 0.5]))),
        "block-inf": lambda cm: _tiny_blocks(cm, _tiny_block(matrix=np.diag([math.inf, 1.0]))),
        "block-bool": lambda cm: _tiny_blocks(cm, _tiny_block(matrix=np.eye(2, dtype=bool))),
        "block-list": lambda cm: _tiny_blocks(cm, _tiny_block(matrix=_TINY.tolist())),
        "block-none": lambda cm: _tiny_blocks(cm, _tiny_block(matrix=None)),
        "block-1d": lambda cm: _tiny_blocks(cm, _tiny_block(matrix=np.ones(2))),
        "block-empty": lambda cm: _tiny_blocks(cm, _tiny_block(
            matrix=np.zeros((0, 0)), index=np.arange(0), sign=np.ones(0), phase=np.ones(0))),
        "copies-list": lambda cm: _tiny_blocks(cm, mo.SectorBlock(
            _TINY, [(np.arange(2), np.ones(2))], np.ones(2))),
        "copy-triple": lambda cm: _tiny_blocks(cm, mo.SectorBlock(
            _TINY, ((np.arange(2), np.ones(2), np.ones(2)),), np.ones(2))),
        # numpy would read -1 as row 1 and never write row 0
        "index-negative": lambda cm: _tiny_blocks(cm, _tiny_block(index=np.array([-1, 1]))),
        "index-repeated": lambda cm: _tiny_blocks(cm, _tiny_block(index=np.array([0, 0]))),
        "index-bool": lambda cm: _tiny_blocks(cm, _tiny_block(index=np.array([False, True]))),
        "index-list": lambda cm: _tiny_blocks(cm, _tiny_block(index=[0, 1])),
        "index-2d": lambda cm: _tiny_blocks(cm, _tiny_block(index=np.arange(2)[:, None])),
        "sign-zero": lambda cm: _tiny_blocks(cm, _tiny_block(sign=np.array([1.0, 0.0]))),
        "sign-nan": lambda cm: _tiny_blocks(cm, _tiny_block(sign=np.array([1.0, math.nan]))),
        "sign-complex": lambda cm: _tiny_blocks(cm, _tiny_block(sign=np.array([1.0, 1j]))),
        "sign-bool": lambda cm: _tiny_blocks(cm, _tiny_block(sign=np.ones(2, dtype=bool))),
        "sign-short": lambda cm: _tiny_blocks(cm, _tiny_block(sign=np.ones(1))),
        "phase-nan": lambda cm: _tiny_blocks(cm, _tiny_block(phase=np.array([1.0, math.nan]))),
        "phase-zero": lambda cm: _tiny_blocks(cm, _tiny_block(phase=np.array([1.0, 0.0]))),
        "phase-str": lambda cm: _tiny_blocks(cm, _tiny_block(phase=np.array(["1", "1"]))),
        "phase-none": lambda cm: _tiny_blocks(cm, _tiny_block(phase=None)),
    },
    "propagate": {
        "op-none": lambda cm: mo.propagate(None, np.ones(3), 0.5),
        "op-matrix": lambda cm: mo.propagate(mo.assemble_B(1.0, 0.2, cm).matrix,
                                             np.ones(cm.basis.dim), 0.5),
        "state-short": lambda cm: _propagate(cm, u0=np.ones(cm.basis.dim - 1)),
        "state-2d": lambda cm: _propagate(cm, u0=np.ones((cm.basis.dim, 1))),
        "state-nan": lambda cm: _propagate(cm, u0=np.full(cm.basis.dim, math.nan)),
        "state-inf": lambda cm: _propagate(cm, u0=np.full(cm.basis.dim, math.inf)),
        "state-str": lambda cm: _propagate(cm, u0=np.full(cm.basis.dim, "1")),
        "state-bool": lambda cm: _propagate(cm, u0=np.ones(cm.basis.dim, dtype=bool)),
        "time-nan": lambda cm: _propagate(cm, t=math.nan),
        "time-inf": lambda cm: _propagate(cm, t=math.inf),
        "time-negative": lambda cm: _propagate(cm, t=-0.5),
        "time-2d": lambda cm: _propagate(cm, t=np.ones((2, 2))),
        "time-str": lambda cm: _propagate(cm, t="0.5"),
        "time-bool": lambda cm: _propagate(cm, t=True),
        "time-complex": lambda cm: _propagate(cm, t=0.5j),
        "time-none": lambda cm: _propagate(cm, t=None),
        "eps-zero": lambda cm: _propagate(cm, op=mo.assemble_B(1.0, 0.0, cm)),
    },
    "semigroup_split": {
        "op-none": lambda cm: mo.semigroup_split(None),
        "op-matrix": lambda cm: mo.semigroup_split(mo.assemble_B(1.0, 0.2, cm).matrix),
    },
    "spectrum": {
        "op-none": lambda cm: mo.spectrum(None),
        "op-matrix": lambda cm: mo.spectrum(mo.assemble_B(1.0, 0.2, cm).matrix),
    },
}
# the probe of tests/oracles.py refuses bad input with ValueError too
_ORACLE_BAD_CALLS = {
    "resolvent_norm_probe": {
        "op-none": lambda cm: oracles.resolvent_norm_probe(None, 1.0),
        "op-matrix": lambda cm: _probe(cm, op=mo.assemble_B(2.0, 1.0, cm).matrix),
        "lam-nan": lambda cm: _probe(cm, lam=math.nan),
        "lam-inf": lambda cm: _probe(cm, lam=complex(0.0, math.inf)),
        "lam-str": lambda cm: _probe(cm, lam="1"),
        "lam-none": lambda cm: _probe(cm, lam=None),
        "lam-bool": lambda cm: _probe(cm, lam=True),
        "lam-on-spectrum": lambda cm: _probe(cm, lam=complex(
            -oracles.nu_eval(oracles._probe_grid()[0][10]),
            -2.0 * oracles._probe_grid()[0][10] * oracles._probe_grid()[1][5])),
    },
}
# exported names that take no caller input of their own
_NOT_ENTRY_POINTS = {
    "PropagationError": "the module's error type",
    "SemigroupSplit": "the record semigroup_split returns; no caller builds one",
}


class TestBoundaryContract:
    """Every exported callable of mode_operators rejects bad input with ValueError."""

    def test_table_covers_the_exports(self):
        import kslab

        exported = {name for name, obj in vars(kslab).items()
                    if callable(obj) and getattr(obj, "__module__", None) == mo.__name__}
        assert exported == set(_BAD_CALLS) | set(_NOT_ENTRY_POINTS)
        assert not set(_BAD_CALLS) & set(_NOT_ENTRY_POINTS)

    @pytest.mark.parametrize("name, case", [(name, case) for name, rows in _BAD_CALLS.items()
                                            for case in rows])
    def test_bad_input_raises_value_error(self, collision_small, name, case):
        with pytest.raises(ValueError):
            _BAD_CALLS[name][case](collision_small)

    def test_table_calls_are_valid_when_repaired(self, collision_small):
        # the helpers behind the rows succeed on good input, so each row fails
        # for its one bad argument
        cm = collision_small
        assert _tiny_operator(cm).dim == 2
        assert _tiny_blocks(cm, _two_copies(np.arange(2, 4)), metric=(1.0,) * 4).dim == 4
        assert _tiny_blocks(cm, _tiny_block(index=np.array([1, 0]), sign=np.array([1.0, -1.0]),
                                            phase=np.array([1j, -1.0]))).dim == 2
        assert _propagate(cm).shape == (cm.basis.dim,)
        assert _probe(cm) > 0.0

    @pytest.mark.parametrize("name, case", [(name, case)
                                            for name, rows in _ORACLE_BAD_CALLS.items()
                                            for case in rows])
    def test_oracle_bad_input_raises_value_error(self, collision_small, name, case):
        with pytest.raises(ValueError):
            _ORACLE_BAD_CALLS[name][case](collision_small)

    @pytest.mark.parametrize("assemble, s, eps", [
        (mo.assemble_B, 0.7, 0.1), (mo.assemble_B, 0.7, 0.0), (mo.assemble_A_tilde, 0.7, 0.1),
        # short of the overflow rows above: large but finite coefficients
        (mo.assemble_B, 1e300, 0.1), (mo.assemble_A_tilde, 1e150, 0.1),
        (mo.assemble_A_tilde, 1e-150, 0.1)])
    def test_assembled_blocks_pass_the_public_checks(self, collision_small, assemble, s, eps):
        # the assemblers skip the constructor's checks (_assembled); what they
        # build passes them, and the checked operator is the same one
        op = assemble(s, eps, collision_small)
        again = mo.ModeOperator(op.kind, op.s, op.eps, op.metric_diag, op.collision, op.blocks)
        assert again.dim == op.dim
        assert np.array_equal(again.matrix, op.matrix)
        # the streaming check reads the largest speed as the last radial node
        r = collision_small.basis.quad.r
        assert r[-1] == r.max()

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e-154, 1e-150, 1e-10, 1.0, 1e10,
                                   1e150, 1e154, 1e160, 1e300])
    def test_assemblers_refuse_exactly_the_overflowing_coefficients(self, collision_small,
                                                                    assemble, s):
        # over the float range, an assembler refuses (s, eps) with ValueError
        # when a coefficient of its blocks or metric is not finite, and else
        # builds an operator whose every entry is finite
        speed = float(collision_small.basis.quad.r.max())
        for eps in (0.0, 1e-300, 0.1, 1e150, 1e300):
            with np.errstate(all="ignore"):
                s2 = np.float64(s) * s
                loads = [np.float64(eps) * s * speed]
                if assemble is mo.assemble_A_tilde:
                    loads += [s2 if s2 > 0.0 else math.inf, 1.0 / s2, np.float64(eps) / s,
                              np.float64(eps) * eps * s]
            if not np.all(np.isfinite(loads)):
                with pytest.raises(ValueError, match="finite|overflows"):
                    assemble(s, eps, collision_small)
                continue
            op = assemble(s, eps, collision_small)
            assert np.all(np.isfinite(op.metric_diag))
            assert all(np.all(np.isfinite(block.matrix)) for block in op.blocks)
            again = mo.ModeOperator(op.kind, op.s, op.eps, op.metric_diag, op.collision,
                                    op.blocks)
            assert np.array_equal(again.matrix, op.matrix)

    @pytest.mark.parametrize("assemble", [mo.assemble_B, mo.assemble_A_tilde])
    def test_assembled_operators_are_checked_once(self, collision_small, monkeypatch,
                                                  assemble):
        # the assemblers check their arguments; the operator they build does
        # not check them again
        calls = []
        check = mo._check_mode_args

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(mo, "_check_mode_args", counting)
        op = assemble(0.7, 0.1, collision_small)
        assert len(calls) == 1
        assert mo.ModeOperator(op.kind, op.s, op.eps, op.metric_diag, op.collision,
                               op.blocks).dim == op.dim
        assert len(calls) == 2
