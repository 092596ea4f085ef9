"""Per-mode generators for the kinetic and kinetic-electromagnetic systems.

With the wave vector rotated onto the first axis, one Fourier mode carries a
kinetic state (axial sector plus a cosine and a sine transverse copy) and, in
the electromagnetic case, the four transverse field components.  Both
generators are block-diagonal, and a ModeOperator holds only its sector
blocks: the axial block, and one transverse block that fills the cosine copy
and, conjugated by a signature matrix, the sine copy.  In the
electromagnetic generator the transverse block also carries two field
components, (cos, X3, Y2) and (sin, X2, Y3).

On top of the blocks: the weighted inner product, the semigroup (in
diffusive time t / eps^2), its split into fluid branches, an oscillatory
high-frequency part and an exponentially damped remainder, and a grid-based
probe for the norm of gain-times-resolvent compositions.

The blocks are the only generator form.  _decompose_stacked decomposes any
number of operators that share a block layout, one stacked eig per block,
and gives each operator its decomposition once: views into the stacks, or
its dense Schur form when the eigenvectors are too ill-conditioned
(_EIG_COND_LIMIT).  _block_flow is the one eig-path apply, e^{tau A} u0 =
V_b diag(e^{tau lam}) V_b^{-1} u0 on every block copy, for one operator
(propagate) or a whole mode grid (convergence_lab._evolve_grid); both check
the result with the one contraction guard, _contraction_violations.
spectrum takes its residuals per block, and the semigroup split marks the
eigenvalues it takes into S1/S2 with a mask per block copy, m; the remainder
e^{tau A} S3 = V_b diag(e^{tau lam} (1 - m)) V_b^{-1} then gives the norms of
the remainder fit without a dense matrix.  The dense generator
(ModeOperator.matrix), propagator_matrix and the split's S1_part, S2_part
and S3_part are views for callers, assembled from the blocks when asked
for; the Schur path stays dense.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm, schur, solve_sylvester

from .collision_ops import CollisionMatrices, _nu_of_r, _pair_kernel_moments
from .velocity_basis import SECTOR_AXIAL, SECTOR_TRANSVERSE, v_multiplication_matrix

KIND_BOLTZMANN = "boltzmann"
KIND_VMB = "vmb"

_EIG_COND_LIMIT = 1e8


class PropagationError(RuntimeError):
    """Raised when the matrix exponential fails its contraction guard."""


@dataclass(frozen=True)
class SectorBlock:
    """One diagonal block of a mode generator and the copies of it.

    Each copy is (index, sign): the block sits on rows and columns ``index``
    of the dense layout, conjugated by diag(sign) with sign entries +-1.
    """

    matrix: np.ndarray
    copies: tuple


def _copy(index: np.ndarray, sign: np.ndarray | None = None) -> tuple:
    return index, np.ones(index.size) if sign is None else sign


class ModeOperator:
    """One mode generator, held as its sector blocks.

    ``blocks`` is a sequence of SectorBlock whose copies tile the dense layout.
    """

    def __init__(self, kind: str, s: float, eps: float, metric_diag: np.ndarray,
                 collision: CollisionMatrices, blocks):
        self.kind = kind
        self.s = s
        self.eps = eps
        self.metric_diag = metric_diag
        self.collision = collision
        self.blocks = tuple(blocks)
        self.dim = sum(idx.size for b in self.blocks for idx, _ in b.copies)
        self._matrix = None
        self._decomp = None

    @property
    def matrix(self) -> np.ndarray:
        """Dense generator assembled from the blocks."""
        if self._matrix is None:
            out = np.zeros((self.dim, self.dim), dtype=complex)
            for b in self.blocks:
                for idx, sign in b.copies:
                    out[np.ix_(idx, idx)] = sign[:, None] * b.matrix * sign[None, :]
            self._matrix = out
        return self._matrix

    @property
    def n_field(self) -> int:
        return 4 if self.kind == KIND_VMB else 0

    def weighted_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.real(np.vdot(u, self.metric_diag * u))))

    def weighted_inner(self, u: np.ndarray, w: np.ndarray) -> complex:
        return complex(np.vdot(w, self.metric_diag * u))


def _check_mode_args(s: float, eps: float) -> None:
    if not (math.isfinite(s) and math.isfinite(eps)):
        raise ValueError(f"s and eps must be finite, got s={s!r}, eps={eps!r}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")


def assemble_B(s: float, eps: float, cm: CollisionMatrices) -> ModeOperator:
    """Kinetic-only mode generator L - i*eps*s*(v along the wave axis)."""
    _check_mode_args(s, eps)
    if s < 0:
        raise ValueError("s must be nonnegative")
    basis = cm.basis
    n0, n1 = basis.dim0, basis.dim1
    w = eps * s
    axial = cm.L_sector[SECTOR_AXIAL] - 1j * w * v_multiplication_matrix(basis, SECTOR_AXIAL)
    trans = (cm.L_sector[SECTOR_TRANSVERSE]
             - 1j * w * v_multiplication_matrix(basis, SECTOR_TRANSVERSE))
    blocks = (
        SectorBlock(axial, (_copy(np.arange(n0)),)),
        SectorBlock(trans, (_copy(np.arange(n0, n0 + n1)),
                            _copy(np.arange(n0 + n1, n0 + 2 * n1)))),
    )
    return ModeOperator(KIND_BOLTZMANN, s, eps, np.ones(basis.dim), cm, blocks)


def _vmb_operator(s: float, eps: float, cm: CollisionMatrices, sign_flip: bool) -> ModeOperator:
    """The electromagnetic mode generator, or its metric adjoint.

    sign_flip=False gives the generator; True flips every coupling term while
    keeping the collision blocks, which is the metric adjoint (the rank-one
    metric corrections in the axial block cancel exactly).  The transverse
    block acts on (cos, X3, Y2); the sine copy (sin, X2, Y3) is the same block
    with the sign of its X component flipped.
    """
    _check_mode_args(s, eps)
    if s <= 0:
        raise ValueError("s must be positive for the electromagnetic operator")
    basis = cm.basis
    n0, n1 = basis.dim0, basis.dim1
    ix2, ix3, iy2, iy3 = (n0 + 2 * n1 + k for k in range(4))
    sk = -1.0 if sign_flip else 1.0

    v0 = v_multiplication_matrix(basis, SECTOR_AXIAL)
    chi0 = np.zeros(n0)
    chi0[0] = 1.0
    chi1 = v0 @ chi0
    chi2 = np.zeros(n1)
    chi2[0] = 1.0

    axial = cm.L1_sector[SECTOR_AXIAL] - sk * 1j * eps * s * v0
    axial -= sk * 1j * (eps / s) * np.outer(chi1, chi0)

    trans = np.zeros((n1 + 2, n1 + 2), dtype=complex)
    trans[:n1, :n1] = (cm.L1_sector[SECTOR_TRANSVERSE]
                       - sk * 1j * eps * s * v_multiplication_matrix(basis, SECTOR_TRANSVERSE))
    trans[:n1, n1] = sk * eps * chi2
    trans[n1, :n1] = -sk * eps * chi2
    trans[n1, n1 + 1] = sk * 1j * eps**2 * s
    trans[n1 + 1, n1] = sk * 1j * eps**2 * s

    flip_x = np.ones(n1 + 2)
    flip_x[n1] = -1.0
    blocks = (
        SectorBlock(axial, (_copy(np.arange(n0)),)),
        SectorBlock(trans, (_copy(np.r_[n0:n0 + n1, ix3, iy2]),
                            _copy(np.r_[n0 + n1:n0 + 2 * n1, ix2, iy3], flip_x))),
    )
    metric = np.ones(n0 + 2 * n1 + 4)
    metric[0] = 1.0 + 1.0 / s**2
    return ModeOperator(KIND_VMB, s, eps, metric, cm, blocks)


def assemble_A_tilde(s: float, eps: float, cm: CollisionMatrices) -> ModeOperator:
    """Electromagnetic mode generator on (kinetic, E-transverse, B-transverse)."""
    return _vmb_operator(s, eps, cm, sign_flip=False)


def assemble_A_tilde_star(s: float, eps: float, cm: CollisionMatrices) -> ModeOperator:
    """Explicitly assembled metric adjoint of the electromagnetic generator."""
    return _vmb_operator(s, eps, cm, sign_flip=True)


def metric_adjoint(op: ModeOperator) -> np.ndarray:
    """Dense G^{-1} A^H G for the operator's weighted inner product."""
    g = op.metric_diag
    return (op.matrix.conj().T * g[None, :]) / g[:, None]


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def _decompose_stacked(ops: list[ModeOperator]):
    """Decompose operators sharing one block layout, one stacked eig per block.

    Every operator gets its own _Decomposition: on the eig path views into the
    stacks, past _EIG_COND_LIMIT its dense Schur form.  The condition number
    is that of the block-diagonal eigenvector matrix (the largest singular
    value over all blocks divided by the smallest).  Returns per block the
    stacked (eigenvalues, right eigenvectors, their inverses) and the mask of
    operators on the eig path; inverses are computed only for those, the
    others keep zeros there.
    """
    eigs = [np.linalg.eig(np.stack([op.blocks[b].matrix for op in ops]))
            for b in range(len(ops[0].blocks))]
    sv = [np.linalg.svd(vr, compute_uv=False) for _, vr in eigs]
    s_max = np.max([x[..., 0] for x in sv], axis=0)
    s_min = np.min([x[..., -1] for x in sv], axis=0)
    with np.errstate(divide="ignore"):
        cond = s_max / s_min
    ok = cond < _EIG_COND_LIMIT
    parts = []
    for lam, vr in eigs:
        vinv = np.zeros_like(vr)
        vinv[ok] = np.linalg.inv(vr[ok])
        parts.append((lam, vr, vinv))
    for i, op in enumerate(ops):
        if ok[i]:
            blocks = tuple((lb[i], vb[i], wb[i]) for lb, vb, wb in parts)
            lam = _by_column(op, [lb for lb, _, _ in blocks])
            op._decomp = _Decomposition("eig", float(cond[i]), lam, blocks)
        else:
            op._decomp = _Decomposition("schur", float(cond[i]),
                                        schur=schur(op.matrix, output="complex"))
    return parts, ok


class _Decomposition(NamedTuple):
    """A generator's eigendecomposition by sector block, or its dense Schur form.

    On the eig path the columns run block by block and, within a block, copy
    by copy: ``lam`` holds the eigenvalue of every column (a block's copies
    repeat its eigenvalues) and ``blocks`` the per-block (eigenvalues, right
    vectors, inverse).  On the Schur path ``schur`` holds (T, Z) of the dense
    generator.
    """

    path: str                 # "eig" or "schur"
    cond: float
    lam: np.ndarray | None = None
    blocks: tuple = ()
    schur: tuple | None = None


def _decomposition(op: ModeOperator) -> _Decomposition:
    """The operator's decomposition, computed by _decompose_stacked on first use."""
    if op._decomp is None:
        _decompose_stacked([op])
    return op._decomp


def _by_column(op: ModeOperator, per_block) -> np.ndarray:
    """Per-block values laid out over the eig-path columns, once per copy."""
    return np.concatenate([np.tile(v, len(b.copies)) for b, v in zip(op.blocks, per_block)])


def _copy_columns(op: ModeOperator):
    """(block number, index, sign, columns) of every block copy, in column order."""
    col = 0
    for b, block in enumerate(op.blocks):
        k = block.matrix.shape[0]
        for idx, sign in block.copies:
            yield b, idx, sign, slice(col, col + k)
            col += k


def _spectral_order(lam: np.ndarray) -> np.ndarray:
    """Column order by descending real part, then ascending imaginary part."""
    return np.lexsort((lam.imag, -lam.real))


def _dense_vectors(op: ModeOperator, dec: _Decomposition, cols: np.ndarray):
    """Right eigenvectors (as columns) and inverse rows of eig-path columns, dense."""
    right = np.zeros((op.dim, cols.size), dtype=complex)
    left = np.zeros((cols.size, op.dim), dtype=complex)
    for b, idx, sign, span in _copy_columns(op):
        _, vb, wb = dec.blocks[b]
        hit = np.flatnonzero((cols >= span.start) & (cols < span.stop))
        local = cols[hit] - span.start
        right[np.ix_(idx, hit)] = sign[:, None] * vb[:, local]
        left[np.ix_(hit, idx)] = wb[local] * sign[None, :]
    return right, left


def eigenvalues(op: ModeOperator) -> np.ndarray:
    """All eigenvalues, by descending real part, then ascending imaginary part."""
    dec = _decomposition(op)
    lam = np.linalg.eigvals(op.matrix) if dec.path == "schur" else dec.lam
    return lam[_spectral_order(lam)]


def eigen_condition(op: ModeOperator) -> float:
    return _decomposition(op).cond


def spectrum(op: ModeOperator):
    """Eigenvalues sorted by descending real part, vectors, and residuals.

    On the eig path the residuals are computed per block; a block's copies
    share them, since a signature conjugation preserves the column norms.
    """
    dec = _decomposition(op)
    if dec.path == "schur":
        lam, vr = np.linalg.eig(op.matrix)
        order = _spectral_order(lam)
        lam, vr = lam[order], vr[:, order]
        res = np.linalg.norm(op.matrix @ vr - vr * lam[None, :], axis=0)
        return lam, vr, res / np.linalg.norm(vr, axis=0)
    res = _by_column(op, [
        np.linalg.norm(block.matrix @ vb - vb * lb[None, :], axis=0) / np.linalg.norm(vb, axis=0)
        for block, (lb, vb, _) in zip(op.blocks, dec.blocks)])
    order = _spectral_order(dec.lam)
    vr, _ = _dense_vectors(op, dec, order)
    return dec.lam[order], vr, res[order]


def _checked_times(t) -> np.ndarray:
    """A time or a 1-D array of times, checked finite and nonnegative."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise ValueError(f"time must be a finite number or a 1-D array of them, got {t!r}")
    if np.any(times < 0):
        raise ValueError("time must be nonnegative")
    return times


def propagator_matrix(op: ModeOperator, t: float) -> np.ndarray:
    """Dense e^{(t/eps^2) A}, assembled from the block exponentials."""
    tau = float(_checked_times(t)) / op.eps**2
    dec = _decomposition(op)
    if dec.path == "schur":
        tmat, z = dec.schur
        return z @ expm(tau * tmat) @ z.conj().T
    flows = [(vb * np.exp(tau * lb)[None, :]) @ wb for lb, vb, wb in dec.blocks]
    out = np.zeros((op.dim, op.dim), dtype=complex)
    for b, idx, sign, _ in _copy_columns(op):
        out[np.ix_(idx, idx)] = sign[:, None] * flows[b] * sign[None, :]
    return out


def _block_flow(layout, parts, states0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """(n, n_t, dim) states e^{tau A} u0 of n operators on the eig path.

    ``layout`` is the operators' shared sector blocks (only their copies are
    read), ``parts`` the stacked per-block (eigenvalues, right vectors,
    inverses) of _decompose_stacked, ``states0`` the (n, dim) initial states.
    """
    out = np.zeros((len(states0), len(taus), states0.shape[1]), dtype=complex)
    for block, (lam, vr, vinv) in zip(layout, parts):
        growth = np.exp(taus[None, :, None] * lam[:, None, :])
        vr_t = np.swapaxes(vr, 1, 2)
        for idx, sign in block.copies:
            coef = (vinv @ (states0[:, idx] * sign)[:, :, None])[:, None, :, 0]
            out[:, :, idx] = ((growth * coef) @ vr_t) * sign
    return out


def _contraction_violations(metric: np.ndarray, states0: np.ndarray,
                            states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Growth of the weighted norm per operator, and where it breaks contraction.

    ``metric`` and ``states0`` are (n, dim), ``states`` (n, n_t, dim); the
    growth is the largest norm over the times divided by the initial norm.  A
    non-finite norm counts as a violation.
    """
    n0 = np.sqrt(np.sum(metric * np.abs(states0) ** 2, axis=-1))
    n1 = np.sqrt(np.max(np.sum(metric[:, None] * np.abs(states) ** 2, axis=-1), axis=-1))
    return n1 / np.maximum(n0, 1e-300), ~(n1 <= n0 * (1.0 + 1e-6) + 1e-12)


def propagate(op: ModeOperator, u0: np.ndarray, t) -> np.ndarray:
    """e^{(t/eps^2) A} u0 at a time t, or at each time of a 1-D array (rows).

    Raises PropagationError when the result breaks contraction in the
    weighted norm.
    """
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (op.dim,):
        raise ValueError(f"state length {u0.shape} does not match operator dim {op.dim}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("state must be finite")
    times = _checked_times(t)
    rows = np.atleast_1d(times)
    dec = _decomposition(op)
    if dec.path == "schur":
        out = np.stack([propagator_matrix(op, tk) @ u0 for tk in rows])
    else:
        parts = [(lb[None], vb[None], wb[None]) for lb, vb, wb in dec.blocks]
        out = _block_flow(op.blocks, parts, u0[None], rows / op.eps**2)[0]
    growth, bad = _contraction_violations(op.metric_diag[None], u0[None], out[None])
    if bad[0]:
        raise PropagationError(
            f"contraction violated: growth {growth[0]:.3e} "
            f"(decomposition condition {dec.cond:.3e})"
        )
    return out if times.ndim else out[0]


# ---------------------------------------------------------------------------
# fluid / oscillatory / remainder split
# ---------------------------------------------------------------------------

@dataclass
class SemigroupSplit:
    """e^{tA} = S1(t) + S2(t) + S3(t): fluid branches, oscillatory branches, remainder.

    On the eig path ``branch_mask`` marks the eig-path columns (see
    _Decomposition) whose eigenvalues go to S1 (low regime) or S2 (high
    regime); it is per block copy, so one copy of a degenerate pair can be
    taken without the other.  The remainder fit and every S*_part come from
    the blocks: S1_part, S2_part and S3_part = I - S1_part - S2_part are dense
    views, built on first access.  On the Schur path (eigenvectors past
    _EIG_COND_LIMIT) the split is dense: ``branch_mask`` is None and the
    projectors come from a reordered Schur form.
    """

    op: ModeOperator
    regime: str                       # low | high | mid
    eigen_projections: list           # (eigenvalue, right, left) triples
    measured_gap_b: float
    fit_C: float
    defective: bool
    eig_cond: float
    branch_mask: np.ndarray | None = None
    schur_parts: tuple | None = field(default=None, repr=False)   # dense (S1, S2)

    @functools.cached_property
    def _branch_parts(self) -> tuple[np.ndarray, np.ndarray]:
        if self.schur_parts is not None:
            return self.schur_parts
        dec = _decomposition(self.op)
        right, left = _dense_vectors(self.op, dec, np.flatnonzero(self.branch_mask))
        branch = right @ left
        zero = np.zeros_like(branch)
        return (zero, branch) if self.regime == "high" else (branch, zero)

    @property
    def S1_part(self) -> np.ndarray:
        """Projection onto the fluid branches."""
        return self._branch_parts[0]

    @property
    def S2_part(self) -> np.ndarray:
        """Projection onto the oscillatory branches."""
        return self._branch_parts[1]

    @functools.cached_property
    def S3_part(self) -> np.ndarray:
        """Remainder projection."""
        s1, s2 = self._branch_parts
        return np.eye(self.op.dim, dtype=complex) - s1 - s2


def _weighted_opnorm(op: ModeOperator, mat: np.ndarray) -> float:
    """Weighted 2-norm of a matrix with the block structure of op.

    That is the largest norm of its diagonal blocks.  One copy per block
    suffices: the copies differ by a signature conjugation, which is
    orthogonal, on indices where the metric is 1.
    """
    gh = np.sqrt(op.metric_diag)
    norms = []
    for b in op.blocks:
        idx = b.copies[0][0]
        g = gh[idx]
        norms.append(np.linalg.norm((mat[np.ix_(idx, idx)] * (1.0 / g)[None, :]) * g[:, None],
                                    ord=2))
    return float(max(norms))


def _schur_projector(a: np.ndarray, select) -> tuple[np.ndarray, int]:
    t, z, k = schur(a, output="complex", sort=select)
    if k == 0:
        return np.zeros_like(a), 0
    if k == a.shape[0]:
        return np.eye(a.shape[0], dtype=complex), k
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    x = solve_sylvester(t11, -t22, t12)
    ptil = np.zeros_like(a)
    ptil[:k, :k] = np.eye(k)
    ptil[:k, k:] = x
    return z @ ptil @ z.conj().T, k


def split_regime(op: ModeOperator, r0: float, r1: float) -> str:
    load = op.eps * (1.0 + op.s) if op.kind == KIND_VMB else op.eps * op.s
    if load <= r0:
        return "low"
    if op.kind == KIND_VMB and op.eps * op.s >= r1:
        return "high"
    return "mid"


def semigroup_split(op: ModeOperator, r0: float = 0.1, r1: float = 10.0,
                    n_fluid: int = 5) -> SemigroupSplit:
    regime = split_regime(op, r0, r1)
    dec = _decomposition(op)
    thresh = -0.5 * op.collision.mu_estimate
    if dec.path == "eig":
        lam = dec.lam
        order = _spectral_order(lam)
        mask = np.zeros(op.dim, dtype=bool)
        if regime == "low":
            mask[order[:n_fluid]] = True
        elif regime == "high":
            mask = lam.real >= thresh
        cols = order[mask[order]]
        right, left = _dense_vectors(op, dec, cols)
        projections = [(lam[j], right[:, i], left[i].conj() / op.metric_diag)
                       for i, j in enumerate(cols)]
        b, c_fit = _fit_remainder_decay(
            lam[~mask], lambda taus: _remainder_norms(op, mask, taus))
        return SemigroupSplit(op=op, regime=regime, eigen_projections=projections,
                              measured_gap_b=b, fit_C=c_fit, defective=False,
                              eig_cond=dec.cond, branch_mask=mask)

    s1 = np.zeros((op.dim, op.dim), dtype=complex)
    s2 = np.zeros_like(s1)
    lam = np.linalg.eigvals(op.matrix)
    if regime == "low":
        cut = np.sort(lam.real)[-n_fluid] - 1e-12
        s1, _ = _schur_projector(op.matrix, lambda z: z.real >= cut)
    elif regime == "high":
        s2, _ = _schur_projector(op.matrix, lambda z: z.real >= thresh)
    s3 = np.eye(op.dim, dtype=complex) - s1 - s2
    # exclude branch eigenvalues captured by S1/S2 from the gap estimate
    rank12 = int(round(np.real(np.trace(s1 + s2))))
    rest = lam[np.argsort(-lam.real)[rank12:]]
    b, c_fit = _fit_remainder_decay(rest, lambda taus: [
        _weighted_opnorm(op, propagator_matrix(op, tau * op.eps**2) @ s3) for tau in taus])
    return SemigroupSplit(op=op, regime=regime, eigen_projections=[], measured_gap_b=b,
                          fit_C=c_fit, defective=True, eig_cond=dec.cond,
                          schur_parts=(s1, s2))


def _remainder_norms(op: ModeOperator, mask: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """||e^{tau A} S3||_xi at each tau, from the eig-path blocks.

    On a block copy e^{tau A} S3 = V diag(e^{tau lam} (1 - m)) V^{-1}, with m
    the copy's slice of the branch mask; the weighted norm is the largest
    over the copies.  A copy that repeats an earlier copy's mask and metric
    has the same norm (the signature conjugation between them is orthogonal)
    and is skipped.
    """
    dec = _decomposition(op)
    gh = np.sqrt(op.metric_diag)
    norms = np.zeros(len(taus))
    seen = set()
    for b, idx, _, cols in _copy_columns(op):
        keep, g = ~mask[cols], gh[idx]
        key = (b, keep.tobytes(), g.tobytes())
        if key in seen:
            continue
        seen.add(key)
        lb, vb, wb = dec.blocks[b]
        growth = np.exp(np.multiply.outer(taus, lb)) * keep
        flows = ((g[:, None] * vb)[None] * growth[:, None, :]) @ (wb / g[None, :])
        norms = np.maximum(norms, np.linalg.norm(flows, ord=2, axis=(1, 2)))
    return norms


def _fit_remainder_decay(rest: np.ndarray, remainder_norms) -> tuple[float, float]:
    """Fit ||S3(t)||_xi ~ C e^{-b t/eps^2} on a window set by the gap.

    ``rest`` are the eigenvalues left to the remainder; remainder_norms(taus)
    gives ||S3(tau eps^2)||_xi on the fit window.
    """
    if rest.size == 0:
        return float("nan"), float("nan")
    # decay rate per unit of diffusive time t/eps^2 is -Re(lambda) of the matrix
    gap = max(-rest.real.max(), 1e-12)
    taus = np.linspace(1.0 / gap, 18.0 / gap, 10)
    norms = np.asarray(remainder_norms(taus))
    good = norms > 1e-13
    if good.sum() < 3:
        return float("nan"), float("nan")
    coeff = np.polyfit(taus[good], np.log(norms[good]), 1)
    return float(-coeff[0]), float(math.exp(coeff[1]))


# ---------------------------------------------------------------------------
# resolvent probe on a dedicated product grid
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _probe_grid(n_r: int, n_c: int, lmax: int, r_max: float):
    xg, wg = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (xg + 1.0)
    wr2 = 0.5 * r_max * wg * r**2
    c, wc = np.polynomial.legendre.leggauss(n_c)
    phi = np.empty((lmax + 1, n_c))
    p_prev = np.ones_like(c)
    p_cur = c.copy()
    for l in range(lmax + 1):
        if l == 0:
            pl = p_prev
        elif l == 1:
            pl = p_cur
        else:
            p_next = ((2 * l - 1) * c * p_cur - (l - 1) * p_prev) / l
            p_prev, p_cur = p_cur, p_next
            pl = p_cur
        phi[l] = math.sqrt((2 * l + 1) / 2.0) * pl
    pc = phi * np.sqrt(wc)[None, :]

    ii, jj = np.meshgrid(np.arange(n_r), np.arange(n_r), indexing="ij")
    k1p, _ = _pair_kernel_moments(r[ii.ravel()], r[jj.ravel()], lmax, 16, 8)
    sw = np.sqrt(wr2)
    tables = []
    for l in range(lmax + 1):
        # one-sided gain: half the full gain kernel (see collision assembly)
        tables.append(0.5 * k1p[l].reshape(n_r, n_r) * np.outer(sw, sw))
    return r, wr2, c, wc, pc, tables


def resolvent_norm_probe(op: ModeOperator, lam: complex, n_r: int = 96,
                         n_c: int = 80, lmax: int = 48, r_max: float = 24.0,
                         iters: int = 120) -> float:
    """Operator norm of (one-sided gain) o (lam - streaming part)^{-1}.

    The streaming part is multiplication by -nu(v) - i*(eps*s)*v1; the grid is
    an (r, angle-cosine) product rule fine enough to resolve the resonant set,
    independent of the Galerkin basis.
    """
    r, wr2, c, wc, pc, tables = _probe_grid(n_r, n_c, lmax, r_max)
    w = op.eps * op.s
    denom = lam + _nu_of_r(r)[:, None] + 1j * w * r[:, None] * c[None, :]
    if np.min(np.abs(denom)) < 1e-10:
        raise ValueError(f"lambda {lam} is numerically on the streaming spectrum")
    inv = 1.0 / denom

    def forward(x):
        g = (x * inv) @ pc.T
        h = np.empty_like(g)
        for l in range(lmax + 1):
            h[:, l] = tables[l] @ g[:, l]
        return h @ pc

    def backward(y):
        g = y @ pc.T
        h = np.empty_like(g)
        for l in range(lmax + 1):
            h[:, l] = tables[l] @ g[:, l]
        return (h @ pc) * np.conj(inv)

    x = np.full((n_r, n_c), 1.0 + 0.1j, dtype=complex)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(iters):
        y = forward(x)
        new_sigma = np.linalg.norm(y)
        x = backward(y)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return 0.0
        x /= nx
        if abs(new_sigma - sigma) < 1e-10 * max(new_sigma, 1e-300):
            sigma = new_sigma
            break
        sigma = new_sigma
    return float(sigma)
