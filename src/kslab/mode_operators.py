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
and gives each operator one record per block: views into the stacks, or the
block's Schur form when its eigenvectors are too ill-conditioned: when the
Frobenius product ||V_b||_F ||V_b^{-1}||_F, an upper bound on cond_2(V_b)
taken from the inverse the eig record needs anyway, reaches
_EIG_COND_LIMIT.  spectrum takes its residuals per block, and the
semigroup split marks the eigenvalues it takes into S1/S2 with a mask per
block copy, m, and a projector P_b per Schur block.

_block_flow is the one apply of the semigroup, e^{tau A} u0 =
V_b diag(e^{tau lam}) V_b^{-1} u0 or Z_b e^{tau T_b} Z_b^H u0 on every block
copy, for one operator (propagate), each chunk of a mode grid
(convergence_lab._evolve_grid) and the remainder of a split
(_remainder_flow): e^{tau A} S3 u0 is _block_flow on the columns off the
mask, V_b diag(e^{tau lam} (1 - m)) V_b^{-1} u0, from (I - P_b) u0 on a Schur
block.  The results are checked with the one contraction guard,
_contraction_violations.  The remainder norms take the same two forms as
operators, so the remainder fit needs no dense matrix.

The dense generator (ModeOperator.matrix) and the split's S1_part, S2_part
and S3_part are views for callers outside the package (tests and benchmark
checks compare them with dense references), assembled from the blocks when
asked for; the package itself reads none.

Each block carries its parity phases, one per row: i^l by the Legendre
degree l of a kinetic row, i on the X and 1 on the Y row of the field block.
With D = diag(phase) the block is D T D^{-1} with T real (_real_frame), the
collision part being real and diagonal in l and the streaming coupling l to
l +- 1.  The eig records stay complex; the remainder norms of an eig copy run
in real arithmetic on Re(D^{-1} G^{1/2} V E V^{-1} G^{-1/2} D) when the
block is real in its frame and the copy's branch mask is closed under
conjugation, and take the complex product otherwise (a block built without
phases, or a mask that splits a conjugate pair).

Bad input fails at the boundary with ValueError, the module's documented
error: non-numeric, boolean or non-finite wave numbers, a negative eps,
collision data that is not CollisionMatrices, an operator argument that is
not a ModeOperator, and bad states, times, metrics (the array predicates
velocity_basis._finite_array, _finite_complex_array) and spectral parameters.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm, schur, solve_sylvester

from .collision_ops import CollisionMatrices, _nu_of_r, reduced_kernel_tables
from .velocity_basis import (
    SECTOR_AXIAL, SECTOR_TRANSVERSE, _check_record, _finite, _finite_array, _finite_complex,
    _finite_complex_array, _frozen, _gauss_legendre, _legendre_row, v_multiplication_matrix,
)

KIND_BOLTZMANN = "boltzmann"
KIND_VMB = "vmb"

_EIG_COND_LIMIT = 1e8
# split regimes: low while the streaming load is at most _SPLIT_R0, high (VMB
# only) once eps*s reaches _SPLIT_R1; the low regime takes _N_FLUID branches
_SPLIT_R0 = 0.1
_SPLIT_R1 = 10.0
_N_FLUID = 5


class PropagationError(RuntimeError):
    """Raised when the matrix exponential fails its contraction guard."""


@dataclass(frozen=True)
class SectorBlock:
    """One diagonal block of a mode generator and the copies of it.

    Each copy is (index, sign): the block sits on rows and columns ``index``
    of the dense layout, conjugated by diag(sign) with sign entries +-1.
    ``phase`` holds one unit phase per row, D = diag(phase), such that
    D^{-1} A_b D is real for the generators built here (see _real_frame); a
    block built without phases carries ones.
    """

    matrix: np.ndarray
    copies: tuple
    phase: np.ndarray | None = None

    def __post_init__(self):
        if self.phase is None:
            object.__setattr__(self, "phase", np.ones(self.matrix.shape[0]))


def _copy(index: np.ndarray, sign: np.ndarray | None = None) -> tuple:
    """A read-only (index, sign) copy: every operator on a basis shares it."""
    return _frozen(index), _frozen(np.ones(index.size) if sign is None else sign)


class ModeOperator:
    """One mode generator, held as its sector blocks.

    ``blocks`` is a nonempty sequence of SectorBlock whose copies tile the
    dense layout; ``metric_diag`` holds one finite positive weight per row.
    Raises ValueError for anything else, and for a non-finite s or eps or a
    negative eps.  The assemblers of this module, which check their own
    arguments and build valid blocks and metrics, skip these checks
    (_assembled).
    """

    def __init__(self, kind: str, s: float, eps: float, metric_diag: np.ndarray,
                 collision: CollisionMatrices, blocks):
        _check_mode_args(s, eps, collision)
        if kind not in (KIND_BOLTZMANN, KIND_VMB):
            raise ValueError(f"kind must be {KIND_BOLTZMANN!r} or {KIND_VMB!r}, got {kind!r}")
        blocks = tuple(blocks)
        if not blocks or not all(isinstance(b, SectorBlock) for b in blocks):
            raise ValueError("blocks must be a nonempty sequence of SectorBlock")
        self._fill(kind, s, eps, metric_diag, collision, blocks)
        if not (_finite_array(metric_diag) and np.shape(metric_diag) == (self.dim,)
                and np.all(np.asarray(metric_diag) > 0)):
            raise ValueError(f"metric_diag must hold {self.dim} finite positive weights")

    @classmethod
    def _assembled(cls, kind: str, s: float, eps: float, metric_diag: np.ndarray,
                   collision: CollisionMatrices, blocks: tuple) -> "ModeOperator":
        """An operator from an assembler of this module, which checked its arguments."""
        op = cls.__new__(cls)
        op._fill(kind, s, eps, metric_diag, collision, blocks)
        return op

    def _fill(self, kind, s, eps, metric_diag, collision, blocks) -> None:
        self.kind = kind
        self.s = s
        self.eps = eps
        self.metric_diag = metric_diag
        self.collision = collision
        self.blocks = blocks
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

    def weighted_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.real(np.vdot(u, self.metric_diag * u))))

    def weighted_inner(self, u: np.ndarray, w: np.ndarray) -> complex:
        return complex(np.vdot(w, self.metric_diag * u))


def _check_mode_args(s: float, eps: float, cm: CollisionMatrices) -> None:
    if not (_finite(s) and _finite(eps)):
        raise ValueError(f"s and eps must be finite real numbers, got s={s!r}, eps={eps!r}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_record(cm, CollisionMatrices, ValueError)


class _Layout(NamedTuple):
    """What every mode generator on one basis shares: the block copies and the
    coupling vectors.  Built once per basis (_layout); read-only."""

    axial: tuple         # copies of the axial block
    transverse: tuple    # copies of the kinetic transverse block
    field: tuple         # copies of the electromagnetic transverse block
    charge: np.ndarray   # outer(v0 chi0, chi0): the axial charge coupling
    chi2: np.ndarray     # the transverse momentum coupled to the X field
    axial_phase: np.ndarray       # i^l by Legendre degree
    transverse_phase: np.ndarray  # i^l by Legendre degree
    field_phase: np.ndarray       # i^l, then i on X and 1 on Y


def _parity_phase(degrees: np.ndarray) -> np.ndarray:
    """i^l for each degree l, exactly."""
    return np.array([1.0, 1j, -1.0, -1j])[degrees % 4]


def _layout(basis) -> _Layout:
    """The basis's _Layout, cached beside its v-multiplication matrices."""
    key = ("mode_layout",)
    if key not in basis._v_cache:
        n0, n1 = basis.dim0, basis.dim1
        nr, lmax = basis.spec.radial_order, basis.spec.angular_max
        ix2, ix3, iy2, iy3 = (n0 + 2 * n1 + k for k in range(4))
        chi0 = np.zeros(n0)
        chi0[0] = 1.0
        chi2 = np.zeros(n1)
        chi2[0] = 1.0
        flip_x = np.ones(n1 + 2)
        flip_x[n1] = -1.0
        charge = np.outer(v_multiplication_matrix(basis, SECTOR_AXIAL) @ chi0, chi0)
        transverse_phase = _parity_phase(np.repeat(np.arange(1, lmax + 1), nr))
        basis._v_cache[key] = _Layout(
            (_copy(np.arange(n0)),),
            (_copy(np.arange(n0, n0 + n1)), _copy(np.arange(n0 + n1, n0 + 2 * n1))),
            (_copy(np.r_[n0:n0 + n1, ix3, iy2]),
             _copy(np.r_[n0 + n1:n0 + 2 * n1, ix2, iy3], flip_x)),
            *map(_frozen, (charge, chi2, _parity_phase(np.repeat(np.arange(lmax + 1), nr)),
                           transverse_phase, np.r_[transverse_phase, 1j, 1.0])),
        )
    return basis._v_cache[key]


def assemble_B(s: float, eps: float, cm: CollisionMatrices) -> ModeOperator:
    """Kinetic-only mode generator L - i*eps*s*(v along the wave axis)."""
    _check_mode_args(s, eps, cm)
    if s < 0:
        raise ValueError("s must be nonnegative")
    basis = cm.basis
    layout = _layout(basis)
    w = eps * s
    axial = cm.L_sector[SECTOR_AXIAL] - 1j * w * v_multiplication_matrix(basis, SECTOR_AXIAL)
    trans = (cm.L_sector[SECTOR_TRANSVERSE]
             - 1j * w * v_multiplication_matrix(basis, SECTOR_TRANSVERSE))
    blocks = (SectorBlock(axial, layout.axial, layout.axial_phase),
              SectorBlock(trans, layout.transverse, layout.transverse_phase))
    return ModeOperator._assembled(KIND_BOLTZMANN, s, eps, np.ones(basis.dim), cm, blocks)


def assemble_A_tilde(s: float, eps: float, cm: CollisionMatrices) -> ModeOperator:
    """Electromagnetic mode generator on (kinetic, E-transverse, B-transverse).

    The transverse block acts on (cos, X3, Y2); the sine copy (sin, X2, Y3)
    is the same block with the sign of its X component flipped.
    """
    _check_mode_args(s, eps, cm)
    if s <= 0:
        raise ValueError("s must be positive for the electromagnetic operator")
    basis = cm.basis
    layout = _layout(basis)
    n1 = basis.dim1

    axial = (cm.L1_sector[SECTOR_AXIAL]
             - 1j * eps * s * v_multiplication_matrix(basis, SECTOR_AXIAL))
    axial -= 1j * (eps / s) * layout.charge

    trans = np.zeros((n1 + 2, n1 + 2), dtype=complex)
    trans[:n1, :n1] = (cm.L1_sector[SECTOR_TRANSVERSE]
                       - 1j * eps * s * v_multiplication_matrix(basis, SECTOR_TRANSVERSE))
    trans[:n1, n1] = eps * layout.chi2
    trans[n1, :n1] = -eps * layout.chi2
    trans[n1, n1 + 1] = 1j * eps**2 * s
    trans[n1 + 1, n1] = 1j * eps**2 * s

    blocks = (SectorBlock(axial, layout.axial, layout.axial_phase),
              SectorBlock(trans, layout.field, layout.field_phase))
    metric = np.ones(basis.dim + 4)
    metric[0] = 1.0 + 1.0 / s**2
    return ModeOperator._assembled(KIND_VMB, s, eps, metric, cm, blocks)


# a block is real in its parity frame when max|Im T| <= _REAL_FRAME_TOL * max|T|
_REAL_FRAME_TOL = 1e-12


def _real_frame(block: SectorBlock) -> np.ndarray | None:
    """The block in its parity frame, T = D^{-1} A_b D with D = diag(phase), as a
    real matrix; None when T is not real to _REAL_FRAME_TOL.

    Inside a sector the collision part is real and block-diagonal in the
    Legendre degree l and -i w v couples l to l +- 1, so the phases i^l (and
    i on X, 1 on Y for the field rows) leave every generator block real up to
    the quadrature rounding in its analytically zero entries.
    """
    t = block.matrix * np.outer(block.phase.conj(), block.phase)
    if np.abs(t.imag).max(initial=0.0) > _REAL_FRAME_TOL * np.abs(t).max(initial=0.0):
        return None
    return t.real


def _conjugate_partners(lam: np.ndarray) -> np.ndarray:
    """For each eigenvalue, the index of the one nearest its conjugate."""
    return np.argmin(np.abs(lam[:, None] - lam.conj()[None, :]), axis=1)


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def _stacked_inverse(vr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (n, k, k) stack and their Frobenius norms.  A member that
    is exactly singular keeps a zero inverse and gets an infinite norm."""
    singular = np.zeros(len(vr), dtype=bool)
    try:
        vinv = np.linalg.inv(vr)
    except np.linalg.LinAlgError:
        vinv = np.zeros_like(vr)
        for i, v in enumerate(vr):
            try:
                vinv[i] = np.linalg.inv(v)
            except np.linalg.LinAlgError:
                singular[i] = True
    # over the real and imaginary parts, where squares can only overflow to inf
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vinv.reshape(len(vr), -1).view(float), axis=1)
    norms[singular] = np.inf
    return vinv, norms


def _decompose_stacked(ops: list[ModeOperator]):
    """Decompose operators sharing one block layout, one stacked eig per block.

    Every operator gets its own _Decomposition: per block views into the
    stacks, or the block's Schur form when its eigenvectors are past
    _EIG_COND_LIMIT.  The gate costs one stacked inverse, which the eig
    records need anyway: LAPACK's eigenvectors are unit columns, so a k-dim
    block has ||V_b||_F = sqrt(k), and sqrt(k) ||V_b^{-1}||_F >= cond_2(V_b)
    is the bound the gate takes (an exactly singular V_b has an infinite
    one).  The reported condition is max_b sqrt(k_b) * max_b ||V_b^{-1}||_F,
    an upper bound on cond_2 of the block-diagonal eigenvector matrix.
    Returns per block the stacked (eigenvalues, right eigenvectors, their
    inverses); the inverses of the Schur records are zeros.
    """
    parts, vec_norms, inv_norms = [], [], []
    for b in range(len(ops[0].blocks)):
        lam, vr = np.linalg.eig(np.stack([op.blocks[b].matrix for op in ops]))
        vinv, norm = _stacked_inverse(vr)
        parts.append((lam, vr, vinv))
        vec_norms.append(math.sqrt(lam.shape[1]))
        inv_norms.append(norm)
    inv_norms = np.stack(inv_norms, axis=1)
    ok = np.asarray(vec_norms) * inv_norms < _EIG_COND_LIMIT
    cond = max(vec_norms) * inv_norms.max(axis=1)
    for (_, _, vinv), ok_b in zip(parts, ok.T):
        vinv[~ok_b] = 0.0
    lam = np.concatenate([np.tile(lb, (1, len(block.copies)))
                          for (lb, _, _), block in zip(parts, ops[0].blocks)], axis=1)
    for i, op in enumerate(ops):
        blocks = tuple((lb[i], vb[i], wb[i]) if ok[i, b]
                       else (lb[i], *schur(op.blocks[b].matrix, output="complex"))
                       for b, (lb, vb, wb) in enumerate(parts))
        op._decomp = _Decomposition("eig" if ok[i].all() else "schur", float(cond[i]),
                                    lam[i], blocks, tuple((~ok[i]).tolist()))
    return parts


class _Decomposition(NamedTuple):
    """A generator's decomposition, one record per sector block.

    ``blocks`` holds per block (eigenvalues, right vectors, inverse), or,
    where ``schur`` marks it, (eigenvalues, T, Z) of the block's complex
    Schur form A_b = Z T Z^H.  The columns run block by block and, within a
    block, copy by copy: ``lam`` holds the eigenvalue of every column (a
    block's copies repeat its eigenvalues).
    """

    path: str                 # "schur" when any block fell back, else "eig"
    cond: float
    lam: np.ndarray
    blocks: tuple
    schur: tuple


def _decomposition(op: ModeOperator) -> _Decomposition:
    """The operator's decomposition, computed by _decompose_stacked on first use."""
    if op._decomp is None:
        _decompose_stacked([op])
    return op._decomp


def _by_column(op: ModeOperator, per_block) -> np.ndarray:
    """Per-block values laid out over the columns, once per copy."""
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


def _dense_vectors(op: ModeOperator, vectors, cols: np.ndarray):
    """Right eigenvectors (as columns) and inverse rows of the given columns, dense,
    from per-block (right vectors, inverse); None leaves a block's entries zero."""
    right = np.zeros((op.dim, cols.size), dtype=complex)
    left = np.zeros((cols.size, op.dim), dtype=complex)
    for b, idx, sign, span in _copy_columns(op):
        if vectors[b] is None:
            continue
        vb, wb = vectors[b]
        hit = np.flatnonzero((cols >= span.start) & (cols < span.stop))
        local = cols[hit] - span.start
        right[np.ix_(idx, hit)] = sign[:, None] * vb[:, local]
        if wb is not None:
            left[np.ix_(hit, idx)] = wb[local] * sign[None, :]
    return right, left


def eigenvalues(op: ModeOperator) -> np.ndarray:
    """All eigenvalues, by descending real part, then ascending imaginary part."""
    lam = _decomposition(op).lam
    return lam[_spectral_order(lam)]


def eigen_condition(op: ModeOperator) -> float:
    """Upper bound on the 2-norm condition number of the eigenvectors (see
    _decompose_stacked)."""
    return _decomposition(op).cond


def spectrum(op: ModeOperator):
    """Eigenvalues sorted by descending real part, vectors, and residuals.

    The residuals are computed per block; a block's copies share them, since
    a signature conjugation preserves the column norms.  A Schur block takes
    its eigenvectors from an eig of the block itself.
    """
    _check_record(op, ModeOperator, ValueError)
    dec = _decomposition(op)
    pairs = [np.linalg.eig(block.matrix) if s else rec[:2]
             for block, rec, s in zip(op.blocks, dec.blocks, dec.schur)]
    res = _by_column(op, [
        np.linalg.norm(block.matrix @ vb - vb * lb[None, :], axis=0) / np.linalg.norm(vb, axis=0)
        for block, (lb, vb) in zip(op.blocks, pairs)])
    lam = _by_column(op, [lb for lb, _ in pairs])
    order = _spectral_order(lam)
    vr, _ = _dense_vectors(op, [(vb, None) for _, vb in pairs], order)
    return lam[order], vr, res[order]


def _schur_flow(t: np.ndarray, z: np.ndarray, taus) -> np.ndarray:
    """(n_t, k, k) flows Z e^{tau T} Z^H of a Schur record, one per tau."""
    return np.array([z @ expm(tau * t) @ z.conj().T for tau in taus],
                    dtype=complex).reshape(len(taus), *t.shape)


def _stacks_of_one(dec: _Decomposition) -> list:
    """One operator's eig records as the stacks _block_flow takes: stacks of
    one, and None on its Schur blocks."""
    return [None if s else (lb[None], vb[None], wb[None])
            for (lb, vb, wb), s in zip(dec.blocks, dec.schur)]


def _block_flow(ops: list[ModeOperator], parts, states0: np.ndarray,
                taus: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """(n, n_t, dim) states e^{tau A} u0 of n operators sharing one block layout.

    ``parts`` holds per block the stacked (eigenvalues, right vectors,
    inverses) of _decompose_stacked, or None if no operator has an eig record
    there; ``states0`` the (n, dim) initial states.  Schur records flow as
    Z e^{tau T} Z^H.  ``keep``, an (n, dim) mask over the columns (see
    _Decomposition), restricts each eig copy to its kept columns,
    V (e^{tau lam} keep V^{-1} u0), so a dropped column leaves no rounding
    residue; it leaves the Schur records alone.
    """
    n = len(states0)
    out = np.zeros((n, len(taus), states0.shape[1]), dtype=complex)
    col = 0
    for b, block in enumerate(ops[0].blocks):
        k, n_copies = block.matrix.shape[0], len(block.copies)
        if parts[b] is not None:
            lam, vr, vinv = parts[b]
            growth = np.exp(taus[None, :, None] * lam[:, None, :])
            vr_t = np.swapaxes(vr, 1, 2)
            if keep is not None:
                kept = keep[:, col:col + k * n_copies].reshape(n, n_copies, 1, k)
            for c, (idx, sign) in enumerate(block.copies):
                coef = (vinv @ (states0[:, idx] * sign)[:, :, None])[:, None, :, 0]
                g = growth if keep is None else growth * kept[:, c]
                out[:, :, idx] = ((g * coef) @ vr_t) * sign
        for i, op in enumerate(ops):
            if op._decomp.schur[b]:
                flow = _schur_flow(*op._decomp.blocks[b][1:], taus)
                for idx, sign in block.copies:
                    out[i][:, idx] = (flow @ (states0[i, idx] * sign)) * sign
        col += k * n_copies
    return out


def _contraction_violations(metric: np.ndarray, states0: np.ndarray,
                            states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Growth of the weighted norm per operator, and where it breaks contraction.

    ``metric`` and ``states0`` are (n, dim), ``states`` (n, n_t, dim); the
    growth is the largest norm over the times divided by the initial norm.  A
    non-finite norm counts as a violation.
    """
    n0 = np.sqrt(np.sum(metric * np.abs(states0) ** 2, axis=-1))
    n1 = np.sqrt(np.max(np.sum(metric[:, None] * np.abs(states) ** 2, axis=-1), axis=-1,
                        initial=0.0))
    return n1 / np.maximum(n0, 1e-300), ~(n1 <= n0 * (1.0 + 1e-6) + 1e-12)


def propagate(op: ModeOperator, u0: np.ndarray, t) -> np.ndarray:
    """e^{(t/eps^2) A} u0 at a time t, or at each time of a 1-D array (rows).

    Raises ValueError for a state that is not a finite numeric vector of
    length op.dim, for a time that is not a finite nonnegative number or 1-D
    array of them, and for eps = 0; PropagationError when the result breaks
    contraction in the weighted norm.
    """
    _check_record(op, ModeOperator, ValueError)
    if not _finite_complex_array(u0):
        raise ValueError("state must be finite numbers")
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (op.dim,):
        raise ValueError(f"state length {u0.shape} does not match operator dim {op.dim}")
    if not op.eps > 0:
        raise ValueError(f"the diffusive-time semigroup needs eps > 0, got eps={op.eps!r}")
    if not (_finite_array(t) and np.ndim(t) <= 1):
        raise ValueError(f"time must be a finite number or a 1-D array of them, got {t!r}")
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("time must be nonnegative")
    dec = _decomposition(op)
    out = _block_flow([op], _stacks_of_one(dec), u0[None], np.atleast_1d(times) / op.eps**2)[0]
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

    ``branch_mask`` marks the columns (see _Decomposition) whose eigenvalues
    go to S1 (low regime) or S2 (high regime); it is per block copy, so one
    copy of a degenerate pair can be taken without the other.  A Schur block
    takes its branch on every copy with the spectral projector
    ``schur_projectors[b]`` of its reordered Schur form.  The remainder fit
    and every S*_part come from the blocks: S1_part, S2_part and S3_part =
    I - S1_part - S2_part are dense views, built on first access.
    """

    op: ModeOperator
    regime: str                       # low | high | mid
    measured_gap_b: float
    fit_C: float
    defective: bool
    branch_mask: np.ndarray
    schur_projectors: tuple           # per block: branch projector, or None

    @functools.cached_property
    def _branch_parts(self) -> tuple[np.ndarray, np.ndarray]:
        dec = _decomposition(self.op)
        right, left = _dense_vectors(self.op, [None if s else rec[1:] for rec, s in zip(
            dec.blocks, dec.schur)], np.flatnonzero(self.branch_mask))
        branch = right @ left
        for b, idx, sign, _ in _copy_columns(self.op):
            if dec.schur[b]:
                branch[np.ix_(idx, idx)] = sign[:, None] * self.schur_projectors[b] * sign[None, :]
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


def split_regime(op: ModeOperator) -> str:
    load = op.eps * (1.0 + op.s) if op.kind == KIND_VMB else op.eps * op.s
    if load <= _SPLIT_R0:
        return "low"
    if op.kind == KIND_VMB and op.eps * op.s >= _SPLIT_R1:
        return "high"
    return "mid"


def semigroup_split(op: ModeOperator) -> SemigroupSplit:
    """Split by regime: S1 takes the top _N_FLUID eigenvalues over all block
    copies (low), S2 those above -mu/2 (high).  A Schur block's projector
    takes each of its eigenvalues down to the lowest one taken, less 1e-12.
    """
    _check_record(op, ModeOperator, ValueError)
    regime = split_regime(op)
    dec = _decomposition(op)
    lam = dec.lam
    order = _spectral_order(lam)
    mask = np.zeros(op.dim, dtype=bool)
    if regime == "low":
        mask[order[:_N_FLUID]] = True
    elif regime == "high":
        mask = lam.real >= -0.5 * op.collision.mu_estimate
    cut = lam[mask].real.min(initial=np.inf) - 1e-12
    schur_cols = _by_column(op, [np.full(rec[0].size, s) for rec, s in zip(dec.blocks, dec.schur)])
    mask[schur_cols] = lam[schur_cols].real >= cut
    projectors = tuple(_schur_projector(block.matrix, lambda z: z.real >= cut)[0] if s else None
                       for block, s in zip(op.blocks, dec.schur))
    b, c_fit = _fit_remainder_decay(
        lam[~mask], lambda taus: _remainder_norms(op, mask, projectors, taus))
    return SemigroupSplit(op=op, regime=regime, measured_gap_b=b, fit_C=c_fit,
                          defective=dec.path == "schur",
                          branch_mask=mask, schur_projectors=projectors)


def _remainder_norms(op: ModeOperator, mask: np.ndarray, projectors,
                     taus: np.ndarray) -> np.ndarray:
    """||e^{tau A} S3||_xi at each tau, from the blocks.

    On an eig copy e^{tau A} S3 = V diag(e^{tau lam} (1 - m)) V^{-1}, with m
    the copy's slice of the branch mask; on a Schur copy it is
    Z e^{tau T} Z^H (I - P), with P the block's projector in ``projectors``.
    The weighted norm is the largest over the copies.  A copy that repeats an
    earlier copy's mask and metric has the same norm (the signature
    conjugation between them is orthogonal) and is skipped.

    An eig copy takes the real path when its block is real in its parity
    frame D (_real_frame) and its mask is closed under conjugation: every
    eigenvalue's conjugate partner in the block is taken or left with it.
    Then D^{-1} G^{1/2} V diag(e^{tau lam} (1 - m)) V^{-1} G^{-1/2} D is a
    function of the real T restricted to a conjugation-closed set, so it is
    real up to rounding; its real part is formed one tau at a time by two
    real matmuls, and its real 2-norm is the copy's norm, since the unitary
    diagonal D leaves the 2-norm unchanged.  Every other eig copy forms the
    complex product and its complex 2-norm.
    """
    dec = _decomposition(op)
    gh = np.sqrt(op.metric_diag)
    norms = np.zeros(len(taus))
    partners = {}
    seen = set()
    for b, idx, _, cols in _copy_columns(op):
        keep, g = ~mask[cols], gh[idx]
        key = (b, keep.tobytes(), g.tobytes())
        if key in seen:
            continue
        seen.add(key)
        lb, x, y = dec.blocks[b]
        if dec.schur[b]:
            flows = (g[:, None] * _schur_flow(x, y, taus) @ (np.eye(lb.size) - projectors[b])
                     / g[None, :])
            norms = np.maximum(norms, np.linalg.norm(flows, ord=2, axis=(1, 2)))
            continue
        if b not in partners:
            partners[b] = (None if _real_frame(op.blocks[b]) is None
                           else _conjugate_partners(lb))
        if partners[b] is not None and np.array_equal(keep[partners[b]], keep):
            phase = op.blocks[b].phase
            norms = np.maximum(norms, _real_frame_norms(
                (g * phase.conj())[:, None] * x, (y / g[None, :]) * phase[None, :],
                lb, keep, taus))
        else:
            growth = np.exp(np.multiply.outer(taus, lb)) * keep
            flows = ((g[:, None] * x)[None] * growth[:, None, :]) @ (y / g[None, :])
            norms = np.maximum(norms, np.linalg.norm(flows, ord=2, axis=(1, 2)))
    return norms


def _real_frame_norms(left: np.ndarray, right: np.ndarray, lam: np.ndarray,
                      keep: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """||Re(left diag(e^{tau lam} keep) right)||_2 at each tau, in real arithmetic:
    Re(X E) Re(Y) - Im(X E) Im(Y), one tau at a time."""
    xr, xi = left.real.copy(), left.imag.copy()
    yr, yi = right.real.copy(), right.imag.copy()
    out = np.empty(len(taus))
    for t, tau in enumerate(taus):
        e = np.exp(tau * lam) * keep
        flow = (xr * e.real - xi * e.imag) @ yr
        flow -= (xr * e.imag + xi * e.real) @ yi
        out[t] = np.linalg.norm(flow, ord=2)
    return out


def _remainder_flow(split: SemigroupSplit, u0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """(n_t, dim) states e^{tau A} S3 u0 by _block_flow: a Schur copy starts
    from (I - P) u0, and an eig copy keeps the columns off the branch mask."""
    dec = _decomposition(split.op)
    start = np.array(u0, dtype=complex)
    for b, idx, sign, _ in _copy_columns(split.op):
        if dec.schur[b]:
            u = u0[idx] * sign
            start[idx] = (u - split.schur_projectors[b] @ u) * sign
    return _block_flow([split.op], _stacks_of_one(dec), start[None], taus,
                       ~split.branch_mask[None])[0]


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

# the probe's (r, angle-cosine) product grid on [0, _PROBE_R_MAX] x [-1, 1],
# the Legendre degrees it resolves, and the power iteration's step limit
_PROBE_N_R = 96
_PROBE_N_C = 80
_PROBE_LMAX = 48
_PROBE_R_MAX = 24.0
_PROBE_ITERS = 120


@functools.cache
def _probe_grid():
    """Nodes r and c, the weighted Legendre rows (degree, c) and the weighted
    one-sided gain tables (degree, r, r) of the probe."""
    r, wr = _gauss_legendre(_PROBE_N_R, _PROBE_R_MAX)
    sw = np.sqrt(wr * r**2)
    c, wc = np.polynomial.legendre.leggauss(_PROBE_N_C)
    pc = np.stack([_legendre_row(l, 0, c) for l in range(_PROBE_LMAX + 1)]) * np.sqrt(wc)
    k1_tab, _ = reduced_kernel_tables(r, _PROBE_LMAX, 16)
    # one-sided gain: half the full gain kernel (see collision assembly)
    return r, c, pc, 0.5 * k1_tab * np.outer(sw, sw)


def resolvent_norm_probe(op: ModeOperator, lam: complex) -> float:
    """Operator norm of (one-sided gain) o (lam - streaming part)^{-1}.

    The streaming part is multiplication by -nu(v) - i*(eps*s)*v1; the grid is
    an (r, angle-cosine) product rule fine enough to resolve the resonant set,
    independent of the Galerkin basis.  The gain is reduced per Legendre degree
    with the basis's own building blocks: the Legendre rows of
    velocity_basis._legendre_row and the kernel tables of
    collision_ops.reduced_kernel_tables.  Being real and symmetric, it is its
    own adjoint, so the power iteration applies one gain both ways.  Raises
    ValueError for a lam that is not a finite number.
    """
    _check_record(op, ModeOperator, ValueError)
    if not _finite_complex(lam):
        raise ValueError(f"lambda must be a finite number, got {lam!r}")
    r, c, pc, tables = _probe_grid()
    w = op.eps * op.s
    denom = lam + _nu_of_r(r)[:, None] + 1j * w * r[:, None] * c[None, :]
    if np.min(np.abs(denom)) < 1e-10:
        raise ValueError(f"lambda {lam} is numerically on the streaming spectrum")
    inv = 1.0 / denom

    def gain(g):
        h = np.empty_like(g)
        for l, table in enumerate(tables):
            h[:, l] = table @ g[:, l]
        return h @ pc

    x = np.full((r.size, c.size), 1.0 + 0.1j, dtype=complex)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(_PROBE_ITERS):
        y = gain((x * inv) @ pc.T)
        new_sigma = np.linalg.norm(y)
        x = gain(y @ pc.T) * np.conj(inv)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return 0.0
        x /= nx
        if abs(new_sigma - sigma) < 1e-10 * max(new_sigma, 1e-300):
            sigma = new_sigma
            break
        sigma = new_sigma
    return float(sigma)
