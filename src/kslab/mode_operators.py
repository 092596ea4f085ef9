"""Per-mode generators for the kinetic and kinetic-electromagnetic systems.

With the wave vector rotated onto the first axis, one Fourier mode carries a
kinetic state (axial sector plus a cosine and a sine transverse copy) and, in
the electromagnetic case, the four transverse field components.  Both
generators are block-diagonal, and a ModeOperator holds only its sector
blocks: the axial block, and one transverse block that fills the cosine copy
and, conjugated by a signature matrix, the sine copy.  In the
electromagnetic generator the transverse block also carries two field
components, (cos, X3, Y2) and (sin, X2, Y3).

On top of the blocks: the semigroup (in diffusive time t / eps^2) and its
split into fluid branches, an oscillatory high-frequency part and an
exponentially damped remainder.

The blocks are the only generator form, and a _Decomposition is the only
decomposition form: one value over a list of n operators that share a block
layout, per block the stacks (eigenvalues, right vectors, inverses), which
_decompose_stacked returns from one stacked eig per block and writes on no
operator.  One operator's decomposition is the case n = 1, cached on the
operator by _decomposition; the single-operator readers take its member 0.
A member's block falls back when the Frobenius product
||V_b||_F ||V_b^{-1}||_F, an upper bound on cond_2(V_b), reaches
_EIG_COND_LIMIT; it keeps the eig pair with zero inverse rows,
(lam_b, V_b, 0), and only the decomposition's ``schur`` flags mark it.
spectrum reads the eig pair of every block, and the semigroup split marks
the eigenvalues it takes into S1/S2 with a mask per block copy, m, and a
projector P_b per fallback block.

_block_flow is the one apply of the semigroup, e^{tau A} u0 =
V_b diag(e^{tau lam}) V_b^{-1} u0 on an eig block copy and e^{tau A_b} u0 by
scaling and squaring (_fallback_flow) on a fallback block, and applies the
decomposition it is handed.  Its states are (n_t, n, dim), times first, the
layout the reducers of convergence_lab._evolve_grid read, so a chunk of a
mode grid goes to them uncopied.  It serves one operator (propagate), each
chunk of a mode grid, which convergence_lab._evolve_grid decomposes with
_decompose_stacked, and the remainder of a split (_remainder_flow):
V_b diag(e^{tau lam} (1 - m)) V_b^{-1} u0, from (I - P_b) u0 on a fallback
block.  The results are checked with the one contraction guard,
_contraction_violations, and the remainder norms read the same
decomposition.  Only _fallback_flow and _schur_projector import scipy.linalg.

The dense generator (ModeOperator.matrix) and the split's S1_part, S2_part
and S3_part are views for callers outside the package (tests and benchmark
checks compare them with dense references), assembled from the blocks when
asked for; the package itself reads none.

Each block carries its parity phases, one per row: i^l by the Legendre
degree l of a kinetic row, i on the X and 1 on the Y row of the field block.
With D = diag(phase) the block is D T D^{-1} with T real (_real_frame), the
collision part being real and diagonal in l and the streaming coupling l to
l +- 1.  The eig pairs stay complex; the remainder norms of an eig copy run
in real arithmetic on Re(D^{-1} G^{1/2} V E V^{-1} G^{-1/2} D) when the
block is real in its frame and the copy's branch mask is closed under
conjugation, and take the complex product otherwise (a block that its
phases do not make real, or a mask that splits a conjugate pair).

Bad input fails at the boundary with ValueError, the module's documented
error: non-numeric, boolean or non-finite wave numbers, a negative eps,
finite s and eps whose generator coefficients are not finite (the streaming
load eps s max|v| of every generator, and 1/s^2, eps/s and eps^2 s of the
electromagnetic one), collision data that is not CollisionMatrices, an
operator argument that is not a ModeOperator, blocks given to ModeOperator
that break the SectorBlock rules (_check_block) or do not tile the layout,
and bad states, times and metrics (the array predicates
velocity_basis._finite_array, _finite_complex_array).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .collision_ops import CollisionMatrices
from .velocity_basis import (
    _MIN_FIT_POINTS, SECTOR_AXIAL, SECTOR_TRANSVERSE, _check_record, _finite, _finite_array,
    _finite_complex_array, _frozen, _line_fit, v_multiplication_matrix,
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
    D^{-1} A_b D is real for the generators built here (see _real_frame).
    """

    matrix: np.ndarray
    copies: tuple
    phase: np.ndarray


def _copy(index: np.ndarray, sign: np.ndarray | None = None) -> tuple:
    """A read-only (index, sign) copy: every operator on a basis shares it."""
    return _frozen(index), _frozen(np.ones(index.size) if sign is None else sign)


class ModeOperator:
    """One mode generator, held as its sector blocks.

    ``blocks`` is a nonempty sequence of SectorBlock, each a valid block
    (_check_block), whose copies tile the dense layout: their indices
    together hold every row 0 .. dim - 1 once.  ``metric_diag`` holds one
    finite positive weight per row.  Raises ValueError for anything else,
    and for a non-finite s or eps or a negative eps.  The assemblers of this
    module, which check their own arguments and build valid blocks and
    metrics, skip these checks (_assembled).
    """

    def __init__(self, kind: str, s: float, eps: float, metric_diag: np.ndarray,
                 collision: CollisionMatrices, blocks):
        _check_mode_args(s, eps, collision)
        if kind not in (KIND_BOLTZMANN, KIND_VMB):
            raise ValueError(f"kind must be {KIND_BOLTZMANN!r} or {KIND_VMB!r}, got {kind!r}")
        blocks = tuple(blocks)
        if not blocks or not all(isinstance(b, SectorBlock) for b in blocks):
            raise ValueError("blocks must be a nonempty sequence of SectorBlock")
        for b in blocks:
            _check_block(b)
        self._fill(kind, s, eps, metric_diag, collision, blocks)
        rows = np.sort(np.concatenate([idx for b in blocks for idx, _ in b.copies]))
        if not np.array_equal(rows, np.arange(self.dim)):
            raise ValueError(f"the block copies must cover the rows 0 .. {self.dim - 1} once each")
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


def _check_block(block: SectorBlock) -> None:
    """A caller's block: a finite square ndarray of size k >= 1, a nonempty tuple
    of (index, sign) copies with k integer indices and k signs +-1 each, and k
    unit phases.  Raises ValueError otherwise."""
    m = block.matrix
    if not (isinstance(m, np.ndarray) and m.ndim == 2 and 0 < m.shape[0] == m.shape[1]
            and _finite_complex_array(m)):
        raise ValueError("a block matrix must be a finite square array")
    k = m.shape[0]

    def vector(x, kinds: str) -> bool:
        return isinstance(x, np.ndarray) and x.shape == (k,) and x.dtype.kind in kinds

    copies = block.copies
    if not (isinstance(copies, tuple) and copies and all(
            isinstance(c, tuple) and len(c) == 2 and vector(c[0], "iu") and vector(c[1], "iuf")
            and np.all(np.abs(c[1]) == 1.0) for c in copies)):
        raise ValueError(f"a block's copies must be a nonempty tuple of (index, sign), "
                         f"{k} integer indices and {k} signs +-1 each")
    if not (vector(block.phase, "iufc") and np.all(np.abs(np.abs(block.phase) - 1.0) <= 1e-12)):
        raise ValueError(f"a block's phase must be an array of {k} unit numbers")


def _check_mode_args(s: float, eps: float, cm: CollisionMatrices) -> None:
    """s and eps finite real numbers, eps >= 0, cm CollisionMatrices, and the
    streaming load eps s max|v| finite: every entry of v_multiplication_matrix is
    at most the largest quadrature speed, so eps s v is then finite too."""
    if not (_finite(s) and _finite(eps)):
        raise ValueError(f"s and eps must be finite real numbers, got s={s!r}, eps={eps!r}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_record(cm, CollisionMatrices, ValueError)
    # Python floats: an overflow is inf here, not a numpy warning; the radial
    # nodes ascend, so the last is the largest speed
    if not math.isfinite(float(eps) * float(s) * float(cm.basis.quad.r[-1])):
        raise ValueError(f"the streaming load eps*s*max|v| overflows at s={s!r}, eps={eps!r}")


def _field_coefficients(s: float, eps: float) -> tuple:
    """1/s^2, eps/s and eps^2 s, the metric weight and the couplings of
    assemble_A_tilde, for checked s > 0 and eps.  Raises ValueError unless each
    is finite; an s^2 that overflows or underflows to 0 counts as not finite."""
    try:
        with np.errstate(all="ignore"):
            coefficients = (1.0 / s**2, eps / s, eps**2 * s)
    except (OverflowError, ZeroDivisionError):
        coefficients = (math.inf,)
    if not all(map(math.isfinite, coefficients)):
        raise ValueError(f"1/s^2, eps/s and eps^2*s must be finite, got s={s!r}, eps={eps!r}")
    return coefficients


class _Layout(NamedTuple):
    """What every mode generator on one basis shares: the block copies and the
    coupling vectors, read off Basis.chi.  Built once per basis (_layout); read-only."""

    axial: tuple         # copies of the axial block
    transverse: tuple    # copies of the kinetic transverse block
    field: tuple         # copies of the electromagnetic transverse block
    charge: np.ndarray   # outer(v0 chi0, chi0), chi0 = chi(0) on the axial copy
    chi2: np.ndarray     # chi(2) on the cos copy: the momentum coupled to the X field
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
        chi0, chi2 = basis.chi(0)[basis.slice_axial], basis.chi(2)[basis.slice_cos]
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
    inv_s2, charge_coupling, field_coupling = _field_coefficients(s, eps)
    basis = cm.basis
    layout = _layout(basis)
    n1 = basis.dim1

    axial = (cm.L1_sector[SECTOR_AXIAL]
             - 1j * eps * s * v_multiplication_matrix(basis, SECTOR_AXIAL))
    axial -= 1j * charge_coupling * layout.charge

    trans = np.zeros((n1 + 2, n1 + 2), dtype=complex)
    trans[:n1, :n1] = (cm.L1_sector[SECTOR_TRANSVERSE]
                       - 1j * eps * s * v_multiplication_matrix(basis, SECTOR_TRANSVERSE))
    trans[:n1, n1] = eps * layout.chi2
    trans[n1, :n1] = -eps * layout.chi2
    trans[n1, n1 + 1] = trans[n1 + 1, n1] = 1j * field_coupling

    blocks = (SectorBlock(axial, layout.axial, layout.axial_phase),
              SectorBlock(trans, layout.field, layout.field_phase))
    metric = np.ones(basis.dim + 4)
    metric[0] = 1.0 + inv_s2
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


class _Decomposition(NamedTuple):
    """The decomposition of n operators that share one block layout, member i
    that of operator i.

    ``blocks`` holds per block the stacks (eigenvalues (n, k), right vectors
    (n, k, k), inverses (n, k, k)).  ``schur`` (n, n_blocks) marks the
    members' fallback blocks: such a block keeps its eig pair, its inverse is
    zero rows, and it flows by _fallback_flow.  ``cond`` (n,) bounds cond_2
    of each member's block-diagonal eigenvector matrix.
    """

    cond: np.ndarray
    blocks: tuple
    schur: np.ndarray


def _decompose_stacked(ops: list[ModeOperator]) -> _Decomposition:
    """Decompose operators sharing one block layout, one stacked eig per block.

    Writes nothing on the operators.  A member's inverse is zero rows where
    its eigenvectors are past _EIG_COND_LIMIT (a fallback block).  The gate
    costs one stacked inverse, which the eig path needs anyway: LAPACK's
    eigenvectors are unit columns, so a k-dim block has ||V_b||_F = sqrt(k),
    and sqrt(k) ||V_b^{-1}||_F >= cond_2(V_b) is the bound the gate takes (an
    exactly singular V_b has an infinite one).  The reported condition is
    max_b sqrt(k_b) * max_b ||V_b^{-1}||_F, an upper bound on cond_2 of the
    block-diagonal eigenvector matrix.
    """
    blocks, vec_norms, inv_norms = [], [], []
    for b in range(len(ops[0].blocks)):
        lam, vr = np.linalg.eig(np.stack([op.blocks[b].matrix for op in ops]))
        vinv, norm = _stacked_inverse(vr)
        blocks.append((lam, vr, vinv))
        vec_norms.append(math.sqrt(lam.shape[1]))
        inv_norms.append(norm)
    inv_norms = np.stack(inv_norms, axis=1)
    ok = np.asarray(vec_norms) * inv_norms < _EIG_COND_LIMIT
    for b, (_, _, wb) in enumerate(blocks):
        wb[~ok[:, b]] = 0.0
    return _Decomposition(max(vec_norms) * inv_norms.max(axis=1), tuple(blocks), ~ok)


def _decomposition(op: ModeOperator) -> _Decomposition:
    """The operator's decomposition, _decompose_stacked([op]), cached on it."""
    if op._decomp is None:
        op._decomp = _decompose_stacked([op])
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


def _dense_vectors(op: ModeOperator, cols: np.ndarray, inverse: bool = False):
    """Right eigenvectors (as columns) of the given columns, dense, from the
    decomposition; with ``inverse`` also their inverse rows, zero for a fallback block."""
    dec = _decomposition(op)
    right = np.zeros((op.dim, cols.size), dtype=complex)
    left = np.zeros((cols.size, op.dim), dtype=complex) if inverse else None
    for b, idx, sign, span in _copy_columns(op):
        _, (vb,), (wb,) = dec.blocks[b]
        hit = np.flatnonzero((cols >= span.start) & (cols < span.stop))
        local = cols[hit] - span.start
        right[np.ix_(idx, hit)] = sign[:, None] * vb[:, local]
        if inverse:
            left[np.ix_(hit, idx)] = wb[local] * sign[None, :]
    return right, left


def spectrum(op: ModeOperator):
    """Eigenvalues sorted by descending real part, vectors, and residuals.

    Every block, a fallback one too, gives its eig pair; the residuals are
    computed per block, and a block's copies share them, since a signature
    conjugation preserves the column norms.
    """
    _check_record(op, ModeOperator, ValueError)
    dec = _decomposition(op)
    res = _by_column(op, [
        np.linalg.norm(block.matrix @ vb - vb * lb[None, :], axis=0) / np.linalg.norm(vb, axis=0)
        for block, ((lb,), (vb,), _) in zip(op.blocks, dec.blocks)])
    lam = _by_column(op, [lb[0] for lb, _, _ in dec.blocks])
    order = _spectral_order(lam)
    vr, _ = _dense_vectors(op, order)
    return lam[order], vr, res[order]


def _fallback_flow(a: np.ndarray, taus) -> np.ndarray:
    """(n_t, k, k) flows e^{tau a} of a fallback block by scaling and squaring."""
    from scipy.linalg import expm
    return np.array([expm(tau * a) for tau in taus], dtype=complex).reshape(len(taus), *a.shape)


def _block_flow(ops: list[ModeOperator], dec: _Decomposition, states0: np.ndarray,
                taus: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """(n_t, n, dim) states e^{tau A} u0 of n operators sharing one block layout.

    ``dec`` is the operators' decomposition, member i that of ops[i], and
    ``states0`` holds the (n, dim) initial states.  Each copy flows by
    batched products, member by member; a fallback block then flows by
    _fallback_flow of its operator's own block.  ``keep``, an (n, dim) mask
    over the columns (see _copy_columns), restricts each eig copy to its
    kept columns, V (e^{tau lam} keep V^{-1} u0), so a dropped column leaves
    no rounding residue; it leaves the fallback blocks alone.  The times
    lead, as the reducers of convergence_lab._evolve_grid read them.
    """
    out = np.zeros((len(taus), len(ops), states0.shape[1]), dtype=complex)
    copies = list(_copy_columns(ops[0]))
    for b, (lam, vr, vinv) in enumerate(dec.blocks):
        fallback = np.flatnonzero(dec.schur[:, b])
        if len(fallback) < len(ops):
            vr_t = np.swapaxes(vr, 1, 2)
            growth = np.exp(taus[None, :, None] * lam[:, None, :])
            for _, idx, sign, cols in (c for c in copies if c[0] == b):
                coef = (vinv @ (states0[:, idx] * sign)[:, :, None])[:, None, :, 0]
                g = growth if keep is None else growth * keep[:, None, cols]
                out[:, :, idx] = (((g * coef) @ vr_t) * sign).transpose(1, 0, 2)
        for i in fallback:
            flow = _fallback_flow(ops[i].blocks[b].matrix, taus)
            for idx, sign in ops[i].blocks[b].copies:
                out[:, i, idx] = (flow @ (states0[i, idx] * sign)) * sign
    return out


def _contraction_violations(metric: np.ndarray, states0: np.ndarray,
                            states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Growth of the weighted norm per operator, and where it breaks contraction.

    ``metric`` and ``states0`` are (n, dim), ``states`` (n_t, n, dim), the
    layout of _block_flow; the growth is the largest norm over the times
    divided by the initial norm.  A non-finite norm counts as a violation.
    """
    n0 = np.sqrt(np.sum(metric * np.abs(states0) ** 2, axis=-1))
    n1 = np.sqrt(np.max(np.sum(metric * np.abs(states) ** 2, axis=-1), axis=0,
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
    out = _block_flow([op], dec, u0[None], np.atleast_1d(times) / op.eps**2)[:, 0]
    growth, bad = _contraction_violations(op.metric_diag[None], u0[None], out[:, None])
    if bad[0]:
        raise PropagationError(
            f"contraction violated: growth {growth[0]:.3e} "
            f"(decomposition condition {dec.cond[0]:.3e})"
        )
    return out if times.ndim else out[0]


# ---------------------------------------------------------------------------
# fluid / oscillatory / remainder split
# ---------------------------------------------------------------------------

@dataclass
class SemigroupSplit:
    """e^{tA} = S1(t) + S2(t) + S3(t): fluid branches, oscillatory branches, remainder.

    ``branch_mask`` marks the columns (see _copy_columns) whose eigenvalues
    go to S1 (low regime) or S2 (high regime); it is per block copy, so one
    copy of a degenerate pair can be taken without the other.  A fallback
    block takes its branch on every copy with the spectral projector
    ``schur_projectors[b]`` of its reordered Schur form.  The remainder fit
    and every S*_part come from the blocks: S1_part, S2_part and S3_part =
    I - S1_part - S2_part are dense views, built on first access.

    ``measured_gap_b`` and ``fit_C`` are the remainder fit's rate and constant
    (_fit_remainder_decay), both NaN when there is nothing to fit: no
    eigenvalue is left to the remainder, or too few of its norms on the fit
    window pass 1e-13.
    """

    op: ModeOperator
    regime: str                       # low | high | mid
    measured_gap_b: float
    fit_C: float
    branch_mask: np.ndarray
    schur_projectors: tuple           # per block: branch projector, or None

    @functools.cached_property
    def _branch_parts(self) -> tuple[np.ndarray, np.ndarray]:
        dec = _decomposition(self.op)
        right, left = _dense_vectors(self.op, np.flatnonzero(self.branch_mask), inverse=True)
        branch = right @ left
        for b, idx, sign, _ in _copy_columns(self.op):
            if dec.schur[0, b]:
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
    """Spectral projector onto the eigenvalues ``select`` takes, and their number."""
    from scipy.linalg import schur, solve_sylvester
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


def _split_regime(op: ModeOperator) -> str:
    load = op.eps * (1.0 + op.s) if op.kind == KIND_VMB else op.eps * op.s
    if load <= _SPLIT_R0:
        return "low"
    if op.kind == KIND_VMB and op.eps * op.s >= _SPLIT_R1:
        return "high"
    return "mid"


def semigroup_split(op: ModeOperator) -> SemigroupSplit:
    """Split by regime: S1 takes the top _N_FLUID eigenvalues over all block
    copies (low), S2 those above -mu/2 (high).  A fallback block's projector
    takes each of its eigenvalues down to the lowest one taken, less 1e-12.
    """
    _check_record(op, ModeOperator, ValueError)
    regime = _split_regime(op)
    dec = _decomposition(op)
    schur = dec.schur[0]
    lam = _by_column(op, [lb[0] for lb, _, _ in dec.blocks])
    order = _spectral_order(lam)
    mask = np.zeros(op.dim, dtype=bool)
    if regime == "low":
        mask[order[:_N_FLUID]] = True
    elif regime == "high":
        mask = lam.real >= -0.5 * op.collision.mu_estimate
    cut = lam[mask].real.min(initial=np.inf) - 1e-12
    schur_cols = _by_column(op, [np.full(block.matrix.shape[0], s)
                                 for block, s in zip(op.blocks, schur)])
    mask[schur_cols] = lam[schur_cols].real >= cut
    projectors = tuple(_schur_projector(block.matrix, lambda z: z.real >= cut)[0] if s else None
                       for block, s in zip(op.blocks, schur))
    b, c_fit = _fit_remainder_decay(
        lam[~mask], lambda taus: _remainder_norms(op, mask, projectors, taus))
    return SemigroupSplit(op=op, regime=regime, measured_gap_b=b, fit_C=c_fit,
                          branch_mask=mask, schur_projectors=projectors)


def _remainder_norms(op: ModeOperator, mask: np.ndarray, projectors,
                     taus: np.ndarray) -> np.ndarray:
    """||e^{tau A} S3||_xi at each tau, from the blocks.

    On an eig copy e^{tau A} S3 = V diag(e^{tau lam} (1 - m)) V^{-1}, with m
    the copy's slice of the branch mask; on a fallback copy it is
    e^{tau A_b} (I - P) by _fallback_flow, P the block's ``projectors`` entry.
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
        (lb,), (x,), (y,) = dec.blocks[b]
        if dec.schur[0, b]:
            flows = (g[:, None] * _fallback_flow(op.blocks[b].matrix, taus)
                     @ (np.eye(lb.size) - projectors[b]) / g[None, :])
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
    """(n_t, dim) states e^{tau A} S3 u0 by _block_flow: a fallback copy starts
    from (I - P) u0, and an eig copy keeps the columns off the branch mask."""
    dec = _decomposition(split.op)
    start = np.array(u0, dtype=complex)
    for b, idx, sign, _ in _copy_columns(split.op):
        if dec.schur[0, b]:
            u = u0[idx] * sign
            start[idx] = (u - split.schur_projectors[b] @ u) * sign
    return _block_flow([split.op], dec, start[None], taus, ~split.branch_mask[None])[:, 0]


def _fit_remainder_decay(rest: np.ndarray, remainder_norms) -> tuple[float, float]:
    """Fit ||S3(t)||_xi ~ C e^{-b t/eps^2} on a window set by the gap: (b, C).

    ``rest`` are the eigenvalues left to the remainder; remainder_norms(taus)
    gives ||S3(tau eps^2)||_xi on the fit window, and the line is
    velocity_basis._line_fit through the log of the norms above 1e-13.  When
    there is nothing to fit, no remainder or fewer such norms than the fit's
    _MIN_FIT_POINTS, both are NaN.
    """
    if rest.size == 0:
        return float("nan"), float("nan")
    # decay rate per unit of diffusive time t/eps^2 is -Re(lambda) of the matrix
    gap = max(-rest.real.max(), 1e-12)
    taus = np.linspace(1.0 / gap, 18.0 / gap, 10)
    norms = np.asarray(remainder_norms(taus))
    good = norms > 1e-13
    if good.sum() < _MIN_FIT_POINTS:
        return float("nan"), float("nan")
    slope, intercept, _, _ = _line_fit(taus[good], norms[good], ValueError)
    return -slope, math.exp(intercept)
