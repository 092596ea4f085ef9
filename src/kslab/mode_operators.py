"""Per-mode generators for the kinetic and kinetic-electromagnetic systems.

With the wave vector rotated onto the first axis, one Fourier mode carries a
kinetic state (axial sector plus a cosine and a sine transverse copy) and, in
the electromagnetic case, the four transverse field components.  Both
generators are block-diagonal, and a ModeOperator holds only its sector
blocks: the axial block, and one transverse block that fills the cosine copy
and, conjugated by a signature matrix, the sine copy.  In the
electromagnetic generator the transverse block also carries two field
components, (cos, X3, Y2) and (sin, X2, Y3).  Eigendecompositions run one
block at a time and, through _decompose_stacked, over whole stacks of modes
at once; the dense matrix is a view assembled from the blocks.

On top of the blocks: the weighted inner product, the semigroup (in
diffusive time t / eps^2), its split into fluid branches, an oscillatory
high-frequency part and an exponentially damped remainder, and a grid-based
probe for the norm of gain-times-resolvent compositions.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

    Give either ``blocks`` (a sequence of SectorBlock whose copies tile the
    dense layout) or a dense ``matrix``, which counts as a single block.
    """

    def __init__(self, kind: str, s: float, eps: float, metric_diag: np.ndarray,
                 dim0: int, dim1: int, collision: CollisionMatrices,
                 matrix: np.ndarray | None = None, blocks=None):
        if (matrix is None) == (blocks is None):
            raise ValueError("give exactly one of matrix and blocks")
        if blocks is None:
            blocks = (SectorBlock(matrix, (_copy(np.arange(matrix.shape[0])),)),)
        self.kind = kind
        self.s = s
        self.eps = eps
        self.metric_diag = metric_diag
        self.dim0 = dim0
        self.dim1 = dim1
        self.collision = collision
        self.blocks = tuple(blocks)
        self.dim = sum(idx.size for b in self.blocks for idx, _ in b.copies)
        self._matrix = matrix
        self._decomp = None
        self._prop_cache: dict = {}

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


def assemble_B(s: float, eps: float, cm: CollisionMatrices) -> ModeOperator:
    """Kinetic-only mode generator L - i*eps*s*(v along the wave axis)."""
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
    return ModeOperator(
        kind=KIND_BOLTZMANN,
        s=s,
        eps=eps,
        metric_diag=np.ones(basis.dim),
        dim0=n0,
        dim1=n1,
        collision=cm,
        blocks=blocks,
    )


def _vmb_blocks(s: float, eps: float, cm: CollisionMatrices, sign_flip: bool):
    """Shared assembly of the electromagnetic mode generator and its adjoint.

    sign_flip=False gives the generator; True flips every coupling term while
    keeping the collision blocks, which is the metric adjoint (the rank-one
    metric corrections in the axial block cancel exactly).  The transverse
    block acts on (cos, X3, Y2); the sine copy (sin, X2, Y3) is the same block
    with the sign of its X component flipped.
    """
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
    return blocks, metric, n0, n1


def assemble_A_tilde(s: float, eps: float, cm: CollisionMatrices) -> ModeOperator:
    """Electromagnetic mode generator on (kinetic, E-transverse, B-transverse)."""
    if s <= 0:
        raise ValueError("s must be positive for the electromagnetic operator")
    blocks, metric, n0, n1 = _vmb_blocks(s, eps, cm, sign_flip=False)
    return ModeOperator(
        kind=KIND_VMB,
        s=s,
        eps=eps,
        metric_diag=metric,
        dim0=n0,
        dim1=n1,
        collision=cm,
        blocks=blocks,
    )


def assemble_A_tilde_star(s: float, eps: float, cm: CollisionMatrices) -> ModeOperator:
    """Explicitly assembled metric adjoint of the electromagnetic generator."""
    if s <= 0:
        raise ValueError("s must be positive for the electromagnetic operator")
    blocks, metric, n0, n1 = _vmb_blocks(s, eps, cm, sign_flip=True)
    return ModeOperator(
        kind=KIND_VMB,
        s=s,
        eps=eps,
        metric_diag=metric,
        dim0=n0,
        dim1=n1,
        collision=cm,
        blocks=blocks,
    )


def metric_adjoint(op: ModeOperator) -> np.ndarray:
    """Dense G^{-1} A^H G for the operator's weighted inner product."""
    g = op.metric_diag
    return (op.matrix.conj().T * g[None, :]) / g[:, None]


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def _decompose_stacked(stacks: list[np.ndarray]):
    """Eigendecompose a stack of modes, one sector block at a time.

    ``stacks[b]`` holds block b of every mode, shape (n, k_b, k_b).  Returns
    per block (eigenvalues, right eigenvectors, their inverses), the per-mode
    2-norm condition number of the block-diagonal eigenvector matrix (the
    largest singular value over all blocks divided by the smallest), and the
    mask of modes under _EIG_COND_LIMIT.  Inverses are computed only for
    those modes; the others keep zeros there.
    """
    eigs = [np.linalg.eig(a) for a in stacks]
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
    return parts, cond, ok


def _decomposition(op: ModeOperator):
    """("eig", lam, vr, vinv, cond) with block-diagonal vectors, or the Schur form.

    Eigenvalues are sorted by descending real part, then ascending imaginary
    part; a block's copies repeat its eigenvalues and carry its vectors
    conjugated by their signs.
    """
    if op._decomp is None:
        parts, cond, ok = _decompose_stacked([b.matrix[None] for b in op.blocks])
        cond = float(cond[0])
        if ok[0]:
            lam = np.empty(op.dim, dtype=complex)
            vr = np.zeros((op.dim, op.dim), dtype=complex)
            vinv = np.zeros((op.dim, op.dim), dtype=complex)
            col = 0
            for b, (lb, vb, wb) in zip(op.blocks, parts):
                for idx, sign in b.copies:
                    cols = slice(col, col + lb.shape[1])
                    lam[cols] = lb[0]
                    vr[idx, cols] = sign[:, None] * vb[0]
                    vinv[cols, idx] = wb[0] * sign[None, :]
                    col = cols.stop
            order = np.lexsort((lam.imag, -lam.real))
            op._decomp = ("eig", lam[order], vr[:, order], vinv[order], cond)
        else:
            t, z = schur(op.matrix, output="complex")
            op._decomp = ("schur", t, z, None, cond)
    return op._decomp


def eigenvalues(op: ModeOperator) -> np.ndarray:
    """All eigenvalues of the generator, taken from its decomposition."""
    dec = _decomposition(op)
    return dec[1] if dec[0] == "eig" else np.linalg.eigvals(op.matrix)


def eigen_condition(op: ModeOperator) -> float:
    return _decomposition(op)[4]


def spectrum(op: ModeOperator):
    """Eigenvalues sorted by descending real part, vectors, and residuals."""
    dec = _decomposition(op)
    if dec[0] == "eig":
        lam, vr = dec[1], dec[2]
    else:
        lam, vr = np.linalg.eig(op.matrix)
        order = np.lexsort((lam.imag, -lam.real))
        lam, vr = lam[order], vr[:, order]
    res = np.linalg.norm(op.matrix @ vr - vr * lam[None, :], axis=0)
    res /= np.linalg.norm(vr, axis=0)
    return lam, vr, res


def propagator_matrix(op: ModeOperator, t: float) -> np.ndarray:
    """Dense e^{(t/eps^2) A}."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t in op._prop_cache:
        return op._prop_cache[t]
    tau = t / op.eps**2
    dec = _decomposition(op)
    if dec[0] == "eig":
        _, lam, vr, vinv, _ = dec
        out = (vr * np.exp(tau * lam)[None, :]) @ vinv
    else:
        _, tmat, z, _, _ = dec
        out = z @ expm(tau * tmat) @ z.conj().T
    if len(op._prop_cache) < 64:
        op._prop_cache[t] = out
    return out


def propagate(op: ModeOperator, u0: np.ndarray, t: float) -> np.ndarray:
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (op.dim,):
        raise ValueError(f"state length {u0.shape} does not match operator dim {op.dim}")
    out = propagator_matrix(op, t) @ u0
    n0, n1 = op.weighted_norm(u0), op.weighted_norm(out)
    if n1 > n0 * (1.0 + 1e-6) + 1e-12:
        raise PropagationError(
            f"contraction violated: growth {n1 / max(n0, 1e-300):.3e} "
            f"(decomposition condition {eigen_condition(op):.3e})"
        )
    return out


# ---------------------------------------------------------------------------
# fluid / oscillatory / remainder split
# ---------------------------------------------------------------------------

@dataclass
class SemigroupSplit:
    op: ModeOperator
    regime: str                       # low | high | mid
    eigen_projections: list           # (eigenvalue, right, left) triples
    S1_part: np.ndarray               # projection onto the fluid branches
    S2_part: np.ndarray               # projection onto oscillatory branches
    S3_part: np.ndarray               # remainder projection
    measured_gap_b: float
    fit_C: float
    defective: bool
    eig_cond: float

    def parts_at(self, t: float):
        prop = propagator_matrix(self.op, t)
        return prop @ self.S1_part, prop @ self.S2_part, prop @ self.S3_part


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
    dim = op.dim
    eye = np.eye(dim, dtype=complex)
    cond = eigen_condition(op)
    defective = cond >= _EIG_COND_LIMIT

    s1 = np.zeros_like(eye)
    s2 = np.zeros_like(eye)
    projections = []

    if regime == "low":
        if not defective:
            _, lam, vr, vinv, _ = _decomposition(op)
            for j in range(n_fluid):
                right = vr[:, j]
                left = vinv[j].conj() / op.metric_diag
                projections.append((lam[j], right, left))
                s1 += np.outer(right, vinv[j])
        else:
            cut = np.sort(eigenvalues(op).real)[-n_fluid] - 1e-12
            s1, _ = _schur_projector(op.matrix, lambda z: z.real >= cut)
    elif regime == "high":
        thresh = -0.5 * op.collision.mu_estimate
        if not defective:
            _, lam, vr, vinv, _ = _decomposition(op)
            for j in range(dim):
                if lam[j].real >= thresh:
                    projections.append((lam[j], vr[:, j], vinv[j].conj() / op.metric_diag))
                    s2 += np.outer(vr[:, j], vinv[j])
        else:
            s2, _ = _schur_projector(op.matrix, lambda z: z.real >= thresh)

    s3 = eye - s1 - s2
    b, c_fit = _fit_remainder_decay(op, s3, s1, s2)
    return SemigroupSplit(
        op=op,
        regime=regime,
        eigen_projections=projections,
        S1_part=s1,
        S2_part=s2,
        S3_part=s3,
        measured_gap_b=b,
        fit_C=c_fit,
        defective=defective,
        eig_cond=cond,
    )


def _fit_remainder_decay(op: ModeOperator, s3, s1, s2) -> tuple[float, float]:
    """Fit ||S3(t)||_xi ~ C e^{-b t/eps^2} on a window set by the gap."""
    lam_all = eigenvalues(op)
    active = np.ones(lam_all.size, bool)
    # exclude branch eigenvalues captured by S1/S2 from the gap estimate
    rank12 = int(round(np.real(np.trace(s1 + s2))))
    if rank12 > 0:
        order = np.argsort(-lam_all.real)
        active[order[:rank12]] = False
    if not active.any():
        return float("nan"), float("nan")
    # decay rate per unit of diffusive time t/eps^2 is -Re(lambda) of the matrix
    gap = max(-lam_all.real[active].max(), 1e-12)
    taus = np.linspace(1.0 / gap, 18.0 / gap, 10)
    norms = []
    for tau in taus:
        prop = propagator_matrix(op, tau * op.eps**2)
        norms.append(_weighted_opnorm(op, prop @ s3))
    norms = np.asarray(norms)
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
