"""Hard-sphere linearized collision operators on the reduced basis.

Closed-form ingredients: the collision frequency nu(|v|), the smoothing kernel
k1(v, v*) with its removable 1/|v-v*| singularity, and the Gaussian product
correction that distinguishes the two-species operator from the single-species
one.  The angular dependence of both kernels is reduced per Legendre degree by
a Funk-Hecke step; substituting t = |v-v*| removes the singularity exactly and
leaves a boundary layer near the radial diagonal that geometrically graded
panels resolve.

The bilinear collision term is kept as a dense 3-index array over a 35-element
orthonormal tensor-Hermite sub-basis (polynomial degree <= 4).  Its weak-form
integrals are evaluated in center-of-mass variables with the deflection-vector
parametrization, which makes every integrand a polynomial times a Gaussian, so
the product quadrature used is exact up to roundoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import (
    erf,
    eval_genlaguerre,
    roots_genlaguerre,
    roots_hermitenorm,
)

from .velocity_basis import Basis, SECTOR_AXIAL, SECTOR_TRANSVERSE

_TWO_PI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class AssemblyError(RuntimeError):
    """Raised when kernel quadrature fails its refinement check."""


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _nu_of_r(r):
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    small = r < 1e-8
    rs = r[small]
    out[small] = _SQRT_2PI * (2.0 + rs**2 / 3.0 - rs**4 / 60.0)
    rb = r[~small]
    gauss_int = math.sqrt(math.pi / 2.0) * erf(rb / math.sqrt(2.0))
    out[~small] = _SQRT_2PI * (np.exp(-0.5 * rb**2) + (rb + 1.0 / rb) * gauss_int)
    return out


def nu_eval(v):
    """Collision frequency nu(v).  Accepts speeds or velocity vectors."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim >= 1 and arr.shape[-1] == 3:
        r = np.linalg.norm(arr, axis=-1)
    else:
        r = np.abs(arr)
    out = _nu_of_r(np.atleast_1d(r))
    return float(out[0]) if np.ndim(r) == 0 else out.reshape(np.shape(r))


def kernel_eval(which: str, v, vstar):
    """Pointwise kernel values k1 or k at velocity pairs (last axis length 3)."""
    v = np.asarray(v, dtype=float)
    vs = np.asarray(vstar, dtype=float)
    diff = v - vs
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d < 1e-12):
        raise ValueError("kernel is singular at coincident velocities")
    n2 = np.sum(v * v, axis=-1)
    ns2 = np.sum(vs * vs, axis=-1)
    k1 = (2.0 / _SQRT_2PI) / d * np.exp(-((n2 - ns2) ** 2) / (8.0 * d * d) - d * d / 8.0)
    if which == "k1":
        return k1
    if which == "k":
        return k1 - d / (2.0 * _SQRT_2PI) * np.exp(-(n2 + ns2) / 4.0)
    raise ValueError(f"kernel name must be 'k' or 'k1', got {which!r}")


# ---------------------------------------------------------------------------
# per-degree radial reduction of the kernels
# ---------------------------------------------------------------------------

def _pair_kernel_moments(ra: np.ndarray, rb: np.ndarray, lmax: int,
                         n_panel_points: int, n_panels: int):
    """Per-degree moments (k1_l(ra, rb), gauss_l(ra, rb)) at node pairs."""
    t0 = np.abs(ra - rb)
    t1 = ra + rb
    span = t1 - t0
    tau = np.clip(t0 * t1 / (2.0 * math.sqrt(2.0)), 1e-4 * span, span)

    # geometric breakpoints b_k = t0 + tau*(rho^k - 1), rho^K = span/tau + 1
    k = np.arange(n_panels + 1)
    rho = (span / tau + 1.0) ** (1.0 / n_panels)
    bps = t0[:, None] + tau[:, None] * (rho[:, None] ** k[None, :] - 1.0)
    bps[:, -1] = t1  # guard roundoff

    x, wgl = np.polynomial.legendre.leggauss(n_panel_points)
    lo = bps[:, :-1, None]
    hi = bps[:, 1:, None]
    t = 0.5 * (hi - lo) * x[None, None, :] + 0.5 * (hi + lo)
    wt = 0.5 * (hi - lo) * wgl[None, None, :]
    t = t.reshape(t0.size, -1)
    wt = wt.reshape(t0.size, -1)

    a = (ra**2 - rb**2) ** 2 / 8.0
    tsq = t * t
    expo = np.exp(-a[:, None] / np.maximum(tsq, 1e-300) - tsq / 8.0)
    denom = ra * rb
    cos = (ra[:, None] ** 2 + rb[:, None] ** 2 - tsq) / (2.0 * denom[:, None])
    cos = np.clip(cos, -1.0, 1.0)

    # accumulate Legendre moments by upward recurrence
    k1_pairs = np.empty((lmax + 1, t0.size))
    g_pairs = np.empty((lmax + 1, t0.size))
    p_prev = np.ones_like(cos)
    p_cur = cos
    w_exp = wt * expo
    w_t2 = wt * tsq
    for l in range(lmax + 1):
        if l == 0:
            pl = p_prev
        elif l == 1:
            pl = p_cur
        else:
            p_next = ((2 * l - 1) * cos * p_cur - (l - 1) * p_prev) / l
            p_prev, p_cur = p_cur, p_next
            pl = p_cur
        k1_pairs[l] = np.sum(w_exp * pl, axis=1)
        g_pairs[l] = np.sum(w_t2 * pl, axis=1)

    pref = _TWO_PI * (2.0 / _SQRT_2PI) / denom
    gauss_pref = _TWO_PI / (2.0 * _SQRT_2PI) / denom * np.exp(-(ra**2 + rb**2) / 4.0)
    k1_pairs *= pref[None, :]
    g_pairs *= gauss_pref[None, :]
    return k1_pairs, g_pairs


def reduced_kernel_tables(r_nodes: np.ndarray, lmax: int, n_panel_points: int = 12,
                          n_panels: int = 8):
    """Legendre-degree kernels k1_l(r, r') and k_l(r, r') on a node set.

    Returns (k1_tab, k_tab) with shape (lmax+1, n, n).  The angular integral
    is carried out in the variable t = |v - v'|; panels are geometrically
    graded from t = |r - r'| at the scale of the exponential boundary layer.
    """
    r = np.asarray(r_nodes, dtype=float)
    n = r.size
    iu = np.triu_indices(n)
    k1_pairs, g_pairs = _pair_kernel_moments(
        r[iu[0]], r[iu[1]], lmax, n_panel_points, n_panels
    )
    k1_tab = np.zeros((lmax + 1, n, n))
    k_tab = np.zeros((lmax + 1, n, n))
    for l in range(lmax + 1):
        m1 = np.zeros((n, n))
        m1[iu] = k1_pairs[l]
        m1 = m1 + m1.T - np.diag(np.diag(m1))
        mg = np.zeros((n, n))
        mg[iu] = g_pairs[l]
        mg = mg + mg.T - np.diag(np.diag(mg))
        k1_tab[l] = m1
        k_tab[l] = m1 - mg
    return k1_tab, k_tab


def _gain_matrices(basis: Basis, n_panel_points: int, n_panels: int = 8):
    """Galerkin matrices of the gain kernels, per Legendre degree.

    The reduced kernels have a derivative kink across r = r', so the double
    radial integral is taken over the triangle r' < r, where the integrand is
    one-sidedly smooth, and symmetrized.  The inner integral uses a mapped
    Gauss-Legendre rule; the outer one reuses the basis quadrature.
    """
    spec = basis.spec
    lmax = spec.angular_max
    r_out = basis.quad.r
    nq = r_out.size
    n_inner = max(64, 3 * spec.radial_order + 4 * lmax)
    xg, wg = np.polynomial.legendre.leggauss(n_inner)
    r_in = 0.5 * r_out[:, None] * (xg[None, :] + 1.0)
    w_in = 0.5 * r_out[:, None] * wg[None, :]
    rb = r_in.ravel()
    ra = np.repeat(r_out, n_inner)
    k1p, gp = _pair_kernel_moments(ra, rb, lmax, n_panel_points, n_panels)
    inner_w = (w_in * r_in**2).ravel()

    K1_deg, K_deg = {}, {}
    for l in range(lmax + 1):
        half_out = basis.radial_tables[l] * basis.quad.wr_half
        tab_in = np.stack(
            [basis.radial_part(n, l, rb) for n in range(spec.radial_order)]
        )
        bw = (tab_in * inner_w[None, :]).reshape(-1, nq, n_inner)
        t1 = (k1p[l].reshape(nq, n_inner)[None] * bw).sum(axis=-1)
        tg = (gp[l].reshape(nq, n_inner)[None] * bw).sum(axis=-1)
        m1 = half_out @ t1.T
        mg = half_out @ tg.T
        # The one-sided gain carries half the full gain kernel: reflecting
        # the deflection direction swaps the two post-collision velocities,
        # so the two linearization slots contribute equally.  Only the
        # halved operator annihilates sqrt(M), as the one-sided operator must.
        K1_deg[l] = 0.5 * (m1 + m1.T)
        mk = m1 - mg
        K_deg[l] = mk + mk.T
    return K1_deg, K_deg


# ---------------------------------------------------------------------------
# bilinear collision tensor on the degree-<=4 Hermite sub-basis
# ---------------------------------------------------------------------------

def hermite_sub_indices() -> list[tuple[int, int, int]]:
    idx = [
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if a + b + c <= 4
    ]
    idx.sort(key=lambda t: (sum(t), t))
    return idx


def _hermite_values(x: np.ndarray, nmax: int = 4) -> np.ndarray:
    """Probabilists' Hermite polynomials He_0..He_nmax, shape (nmax+1, ...)."""
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    out[1] = x
    for k in range(1, nmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


def _sub_table(points: np.ndarray, indices) -> np.ndarray:
    """Normalized Hermite products H_idx(v), shape (npoints, 35).  No Gaussian."""
    he = [_hermite_values(points[:, d]) for d in range(3)]
    cols = []
    for (a, b, c) in indices:
        norm = math.sqrt(math.factorial(a) * math.factorial(b) * math.factorial(c))
        cols.append(he[0][a] * he[1][b] * he[2][c] / norm)
    return np.stack(cols, axis=1)


@dataclass
class GammaTensor:
    indices: list[tuple[int, int, int]]
    tensor: np.ndarray                      # (35, 35, 35) weak-form values
    chi_sub: np.ndarray                     # (5, 35) collision invariants
    change_of_basis: np.ndarray | None      # Hermite <- Burnett-sub, orthogonal
    L_sub: np.ndarray | None                # 35x35, two-species operator
    L1_sub: np.ndarray | None               # 35x35, single-species operator

    def index_of(self, abc: tuple[int, int, int]) -> int:
        return self.indices.index(abc)


def _assemble_gamma_tensor(n_herm=7, n_rad=8, n_polar=7, n_azim=16, chunk=512):
    indices = hermite_sub_indices()
    nb = len(indices)

    xh, wh = roots_hermitenorm(n_herm)
    wh = wh / math.sqrt(_TWO_PI)
    px, py, pz = np.meshgrid(xh, xh, xh, indexing="ij")
    pw = (wh[:, None, None] * wh[None, :, None] * wh[None, None, :]).ravel()
    pgrid = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=1)

    u, wu = roots_genlaguerre(n_rad, 1.0)
    rr = np.sqrt(2.0 * u)
    wr = (math.sqrt(2.0) / 2.0) * _TWO_PI ** (-1.5) * wu

    mu, wmu = np.polynomial.legendre.leggauss(n_polar)
    phi = _TWO_PI * np.arange(n_azim) / n_azim
    wphi = _TWO_PI / n_azim
    st = np.sqrt(1.0 - mu**2)
    sig = np.stack(
        [
            np.repeat(mu, n_azim),
            np.repeat(st, n_azim) * np.tile(np.cos(phi), n_polar),
            np.repeat(st, n_azim) * np.tile(np.sin(phi), n_polar),
        ],
        axis=1,
    )
    wsig = np.repeat(wmu, n_azim) * wphi
    ns = sig.shape[0]

    combos_p = np.repeat(np.arange(pgrid.shape[0]), n_rad)
    combos_r = np.tile(np.arange(n_rad), pgrid.shape[0])
    wq = pw[combos_p] * wr[combos_r]
    nq = combos_p.size

    t1 = np.zeros((nb, nb, nb))
    t2 = np.zeros((nb, nb, nb))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for start in range(0, nq, chunk):
        sl = slice(start, min(start + chunk, nq))
        pc = pgrid[combos_p[sl]]
        rc = rr[combos_r[sl]]
        m = pc.shape[0]
        apts = inv_sqrt2 * (pc[:, None, :] + rc[:, None, None] * sig[None, :, :])
        bpts = inv_sqrt2 * (pc[:, None, :] - rc[:, None, None] * sig[None, :, :])
        ha = _sub_table(apts.reshape(-1, 3), indices).reshape(m, ns, nb)
        hb = _sub_table(bpts.reshape(-1, 3), indices).reshape(m, ns, nb)
        haw = ha * wsig[None, :, None]
        s_ij = np.einsum("qsi,qsj->qij", haw, hb)
        u_k = np.einsum("qsk->qk", haw)
        t1 += np.einsum("q,qij,qk->ijk", wq[sl], s_ij, u_k, optimize=True)
        # loss part: same sphere nodes serve as the relative-velocity directions
        row_w = (wq[sl, None] * wsig[None, :]).ravel()
        ha_f = ha.reshape(-1, nb)
        hb_f = hb.reshape(-1, nb)
        for kk in range(nb):
            t2[:, :, kk] += (ha_f * (row_w * ha_f[:, kk])[:, None]).T @ hb_f
    tensor = t1 - 4.0 * math.pi * t2

    chi_sub = np.zeros((5, nb))
    chi_sub[0, indices.index((0, 0, 0))] = 1.0
    chi_sub[1, indices.index((1, 0, 0))] = 1.0
    chi_sub[2, indices.index((0, 1, 0))] = 1.0
    chi_sub[3, indices.index((0, 0, 1))] = 1.0
    for abc in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        chi_sub[4, indices.index(abc)] = 1.0 / math.sqrt(3.0)
    return indices, tensor, chi_sub


# Burnett-type sub-elements (n, l, m-kind) with 2n + l <= 4, all azimuthal orders
_SUB_NL = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (2, 0)]
_SUB_RADIAL_CAP = {0: 3, 1: 2, 2: 2, 3: 1, 4: 1}


def _real_sph_table(vhat: np.ndarray, lmax: int = 4) -> dict:
    """Real spherical harmonics with polar axis e1, indexed (l, m, kind)."""
    from scipy.special import lpmv

    c = vhat[:, 0]
    phi = np.arctan2(vhat[:, 2], vhat[:, 1])
    out = {}
    for l in range(lmax + 1):
        out[(l, 0, "axial")] = math.sqrt((2 * l + 1) / (4.0 * math.pi)) * lpmv(0, l, c)
        for m in range(1, l + 1):
            norm = math.sqrt(
                (2 * l + 1) / (2.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
            )
            plm = (-1.0) ** m * lpmv(m, l, c)  # strip the Condon-Shortley phase
            out[(l, m, "cos")] = norm * plm * np.cos(m * phi)
            out[(l, m, "sin")] = norm * plm * np.sin(m * phi)
    return out


def _burnett_sub_elements():
    els = []
    for (n, l) in _SUB_NL:
        els.append((n, l, 0, "axial"))
        for m in range(1, l + 1):
            els.append((n, l, m, "cos"))
            els.append((n, l, m, "sin"))
    return els


def _radial_poly(n: int, l: int, r: np.ndarray) -> np.ndarray:
    from .velocity_basis import _radial_norm

    u = 0.5 * r * r
    vals = _radial_norm(n, l) * _TWO_PI ** (-0.75) * eval_genlaguerre(n, l + 0.5, u)
    if l > 0:
        vals = vals * r**l
    return vals


def _change_of_basis(indices) -> tuple[np.ndarray, list]:
    """Orthogonal matrix C with C[h, b] = (hermite_h, burnett_b)."""
    els = _burnett_sub_elements()
    xh, wh = roots_hermitenorm(9)
    wh = wh / math.sqrt(_TWO_PI)
    gx, gy, gz = np.meshgrid(xh, xh, xh, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    w3 = (wh[:, None, None] * wh[None, :, None] * wh[None, None, :]).ravel()
    r = np.linalg.norm(pts, axis=1)
    safe_r = np.where(r < 1e-14, 1.0, r)
    vhat = pts / safe_r[:, None]
    vhat[r < 1e-14] = np.array([1.0, 0.0, 0.0])
    sph = _real_sph_table(vhat)
    herm = _sub_table(pts, indices)

    cols = []
    for (n, l, m, kind) in els:
        rad = _radial_poly(n, l, r)
        if l > 0:
            rad = np.where(r < 1e-14, 0.0, rad)
        # strip the Gaussian shared with the Hermite side; absorb into weights
        cols.append(rad * sph[(l, m, kind)] * _TWO_PI**0.75)
    burn = np.stack(cols, axis=1)
    cmat = (herm * w3[:, None]).T @ burn
    return cmat, els


def _sub_operator(cmat: np.ndarray, els, radial_blocks: dict) -> np.ndarray:
    """Conjugate per-degree radial blocks into the Hermite sub-basis."""
    nb = cmat.shape[0]
    lam = np.zeros((nb, nb))
    for (l, cap) in _SUB_RADIAL_CAP.items():
        block = radial_blocks[l][:cap, :cap]
        for m_kind in {(m, k) for (_, ll, m, k) in els if ll == l}:
            rows = [i for i, (n, ll, m, k) in enumerate(els) if ll == l and (m, k) == m_kind]
            rows = sorted(rows, key=lambda i: els[i][0])
            for a, ia in enumerate(rows):
                for b, ib in enumerate(rows):
                    lam[ia, ib] = block[a, b]
    return cmat @ lam @ cmat.T


def project_poly_to_sub(gamma: GammaTensor, poly) -> np.ndarray:
    """Sub-basis coefficients of p(v) sqrt(M) for a polynomial p of degree <= 4."""
    xh, wh = roots_hermitenorm(9)
    wh = wh / math.sqrt(_TWO_PI)
    gx, gy, gz = np.meshgrid(xh, xh, xh, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    w3 = (wh[:, None, None] * wh[None, :, None] * wh[None, None, :]).ravel()
    vals = poly(pts)
    table = _sub_table(pts, gamma.indices)
    return (table * (w3 * vals)[:, None]).sum(axis=0)


def gamma_apply(cm: "CollisionMatrices", f_sub: np.ndarray, g_sub: np.ndarray) -> np.ndarray:
    """Bilinear collision term Gamma(f, g) projected on the Hermite sub-basis."""
    f_sub = np.asarray(f_sub)
    g_sub = np.asarray(g_sub)
    nb = len(cm.gamma.indices)
    if f_sub.shape != (nb,) or g_sub.shape != (nb,):
        raise ValueError(f"sub-basis coefficients must have length {nb}")
    return np.einsum("ijk,i,j->k", cm.gamma.tensor, f_sub, g_sub)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class CollisionMatrices:
    basis: Basis
    K_deg: dict[int, np.ndarray]
    K1_deg: dict[int, np.ndarray]
    nu_deg: dict[int, np.ndarray]
    L_sector: dict[int, np.ndarray]
    L1_sector: dict[int, np.ndarray]
    mu_estimate: float
    mu_argmax_degree: int
    nu0: float
    nu1: float
    raw_null_residuals: dict[str, float]
    gamma: GammaTensor
    kernel_refinement_delta: float
    _cache: dict = field(default_factory=dict, repr=False)

    def L_full(self) -> np.ndarray:
        return self._full("L", self.L_sector)

    def L1_full(self) -> np.ndarray:
        return self._full("L1", self.L1_sector)

    def _full(self, tag, sector):
        if tag in self._cache:
            return self._cache[tag]
        b = self.basis
        out = np.zeros((b.dim, b.dim))
        out[b.slice_axial, b.slice_axial] = sector[SECTOR_AXIAL]
        out[b.slice_cos, b.slice_cos] = sector[SECTOR_TRANSVERSE]
        out[b.slice_sin, b.slice_sin] = sector[SECTOR_TRANSVERSE]
        self._cache[tag] = out
        return out


def _clean_block(block: np.ndarray, null_idx: list[int]) -> np.ndarray:
    if not null_idx:
        return block
    pi = np.eye(block.shape[0])
    for i in null_idx:
        pi[i, i] = 0.0
    return pi @ block @ pi


def _sector_from_blocks(basis: Basis, blocks: dict[int, np.ndarray], sector: int) -> np.ndarray:
    nr = basis.spec.radial_order
    degrees = (
        range(basis.spec.angular_max + 1)
        if sector == SECTOR_AXIAL
        else range(1, basis.spec.angular_max + 1)
    )
    degrees = list(degrees)
    dim = nr * len(degrees)
    out = np.zeros((dim, dim))
    for a, l in enumerate(degrees):
        out[a * nr:(a + 1) * nr, a * nr:(a + 1) * nr] = blocks[l]
    return out


def assemble_collision(basis: Basis, build_gamma: bool = True) -> CollisionMatrices:
    spec = basis.spec
    lmax = spec.angular_max
    r = basis.quad.r
    wr = basis.quad.wr

    K1_coarse, K_coarse = _gain_matrices(basis, n_panel_points=12)
    K1_deg, K_deg = _gain_matrices(basis, n_panel_points=24)
    delta = max(
        max(np.max(np.abs(K1_coarse[l] - K1_deg[l])) for l in K1_deg),
        max(np.max(np.abs(K_coarse[l] - K_deg[l])) for l in K_deg),
    )
    scale = 1.0 + max(np.max(np.abs(K1_deg[l])) for l in K1_deg)
    if delta > 1e-8 * scale:
        raise AssemblyError(f"kernel quadrature not converged: delta={delta:.3e}")

    nu_nodes = _nu_of_r(r)
    nu_deg = {}
    for l in range(lmax + 1):
        tab = basis.radial_tables[l]
        nu_deg[l] = (tab * (wr * nu_nodes)) @ tab.T

    raw_L = {l: K_deg[l] - nu_deg[l] for l in range(lmax + 1)}
    raw_L1 = {l: K1_deg[l] - nu_deg[l] for l in range(lmax + 1)}

    residuals = {
        "L_chi0": float(np.linalg.norm(raw_L[0][:, 0])),
        "L_chi1": float(np.linalg.norm(raw_L[1][:, 0])),
        "L_chi4": float(np.linalg.norm(raw_L[0][:, 1])),
        "L1_chi0": float(np.linalg.norm(raw_L1[0][:, 0])),
    }

    clean_L = {l: _clean_block(raw_L[l], {0: [0, 1], 1: [0]}.get(l, [])) for l in raw_L}
    clean_L1 = {l: _clean_block(raw_L1[l], [0] if l == 0 else []) for l in raw_L1}

    sectors = (SECTOR_AXIAL, SECTOR_TRANSVERSE)
    L_sector = {sec: _sector_from_blocks(basis, clean_L, sec) for sec in sectors}
    L1_sector = {sec: _sector_from_blocks(basis, clean_L1, sec) for sec in sectors}

    mu, mu_l = _spectral_gap(clean_L, lmax)

    grid = np.linspace(0.0, 20.0, 2001)
    ratios = _nu_of_r(grid) / (1.0 + grid)
    nu0, nu1 = float(ratios.min()), float(ratios.max())

    if build_gamma:
        indices, tensor, chi_sub = _assemble_gamma_tensor()
        cmat, els = _change_of_basis(indices)
        if spec.radial_order >= 3 and lmax >= 4:
            l_sub = _sub_operator(cmat, els, raw_L)
            l1_sub = _sub_operator(cmat, els, raw_L1)
        else:
            l_sub = l1_sub = None
        gamma = GammaTensor(indices, tensor, chi_sub, cmat, l_sub, l1_sub)
    else:
        gamma = GammaTensor(hermite_sub_indices(), np.zeros((35, 35, 35)),
                            np.zeros((5, 35)), None, None, None)

    return CollisionMatrices(
        basis=basis,
        K_deg=K_deg,
        K1_deg=K1_deg,
        nu_deg=nu_deg,
        L_sector=L_sector,
        L1_sector=L1_sector,
        mu_estimate=mu,
        mu_argmax_degree=mu_l,
        nu0=nu0,
        nu1=nu1,
        raw_null_residuals=residuals,
        gamma=gamma,
        kernel_refinement_delta=float(delta),
    )


def _spectral_gap(clean_L: dict[int, np.ndarray], lmax: int) -> tuple[float, int]:
    best = -np.inf
    best_l = 0
    for l in range(lmax + 1):
        null = {0: [0, 1], 1: [0]}.get(l, [])
        keep = [i for i in range(clean_L[l].shape[0]) if i not in null]
        sub = clean_L[l][np.ix_(keep, keep)]
        lam = np.linalg.eigvalsh(sub).max()
        if lam > best:
            best, best_l = lam, l
    return float(-best), best_l
