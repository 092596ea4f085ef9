"""Hard-sphere linearized collision operators on the reduced basis.

Closed-form ingredients: the collision frequency nu(|v|), the smoothing kernel
k1(v, v*) with its removable 1/|v-v*| singularity, and the Gaussian product
correction that distinguishes the two-species operator from the single-species
one.  The angular dependence of both kernels is reduced per Legendre degree by
a Funk-Hecke step; substituting t = |v-v*| removes the singularity exactly and
leaves a boundary layer near the radial diagonal that geometrically graded
panels resolve.

Assembly integrates the gain kernels with a 12- and a 24-point panel rule and
raises AssemblyError when they disagree.  Both rules share one set of inner
radial nodes, weights and per-degree radial tables (one Laguerre recurrence per
degree), and the panel quadrature runs over node pairs in cache-sized blocks.

The bilinear collision term is kept as a dense 3-index array over a 35-element
orthonormal tensor-Hermite sub-basis (polynomial degree <= 4).  It does not
depend on the velocity basis, so it is built once per process and shared
read-only.  Its weak-form integrals are evaluated in the center-of-mass
velocity p and the relative velocity r sigma with the deflection-vector
parametrization, which makes every integrand a polynomial times a Gaussian.
Each node count integrates its polynomial exactly:

- p: the gain integrand H_i(a) H_j(b) H_k(a') and the loss integrand
  H_i(a) H_k(a) H_j(b) have degree <= 4 + 4 + 4 = 12 in each component of p;
  a 7-point Gauss-Hermite rule per axis is exact up to degree 13.
- sigma: each sphere sum has degree <= 12 in sigma.  A 7-point Gauss-Legendre
  rule in the polar cosine is exact up to degree 13, and 16 equispaced
  azimuths are exact for azimuthal orders up to 15.  The polar nodes are
  symmetric about 0 and the azimuth count is even, so the rule is symmetric
  under sigma -> -sigma.
- r: the hard-sphere factor r and the Jacobian r^2 make the radial weight
  r^3 exp(-r^2/2) dr, which is u exp(-u) du in u = r^2/2.  After the sigma sum
  on the symmetric rule, the integrands are even in r of degree <= 12, that is
  of degree <= 6 in u; a 4-point generalized Gauss-Laguerre rule (alpha = 1)
  is exact up to degree 7.
- The change of basis to the Burnett-type elements and the polynomial
  projection integrate products of two degree-<=4 factors (degree <= 8) on a
  9-point product Gauss-Hermite grid, exact up to degree 17.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag
from scipy.special import erf, roots_genlaguerre, roots_hermitenorm

from .velocity_basis import Basis, SECTOR_AXIAL, SECTOR_TRANSVERSE, _radial_norm, laguerre_rows

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

# Node pairs per block of the panel quadrature.  A pair holds n_panels *
# n_panel_points samples, so at 8 panels of 24 points a block temporary is
# about 200 KB; one block over the 6336 pairs of BasisSpec(24, 6) was 10 MB.
_PAIR_CHUNK = 128


def _pair_kernel_moments(ra: np.ndarray, rb: np.ndarray, lmax: int,
                         n_panel_points: int, n_panels: int):
    """Per-degree moments (k1_l(ra, rb), gauss_l(ra, rb)) at node pairs.

    Pairs are independent and every reduction runs along one pair's samples,
    so the blocks of _PAIR_CHUNK pairs give the same bits as one block.
    """
    x, wgl = np.polynomial.legendre.leggauss(n_panel_points)
    k = np.arange(n_panels + 1)
    k1_pairs = np.empty((lmax + 1, ra.size))
    g_pairs = np.empty((lmax + 1, ra.size))
    for start in range(0, ra.size, _PAIR_CHUNK):
        sl = slice(start, start + _PAIR_CHUNK)
        a_r, b_r = ra[sl], rb[sl]
        t0 = np.abs(a_r - b_r)
        t1 = a_r + b_r
        span = t1 - t0
        tau = np.clip(t0 * t1 / (2.0 * math.sqrt(2.0)), 1e-4 * span, span)

        # geometric breakpoints b_k = t0 + tau*(rho^k - 1), rho^K = span/tau + 1
        rho = (span / tau + 1.0) ** (1.0 / n_panels)
        bps = t0[:, None] + tau[:, None] * (rho[:, None] ** k[None, :] - 1.0)
        bps[:, -1] = t1  # guard roundoff

        lo = bps[:, :-1, None]
        hi = bps[:, 1:, None]
        t = 0.5 * (hi - lo) * x[None, None, :] + 0.5 * (hi + lo)
        wt = 0.5 * (hi - lo) * wgl[None, None, :]
        t = t.reshape(t0.size, -1)
        wt = wt.reshape(t0.size, -1)

        a = (a_r**2 - b_r**2) ** 2 / 8.0
        tsq = t * t
        expo = np.exp(-a[:, None] / np.maximum(tsq, 1e-300) - tsq / 8.0)
        denom = a_r * b_r
        cos = (a_r[:, None] ** 2 + b_r[:, None] ** 2 - tsq) / (2.0 * denom[:, None])
        cos = np.clip(cos, -1.0, 1.0)

        # Legendre moments by upward recurrence (its l = 1 step is cos exactly)
        p_prev, pl = np.zeros_like(cos), np.ones_like(cos)
        w_exp = wt * expo
        w_t2 = wt * tsq
        for l in range(lmax + 1):
            if l:
                p_prev, pl = pl, ((2 * l - 1) * cos * pl - (l - 1) * p_prev) / l
            k1_pairs[l, sl] = np.sum(w_exp * pl, axis=1)
            g_pairs[l, sl] = np.sum(w_t2 * pl, axis=1)

        k1_pairs[:, sl] *= (_TWO_PI * (2.0 / _SQRT_2PI) / denom)[None, :]
        g_pairs[:, sl] *= (_TWO_PI / (2.0 * _SQRT_2PI) / denom
                           * np.exp(-(a_r**2 + b_r**2) / 4.0))[None, :]
    return k1_pairs, g_pairs


def reduced_kernel_tables(r_nodes: np.ndarray, lmax: int, n_panel_points: int = 12,
                          n_panels: int = 8):
    """Legendre-degree kernels k1_l(r, r') and k_l(r, r') on a node set.

    Returns (k1_tab, k_tab) with shape (lmax+1, n, n).  The angular integral
    is carried out in the variable t = |v - v'|; panels are geometrically
    graded from t = |r - r'| at the scale of the exponential boundary layer.
    """
    r = np.asarray(r_nodes, dtype=float)
    iu = np.triu_indices(r.size)
    tabs = []
    for pairs in _pair_kernel_moments(r[iu[0]], r[iu[1]], lmax, n_panel_points, n_panels):
        tab = np.zeros((lmax + 1, r.size, r.size))
        tab[:, iu[0], iu[1]] = tab[:, iu[1], iu[0]] = pairs
        tabs.append(tab)
    k1_tab, g_tab = tabs
    return k1_tab, k1_tab - g_tab


def _gain_matrices(basis: Basis, n_panels: int = 8):
    """Galerkin matrices (K1_deg, K_deg) of the gain kernels, per Legendre degree.

    The reduced kernels have a derivative kink across r = r', so the double
    radial integral is taken over the triangle r' < r, where the integrand is
    one-sidedly smooth, and symmetrized.  The inner integral uses a mapped
    Gauss-Legendre rule; the outer one reuses the basis quadrature.  One pair
    comes back per panel rule, coarse (12 points) then fine (24): the inner
    nodes, weights and radial tables serve both.
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
    moments = [_pair_kernel_moments(ra, rb, lmax, points, n_panels) for points in (12, 24)]
    inner_w = (w_in * r_in**2).ravel()

    out = [({}, {}) for _ in moments]
    for l in range(lmax + 1):
        half_out = basis.radial_tables[l] * basis.quad.wr_half
        bw = (basis.radial_table(l, rb) * inner_w[None, :]).reshape(-1, nq, n_inner)
        for (k1p, gp), (K1_deg, K_deg) in zip(moments, out):
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
    return out


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


# the one sub-basis every Gamma tensor is expressed in
_SUB_INDICES = tuple(hermite_sub_indices())


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


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array shared between callers read-only."""
    a.flags.writeable = False
    return a


@dataclass
class GammaTensor:
    indices: tuple[tuple[int, int, int], ...]
    tensor: np.ndarray | None               # (35, 35, 35) weak-form values; None unless built
    chi_sub: np.ndarray                     # (5, 35) collision invariants
    change_of_basis: np.ndarray | None      # Hermite <- Burnett-sub, orthogonal
    L_sub: np.ndarray | None                # 35x35, two-species operator
    L1_sub: np.ndarray | None               # 35x35, single-species operator

    def index_of(self, abc: tuple[int, int, int]) -> int:
        return self.indices.index(abc)


@functools.cache
def _sub_invariants() -> np.ndarray:
    """Collision invariants 1, v1, v2, v3, (|v|^2 - 3)/sqrt(6) on the sub-basis."""
    chi_sub = np.zeros((5, len(_SUB_INDICES)))
    chi_sub[0, _SUB_INDICES.index((0, 0, 0))] = 1.0
    chi_sub[1, _SUB_INDICES.index((1, 0, 0))] = 1.0
    chi_sub[2, _SUB_INDICES.index((0, 1, 0))] = 1.0
    chi_sub[3, _SUB_INDICES.index((0, 0, 1))] = 1.0
    for abc in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        chi_sub[4, _SUB_INDICES.index(abc)] = 1.0 / math.sqrt(3.0)
    return _frozen(chi_sub)


# Node counts of the Gamma quadrature
_N_HERM = 7         # Gauss-Hermite, per axis of the center-of-mass velocity
_N_RAD = 4          # generalized Gauss-Laguerre (alpha = 1) in u = r^2 / 2
_N_POLAR = 7        # Gauss-Legendre in the polar cosine of the deflection vector
_N_AZIM = 16        # equispaced azimuths
_GAMMA_CHUNK = 512  # (center-of-mass, radial) node pairs per block


@functools.cache
def _assemble_gamma_tensor() -> np.ndarray:
    """Weak-form tensor tensor[i, j, k] = (Gamma(H_i, H_j), H_k), read-only.

    Built once per process: it does not depend on the velocity basis.  The
    module docstring gives the degree count behind each node count.
    """
    indices = _SUB_INDICES
    nb = len(indices)

    xh, wh = roots_hermitenorm(_N_HERM)
    wh = wh / math.sqrt(_TWO_PI)
    px, py, pz = np.meshgrid(xh, xh, xh, indexing="ij")
    pw = (wh[:, None, None] * wh[None, :, None] * wh[None, None, :]).ravel()
    pgrid = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=1)

    u, wu = roots_genlaguerre(_N_RAD, 1.0)
    rr = np.sqrt(2.0 * u)
    wr = (math.sqrt(2.0) / 2.0) * _TWO_PI ** (-1.5) * wu

    mu, wmu = np.polynomial.legendre.leggauss(_N_POLAR)
    phi = _TWO_PI * np.arange(_N_AZIM) / _N_AZIM
    wphi = _TWO_PI / _N_AZIM
    st = np.sqrt(1.0 - mu**2)
    sig = np.stack(
        [
            np.repeat(mu, _N_AZIM),
            np.repeat(st, _N_AZIM) * np.tile(np.cos(phi), _N_POLAR),
            np.repeat(st, _N_AZIM) * np.tile(np.sin(phi), _N_POLAR),
        ],
        axis=1,
    )
    wsig = np.repeat(wmu, _N_AZIM) * wphi
    ns = sig.shape[0]

    combos_p = np.repeat(np.arange(pgrid.shape[0]), _N_RAD)
    combos_r = np.tile(np.arange(_N_RAD), pgrid.shape[0])
    wq = pw[combos_p] * wr[combos_r]
    nq = combos_p.size

    t1 = np.zeros((nb, nb, nb))
    t2 = np.zeros((nb, nb, nb))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for start in range(0, nq, _GAMMA_CHUNK):
        sl = slice(start, min(start + _GAMMA_CHUNK, nq))
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
        # loss part: same sphere nodes serve as the relative-velocity directions;
        # t2[i, :, k] is symmetric in (i, k), so only i >= k is accumulated
        row_w = (wq[sl, None] * wsig[None, :]).ravel()
        ha_f = ha.reshape(-1, nb)
        hb_f = hb.reshape(-1, nb)
        for kk in range(nb):
            t2[kk:, :, kk] += (ha_f[:, kk:] * (row_w * ha_f[:, kk])[:, None]).T @ hb_f
    above = np.triu_indices(nb, 1)
    t2[above[0], :, above[1]] = t2[above[1], :, above[0]]
    return _frozen(t1 - 4.0 * math.pi * t2)


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
    rows = laguerre_rows(n + 1, l + 0.5, 0.5 * r * r)
    return _radial_norm(n, l) * _TWO_PI ** (-0.75) * rows[n] * r**l


@functools.cache
def _sub_quadrature(indices: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """9-point product Gauss-Hermite grid: points, weights, Hermite table there."""
    xh, wh = roots_hermitenorm(9)
    wh = wh / math.sqrt(_TWO_PI)
    gx, gy, gz = np.meshgrid(xh, xh, xh, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    w3 = (wh[:, None, None] * wh[None, :, None] * wh[None, None, :]).ravel()
    return _frozen(pts), _frozen(w3), _frozen(_sub_table(pts, indices))


@functools.cache
def _change_of_basis() -> tuple[np.ndarray, tuple]:
    """Orthogonal matrix C with C[h, b] = (hermite_h, burnett_b), read-only."""
    els = _burnett_sub_elements()
    pts, w3, herm = _sub_quadrature(_SUB_INDICES)
    r = np.linalg.norm(pts, axis=1)
    safe_r = np.where(r < 1e-14, 1.0, r)
    vhat = pts / safe_r[:, None]
    vhat[r < 1e-14] = np.array([1.0, 0.0, 0.0])
    sph = _real_sph_table(vhat)

    cols = []
    for (n, l, m, kind) in els:
        rad = _radial_poly(n, l, r)
        if l > 0:
            rad = np.where(r < 1e-14, 0.0, rad)
        # strip the Gaussian shared with the Hermite side; absorb into weights
        cols.append(rad * sph[(l, m, kind)] * _TWO_PI**0.75)
    burn = np.stack(cols, axis=1)
    cmat = (herm * w3[:, None]).T @ burn
    return _frozen(cmat), tuple(els)


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
    pts, w3, table = _sub_quadrature(tuple(gamma.indices))
    vals = poly(pts)
    return (table * (w3 * vals)[:, None]).sum(axis=0)


def gamma_apply(cm: "CollisionMatrices", f_sub: np.ndarray, g_sub: np.ndarray) -> np.ndarray:
    """Bilinear collision term Gamma(f, g) projected on the Hermite sub-basis."""
    if cm.gamma.tensor is None:
        raise AssemblyError(
            "no Gamma tensor: assemble the collision matrices with build_gamma=True"
        )
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
    """Collision operators L (two species) and L1 (species difference).

    Sector blocks are their only layout: L_sector[s] and L1_sector[s] for the
    axial sector and for the one transverse copy that the cosine and sine
    copies share.  Each block has zero rows and columns on its null
    coordinates (null_coordinates); collision_inverse is the one solve.
    """

    basis: Basis
    K_deg: dict[int, np.ndarray]
    K1_deg: dict[int, np.ndarray]
    nu_deg: dict[int, np.ndarray]
    L_sector: dict[int, np.ndarray]
    L1_sector: dict[int, np.ndarray]
    mu_estimate: float
    nu0: float
    nu1: float
    raw_null_residuals: dict[str, float]
    gamma: GammaTensor
    kernel_refinement_delta: float
    _cache: dict = field(default_factory=dict, repr=False)


# Radial indices of the collision invariants per Legendre degree: L keeps
# density and energy (n = 0, 1) at l = 0 and momentum at l = 1; L1 keeps the
# density alone.
_NULL_RADIAL = {"L": {0: (0, 1), 1: (0,)}, "L1": {0: (0,)}}


def null_coordinates(basis: Basis, which: str, sector: int) -> list[int]:
    """Coordinates of the collision invariants in one sector block of L or L1."""
    first = 0 if sector == SECTOR_AXIAL else 1
    return [(l - first) * basis.spec.radial_order + n
            for l, radial in _NULL_RADIAL[which].items() if l >= first for n in radial]


def collision_inverse(cm: CollisionMatrices, which: str, sector: int,
                      w: np.ndarray) -> np.ndarray:
    """L^{-1} P w on one sector block of L or L1 (which = "L" or "L1").

    P projects off the null coordinates, whose zero diagonal entries are
    shifted to one for the solve.  Raises AssemblyError if the block is
    singular off its null coordinates or the solution leaves the range or
    picks up a null component.
    """
    block = {"L": cm.L_sector, "L1": cm.L1_sector}[which][sector]
    null = null_coordinates(cm.basis, which, sector)
    wp = np.array(w)
    wp[null] = 0.0
    shifted = block.copy()
    shifted[null, null] += 1.0
    try:
        sol = np.linalg.solve(shifted, wp)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"{which} block of sector {sector} is singular") from exc
    tol = 1e-8 * (np.linalg.norm(wp) + 1e-30)
    if np.linalg.norm(block @ sol - wp) > tol:
        raise AssemblyError("constrained solve left the operator range")
    if np.any(np.abs(sol[null]) > tol):
        raise AssemblyError("constrained solve picked up a null component")
    return sol


def _clean_block(block: np.ndarray, null_idx) -> np.ndarray:
    out = block.copy()
    out[list(null_idx)] = out[:, list(null_idx)] = 0.0
    return out


def _sector_from_blocks(basis: Basis, blocks: dict[int, np.ndarray], sector: int) -> np.ndarray:
    first = 0 if sector == SECTOR_AXIAL else 1
    return block_diag(*(blocks[l] for l in range(first, basis.spec.angular_max + 1)))


def assemble_collision(basis: Basis, build_gamma: bool = True) -> CollisionMatrices:
    spec = basis.spec
    lmax = spec.angular_max
    r = basis.quad.r
    wr = basis.quad.wr

    (K1_coarse, K_coarse), (K1_deg, K_deg) = _gain_matrices(basis)
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

    raw = {"L": raw_L, "L1": raw_L1}
    residuals = {f"{which}(n={n}, l={l})": float(np.linalg.norm(raw[which][l][:, n]))
                 for which, degrees in _NULL_RADIAL.items()
                 for l, radial in degrees.items() for n in radial}

    clean_L = {l: _clean_block(raw_L[l], _NULL_RADIAL["L"].get(l, ())) for l in raw_L}
    clean_L1 = {l: _clean_block(raw_L1[l], _NULL_RADIAL["L1"].get(l, ())) for l in raw_L1}

    sectors = (SECTOR_AXIAL, SECTOR_TRANSVERSE)
    L_sector = {sec: _sector_from_blocks(basis, clean_L, sec) for sec in sectors}
    L1_sector = {sec: _sector_from_blocks(basis, clean_L1, sec) for sec in sectors}

    mu = _spectral_gap(clean_L, lmax)

    grid = np.linspace(0.0, 20.0, 2001)
    ratios = _nu_of_r(grid) / (1.0 + grid)
    nu0, nu1 = float(ratios.min()), float(ratios.max())

    tensor = cmat = l_sub = l1_sub = None
    if build_gamma:
        tensor = _assemble_gamma_tensor()
        cmat, els = _change_of_basis()
        if spec.radial_order >= 3 and lmax >= 4:
            l_sub = _sub_operator(cmat, els, raw_L)
            l1_sub = _sub_operator(cmat, els, raw_L1)
    gamma = GammaTensor(_SUB_INDICES, tensor, _sub_invariants(), cmat, l_sub, l1_sub)

    return CollisionMatrices(
        basis=basis,
        K_deg=K_deg,
        K1_deg=K1_deg,
        nu_deg=nu_deg,
        L_sector=L_sector,
        L1_sector=L1_sector,
        mu_estimate=mu,
        nu0=nu0,
        nu1=nu1,
        raw_null_residuals=residuals,
        gamma=gamma,
        kernel_refinement_delta=float(delta),
    )


def _spectral_gap(clean_L: dict[int, np.ndarray], lmax: int) -> float:
    best = -np.inf
    for l in range(lmax + 1):
        null = _NULL_RADIAL["L"].get(l, ())
        keep = [i for i in range(clean_L[l].shape[0]) if i not in null]
        sub = clean_L[l][np.ix_(keep, keep)]
        best = max(best, np.linalg.eigvalsh(sub).max())
    return float(-best)
