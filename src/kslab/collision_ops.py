"""Hard-sphere linearized collision operators on the reduced basis.

Closed-form ingredients: the collision frequency nu(|v|) (_nu_of_r), the
smoothing kernel k1(v, v*) with its removable 1/|v-v*| singularity, and the
Gaussian product correction that distinguishes the two-species operator from
the single-species one.  The angular dependence of both kernels is reduced per
Legendre degree by a Funk-Hecke step; substituting t = |v-v*| removes the
singularity exactly and leaves a boundary layer near the radial diagonal that
geometrically graded panels resolve.  Assembly reads only these reduced
forms; the pointwise kernels are the tests' reference, not the library's.

Assembly integrates the gain kernels with a 12- and a 24-point panel rule and
raises AssemblyError when they disagree.  Both rules share one set of inner
radial nodes, weights and per-degree radial tables (one Laguerre recurrence per
degree), and one pass of the panel quadrature serves both: it runs over the
node pairs in cache-sized blocks, computes each block's pair geometry once,
and runs each rule's Legendre recurrence in a fixed set of block-sized
buffers.  Every sample sees the operations of a pass per rule in their order,
so the moments are the same bits either way.  One per-degree builder,
_degree_blocks, makes the gain, nu and collision blocks of the Legendre
degrees up to a top degree and runs that check on each of them.
assemble_collision builds every degree of the basis; the refined pass of
fluid_limits.truncation_deltas builds only the degrees l <= 2 that its
quadratic forms read.  The quadrature is sized by the basis, not by the top
degree, so a degree's blocks are the same bits whatever the top degree.

The bilinear collision term is kept as a dense 3-index array over a 35-element
orthonormal tensor-Hermite sub-basis (polynomial degree <= 4).  It does not
depend on the velocity basis, so it is built once per process and shared
read-only.  Its weak-form integrals are evaluated in the center-of-mass
velocity p and the relative velocity r sigma with the deflection-vector
parametrization, which makes every integrand a polynomial times a Gaussian.
Each node count integrates its polynomial exactly:

- p: the gain integrand H_i(a) H_j(b) H_k(a') and the loss integrand
  H_i(a) H_k(a) H_j(b) have degree <= 4 + 4 + 4 = 12 in each component of p;
  a 7-point Gauss-Hermite rule per axis is exact up to degree 13.  Reflecting
  one axis d of both p and sigma maps the 7^3 grid and the sphere rule onto
  themselves and multiplies each entry's integrand by (-1)^(i_d + j_d + k_d).
  So the sum runs over the octant p >= 0, 64 nodes, each weighted by 2^(its
  nonzero components) for its images, and every entry whose degree sum is
  odd in some axis is set to exactly 0.  The loss accumulator below is a
  full-grid sum only where j + m is even in every axis, and an even entry
  reads no other: c[i, k, m] vanishes unless m_d = i_d + k_d mod 2.
- sigma: each sphere sum has degree <= 12 in sigma.  A 7-point Gauss-Legendre
  rule in the polar cosine is exact up to degree 13, and 14 equispaced
  azimuths are exact for azimuthal orders up to 13.  The polar nodes are
  symmetric about 0 and the azimuth count is even, so the rule is symmetric
  under sigma -> -sigma; it is stored as one half and its exact negation,
  with equal weights.  The post-collision velocities a = (p + r sigma)/sqrt2
  and b = (p - r sigma)/sqrt2 then satisfy b(sigma) = a(-sigma) bit for bit,
  so the Hermite table at b is the table at a read at the mirrored node and
  only one table is evaluated per block.
- r: the hard-sphere factor r and the Jacobian r^2 make the radial weight
  r^3 exp(-r^2/2) dr, which is u exp(-u) du in u = r^2/2.  After the sigma sum
  on the symmetric rule, the integrands are even in r of degree <= 12, that is
  of degree <= 6 in u; a 4-point generalized Gauss-Laguerre rule (alpha = 1)
  is exact up to degree 7.
- The loss term linearizes H_i H_k = sum_m c[i, k, m] H_m over the 165
  normalized Hermite products of degree <= 8, so each block of nodes adds one
  product (H_m(a), H_j(b)) to a 165 x 35 accumulator.  The coefficients c are
  the closed-form one-dimensional linearization of h_m h_n, multiplied over
  the three axes; no node values enter them.
- The node pairs (p, r) run in blocks of 16, each with its 98 sphere nodes:
  the 165-column Hermite table of a block is about 2 MB.  The table is filled
  row by row, X_a Y_b once per (a, b) and then times Z_c, so the build holds
  no gathered copies of it, and each block's arrays end before the next
  block's table fills.  The build's traced peak is 3.9 MB.
- The change of basis to the Burnett-type elements integrates products of
  two degree-<=4 factors (degree <= 8) on a 9-point product Gauss-Hermite
  grid.  The Burnett-type elements are the velocity basis's own: radial
  profiles from velocity_basis._radial_rows and angular factors from
  velocity_basis._legendre_row.

Bad input fails at the boundary with ValueError and the module's own
message, its documented error: collision data or a basis of the wrong type,
coefficients and right-hand sides that are not finite numbers
(velocity_basis._finite_complex_array) or are wrongly shaped, and sector or
operator names outside the basis.  AssemblyError is kept for an assembly or
solve that fails on valid input.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import erf, roots_genlaguerre, roots_hermitenorm

from .velocity_basis import (
    Basis, SECTOR_AXIAL, SECTOR_TRANSVERSE, _check_record, _check_sector,
    _finite_complex_array, _frozen, _gauss_legendre, _leggauss, _legendre_row,
    _radial_overlap, _radial_rows,
)

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


# ---------------------------------------------------------------------------
# per-degree radial reduction of the kernels
# ---------------------------------------------------------------------------

# Node pairs per block of the panel quadrature.  A pair holds _N_PANELS *
# n_panel_points samples, so at 8 panels of 24 points a block buffer is about
# 200 KB; the kernel holds six.  One block over the 6336 pairs of
# BasisSpec(24, 6) was 10 MB per temporary.
_PAIR_CHUNK = 128
# geometric panels per pair in the angular integral of the reduced kernels
_N_PANELS = 8


def _pair_kernel_moments(ra: np.ndarray, rb: np.ndarray, lmax: int, rules: tuple[int, ...]):
    """Per-degree moments (k1_l(ra, rb), gauss_l(ra, rb)) at node pairs, one
    pair of (lmax + 1, n_pairs) arrays per panel rule in rules.

    One pass runs over blocks of _PAIR_CHUNK pairs.  Each block computes its
    geometry once: the pair distances t0 = |ra - rb| and t1 = ra + rb, the
    geometric panel breakpoints and the closing scale factors.  Each rule
    then maps its Gauss points onto those panels and runs the Legendre
    recurrence in six block-sized buffers, written in place.  P_0 = 1 and
    P_1 = cos need no recurrence step: their moments are the row sums of the
    weights and of the weights times cos.  Every sample sees the same
    operations in the same order as a pass per rule with fresh temporaries,
    so the result does not depend on which rules share a call.  Pairs are
    independent and every reduction runs along one pair's samples, so the
    blocks give the same bits as one block.
    """
    nodes = [_leggauss(points) for points in rules]
    out = [(np.empty((lmax + 1, ra.size)), np.empty((lmax + 1, ra.size))) for _ in rules]
    size = min(_PAIR_CHUNK, ra.size) * _N_PANELS * max(rules)
    buffers = [np.empty(size) for _ in range(6)]
    k = np.arange(_N_PANELS + 1)
    for start in range(0, ra.size, _PAIR_CHUNK):
        sl = slice(start, start + _PAIR_CHUNK)
        a_r, b_r = ra[sl], rb[sl]
        t0 = np.abs(a_r - b_r)
        t1 = a_r + b_r
        span = t1 - t0
        tau = np.clip(t0 * t1 / (2.0 * math.sqrt(2.0)), 1e-4 * span, span)

        # geometric breakpoints b_k = t0 + tau*(rho^k - 1), rho^K = span/tau + 1
        rho = (span / tau + 1.0) ** (1.0 / _N_PANELS)
        bps = t0[:, None] + tau[:, None] * (rho[:, None] ** k[None, :] - 1.0)
        bps[:, -1] = t1  # guard roundoff
        lo = bps[:, :-1, None]
        hi = bps[:, 1:, None]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)

        neg_a = -((a_r**2 - b_r**2) ** 2 / 8.0)[:, None]
        sq_sum = a_r**2 + b_r**2
        denom = a_r * b_r
        two_denom = 2.0 * denom[:, None]
        k1_scale = (_TWO_PI * (2.0 / _SQRT_2PI) / denom)[None, :]
        g_scale = (_TWO_PI / (2.0 * _SQRT_2PI) / denom * np.exp(-sq_sum / 4.0))[None, :]

        for (x, wgl), (k1_pairs, g_pairs) in zip(nodes, out):
            n = a_r.size * _N_PANELS * x.size
            tsq, wt, expo, cos, *free = (buf[:n].reshape(a_r.size, -1) for buf in buffers)
            # the rule's points t and weights on every panel, then t^2 in place
            t = tsq.reshape(half.shape[:2] + x.shape)
            np.multiply(half, x, out=t)
            np.add(t, mid, out=t)
            np.multiply(half, wgl, out=wt.reshape(t.shape))
            np.multiply(tsq, tsq, out=tsq)
            # exp(-a / max(t^2, 1e-300) - t^2 / 8)
            np.maximum(tsq, 1e-300, out=expo)
            np.divide(neg_a, expo, out=expo)
            np.divide(tsq, 8.0, out=free[0])
            np.subtract(expo, free[0], out=expo)
            np.exp(expo, out=expo)
            np.subtract(sq_sum[:, None], tsq, out=cos)
            np.divide(cos, two_denom, out=cos)
            np.clip(cos, -1.0, 1.0, out=cos)
            np.multiply(wt, expo, out=expo)  # w exp
            np.multiply(wt, tsq, out=wt)  # w t^2
            free.append(tsq)
            _legendre_moments(lmax, cos, expo, wt, free, k1_pairs[:, sl], g_pairs[:, sl])
            k1_pairs[:, sl] *= k1_scale
            g_pairs[:, sl] *= g_scale
    return out


def _legendre_moments(lmax, cos, w_exp, w_t2, free, k1_rows, g_rows):
    """Row sums of w_exp * P_l(cos) and w_t2 * P_l(cos) into row l of k1_rows
    and g_rows, l <= lmax, by the upward recurrence
    P_l = ((2l - 1) cos P_(l-1) - (l - 1) P_(l-2)) / l.

    free holds three spare buffers of cos's shape; cos is never overwritten.
    """
    np.sum(w_exp, axis=1, out=k1_rows[0])
    np.sum(w_t2, axis=1, out=g_rows[0])
    p_prev, pl = 1.0, cos  # P_0 and P_1, exactly as the recurrence gives them
    for l in range(1, lmax + 1):
        if l > 1:
            new = free.pop()
            np.multiply(cos, 2 * l - 1, out=new)
            np.multiply(new, pl, out=new)
            if l == 2:
                np.subtract(new, p_prev, out=new)
            else:
                # P_1 is cos itself, so its multiple goes to a spare buffer
                scaled = free[-1] if p_prev is cos else p_prev
                np.multiply(p_prev, l - 1, out=scaled)
                np.subtract(new, scaled, out=new)
                if p_prev is not cos:
                    free.append(p_prev)
            np.divide(new, l, out=new)
            p_prev, pl = pl, new
        prod = free[-1]
        np.multiply(w_exp, pl, out=prod)
        np.sum(prod, axis=1, out=k1_rows[l])
        np.multiply(w_t2, pl, out=prod)
        np.sum(prod, axis=1, out=g_rows[l])


def _gain_matrices(basis: Basis, top: int):
    """Galerkin matrices (K1, K) of the gain kernels, per Legendre degree l <= top.

    The reduced kernels have a derivative kink across r = r', so the double
    radial integral is taken over the triangle r' < r, where the integrand is
    one-sidedly smooth, and symmetrized.  The inner integral uses a mapped
    Gauss-Legendre rule; the outer one reuses the basis quadrature.  One pair
    comes back per panel rule, coarse (12 points) then fine (24), from one
    kernel pass over the node pairs; the inner nodes, weights and radial
    tables serve both, and every kernel row is weighted in one reused buffer.
    The inner rule is sized by the basis, not by top, so each degree's
    matrices are the same bits whatever top is.
    """
    spec = basis.spec
    r_out = basis.quad.r
    nq = r_out.size
    n_inner = max(64, 3 * spec.radial_order + 4 * spec.angular_max)
    r_in, w_in = _gauss_legendre(n_inner, r_out[:, None])
    rb = r_in.ravel()
    ra = np.repeat(r_out, n_inner)
    moments = _pair_kernel_moments(ra, rb, top, (12, 24))
    inner_w = (w_in * r_in**2).ravel()

    out = [({}, {}) for _ in moments]
    weighted = np.empty((spec.radial_order, nq, n_inner))
    for l in range(top + 1):
        half_out = basis.radial_tables[l] * basis.quad.wr_half
        bw = basis.radial_table(l, rb)
        bw *= inner_w
        bw = bw.reshape(weighted.shape)
        for (k1p, gp), (K1, K) in zip(moments, out):
            t1 = np.multiply(k1p[l].reshape(nq, n_inner)[None], bw, out=weighted).sum(axis=-1)
            tg = np.multiply(gp[l].reshape(nq, n_inner)[None], bw, out=weighted).sum(axis=-1)
            m1 = half_out @ t1.T
            mg = half_out @ tg.T
            # The one-sided gain carries half the full gain kernel: reflecting
            # the deflection direction swaps the two post-collision velocities,
            # so the two linearization slots contribute equally.  Only the
            # halved operator annihilates sqrt(M), as the one-sided operator must.
            K1[l] = 0.5 * (m1 + m1.T)
            mk = m1 - mg
            K[l] = mk + mk.T
        del bw  # before the next degree's table is built
    return out


# ---------------------------------------------------------------------------
# bilinear collision tensor on the degree-<=4 Hermite sub-basis
# ---------------------------------------------------------------------------

def _hermite_indices(degree: int) -> list[tuple[int, int, int]]:
    idx = [
        (a, b, c)
        for a in range(degree + 1)
        for b in range(degree + 1)
        for c in range(degree + 1)
        if a + b + c <= degree
    ]
    idx.sort(key=lambda t: (sum(t), t))
    return idx


# the one sub-basis every Gamma tensor is expressed in
_SUB_INDICES = tuple(_hermite_indices(4))
# the degree-<=8 products of two sub-basis elements; sorted by (degree, index),
# so the first 35 are _SUB_INDICES
_PRODUCT_INDICES = tuple(_hermite_indices(8))


def _hermite_values(x: np.ndarray, nmax: int) -> np.ndarray:
    """Probabilists' Hermite polynomials He_0..He_nmax, shape (nmax+1, ...)."""
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    out[1] = x
    for k in range(1, nmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


def _hermite_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point product Gauss-Hermite rule for the standard Gaussian: (n^3, 3) points, weights."""
    xh, wh = roots_hermitenorm(n)
    wh = wh / math.sqrt(_TWO_PI)
    pts = np.stack([g.ravel() for g in np.meshgrid(xh, xh, xh, indexing="ij")], axis=1)
    return pts, (wh[:, None, None] * wh[None, :, None] * wh[None, None, :]).ravel()


def _sub_table(points: np.ndarray, indices) -> np.ndarray:
    """Normalized Hermite products H_idx(v), shape (npoints, len(indices)).  No Gaussian.

    The table is a column-major view: each column is one contiguous product.
    """
    norm = np.sqrt([float(math.factorial(a) * math.factorial(b) * math.factorial(c))
                    for (a, b, c) in indices])
    hx, hy, hz = (_hermite_values(points[:, d], max(map(max, indices))) for d in range(3))
    # (X_a Y_b) Z_c / norm, row by row: no (n_products, n_points) gather copies
    out = np.empty((len(indices), points.shape[0]))
    xy: dict[tuple[int, int], np.ndarray] = {}
    for row, (a, b, c) in enumerate(indices):
        if (a, b) not in xy:
            xy[a, b] = hx[a] * hy[b]
        np.multiply(xy[a, b], hz[c], out=out[row])
    out /= norm[:, None]
    return out.T


@dataclass
class GammaTensor:
    """The bilinear collision term on the 35-element Hermite sub-basis.

    tensor and change_of_basis are None unless assemble_collision built them
    (build_gamma); indices and chi_sub are always there.
    """

    indices: tuple[tuple[int, int, int], ...]
    tensor: np.ndarray | None               # (35, 35, 35) weak-form values
    chi_sub: np.ndarray                     # (5, 35) collision invariants
    change_of_basis: np.ndarray | None      # Hermite <- Burnett-sub, orthogonal


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
_N_AZIM = 14        # equispaced azimuths
_GAMMA_CHUNK = 16   # (center-of-mass, radial) node pairs per block


def _product_coefficients() -> np.ndarray:
    """Linearization c[i, k, m] with H_i H_k = sum_m c[i, k, m] H_m, m over _PRODUCT_INDICES.

    Closed form, axis by axis: the normalized h_n = He_n / sqrt(n!) multiply as
    h_m h_n = sum_k sqrt(m! n! q!) / (k! (m - k)! (n - k)!) h_q with q = m + n - 2k.
    """
    f = [math.factorial(n) for n in range(9)]
    c1 = np.zeros((5, 5, 9))
    for m in range(5):
        for n in range(5):
            for k in range(min(m, n) + 1):
                q = m + n - 2 * k
                c1[m, n, q] = math.sqrt(f[m] * f[n] * f[q]) / (f[k] * f[m - k] * f[n - k])
    sub, prod = np.array(_SUB_INDICES), np.array(_PRODUCT_INDICES)
    coef = np.ones((len(sub), len(sub), len(prod)))
    for d in range(3):
        coef *= c1[np.ix_(sub[:, d], sub[:, d], prod[:, d])]
    return coef


def _sphere_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes sigma (n, 3) and weights of the sphere rule; node s + n/2 is exactly -node s.

    The product rule (Gauss-Legendre polar cosines, equispaced azimuths) is
    closed under sigma -> -sigma: the node (mu, phi) mirrors to (-mu, phi + pi),
    which lies in the other half of the node list.  Keeping the first half and
    its exact negation, each with the same weights, makes the mirror exact.
    """
    mu, wmu = _leggauss(_N_POLAR)
    phi = _TWO_PI * np.arange(_N_AZIM) / _N_AZIM
    st = np.sqrt(1.0 - mu**2)
    sig = np.stack(
        [
            np.repeat(mu, _N_AZIM),
            np.repeat(st, _N_AZIM) * np.tile(np.cos(phi), _N_POLAR),
            np.repeat(st, _N_AZIM) * np.tile(np.sin(phi), _N_POLAR),
        ],
        axis=1,
    )
    wsig = np.repeat(wmu, _N_AZIM) * (_TWO_PI / _N_AZIM)
    half = sig.shape[0] // 2
    return np.concatenate([sig[:half], -sig[:half]]), np.concatenate([wsig[:half], wsig[:half]])


@functools.cache
def _assemble_gamma_tensor() -> np.ndarray:
    """Weak-form tensor tensor[i, j, k] = (Gamma(H_i, H_j), H_k), read-only.

    Built once per process: it does not depend on the velocity basis.  The
    sum runs over the center-of-mass octant p >= 0, and entries odd in some
    axis are exactly 0; the module docstring gives the reflection symmetry
    behind that and the degree count behind each node count.
    """
    nb = len(_SUB_INDICES)

    pgrid, pw = _hermite_grid(_N_HERM)
    # reflecting one axis of p and sigma maps both rules onto themselves: keep
    # the octant p >= 0, each node weighted for its 2^(nonzero components) images
    octant = np.all(pgrid >= 0.0, axis=1)
    pgrid = pgrid[octant]
    pw = pw[octant] * 2.0 ** np.count_nonzero(pgrid, axis=1)

    u, wu = roots_genlaguerre(_N_RAD, 1.0)
    rr = np.sqrt(2.0 * u)
    wr = (math.sqrt(2.0) / 2.0) * _TWO_PI ** (-1.5) * wu

    sig, wsig = _sphere_rule()
    ns = sig.shape[0]
    # a(-sigma) = b(sigma) bit for bit, so the b-table is the a-table read at
    # the mirrored node
    mirror = (np.arange(ns) + ns // 2) % ns

    combos_p = np.repeat(np.arange(pgrid.shape[0]), _N_RAD)
    combos_r = np.tile(np.arange(_N_RAD), pgrid.shape[0])
    wq = pw[combos_p] * wr[combos_r]
    nq = combos_p.size

    t1 = np.zeros((nb * nb, nb))
    loss = np.zeros((nb, len(_PRODUCT_INDICES)))   # [j, m]: (H_m(a), H_j(b))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for start in range(0, nq, _GAMMA_CHUNK):
        sl = slice(start, start + _GAMMA_CHUNK)
        pc = pgrid[combos_p[sl]]
        rc = rr[combos_r[sl]]
        m = pc.shape[0]
        apts = inv_sqrt2 * (pc[:, None, :] + rc[:, None, None] * sig[None, :, :])
        ha8 = _sub_table(apts.reshape(-1, 3), _PRODUCT_INDICES)
        ha = ha8[:, :nb].reshape(m, ns, nb)
        hb = ha[:, mirror]
        # loss part: the same sphere nodes serve as the relative-velocity
        # directions, and H_i(a) H_k(a) is linearized in H_m(a)
        row_w = (wq[sl, None] * wsig[None, :]).ravel()
        loss += (hb.reshape(-1, nb) * row_w[:, None]).T @ ha8
        haw = ha * wsig[None, :, None]
        s_ij = np.matmul(haw.transpose(0, 2, 1), hb)
        t1 += s_ij.reshape(m, -1).T @ (wq[sl, None] * haw.sum(axis=1))
        # end this block's arrays before the next block's table fills
        del ha8, ha, hb, haw, s_ij
    t2 = (_product_coefficients().reshape(nb * nb, -1) @ loss.T).reshape(nb, nb, nb)
    tensor = t1.reshape(nb, nb, nb) - 4.0 * math.pi * t2.transpose(0, 2, 1)
    # the reflected nodes cancel every entry whose degree sum is odd in an axis
    idx = np.array(_SUB_INDICES)
    tensor[((idx[:, None, None] + idx[None, :, None] + idx[None, None, :]) % 2).any(axis=-1)] = 0.0
    return _frozen(tensor)


# Burnett-type sub-elements (n, l, m-kind) with 2n + l <= 4, all azimuthal orders
_SUB_NL = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (2, 0)]
_SUB_RADIAL_CAP = {0: 3, 1: 2, 2: 2, 3: 1, 4: 1}


def _real_sph_table(vhat: np.ndarray) -> dict:
    """Real spherical harmonics with polar axis e1, indexed (l, m, kind), for the
    degrees l <= 4 of the sub-elements."""
    c = vhat[:, 0]
    phi = np.arctan2(vhat[:, 2], vhat[:, 1])
    out = {}
    for l in _SUB_RADIAL_CAP:
        out[(l, 0, "axial")] = _legendre_row(l, 0, c) / math.sqrt(_TWO_PI)
        for m in range(1, l + 1):
            plm = _legendre_row(l, m, c) / math.sqrt(math.pi)
            out[(l, m, "cos")] = plm * np.cos(m * phi)
            out[(l, m, "sin")] = plm * np.sin(m * phi)
    return out


def _burnett_sub_elements():
    """The (n, l, m, kind) of each Burnett-type sub-element, in column order of
    _change_of_basis."""
    els = []
    for (n, l) in _SUB_NL:
        els.append((n, l, 0, "axial"))
        for m in range(1, l + 1):
            els.append((n, l, m, "cos"))
            els.append((n, l, m, "sin"))
    return els


@functools.cache
def _sub_quadrature() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """9-point product Gauss-Hermite grid: points, weights, sub-basis table there."""
    pts, w3 = _hermite_grid(9)
    # stored row-major: the layout fixes the summation order of the change of
    # basis and of the projections
    table = np.ascontiguousarray(_sub_table(pts, _SUB_INDICES))
    return _frozen(pts), _frozen(w3), _frozen(table)


@functools.cache
def _change_of_basis() -> np.ndarray:
    """Orthogonal matrix C with C[h, b] = (hermite_h, burnett_b), read-only."""
    pts, w3, herm = _sub_quadrature()
    r = np.linalg.norm(pts, axis=1)
    safe_r = np.where(r < 1e-14, 1.0, r)
    vhat = pts / safe_r[:, None]
    vhat[r < 1e-14] = np.array([1.0, 0.0, 0.0])
    sph = _real_sph_table(vhat)
    radial = {l: _radial_rows(cap, l, r, 0.5 * r * r) for l, cap in _SUB_RADIAL_CAP.items()}

    cols = []
    for (n, l, m, kind) in _burnett_sub_elements():
        rad = radial[l][n]
        if l > 0:
            rad = np.where(r < 1e-14, 0.0, rad)
        # strip the Gaussian shared with the Hermite side; absorb into weights
        cols.append(rad * sph[(l, m, kind)] * _TWO_PI**0.75)
    burn = np.stack(cols, axis=1)
    cmat = (herm * w3[:, None]).T @ burn
    return _frozen(cmat)


def gamma_apply(cm: "CollisionMatrices", f_sub: np.ndarray, g_sub: np.ndarray) -> np.ndarray:
    """Bilinear collision term Gamma(f, g) projected on the Hermite sub-basis.

    Bad arguments raise ValueError before a missing tensor raises AssemblyError."""
    _check_record(cm, CollisionMatrices, ValueError)
    if not (_finite_complex_array(f_sub) and _finite_complex_array(g_sub)):
        raise ValueError("sub-basis coefficients must be finite numbers")
    f_sub = np.asarray(f_sub)
    g_sub = np.asarray(g_sub)
    nb = len(cm.gamma.indices)
    if f_sub.shape != (nb,) or g_sub.shape != (nb,):
        raise ValueError(f"sub-basis coefficients must have length {nb}")
    if cm.gamma.tensor is None:
        raise AssemblyError(
            "no Gamma tensor: assemble the collision matrices with build_gamma=True"
        )
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
    L_sector: dict[int, np.ndarray]
    L1_sector: dict[int, np.ndarray]
    mu_estimate: float
    gamma: GammaTensor
    kernel_refinement_delta: float
    _cache: dict = field(default_factory=dict, repr=False)


# Radial indices of the collision invariants per Legendre degree: L keeps
# density and energy (n = 0, 1) at l = 0 and momentum at l = 1; L1 keeps the
# density alone.
_NULL_RADIAL = {"L": {0: (0, 1), 1: (0,)}, "L1": {0: (0,)}}


def null_coordinates(basis: Basis, which: str, sector: int) -> list[int]:
    """Coordinates of the collision invariants in one sector block of L or L1."""
    _check_record(basis, Basis, ValueError)
    if which not in ("L", "L1"):
        raise ValueError(f"which must be 'L' or 'L1', got {which!r}")
    _check_sector(sector)  # its BasisError is a ValueError
    first = 0 if sector == SECTOR_AXIAL else 1
    return [(l - first) * basis.spec.radial_order + n
            for l, radial in _NULL_RADIAL[which].items() if l >= first for n in radial]


def collision_inverse(cm: CollisionMatrices, which: str, sector: int,
                      w: np.ndarray) -> np.ndarray:
    """L^{-1} P w on one sector block of L or L1 (which = "L" or "L1").

    P projects off the null coordinates, whose zero diagonal entries are
    shifted to one for the solve.  Raises AssemblyError if the block is
    singular off its null coordinates or the solution leaves the range or
    picks up a null component.  Raises ValueError for any which or sector
    other than those of null_coordinates, or a w that is not a finite 1-D
    array of the block's length, and for cm that is not CollisionMatrices.
    """
    _check_record(cm, CollisionMatrices, ValueError)
    null = null_coordinates(cm.basis, which, sector)
    block = {"L": cm.L_sector, "L1": cm.L1_sector}[which][sector]
    return _deflated_solve(block, null, which, sector, w)


def _deflated_solve(block: np.ndarray, null: list[int], which: str, sector: int,
                    w: np.ndarray) -> np.ndarray:
    """collision_inverse on a given sector block, which may end at any degree >= 1."""
    n = block.shape[0]
    if not (_finite_complex_array(w) and np.shape(w) == (n,)):
        raise ValueError(f"w must be a finite 1-D array of length n = {n}")
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


def _block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of equal square blocks, in order."""
    n, k = len(blocks), blocks[0].shape[0]
    out = np.zeros((n, k, n, k), dtype=np.result_type(*blocks))
    out[range(n), :, range(n)] = blocks
    return out.reshape(n * k, n * k)


def _sector_blocks(blocks: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Axial and transverse sector blocks from the degree blocks l = 0..top."""
    return {sector: _frozen(_block_diagonal([blocks[l] for l in sorted(blocks) if l >= first]))
            for sector, first in ((SECTOR_AXIAL, 0), (SECTOR_TRANSVERSE, 1))}


class _DegreeBlocks(NamedTuple):
    """Per-degree blocks l = 0..top of the collision operators."""

    K1: dict[int, np.ndarray]
    K: dict[int, np.ndarray]
    nu: dict[int, np.ndarray]
    raw: dict[str, dict[int, np.ndarray]]    # "L" / "L1" -> degree -> K - nu
    clean: dict[str, dict[int, np.ndarray]]  # the same with null rows and columns zeroed
    delta: float                             # kernel refinement delta over these degrees


def _degree_blocks(basis: Basis, top: int) -> _DegreeBlocks:
    """Gain, nu and collision blocks of the Legendre degrees l <= top.

    Raises AssemblyError when the 12- and 24-point panel rules disagree on
    any of these degrees.  A degree's blocks are the same bits whatever top is.
    """
    (K1_coarse, K_coarse), (K1, K) = _gain_matrices(basis, top)
    delta = max(
        max(np.max(np.abs(K1_coarse[l] - K1[l])) for l in K1),
        max(np.max(np.abs(K_coarse[l] - K[l])) for l in K),
    )
    scale = 1.0 + max(np.max(np.abs(K1[l])) for l in K1)
    if delta > 1e-8 * scale:
        raise AssemblyError(f"kernel quadrature not converged: delta={delta:.3e}")

    nu_nodes = _nu_of_r(basis.quad.r)
    nu = {l: _radial_overlap(basis, l, l, nu_nodes) for l in range(top + 1)}

    raw = {"L": {l: K[l] - nu[l] for l in range(top + 1)},
           "L1": {l: K1[l] - nu[l] for l in range(top + 1)}}
    clean = {which: {l: _clean_block(block, _NULL_RADIAL[which].get(l, ()))
                     for l, block in raw[which].items()} for which in raw}
    return _DegreeBlocks(K1, K, nu, raw, clean, float(delta))


def assemble_collision(basis: Basis, build_gamma: bool = True) -> CollisionMatrices:
    """Collision matrices of every Legendre degree of basis, with the Gamma
    tensor and its change of basis when build_gamma.

    Keeps the sector blocks, the spectral gap estimate and the kernel
    refinement delta.  Raises ValueError for a basis that is not a Basis and a
    build_gamma that is not a bool.
    """
    _check_record(basis, Basis, ValueError)
    if not isinstance(build_gamma, (bool, np.bool_)):
        raise ValueError(f"build_gamma must be a bool, got {build_gamma!r}")
    blocks = _degree_blocks(basis, basis.spec.angular_max)

    tensor = cmat = None
    if build_gamma:
        tensor = _assemble_gamma_tensor()
        cmat = _change_of_basis()

    return CollisionMatrices(
        basis=basis,
        L_sector=_sector_blocks(blocks.clean["L"]),
        L1_sector=_sector_blocks(blocks.clean["L1"]),
        mu_estimate=_spectral_gap(blocks.clean["L"]),
        gamma=GammaTensor(_SUB_INDICES, tensor, _sub_invariants(), cmat),
        kernel_refinement_delta=blocks.delta,
    )


def _spectral_gap(clean_L: dict[int, np.ndarray]) -> float:
    best = -np.inf
    for l, block in clean_L.items():
        null = _NULL_RADIAL["L"].get(l, ())
        keep = [i for i in range(block.shape[0]) if i not in null]
        if not keep:  # radial order 2 leaves degree 0 only its null coordinates
            continue
        sub = block[np.ix_(keep, keep)]
        best = max(best, np.linalg.eigvalsh(sub).max())
    return float(-best)
