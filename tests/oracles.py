"""Reference implementations that the tests check kslab against.

kslab never runs these.  Each computes a library quantity by a route of its
own: the metric adjoint assembled term by term and as a dense conjugation, the
dense propagator column by column, polynomial projections on the sub-basis
grid, expansion coefficients fitted to eigenvalue sweeps, the transverse
branch crossing as the root of a bracketed discriminant, the wave integral
by Monte Carlo, the damped-Maxwell field flow in its eigenbasis, the
gain-kernel moments one panel rule at a time, and the Gamma tensor on the
whole center-of-mass grid with a quadrature product linearization.  A test
that compares the two therefore checks the library against code the library
does not share.  The others compute what only tests read: the Gram matrix of
the velocity basis, the first Sonine approximations of the viscosity and
the heat conductivity, the norms of the raw collision blocks' null columns,
the collision operators on the Hermite sub-basis, the bounds of nu(r)/(1 + r), the pointwise collision frequency and kernels
(nu_eval, kernel_eval) that the Galerkin gain blocks and nu are checked
against, the weighted inner product and norm of a mode operator's metric,
the two resolvent scalars of the dispersion relations, the oscillatory
transverse branch pair (solve_highfreq), and the norm probe of
gain-times-resolvent compositions (resolvent_norm_probe) with the per-degree
gain-kernel tables it reads (reduced_kernel_tables).  test_oracles.py checks
that none of the names defined here exists in a kslab module.
"""
import functools
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg as sl
from scipy.optimize import brentq
from scipy.special import roots_genlaguerre

from kslab.collision_ops import (
    _N_HERM, _N_PANELS, _N_RAD, _PAIR_CHUNK, _PRODUCT_INDICES, _SQRT_2PI, _SUB_INDICES, _TWO_PI,
    _NULL_RADIAL, _burnett_sub_elements, _change_of_basis, _degree_blocks, _hermite_grid,
    _nu_of_r, _pair_kernel_moments, _sphere_rule, _sub_quadrature, _sub_table,
)
from kslab.dispersion import (
    _BOLTZMANN_LABELS, DispersionError, _check_input, _fixed_point, _match_slow_branches,
    _slow_eigenvalues, _solvers, _transverse_branch, _transverse_step, eta_coefficient,
)
from kslab.mode_operators import KIND_VMB, ModeOperator, SectorBlock, _layout, propagate
from kslab.velocity_basis import (
    SECTOR_AXIAL, SECTOR_TRANSVERSE, _check_record, _finite_array, _finite_complex,
    _gauss_legendre, _integer, _leggauss, _legendre_row, _sector_matrix, v_multiplication_matrix,
)


def gram_matrix(basis):
    """The Gram matrix of the velocity basis under its own quadrature."""
    ones_r, ones_c = np.ones_like(basis.quad.r), np.ones_like(basis.quad.c)
    g1 = _sector_matrix(basis, SECTOR_TRANSVERSE, ones_r, ones_c)
    return sl.block_diag(_sector_matrix(basis, SECTOR_AXIAL, ones_r, ones_c), g1, g1)


def first_sonine_forms(cm):
    """(kappa0, kappa1) in the first Sonine approximation, read off cm.L_sector.

    Each form of fluid_limits._core_values, -(L^{-1} P w, P w), kept to one
    coordinate of its degree: w_i^2 / (-L_ii), and 0.6 times it for kappa1.
    The viscosity form kappa0 takes the n = 0 coordinate of degree 2 in the
    transverse block.  The conductivity form kappa1 takes the n = 1 coordinate
    of degree 1 in the axial block, since n = 0 there is momentum, a null
    coordinate that P removes (Chapman & Cowling, The Mathematical Theory of
    Non-Uniform Gases, 3rd ed., 1970, ch. 7 and 9).
    """
    basis = cm.basis
    i0 = basis.index(SECTOR_TRANSVERSE, "cos", 0, 2) - basis.dim0
    w0 = v_multiplication_matrix(basis, SECTOR_TRANSVERSE) @ basis.chi(2)[basis.slice_cos]
    i1 = basis.index(SECTOR_AXIAL, "axial", 1, 1)
    w1 = v_multiplication_matrix(basis, SECTOR_AXIAL) @ basis.chi(4)[basis.slice_axial]
    return (w0[i0] ** 2 / -cm.L_sector[SECTOR_TRANSVERSE][i0, i0],
            0.6 * w1[i1] ** 2 / -cm.L_sector[SECTOR_AXIAL][i1, i1])


def sub_operators(cm):
    """(L_sub, L1_sub): the raw degree blocks of L and L1 on the Burnett-type
    sub-elements (n, l, m, kind), conjugated into the Hermite sub-basis.  Needs
    radial order >= 3 and angular_max >= 4."""
    cmat, els = _change_of_basis(), _burnett_sub_elements()
    raw = _degree_blocks(cm.basis, max(l for _, l, _, _ in els)).raw
    out = []
    for which in ("L", "L1"):
        # L couples only elements of one (l, m, kind), through its degree-l block
        lam = np.zeros(cmat.shape)
        for ia, (na, *lmk_a) in enumerate(els):
            for ib, (nb, *lmk_b) in enumerate(els):
                if lmk_a == lmk_b:
                    lam[ia, ib] = raw[which][lmk_a[0]][na, nb]
        out.append(cmat @ lam @ cmat.T)
    return tuple(out)


def raw_null_residuals(cm):
    """The norms of the raw degree blocks' null columns, by "L(n=.., l=..)" and
    "L1(n=.., l=..)": how far K - nu is from annihilating each collision
    invariant before assembly zeroes its rows and columns."""
    raw = _degree_blocks(cm.basis, cm.basis.spec.angular_max).raw
    return {f"{which}(n={n}, l={l})": float(np.linalg.norm(raw[which][l][:, n]))
            for which, degrees in _NULL_RADIAL.items()
            for l, radial in degrees.items() for n in radial}


def nu_bounds():
    """(nu0, nu1): the least and the largest nu(r)/(1 + r) on 2001 speeds in [0, 20]."""
    grid = np.linspace(0.0, 20.0, 2001)
    ratios = _nu_of_r(grid) / (1.0 + grid)
    return float(ratios.min()), float(ratios.max())


def nu_eval(v):
    """Collision frequency nu(v) of a speed (a scalar) or of velocity vectors
    (an array whose last axis has length 3, as kernel_eval takes them).

    Raises ValueError for an entry that is not a finite real number and for
    an array whose last axis is not of length 3.
    """
    if not _finite_array(v):
        raise ValueError("velocities must be finite real numbers")
    arr = np.asarray(v, dtype=float)
    if arr.ndim and arr.shape[-1] != 3:
        raise ValueError(f"velocities must have a last axis of length 3, got shape {arr.shape}")
    r = np.abs(arr) if arr.ndim == 0 else np.linalg.norm(arr, axis=-1)
    out = _nu_of_r(np.atleast_1d(r))
    return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)


def kernel_eval(which: str, v, vstar):
    """Pointwise kernel values k1 or k at velocity pairs (last axis length 3).

    Raises ValueError for a velocity entry that is not a finite real number, a
    velocity whose last axis is not of length 3, coincident velocities, or a
    kernel name other than 'k' or 'k1'.
    """
    if not (_finite_array(v) and _finite_array(vstar)):
        raise ValueError("velocities must be finite real numbers")
    v = np.asarray(v, dtype=float)
    vs = np.asarray(vstar, dtype=float)
    if v.shape[-1:] != (3,) or vs.shape[-1:] != (3,):
        raise ValueError(
            f"velocities must have a last axis of length 3, got shapes {v.shape} and {vs.shape}"
        )
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


def pair_kernel_moments_by_rule(ra, rb, lmax, rules):
    """The gain-kernel moments one panel rule at a time: [(k1, g) per rule].

    Each rule recomputes the pair geometry and runs the Legendre recurrence
    from P_0 = 1 on freshly allocated block temporaries, as the kernel did
    before it took all rules in one pass.
    """
    return [_moments_one_rule(ra, rb, lmax, points) for points in rules]


def _moments_one_rule(ra, rb, lmax, n_panel_points):
    x, wgl = np.polynomial.legendre.leggauss(n_panel_points)
    k = np.arange(_N_PANELS + 1)
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
        rho = (span / tau + 1.0) ** (1.0 / _N_PANELS)
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


def reduced_kernel_tables(r_nodes, lmax, n_panel_points=12):
    """Legendre-degree kernels k1_l(r, r') and k_l(r, r') on a node set.

    Returns (k1_tab, k_tab) with shape (lmax+1, n, n).  The angular integral
    is carried out in the variable t = |v - v'|, by the library's one panel
    pass (collision_ops._pair_kernel_moments): _N_PANELS panels of
    n_panel_points Gauss points each, geometrically graded from t = |r - r'|
    at the scale of the exponential boundary layer.  The pass runs over one
    triangle of node pairs and the tables mirror it.  Raises ValueError for
    nodes that are not a 1-D array of finite speeds r > 0, an lmax that is
    not an integer >= 0 and an n_panel_points that is not an integer >= 1.
    """
    if not (_finite_array(r_nodes) and np.ndim(r_nodes) == 1
            and np.all(np.asarray(r_nodes) > 0.0)):
        raise ValueError("r_nodes must be a 1-D array of finite speeds r > 0")
    r = np.asarray(r_nodes, dtype=float)
    for name, value, least in (("lmax", lmax, 0), ("n_panel_points", n_panel_points, 1)):
        if not _integer(value) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    iu = np.triu_indices(r.size)
    (moments,) = _pair_kernel_moments(r[iu[0]], r[iu[1]], lmax, (n_panel_points,))
    tabs = []
    for pairs in moments:
        tab = np.zeros((lmax + 1, r.size, r.size))
        tab[:, iu[0], iu[1]] = tab[:, iu[1], iu[0]] = pairs
        tabs.append(tab)
    k1_tab, g_tab = tabs
    return k1_tab, k1_tab - g_tab


def gamma_full_grid():
    """The Gamma tensor without the reflection fold: every node of the 7^3
    center-of-mass grid, the b-table evaluated on its own, no parity mask, and
    the product linearization c integrated on the 9-point product grid."""
    nb, (sig, wsig) = len(_SUB_INDICES), _sphere_rule()
    pts9, w9 = _hermite_grid(9)
    h9 = _sub_table(pts9, _PRODUCT_INDICES)
    c = np.stack([((h9[:, i] * w9)[:, None] * h9[:, :nb]).T @ h9 for i in range(nb)])
    u, wu = roots_genlaguerre(_N_RAD, 1.0)
    rs = np.sqrt(2.0 * u)[:, None, None] * sig[None]
    wr = (math.sqrt(2.0) / 2.0) * (2.0 * math.pi) ** -1.5 * wu
    t1 = np.zeros((nb, nb, nb))
    loss = np.zeros((nb, len(_PRODUCT_INDICES)))
    for p, wp in zip(*_hermite_grid(_N_HERM)):
        ha = _sub_table(((p + rs) / math.sqrt(2.0)).reshape(-1, 3), _PRODUCT_INDICES)
        hb = _sub_table(((p - rs) / math.sqrt(2.0)).reshape(-1, 3), _SUB_INDICES)
        ha = ha.reshape(_N_RAD, sig.shape[0], -1) * wsig[None, :, None]
        hb = hb.reshape(_N_RAD, sig.shape[0], nb)
        s_ij = np.matmul(ha[..., :nb].transpose(0, 2, 1), hb)
        t1 += np.tensordot(wp * wr[:, None, None] * s_ij, ha[..., :nb].sum(axis=1), axes=(0, 0))
        loss += (wp * wr[:, None, None] * hb).reshape(-1, nb).T @ ha.reshape(-1, ha.shape[-1])
    return t1 - 4.0 * math.pi * np.einsum("ikm,jm->ijk", c, loss)


def assemble_A_tilde_star(s, eps, cm):
    """The metric adjoint of the electromagnetic generator, assembled explicitly.

    Every coupling term of mode_operators.assemble_A_tilde flips its sign and
    the collision blocks stay; the rank-one metric corrections in the axial
    block cancel exactly.
    """
    basis = cm.basis
    layout = _layout(basis)
    n1 = basis.dim1
    sk = -1.0

    axial = (cm.L1_sector[SECTOR_AXIAL]
             - sk * 1j * eps * s * v_multiplication_matrix(basis, SECTOR_AXIAL))
    axial -= sk * 1j * (eps / s) * layout.charge

    trans = np.zeros((n1 + 2, n1 + 2), dtype=complex)
    trans[:n1, :n1] = (cm.L1_sector[SECTOR_TRANSVERSE]
                       - sk * 1j * eps * s * v_multiplication_matrix(basis, SECTOR_TRANSVERSE))
    trans[:n1, n1] = sk * eps * layout.chi2
    trans[n1, :n1] = -sk * eps * layout.chi2
    trans[n1, n1 + 1] = sk * 1j * eps**2 * s
    trans[n1 + 1, n1] = sk * 1j * eps**2 * s

    blocks = (SectorBlock(axial, layout.axial, layout.axial_phase),
              SectorBlock(trans, layout.field, layout.field_phase))
    metric = np.ones(basis.dim + 4)
    metric[0] = 1.0 + 1.0 / s**2
    return ModeOperator(KIND_VMB, s, eps, metric, cm, blocks)


def metric_adjoint(op):
    """Dense G^{-1} A^H G for the operator's weighted inner product."""
    g = op.metric_diag
    return (op.matrix.conj().T * g[None, :]) / g[:, None]


def weighted_inner(op, u, w):
    """(u, w) = w^H G u in the operator's metric G = diag(op.metric_diag)."""
    return complex(np.vdot(w, op.metric_diag * u))


def weighted_norm(op, u):
    """sqrt((u, u)) in the operator's metric."""
    return float(np.sqrt(np.real(np.vdot(u, op.metric_diag * u))))


def propagator_matrix(op, t):
    """Dense e^{(t/eps^2) A}: the propagated unit vectors, as columns."""
    return np.stack([propagate(op, e, t) for e in np.eye(op.dim)], axis=1)


# the resolvent probe's (r, angle-cosine) product grid on [0, _PROBE_R_MAX] x
# [-1, 1], the Legendre degrees it resolves, and the power iteration's step limit
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
    c, wc = _leggauss(_PROBE_N_C)
    pc = np.stack([_legendre_row(l, 0, c) for l in range(_PROBE_LMAX + 1)]) * np.sqrt(wc)
    k1_tab, _ = reduced_kernel_tables(r, _PROBE_LMAX, 16)
    # one-sided gain: half the full gain kernel (see collision assembly)
    return r, c, pc, 0.5 * k1_tab * np.outer(sw, sw)


def resolvent_norm_probe(op, lam):
    """Operator norm of (one-sided gain) o (lam - streaming part)^{-1}.

    The streaming part is multiplication by -nu(v) - i*(eps*s)*v1; the grid is
    an (r, angle-cosine) product rule fine enough to resolve the resonant set,
    independent of the Galerkin basis.  The gain is reduced per Legendre degree
    with the basis's own building blocks: the Legendre rows of
    velocity_basis._legendre_row and the kernel tables of
    reduced_kernel_tables.  Being real and symmetric, it is its own adjoint,
    so the power iteration applies one gain both ways.  Raises ValueError for
    an op that is not a ModeOperator, a lam that is not a finite number, and
    when the iteration has not met its 1e-10 relative test within
    _PROBE_ITERS steps.
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
            return float(new_sigma)
        sigma = new_sigma
    raise ValueError(f"power iteration did not converge in {_PROBE_ITERS} steps")


def y2_eigenbasis(s, eta):
    """Decay rates, reduced eigenvectors, and the metric of the field system.

    Reduced coordinates: (charge, two field-rotation components, two
    magnetic-rotation components), as in fluid_limits._field_flow.  Valid
    for s > 0 away from the branch collision eta = 2 s.
    """
    root = np.sqrt(complex(eta * eta - 4.0 * s * s))
    b_minus = (-eta - root) / 2.0
    b_plus = (-eta + root) / 2.0
    b = np.array([-eta * (1.0 + s * s), b_minus, b_minus, b_plus, b_plus])
    x = np.zeros((5, 5), dtype=complex)
    x[0, 0] = s / math.sqrt(1.0 + s * s)
    for col, bk, pol in ((1, b_minus, 0), (2, b_minus, 1),
                         (3, b_plus, 0), (4, b_plus, 1)):
        ck = bk / np.sqrt(bk * bk - s * s)
        if pol == 0:
            x[2, col] = ck
            x[3, col] = 1j * s * ck / bk
        else:
            x[1, col] = -ck
            x[4, col] = 1j * s * ck / bk
    metric = np.array([1.0 + s**-2, 1.0, 1.0, 1.0, 1.0])
    return b, x, metric


def project_poly_to_sub(gamma, poly):
    """Sub-basis coefficients of p(v) sqrt(M) for a polynomial p of degree <= 4."""
    pts, w3, table = _sub_quadrature()
    vals = poly(pts)
    return (table * (w3 * vals)[:, None]).sum(axis=0)


def fit_boltzmann_expansion(cm, s=1.0, eps_list=(0.02, 0.035, 0.05, 0.07, 0.1)):
    """Fitted (mu_j, a_j) of the five slow kinetic branches from eigenvalue
    sweeps of B at wave number s: Im is odd and Re even in eps*s."""
    xs = np.array([e * s for e in eps_list])
    tracks = {k: [] for k in _BOLTZMANN_LABELS}
    for e in eps_list:
        matched = _match_slow_branches(_slow_eigenvalues(s, float(e), cm))
        for k in _BOLTZMANN_LABELS:
            tracks[k].append(matched[k])
    out = {}
    for k, vals in tracks.items():
        vals = np.array(vals)
        design_odd = np.column_stack([xs, xs**3])
        design_even = np.column_stack([xs**2, xs**4])
        mu = np.linalg.lstsq(design_odd, vals.imag, rcond=None)[0][0]
        a = -np.linalg.lstsq(design_even, vals.real, rcond=None)[0][0]
        out[k] = (float(mu), float(a))
    return out


class ResolventScalars(NamedTuple):
    R11: complex
    R22: complex


def resolvent_scalars(lam, s, eps, cm):
    """The axial and transverse resolvent scalars at (lam, eps s), from the
    sector evaluators the root solvers read (dispersion._solvers)."""
    ax, tr = _solvers(cm)
    return ResolventScalars(R11=ax.value(lam, eps * s), R22=tr.value(lam, eps * s))


def solve_highfreq(s, eps, cm):
    """The oscillatory transverse branch pair near +/- i s for strong streaming.

    Each root is the fixed point of the transverse contraction map of
    dispersion.solve_z_pm (dispersion._transverse_step) from the seed +/- i s,
    inside the disc |z -+ i s| <= s / 2, and certified by the same residual
    test.  Raises DispersionError on the library's bad-input rows
    (dispersion._check_input), for s = 0, and for a root it cannot certify.
    """
    _check_input(cm, s=s, eps=eps)
    if s <= 0:
        raise DispersionError(f"oscillatory branches need s > 0, got {s}")
    _, tr = _solvers(cm)
    step = _transverse_step(s, eps, tr)
    out = []
    for j, label in ((1.0, "highfreq_plus"), (-1.0, "highfreq_minus")):
        center = 1j * j * s
        z = _fixed_point(step, center, lambda z: abs(z - center) <= 0.5 * s,
                         f"oscillatory branch at s={s}, eps={eps}")
        out.append(_transverse_branch(label, z, s, eps, tr, center))
    return out[0], out[1]


def crossing_discriminant(s, eps, cm):
    """R^2 - 4 s^2 for the real transverse scalar R = Re R22(eps^2 z, eps s)
    at z = R / 2, found by iterating z <- R / 2 from -eta / 2 until a step is
    at most 1e-13 max(1, |z|).  It vanishes where the transverse branches
    collide."""
    z = -0.5 * eta_coefficient(cm)
    for _ in range(200):
        r22 = resolvent_scalars(eps * eps * z, s, eps, cm).R22.real
        z, dz = 0.5 * r22, 0.5 * r22 - z
        if abs(dz) <= 1e-13 * max(1.0, abs(z)):
            r22 = resolvent_scalars(eps * eps * z, s, eps, cm).R22.real
            return r22 * r22 - 4.0 * s * s
    raise RuntimeError(f"crossing discriminant at s={s}, eps={eps} did not converge")


def crossing_by_bracket(eps, cm):
    """The branch crossing as the root of crossing_discriminant on
    [0.25 eta, 0.95 eta], by scipy's brentq with xtol = 1e-12."""
    eta = eta_coefficient(cm)
    return brentq(crossing_discriminant, 0.25 * eta, 0.95 * eta, args=(eps, cm), xtol=1e-12)


_MC_CHUNK = 1 << 20


def mc_reference(theta, x, n=10_000_000, seed=20230823):
    """Monte Carlo value of the wave integral of convergence_lab.oscillatory_value.

    Radial importance sampling with the exact inverse distribution of the
    density proportional to s^2 (1+s)^{-4}; the sphere average is analytic.
    Returns (value, sigma) with sigma the componentwise standard error.
    Samples are drawn and reduced in chunks of _MC_CHUNK from one generator
    (the same stream as a single draw), merging the chunk means and centred
    sums of squares pairwise.
    """
    rng = np.random.default_rng(seed)
    count, mean, m2 = 0, 0j, np.zeros(2)
    while count < n:
        size = min(_MC_CHUNK, n - count)
        v = np.cbrt(rng.random(size))
        r = v / (1.0 - v)
        samples = np.sinc(r * x / math.pi) * np.exp(1j * theta * r)
        c_mean = complex(samples.mean())
        c_m2 = np.array([np.sum((samples.real - c_mean.real) ** 2),
                         np.sum((samples.imag - c_mean.imag) ** 2)])
        delta = c_mean - mean
        total_count = count + size
        m2 += c_m2 + np.array([delta.real**2, delta.imag**2]) * (count * size / total_count)
        mean += delta * (size / total_count)
        count = total_count
    total = 4.0 * math.pi / 3.0
    value = total * mean
    sigma = total * math.sqrt(m2.max() / n) / math.sqrt(n)
    return value, float(sigma)
