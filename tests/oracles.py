"""Reference implementations that the tests check kslab against.

kslab never runs these.  Each computes a library quantity by a route of its
own: the metric adjoint assembled term by term and as a dense conjugation, the
dense propagator column by column, polynomial projections on the sub-basis
grid, expansion coefficients fitted to eigenvalue sweeps, the wave integral
by Monte Carlo, and the damped-Maxwell field flow in its eigenbasis.  A test
that compares the two therefore checks the library against code the library
does not share.  test_oracles.py checks that none of the names defined here
exists in a kslab module.
"""
import math

import numpy as np

from kslab.collision_ops import _sub_quadrature
from kslab.dispersion import _BOLTZMANN_LABELS, _match_slow_branches, _slow_eigenvalues
from kslab.mode_operators import KIND_VMB, ModeOperator, SectorBlock, _layout, propagate
from kslab.velocity_basis import SECTOR_AXIAL, SECTOR_TRANSVERSE, v_multiplication_matrix


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


def propagator_matrix(op, t):
    """Dense e^{(t/eps^2) A}: the propagated unit vectors, as columns."""
    return np.stack([propagate(op, e, t) for e in np.eye(op.dim)], axis=1)


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
    pts, w3, table = _sub_quadrature(tuple(gamma.indices))
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
