"""Scalar dispersion relations for the per-mode generators.

The slow eigenvalues of the electromagnetic mode operator are roots of scalar
equations built from two resolvent inner products: an axial one (density
sector, streaming projected off the density direction) and a transverse one.
This module evaluates those scalars, solves the three root problems by the
contraction maps that certify uniqueness (with a Newton polish), tracks the
two transverse branches through their collision point, and fits the small
wave-number expansion of the kinetic-only operator's five slow branches.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.optimize import brentq

from .collision_ops import CollisionMatrices
from .fluid_limits import _core_values
from .velocity_basis import SECTOR_AXIAL, SECTOR_TRANSVERSE, v_multiplication_matrix

_FP_TOL = 1e-13
_RES_TOL = 1e-12
_MAX_ITER = 200


class DispersionError(RuntimeError):
    """Raised when a root iteration leaves its certified contraction region."""


@dataclass
class DispersionBranch:
    label: str
    s: float
    eps: float
    value: complex          # root z; the matrix eigenvalue is eps^2 * z
    residual: float
    prediction: complex
    crossing_flag: bool = False


@dataclass
class ResolventScalars:
    R11: complex
    R22: complex


class _SectorSolver:
    """LU-backed evaluator of ((L1 - x - i y S)^{-1} chi, chi) for one sector."""

    def __init__(self, l1: np.ndarray, stream: np.ndarray, chi: np.ndarray,
                 deflate: np.ndarray | None):
        self.l1 = l1
        self.stream = stream
        self.chi = chi.astype(complex)
        self.deflate = deflate
        self.n = l1.shape[0]

    def _matrix(self, x: complex, y: float) -> np.ndarray:
        mat = self.l1 - x * np.eye(self.n) - 1j * y * self.stream
        if self.deflate is not None:
            # The density direction is a left null vector of the undeflated
            # matrix whenever x = 0, and the coupling to it is strictly
            # triangular, so a rank-one shift leaves the restricted scalar
            # unchanged while keeping the solve well conditioned.
            theta = 1.0
            if abs(theta - x) < 1e-6:
                theta = 1.0 + 2.0 * abs(x)
            mat = mat + theta * np.outer(self.deflate, self.deflate)
        return mat

    def value(self, x: complex, y: float) -> complex:
        mat = self._matrix(x, y)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                lu = lu_factor(mat)
            sol = lu_solve(lu, self.chi)
        except (LinAlgError, LinAlgWarning) as exc:
            raise ValueError(f"resolvent solve singular at x={x}, y={y}") from exc
        resid = np.linalg.norm(mat @ sol - self.chi)
        if not np.isfinite(resid) or resid > 1e-8 * np.linalg.norm(self.chi):
            raise ValueError(f"resolvent solve singular at x={x}, y={y}")
        return complex(self.chi @ sol)

    def value_and_xderiv(self, x: complex, y: float) -> tuple[complex, complex]:
        lu = lu_factor(self._matrix(x, y))
        sol = lu_solve(lu, self.chi)
        second = lu_solve(lu, sol)
        return complex(self.chi @ sol), complex(self.chi @ second)


def _solvers(cm: CollisionMatrices) -> tuple[_SectorSolver, _SectorSolver]:
    key = "dispersion_solvers"
    if key not in cm._cache:
        basis = cm.basis
        v0 = v_multiplication_matrix(basis, SECTOR_AXIAL)
        v1 = v_multiplication_matrix(basis, SECTOR_TRANSVERSE)
        chi0 = basis.chi(0)[basis.slice_axial]
        chi1 = v0 @ chi0
        chi2 = basis.chi(2)[basis.slice_cos]
        proj_off_density = np.eye(basis.dim0) - np.outer(chi0, chi0)
        ax = _SectorSolver(cm.L1_sector[SECTOR_AXIAL], proj_off_density @ v0,
                           chi1, deflate=chi0)
        tr = _SectorSolver(cm.L1_sector[SECTOR_TRANSVERSE], v1, chi2, deflate=None)
        cm._cache[key] = (ax, tr)
    return cm._cache[key]


def resolvent_scalars(lam: complex, s: float, eps: float,
                      cm: CollisionMatrices) -> ResolventScalars:
    ax, tr = _solvers(cm)
    y = eps * s
    return ResolventScalars(R11=ax.value(lam, y), R22=tr.value(lam, y))


def eta_coefficient(cm: CollisionMatrices) -> float:
    """Transverse relaxation coefficient -(L1^{-1} chi2, chi2)."""
    if "eta" not in cm._cache:
        _, tr = _solvers(cm)
        cm._cache["eta"] = float(-tr.value(0.0, 0.0).real)
    return cm._cache["eta"]


# ---------------------------------------------------------------------------
# root solvers
# ---------------------------------------------------------------------------

def _check_finite(**values: float) -> None:
    bad = {k: v for k, v in values.items() if not math.isfinite(v)}
    if bad:
        raise DispersionError(f"non-finite input: {bad}")


def solve_z0(s: float, eps: float, cm: CollisionMatrices) -> DispersionBranch:
    """Unique acoustic-free density branch from the axial scalar equation."""
    _check_finite(s=s, eps=eps)
    ax, _ = _solvers(cm)
    eta = eta_coefficient(cm)
    scale = 1.0 + s * s
    seed = -eta * scale
    z = complex(seed)
    for _ in range(_MAX_ITER):
        z_new = scale * ax.value(eps * eps * z, eps * s)
        if abs(z_new - seed) > 0.8 * eta * scale:
            raise DispersionError(
                f"density-branch iteration left its ball at s={s}, eps={eps}"
            )
        if abs(z_new - z) <= _FP_TOL * max(1.0, abs(z_new)):
            z = z_new
            break
        z = z_new
    for _ in range(8):
        val, dval = ax.value_and_xderiv(eps * eps * z, eps * s)
        f = z - scale * val
        if abs(f) <= _RES_TOL * max(1.0, abs(z)):
            break
        fp = 1.0 - scale * eps * eps * dval
        z = z - f / fp
    residual = abs(z - scale * ax.value(eps * eps * z, eps * s))
    return DispersionBranch(
        label="z0", s=s, eps=eps, value=z, residual=residual, prediction=complex(seed)
    )


def _quadratic_roots(r22: complex, s: float) -> tuple[complex, complex]:
    disc = np.sqrt(complex(r22 * r22 - 4.0 * s * s))
    return (r22 + disc) / 2.0, (r22 - disc) / 2.0


def _near(target: complex, pair) -> complex:
    return min(pair, key=lambda w: abs(w - target))


def transverse_seeds(s: float, cm: CollisionMatrices) -> tuple[complex, complex]:
    eta = eta_coefficient(cm)
    disc = np.sqrt(complex(eta * eta - 4.0 * s * s))
    return (-eta + disc) / 2.0, (-eta - disc) / 2.0


def _polish_transverse(z: complex, s: float, eps: float, tr: _SectorSolver) -> complex:
    for _ in range(8):
        val, dval = tr.value_and_xderiv(eps * eps * z, eps * s)
        f = z * z - val * z + s * s
        if abs(f) <= _RES_TOL * max(1.0, abs(z) ** 2):
            break
        fp = 2.0 * z - val - z * eps * eps * dval
        if fp == 0:
            break
        z = z - f / fp
    return z


def solve_z_pm(s: float, eps: float,
               cm: CollisionMatrices) -> tuple[DispersionBranch, DispersionBranch]:
    """Two transverse branches; tracked as a root pair through the crossing."""
    _check_finite(s=s, eps=eps)
    _, tr = _solvers(cm)
    eta = eta_coefficient(cm)
    seeds = transverse_seeds(s, cm)
    roots = list(seeds)
    for _ in range(_MAX_ITER):
        updated = []
        for z in roots:
            pair = _quadratic_roots(tr.value(eps * eps * z, eps * s), s)
            updated.append(_near(z, pair))
        shift = max(abs(a - b) for a, b in zip(updated, roots))
        roots = updated
        if shift <= _FP_TOL * max(1.0, abs(roots[0]), abs(roots[1])):
            break
        if max(abs(z) for z in roots) > 10.0 * (eta + s + 1.0):
            raise DispersionError(
                f"transverse iteration diverged at s={s}, eps={eps}"
            )
    roots = [_polish_transverse(z, s, eps, tr) for z in roots]
    crossing = abs(roots[0] - roots[1]) <= 1e-8 * max(1.0, abs(roots[0]))
    out = []
    for z, seed, label in zip(roots, seeds, ("z_plus", "z_minus")):
        val = tr.value(eps * eps * z, eps * s)
        out.append(DispersionBranch(
            label=label, s=s, eps=eps, value=z,
            residual=abs(z * z - val * z + s * s),
            prediction=seed, crossing_flag=crossing,
        ))
    return out[0], out[1]


def crossing_location(eps: float, cm: CollisionMatrices) -> float:
    """Wave number where the two transverse branches collide."""
    _check_finite(eps=eps)
    _, tr = _solvers(cm)
    eta = eta_coefficient(cm)

    def discriminant(s: float) -> float:
        z = -0.5 * eta
        for _ in range(_MAX_ITER):
            z_new = 0.5 * tr.value(eps * eps * z, eps * s).real
            if abs(z_new - z) <= _FP_TOL * max(1.0, abs(z_new)):
                z = z_new
                break
            z = z_new
        r22 = tr.value(eps * eps * z, eps * s).real
        return r22 * r22 - 4.0 * s * s

    lo, hi = 0.25 * eta, 0.95 * eta
    if discriminant(lo) <= 0 or discriminant(hi) >= 0:
        raise DispersionError(f"crossing bracket failed at eps={eps}")
    return float(brentq(discriminant, lo, hi, xtol=1e-12))


def solve_highfreq(s: float, eps: float,
                   cm: CollisionMatrices) -> tuple[DispersionBranch, DispersionBranch]:
    """Oscillatory branch pair near +/- i s for strong streaming."""
    _check_finite(s=s, eps=eps)
    if s <= 0:
        raise DispersionError(f"oscillatory branches need s > 0, got {s}")
    _, tr = _solvers(cm)
    out = []
    for j, label in ((1.0, "highfreq_plus"), (-1.0, "highfreq_minus")):
        center = 1j * j * s
        z = center
        converged = False
        for _ in range(_MAX_ITER):
            pair = _quadratic_roots(tr.value(eps * eps * z, eps * s), s)
            z_new = _near(z, pair)
            if abs(z_new - center) > 0.5 * s:
                raise DispersionError(
                    f"oscillatory branch not contracting at s={s}, eps={eps}"
                )
            if abs(z_new - z) <= _FP_TOL * max(1.0, abs(z_new)):
                z = z_new
                converged = True
                break
            z = z_new
        if not converged:
            raise DispersionError(
                f"oscillatory branch not contracting at s={s}, eps={eps}"
            )
        z = _polish_transverse(z, s, eps, tr)
        val = tr.value(eps * eps * z, eps * s)
        out.append(DispersionBranch(
            label=label, s=s, eps=eps, value=z,
            residual=abs(z * z - val * z + s * s),
            prediction=center,
        ))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# kinetic-only slow branches
# ---------------------------------------------------------------------------

_SOUND_SPEED = math.sqrt(5.0 / 3.0)

_BOLTZMANN_LABELS = ("boltzmann_-1", "boltzmann_0", "boltzmann_1",
                     "boltzmann_2", "boltzmann_3")


def _slow_eigenvalues(s: float, eps: float, cm: CollisionMatrices) -> np.ndarray:
    """The five eigenvalues of B nearest 0, from the eigenvalues of its sector blocks.

    A block's eigenvalues count once per copy, so the shear pair of the
    transverse block appears twice.
    """
    from .mode_operators import _by_column, assemble_B

    op = assemble_B(s, eps, cm)
    lam = _by_column(op, [np.linalg.eigvals(b.matrix) for b in op.blocks])
    order = np.argsort(np.abs(lam))
    return lam[order[:5]]


def _match_slow_branches(lam: np.ndarray) -> dict[str, complex]:
    """Label five slow eigenvalues: conjugate acoustic pair, heat, shear pair."""
    lam = list(lam)
    by_im = sorted(lam, key=lambda z: z.imag)
    out = {"boltzmann_-1": by_im[0], "boltzmann_1": by_im[-1]}
    rest = sorted(by_im[1:-1], key=lambda z: z.real)
    # the shear pair is exactly degenerate (cosine/sine copies); the heat
    # branch is the leftover real one
    gaps = [abs(rest[0] - rest[1]), abs(rest[1] - rest[2])]
    if gaps[0] <= gaps[1]:
        pair, single = (rest[0], rest[1]), rest[2]
    else:
        pair, single = (rest[1], rest[2]), rest[0]
    out["boltzmann_2"], out["boltzmann_3"] = pair
    out["boltzmann_0"] = single
    return out


def boltzmann_dispersion(s: float, eps: float,
                         cm: CollisionMatrices) -> list[DispersionBranch]:
    """Five slow kinetic branches at one (s, eps), with expansion predictions."""
    _check_finite(s=s, eps=eps)
    if eps * s > 0.5:
        raise DispersionError(f"slow-branch matching needs eps*s small, got {eps * s}")
    matched = _match_slow_branches(_slow_eigenvalues(s, eps, cm))
    coeffs = expansion_coefficients(cm)
    x = eps * s
    out = []
    for label in _BOLTZMANN_LABELS:
        mu, a = coeffs[label]
        out.append(DispersionBranch(
            label=label, s=s, eps=eps, value=matched[label],
            residual=0.0, prediction=1j * mu * x - a * x * x,
        ))
    return out


def expansion_coefficients(cm: CollisionMatrices) -> dict[str, tuple[float, float]]:
    """Closed-form (mu_j, a_j) of the five slow kinetic branches.

    The speeds are 0 and +/- sqrt(5/3); the curvatures are the quadratic forms
    a_j = -(L^{-1} P w_j, P w_j) of fluid_limits._core_values, the same solves
    behind transport_coefficients.  test_fit_matches_quadratic_forms checks
    them independently against fit_boltzmann_expansion's eigenvalue sweeps.
    """
    if "boltzmann_expansion" in cm._cache:
        return cm._cache["boltzmann_expansion"]
    core = _core_values(cm)
    coeffs = {
        "boltzmann_-1": (-_SOUND_SPEED, core["a_minus1"]),
        "boltzmann_0": (0.0, core["a0"]),
        "boltzmann_1": (_SOUND_SPEED, core["a1"]),
        "boltzmann_2": (0.0, core["kappa0"]),
        "boltzmann_3": (0.0, core["kappa0"]),
    }
    cm._cache["boltzmann_expansion"] = coeffs
    return coeffs


def fit_boltzmann_expansion(cm: CollisionMatrices, s: float = 1.0,
                            eps_list=None) -> dict[str, tuple[float, float]]:
    """Fitted (mu_j, a_j) from eigenvalue sweeps: Im odd, Re even in eps*s."""
    if eps_list is None:
        eps_list = (0.02, 0.035, 0.05, 0.07, 0.1)
    xs = np.array([e * s for e in eps_list])
    tracks: dict[str, list[complex]] = {k: [] for k in _BOLTZMANN_LABELS}
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
