"""Scalar dispersion relations for the per-mode generators.

The slow eigenvalues of the electromagnetic mode operator are roots of scalar
equations built from two resolvent inner products: an axial one (density
sector, streaming projected off the density direction) and a transverse one.
This module evaluates those scalars and solves the root problems by the
contraction maps that certify uniqueness.  One fixed-point iteration serves
them all: it raises DispersionError when an iterate leaves the region where
the map contracts or the steps run out, and every returned root has passed a
residual test.  The two transverse branches are tracked as one pair through
their collision point, and crossing_location finds that point as the root of
a real discriminant on a bracket, by Brent's method in _brent_root: a
line-for-line port of SciPy's C Brent root finder in its operation order
(rtol = 4 DBL_EPSILON, at most 100 iterations), so it returns SciPy's bits
while the package imports no optimization module (the tests compare the two).
crossing_location evaluates the discriminant once at each end of the
bracket, checks the bracket's orientation and hands both values to
_brent_root, which evaluates only inside the bracket.  It raises
DispersionError for a non-finite discriminant value, a bracket without a sign
change and running out of iterations.  The module also gives the closed-form
small wave-number expansion of the kinetic-only operator's five slow
branches.

Bad input fails at the boundary with DispersionError, the module's documented
error: collision data that is not CollisionMatrices, and a wave number s,
scale eps or spectral parameter lam that is not a finite number
(velocity_basis._finite, _finite_complex: bools are not numbers here; s and
eps must be real).  s and eps are also out of domain when negative, as for
the mode generators (mode_operators.assemble_B): s is a wave-number
magnitude, and eps = 0 is the closed-form limit of each root.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .collision_ops import CollisionMatrices
from .fluid_limits import _SOUND_SPEED, _own_core_values
from .mode_operators import _by_column, _real_frame, assemble_B
from .velocity_basis import (
    SECTOR_AXIAL, SECTOR_TRANSVERSE, _check_record, _finite, _finite_complex,
    v_multiplication_matrix,
)

_FP_TOL = 1e-13
_RES_TOL = 1e-12
_MAX_ITER = 200
# Brent's method as in SciPy's C root finder: its relative tolerance and iteration cap
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAX_ITER = 100


class DispersionError(RuntimeError):
    """Raised on non-finite input and on any root that cannot be certified."""


@dataclass
class DispersionBranch:
    label: str
    s: float
    eps: float
    value: complex          # root z; the matrix eigenvalue is eps^2 * z
    residual: float
    prediction: complex


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
        self.n = l1.shape[0]
        self.eye = np.eye(self.n)
        # The density direction is a left null vector of the undeflated
        # matrix whenever x = 0, and the coupling to it is strictly
        # triangular, so a rank-one shift leaves the restricted scalar
        # unchanged while keeping the solve well conditioned.
        self.deflation = None if deflate is None else np.outer(deflate, deflate)

    def _matrix(self, x: complex, y: float) -> np.ndarray:
        mat = self.l1 - x * self.eye - 1j * y * self.stream
        if self.deflation is not None:
            theta = 1.0
            if abs(theta - x) < 1e-6:
                theta = 1.0 + 2.0 * abs(x)
            mat = mat + theta * self.deflation
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
        if not math.isfinite(resid) or resid > 1e-8 * np.linalg.norm(self.chi):
            raise ValueError(f"resolvent solve singular at x={x}, y={y}")
        return complex(self.chi @ sol)


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


def _check_input(cm, **values) -> None:
    """The boundary check: cm is CollisionMatrices, lam a finite number, and
    every other value (s, eps) a finite nonnegative real."""
    _check_record(cm, CollisionMatrices, DispersionError)
    bad = {k: v for k, v in values.items()
           if not (_finite_complex(v) if k == "lam" else _finite(v))}
    if bad:
        raise DispersionError(f"non-finite or non-numeric input: {bad}")
    negative = {k: v for k, v in values.items() if k != "lam" and v < 0}
    if negative:
        raise DispersionError(f"s and eps must be nonnegative, got {negative}")


def resolvent_scalars(lam: complex, s: float, eps: float,
                      cm: CollisionMatrices) -> ResolventScalars:
    _check_input(cm, lam=lam, s=s, eps=eps)
    ax, tr = _solvers(cm)
    y = eps * s
    return ResolventScalars(R11=ax.value(lam, y), R22=tr.value(lam, y))


def eta_coefficient(cm: CollisionMatrices) -> float:
    """Transverse relaxation coefficient -(L1^{-1} chi2, chi2)."""
    _check_input(cm)
    if "eta" not in cm._cache:
        _, tr = _solvers(cm)
        cm._cache["eta"] = float(-tr.value(0.0, 0.0).real)
    return cm._cache["eta"]


# ---------------------------------------------------------------------------
# root solvers
# ---------------------------------------------------------------------------

def _fixed_point(step, z, inside, where: str):
    """Iterate z <- step(z) to its fixed point inside the contraction region.

    z is one root or a tuple of roots tracked together; the stopping rule is
    max|dz| <= _FP_TOL * max(1, max|z|).  ``inside`` is False once an iterate
    leaves the region where the map is known to contract (NaN included), and
    that, like running out of steps, raises: no root comes back uncertified.
    """
    for _ in range(_MAX_ITER):
        z_new = step(z)
        if not inside(z_new):
            raise DispersionError(f"{where}: iterate left its contraction region")
        if np.max(np.abs(np.subtract(z_new, z))) <= _FP_TOL * max(1.0, np.max(np.abs(z_new))):
            return z_new
        z = z_new
    raise DispersionError(f"{where}: no convergence in {_MAX_ITER} steps")


def _brent_root(f, lo: float, hi: float, f_lo: float, f_hi: float, xtol: float) -> float:
    """Root of the real function f on the bracket [lo, hi] by Brent's method.

    f_lo and f_hi are f(lo) and f(hi), which the caller has evaluated.  A
    line-for-line port of SciPy's C Brent root finder, in its operation
    order, with rtol = 4 DBL_EPSILON and at most _BRENT_MAX_ITER iterations,
    so it returns SciPy's bits.  A non-finite value of f (the end values
    included), a bracket without a sign change and running out of iterations
    raise DispersionError.
    """
    def finite(x: float, fx) -> float:
        fx = float(fx)
        if not math.isfinite(fx):
            raise DispersionError(f"root bracket: f({x!r}) = {fx!r} is not finite")
        return fx

    def value(x: float) -> float:
        return finite(x, f(x))

    def negative(y: float) -> bool:  # C's signbit
        return math.copysign(1.0, y) < 0

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = finite(xpre, f_lo), finite(xcur, f_hi)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise DispersionError(f"root bracket [{lo!r}, {hi!r}] has no sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; a zero denominator is C's inf or nan, so a bisection
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise DispersionError(f"root bracket [{lo!r}, {hi!r}]: no convergence in "
                          f"{_BRENT_MAX_ITER} iterations")


def _certify(branch: DispersionBranch, tol: float) -> DispersionBranch:
    if not branch.residual <= tol:
        raise DispersionError(f"{branch.label} at s={branch.s}, eps={branch.eps}: "
                              f"residual {branch.residual:.3e} above {tol:.3e}")
    return branch


def solve_z0(s: float, eps: float, cm: CollisionMatrices) -> DispersionBranch:
    """Unique acoustic-free density branch from the axial scalar equation."""
    _check_input(cm, s=s, eps=eps)
    ax, _ = _solvers(cm)
    eta = eta_coefficient(cm)
    scale = 1.0 + s * s
    seed = -eta * scale
    z = _fixed_point(lambda z: scale * ax.value(eps * eps * z, eps * s), complex(seed),
                     lambda z: abs(z - seed) <= 0.8 * eta * scale,
                     f"density branch at s={s}, eps={eps}")
    residual = abs(z - scale * ax.value(eps * eps * z, eps * s))
    return _certify(DispersionBranch(label="z0", s=s, eps=eps, value=z, residual=residual,
                                     prediction=complex(seed)),
                    _RES_TOL * max(1.0, abs(z)))


def _transverse_step(s: float, eps: float, tr: _SectorSolver):
    """The contraction map z -> the root of w^2 - R22(eps^2 z) w + s^2 nearest z."""
    def step(z: complex) -> complex:
        r22 = tr.value(eps * eps * z, eps * s)
        disc = np.sqrt(complex(r22 * r22 - 4.0 * s * s))
        return min(((r22 + disc) / 2.0, (r22 - disc) / 2.0), key=lambda w: abs(w - z))
    return step


def _transverse_branch(label: str, z: complex, s: float, eps: float, tr: _SectorSolver,
                       prediction: complex) -> DispersionBranch:
    val = tr.value(eps * eps * z, eps * s)
    return _certify(DispersionBranch(label=label, s=s, eps=eps, value=z,
                                     residual=abs(z * z - val * z + s * s),
                                     prediction=prediction),
                    _RES_TOL * max(1.0, abs(z) ** 2))


def transverse_seeds(s: float, cm: CollisionMatrices) -> tuple[complex, complex]:
    _check_input(cm, s=s)
    eta = eta_coefficient(cm)
    disc = np.sqrt(complex(eta * eta - 4.0 * s * s))
    return (-eta + disc) / 2.0, (-eta - disc) / 2.0


def solve_z_pm(s: float, eps: float,
               cm: CollisionMatrices) -> tuple[DispersionBranch, DispersionBranch]:
    """Two transverse branches; tracked as a root pair through the crossing."""
    _check_input(cm, s=s, eps=eps)
    _, tr = _solvers(cm)
    bound = 10.0 * (eta_coefficient(cm) + s + 1.0)
    seeds = transverse_seeds(s, cm)
    step = _transverse_step(s, eps, tr)
    roots = _fixed_point(lambda pair: tuple(step(z) for z in pair), seeds,
                         lambda pair: np.max(np.abs(pair)) <= bound,
                         f"transverse pair at s={s}, eps={eps}")
    return tuple(_transverse_branch(label, z, s, eps, tr, seed)
                 for z, seed, label in zip(roots, seeds, ("z_plus", "z_minus")))


def crossing_location(eps: float, cm: CollisionMatrices) -> float:
    """Wave number where the two transverse branches collide."""
    _check_input(cm, eps=eps)
    _, tr = _solvers(cm)
    eta = eta_coefficient(cm)

    def discriminant(s: float) -> float:
        z = _fixed_point(lambda z: 0.5 * tr.value(eps * eps * z, eps * s).real, -0.5 * eta,
                         math.isfinite, f"crossing discriminant at s={s}, eps={eps}")
        r22 = tr.value(eps * eps * z, eps * s).real
        return r22 * r22 - 4.0 * s * s

    lo, hi = 0.25 * eta, 0.95 * eta
    d_lo, d_hi = discriminant(lo), discriminant(hi)
    if d_lo <= 0 or d_hi >= 0:
        raise DispersionError(f"crossing bracket failed at eps={eps}")
    return _brent_root(discriminant, lo, hi, d_lo, d_hi, xtol=1e-12)


def solve_highfreq(s: float, eps: float,
                   cm: CollisionMatrices) -> tuple[DispersionBranch, DispersionBranch]:
    """Oscillatory branch pair near +/- i s for strong streaming."""
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


# ---------------------------------------------------------------------------
# kinetic-only slow branches
# ---------------------------------------------------------------------------

_BOLTZMANN_LABELS = ("boltzmann_-1", "boltzmann_0", "boltzmann_1",
                     "boltzmann_2", "boltzmann_3")


def _slow_eigenvalues(s: float, eps: float, cm: CollisionMatrices) -> np.ndarray:
    """The five eigenvalues of B nearest 0, from the eigenvalues of its sector blocks.

    Each block runs a real eigvals on its parity frame D^{-1} B_b D
    (mode_operators._real_frame), which has the block's eigenvalues and
    gives complex ones in exact conjugate pairs.  A block that is not real in
    its frame raises DispersionError; no B block built here reaches that.  A
    block's eigenvalues count once per copy, so the shear pair of the
    transverse block appears twice.
    """
    op = assemble_B(s, eps, cm)
    frames = [_real_frame(b) for b in op.blocks]
    if any(t is None for t in frames):
        raise DispersionError(f"a B block at s={s}, eps={eps} is not real in its parity frame")
    lam = _by_column(op, [np.linalg.eigvals(t) for t in frames])
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
    _check_input(cm, s=s, eps=eps)
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
    a_j = -(L^{-1} P w_j, P w_j) of fluid_limits._core_values, read from the
    one pass per collision set that transport_coefficients reads too
    (fluid_limits._own_core_values).  The tests check them independently
    against coefficients fitted to eigenvalue sweeps of B
    (tests/oracles.py, fit_boltzmann_expansion).
    """
    _check_input(cm)
    core = _own_core_values(cm)
    return {
        "boltzmann_-1": (-_SOUND_SPEED, core["a_minus1"]),
        "boltzmann_0": (0.0, core["a0"]),
        "boltzmann_1": (_SOUND_SPEED, core["a1"]),
        "boltzmann_2": (0.0, core["kappa0"]),
        "boltzmann_3": (0.0, core["kappa0"]),
    }
