"""Scalar dispersion relations for the per-mode generators.

The slow eigenvalues of the electromagnetic mode operator are roots of scalar
equations built from two resolvent inner products: an axial one (density
sector, streaming projected off the density direction) and a transverse one.
One evaluator per sector (_SectorSolver, built once per collision set by
_solvers) gives those scalars to the root solvers, which solve the root
problems by the contraction maps that certify uniqueness; the tests read the
scalars through the same evaluators (tests/oracles.py, resolvent_scalars).
One fixed-point iteration serves them all: it raises DispersionError when an
iterate leaves the region where the map contracts or the steps run out, and
every returned root has passed a residual test.  The two transverse branches
are tracked as one pair through their collision point.  There the transverse
relation has the double root z = R22 / 2 = -s, so crossing_location finds
that point as the fixed point of s -> -Re R22(-eps^2 s, eps s) / 2, starting
from its eps = 0 value eta / 2.  The module also gives the closed-form small
wave-number expansion of the kinetic-only operator's five slow branches.

Bad input fails at the boundary with DispersionError, the module's documented
error: collision data that is not CollisionMatrices, and a wave number s or
scale eps that is not a finite real number (velocity_basis._finite: bools
are not numbers here).  s and eps are also out of domain when negative, as
for the mode generators (mode_operators.assemble_B): s is a wave-number
magnitude, and eps = 0 is the closed-form limit of each root.  A singular
resolvent solve, at a spectral parameter on a sector's spectrum, raises
DispersionError too, and so does expansion_coefficients on a basis whose
angular_max is below the Legendre degree 2 its forms read
(fluid_limits._own_core_values).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .collision_ops import CollisionMatrices
from .fluid_limits import _SOUND_SPEED, _own_core_values
from .mode_operators import _by_column, _real_frame, assemble_B
from .velocity_basis import (
    SECTOR_AXIAL, SECTOR_TRANSVERSE, _check_record, _finite, v_multiplication_matrix,
)

_FP_TOL = 1e-13
_RES_TOL = 1e-12
_MAX_ITER = 200


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


class _SectorSolver:
    """Evaluator of ((L1 - x - i y S)^{-1} chi, chi) for one sector: one LU solve
    (np.linalg.solve) per value, whose residual must pass 1e-8 of |chi|."""

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
            sol = np.linalg.solve(mat, self.chi)
        except LinAlgError as exc:
            raise DispersionError(f"resolvent solve singular at x={x}, y={y}") from exc
        resid = np.linalg.norm(mat @ sol - self.chi)
        if not math.isfinite(resid) or resid > 1e-8 * np.linalg.norm(self.chi):
            raise DispersionError(f"resolvent solve singular at x={x}, y={y}")
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
    """The boundary check: cm is CollisionMatrices and every value (s, eps) a
    finite nonnegative real."""
    _check_record(cm, CollisionMatrices, DispersionError)
    bad = {k: v for k, v in values.items() if not _finite(v)}
    if bad:
        raise DispersionError(f"non-finite or non-numeric input: {bad}")
    negative = {k: v for k, v in values.items() if v < 0}
    if negative:
        raise DispersionError(f"s and eps must be nonnegative, got {negative}")


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


def _certify(where: str, residual: float, tol: float) -> float:
    """The residual of the root described by ``where``, which must be <= tol."""
    if not residual <= tol:
        raise DispersionError(f"{where}: residual {residual:.3e} above {tol:.3e}")
    return residual


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
    residual = _certify(f"z0 at s={s}, eps={eps}",
                        abs(z - scale * ax.value(eps * eps * z, eps * s)),
                        _RES_TOL * max(1.0, abs(z)))
    return DispersionBranch(label="z0", s=s, eps=eps, value=z, residual=residual,
                            prediction=complex(seed))


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
    residual = _certify(f"{label} at s={s}, eps={eps}", abs(z * z - val * z + s * s),
                        _RES_TOL * max(1.0, abs(z) ** 2))
    return DispersionBranch(label=label, s=s, eps=eps, value=z, residual=residual,
                            prediction=prediction)


def _transverse_seeds(s: float, cm: CollisionMatrices) -> tuple[complex, complex]:
    """The eps = 0 transverse pair, the roots of z^2 + eta z + s^2."""
    eta = eta_coefficient(cm)
    disc = np.sqrt(complex(eta * eta - 4.0 * s * s))
    return (-eta + disc) / 2.0, (-eta - disc) / 2.0


def solve_z_pm(s: float, eps: float,
               cm: CollisionMatrices) -> tuple[DispersionBranch, DispersionBranch]:
    """Two transverse branches; tracked as a root pair through the crossing."""
    _check_input(cm, s=s, eps=eps)
    _, tr = _solvers(cm)
    bound = 10.0 * (eta_coefficient(cm) + s + 1.0)
    seeds = _transverse_seeds(s, cm)
    step = _transverse_step(s, eps, tr)
    roots = _fixed_point(lambda pair: tuple(step(z) for z in pair), seeds,
                         lambda pair: np.max(np.abs(pair)) <= bound,
                         f"transverse pair at s={s}, eps={eps}")
    return tuple(_transverse_branch(label, z, s, eps, tr, seed)
                 for z, seed, label in zip(roots, seeds, ("z_plus", "z_minus")))


def crossing_location(eps: float, cm: CollisionMatrices) -> float:
    """Wave number where the two transverse branches collide.

    There z^2 - R22(eps^2 z, eps s) z + s^2 has the double root z = R22 / 2,
    and R22 < 0 (it is -eta at eps = 0), so z = -s: the crossing is the fixed
    point of s -> -Re R22(-eps^2 s, eps s) / 2, iterated from its eps = 0
    value eta / 2 inside [0.25 eta, 0.95 eta] and certified by its residual
    |s - step(s)|.
    """
    _check_input(cm, eps=eps)
    _, tr = _solvers(cm)
    eta = eta_coefficient(cm)

    def step(s: float) -> float:
        return -0.5 * tr.value(-eps * eps * s, eps * s).real

    where = f"crossing at eps={eps}"
    s = _fixed_point(step, 0.5 * eta, lambda s: 0.25 * eta <= s <= 0.95 * eta, where)
    _certify(where, abs(s - step(s)), _RES_TOL * max(1.0, s))
    return s


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
    core = _own_core_values(cm, DispersionError)
    return {
        "boltzmann_-1": (-_SOUND_SPEED, core["a_minus1"]),
        "boltzmann_0": (0.0, core["a0"]),
        "boltzmann_1": (_SOUND_SPEED, core["a1"]),
        "boltzmann_2": (0.0, core["kappa0"]),
        "boltzmann_3": (0.0, core["kappa0"]),
    }
