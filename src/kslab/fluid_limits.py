"""Fluid-side objects of the diffusion limit.

Transport coefficients as quadratic forms of the collision inverse on the
range of the collision operator (collision_ops.collision_inverse), the two
per-mode fluid semigroups (heat decay along the incompressible branches, and
the damped-Maxwell evolution of charge and fields), the compressible versus
incompressible splitting of kinetic modes, a Duhamel solver for the
linearized Navier-Stokes-Maxwell-Fourier mode system, and the aggregate
decay experiments, whose mode grids and time windows are module constants.
A wave direction omega must be a finite unit 3-vector.

The damped-Maxwell evolution is one array-valued flow, _field_flow, on the
reduced coordinates (charge, omega x E, omega x B) over a grid of wave
numbers and times.  Y2_mode, the linear solver, the aggregate decay
experiment and the rate experiments in convergence_lab all evaluate it; the
Duhamel forcing integrals apply it on their quadrature nodes in one call.
Its field blocks use a confluent-safe two-by-two exponential, so the
branch-collision wave number needs no special casing.

The heat side has the same shape: _heat_decay is the one heat decay
exp(-a_j s^2 t) of the three heat branches, and Y1_mode (one mode), _heat_flow
(a grid of kinetic modes over a grid of times) and the aggregate heat decay
experiment all evaluate it; p_split, the compressible / incompressible
splitting, acts on the last axis of any array of modes.  The rate
experiments build their fluid references and error streams from _heat_flow
and p_split.  The quadratic forms of _core_values, with the hydrodynamic
directions h0, ht1 and h+- and the sound speed _SOUND_SPEED, are the one
source of the transport coefficients and of
dispersion.expansion_coefficients, which read one pass of them per collision
set (_own_core_values).

Bad input fails at the boundary with FluidError, the module's documented
error: times, wave numbers, mode data and forcing values that are not finite
numbers (velocity_basis._finite, _finite_complex and their array forms),
wrongly shaped, or non-real where real, broken constraints, and record
arguments of the wrong type (velocity_basis._check_record).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .collision_ops import (
    CollisionMatrices, _deflated_solve, _degree_blocks, _sector_blocks, null_coordinates,
)
from .velocity_basis import (
    SECTOR_AXIAL, SECTOR_TRANSVERSE, Basis, BasisSpec, _check_record, _finite, _finite_array,
    _finite_complex, _finite_complex_array, _gauss_legendre, build_basis, v_multiplication_matrix,
)

_CONSTRAINT_TOL = 1e-10
# Gauss panels of the coarse Duhamel time rule; the check rule has twice as many
_DUHAMEL_PANELS = 12
# aggregate decay experiments: radial mode grid on [0, _DECAY_S_MAX], the fit
# window per kind as geomspace arguments, and the heat profile width
_DECAY_N_S = 400
_DECAY_S_MAX = 6.0
_DECAY_WINDOWS = {"generic": (1.0, 1000.0, 25), "enhanced": (150.0, 3000.0, 25)}
_Y1_PROFILE_WIDTH = 1.5


class FluidError(RuntimeError):
    """Raised on constraint violations or failed constrained solves."""


# ---------------------------------------------------------------------------
# transport coefficients
# ---------------------------------------------------------------------------

@dataclass
class TransportCoefficients:
    kappa0: float
    kappa1: float
    eta: float
    a_list: dict[int, float]
    truncation_delta: dict[str, float]


def _core_values(basis, L_sector: dict[int, np.ndarray],
                 L1_sector: dict[int, np.ndarray]) -> dict[str, float]:
    """The six quadratic forms -(L^{-1} P w, P w) behind the transport coefficients.

    Each w is v1 times a collision invariant, so it lies in degrees l <= 2,
    and L is block-diagonal in l: sector blocks that end at degree
    min(2, angular_max) give the forms of the whole blocks.  w is cut to the
    length of the blocks.
    """
    ax = basis.slice_axial
    v0 = v_multiplication_matrix(basis, SECTOR_AXIAL)
    v1 = v_multiplication_matrix(basis, SECTOR_TRANSVERSE)
    chi0, chi4 = basis.chi(0)[ax], basis.chi(4)[ax]
    chi1 = v0 @ chi0
    h0 = _hydro_vectors(basis)[0][ax]
    h_plus = math.sqrt(0.3) * chi0 - math.sqrt(0.5) * chi1 + math.sqrt(0.2) * chi4
    h_minus = math.sqrt(0.3) * chi0 + math.sqrt(0.5) * chi1 + math.sqrt(0.2) * chi4
    blocks = {"L": L_sector, "L1": L1_sector}

    def form(which, sector, w):
        # -(L^{-1} P w, P w); the solution vanishes on the null coordinates
        block = blocks[which][sector]
        w = w[:block.shape[0]]
        sol = _deflated_solve(block, null_coordinates(basis, which, sector), which, sector, w)
        return float(-(sol @ w))

    return {
        "kappa0": form("L", SECTOR_TRANSVERSE, v1 @ basis.chi(2)[basis.slice_cos]),
        "kappa1": 0.6 * form("L", SECTOR_AXIAL, v0 @ chi4),
        "eta": form("L1", SECTOR_AXIAL, v0 @ chi0),
        "a0": form("L", SECTOR_AXIAL, v0 @ h0),
        "a1": form("L", SECTOR_AXIAL, v0 @ h_plus),
        "a_minus1": form("L", SECTOR_AXIAL, v0 @ h_minus),
    }


def _own_core_values(cm: CollisionMatrices) -> dict[str, float]:
    """_core_values on the sector blocks of cm: one pass per collision set, read by
    transport_coefficients and dispersion.expansion_coefficients."""
    if "core_values" not in cm._cache:
        cm._cache["core_values"] = _core_values(cm.basis, cm.L_sector, cm.L1_sector)
    return cm._cache["core_values"]


def transport_coefficients(cm: CollisionMatrices) -> TransportCoefficients:
    """Transport coefficients of the Navier-Stokes-Maxwell limit, cached on cm.

    kappa0, kappa1, eta and the branch curvatures a_j are the forms of
    _core_values on the sector blocks of cm.  truncation_delta holds
    |value - refined value| for kappa0, kappa1, eta and a1, the refined value
    taken at radial order + 6 with the same angular_max (so the same
    quadrature).  The refined pass builds only the degrees l <= 2 the forms
    read (collision_ops._degree_blocks, which also runs the kernel refinement
    check on each of them), not a whole CollisionMatrices.  Raises
    FluidError for cm that is not CollisionMatrices and unless every
    coefficient is positive.
    """
    _check_record(cm, CollisionMatrices, FluidError)
    if "transport" in cm._cache:
        return cm._cache["transport"]
    core = _own_core_values(cm)
    spec = cm.basis.spec
    refined = build_basis(BasisSpec(radial_order=spec.radial_order + 6,
                                    angular_max=spec.angular_max))
    clean = _degree_blocks(refined, min(2, spec.angular_max)).clean
    fine = _core_values(refined, _sector_blocks(clean["L"]), _sector_blocks(clean["L1"]))
    deltas = {k: abs(core[k] - fine[k]) for k in ("kappa0", "kappa1", "eta", "a1")}
    tc = TransportCoefficients(
        kappa0=core["kappa0"],
        kappa1=core["kappa1"],
        eta=core["eta"],
        a_list={-1: core["a_minus1"], 0: core["a0"], 1: core["a1"],
                2: core["kappa0"], 3: core["kappa0"]},
        truncation_delta=deltas,
    )
    if min(tc.kappa0, tc.kappa1, tc.eta, *tc.a_list.values()) <= 0:
        raise FluidError("transport coefficients must be strictly positive")
    cm._cache["transport"] = tc
    return tc


# ---------------------------------------------------------------------------
# mode-level fluid semigroups
# ---------------------------------------------------------------------------

@dataclass
class FluidModeState:
    kind: str
    s: float
    t: float
    coefficients: np.ndarray
    f: np.ndarray | None = None
    rho: complex | None = None
    E: np.ndarray | None = None
    B: np.ndarray | None = None


# speed of the acoustic branches along the directions h+- = (ht1 -+ chi1)/sqrt2
_SOUND_SPEED = math.sqrt(5.0 / 3.0)


def _hydro_vectors(basis) -> tuple[np.ndarray, np.ndarray]:
    """The density/heat mixing pair (h0, ht1) of the macroscopic space.

    h0 spans the entropy (heat) branch; ht1 is the compressible direction
    that pairs with axial momentum on the acoustic branches.
    """
    chi0, chi4 = basis.chi(0), basis.chi(4)
    h0 = math.sqrt(0.4) * chi0 - math.sqrt(0.6) * chi4
    ht1 = math.sqrt(0.6) * chi0 + math.sqrt(0.4) * chi4
    return h0, ht1


def _heat_basis(basis) -> list[np.ndarray]:
    return [_hydro_vectors(basis)[0], basis.chi(2), basis.chi(3)]


def _heat_rates(tc: TransportCoefficients) -> np.ndarray:
    """Decay rates a_j of the _heat_basis directions: entropy, then shear."""
    return np.array([tc.a_list[0], tc.a_list[2], tc.a_list[3]])


def _heat_decay(t, s, tc: TransportCoefficients) -> np.ndarray:
    """exp(-a_j s^2 t) of the three heat branches: (n_t, n_s, 3) over arrays of
    times t and wave numbers s, (3,) at a scalar t and s."""
    return np.exp(-np.multiply.outer(np.asarray(t, dtype=float), s**2)[..., None]
                  * _heat_rates(tc))


def _check_time_and_wave(t: float, s: float) -> None:
    if not (_finite(t) and _finite(s)):
        raise FluidError(f"time and wave number must be finite real numbers, got t={t!r}, s={s!r}")


def _check_field_data(s: float, omega, numbers: dict, vectors: dict):
    """The data checks of Y2_mode and linear_nsmf_solve; returns omega as floats and the
    constraint scale.  omega is a unit direction, numbers (rho0, ...) are finite numbers
    and vectors (E0, B0, ...) finite 3-vectors; rho0 matches div E0, B0 is divergence free."""
    if not (_finite_array(omega) and np.shape(omega) == (3,)
            and abs(np.linalg.norm(omega) - 1.0) <= _CONSTRAINT_TOL):
        raise FluidError(f"wave direction must be a finite unit 3-vector, got {omega!r}")
    if not (all(map(_finite_complex, numbers.values()))
            and all(map(_finite_complex_array, vectors.values()))):
        raise FluidError(f"non-finite or non-numeric mode data {sorted(numbers | vectors)}")
    for name, v in vectors.items():
        if np.shape(v) != (3,):
            raise FluidError(f"{name} must be a 3-vector, got shape {np.shape(v)}")
    scale = max(1.0, *map(abs, numbers.values()), *map(np.linalg.norm, vectors.values()))
    omega = np.asarray(omega, dtype=float)
    if abs(numbers["rho0"] - 1j * s * (omega @ vectors["E0"])) > _CONSTRAINT_TOL * scale:
        raise FluidError("charge does not match the field divergence")
    if abs(omega @ vectors["B0"]) > _CONSTRAINT_TOL * scale:
        raise FluidError("magnetic mode must be divergence free")
    return omega, scale


def Y1_mode(t: float, s: float, f0: np.ndarray,
            tc: TransportCoefficients, basis) -> FluidModeState:
    """Heat decay along the entropy and the two shear branches."""
    _check_record(tc, TransportCoefficients, FluidError)
    _check_record(basis, Basis, FluidError)
    _check_time_and_wave(t, s)
    if t < 0:
        raise FluidError("time must be nonnegative")
    if not _finite_complex_array(f0):
        raise FluidError("non-finite or non-numeric initial state")
    f0 = np.asarray(f0, dtype=complex)
    if f0.shape != (basis.dim,):
        raise FluidError(f"state must have length {basis.dim}")
    p0 = basis.projection_matrix("P0")
    defect = np.linalg.norm(f0 - p0 @ f0)
    if defect > _CONSTRAINT_TOL * max(1.0, np.linalg.norm(f0)):
        raise FluidError("initial state has a microscopic component")
    hs = np.array(_heat_basis(basis))
    coeffs = _heat_decay(t, s, tc) * (hs @ f0)
    f = coeffs @ hs
    return FluidModeState(kind="y1", s=s, t=t, coefficients=coeffs, f=f)


def _heat_flow(f0: np.ndarray, s: np.ndarray, t: np.ndarray,
               tc: TransportCoefficients, basis) -> np.ndarray:
    """Heat flow of the modes f0 (n_s, dim) at wave numbers s over the times t.

    The heat-span part of each mode decays as in Y1_mode; the rest is
    dropped.  Returns (n_t, n_s, dim) states.
    """
    hs = np.array(_heat_basis(basis))
    return (_heat_decay(t, s, tc) * (f0 @ hs.T)) @ hs


def _frame(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    seed = np.array([1.0, 0.0, 0.0])
    if abs(omega @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    p1 = seed - (seed @ omega) * omega
    p1 /= np.linalg.norm(p1)
    return p1, np.cross(omega, p1)


def _decayed_sinhc(z):
    """e^{-z} sinh(z)/z = (1 - e^{-2z})/(2z): bounded for Re z >= 0, finite at z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-6
    guarded = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z + (2.0 / 3.0) * z * z,
                    -np.expm1(-2.0 * guarded) / (2.0 * guarded))


def _field_block(eta: float, c, t):
    """exp(t * [[-eta, c], [c, 0]]) through the branch collision.

    The shifted matrix squares to a scalar, so the exponential reduces to
    e^{mt} cosh(delta t) and e^{mt} t sinh(delta t)/(delta t), with m = -eta/2
    and delta = sqrt(eta^2/4 + c^2), Re delta >= 0.  Both are evaluated as
    e^{(m+delta)t} times a bounded factor in e^{-2 delta t}: since
    m + Re delta <= 0 for imaginary c, nothing overflows at long times, and
    the sinh(z)/z form stays finite when the two branch rates collide.
    Elementwise over arrays c and t that broadcast together.
    """
    c = np.asarray(c, dtype=complex)
    t = np.asarray(t, dtype=float)
    m = -0.5 * eta
    delta = np.sqrt(0.25 * eta * eta + c * c)
    lead = np.exp((m + delta) * t)
    even = 0.5 * lead * (1.0 + np.exp(-2.0 * delta * t))
    odd = lead * t * _decayed_sinhc(delta * t)
    return even + m * odd, c * odd, even - m * odd


def _field_flow(eta: float, s, t, rho, x2, x3, y2, y3):
    """Damped-Maxwell flow of (charge, field) modes in reduced coordinates.

    X = omega x E and Y = omega x B have components (X2, X3), (Y2, Y3) along
    the frame (p1, p2) of _frame.  The charge decays at eta (1 + s^2); the
    blocks (X3, Y2) and (X2, Y3) evolve by _field_block with coupling +i s
    and -i s.  Times t run along axis 0 and wave numbers s along axis 1; the
    initial values broadcast against that grid.  Returns the five reduced
    coordinates (rho, X2, X3, Y2, Y3) on the grid: (len(t), len(s)), or
    (len(t), 1) for a single wave number.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)[:, None]
    rho_t = np.exp(-eta * (1.0 + s * s) * t) * rho
    e11, e12, e22 = _field_block(eta, 1j * s, t)
    f11, f12, f22 = _field_block(eta, -1j * s, t)
    return (rho_t, f11 * x2 + f12 * y3, e11 * x3 + e12 * y2,
            e12 * x3 + e22 * y2, f12 * x2 + f22 * y3)


def _rotated(omega: np.ndarray, v: np.ndarray):
    """Components of omega x v along the frame (p1, p2)."""
    p1, p2 = _frame(omega)
    w = np.cross(omega, v)
    return w @ p1, w @ p2


def _fields(omega: np.ndarray, s: float, rho, x2, x3, y2, y3):
    """E and B of reduced coordinates (the inverse of _rotated); space last."""
    p1, p2 = _frame(omega)
    x = np.multiply.outer(x2, p1) + np.multiply.outer(x3, p2)
    y = np.multiply.outer(y2, p1) + np.multiply.outer(y3, p2)
    e_field = -1j * np.multiply.outer(rho, omega) / s - np.cross(omega, x)
    return e_field, -np.cross(omega, y)


def Y2_mode(t: float, s: float, rho0: complex, E0: np.ndarray, B0: np.ndarray,
            tc: TransportCoefficients,
            omega: np.ndarray | None = None) -> FluidModeState:
    """Damped-Maxwell evolution of one (charge, fields) mode."""
    _check_record(tc, TransportCoefficients, FluidError)
    _check_time_and_wave(t, s)
    if t < 0:
        raise FluidError("time must be nonnegative")
    if s <= 0:
        raise FluidError("wave number must be positive")
    omega = np.array([1.0, 0.0, 0.0]) if omega is None else omega
    omega, _ = _check_field_data(s, omega, {"rho0": rho0}, {"E0": E0, "B0": B0})
    E0 = np.asarray(E0, dtype=complex)
    B0 = np.asarray(B0, dtype=complex)
    flow = _field_flow(tc.eta, s, [t], rho0, *_rotated(omega, E0),
                       *_rotated(omega, B0))
    coefficients = np.array([v[0, 0] for v in flow], dtype=complex)
    e_field, b_field = _fields(omega, s, *coefficients)
    return FluidModeState(kind="y2", s=s, t=t, coefficients=coefficients,
                          rho=complex(coefficients[0]), E=e_field, B=b_field)


# ---------------------------------------------------------------------------
# compressible / incompressible splitting
# ---------------------------------------------------------------------------

def p_split(f: np.ndarray, basis):
    """Compressible / incompressible splitting of kinetic modes along the last axis.

    f_par = (f . chi1) chi1 + (f . ht1) ht1 is the acoustic part (axial
    momentum and the density/heat mixing direction); f_perp = f - f_par holds
    the heat and shear directions and the microscopic rest.  Raises
    FluidError unless basis is a Basis, the last axis has length basis.dim
    and every entry is finite.
    """
    _check_record(basis, Basis, FluidError)
    if not _finite_complex_array(f):
        raise FluidError("non-finite or non-numeric kinetic modes")
    f = np.asarray(f, dtype=complex)
    if f.shape[-1:] != (basis.dim,):
        raise FluidError(f"modes must have last-axis length {basis.dim}, got shape {f.shape}")
    chi1, ht1 = basis.chi(1), _hydro_vectors(basis)[1]
    f_par = np.multiply.outer(f @ chi1, chi1) + np.multiply.outer(f @ ht1, ht1)
    return f_par, f - f_par


# ---------------------------------------------------------------------------
# linear NSMF mode system
# ---------------------------------------------------------------------------

@dataclass
class NsmfMode:
    s: float
    n0: complex = 0.0
    m0: np.ndarray = field(default_factory=lambda: np.zeros(3, complex))
    q0: complex = 0.0
    rho0: complex = 0.0
    E0: np.ndarray = field(default_factory=lambda: np.zeros(3, complex))
    B0: np.ndarray = field(default_factory=lambda: np.zeros(3, complex))
    omega: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    g1: Callable[[float], np.ndarray] | None = None
    g2: Callable[[float], complex] | None = None
    g3: Callable[[float], np.ndarray] | None = None


def _check_mode(mode: NsmfMode) -> None:
    _check_record(mode, NsmfMode, FluidError)
    if not (_finite(mode.s) and mode.s > 0):
        raise FluidError(f"wave number must be finite and positive, got {mode.s!r}")
    if not all(g is None or callable(g) for g in (mode.g1, mode.g2, mode.g3)):
        raise FluidError("the forcings g1, g2 and g3 must be callables or None")
    omega, scale = _check_field_data(mode.s, mode.omega,
                                     {"n0": mode.n0, "q0": mode.q0, "rho0": mode.rho0},
                                     {"m0": mode.m0, "E0": mode.E0, "B0": mode.B0})
    if abs(omega @ mode.m0) > _CONSTRAINT_TOL * scale:
        raise FluidError("momentum mode must be divergence free")
    if abs(mode.n0 + math.sqrt(2.0 / 3.0) * mode.q0) > _CONSTRAINT_TOL * scale:
        raise FluidError("density and heat modes must satisfy the trace relation")


def _forcing(g: Callable, tau: float, shape: tuple) -> np.ndarray:
    """g(tau), which must be a finite number (shape ()) or 3-vector (shape (3,))."""
    value = g(tau)
    if not (_finite_complex_array(value) and np.shape(value) == shape):
        raise FluidError(f"non-finite forcing or forcing not of shape {shape}: {value!r}")
    return value


def _geometric_panels(t: float, n: int) -> np.ndarray:
    edges = t * np.geomspace(1e-3, 1.0, n)
    return np.concatenate(([0.0], edges))


def _duhamel(propagate: Callable, force: Callable, t: float) -> np.ndarray:
    """integral_0^t propagate(t - tau, force(tau)) dtau, panelwise Gauss.

    force(tau) gives the forcing components at one time.  propagate(lags, f)
    applies the unforced flow over each lag to the rows of f, one row per
    quadrature node, in a single call.  Returns the integrated components.
    """
    def forces(taus):
        # the roughness test below is False for NaN, so an overflow is rejected here
        out = np.array([np.atleast_1d(force(tau)) for tau in taus], dtype=complex)
        if not _finite_complex_array(out):
            raise FluidError("non-finite forcing")
        return out

    if t == 0:
        return np.zeros(forces([0.0]).shape[1], dtype=complex)
    nodes, weights = np.polynomial.legendre.leggauss(6)

    def quad(n):
        edges = _geometric_panels(t, n)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        taus = (mid[:, None] + half[:, None] * nodes).ravel()
        return (half[:, None] * weights).ravel() @ propagate(t - taus, forces(taus))

    coarse, fine = quad(_DUHAMEL_PANELS), quad(2 * _DUHAMEL_PANELS)
    if np.sum(np.abs(fine - coarse)) > 1e-8 * (np.sum(np.abs(fine)) + 1e-12):
        raise FluidError("forcing too rough for the Duhamel time quadrature")
    return fine


def linear_nsmf_solve(modes: list[NsmfMode], times: np.ndarray,
                      tc: TransportCoefficients) -> dict[str, np.ndarray]:
    """Mode-by-mode solution of the linearized fluid-Maxwell system."""
    _check_record(tc, TransportCoefficients, FluidError)
    if not (_finite_array(times) and np.ndim(times) == 1):
        raise FluidError(f"times must be a 1-D array of finite real numbers, got {times!r}")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise FluidError("times must be nonnegative and sorted")
    if not isinstance(modes, (list, tuple)):
        raise FluidError(f"modes must be a list of NsmfMode, got {type(modes).__name__}")
    for mode in modes:
        _check_mode(mode)
    nt, nm = len(times), len(modes)
    out = {
        "t": times,
        "n": np.zeros((nt, nm), complex),
        "m": np.zeros((nt, nm, 3), complex),
        "q": np.zeros((nt, nm), complex),
        "rho": np.zeros((nt, nm), complex),
        "E": np.zeros((nt, nm, 3), complex),
        "B": np.zeros((nt, nm, 3), complex),
        "p": np.zeros((nt, nm), complex),
    }
    for j, mode in enumerate(modes):
        s, omega, eta = mode.s, mode.omega, tc.eta
        frame = np.array(_frame(omega))
        heat, shear = -tc.kappa1 * s * s, -tc.kappa0 * s * s
        q = np.exp(heat * times) * complex(mode.q0)
        m_vec = np.exp(shear * times)[:, None] * np.asarray(mode.m0, complex)
        flow = np.concatenate(_field_flow(eta, s, times, mode.rho0,
                                          *_rotated(omega, mode.E0),
                                          *_rotated(omega, mode.B0)), axis=1)

        def field_force(tau):
            g = _forcing(mode.g3, tau, (3,))
            return (1j * s * (omega @ g), *_rotated(omega, g), 0.0, 0.0)

        for i, t in enumerate(times):
            if mode.g2 is not None:
                q[i] += _duhamel(lambda lag, f: np.exp(heat * lag)[:, None] * f,
                                 lambda tau: 0.6 * _forcing(mode.g2, tau, ()), t)[0]
            if mode.g1 is not None:
                # only the transverse forcing drives the momentum; the
                # parallel part is absorbed by the pressure
                m_vec[i] += _duhamel(lambda lag, f: np.exp(shear * lag)[:, None] * f,
                                     lambda tau: frame @ _forcing(mode.g1, tau, (3,)),
                                     t) @ frame
                out["p"][i, j] = -1j * (omega @ _forcing(mode.g1, t, (3,))) / s
            if mode.g3 is not None:
                flow[i] += _duhamel(
                    lambda lag, f: np.concatenate(
                        _field_flow(eta, s, lag, *f.T[:, :, None]), axis=1),
                    field_force, t)
        out["q"][:, j] = q
        out["n"][:, j] = -math.sqrt(2.0 / 3.0) * q
        out["m"][:, j] = m_vec
        out["rho"][:, j] = flow[:, 0]
        out["E"][:, j], out["B"][:, j] = _fields(omega, s, *flow.T)
    return out


# ---------------------------------------------------------------------------
# aggregate decay experiments
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    times: np.ndarray
    norms: np.ndarray
    exponent: float


def _radial_grid():
    """Gauss-Legendre nodes s on [0, _DECAY_S_MAX] and weights for ds s^2."""
    s, w = _gauss_legendre(_DECAY_N_S, _DECAY_S_MAX)
    return s, w * s * s


def y2_decay_experiment(tc: TransportCoefficients, kind: str = "generic",
                        profile_width: float | None = None) -> DecayFit:
    """Aggregate field-system decay over a smooth radial mode profile.

    generic: order-one magnetic content excites the slow diffusive branch
    directly and the aggregate tracks the (1+t)^(-3/4) envelope.  Modes above
    the eigenvalue crossing only ring down at exp(-eta*t/2), so the profile
    width defaults to sqrt(2) times the crossing wave number; that balance
    keeps the diffusive branch in charge across the whole fit window.

    enhanced: no magnetic data, so the slow-branch weight is wave-number
    suppressed and the aggregate gains half a power of time.  The envelope
    carries an additive exponentially damped term, and the fit window starts
    only after that term is negligible.
    """
    _check_record(tc, TransportCoefficients, FluidError)
    if not isinstance(kind, str) or kind not in _DECAY_WINDOWS:
        raise FluidError(f"unknown decay experiment kind: {kind}")
    width = tc.eta / math.sqrt(2.0) if profile_width is None else profile_width
    if not (_finite(width) and width > 0):
        raise FluidError(f"profile width must be finite and positive, got {width!r}")
    times = np.geomspace(*_DECAY_WINDOWS[kind])
    s, w = _radial_grid()
    profile = np.exp(-0.5 * (s / width) ** 2)
    x3 = profile.astype(complex)
    zero = np.zeros_like(x3)
    if kind == "generic":
        rho0, y2 = zero, x3
    else:
        rho0, y2 = 1j * s * profile, zero
    flow = _field_flow(tc.eta, s, times, rho0, zero, x3, y2, zero)
    density = (1.0 + s**-2) * np.abs(flow[0])**2 + sum(np.abs(v)**2 for v in flow[1:])
    norms = np.sqrt(4.0 * math.pi * (density @ w))
    slope = float(np.polyfit(np.log1p(times), np.log(norms), 1)[0])
    return DecayFit(times=times, norms=norms, exponent=slope)


def y1_decay_experiment(tc: TransportCoefficients) -> DecayFit:
    """Aggregate heat-branch decay for a smooth radial profile.

    All three branches are plain heat kernels, so the only design concern is
    that the profile is wide enough for the Gaussian decay to be active from
    the start of the fit window.
    """
    _check_record(tc, TransportCoefficients, FluidError)
    times = np.geomspace(*_DECAY_WINDOWS["generic"])
    s, w = _radial_grid()
    profile = np.exp(-0.5 * (s / _Y1_PROFILE_WIDTH) ** 2)
    density = np.sum((_heat_decay(times, s, tc) * profile[:, None])**2, axis=-1)
    norms = np.sqrt(4.0 * math.pi * (density @ w))
    slope = float(np.polyfit(np.log1p(times), np.log(norms), 1)[0])
    return DecayFit(times=times, norms=norms, exponent=slope)
