"""Fluid-side objects of the diffusion limit.

Transport coefficients as quadratic forms of the collision inverse on the
range of the collision operator (collision_ops.collision_inverse), the two
per-mode fluid semigroups (heat decay along the incompressible branches, and
the damped-Maxwell evolution of charge and fields), the compressible versus
incompressible splitting of kinetic modes, a Duhamel solver for the
linearized Navier-Stokes-Maxwell-Fourier mode system, and the aggregate
decay experiments, whose mode grids and time windows are module constants.
A wave direction omega must be a finite unit 3-vector.

The damped-Maxwell evolution is one flow, _field_flow, of the reduced state
(rho, X2, X3, Y2, Y3) of charge, omega x E and omega x B on a last axis, over
a grid of wave numbers and times; the linear solver, the aggregate decay
experiment and the rate experiments in convergence_lab index it.  Both
field pairs read one confluent-safe two-by-two exponential, so the
branch-collision wave number needs no special casing.  _field_sq is the
metric of those coordinates, in which the charge counts 1 + 1/s^2; the
aggregate decay experiment and the rate experiments measure in it.

The heat side has the same shape: _heat_decay is the one heat decay
exp(-a_j s^2 t) of the three heat branches, and _heat_flow (a grid of kinetic
modes over a grid of times), the aggregate heat decay experiment and the
linear solver (its entropy and shear columns) all evaluate it.  The solver's Duhamel integrals apply the same two flows to every
quadrature node of every time in one call per rule.  Each flow sets its own
lag panels: graded geometrically from its shortest decay length (or 1e-3 t)
and, for the ringing field flow, cut to a quarter period, under the one
checked panel rule velocity_basis._panel_quadrature.  p_split, the
compressible / incompressible splitting, acts on the last axis of any array
of modes; its compressible part is _compressible_part, which the rate
experiments read too.  The
rate experiments build their fluid references and error streams from
_heat_flow, _field_flow, _field_sq and p_split.  The quadratic forms of
_core_values, with the hydrodynamic directions h0, ht1 and h+- and the sound
speed _SOUND_SPEED, are the one source of the transport coefficients and of
dispersion.expansion_coefficients, which read one pass of them per collision
set (_own_core_values); a basis whose angular_max is below 2 truncates the
degree-2 forms away, and both refuse it.  truncation_deltas reads that pass
too and compares it with the same forms at radial order + 6; the refined
pass runs only when it is called, once per collision set, so the transport
coefficients build no basis and run no kernel quadrature of their own.

Bad input fails at the boundary with FluidError, the module's documented
error: times, wave numbers, mode data and forcing values that are not finite
numbers (velocity_basis._finite, _finite_complex and their array forms),
wrongly shaped, or non-real where real, broken constraints, and record
arguments of the wrong type (velocity_basis._check_record).  A decay
experiment whose aggregate norms the fit cannot take (velocity_basis._line_fit),
such as a profile too narrow for the radial grid, raises FluidError too.
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
    _finite_complex, _finite_complex_array, _gauss_legendre, _line_fit, _panel_quadrature,
    build_basis, v_multiplication_matrix,
)

_CONSTRAINT_TOL = 1e-10
# the Duhamel rule: Gauss order, and geometric lag panels per time over three
# decades of lag, before the width cap
_DUHAMEL_ORDER = 8
_DUHAMEL_PANELS = 11
# aggregate decay experiments: radial mode grid on [0, _DECAY_S_MAX], the fit
# window per kind as geomspace arguments, the heat profile width, and the
# divisor of the field profile width eta / sqrt(2)
_DECAY_N_S = 400
_DECAY_S_MAX = 6.0
_DECAY_WINDOWS = {"generic": (1.0, 1000.0, 25), "enhanced": (150.0, 3000.0, 25)}
_Y1_PROFILE_WIDTH = 1.5
_Y2_WIDTH_DIVISOR = math.sqrt(2.0)


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


def _core_values(basis, L_sector: dict[int, np.ndarray],
                 L1_sector: dict[int, np.ndarray]) -> dict[str, float]:
    """The six quadratic forms -(L^{-1} P w, P w) behind the transport coefficients.

    Each w is v1 times a collision invariant, so it lies in degrees l <= 2,
    and L is block-diagonal in l: sector blocks that end at degree 2 give the
    forms of the whole blocks.  w is cut to the length of the blocks.
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


def _own_core_values(cm: CollisionMatrices, error: type) -> dict[str, float]:
    """_core_values on the sector blocks of cm: one pass per collision set, read by
    transport_coefficients, truncation_deltas and dispersion.expansion_coefficients.
    Raises the caller's error when the basis stops below Legendre degree 2,
    where the kappa0 and a+-1 forms live."""
    if cm.basis.spec.angular_max < 2:
        raise error(f"the transport forms need angular_max >= 2, "
                    f"got {cm.basis.spec.angular_max}")
    if "core_values" not in cm._cache:
        cm._cache["core_values"] = _core_values(cm.basis, cm.L_sector, cm.L1_sector)
    return cm._cache["core_values"]


def transport_coefficients(cm: CollisionMatrices) -> TransportCoefficients:
    """Transport coefficients of the Navier-Stokes-Maxwell limit, cached on cm.

    kappa0, kappa1, eta and the branch curvatures a_j are the forms of
    _core_values on the sector blocks of cm; their truncation deltas are
    truncation_deltas(cm).  Raises FluidError for cm that is not
    CollisionMatrices or whose angular_max is below 2, and unless every
    coefficient is positive.
    """
    _check_record(cm, CollisionMatrices, FluidError)
    if "transport" in cm._cache:
        return cm._cache["transport"]
    core = _own_core_values(cm, FluidError)
    tc = TransportCoefficients(
        kappa0=core["kappa0"],
        kappa1=core["kappa1"],
        eta=core["eta"],
        a_list={-1: core["a_minus1"], 0: core["a0"], 1: core["a1"],
                2: core["kappa0"], 3: core["kappa0"]},
    )
    if min(tc.kappa0, tc.kappa1, tc.eta, *tc.a_list.values()) <= 0:
        raise FluidError("transport coefficients must be strictly positive")
    cm._cache["transport"] = tc
    return tc


def truncation_deltas(cm: CollisionMatrices) -> dict[str, float]:
    """|value - refined value| of kappa0, kappa1, eta and a1, cached on cm.

    The refined value is taken at radial order + 6 with the same angular_max
    (so the same quadrature).  The refined pass builds only the degrees l <= 2
    the forms read (collision_ops._degree_blocks, which also runs the kernel
    refinement check on each of them and raises AssemblyError when it fails),
    not a whole CollisionMatrices.  Raises FluidError, before it builds
    anything, for cm that is not CollisionMatrices or whose angular_max is
    below 2.
    """
    _check_record(cm, CollisionMatrices, FluidError)
    core = _own_core_values(cm, FluidError)
    if "truncation_deltas" not in cm._cache:
        spec = cm.basis.spec
        refined = build_basis(BasisSpec(radial_order=spec.radial_order + 6,
                                        angular_max=spec.angular_max))
        clean = _degree_blocks(refined, 2).clean
        fine = _core_values(refined, _sector_blocks(clean["L"]), _sector_blocks(clean["L1"]))
        cm._cache["truncation_deltas"] = {k: abs(core[k] - fine[k])
                                          for k in ("kappa0", "kappa1", "eta", "a1")}
    return cm._cache["truncation_deltas"]


# ---------------------------------------------------------------------------
# mode-level fluid semigroups
# ---------------------------------------------------------------------------

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
    """exp(-a_j s^2 t) of the three heat branches, (*t.shape, *s.shape, 3) over
    times t and wave numbers s."""
    return np.exp(-np.multiply.outer(np.asarray(t, dtype=float), s**2)[..., None]
                  * _heat_rates(tc))


def _heat_flow(f0: np.ndarray, s: np.ndarray, t: np.ndarray,
               tc: TransportCoefficients, basis) -> np.ndarray:
    """Heat flow of the modes f0 (n_s, dim) at wave numbers s over the times t.

    The heat-span part of each mode, its entropy (h0) and two shear (chi2,
    chi3) coordinates, decays by _heat_decay, c_j e^{-a_j s^2 t}; the rest,
    the acoustic pair and the microscopic part, is dropped.  Returns
    (n_t, n_s, dim) states.
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
    """e^{-z} sinh(z)/z = (1 - e^{-2z})/(2z): bounded for Re z >= 0, finite at z = 0.
    The series (|z| < 1e-6) and the closed form each see 0 or 1 off their entries."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-6
    tiny, guarded = np.where(small, z, 0.0), np.where(small, 1.0, z)
    return np.where(small, 1.0 - tiny + (2.0 / 3.0) * tiny * tiny,
                    -np.expm1(-2.0 * guarded) / (2.0 * guarded))


def _field_block(eta: float, c, t):
    """exp(t * [[-eta, c], [c, 0]]) through the branch collision.

    The shifted matrix squares to a scalar, so the exponential reduces to
    e^{mt} cosh(delta t) and e^{mt} t sinh(delta t)/(delta t), with m = -eta/2
    and delta = sqrt(eta^2/4 + c^2), Re delta >= 0.  Both are evaluated as
    e^{(m+delta)t} times a bounded factor in e^{-2 delta t}: since
    m + Re delta <= 0 for imaginary c, nothing overflows at long times, and
    the sinh(z)/z form stays finite when the two branch rates collide.
    Elementwise over arrays c and t that broadcast together.  Only the
    off-diagonal entry depends on the sign of c: the rest reads c^2.
    """
    c = np.asarray(c, dtype=complex)
    t = np.asarray(t, dtype=float)
    m = -0.5 * eta
    delta = np.sqrt(0.25 * eta * eta + c * c)
    lead = np.exp((m + delta) * t)
    even = 0.5 * lead * (1.0 + np.exp(-2.0 * delta * t))
    odd = lead * t * _decayed_sinhc(delta * t)
    return even + m * odd, c * odd, even - m * odd


def _field_flow(eta: float, s, t, rho, x2, x3, y2, y3) -> np.ndarray:
    """Damped-Maxwell flow of (charge, field) modes in reduced coordinates.

    X = omega x E and Y = omega x B have components (X2, X3), (Y2, Y3) along
    the frame (p1, p2) of _frame.  The charge decays at eta (1 + s^2); the
    block (X3, Y2) evolves by _field_block with coupling +i s, and (X2, Y3)
    by the same block with the coupling negated.  Times t run along axis 0
    and wave numbers s along axis 1; the initial values broadcast against
    that grid.  Returns the reduced state (rho, X2, X3, Y2, Y3) on a last
    axis: (len(t), len(s), 5), or (len(t), 1, 5) for a single wave number.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)[:, None]
    rho_t = np.exp(-eta * (1.0 + s * s) * t) * rho
    e11, e12, e22 = _field_block(eta, 1j * s, t)
    return np.stack(np.broadcast_arrays(rho_t, e11 * x2 - e12 * y3, e11 * x3 + e12 * y2,
                                        e12 * x3 + e22 * y2, e22 * y3 - e12 * x2), axis=-1)


def _field_sq(states: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Squared electromagnetic metric per mode of states whose last axis starts
    with the charge: the charge counts 1 + 1/s^2, every other coordinate 1."""
    return np.sum(np.abs(states) ** 2, axis=-1) + (1.0 / s**2) * np.abs(states[..., 0]) ** 2


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
    f_par = _compressible_part(f, basis)
    return f_par, f - f_par


def _compressible_part(f: np.ndarray, basis) -> np.ndarray:
    """f_par of p_split for complex modes f along the last axis, unchecked."""
    chi1, ht1 = basis.chi(1), _hydro_vectors(basis)[1]
    return np.multiply.outer(f @ chi1, chi1) + np.multiply.outer(f @ ht1, ht1)


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
    """The data checks of linear_nsmf_solve.  s is a finite positive number, the
    forcings are callables or None, omega is a unit direction, the numbers (n0,
    q0, rho0) are finite numbers and the vectors (m0, E0, B0) finite 3-vectors;
    rho0 matches div E0, B0 and m0 are divergence free, and n0 and q0 satisfy
    the trace relation."""
    _check_record(mode, NsmfMode, FluidError)
    if not (_finite(mode.s) and mode.s > 0):
        raise FluidError(f"wave number must be finite and positive, got {mode.s!r}")
    if not all(g is None or callable(g) for g in (mode.g1, mode.g2, mode.g3)):
        raise FluidError("the forcings g1, g2 and g3 must be callables or None")
    if not (_finite_array(mode.omega) and np.shape(mode.omega) == (3,)
            and abs(np.linalg.norm(mode.omega) - 1.0) <= _CONSTRAINT_TOL):
        raise FluidError(f"wave direction must be a finite unit 3-vector, got {mode.omega!r}")
    numbers = {"n0": mode.n0, "q0": mode.q0, "rho0": mode.rho0}
    vectors = {"m0": mode.m0, "E0": mode.E0, "B0": mode.B0}
    if not (all(map(_finite_complex, numbers.values()))
            and all(map(_finite_complex_array, vectors.values()))):
        raise FluidError(f"non-finite or non-numeric mode data {sorted(numbers | vectors)}")
    for name, v in vectors.items():
        if np.shape(v) != (3,):
            raise FluidError(f"{name} must be a 3-vector, got shape {np.shape(v)}")
    scale = max(1.0, *map(abs, numbers.values()), *map(np.linalg.norm, vectors.values()))
    omega = np.asarray(mode.omega, dtype=float)
    if abs(mode.rho0 - 1j * mode.s * (omega @ mode.E0)) > _CONSTRAINT_TOL * scale:
        raise FluidError("charge does not match the field divergence")
    if abs(omega @ mode.B0) > _CONSTRAINT_TOL * scale:
        raise FluidError("magnetic mode must be divergence free")
    if abs(omega @ mode.m0) > _CONSTRAINT_TOL * scale:
        raise FluidError("momentum mode must be divergence free")
    if abs(mode.n0 + math.sqrt(2.0 / 3.0) * mode.q0) > _CONSTRAINT_TOL * scale:
        raise FluidError("density and heat modes must satisfy the trace relation")


def _forcing(g: Callable, taus: np.ndarray, shape: tuple) -> np.ndarray:
    """g at each of taus, (len(taus), *shape); every value must be a finite number
    (shape ()) or 3-vector (shape (3,)).  One predicate call checks the list of
    values and one shape test the stack."""
    # no times give an empty stack of the right shape
    values = [g(tau) for tau in taus] or np.zeros((0, *shape))
    if _finite_complex_array(values):
        stack = np.array(values, dtype=complex)
        if stack.shape == (len(taus), *shape):
            return stack
    raise FluidError(f"non-finite forcing or forcing not of shape {shape}")


def _duhamel(propagate: Callable, force: Callable, times: np.ndarray, rate: float,
             cap: float) -> np.ndarray:
    """integral_0^t propagate(sigma, force(t - sigma)) dsigma for each t of times,
    panelwise Gauss in the lag sigma = t - tau.

    The flow sets the panels: rate is its fastest decay rate and cap the
    widest panel it admits (a quarter period for the ringing field flow).
    Each t has the lag panel [0, a], a = min(1e-3 t, 1/rate), where the flow
    varies fastest, then _DUHAMEL_PANELS geometric panels over [a, 1e3 a] and
    one last panel up to t, empty unless t passes 1e3 decay lengths.
    velocity_basis._panel_quadrature cuts them to cap and checks them at 1e-8
    (zero weights at t = 0).  force(taus) gives the forcing components at a
    flat array of times, one row each, and propagate(lags, f) applies the
    unforced flow over each lag to the rows of f: one call of each per rule
    over the nodes of all times.  Returns one row of integrated components
    per t.
    """
    # a = min(1e-3 t, 1/rate), with no division by a rate that underflowed to 0
    first = (1e-3 * times / np.maximum(1.0, 1e-3 * times * rate))[:, None]
    graded = np.minimum(first * np.geomspace(1.0, 1e3, _DUHAMEL_PANELS + 1), times[:, None])
    edges = np.concatenate((np.zeros_like(first), graded, times[:, None]), axis=1)

    def integrand(rows, lags):
        f = force(times[rows] - lags)
        # the roughness test is False for NaN, so an overflow is rejected here
        if not _finite_complex_array(f):
            raise FluidError("non-finite forcing")
        return propagate(lags, f)

    return _panel_quadrature(edges, cap, _DUHAMEL_ORDER, 1e-8, integrand, FluidError)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def linear_nsmf_solve(modes: list[NsmfMode], times: np.ndarray,
                      tc: TransportCoefficients) -> dict[str, np.ndarray]:
    """The linearized fluid-Maxwell system of the modes over the times.

    q and m decay on the entropy and shear columns of _heat_decay, charge and
    fields on one _field_flow call over all modes, and each forcing adds one
    _duhamel pass over all times on the same flow.  Returns "t", the
    (n_t, n_modes) arrays "n", "q", "rho" and "p", and "m", "E" and "B" of
    shape (n_t, n_modes, 3).  It computes with numpy's floating-point warnings
    off: data or a forcing that overflows raises FluidError, from the Duhamel
    integrand's check or the test that every returned array is finite.
    """
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
    s_modes = np.array([mode.s for mode in modes], dtype=float)
    decay = _heat_decay(times, s_modes, tc)
    q = decay[..., 0] * np.array([mode.q0 for mode in modes], dtype=complex)
    m = decay[..., 1, None] * np.array([mode.m0 for mode in modes], dtype=complex).reshape(nm, 3)
    # a checked omega may be any finite sequence; the frame reads an array
    omegas = [np.asarray(mode.omega, dtype=float) for mode in modes]
    start = np.array([(mode.rho0, *_rotated(omega, mode.E0), *_rotated(omega, mode.B0))
                      for mode, omega in zip(modes, omegas)], dtype=complex).reshape(nm, 5)
    flow = _field_flow(tc.eta, s_modes, times, *start.T)
    p = np.zeros((nt, nm), complex)
    e_field, b_field = np.zeros((2, nt, nm, 3), complex)
    for j, mode in enumerate(modes):
        s, omega = mode.s, omegas[j]
        # the fastest heat decay: the entropy rate a0 or the shear rate kappa0
        heat_rate = max(tc.a_list[0], tc.kappa0) * s * s
        if mode.g2 is not None:
            q[:, j] += _duhamel(lambda lag, f: _heat_decay(lag, s, tc)[:, :1] * f,
                                lambda taus: 0.6 * _forcing(mode.g2, taus, ())[:, None],
                                times, heat_rate, math.inf)[:, 0]
        if mode.g1 is not None:
            # only the transverse forcing drives the momentum; the parallel
            # part is absorbed by the pressure
            frame = np.array(_frame(omega))
            m[:, j] += _duhamel(lambda lag, f: _heat_decay(lag, s, tc)[:, 1:2] * f,
                                lambda taus: _forcing(mode.g1, taus, (3,)) @ frame.T,
                                times, heat_rate, math.inf) @ frame
            p[:, j] = -1j * (_forcing(mode.g1, times, (3,)) @ omega) / s
        if mode.g3 is not None:
            # the field forcing drives the charge and X only
            drive = np.column_stack((1j * s * omega, *_rotated(omega, np.eye(3)),
                                     np.zeros((3, 2))))
            flow[:, j] += _duhamel(
                lambda lag, f: _field_flow(tc.eta, s, lag, *f.T[:, :, None])[:, 0],
                lambda taus: _forcing(mode.g3, taus, (3,)) @ drive, times,
                tc.eta * (1.0 + s * s), 0.5 * math.pi / s)
        e_field[:, j], b_field[:, j] = _fields(omega, s, *flow[:, j].T)
    out = {"t": times, "n": -math.sqrt(2.0 / 3.0) * q, "m": m, "q": q, "rho": flow[..., 0],
           "E": e_field, "B": b_field, "p": p}
    if not all(map(_finite_complex_array, out.values())):
        raise FluidError("non-finite solution: the data or a forcing overflows")
    return out


# ---------------------------------------------------------------------------
# aggregate decay experiments
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    """The aggregate norms of a decay experiment and their fitted exponent; an
    experiment whose norms cannot be fitted raises FluidError instead."""

    times: np.ndarray
    norms: np.ndarray
    exponent: float


def _decay_fit(times: np.ndarray, density: np.ndarray, w: np.ndarray) -> DecayFit:
    """The aggregate norms sqrt(4 pi density @ w) over the radial weights w and
    their log-log slope in 1 + t (velocity_basis._line_fit on log1p(t)).

    Raises FluidError when a norm is not positive, as for a profile too narrow
    for the radial grid to resolve, whose every norm is 0.
    """
    norms = np.sqrt(4.0 * math.pi * (density @ w))
    slope = _line_fit(np.log1p(times), norms, FluidError)[0]
    return DecayFit(times=times, norms=norms, exponent=slope)


def _radial_grid():
    """Gauss-Legendre nodes s on [0, _DECAY_S_MAX] and weights for ds s^2."""
    s, w = _gauss_legendre(_DECAY_N_S, _DECAY_S_MAX)
    return s, w * s * s


def y2_decay_experiment(tc: TransportCoefficients, kind: str = "generic") -> DecayFit:
    """Aggregate field-system decay over a smooth radial mode profile.

    generic: order-one magnetic content excites the slow diffusive branch
    directly and the aggregate tracks the (1+t)^(-3/4) envelope.  Modes above
    the eigenvalue crossing only ring down at exp(-eta*t/2), so the profile
    exp(-s^2/(2w^2)) of both kinds has w = tc.eta / _Y2_WIDTH_DIVISOR, sqrt(2)
    times the crossing wave number eta/2; that balance keeps the diffusive
    branch in charge across the whole fit window.

    enhanced: no magnetic data, so the slow-branch weight is wave-number
    suppressed and the aggregate gains half a power of time.  The envelope
    carries an additive exponentially damped term, and the fit window starts
    only after that term is negligible.
    """
    _check_record(tc, TransportCoefficients, FluidError)
    if not isinstance(kind, str) or kind not in _DECAY_WINDOWS:
        raise FluidError(f"unknown decay experiment kind: {kind}")
    width = tc.eta / _Y2_WIDTH_DIVISOR
    times = np.geomspace(*_DECAY_WINDOWS[kind])
    s, w = _radial_grid()
    profile = np.exp(-0.5 * (s / width) ** 2)
    x3 = profile.astype(complex)
    zero = np.zeros_like(x3)
    if kind == "generic":
        rho0, y2 = zero, x3
    else:
        rho0, y2 = 1j * s * profile, zero
    return _decay_fit(times, _field_sq(_field_flow(tc.eta, s, times, rho0, zero, x3, y2, zero),
                                       s), w)


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
    return _decay_fit(times, density, w)
