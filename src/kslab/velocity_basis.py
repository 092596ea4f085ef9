"""Velocity-space Galerkin basis on rotation-reduced coordinates.

For a single Fourier mode with wave vector along e1, velocity space is
parametrized by (r, c, phi) with r = |v|, c = v1/r.  Basis functions are
products of a radial profile

    rho_{n,l}(r) = c_{n,l} r^l L_n^{(l+1/2)}(r^2/2) sqrt(M(v)),

a normalized Legendre factor in c, and an azimuthal factor.  Two azimuthal
sectors are kept: sector 0 (axially symmetric) and sector 1 (one power of
cos phi or sin phi).  Sector 1 is stored once; kinetic states instantiate it
twice (cos and sin copies).  Higher azimuthal sectors decouple from every
operator built here and are omitted.

All quadrature is Gauss type: generalized Gauss-Laguerre (alpha = 1/2) in
u = r^2/2 for the radial direction, Gauss-Legendre in c.  Weights absorb the
Maxwellian so that integrands stay polynomially bounded in float64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_genlaguerre, eval_legendre, gammaln, lpmv, roots_genlaguerre

SECTOR_AXIAL = 0
SECTOR_TRANSVERSE = 1

_TWO_PI = 2.0 * math.pi
# largest radial rule for which exp(u/2)-weighted kernel quadrature stays finite
_MAX_QUAD = 180


class BasisError(ValueError):
    """Raised for invalid basis specifications."""


@dataclass(frozen=True)
class BasisSpec:
    """Truncation parameters for the velocity basis.

    radial_order: number of radial modes per angular degree (N_r >= 2)
    angular_max:  highest Legendre degree kept (l_max >= 1)
    quad_points:  radial quadrature size; None picks a safe default
    """

    radial_order: int = 12
    angular_max: int = 6
    quad_points: int | None = None

    def resolved_quad_points(self) -> int:
        if self.quad_points is not None:
            return self.quad_points
        return max(2 * self.radial_order + 2, 2 * self.radial_order + self.angular_max + 12)


@dataclass(frozen=True)
class BasisElement:
    sector: int
    copy: str  # "axial", "cos" or "sin"
    n: int
    l: int


@dataclass
class Quadrature:
    u: np.ndarray        # Laguerre nodes in u = r^2/2
    r: np.ndarray        # radial nodes
    wr: np.ndarray       # weights for int f g M r^2 dr (full Gaussian absorbed)
    wr_half: np.ndarray  # weights for kernel assembly (half Gaussian absorbed)
    c: np.ndarray        # Gauss-Legendre nodes on [-1, 1]
    wc: np.ndarray


@dataclass
class Basis:
    spec: BasisSpec
    elements: list[BasisElement]
    quad: Quadrature
    radial_tables: dict[int, np.ndarray]   # l -> (N_r, N_q) weighted-part values
    ang0: np.ndarray                       # (l_max+1, N_c)
    ang1: np.ndarray                       # (l_max, N_c), degrees 1..l_max
    gram: np.ndarray = field(repr=False, default=None)
    _v_cache: dict = field(default_factory=dict, repr=False)
    _chi_cache: dict = field(default_factory=dict, repr=False)

    # -- layout ---------------------------------------------------------
    @property
    def dim0(self) -> int:
        return self.spec.radial_order * (self.spec.angular_max + 1)

    @property
    def dim1(self) -> int:
        """Dimension of one transverse copy."""
        return self.spec.radial_order * self.spec.angular_max

    @property
    def dim(self) -> int:
        return self.dim0 + 2 * self.dim1

    @property
    def slice_axial(self) -> slice:
        return slice(0, self.dim0)

    @property
    def slice_cos(self) -> slice:
        return slice(self.dim0, self.dim0 + self.dim1)

    @property
    def slice_sin(self) -> slice:
        return slice(self.dim0 + self.dim1, self.dim)

    def index(self, sector: int, copy: str, n: int, l: int) -> int:
        nr = self.spec.radial_order
        if sector == SECTOR_AXIAL:
            return l * nr + n
        base = {"cos": self.dim0, "sin": self.dim0 + self.dim1}[copy]
        return base + (l - 1) * nr + n

    # -- chi vectors ----------------------------------------------------
    def chi(self, j: int) -> np.ndarray:
        """Coefficient vectors of the five collision invariants."""
        if j in self._chi_cache:
            return self._chi_cache[j]
        vec = np.zeros(self.dim)
        if j == 0:
            vec[self.index(0, "axial", 0, 0)] = 1.0
        elif j == 1:
            vec[self.index(0, "axial", 0, 1)] = 1.0
        elif j == 2:
            vec[self.index(1, "cos", 0, 1)] = 1.0
        elif j == 3:
            vec[self.index(1, "sin", 0, 1)] = 1.0
        elif j == 4:
            # (|v|^2 - 3) sqrt(M) / sqrt(6) is minus the (n=1, l=0) element
            vec[self.index(0, "axial", 1, 0)] = -1.0
        else:
            raise BasisError(f"chi index must be 0..4, got {j}")
        self._chi_cache[j] = vec
        return vec

    def projection_matrix(self, which: str) -> np.ndarray:
        key = ("proj", which)
        if key in self._v_cache:
            return self._v_cache[key]
        eye = np.eye(self.dim)
        if which == "P0":
            mat = sum(np.outer(self.chi(j), self.chi(j)) for j in range(5))
        elif which == "P1":
            mat = eye - self.projection_matrix("P0")
        elif which == "Pd":
            mat = np.outer(self.chi(0), self.chi(0))
        elif which == "Pr":
            mat = eye - self.projection_matrix("Pd")
        else:
            raise BasisError(f"unknown projection {which!r}")
        self._v_cache[key] = mat
        return mat

    # -- evaluation (used by probes and oracle comparisons) -------------
    def radial_part(self, n: int, l: int, r: np.ndarray) -> np.ndarray:
        """rho_{n,l}(r) including the Maxwellian factor."""
        u = 0.5 * np.asarray(r) ** 2
        return (
            _radial_norm(n, l)
            * _TWO_PI ** (-0.75)
            * np.asarray(r) ** l
            * eval_genlaguerre(n, l + 0.5, u)
            * np.exp(-u / 2.0)
        )


@dataclass
class VelocityFunction:
    """Coefficients of a kinetic state on a Basis (axial | cos | sin layout)."""

    basis: Basis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs)
        if self.coeffs.shape != (self.basis.dim,):
            raise BasisError(
                f"coefficient length {self.coeffs.shape} does not match basis dim {self.basis.dim}"
            )

    def inner(self, other: "VelocityFunction") -> complex:
        _check_same_basis(self.basis, other.basis)
        return complex(np.sum(self.coeffs * np.conj(other.coeffs)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _check_same_basis(a: Basis, b: Basis) -> None:
    if a.spec != b.spec:
        raise BasisError("functions live on different bases")


def _radial_norm(n: int, l: int) -> float:
    ln = 0.5 * (
        1.5 * math.log(_TWO_PI)
        - (l + 0.5) * math.log(2.0)
        + gammaln(n + 1)
        - gammaln(n + l + 1.5)
    )
    return math.exp(ln)


def _assoc_legendre_m1(l: int, c: np.ndarray) -> np.ndarray:
    """Degree-l, order-1 associated Legendre values without the Condon-Shortley sign."""
    return -lpmv(1, l, c)


def build_basis(spec: BasisSpec) -> Basis:
    if spec.radial_order < 2:
        raise BasisError(f"radial_order must be >= 2, got {spec.radial_order}")
    if spec.angular_max < 1:
        raise BasisError(f"angular_max must be >= 1, got {spec.angular_max}")
    nq = spec.resolved_quad_points()
    if nq < 2 * spec.radial_order + 2:
        raise BasisError(
            f"quad_points={nq} too small; need at least 2*radial_order+2 = {2 * spec.radial_order + 2}"
        )
    if nq > _MAX_QUAD:
        raise BasisError(f"quad_points={nq} exceeds float64-safe limit {_MAX_QUAD}")
    # polynomial exactness of the Gram / v-multiplication integrands
    if 2 * nq - 1 < 2 * (spec.radial_order - 1) + spec.angular_max + 1:
        raise BasisError(
            f"quad_points={nq} cannot integrate degree "
            f"{2 * (spec.radial_order - 1) + spec.angular_max + 1} exactly"
        )

    u, w = roots_genlaguerre(nq, 0.5)
    r = np.sqrt(2.0 * u)
    wr = math.sqrt(2.0) * w
    # exp(log w + u/2) avoids overflow for the half-Gaussian weights
    wr_half = math.sqrt(2.0) * np.exp(np.log(w) + 0.5 * u)
    n_c = 2 * (spec.angular_max + 2)
    c, wc = np.polynomial.legendre.leggauss(n_c)

    lmax = spec.angular_max
    nr = spec.radial_order
    radial_tables = {}
    for l in range(lmax + 1):
        tab = np.empty((nr, nq))
        for n in range(nr):
            tab[n] = (
                _radial_norm(n, l)
                * _TWO_PI ** (-0.75)
                * r**l
                * eval_genlaguerre(n, l + 0.5, u)
            )
        radial_tables[l] = tab

    ang0 = np.empty((lmax + 1, n_c))
    for l in range(lmax + 1):
        ang0[l] = math.sqrt((2 * l + 1) / 2.0) * eval_legendre(l, c)
    ang1 = np.empty((lmax, n_c))
    for l in range(1, lmax + 1):
        norm = math.sqrt((2 * l + 1) / 2.0 / (l * (l + 1)))
        ang1[l - 1] = norm * _assoc_legendre_m1(l, c)

    elements: list[BasisElement] = []
    for l in range(lmax + 1):
        for n in range(nr):
            elements.append(BasisElement(SECTOR_AXIAL, "axial", n, l))
    for copy in ("cos", "sin"):
        for l in range(1, lmax + 1):
            for n in range(nr):
                elements.append(BasisElement(SECTOR_TRANSVERSE, copy, n, l))

    basis = Basis(
        spec=spec,
        elements=elements,
        quad=Quadrature(u=u, r=r, wr=wr, wr_half=wr_half, c=c, wc=wc),
        radial_tables=radial_tables,
        ang0=ang0,
        ang1=ang1,
    )
    basis.gram = _assemble_gram(basis)
    return basis


def _radial_overlap(basis: Basis, l: int, lp: int, r_weight: np.ndarray) -> np.ndarray:
    ta, tb = basis.radial_tables[l], basis.radial_tables[lp]
    return (ta * (basis.quad.wr * r_weight)) @ tb.T


def _angular_overlap(basis: Basis, table: np.ndarray, c_weight: np.ndarray) -> np.ndarray:
    return (table * (basis.quad.wc * c_weight)) @ table.T


def _sector_matrix(basis: Basis, sector: int, r_weight, c_weight) -> np.ndarray:
    """Assemble a multiplication-operator matrix w(r)*g(c) on one sector copy."""
    lmax = basis.spec.angular_max
    nr = basis.spec.radial_order
    if sector == SECTOR_AXIAL:
        degrees = list(range(lmax + 1))
        table = basis.ang0
    else:
        degrees = list(range(1, lmax + 1))
        table = basis.ang1
    ang = _angular_overlap(basis, table, c_weight)
    dim = nr * len(degrees)
    out = np.zeros((dim, dim))
    for a, l in enumerate(degrees):
        for b, lp in enumerate(degrees):
            if abs(ang[a, b]) < 1e-300:
                continue
            block = _radial_overlap(basis, l, lp, r_weight)
            out[a * nr:(a + 1) * nr, b * nr:(b + 1) * nr] = ang[a, b] * block
    return out


def _assemble_gram(basis: Basis) -> np.ndarray:
    ones_r = np.ones_like(basis.quad.r)
    ones_c = np.ones_like(basis.quad.c)
    gram = np.zeros((basis.dim, basis.dim))
    gram[basis.slice_axial, basis.slice_axial] = _sector_matrix(
        basis, SECTOR_AXIAL, ones_r, ones_c
    )
    g1 = _sector_matrix(basis, SECTOR_TRANSVERSE, ones_r, ones_c)
    gram[basis.slice_cos, basis.slice_cos] = g1
    gram[basis.slice_sin, basis.slice_sin] = g1
    return gram


def v_multiplication_matrix(basis: Basis, sector: int) -> np.ndarray:
    """Matrix of multiplication by v1 = r*c on one sector copy.

    Couples adjacent Legendre degrees only; symmetric by construction of the
    quadrature rule, which integrates the coupling integrands exactly.
    """
    key = ("v1", sector)
    if key in basis._v_cache:
        return basis._v_cache[key]
    mat = _sector_matrix(basis, sector, basis.quad.r, basis.quad.c)
    basis._v_cache[key] = mat
    return mat


def project(basis: Basis, which: str, f: VelocityFunction) -> VelocityFunction:
    """Apply one of the projections P0, P1 (macro/micro) or Pd, Pr (density)."""
    _check_same_basis(basis, f.basis)
    coeffs = f.coeffs
    if which == "P0":
        out = sum((coeffs @ np.conj(basis.chi(j)).astype(coeffs.dtype)) * basis.chi(j) for j in range(5))
    elif which == "P1":
        out = coeffs - project(basis, "P0", f).coeffs
    elif which == "Pd":
        out = (coeffs @ basis.chi(0)) * basis.chi(0)
    elif which == "Pr":
        out = coeffs - (coeffs @ basis.chi(0)) * basis.chi(0)
    else:
        raise BasisError(f"unknown projection {which!r}")
    return VelocityFunction(basis, np.asarray(out))


def weighted_inner(basis: Basis, f: VelocityFunction, g: VelocityFunction, s: float) -> complex:
    """Mode inner product with the density-weighted metric at frequency s > 0."""
    if s <= 0:
        raise BasisError(f"weighted inner product needs s > 0, got {s}")
    _check_same_basis(basis, f.basis)
    _check_same_basis(basis, g.basis)
    plain = np.sum(f.coeffs * np.conj(g.coeffs))
    chi0 = basis.chi(0)
    fd = np.sum(f.coeffs * chi0)
    gd = np.sum(g.coeffs * chi0)
    return complex(plain + fd * np.conj(gd) / s**2)


def metric_matrix(basis: Basis, s: float) -> np.ndarray:
    """Gram matrix of the weighted inner product on the kinetic layout."""
    if s <= 0:
        raise BasisError(f"metric needs s > 0, got {s}")
    chi0 = basis.chi(0)
    return np.eye(basis.dim) + np.outer(chi0, chi0) / s**2
