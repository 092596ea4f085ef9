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

BasisSpec holds the two truncation sizes and nothing else: the radial rule
has 2 N_r + l_max + 12 points, enough for the Gram and v-multiplication
integrands to be exact, and build_basis refuses a truncation whose rule
would pass _MAX_QUAD.

A kinetic state is a plain coefficient array in the (axial | cos | sin)
layout; Basis.index locates one element in it.  The macro/micro projections
are the matrices Basis.projection_matrix("P0") and ("P1"), and the
charge-weighted metric of the electromagnetic modes belongs to
mode_operators.ModeOperator (metric_diag).

This module owns the building blocks the other modules read rather than
rebuild: the radial profiles (_radial_rows) and their Laguerre rows
(_laguerre_rows), the normalized Legendre rows (_legendre_row), the one
cached Gauss-Legendre rule on [-1, 1] (_leggauss) and its map onto [0, top]
(_gauss_legendre), the checked panel rule of
the time and wave integrals (_panel_quadrature), the least-squares line
through (x, log y) behind every fitted rate, exponent and gap (_line_fit,
which takes at least _MIN_FIT_POINTS samples), the read-only marker for shared
arrays (_frozen), and the boundary checks every module shares: the record
check (_check_record), the scalar predicates (_integer, _finite,
_finite_complex) and their array forms (_finite_array, _finite_complex_array),
which reject bools, strings, None, objects and ragged nestings before any
conversion of the input.

Bad input fails at the boundary with BasisError, the module's documented
error: a spec that is not a BasisSpec or sizes that are not integers in
range, and out-of-range sectors, copies, radial indices, degrees and speeds
(_finite_array) in the Basis methods.
"""
from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import binom, eval_legendre, gammaln, lpmv, roots_genlaguerre

SECTOR_AXIAL = 0
SECTOR_TRANSVERSE = 1

_TWO_PI = 2.0 * math.pi
# largest radial rule for which exp(u/2)-weighted kernel quadrature stays finite
_MAX_QUAD = 180
# largest check rule of _panel_quadrature: the oscillatory check's finest rule
# (phase 2000) takes 6e5 nodes; a phase or a time far beyond any check would
# allocate gigabytes of nodes and values instead of failing
_MAX_PANEL_NODES = 1_000_000
# fewest samples _line_fit takes: two more than the line, so the residual
# variance behind its interval has two degrees of freedom
_MIN_FIT_POINTS = 4


class BasisError(ValueError):
    """Raised for invalid basis specifications."""


@dataclass(frozen=True)
class BasisSpec:
    """Truncation parameters for the velocity basis.

    radial_order: number of radial modes per angular degree (N_r >= 2)
    angular_max:  highest Legendre degree kept (l_max >= 1)
    """

    radial_order: int = 12
    angular_max: int = 6


@dataclass
class Quadrature:
    r: np.ndarray        # radial nodes, r = sqrt(2 u) at the Laguerre nodes u
    wr: np.ndarray       # weights for int f g M r^2 dr (full Gaussian absorbed)
    wr_half: np.ndarray  # weights for kernel assembly (half Gaussian absorbed)
    c: np.ndarray        # Gauss-Legendre nodes on [-1, 1]
    wc: np.ndarray


@dataclass
class Basis:
    """The truncation, its quadrature, and the radial and angular tables at the nodes.

    The elements are orthonormal, so the plain dot product of coefficient
    arrays is the L2 inner product and no Gram matrix is kept.
    """

    spec: BasisSpec
    quad: Quadrature
    radial_tables: dict[int, np.ndarray]   # l -> (N_r, N_q) weighted-part values
    ang0: np.ndarray                       # (l_max+1, N_c)
    ang1: np.ndarray                       # (l_max, N_c), degrees 1..l_max
    _v_cache: dict = field(default_factory=dict, repr=False)

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
        """Position of the element (n, l) of one sector copy in a kinetic state.

        copy is "axial" in the axial sector and "cos" or "sin" in the
        transverse one.  Raises BasisError for any other sector or copy, and
        for an element outside the basis: 0 <= n < N_r, and 0 <= l <= l_max
        (l >= 1 in the transverse sector).
        """
        _check_sector(sector)
        nr = self.spec.radial_order
        first = 0 if sector == SECTOR_AXIAL else 1
        offsets = ({"axial": 0} if sector == SECTOR_AXIAL
                   else {"cos": self.dim0, "sin": self.dim0 + self.dim1})
        if not (isinstance(copy, str) and copy in offsets):
            raise BasisError(f"copy of sector {sector} must be one of {tuple(offsets)}, "
                             f"got {copy!r}")
        if not (_integer(n) and 0 <= n < nr and _integer(l)
                and first <= l <= self.spec.angular_max):
            raise BasisError(f"no element (n={n!r}, l={l!r}) in sector {sector}: need "
                             f"0 <= n < {nr} and {first} <= l <= {self.spec.angular_max}")
        return offsets[copy] + (l - first) * nr + n

    # -- chi vectors ----------------------------------------------------
    def chi(self, j: int) -> np.ndarray:
        """Coefficient vectors of the five collision invariants."""
        if not _integer(j):
            raise BasisError(f"chi index must be an integer, got {j!r}")
        key = ("chi", j)
        if key in self._v_cache:
            return self._v_cache[key]
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
        self._v_cache[key] = _frozen(vec)
        return vec

    def projection_matrix(self, which: str) -> np.ndarray:
        """P0, the projection onto the collision invariants, or P1 = I - P0."""
        if not (isinstance(which, str) and which in ("P0", "P1")):
            raise BasisError(f"unknown projection {which!r}")
        key = ("proj", which)
        if key in self._v_cache:
            return self._v_cache[key]
        if which == "P0":
            mat = sum(np.outer(self.chi(j), self.chi(j)) for j in range(5))
        else:
            mat = np.eye(self.dim) - self.projection_matrix("P0")
        self._v_cache[key] = _frozen(mat)
        return mat

    # -- evaluation -----------------------------------------------------
    def radial_table(self, l: int, r: np.ndarray) -> np.ndarray:
        """rho_{n,l}(r) for every n < N_r, Maxwellian included; shape (N_r, r.size).

        Raises BasisError unless l is a degree of the basis (0 <= l <= l_max)
        and r holds finite speeds r >= 0.
        """
        if not (_integer(l) and 0 <= l <= self.spec.angular_max):
            raise BasisError(f"degree must be an integer in [0, {self.spec.angular_max}], "
                             f"got {l!r}")
        if not (_finite_array(r) and np.all(np.asarray(r) >= 0)):
            raise BasisError("speeds r must be finite real numbers >= 0")
        r = np.asarray(r)
        u = 0.5 * r**2
        rows = _radial_rows(self.spec.radial_order, l, r, u)
        rows *= np.exp(-u / 2.0)
        return rows


def _radial_norm(n: int, l: int) -> float:
    ln = 0.5 * (
        1.5 * math.log(_TWO_PI)
        - (l + 0.5) * math.log(2.0)
        + gammaln(n + 1)
        - gammaln(n + l + 1.5)
    )
    return math.exp(ln)


def _laguerre_rows(n_rows: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """L_n^(alpha)(x) for every n < n_rows, shape (n_rows,) + x.shape, for
    n_rows >= 1, alpha > -1 and finite real x (_radial_rows passes these).

    One pass of the recurrence that scipy's eval_genlaguerre runs for each n
    separately, with its operation order, so every row matches it bit for bit.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((n_rows,) + x.shape)
    rows[0] = 1.0
    if n_rows > 1:
        rows[1] = -x + alpha + 1
    d = -x / (alpha + 1)
    p = d + 1
    for n in range(2, n_rows):
        k = n - 1.0
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = p + d
        np.multiply(binom(n + alpha, n), p, out=rows[n])
    return rows


def _radial_rows(nr: int, l: int, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """c_{n,l} r^l L_n^(l+1/2)(u) for n < nr: the radial profiles without sqrt(M)."""
    norms = np.array([_radial_norm(n, l) * _TWO_PI ** (-0.75) for n in range(nr)])
    rows = _laguerre_rows(nr, l + 0.5, u)
    r_l = r**l
    for norm, row in zip(norms, rows):
        row *= norm * r_l
    return rows


def _legendre_row(l: int, m: int, c: np.ndarray) -> np.ndarray:
    """N P_l^m(c) without the Condon-Shortley sign, orthonormal on [-1, 1] for each m."""
    norm = math.sqrt((2 * l + 1) / 2.0 / math.prod(range(l - m + 1, l + m + 1)))
    if m == 0:
        return norm * eval_legendre(l, c)
    return norm * ((-1) ** m * lpmv(m, l, c))


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array shared between callers read-only."""
    a.flags.writeable = False
    return a


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A finite real number; bools are not numbers here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _finite_complex(x) -> bool:
    """A finite real or complex number; bools are not numbers here."""
    return isinstance(x, numbers.Complex) and not isinstance(x, bool) and cmath.isfinite(x)


def _finite_array(x) -> bool:
    """The array _finite: a number or array whose entries are all finite reals."""
    return _finite_entries(x, "iuf")


def _finite_complex_array(x) -> bool:
    """The array _finite_complex: entries all finite real or complex numbers."""
    return _finite_entries(x, "iufc")


def _finite_entries(x, kinds: str) -> bool:
    """x is an array, or converts to one, of a dtype kind in kinds with finite entries;
    bools, strings, None, objects and ragged nestings fail.  An ndarray is not
    copied, and the finiteness test is the one pass over it."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):  # ragged nestings
        return False
    if a.dtype.kind not in kinds or not np.isfinite(a).all():
        return False
    # numpy reads a bool among numbers in a nesting as a number
    return isinstance(x, np.ndarray) or not any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat)


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only and built
    once per n: the rule behind every Gauss-Legendre grid of the package."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _frozen(x), _frozen(w)


def _gauss_legendre(n: int, top) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, top]; top broadcasts
    against the nodes, so a column of tops gives one interval per row."""
    x, w = _leggauss(n)
    half = 0.5 * top
    return half * (x + 1.0), half * w


def _panel_quadrature(edges, cap: float, order: int, rtol: float, integrand: Callable,
                      error: type) -> np.ndarray:
    """Checked integrals over each row of base panel edges (n_rows, n_edges), or one row.

    Each base panel is cut into equal pieces no wider than cap, and order-point
    Gauss-Legendre on the pieces is checked against the same rule on every piece
    bisected, so no panel is shared by the two rules.  integrand(rows, x) gives
    the values (n, ...) at the flat nodes x of the rows `rows`: one call per
    rule over all rows.  Returns the check rule's sums, (n_rows, ...).  Raises
    error, before allocating, when the check rule would pass _MAX_PANEL_NODES,
    and when the two rules differ by more than rtol of a row's sums.
    """
    edges = np.atleast_2d(edges)
    width = np.diff(edges, axis=1)
    counts = np.maximum(np.ceil(width / cap), 1.0)
    nodes = 2 * order * counts.sum()
    if not nodes <= _MAX_PANEL_NODES:
        raise error(f"panel quadrature needs {nodes:.3g} nodes, more than {_MAX_PANEL_NODES}")
    counts = counts.astype(int).ravel()
    panel = np.repeat(np.arange(counts.size), counts)   # the base panel of each piece
    first = np.cumsum(counts) - counts                  # the first piece of each base panel
    step = (width.ravel() / counts)[panel]
    left = edges[:, :-1].ravel()[panel] + step * (np.arange(panel.size) - first[panel])
    rows = panel // width.shape[1]
    x, w = _gauss_legendre(order, 1.0)

    def rule(x, w):
        values = integrand(np.repeat(rows, len(x)), (left[:, None] + step[:, None] * x).ravel())
        pieces = np.einsum("pn,pn...->p...", step[:, None] * w,
                           values.reshape(len(left), len(x), *values.shape[1:]))
        return np.add.reduceat(pieces, first[::width.shape[1]], axis=0)

    coarse = rule(x, w)
    fine = rule(np.concatenate((0.5 * x, 0.5 + 0.5 * x)), np.concatenate((0.5 * w, 0.5 * w)))
    tail = tuple(range(1, fine.ndim))
    if np.any(np.abs(fine - coarse).sum(axis=tail)
              > rtol * (np.abs(fine).sum(axis=tail) + 1e-12)):
        raise error("integrand too rough for the panel quadrature: its two rules disagree")
    return fine


def _line_fit(x, y, error: type) -> tuple[float, float, float, float]:
    """Least-squares line log y ~ slope x + intercept: (slope, intercept, ci, rss).

    ci is the 1.96-sigma normal half-width of the slope built from the
    residual variance, so an exact line reports ci = 0, and rss is the
    residual sum of squares.  Raises error for fewer than _MIN_FIT_POINTS
    samples, a sample that is not finite or a y that is not positive, and
    abscissae that span less than 1e-12.
    """
    if not (_finite_array(x) and _finite_array(y) and np.size(x) >= _MIN_FIT_POINTS):
        raise error(f"a line fit needs at least {_MIN_FIT_POINTS} finite samples")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0):
        raise error("a line fit through log y needs positive values")
    if np.ptp(x) < 1e-12:
        raise error("line fit abscissae are degenerate (repeated values)")
    ly = np.log(y)
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    rss = float(resid @ resid)
    sigma2 = rss / (x.size - 2)
    gram_inv = np.linalg.inv(design.T @ design)
    ci = 1.96 * math.sqrt(max(sigma2 * gram_inv[0, 0], 0.0))
    return float(coef[0]), float(coef[1]), ci, rss


def _check_record(value, cls: type, error: type) -> None:
    """The boundary check for a record argument: value is a cls, or error is raised."""
    if not isinstance(value, cls):
        raise error(f"expected {cls.__name__}, got {type(value).__name__}")


def _check_sector(sector) -> None:
    if not (_integer(sector) and sector in (SECTOR_AXIAL, SECTOR_TRANSVERSE)):
        raise BasisError(f"sector must be SECTOR_AXIAL ({SECTOR_AXIAL}) or "
                         f"SECTOR_TRANSVERSE ({SECTOR_TRANSVERSE}), got {sector!r}")


def build_basis(spec: BasisSpec) -> Basis:
    _check_record(spec, BasisSpec, BasisError)
    for name in ("radial_order", "angular_max"):
        value = getattr(spec, name)
        if not _integer(value):
            raise BasisError(f"{name} must be an integer, got {value!r}")
    if spec.radial_order < 2:
        raise BasisError(f"radial_order must be >= 2, got {spec.radial_order}")
    if spec.angular_max < 1:
        raise BasisError(f"angular_max must be >= 1, got {spec.angular_max}")
    # exact for the Gram and v-multiplication integrands, of degree
    # 2 (N_r - 1) + l_max + 1 in u, with room to spare
    nq = 2 * spec.radial_order + spec.angular_max + 12
    if nq > _MAX_QUAD:
        raise BasisError(f"{spec} needs {nq} radial quadrature points, above the "
                         f"float64-safe limit {_MAX_QUAD}")

    u, w = roots_genlaguerre(nq, 0.5)
    r = np.sqrt(2.0 * u)
    wr = math.sqrt(2.0) * w
    # exp(log w + u/2) avoids overflow for the half-Gaussian weights
    wr_half = math.sqrt(2.0) * np.exp(np.log(w) + 0.5 * u)
    n_c = 2 * (spec.angular_max + 2)
    c, wc = _leggauss(n_c)

    lmax = spec.angular_max
    nr = spec.radial_order
    radial_tables = {l: _radial_rows(nr, l, r, u) for l in range(lmax + 1)}

    return Basis(
        spec=spec,
        quad=Quadrature(r=r, wr=wr, wr_half=wr_half, c=c, wc=wc),
        radial_tables=radial_tables,
        ang0=np.stack([_legendre_row(l, 0, c) for l in range(lmax + 1)]),
        ang1=np.stack([_legendre_row(l, 1, c) for l in range(1, lmax + 1)]),
    )


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
            block = _radial_overlap(basis, l, lp, r_weight)
            out[a * nr:(a + 1) * nr, b * nr:(b + 1) * nr] = ang[a, b] * block
    return out


def v_multiplication_matrix(basis: Basis, sector: int) -> np.ndarray:
    """Matrix of multiplication by v1 = r*c on one sector copy.

    Couples adjacent Legendre degrees only; symmetric by construction of the
    quadrature rule, which integrates the coupling integrands exactly.
    Raises BasisError for a basis that is not a Basis and for a sector other
    than SECTOR_AXIAL or SECTOR_TRANSVERSE.
    """
    _check_record(basis, Basis, BasisError)
    _check_sector(sector)
    key = ("v1", sector)
    if key in basis._v_cache:
        return basis._v_cache[key]
    mat = _sector_matrix(basis, sector, basis.quad.r, basis.quad.c)
    basis._v_cache[key] = _frozen(mat)
    return mat
