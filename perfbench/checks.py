"""Output checks for the benchmark workloads.

Every check takes plain data (report JSON documents, arrays, numbers) and
returns a list of problems; an empty list means the output passed. The checks
use independent computations or properties of the method: least-squares
slopes fitted here, eigenvalues from scipy, matrix exponentials from scipy,
the frozen transport digits and algebraic identities. None compares against
a stored copy of an earlier output.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

# tolerances of the report flags they re-derive (convergence_lab's bands)
FIRST_SLOPE_TOL = 0.15
SECOND_SLOPE_TOL = 0.2
DECAY_TOL = 0.15
T0_TOL = 1e-10
# agreement between the report's own fit and the one made here
FIT_AGREEMENT = 1e-8
ROOT_TOL = 1e-8
GAP_TOL = 0.05
IDENTITY_TOL = 1e-10
PROPAGATE_TOL = 1e-8
RELATION_TOL = 1e-10
GAMMA_TOL = 1e-10


def lsq_slope(x, y) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    lx = [math.log(v) for v in x]
    ly = [math.log(v) for v in y]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    sxx = sum((a - mx) ** 2 for a in lx)
    return sxy / sxx


def _weighted_sups(times, table, power, t_floor=0.0):
    return [max((1.0 + t) ** power * e for t, e in zip(times, row) if t >= t_floor)
            for row in table]


def _slope_problems(doc, label, x, y, target, tol, fit_key):
    out = []
    try:
        slope = lsq_slope(x, y)
    except (ValueError, ZeroDivisionError) as exc:
        return [f"{label}: slope not computable ({exc})"]
    if not abs(slope - target) <= tol:
        out.append(f"{label}: fitted slope {slope:.4f}, expected {target} +/- {tol}")
    reported = doc.get("fits", {}).get(fit_key, {}).get("exponent")
    if reported is None or not abs(reported - slope) <= FIT_AGREEMENT * max(1.0, abs(slope)):
        out.append(f"{label}: report fit {fit_key}={reported} disagrees with {slope:.10f}")
    return out


def check_flags(doc) -> list[str]:
    flags = doc.get("flags", {})
    if not flags:
        return [f"{doc.get('experiment')}: report has no flags"]
    # to_json writes the flags as 1/0, so test truth rather than identity with True
    return [f"{doc['experiment']}: flag {k} is false" for k, v in sorted(flags.items())
            if not v]


def check_t0_rows(doc) -> list[str]:
    """The t = 0 error entries equal the defects the report recorded."""
    out = []
    md = doc.get("metadata", {})
    if doc["experiment"] == "first_order":
        pairs = (("boltzmann_perp", "boltzmann"), ("vmb", "vmb"))
        for stream, key in pairs:
            rows = doc["errors"][stream]
            defects = md["t0_defect"][key]
            if len(rows) != len(defects):
                out.append(f"first_order: {len(rows)} {stream} rows, {len(defects)} defects")
            for i, (row, d) in enumerate(zip(rows, defects)):
                if not abs(row[0] - d) <= T0_TOL * max(1.0, abs(d)):
                    out.append(f"first_order: {stream}[{i}] at t=0 is {row[0]!r}, "
                               f"t0_defect is {d!r}")
    elif doc["experiment"] == "initial_layer":
        a0 = doc["errors"]["layer_front"][0][0]
        ref = md["par_proxy_t0"]
        if not abs(a0 - ref) <= T0_TOL * max(1.0, abs(ref)):
            out.append(f"initial_layer: amplitude at t=0 is {a0!r}, proxy is {ref!r}")
    return out


def check_first_order(doc) -> list[str]:
    """eps-slopes (well-prepared data) and the P0/P1 decay exponents."""
    out = []
    times = doc["t"]
    eps = doc["eps"]
    kind = doc["config"]["data_kind"]
    if kind == "well_prepared":
        for tag, stream in (("boltzmann", "boltzmann_perp"), ("vmb", "vmb")):
            y = _weighted_sups(times, doc["errors"][stream], 0.75)
            out += _slope_problems(doc, f"first_order/{kind} eps slope {tag}", eps, y,
                                   1.0, FIRST_SLOPE_TOL, f"eps_slope_{tag}")
    # decay window of the sharpest eps: t >= 5 on the positive time grid
    window = [j for j, t in enumerate(times) if j > 0 and t >= 5.0]
    if len(window) < 4:
        window = list(range(len(times)))[-4:]
    tw = [1.0 + times[j] for j in window]
    for stream, target in (("boltzmann_p0", -0.75), ("boltzmann_p1", -1.25)):
        row = doc["errors"][stream][-1]
        out += _slope_problems(doc, f"first_order/{kind} {stream} decay", tw,
                               [row[j] for j in window], target, DECAY_TOL,
                               f"{stream}_decay")
    return out


def check_second_order(doc) -> list[str]:
    out = []
    times = doc["t"]
    for tag, stream, power in (("boltzmann", "boltzmann_perp", 1.75), ("vmb", "vmb", 0.75)):
        y = _weighted_sups(times, doc["errors"][stream], power, t_floor=0.5)
        out += _slope_problems(doc, f"second_order eps slope {tag}", doc["eps"], y,
                               1.0, SECOND_SLOPE_TOL, f"eps_slope_{tag}")
    return out


def check_report(doc) -> list[str]:
    out = check_flags(doc) + check_t0_rows(doc)
    if doc["experiment"] == "first_order":
        out += check_first_order(doc)
    elif doc["experiment"] == "second_order":
        out += check_second_order(doc)
    return out


def check_identical(label: str, first: str, again: str) -> list[str]:
    if first != again:
        return [f"{label}: report JSON differs between two runs with the same seed"]
    return []


# ---------------------------------------------------------------------------
# spectral_default
# ---------------------------------------------------------------------------

def check_operator(label: str, op: dict, eig) -> list[str]:
    """Checks on one mode generator's split, spectrum and propagation.

    ``op`` holds: matrix, eps, regime, S1, S2, S3, gap_b, spectrum (eigenvalues
    and residuals returned by kslab), u0, t and u_t = propagate(op, u0, t);
    ``eig`` are the matrix's eigenvalues computed here with scipy.
    """
    out = []
    mat = op["matrix"]
    dim = mat.shape[0]

    total = op["S1"] + op["S2"] + op["S3"]
    dev = float(np.max(np.abs(total - np.eye(dim))))
    if not dev <= IDENTITY_TOL:
        out.append(f"{label}: S1 + S2 + S3 deviates from I by {dev:.3e}")
    if op["regime"] == "low":
        tr = complex(np.trace(op["S1"]))
        if not abs(tr - 5.0) <= 1e-8:
            out.append(f"{label}: trace S1 = {tr:.12g}, expected 5 in the low regime")

    rank = int(round(float(np.real(np.trace(op["S1"] + op["S2"])))))
    ordered = np.sort(eig.real)[::-1]
    gap = -float(ordered[rank:].max()) if rank < dim else float("nan")
    gap_b = op["gap_b"]
    if not (gap > 0 and abs(gap_b - gap) <= GAP_TOL * gap):
        out.append(f"{label}: measured_gap_b {gap_b!r} vs spectral gap {gap!r}")

    lam, res = op["spectrum"]
    dist = max(float(np.min(np.abs(eig - z))) / max(1.0, abs(z)) for z in lam)
    if not dist <= ROOT_TOL or not float(np.max(res)) <= 1e-8:
        out.append(f"{label}: spectrum off the eigenvalues by {dist:.3e}, "
                   f"max residual {float(np.max(res)):.3e}")

    ref = sla.expm((op["t"] / op["eps"] ** 2) * mat) @ op["u0"]
    err = float(np.linalg.norm(op["u_t"] - ref) / max(np.linalg.norm(ref), 1e-300))
    if not err <= PROPAGATE_TOL:
        out.append(f"{label}: propagate differs from expm by {err:.3e} (relative)")
    return out


def check_roots(label: str, eps: float, eigenvalues, roots: dict, scale_by_eps2: bool):
    """Each root (times eps^2 for the scaled VMB roots) is an eigenvalue."""
    out = []
    factor = eps * eps if scale_by_eps2 else 1.0
    for name, z in roots.items():
        d = float(np.min(np.abs(eigenvalues - factor * z)))
        if not d <= ROOT_TOL:
            out.append(f"{label}: root {name}={z!r} is {d:.3e} from the nearest eigenvalue")
    return out


def check_crossing(eps: float, s_cross: float, eta: float) -> list[str]:
    """The transverse branches collide where the damped-Maxwell discriminant
    eta^2 - 4 s^2 vanishes, up to O(eps^2)."""
    if not abs(s_cross - 0.5 * eta) <= eta * eps * eps:
        return [f"crossing at eps={eps}: s={s_cross!r}, fluid limit {0.5 * eta!r}"]
    return []


def check_mode(mode: dict) -> list[str]:
    label = f"mode s={mode['s']:.6g} eps={mode['eps']}"
    eig = {kind: sla.eigvals(op["matrix"]) for kind, op in mode["ops"].items()}
    out = []
    for kind in ("B", "A"):
        out += check_operator(f"{label} {kind}", mode["ops"][kind], eig[kind])
    out += check_roots(label, mode["eps"], eig["A"], mode["vmb_roots"], scale_by_eps2=True)
    out += check_roots(label, mode["eps"], eig["B"], mode["boltzmann_roots"],
                       scale_by_eps2=False)
    if "crossing" in mode:
        out += check_crossing(mode["eps"], mode["crossing"], mode["eta"])
    return out


# ---------------------------------------------------------------------------
# truncation_sweep
# ---------------------------------------------------------------------------

def check_transport(order: int, tc: dict, reference: dict) -> list[str]:
    """Frozen digits and the identities between the transport values.

    ``tc`` holds kappa0, kappa1, eta, a (dict by branch index) and
    eta_dispersion; ``reference`` is tests/fixtures/transport.json.
    """
    out = []
    digits = reference["digits"]
    for key in ("kappa0", "kappa1", "eta"):
        if round(tc[key], digits) != reference[key]:
            out.append(f"order {order}: {key}={tc[key]!r} does not round to "
                       f"{reference[key]} at {digits} digits")
    a = tc["a"]
    pairs = (("a_0 = kappa1", a[0], tc["kappa1"]), ("a_1 = a_minus1", a[1], a[-1]),
             ("eta = eta_coefficient", tc["eta"], tc["eta_dispersion"]))
    for name, lhs, rhs in pairs:
        if not abs(lhs - rhs) <= RELATION_TOL * abs(rhs):
            out.append(f"order {order}: {name} fails: {lhs!r} vs {rhs!r}")
    return out


def check_gamma(order: int, tensor, chi_sub, change_of_basis) -> list[str]:
    """Collision invariants annihilate Gamma; the change of basis is orthogonal."""
    out = []
    scale = float(np.max(np.abs(tensor)))
    proj0 = np.einsum("ijk,k->ij", tensor, chi_sub[0])
    if not float(np.max(np.abs(proj0))) <= GAMMA_TOL * scale:
        out.append(f"order {order}: Gamma does not conserve mass")
    for j in range(1, 5):
        proj = np.einsum("ijk,k->ij", tensor, chi_sub[j])
        if not float(np.max(np.abs(proj + proj.T))) <= GAMMA_TOL * scale:
            out.append(f"order {order}: symmetrized Gamma does not annihilate invariant {j}")
    if change_of_basis is None:
        out.append(f"order {order}: no change of basis")
    else:
        c = np.asarray(change_of_basis)
        dev = float(np.max(np.abs(c.T @ c - np.eye(c.shape[1]))))
        if not dev <= GAMMA_TOL:
            out.append(f"order {order}: change of basis is not orthogonal ({dev:.3e})")
    return out
