"""Each output check passes on a sound output and fails on a perturbed one.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""
import copy
import json
import math

import numpy as np
import pytest

import checks
import workloads
from kslab import collision_ops, convergence_lab, fluid_limits, velocity_basis

EPS = [0.2, 0.1, 0.05, 0.025, 0.0125]
TIMES = [0.0] + list(np.geomspace(1e-3, 1e2, 25))


# ---------------------------------------------------------------------------
# convergence reports: synthetic documents with exact power laws
# ---------------------------------------------------------------------------

def _table(fn):
    return [[fn(e, t) for t in TIMES] for e in EPS]


def _first_order_doc(kind="well_prepared"):
    errors = {
        "boltzmann_perp": _table(lambda e, t: 0.3 * e * (1 + t) ** -0.75),
        "vmb": _table(lambda e, t: 0.2 * e * (1 + t) ** -0.75),
        "boltzmann_p0": _table(lambda e, t: 0.5 * (1 + t) ** -0.75),
        "boltzmann_p1": _table(lambda e, t: e * (1 + t) ** -1.25),
    }
    fits = {"boltzmann_p0_decay": {"exponent": -0.75},
            "boltzmann_p1_decay": {"exponent": -1.25}}
    if kind == "well_prepared":
        fits["eps_slope_boltzmann"] = {"exponent": 1.0}
        fits["eps_slope_vmb"] = {"exponent": 1.0}
    return {
        "experiment": "first_order",
        "config": {"data_kind": kind},
        "eps": EPS,
        "t": TIMES,
        "errors": errors,
        "fits": fits,
        "flags": {"t0_identity_boltzmann": 1, "p0_decay_rate": 1},
        "metadata": {"t0_defect": {"boltzmann": [r[0] for r in errors["boltzmann_perp"]],
                                   "vmb": [r[0] for r in errors["vmb"]]}},
    }


def _second_order_doc():
    return {
        "experiment": "second_order",
        "config": {"data_kind": "well_prepared"},
        "eps": EPS,
        "t": TIMES,
        "errors": {"boltzmann_perp": _table(lambda e, t: e * (1 + t) ** -1.75),
                   "vmb": _table(lambda e, t: e * (1 + t) ** -0.75)},
        "fits": {"eps_slope_boltzmann": {"exponent": 1.0}, "eps_slope_vmb": {"exponent": 1.0}},
        "flags": {"eps_slope_boltzmann": 1},
        "metadata": {},
    }


def test_lsq_slope_recovers_power():
    x = [1.0, 2.0, 4.0, 8.0]
    assert checks.lsq_slope(x, [3.0 * v ** -1.25 for v in x]) == pytest.approx(-1.25, abs=1e-12)


@pytest.mark.parametrize("doc", [_first_order_doc(), _first_order_doc("generic"),
                                 _second_order_doc()])
def test_sound_reports_pass(doc):
    assert checks.check_report(doc) == []


def test_flag_set_false_fails():
    doc = _first_order_doc()
    doc["flags"]["p0_decay_rate"] = False
    assert any("flag p0_decay_rate" in p for p in checks.check_report(doc))
    doc["flags"] = {}
    assert checks.check_report(doc)


def test_t0_row_off_defect_fails():
    doc = _first_order_doc()
    doc["errors"]["vmb"][2][0] += 1e-6
    assert any("vmb[2] at t=0" in p for p in checks.check_report(doc))


@pytest.mark.parametrize("stream", ["boltzmann_perp", "vmb"])
def test_broken_eps_slope_fails(stream):
    doc = _first_order_doc()
    doc["errors"][stream] = [[v * e ** 0.5 for v in row]
                             for e, row in zip(EPS, doc["errors"][stream])]
    assert any("eps slope" in p and "expected 1.0" in p for p in checks.check_report(doc))


@pytest.mark.parametrize("stream", ["boltzmann_p0", "boltzmann_p1"])
def test_broken_decay_exponent_fails(stream):
    doc = _first_order_doc("generic")
    doc["errors"][stream][-1] = [v * (1 + t) ** 0.5
                                 for v, t in zip(doc["errors"][stream][-1], TIMES)]
    assert any(f"{stream} decay" in p and "expected" in p for p in checks.check_report(doc))


def test_report_fit_disagreeing_with_refit_fails():
    doc = _first_order_doc()
    doc["fits"]["eps_slope_vmb"]["exponent"] += 1e-6
    assert any("report fit eps_slope_vmb" in p for p in checks.check_report(doc))


def test_broken_second_order_slope_fails():
    doc = _second_order_doc()
    doc["errors"]["vmb"] = [[v * e ** -0.4 for v in row]
                            for e, row in zip(EPS, doc["errors"]["vmb"])]
    assert any("second_order eps slope vmb" in p for p in checks.check_report(doc))


def test_json_difference_fails():
    assert checks.check_identical("x", "{}", "{}") == []
    assert checks.check_identical("x", '{"a": 1}', '{"a": 2}')


@pytest.fixture(scope="module")
def collision_small():
    basis = velocity_basis.build_basis(velocity_basis.BasisSpec(6, 3))
    cm = collision_ops.assemble_collision(basis, build_gamma=False)
    fluid_limits.transport_coefficients(cm)
    return cm


def test_real_initial_layer_report(collision_small):
    cfg = convergence_lab.ExperimentConfig(data_kind="generic")
    doc = json.loads(convergence_lab.initial_layer_profile(cfg, collision_small).to_json())
    assert checks.check_report(doc) == []
    doc["errors"]["layer_front"][0][0] *= 1.0 + 1e-6
    assert any("amplitude at t=0" in p for p in checks.check_report(doc))


# ---------------------------------------------------------------------------
# spectral modes: real outputs on the small basis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mode(collision_small):
    wl = workloads.SpectralDefault(seed=5)
    wl.cm = collision_small
    wl.tc = fluid_limits.transport_coefficients(collision_small)
    rng = np.random.default_rng(0)
    dim = collision_small.basis.dim
    u0 = {k: rng.standard_normal(n) + 1j * rng.standard_normal(n)
          for k, n in (("B", dim), ("A", dim + 4))}
    out = wl._mode(0.05, 0.7, 2.0 * 0.05**2, u0, crossing=True)
    assert out["ops"]["B"]["regime"] == "low"
    return out


def test_sound_mode_passes(mode):
    assert checks.check_mode(mode) == []


@pytest.mark.parametrize("group,name", [("vmb_roots", "z0"), ("vmb_roots", "z_plus"),
                                        ("boltzmann_roots", "boltzmann_1")])
def test_shifted_root_fails(mode, group, name):
    bad = copy.deepcopy(mode)
    # the VMB roots are scaled by eps^2 before the comparison
    scale = mode["eps"] ** -2 if group == "vmb_roots" else 1.0
    bad[group][name] += 1e-6 * scale
    assert any(f"root {name}" in p for p in checks.check_mode(bad))


def test_split_not_summing_to_identity_fails(mode):
    bad = copy.deepcopy(mode)
    bad["ops"]["B"]["S3"][0, 0] += 1e-8
    assert any("S1 + S2 + S3" in p for p in checks.check_mode(bad))


def test_fluid_projection_trace_fails(mode):
    bad = copy.deepcopy(mode)
    op = bad["ops"]["A"]
    op["S1"] = op["S1"] * (1.0 + 1e-6)
    op["S3"] = np.eye(op["S1"].shape[0]) - op["S1"] - op["S2"]
    assert any("trace S1" in p for p in checks.check_mode(bad))


def test_gap_off_by_more_than_five_percent_fails(mode):
    bad = copy.deepcopy(mode)
    bad["ops"]["B"]["gap_b"] *= 1.06
    assert any("measured_gap_b" in p for p in checks.check_mode(bad))


def test_propagate_off_expm_fails(mode):
    bad = copy.deepcopy(mode)
    u = bad["ops"]["A"]["u_t"]
    u[3] += 1e-6 * np.linalg.norm(u)
    assert any("propagate differs" in p for p in checks.check_mode(bad))


def test_spectrum_off_eigenvalues_fails(mode):
    bad = copy.deepcopy(mode)
    lam, res = bad["ops"]["B"]["spectrum"]
    lam = lam.copy()
    lam[0] += 1e-6
    bad["ops"]["B"]["spectrum"] = (lam, res)
    assert any("spectrum off" in p for p in checks.check_mode(bad))


def test_crossing_away_from_fluid_limit_fails(mode):
    bad = copy.deepcopy(mode)
    bad["crossing"] += 0.01
    assert any("crossing" in p for p in checks.check_mode(bad))


# ---------------------------------------------------------------------------
# transport values and the Gamma tensor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def reference():
    return json.loads(workloads.REFERENCE.read_text())


@pytest.fixture(scope="module")
def transport_values():
    basis = velocity_basis.build_basis(velocity_basis.BasisSpec(12, 6))
    cm = collision_ops.assemble_collision(basis, build_gamma=False)
    tc = fluid_limits.transport_coefficients(cm)
    from kslab import dispersion

    return {"kappa0": tc.kappa0, "kappa1": tc.kappa1, "eta": tc.eta, "a": dict(tc.a_list),
            "eta_dispersion": dispersion.eta_coefficient(cm)}


def test_sound_transport_passes(transport_values, reference):
    assert checks.check_transport(12, transport_values, reference) == []


@pytest.mark.parametrize("key", ["kappa0", "kappa1", "eta"])
def test_transport_shifted_by_1e5_fails(transport_values, reference, key):
    bad = dict(transport_values)
    bad[key] += 1e-5
    assert any(f"{key}=" in p for p in checks.check_transport(12, bad, reference))


@pytest.mark.parametrize("branch,name", [(0, "a_0 = kappa1"), (1, "a_1 = a_minus1")])
def test_broken_branch_identity_fails(transport_values, reference, branch, name):
    bad = dict(transport_values, a=dict(transport_values["a"]))
    bad["a"][branch] *= 1.0 + 1e-8
    assert any(name in p for p in checks.check_transport(12, bad, reference))


def test_eta_off_dispersion_route_fails(transport_values, reference):
    bad = dict(transport_values, eta_dispersion=transport_values["eta"] * (1 + 1e-8))
    assert any("eta = eta_coefficient" in p for p in checks.check_transport(12, bad, reference))


@pytest.fixture(scope="module")
def gamma():
    basis = velocity_basis.build_basis(velocity_basis.BasisSpec(6, 3))
    return collision_ops.assemble_collision(basis, build_gamma=True).gamma


def test_sound_gamma_passes(gamma):
    assert checks.check_gamma(12, gamma.tensor, gamma.chi_sub, gamma.change_of_basis) == []


def test_gamma_not_conserving_fails(gamma):
    bad = gamma.tensor.copy()
    k = gamma.indices.index((0, 0, 0))
    bad[1, 2, k] += 1e-6 * np.max(np.abs(bad))
    assert any("conserve mass" in p
               for p in checks.check_gamma(12, bad, gamma.chi_sub, gamma.change_of_basis))
    bad = gamma.tensor.copy()
    k = gamma.indices.index((1, 0, 0))
    bad[1, 2, k] += 1e-6 * np.max(np.abs(bad))
    assert any("invariant 1" in p
               for p in checks.check_gamma(12, bad, gamma.chi_sub, gamma.change_of_basis))


def test_non_orthogonal_change_of_basis_fails(gamma):
    c = gamma.change_of_basis.copy()
    c[0, 0] += 1e-8 * math.sqrt(35)
    assert any("not orthogonal" in p for p in checks.check_gamma(12, gamma.tensor,
                                                                  gamma.chi_sub, c))
