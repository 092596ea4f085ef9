"""The reference implementations of oracles.py stay out of the library.

kslab computes and the tests check it against code kslab never runs.  So no
name that oracles.py defines may exist in a kslab module, at module level or
on a class the module defines, and neither may the accessors whose values the
tests read from mode_operators.spectrum and _decomposition, nor the public
names that only kslab's own modules or only the tests called, which went
private or away.  The records hold
what the laboratory reads: their fields are pinned here.
"""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import kslab
from kslab.collision_ops import CollisionMatrices, GammaTensor
from kslab.convergence_lab import ExperimentConfig, InitialData
from kslab.fluid_limits import TransportCoefficients
from kslab.mode_operators import SemigroupSplit, _Decomposition
from kslab.velocity_basis import Basis, Quadrature

import oracles


def _defined_names(path: Path) -> set[str]:
    """Functions, classes and variables bound at the top level of a module."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _library_namespaces():
    """(label, names) of kslab, every kslab module and every class they define."""
    modules = [kslab] + [importlib.import_module(f"kslab.{info.name}")
                         for info in pkgutil.iter_modules(kslab.__path__)]
    for module in modules:
        yield module.__name__, set(vars(module))
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", set(vars(obj))


def test_oracle_names_are_absent_from_the_library():
    defined = _defined_names(Path(oracles.__file__))
    assert {"mc_reference", "_MC_CHUNK", "assemble_A_tilde_star", "metric_adjoint",
            "propagator_matrix", "project_poly_to_sub", "fit_boltzmann_expansion",
            "y2_eigenbasis", "gram_matrix", "sub_operators", "nu_bounds",
            "gamma_full_grid", "crossing_discriminant", "crossing_by_bracket",
            "pair_kernel_moments_by_rule", "nu_eval", "kernel_eval", "weighted_inner",
            "weighted_norm", "resolvent_scalars", "ResolventScalars",
            "first_sonine_forms", "raw_null_residuals", "resolvent_norm_probe", "_probe_grid",
            "_PROBE_ITERS", "reduced_kernel_tables", "solve_highfreq"} <= defined
    # names that went away: the per-mode fluid flows and their record and checks,
    # whose flows _heat_flow and linear_nsmf_solve compute
    kept_out = defined | {"eigenvalues", "eigen_condition", "from_mapping", "laguerre_rows",
                          "transverse_seeds", "split_regime", "Y1_mode", "Y2_mode",
                          "FluidModeState", "_check_time_and_wave", "_check_field_data"}
    namespaces = dict(_library_namespaces())
    assert "kslab.mode_operators.ModeOperator" in namespaces
    for label, names in namespaces.items():
        assert not kept_out & names, label


@pytest.mark.parametrize("record, names", [
    (Basis, ["spec", "quad", "radial_tables", "ang0", "ang1", "_v_cache"]),
    (Quadrature, ["r", "wr", "wr_half", "c", "wc"]),
    (CollisionMatrices, ["basis", "L_sector", "L1_sector", "mu_estimate", "gamma",
                         "kernel_refinement_delta", "_cache"]),
    (GammaTensor, ["indices", "tensor", "chi_sub", "change_of_basis"]),
    (InitialData, ["profile_macro", "profile_micro", "profile_field", "boltzmann_macro",
                   "boltzmann_micro", "vmb_macro", "vmb_micro", "field_amp"]),
    (TransportCoefficients, ["kappa0", "kappa1", "eta", "a_list"]),
    (ExperimentConfig, ["eps_list", "data_kind", "n_s", "t_max", "n_t", "seed"]),
    (SemigroupSplit, ["op", "regime", "measured_gap_b", "fit_C", "branch_mask",
                      "schur_projectors"]),
], ids=["Basis", "Quadrature", "CollisionMatrices", "GammaTensor", "InitialData",
        "TransportCoefficients", "ExperimentConfig", "SemigroupSplit"])
def test_record_fields(record, names):
    assert [f.name for f in dataclasses.fields(record)] == names


def test_decomposition_fields():
    # the schur flags alone mark a fallback, and the eigenvalues by column are
    # laid out from the blocks where they are read
    assert _Decomposition._fields == ("cond", "blocks", "schur")
