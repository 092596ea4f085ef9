"""The reference implementations of oracles.py stay out of the library.

kslab computes and the tests check it against code kslab never runs.  So no
name that oracles.py defines may exist in a kslab module, at module level or
on a class the module defines.
"""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import kslab

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
            "y2_eigenbasis"} <= defined
    namespaces = dict(_library_namespaces())
    assert "kslab.mode_operators.ModeOperator" in namespaces
    for label, names in namespaces.items():
        assert not defined & names, label
