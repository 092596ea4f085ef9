"""Each shared building block of kslab has one implementation.

The finiteness policy for arrays lives in one predicate,
velocity_basis._finite_entries (behind _finite_array and
_finite_complex_array): no other kslab function calls numpy's isfinite.
Each semigroup has one apply: mode_operators._block_flow for the kinetic
flow (the S3 remainder runs on it too; only the remainder norms take their
own Schur flows), and fluid_limits._heat_decay for the heat decay, the one
reader of the heat rates.  And convergence_lab reads the sound speed from
fluid_limits, so it does not import dispersion, and it builds every rate
report in _report.
"""
import ast
from pathlib import Path

import kslab

_SRC = Path(kslab.__file__).parent


def _where(match) -> list[tuple[str, str]]:
    """(module, enclosing function) of every kslab node that ``match`` accepts."""
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            found.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(_SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return found


def _reads(name: str):
    """A match for every use of ``name``: bare, as an attribute, or imported."""
    def match(node):
        return ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.ImportFrom)
                    and any(alias.name == name for alias in node.names)))
    return match


def _numpy_isfinite(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "isfinite" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    return (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
            and any(alias.name == "isfinite" for alias in node.names))


def test_numpy_isfinite_only_in_the_array_predicate():
    assert set(_where(_numpy_isfinite)) == {("velocity_basis", "_finite_entries")}


def test_one_apply_per_semigroup():
    assert set(_where(_reads("_schur_flow"))) == {("mode_operators", "_block_flow"),
                                                  ("mode_operators", "_remainder_norms")}
    remainder = {name for name in ("_block_flow", "exp", "expm", "_schur_flow")
                 if ("mode_operators", "_remainder_flow") in _where(_reads(name))}
    assert remainder == {"_block_flow"}
    assert set(_where(_reads("_heat_rates"))) == {("fluid_limits", "_heat_decay")}


def test_convergence_lab_does_not_import_dispersion():
    tree = ast.parse((_SRC / "convergence_lab.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert "dispersion" not in imported and "kslab.dispersion" not in imported
    assert "fluid_limits" in imported


def test_reports_are_built_in_one_place():
    # every rate report goes through _report; the oscillatory check has no
    # sweep and builds its own
    builders = _where(lambda node: isinstance(node, ast.Call) and isinstance(
        node.func, ast.Name) and node.func.id == "ConvergenceReport")
    assert sorted(builders) == [("convergence_lab", "_report"),
                                ("convergence_lab", "oscillatory_decay_check")]
