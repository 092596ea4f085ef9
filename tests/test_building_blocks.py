"""Each shared building block of kslab has one implementation.

The finiteness policy for arrays lives in one predicate,
velocity_basis._finite_entries (behind _finite_array and
_finite_complex_array): no other kslab function calls numpy's isfinite.
And convergence_lab reads the sound speed from fluid_limits, so it does not
import dispersion, and it builds every rate report in _report.
"""
import ast
from pathlib import Path

import kslab

_SRC = Path(kslab.__file__).parent


def _isfinite_users(path: Path) -> set[tuple[str, str]]:
    """(module, enclosing function) of every use of numpy's isfinite in a module."""
    tree = ast.parse(path.read_text())
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == "isfinite" and isinstance(
                node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.add((path.stem, where))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
            if any(alias.name == "isfinite" for alias in node.names):
                found.add((path.stem, f"import in {where}"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_numpy_isfinite_only_in_the_array_predicate():
    users = set().union(*(_isfinite_users(path) for path in _SRC.glob("*.py")))
    assert users == {("velocity_basis", "_finite_entries")}


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
    tree = ast.parse((_SRC / "convergence_lab.py").read_text())
    builders = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "ConvergenceReport":
            builders.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    assert sorted(builders) == ["_report", "oscillatory_decay_check"]
