"""Each shared building block of kslab has one implementation.

The finiteness policy for arrays lives in one predicate,
velocity_basis._finite_entries (behind _finite_array and
_finite_complex_array): no other kslab function calls numpy's isfinite.
A kinetic decomposition has one form, the per-operator record of
mode_operators._Decomposition: _decompose_stacked writes the records, and
only _decomposition and _block_flow, which decomposes the operators that
lack them, call it; _block_flow stacks the records itself and takes no
stacked parts.  Each semigroup has one apply: mode_operators._block_flow for
the kinetic flow (the S3 remainder runs on it too; only the remainder norms
take their own fallback flows), fluid_limits._heat_decay for the heat decay,
the one reader of the heat rates, and fluid_limits._field_flow, the one
reader of the two-by-two field exponential.  The linear fluid solver reads those two
fluid flows for its unforced and its Duhamel parts: it has no exponential
of its own and loops over modes, never over times, and neither does the
panel rule under it.  That rule, velocity_basis._panel_quadrature, is the
one behind the Duhamel integrals and the wave integral of convergence_lab.
Every fitted rate, exponent and gap is one least-squares line,
velocity_basis._line_fit: no other kslab function calls polyfit or lstsq,
and its readers are rate_fit, the decay fit, the transient check and the
remainder fit.  The gain-kernel moments
of every panel rule come from one pass of collision_ops._pair_kernel_moments:
_gain_matrices calls it once, outside its loop over degrees, and
reduced_kernel_tables is its only other reader.  And convergence_lab reads
the sound speed from fluid_limits, so it does not import dispersion, and it
builds every rate report in _report.  scipy.linalg serves the eig fallback
only: its flow (expm, in mode_operators._fallback_flow) and its projector
(schur, in _schur_projector) import it where they run, and spectrum reads
the decomposition's eig pairs without an eig of its own.
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


def _calls(name: str):
    """A match for every call of ``name``, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and _reads(name)(node.func)


def _imports_scipy_linalg(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").startswith("scipy.linalg")
                or (node.module == "scipy" and any(a.name == "linalg" for a in node.names)))
    return isinstance(node, ast.Import) and any(
        alias.name.startswith("scipy.linalg") for alias in node.names)


def _numpy_isfinite(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "isfinite" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    return (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
            and any(alias.name == "isfinite" for alias in node.names))


def test_numpy_isfinite_only_in_the_array_predicate():
    assert set(_where(_numpy_isfinite)) == {("velocity_basis", "_finite_entries")}


def test_one_apply_per_semigroup():
    assert set(_where(_reads("_fallback_flow"))) == {("mode_operators", "_block_flow"),
                                                     ("mode_operators", "_remainder_norms")}
    remainder = {name for name in ("_block_flow", "exp", "expm", "_fallback_flow")
                 if ("mode_operators", "_remainder_flow") in _where(_reads(name))}
    assert remainder == {"_block_flow"}
    assert set(_where(_reads("_heat_rates"))) == {("fluid_limits", "_heat_decay")}


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((_SRC / f"{module}.py").read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_decomposition_form():
    # the per-operator records are the only form: _block_flow decomposes what
    # lacks them and takes no stacked parts
    assert set(_where(_reads("_decompose_stacked"))) == {
        ("mode_operators", "_block_flow"), ("mode_operators", "_decomposition")}
    assert not _where(lambda node: isinstance(node, ast.FunctionDef)
                      and node.name == "_stacks_of_one")
    flow = _function("mode_operators", "_block_flow")
    assert [a.arg for a in flow.args.args] == ["ops", "states0", "taus", "keep"]


def test_scipy_linalg_only_on_the_fallback():
    fallback = {("mode_operators", "_fallback_flow"), ("mode_operators", "_schur_projector")}
    assert set(_where(_imports_scipy_linalg)) == fallback
    assert set(_where(_calls("expm"))) == {("mode_operators", "_fallback_flow")}
    assert set(_where(_calls("schur"))) == {("mode_operators", "_schur_projector")}
    # spectrum reads the eig pairs of the decomposition, a fallback's included
    assert not [node for node in ast.walk(_function("mode_operators", "spectrum"))
                if _reads("eig")(node)]


def test_one_fluid_solver():
    assert set(_where(_reads("_field_block"))) == {("fluid_limits", "_field_flow")}
    assert set(_where(_reads("_heat_decay"))) == {
        ("fluid_limits", name)
        for name in ("Y1_mode", "_heat_flow", "y1_decay_experiment", "linear_nsmf_solve")}
    # whole subtrees, so nested functions and lambdas count too
    solver = [node for module, name in (("fluid_limits", "linear_nsmf_solve"),
                                        ("fluid_limits", "_duhamel"),
                                        ("velocity_basis", "_panel_quadrature"))
              for node in ast.walk(_function(module, name))]
    assert not [node for node in solver
                if any(_reads(name)(node) for name in ("exp", "expm", "expm1"))]
    # every loop and comprehension runs over the modes
    loops = [node.iter for node in solver if isinstance(node, (ast.For, ast.comprehension))]
    assert loops and all(any(map(_reads("modes"), ast.walk(it))) for it in loops)


def test_one_panel_rule():
    # the Duhamel and the wave integrals share one checked panel rule, and
    # neither module lays Gauss nodes of its own
    assert set(_where(_reads("_panel_quadrature"))) == {
        ("fluid_limits", "<module>"), ("fluid_limits", "_duhamel"),
        ("convergence_lab", "<module>"), ("convergence_lab", "_radial_phase_integral")}
    assert not {module for module, _ in _where(_reads("leggauss"))} & {
        "fluid_limits", "convergence_lab"}


def test_one_line_fit():
    assert not _where(_reads("polyfit"))
    assert set(_where(_reads("lstsq"))) == {("velocity_basis", "_line_fit")}
    assert set(_where(_reads("_line_fit"))) == {
        ("convergence_lab", "<module>"), ("convergence_lab", "rate_fit"),
        ("convergence_lab", "transient_rate_check"),
        ("fluid_limits", "<module>"), ("fluid_limits", "_decay_fit"),
        ("mode_operators", "<module>"), ("mode_operators", "_fit_remainder_decay")}


def test_one_gain_kernel_pass():
    assert set(_where(_reads("_pair_kernel_moments"))) == {
        ("collision_ops", "_gain_matrices"), ("collision_ops", "reduced_kernel_tables")}
    # one call for both panel rules, before and outside the loop over degrees
    gain = _function("collision_ops", "_gain_matrices")
    calls = [node for node in ast.walk(gain)
             if isinstance(node, ast.Call) and _reads("_pair_kernel_moments")(node.func)]
    loops = [node for node in ast.walk(gain)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert len(calls) == 1 and loops
    assert not [loop for loop in loops for node in ast.walk(loop) if node is calls[0]]


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
