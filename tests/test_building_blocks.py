"""Each shared building block of kslab has one implementation.

The finiteness policy for arrays lives in one predicate,
velocity_basis._finite_entries (behind _finite_array and
_finite_complex_array): no other kslab function calls numpy's isfinite.
A kinetic decomposition has one form, mode_operators._Decomposition: one
value over a list of operators, per block the stacks of their eig pairs and
inverses, zero inverse rows on a fallback member.  _decompose_stacked returns
it and writes nothing on the operators; its only callers are _decomposition,
which caches one operator's on that operator and is the only place outside
ModeOperator._fill that assigns one, and convergence_lab._evolve_grid, which
hands each chunk's to _block_flow.  _block_flow applies the decomposition it
is given and decomposes nothing itself.
The experiments' mode grids have one evolver, convergence_lab._evolve_grid,
which assembles, flows and guards each chunk of modes itself and hands it to
its caller's reducer as _block_flow wrote it, with no transposed or
contiguous copy.  The reducer returns the chunk's tables and _evolve_grid
allocates the tables of all modes: no rate experiment preallocates one, and
_kinetic_tables reduces the whole chunk without a loop.  Every
Gauss-Legendre rule is the one cached velocity_basis._leggauss.  Each
semigroup has one apply: mode_operators._block_flow for the kinetic flow (the S3 remainder
runs on it too; only the remainder norms take their own fallback flows),
fluid_limits._heat_decay for the heat decay, the one reader of the heat
rates, and fluid_limits._field_flow, the one reader of the two-by-two field
exponential: it evaluates the block once,
with the same bits as one call per coupling, and returns one (..., 5) array
that no caller stacks, concatenates or iterates over.  Facts the basis owns
are read from it: collision_ops._degree_blocks takes its nu blocks from
velocity_basis._radial_overlap, as _sector_matrix does, and
mode_operators._layout takes its coupling vectors from Basis.chi.  The
linear fluid solver reads the heat and the field flow for its unforced and
its Duhamel parts: it has no exponential of its own and loops over modes,
never over times, and neither does the panel rule under it.  That rule,
velocity_basis._panel_quadrature, is the one behind the Duhamel integrals
and the wave integral of convergence_lab.
Every fitted rate, exponent and gap is one least-squares line,
velocity_basis._line_fit: no other kslab function calls polyfit or lstsq,
and its readers are rate_fit, the decay fit, the transient check and the
remainder fit.  The gain-kernel moments
of every panel rule come from one pass of collision_ops._pair_kernel_moments:
_gain_matrices, its only reader in kslab, calls it once, outside its loop
over degrees.  The per-degree collision
blocks have one builder, collision_ops._degree_blocks: assemble_collision
calls it for every degree, and fluid_limits.truncation_deltas, the only
reader of the refined pass, for the degrees l <= 2 at radial order + 6;
transport_coefficients builds no basis and no blocks.  And convergence_lab reads
the sound speed from fluid_limits, so it does not import dispersion, and it
builds every rate report in _report.  scipy.linalg serves the eig fallback
only: its flow (expm, in mode_operators._fallback_flow) and its projector
(schur, in _schur_projector) import it where they run, and spectrum reads
the decomposition's eig pairs without an eig of its own.
"""
import ast
from pathlib import Path

import numpy as np

import kslab
from kslab import fluid_limits as fl

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


def _assigns_decomp(node) -> bool:
    """An assignment whose target is an attribute named _decomp."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Attribute) and t.attr == "_decomp"
               for target in targets for t in ast.walk(target))


def test_one_decomposition_form():
    # the decomposition is one value: _decompose_stacked returns it to the
    # one-operator cache and to the grid evolver (which imports it), and
    # _block_flow is handed it
    assert set(_where(_reads("_decompose_stacked"))) == {
        ("mode_operators", "_decomposition"), ("convergence_lab", "<module>"),
        ("convergence_lab", "_evolve_grid")}
    for name in ("_stacks_of_one", "_stacked_records"):
        assert not _where(lambda node: isinstance(node, ast.FunctionDef) and node.name == name)
    flow = _function("mode_operators", "_block_flow")
    assert [a.arg for a in flow.args.args] == ["ops", "dec", "states0", "taus", "keep"]
    # and only the one-operator cache writes a decomposition on an operator
    assert set(_where(_assigns_decomp)) == {("mode_operators", "_fill"),
                                            ("mode_operators", "_decomposition")}


def test_one_grid_evolver():
    # _evolve_grid runs its chunks itself: no chunk helper, and the only
    # kinetic flow call of convergence_lab
    assert not _where(lambda node: isinstance(node, ast.FunctionDef)
                      and node.name == "_evolve_chunk")
    assert [where for where in _where(_calls("_block_flow"))
            if where[0] == "convergence_lab"] == [("convergence_lab", "_evolve_grid")]
    # and hands each chunk on as _block_flow wrote it, times first
    evolve = _function("convergence_lab", "_evolve_grid")
    assert not [node for node in ast.walk(evolve)
                if any(_reads(name)(node) for name in ("transpose", "ascontiguousarray",
                                                       "swapaxes", "moveaxis", "copy"))]
    # the reducers return their tables: the rate experiments, their reducers
    # included, allocate no table, and the kinetic reduction takes the whole
    # chunk, with no loop over blocks of rows
    for name in ("first_order_experiment", "second_order_experiment", "initial_layer_profile"):
        assert not [node for node in ast.walk(_function("convergence_lab", name))
                    if any(_calls(alloc)(node) for alloc in ("empty", "zeros"))]
    assert not [node for node in ast.walk(_function("convergence_lab", "_kinetic_tables"))
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]


def test_one_gauss_legendre_rule():
    # numpy's rule is built once per size, in the cached _leggauss
    assert set(_where(_reads("leggauss"))) == {("velocity_basis", "_leggauss")}


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
        for name in ("_heat_flow", "y1_decay_experiment", "linear_nsmf_solve")}
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
        ("convergence_lab", "<module>"), ("convergence_lab", "oscillatory_value")}
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
    assert set(_where(_reads("_pair_kernel_moments"))) == {("collision_ops", "_gain_matrices")}
    # one call for both panel rules, before and outside the loop over degrees
    gain = _function("collision_ops", "_gain_matrices")
    calls = [node for node in ast.walk(gain)
             if isinstance(node, ast.Call) and _reads("_pair_kernel_moments")(node.func)]
    loops = [node for node in ast.walk(gain)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert len(calls) == 1 and loops
    assert not [loop for loop in loops for node in ast.walk(loop) if node is calls[0]]


def test_one_degree_block_builder():
    assert set(_where(_calls("_degree_blocks"))) == {
        ("collision_ops", "assemble_collision"), ("fluid_limits", "truncation_deltas")}
    # the refined basis is built in truncation_deltas alone, and only the
    # reports read its deltas
    assert set(_where(_calls("build_basis"))) == {("fluid_limits", "truncation_deltas")}
    assert set(_where(_calls("truncation_deltas"))) == {("convergence_lab", "_report")}


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


def test_one_field_block_per_flow():
    # the (X2, Y3) block is the (X3, Y2) block with its coupling negated
    flow = _function("fluid_limits", "_field_flow")
    assert len([node for node in ast.walk(flow) if _calls("_field_block")(node)]) == 1


def _two_block_flow(eta, s, t, rho, x2, x3, y2, y3):
    """The field flow with one _field_block call per coupling, +i s and -i s."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)[:, None]
    rho_t = np.exp(-eta * (1.0 + s * s) * t) * rho
    e11, e12, e22 = fl._field_block(eta, 1j * s, t)
    f11, f12, f22 = fl._field_block(eta, -1j * s, t)
    return (rho_t, f11 * x2 + f12 * y3, e11 * x3 + e12 * y2,
            e12 * x3 + e22 * y2, f12 * x2 + f22 * y3)


def test_one_field_block_gives_the_bits_of_two():
    eta = 0.215581
    # wave numbers on both sides of the branch collision eta/2, and t = 0
    s = eta / 2.0 * np.array([0.3, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.4, 4.0])
    t = np.array([0.0, 1e-9, 0.4, 1.7, 6.0, 1e4])
    rng = np.random.default_rng(37)
    for wave, v0 in ((s, rng.standard_normal((5, s.size)) + 1j * rng.standard_normal((5, s.size))),
                     (s[3], rng.standard_normal(5) + 1j * rng.standard_normal(5))):
        flow = fl._field_flow(eta, wave, t, *v0)
        assert isinstance(flow, np.ndarray) and flow.shape == (t.size, np.size(wave), 5)
        for k, want in enumerate(_two_block_flow(eta, wave, t, *v0)):
            assert np.array_equal(flow[..., k], np.broadcast_to(want, flow.shape[:-1]))


def test_field_flow_callers_read_one_array():
    # each caller indexes the (..., 5) flow: none stacks, concatenates or
    # iterates over it
    callers = set(_where(_calls("_field_flow")))
    assert callers == {("convergence_lab", "_field_table"), ("fluid_limits", "linear_nsmf_solve"),
                       ("fluid_limits", "y2_decay_experiment")}
    packers = ("stack", "concatenate", "hstack", "vstack", "column_stack", "dstack")
    for module, name in callers:
        caller = _function(module, name)
        names = {target.id for node in ast.walk(caller) if isinstance(node, ast.Assign)
                 and any(map(_calls("_field_flow"), ast.walk(node.value)))
                 for target in node.targets if isinstance(target, ast.Name)}

        def holds_flow(tree):
            return any(_calls("_field_flow")(node)
                       or (isinstance(node, ast.Name) and node.id in names)
                       for node in ast.walk(tree))

        assert not [node for node in ast.walk(caller) if isinstance(node, ast.Call)
                    and any(_reads(p)(node.func) for p in packers)
                    and any(map(holds_flow, node.args))]
        assert not [node for node in ast.walk(caller)
                    if isinstance(node, (ast.For, ast.comprehension)) and holds_flow(node.iter)]


def test_basis_facts_are_read_not_respelled():
    # the nu blocks are radial overlaps, as every sector matrix's blocks are
    assert set(_where(_calls("_radial_overlap"))) == {
        ("velocity_basis", "_sector_matrix"), ("collision_ops", "_degree_blocks")}
    assert not [node for node in ast.walk(_function("collision_ops", "_degree_blocks"))
                if _reads("radial_tables")(node)]
    # the generators' density and transverse-momentum vectors are Basis.chi(0)
    # and chi(2) on their copies: _layout lays no unit vector of its own
    layout = _function("mode_operators", "_layout")
    chis = [node for node in ast.walk(layout) if _calls("chi")(node)]
    assert sorted(ast.literal_eval(node.args[0]) for node in chis) == [0, 2]
    assert not [node for node in ast.walk(layout)
                if any(_calls(name)(node) for name in ("zeros", "eye", "identity"))]
