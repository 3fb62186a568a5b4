"""Layout rules: every public top-level name in src/ has a user outside the tests, src/
leaves numpy.random unloaded, the checks share no kernel with the evaluator, the evaluator
uses no part of the dense oracle, only the checks read `tensor` and only its factor order,
the CLI module loads no numpy, and the modules that `delta-e` and `extrema` run import
nothing beyond the standard library and each other."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinboost"


def _public_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return {name for name in names if not name.startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    """Names loaded, attributes read and names imported; string literals do not count."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_src_name_is_used_outside_tests():
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        used |= _references(ast.parse(path.read_text(), filename=str(path)))
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sorted(_public_definitions(ast.parse(path.read_text())))
        if name not in used
    ]
    assert not unused, f"public names that only tests use: {unused}"


def test_src_never_names_numpy_random():
    """Loading numpy.random adds about 6 MB to a command's peak RSS; the checks draw from stdlib."""
    named = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "np.random" in path.read_text() or "numpy.random" in path.read_text()
    ]
    assert not named, f"src files that name numpy.random: {named}"


def test_checks_import_no_evaluator_kernel():
    """The checks reduce entropies on their own route; delta_e_grid is the one evaluator
    entry they compare against, so they import no other evaluator entry and no private name."""
    path = PACKAGE / "checks.py"
    borrowed = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module in ("entanglement", "sweep", "tensor")
        for alias in node.names
        if alias.name == "delta_e" or alias.name.startswith("_")
    ]
    assert not borrowed, f"checks.py imports evaluator internals: {borrowed}"


def test_evaluator_uses_no_dense_oracle():
    """The dense route (outer, partial_trace, purity, DensityMatrix) is the oracle that the
    acceptance tests and the benchmark gate hold the evaluator to, so the evaluator and the
    sweep never call it, whether imported by name or read as a module attribute."""
    oracle = {"outer", "partial_trace", "purity", "DensityMatrix"}
    borrowed = []
    for name in ("entanglement.py", "sweep.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                borrowed += [f"{name}: {a.name}" for a in node.names if a.name in oracle]
            elif isinstance(node, ast.Attribute) and node.attr in oracle:
                borrowed.append(f"{name}: .{node.attr}")
    assert not borrowed, f"the evaluator uses the dense oracle: {borrowed}"


def test_only_checks_reads_tensor_and_only_the_factor_order():
    """`tensor` holds the factor order and the dense oracle that the tests and the benchmark
    gate use; in src/, only the checks import from it, and only CANONICAL_ORDER. The checks
    build the per-particle boost of their factorization check themselves."""
    imported = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "tensor":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "spinboost.tensor"):
                imported += [(path.stem, alias.name) for alias in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # `from . import tensor` and `import spinboost.tensor` take the whole module
                imported += [(path.stem, "tensor") for alias in node.names
                             if alias.name in ("tensor", "spinboost.tensor")]
    assert imported == [("checks", "CANONICAL_ORDER")], imported


def _module_level_imports(path: Path) -> list[str]:
    """Modules that importing `path` imports: every import statement outside a function body,
    relative ones with their leading dots."""
    found = []
    pending = list(ast.parse(path.read_text(), filename=str(path)).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
        pending.extend(ast.iter_child_nodes(node))
    return found


def _stdlib(name: str) -> bool:
    return name.split(".")[0] in sys.stdlib_module_names


def test_cli_loads_only_stdlib_and_kinematics():
    """`spinboost wigner-angle`, `--help` and usage errors never load numpy: at load time
    cli.py imports the standard library and the numpy-free kinematics module only; each
    command imports the modules it runs."""
    cli = [name for name in _module_level_imports(PACKAGE / "cli.py")
           if not (_stdlib(name) or name == ".kinematics")]
    assert not cli, f"cli.py imports at load time: {cli}"


# the modules that `spinboost delta-e` and `spinboost extrema` load besides cli.py
NUMPY_FREE = ("kinematics", "states", "entanglement", "grid", "extrema")


def test_numpy_free_layer_imports_only_stdlib_and_itself():
    """`spinboost delta-e` and `spinboost extrema` never load numpy: every import statement
    in the modules they run, those inside functions included, names the standard library or
    one of those modules."""
    allowed = {f".{name}" for name in NUMPY_FREE}
    outside = []
    for name in NUMPY_FREE:
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            else:
                continue
            outside += [f"{name}.py: {module}" for module in modules
                        if not (_stdlib(module) or module in allowed)]
    assert not outside, f"the numpy-free layer imports: {outside}"
