"""Layout rules: every public top-level name in src/ has a user outside the tests, src/
leaves numpy.random unloaded, the checks share no kernel with the evaluator, the evaluator
uses no part of the dense oracle, no other module reads `tensor`, `surface` alone spells the
stored forms and the format rules, the CLI reads a stored surface only through
`surface.read`, the CLI module loads no numpy, the modules that `delta-e` and `extrema` run
import nothing beyond the standard library and each other, `sweep` loads numpy only inside
its functions, and one function forks, its child ending through os._exit."""

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
    """`tensor` holds the dense oracle that the tests and the benchmark gate use; no other
    module in src/ imports from it. The canonical factor order is SubsystemLabel's member
    order, which the checks read from `states` as the evaluator does."""
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
    assert imported == [], imported


# the JSON envelope's keys, and the format rules' `.json` suffix and `{` sniff
_FORMAT_TEXTS = {"config", "shape", "values", "theta_grid", "phi_grid", ".json", "{"}


def test_only_surface_spells_the_stored_forms():
    """The CSV header, the JSON envelope's keys and the format rules are string constants of
    surface.py alone, and `sweep` and `extrema` load no json, open no file and write no
    number as %.17g: the text forms and the readers are `surface`'s."""
    spelled = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        spelled += [(path.stem, node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and (node.value in _FORMAT_TEXTS or "theta,phi,delta_e" in node.value)]
        if path.stem in ("sweep", "extrema"):
            forms = [ast.dump(node) for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and ".17g" in str(node.value)
                     or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
                     or isinstance(node, ast.Import) and "json" in [a.name for a in node.names]]
            assert not forms, (path.stem, forms)
    assert {stem for stem, _ in spelled} == {"surface"}, spelled
    assert {text for _, text in spelled} >= _FORMAT_TEXTS | {"theta,phi,delta_e"}, spelled


def test_cli_reads_a_stored_surface_only_through_surface_read():
    """The format rules (a sweep writes JSON as `--format` says, else for a `.json` path; a
    file reads as JSON if its first non-blank character is `{`, else as CSV) and the choice
    of a read in two processes belong to `surface`: cli.py imports from it only `read` and
    `writes_json`, and from `extrema` only the collector and merge radius."""
    path = PACKAGE / "cli.py"
    imported = {(node.module.split(".")[-1], alias.name)
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] in ("extrema", "surface")
                for alias in node.names}
    assert imported == {("surface", "read"), ("surface", "writes_json"),
                        ("extrema", "HitCollector"), ("extrema", "DEFAULT_MERGE_RADIUS")}, imported


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
NUMPY_FREE = ("kinematics", "states", "entanglement", "grid", "extrema", "surface", "worker")


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


def test_sweep_loads_numpy_only_inside_its_functions():
    """No `spinboost sweep` loads numpy: at load time sweep.py imports the standard library
    and the numpy-free layer only, and numpy is imported inside delta_e_grid alone, which
    returns an array; no other function of sweep.py imports anything else."""
    allowed = {f".{name}" for name in NUMPY_FREE}
    path = PACKAGE / "sweep.py"
    loaded = [name for name in _module_level_imports(path)
              if not (_stdlib(name) or name in allowed)]
    assert not loaded, f"sweep.py imports at load time: {loaded}"
    inside = []
    for function in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    # `from . import surface` imports the module surface
                    modules = ["." * node.level + (node.module or alias.name)
                               for alias in node.names]
                else:
                    continue
                inside += [(function.name, module) for module in modules
                           if not (_stdlib(module) or module in allowed)]
    assert inside == [("delta_e_grid", "numpy")], inside


def _is_call(node: ast.AST, module: str, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and isinstance(node.func.value, ast.Name)
            and node.func.value.id == module)


def test_one_function_forks_and_its_child_ends_in_os_exit():
    """`os.fork` is called in exactly one function under src/. Its child branch, the `if`
    on the fork's result being 0, is a try whose `finally` ends in `os._exit`, so no
    exception, handler or buffered output of the caller's runs in the child."""
    forking = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [node for node in ast.walk(function) if _is_call(node, "os", "fork")]
                forking += [(path.stem, function.name, function)] * len(calls)
        # no fork outside a function either
        assert sum(_is_call(node, "os", "fork") for node in ast.walk(tree)) == sum(
            stem == path.stem for stem, _, _ in forking
        ), path.name
    assert [(stem, name) for stem, name, _ in forking] == [("worker", "forked")], forking
    function = forking[0][2]
    pid = next(node.targets[0].id for node in ast.walk(function)
               if isinstance(node, ast.Assign) and _is_call(node.value, "os", "fork"))
    children = [node for node in ast.walk(function) if isinstance(node, ast.If)
                and ast.dump(node.test) == ast.dump(ast.parse(f"{pid} == 0", mode="eval").body)]
    assert len(children) == 1
    *_, last = children[0].body
    assert isinstance(last, ast.Try) and last.finalbody, ast.dump(last)
    assert _is_call(getattr(last.finalbody[-1], "value", None), "os", "_exit")
