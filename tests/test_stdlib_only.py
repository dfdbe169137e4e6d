"""The package imports nothing outside the standard library, declares no
dependency, its modules import only the layers below them, and every public
function or class has a caller in the package."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_absolute_import_is_stdlib():
    modules = sorted((ROOT / "src" / "chordbasis").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines


# each module may import only modules earlier in this list
LAYERS = ["errors", "budget", "cache", "diagrams", "enumeration", "exactla",
          "relations", "basis", "symmetry", "render", "verify", "cli"]


def test_every_module_imports_only_earlier_layers():
    modules = {p.stem for p in (ROOT / "src" / "chordbasis").glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)
    for name in LAYERS:
        path = ROOT / "src" / "chordbasis" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            # "from . import x" reads the package, which is exempt, or a module
            targets = [node.module] if node.module else [
                alias.name for alias in node.names if alias.name in modules]
            for target in targets:
                if target in ("__init__", "__main__"):
                    continue
                assert LAYERS.index(target) < LAYERS.index(name), (name, target)


def test_only_enumeration_knows_the_orbit_maps():
    # DiagramSet.term_feet is the one reader of the orbit maps: no other
    # module builds an orbit, renumbers a term or reads the maps
    hidden = {"orbit", "relabel", "*"}
    for path in sorted((ROOT / "src" / "chordbasis").glob("*.py")):
        if path.stem == "enumeration":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("diagrams",
                                                                    "chordbasis.diagrams"):
                imported = {alias.name for alias in node.names}
                assert not imported & hidden, (path.name, imported)
            elif isinstance(node, ast.Attribute):
                assert node.attr != "_images", path.name
                assert not (node.attr in hidden and isinstance(node.value, ast.Name)
                            and node.value.id == "diagrams"), (path.name, node.attr)


# public names with no caller in src/, each kept for a reason
NO_CALLER_IN_SRC = {
    "clear_memo": "the benchmark and the tests reset the memo with it",
    "enumerate_all_naive": "the oracle of the fast enumeration",
    "relations_from_text": "the relations file's validating reader",
}


def test_every_public_function_has_a_caller_in_src():
    # each top-level statement of each module, with the identifiers it names
    statements = []
    for path in sorted((ROOT / "src" / "chordbasis").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((node, named))
    uncalled = {
        node.name for node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in named for other, named in statements if other is not node)}
    # lists a new helper without a caller, or an exempt name that gained one
    assert sorted(uncalled ^ NO_CALLER_IN_SRC.keys()) == []
