"""Static checks of the package source, with the standard library's ``ast``
(no linter is needed): no module-level import goes unused, every private
module-level function or class is referenced somewhere in the package, every
public module-level function is called by package code (or allowed below,
with its reason), and every name in a module's ``__all__`` or imported by
``chitomo/__init__.py`` is bound at the top level of the module it names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chitomo"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def imported_names(tree: ast.Module) -> dict[str, int]:
    # each name a module-level import binds, and the import's line
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def bound_names(tree: ast.Module) -> set[str]:
    # the names the module's top level binds
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(item) for item in node.value.elts]
    return []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_no_unused_module_imports(module):
    # a name read anywhere in the module, or exported by its __all__, is used
    tree = parse(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(all_names(tree))
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{module}.py imports but never uses: {', '.join(unused)}"


def test_no_unreferenced_private_definitions():
    # a private function or class that no module of the package names (as a
    # name, an attribute or an import) is dead code
    trees = {module: parse(module) for module in MODULES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not unreferenced, f"private definitions never referenced: {', '.join(unreferenced)}"


# public functions that no package code calls, each kept for its reason;
# every other one belongs in tests/process_oracles.py
UNCALLED_PUBLIC_FUNCTIONS = {
    "chi_change_basis": "the paper's Pauli <-> standard basis change of a chi-matrix",
    "broadband_mixed_state": "the benchmark's set-up code imports it, and the tests use it "
    "as the oracle of plate_count_states",
    "log_likelihood": "the Poisson log-likelihood at any purified vector, beyond the one "
    "a result reports",
}


def test_no_uncalled_public_functions():
    # a public module-level function is uncalled when no package code reads
    # its name as a variable outside its own definition; __all__ holds
    # strings and chitomo/__init__ only imports, so neither counts
    nodes = [node for module in MODULES if module != "__init__" for node in parse(module).body]
    readers: dict[str, list] = {}
    for node in nodes:
        for name in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
            readers.setdefault(name, []).append(node)
    uncalled = [
        node.name
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and all(reader is node for reader in readers.get(node.name, []))
    ]
    unexplained = [name for name in uncalled if name not in UNCALLED_PUBLIC_FUNCTIONS]
    assert not unexplained, (
        f"public functions no package code calls: {', '.join(unexplained)}; move them to "
        "tests/process_oracles.py or give a reason in UNCALLED_PUBLIC_FUNCTIONS"
    )
    stale = sorted(set(UNCALLED_PUBLIC_FUNCTIONS) - set(uncalled))
    assert not stale, f"UNCALLED_PUBLIC_FUNCTIONS names functions that are called or gone: {stale}"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    tree = parse(module)
    missing = [name for name in all_names(tree) if name not in bound_names(tree)]
    assert not missing, f"{module}.__all__ names what the module does not define: {missing}"


def test_package_exports_resolve():
    missing = []
    for node in parse("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            defined = bound_names(parse(node.module))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in defined]
    assert not missing, f"chitomo/__init__.py imports names that do not exist: {missing}"
