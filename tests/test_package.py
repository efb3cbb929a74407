"""Package surface: exported names exist, the package re-exports only
what its submodules export, no module imports a name it never uses,
every package export is used by the package, the benchmark or the tools,
and so is every dataclass field."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import seqdr

SUBMODULES = [importlib.import_module(f"seqdr.{m.name}")
              for m in pkgutil.iter_modules(seqdr.__path__)]


def test_submodule_exports_exist():
    for mod in SUBMODULES:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_package_reexports_submodule_exports():
    exported = {name: getattr(mod, name)
                for mod in SUBMODULES for name in mod.__all__}
    for name in seqdr.__all__:
        assert name in exported, name
        assert getattr(seqdr, name) is exported[name], name


def _unused_imports(path):
    """(line, name) of each imported name that the module neither uses nor
    lists in ``__all__``; ``from __future__`` imports are exempt."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [*sorted((root / "src" / "seqdr").glob("*.py")),
             *sorted((root / "tests").glob("*.py"))]
    unused = [f"{path.relative_to(root)}:{line}: {name}"
              for path in files for line, name in _unused_imports(path)]
    assert not unused, "\n".join(unused)


# Exports that nothing in the package, the benchmark or the tools runs, kept
# because the acceptance criteria or the README call them directly.
CONTRACT_ONLY = {
    "mixture_martingale": "criterion 2: the closed form against quadrature",
    "non_iid_radius": "criterion 10: reduces to mixture_radius at unit variance",
    "general_cs": "README 'Library quick start': other asymptotically linear "
                  "estimators",
}


def _references(path):
    """Every AST name and attribute a file reads, less the uses of a
    top-level function's or class's own name inside its definition."""
    refs = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top)
                 if isinstance(node, (ast.Name, ast.Attribute))
                 and isinstance(node.ctx, ast.Load)}
        refs |= names - {getattr(top, "name", None)}
    return refs


def _user_files():
    """The package, the benchmark and the tools: the code that runs seqdr."""
    root = pathlib.Path(__file__).resolve().parents[1]
    return [*(root / "src" / "seqdr").glob("*.py"),
            *(root / "seqbench").glob("*.py"), *(root / "tools").glob("*.py")]


def test_no_unused_exports():
    used = set().union(*map(_references, _user_files()))
    unused = sorted(set(seqdr.__all__) - used - set(CONTRACT_ONLY))
    assert not unused, unused
    assert set(CONTRACT_ONLY) <= set(seqdr.__all__) - used


def _attribute_reads(path):
    """Every attribute name a file reads, whatever object it is read from."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_no_unread_fields():
    # a field that nothing reads is a setting or a record that does nothing;
    # fields are matched by name, so a read of a same-named attribute counts
    read = set().union(*map(_attribute_reads, _user_files()))
    unread = sorted(f"{cls.__module__}.{cls.__name__}.{f.name}"
                    for mod in SUBMODULES
                    for _, cls in inspect.getmembers(mod, dataclasses.is_dataclass)
                    if cls.__module__ == mod.__name__
                    for f in dataclasses.fields(cls) if f.name not in read)
    assert not unread, unread


def _calling_functions(tree, is_target):
    """The qualified name of the innermost function or class around each
    call whose callee matches ``is_target``."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and is_target(child.func):
                found.add(owner)
            name = getattr(child, "name", "<lambda>")
            scope = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            visit(child, f"{owner}.{name}" if isinstance(child, scope) else owner)

    visit(tree, "<module>")
    return found


def test_one_interval_assembly():
    # the engine, the comparator and general_cs build their intervals through
    # one helper (warm-up gate, finiteness check, radius, CsPoint)
    root = pathlib.Path(__file__).resolve().parents[1]
    path = root / "src" / "seqdr" / "ate.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    radius = _calling_functions(
        tree, lambda f: isinstance(f, ast.Name) and f.id == "mixture_radius")
    point = _calling_functions(
        tree, lambda f: isinstance(f, ast.Attribute) and f.attr == "from_radius"
        and isinstance(f.value, ast.Name) and f.value.id == "CsPoint")
    assert len(radius) == 1 and radius == point, (radius, point)
