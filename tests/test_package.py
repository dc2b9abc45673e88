"""The public surface: every exported name exists, once; imports are used and public."""

import ast
import importlib
import pathlib

import xplab

MODULES = [
    "blocks", "cli", "criteria", "experiments", "operators", "oracle", "report",
    "serialize", "space", "splitter", "weights",
]


def test_exports_resolve_without_duplicates():
    for mod in [xplab] + [importlib.import_module(f"xplab.{m}") for m in MODULES]:
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], mod.__name__


def test_package_exports_each_module_name_once():
    # every package export but __version__ comes from exactly one module's __all__
    mods = [importlib.import_module(f"xplab.{m}") for m in MODULES]
    for name in xplab.__all__:
        if name == "__version__":
            continue
        homes = [m for m in mods if name in m.__all__]
        assert len(homes) == 1, (name, [m.__name__ for m in homes])
        assert getattr(xplab, name) is getattr(homes[0], name), name


# operators re-binds norm_p only because the benchmark's tracing test asserts
# that operators.norm_p exists
UNUSED_IMPORT_EXEMPT = {("operators.py", "norm_p")}


def _module_trees():
    src = pathlib.Path(xplab.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_unused_imports():
    unused = []
    for name, tree in _module_trees():
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(name, n) for n in sorted(bound - used)]
    assert [u for u in unused if u not in UNUSED_IMPORT_EXEMPT] == []


def test_no_private_names_imported_across_modules():
    # "from . import _dense" imports a module; "from .x import _name" reaches
    # into another module's internals
    private = [
        (name, a.name)
        for name, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is not None
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == []


def test_one_slack_constant_and_no_slack_keyword():
    # only space.py names SLACK (its definition and the one verdict rule),
    # and no call sets a slack of its own
    found = [
        (name, node.lineno)
        for name, tree in _module_trees()
        for node in ast.walk(tree)
        if name != "space.py"
        and "SLACK" in (getattr(node, a, None) for a in ("id", "attr", "name"))
        or isinstance(node, ast.keyword) and node.arg == "slack"
    ]
    assert found == []
