"""No module of the package, its tests or its scripts imports a name it never
uses. The package's ``__init__`` is left out: it imports to re-export.

No module of the package defines a private function, class or constant (a
module-level name with one leading underscore) that nothing in the package
reads; the tests do not count as readers."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    package = [p for p in (ROOT / "src" / "simpca").glob("*.py") if p.name != "__init__.py"]
    return sorted(package + list((ROOT / "tests").glob("*.py"))
                  + list((ROOT / "scripts").glob("*.py")))


def _unused_imports(source):
    """The names a module binds by import and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_is_found():
    source = "import os\nimport numpy.linalg\nfrom json import dumps as d, loads\nloads\n"
    assert _unused_imports(source) == ["d", "numpy", "os"]


def test_no_unused_imports():
    unused = {}
    for path in _sources():
        names = _unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def _unused_private_names(sources):
    """The module-level functions, classes and constants of the given
    sources whose names start with one underscore and that none of the
    sources reads, as a name or as an attribute, sorted."""
    trees = [ast.parse(source) for source in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        name for name in defined - read if name.startswith("_") and not name.startswith("__")
    )


def test_unused_private_name_is_found():
    sources = [
        "__all__ = []\n_A = 1\n_B: int = 2\ndef _f():\n    return _A\n"
        "class _C:\n    pass\ndef g():\n    _local = 3\n",
        "import m\nm._f()\n",
    ]
    assert _unused_private_names(sources) == ["_B", "_C"]


def test_no_unused_private_names():
    package = sorted((ROOT / "src" / "simpca").glob("*.py"))
    assert _unused_private_names([p.read_text(encoding="utf-8") for p in package]) == []
