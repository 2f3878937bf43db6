"""No module of the package, its tests or its scripts imports a name it never
uses. The package's ``__init__`` is left out: it imports to re-export."""

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
