import ast
import importlib
from fnmatch import fnmatch
from pathlib import Path

import pytest

import totaldom
from totaldom import families

SRC = Path(__file__).parent.parent / "src" / "totaldom"

# names verify.py imports only so that perfbench's traced run can wrap them
# there (see the comment above its imports)
TRACER_ONLY = {"verify.py": {"prufer_decode", "is_connected_masks", "two_coloring_masks"}}


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_src_import_is_used():
    modules = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == TRACER_ONLY


def test_tracer_only_imports_are_wrapped(monkeypatch):
    # when perfbench stops wrapping one of them, its import in verify.py goes
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    wraps = importlib.import_module("workloads").trace_wraps()
    wrapped = {w.attr for w in wraps if w.module.__name__ == "totaldom.verify"}
    assert TRACER_ONLY["verify.py"] <= wrapped


def test_package_verify_is_the_function_not_the_module():
    # the package re-exports the function under its submodule's name, so the
    # module is reached through the import system (see the README)
    module = importlib.import_module("totaldom.verify")
    assert totaldom.verify is module.verify
    assert module.__name__ == "totaldom.verify"


def test_package_data_declares_the_class_tables():
    # an installed package must carry the data file that families reads
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(SRC.parent.parent / "pyproject.toml", "rb") as f:
        patterns = tomllib.load(f)["tool"]["setuptools"]["package-data"]["totaldom"]
    path = Path(families._CLASS_TABLE_PATH)
    assert path.parent == Path(totaldom.__file__).parent and path.is_file()
    assert any(fnmatch(path.name, pattern) for pattern in patterns)
