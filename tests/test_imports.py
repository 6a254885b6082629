"""Every name a package module imports is used in it (or exported)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "twistres"

# names a module imports only so that callers can import them from it
REEXPORTS = {"twist.py": {"AlgebraAsBimodule", "GroundModule"}}


def unused_imports(source, exported=()):
    """(name, line) of each imported name the module never reads, leaving
    out ``__future__`` imports, ``__all__`` entries and ``exported``."""
    tree = ast.parse(source)
    used = set(exported)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in imported if name not in used)


def test_detector_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from a import b, c as d, e, f\n"
              "__all__ = ['e']\n"
              "def g():\n"
              "    from h import i\n"
              "    return os.path.join(d, i)\n")
    assert unused_imports(source) == [("b", 3), ("f", 3)]
    assert unused_imports(source, exported={"b", "f"}) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, REEXPORTS.get(path.name, ())) == []
