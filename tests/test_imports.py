"""Every name a package module imports is used in it (or exported), and
every function the package defines is referenced by the package, the
bench or the demos (or is listed as test-only API)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twistres"

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


def undefined_exports(source):
    """Entries of the module's ``__all__`` that no top-level def, class,
    assignment or import of the module binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        if name.id == "__all__":
                            exported = ast.literal_eval(node.value)
                        bound.add(name.id)
    return [name for name in exported if name not in bound]


def test_export_detector_flags_an_undefined_name():
    source = ("from a import b\n"
              "import c.d\n"
              "X, Y = 1, 2\n"
              "Z: int = 3\n"
              "def f():\n"
              "    gone = 4\n"
              "class K:\n"
              "    pass\n"
              "__all__ = ['b', 'c', 'X', 'Y', 'Z', 'f', 'K',\n"
              "           'gone', 'lost']\n")
    assert undefined_exports(source) == ["gone", "lost"]
    assert undefined_exports("def f():\n    pass\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_defines_every_export(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


# functions that nothing in the package, the bench or the demos calls but
# that a user needs as API, one reason each; this list must not grow
TEST_ONLY_API = {
    # tau^-1 on a truncation, raising where tau is not bijective there
    "invert_twist",
    # the filtration degree of an element, read off by hand
    "filtration_degree",
    # a problem file validated, with line and column, without running it
    "parse_config",
    # A as a bimodule over itself, moved across B by tau: a compat map
    "self_bimodule_compat",
    # B as a bimodule over itself, moved across A by tau: a compat map
    "self_right_bimodule_compat",
    # the plain flip across a module: the compat map of an untwisted side
    "transposition_compat",
}


def unreferenced_defs(package_sources, other_sources=()):
    """Qualified names (``f`` or ``Class.method``) of the module-level
    functions and the non-dunder methods defined in ``package_sources``
    whose name no Name or Attribute node of any source reads."""
    package = [ast.parse(source) for source in package_sources]
    refs = set()
    for tree in package + [ast.parse(source) for source in other_sources]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    defs = []
    for tree in package:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defs += [("%s.%s" % (node.name, sub.name), sub.name)
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not (sub.name.startswith("__")
                                  and sub.name.endswith("__"))]
    return sorted(q for q, name in defs if name not in refs)


def test_reference_detector_flags_an_uncalled_def():
    package = ("def called():\n"
               "    return helper()\n"
               "def helper():\n"
               "    return 1\n"
               "def uncalled():\n"
               "    return 2\n"
               "class K:\n"
               "    def __init__(self):\n"
               "        self.used()\n"
               "    def used(self):\n"
               "        pass\n"
               "    def unused(self):\n"
               "        pass\n")
    assert unreferenced_defs([package]) == ["K.unused", "called", "uncalled"]
    assert unreferenced_defs([package], ["called(); x.unused\n"]) == [
        "uncalled"]


def _read(paths):
    return [p.read_text(encoding="utf-8") for p in sorted(paths)]


def test_every_package_function_is_referenced_outside_the_tests():
    flagged = unreferenced_defs(
        _read(SRC.glob("*.py")),
        _read((ROOT / "bench").rglob("*.py")) + _read(
            (ROOT / "demos").rglob("*.py")))
    assert sorted(set(flagged) - TEST_ONLY_API) == []
    # a listed name that gained a caller leaves the list
    assert sorted(TEST_ONLY_API - set(flagged)) == []
