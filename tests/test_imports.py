"""Every name a package module, a test or a demo imports is used in it
(or, in the package, exported); every function the package defines is
referenced by the package, the bench or the demos (or is listed as
test-only API); every default is passed by a call there; every method
whose name another def shares is listed with its classes; and every name
the bench traces or imports exists."""

import ast
import importlib.util
import pathlib
from fractions import Fraction

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


def _import_scan_id(path):
    # package modules by file name, tests and demos under their folder
    if path.parent == SRC:
        return path.name
    return "%s/%s" % (path.parent.name, path.name)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "demos").glob("*.py")), ids=_import_scan_id)
def test_module_uses_every_import(path):
    source = path.read_text(encoding="utf-8")
    exported = REEXPORTS.get(path.name, ()) if path.parent == SRC else ()
    assert unused_imports(source, exported) == []


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


def _package_defs(tree):
    """(qualified name, def node, leading parameters a call does not pass:
    1 for a method, 0 for a function or staticmethod) of every module-level
    function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    yield "%s.%s" % (node.name, sub.name), sub, int(not static)


def unpassed_parameters(package_sources, other_sources=()):
    """``def(parameter)`` for each defaulted parameter of a function or
    method in ``package_sources`` that no call by name in any source
    passes.  A call ``f(...)`` or ``x.f(...)`` reaches every def named f
    (``C(...)`` reaches ``C.__init__``, and ``from m import f as g`` makes
    ``g(...)`` a call of f); it passes a parameter by keyword, by position,
    or through ``*args`` or ``**kwargs``.  A def only called indirectly
    (through a dict of callables, or an ``__init__`` through a subclass)
    has its defaults flagged: the scan errs towards flagging."""
    package = [ast.parse(source) for source in package_sources]
    trees = package + [ast.parse(source) for source in other_sources]
    aliases = {a.asname: a.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for a in node.names if a.asname}
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(aliases.get(name, name), []).append(node)
    flagged = []
    for tree in package:
        for qualified, node, skip in _package_defs(tree):
            name = node.name
            if name == "__init__":
                name = qualified.split(".")[0]
            args = node.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            defaulted = [(p.arg, i - skip) for i, p in enumerate(positional)
                         if i >= first_default]
            defaulted += [(p.arg, None) for p, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for param, position in defaulted:
                if not any(_passes(call, param, position)
                           for call in calls.get(name, ())):
                    flagged.append("%s(%s)" % (qualified, param))
    return sorted(flagged)


def _passes(call, param, position):
    """Whether ``call`` may pass ``param``, the ``position``-th positional
    argument after self (None: keyword-only)."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_parameter_detector_flags_a_default_no_call_passes():
    package = ("def f(a, b=1, c=2, *, d=3):\n"
               "    return a\n"
               "class K:\n"
               "    def __init__(self, x=0, y=0):\n"
               "        pass\n"
               "    def m(self, u=0, v=0):\n"
               "        return f(1)\n"
               "    @staticmethod\n"
               "    def s(u=0, v=0):\n"
               "        pass\n")
    assert unpassed_parameters([package]) == [
        "K.__init__(x)", "K.__init__(y)", "K.m(u)", "K.m(v)", "K.s(u)",
        "K.s(v)", "f(b)", "f(c)", "f(d)"]
    other = ("from pkg import f as g, K\n"
             "g(1, 2)\n"              # positional: b, through the alias
             "K(y=1).m(5)\n"          # keyword, and self not counted
             "K.s(**opts)\n"          # **kwargs may pass any parameter
             "f(*args)\n")            # *args may pass any positional one
    assert unpassed_parameters([package], [other]) == [
        "K.__init__(x)", "K.m(v)", "f(d)"]


def test_every_default_is_passed_outside_the_tests():
    # a default that only a test sets is an option no user path reaches;
    # the test builds what it needs from the public constructors instead
    assert unpassed_parameters(
        _read(SRC.glob("*.py")),
        _read((ROOT / "bench").rglob("*.py"))
        + _read((ROOT / "demos").rglob("*.py"))) == []


# names that builtin containers, strings and numbers carry as methods: a
# read such as ``seen.add(...)`` keeps a package method ``add`` referenced
BUILTIN_METHODS = frozenset(
    name for kind in (dict, list, set, frozenset, str, tuple, int, float,
                      Fraction)
    for name in dir(kind) if not name.startswith("_"))


def shared_method_names(package_sources):
    """{name: sorted classes defining it} for each non-dunder method whose
    name another class also binds (as a method, a class attribute or a
    ``self.`` attribute), a module-level function has, or a builtin
    type's method has.  ``unreferenced_defs`` cannot tell such a method
    unused, since a read of its name may mean any of the others."""
    binders, methods = {}, {}
    for tree in map(ast.parse, package_sources):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                binders.setdefault(node.name, set()).add("<function>")
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.FunctionDef) and sub in node.body:
                    if not (sub.name.startswith("__")
                            and sub.name.endswith("__")):
                        methods.setdefault(sub.name, set()).add(node.name)
                    bound = [sub.name]
                elif isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    targets = (sub.targets if isinstance(sub, ast.Assign)
                               else [sub.target])
                    bound = [t.id for t in targets if isinstance(t, ast.Name)
                             and sub in node.body]
                    bound += [t.attr for t in targets
                              if isinstance(t, ast.Attribute)
                              and isinstance(t.value, ast.Name)
                              and t.value.id == "self"]
                else:
                    continue
                for name in bound:
                    binders.setdefault(name, set()).add(node.name)
    return {name: sorted(classes) for name, classes in methods.items()
            if len(binders[name]) > 1 or name in BUILTIN_METHODS}


def test_shared_name_detector_sees_methods_attributes_and_builtins():
    package = ("def helper():\n"
               "    pass\n"
               "class A:\n"
               "    one = 1\n"
               "    def __init__(self):\n"
               "        self.size = 0\n"
               "    def act(self):\n"
               "        pass\n"
               "    def own(self):\n"
               "        pass\n"
               "class B:\n"
               "    def act(self):\n"
               "        pass\n"
               "    def one(self):\n"
               "        pass\n"
               "    @property\n"
               "    def size(self):\n"
               "        pass\n"
               "    def helper(self):\n"
               "        pass\n"
               "    def add(self):\n"
               "        pass\n")
    assert shared_method_names([package]) == {
        "act": ["A", "B"], "add": ["B"], "helper": ["B"], "one": ["B"],
        "size": ["B"]}


# every method that shares its name (see shared_method_names), with the
# classes that define it and why each needs it; this list must not grow
SHARED_NAMES = {
    # the one module action l.key.r the compat checker, the cochains and
    # the presentation solver read, on every module kind and element
    "act": ("AlgebraAsBimodule FreeElement FreeModuleTerm GroundModule "
            "TotalComplex"),
    # the algebra a resolution bundle resolves over, read off its complex
    "algebra": "ResolutionBundle",
    # the grid's (-1)^i check; the total complex's delegate is a traced span
    "anticommute_report": "TotalComplex TwistedBicomplex",
    # a task record and the whole report as JSON data
    "as_data": "Report TaskRecord",
    # the keys of degree <= n of each module kind and of a cochain space
    "basis": "AlgebraAsBimodule CochainTruncation FreeModuleTerm GroundModule",
    # whether a total complex is two-sided, which its right action checks
    "bimodule": "TotalComplex",
    # the scalar field interface every coefficient goes through
    "coerce": "PrimeField RationalField",
    "inv": "PrimeField RationalField",
    "mul": "PrimeField RationalField",
    "neg": "PrimeField RationalField",
    "is_zero": "FreeElement PrimeField RationalField SparseMatrix",
    # a twist's field, shared by its two factors
    "field": "TwistMap",
    # how a failed check prints a module key, on every module kind
    "format_key": "AlgebraAsBimodule FreeModuleTerm GroundModule",
    # the internal degree of a key, on every module kind
    "key_degree": "AlgebraAsBimodule FreeModuleTerm GroundModule",
    # the top stage of a complex, a bundle and a total complex
    "n_max": "ChainComplexSpec ResolutionBundle TotalComplex",
    # the unit and the zero of an algebra and of a free term
    "one": "AlgebraSpec",
    "zero": "AlgebraSpec FreeModuleTerm",
    # the verdict every report kind gives a task record
    "passed": "CheckReport ExactnessReport KunnethReport",
    # the twisted product algebra of a twist and of a total complex
    "product": "TotalComplex TwistMap",
    # a scalar multiple of an algebra element and of a free element
    "scale": "AlgebraElement FreeElement",
    # the total complex of a grid
    "total": "TwistedBicomplex",
    # the faithful window of a truncation
    "window": "TruncatedComplex",
}


def test_every_shared_method_name_is_listed_with_its_classes():
    shared = shared_method_names(_read(SRC.glob("*.py")))
    assert shared == {name: sorted(classes.split())
                      for name, classes in SHARED_NAMES.items()}


def _bench_module(name):
    """``bench/<name>.py`` loaded from its path (the bench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_%s" % name, ROOT / "bench" / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved_layer_paths(layers):
    """``module:path`` of each traced target that ``spans.install`` could
    not look up: ``cls.__dict__[attr]`` for a ``Class.attr`` path, the
    module attribute otherwise.  Nothing is patched."""
    missing = []
    for modname, paths, _ in layers.values():
        module = importlib.import_module(modname)
        for path in paths:
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                owner = vars(cls) if cls is not None else {}
            else:
                owner = vars(module)
            if attr not in owner:
                missing.append("%s:%s" % (modname, path))
    return missing


def test_every_traced_target_resolves_as_the_bench_installs_it():
    # a deleted or renamed target makes every traced bench worker raise
    # KeyError at install, while untraced workers still pass
    assert unresolved_layer_paths(_bench_module("spans").LAYERS) == []
    assert unresolved_layer_paths({"x": ("twistres.twistprod", [
        "TotalComplex.gone", "Missing.act", "gone", "TotalComplex.act",
        "transport_complex"], None)}) == [
        "twistres.twistprod:TotalComplex.gone",
        "twistres.twistprod:Missing.act", "twistres.twistprod:gone"]


def test_every_name_the_bench_imports_exists():
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(
        encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "twistres"
                for alias in node.names]
    assert imported
    assert [(m, n) for m, n in imported
            if not hasattr(importlib.import_module(m), n)] == []
