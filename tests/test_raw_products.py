"""``add_term`` reduces the value it stores, so no caller reduces first:
no value argument of an ``add_term`` call in the package is a ``.mul(...)``
call (pass ``c1 * c2``, not ``f.mul(c1, c2)``)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "twistres"


def reduced_values(source):
    """Line of each ``add_term(field, out, key, value)`` call whose value
    is a ``.mul(...)`` call, given positionally or as ``value=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
                and getattr(node.func, "id",
                            getattr(node.func, "attr", None)) == "add_term"):
            continue
        values = node.args[3:4] + [k.value for k in node.keywords
                                   if k.arg == "value"]
        if any(isinstance(v, ast.Call) and isinstance(v.func, ast.Attribute)
               and v.func.attr == "mul" for v in values):
            lines.append(node.lineno)
    return lines


def test_guard_flags_a_reduced_product():
    source = ("add_term(f, out, k, f.mul(a, b))\n"
              "kernel.add_term(f, out, k, value=field.mul(a, b))\n"
              "add_term(f, out, k, a * b)\n"
              "add_term(f, out, f.mul(a, b), c)\n"
              "w = f.mul(a, b)\n")
    assert reduced_values(source) == [1, 2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_add_term_values_are_raw_products(path):
    assert reduced_values(path.read_text(encoding="utf-8")) == []
