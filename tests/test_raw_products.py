"""Both accumulates reduce the sums they store, so no caller reduces first:
no value argument of an ``add_term`` call in the package is a ``.mul(...)``
call (pass ``c1 * c2``, not ``f.mul(c1, c2)``), and neither is the value
added to a raw sum ``acc.get(k, 0) + v`` that ``reduce_sums`` reduces."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "twistres"
SOURCES = sorted(SRC.glob("*.py"))


def _name(func):
    return getattr(func, "id", getattr(func, "attr", None))


def _is_mul(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "mul")


def reduced_values(source):
    """Line of each ``add_term(field, out, key, value)`` call whose value
    is a ``.mul(...)`` call, given positionally or as ``value=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
                and _name(node.func) == "add_term"):
            continue
        values = node.args[3:4] + [k.value for k in node.keywords
                                   if k.arg == "value"]
        if any(_is_mul(v) for v in values):
            lines.append(node.lineno)
    return lines


def _is_sum_so_far(node):
    """``acc.get(k, 0)``, or ``get(k, 0)`` through a bound ``get = acc.get``."""
    return (isinstance(node, ast.Call) and _name(node.func) == "get"
            and len(node.args) == 2 and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == 0)


def raw_sums(source):
    """Each raw sum ``acc.get(k, 0) + v`` (either order) as (line, v)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if _is_sum_so_far(node.left):
                out.append((node.lineno, node.right))
            elif _is_sum_so_far(node.right):
                out.append((node.lineno, node.left))
    return out


def reduced_sum_values(source):
    """Line of each raw sum whose added value is a ``.mul(...)`` call."""
    return [line for line, v in raw_sums(source) if _is_mul(v)]


def test_guard_flags_a_reduced_product():
    source = ("add_term(f, out, k, f.mul(a, b))\n"
              "kernel.add_term(f, out, k, value=field.mul(a, b))\n"
              "add_term(f, out, k, a * b)\n"
              "add_term(f, out, f.mul(a, b), c)\n"
              "w = f.mul(a, b)\n")
    assert reduced_values(source) == [1, 2]


def test_guard_flags_a_reduced_product_in_a_raw_sum():
    source = ("acc[k] = acc.get(k, 0) + f.mul(a, b)\n"
              "acc[k] = get(k, 0) + field.mul(a, b)\n"
              "acc[k] = get(k, 0) + a * b\n"
              "acc[k] = memo.get(k) + f.mul(a, b)\n"
              "acc[k] = f.mul(a, b) + acc.get(k, 0)\n"
              "w = f.mul(a, b)\n")
    assert reduced_sum_values(source) == [1, 2, 5]
    # the package's raw sums are found, so the guard below is not vacuous
    assert raw_sums((SRC / "complex.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_add_term_values_are_raw_products(path):
    assert reduced_values(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_raw_sum_values_are_raw_products(path):
    assert reduced_sum_values(path.read_text(encoding="utf-8")) == []
