"""tsvar inverts a monotone function one way, roots.invert_increasing on a
bracket and a derivative: no module of the package defines or calls an
``inverse`` method, so a second inversion path, with its own rounding and
its own failure cases, cannot come back unnoticed."""

import ast
import pathlib

import tsvar


def inverse_methods(source):
    """(line, source text) of each function named inverse and each call of
    an attribute named inverse, in Python source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "inverse"):
            found.append((node.lineno, f"def {node.name}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "inverse"):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_guard_sees_each_form():
    source = ("class A:\n    def inverse(self, y):\n        pass\n"
              "fn.inverse(2.0)\nself.inner.inverse(v)\ninverse(3)\n"
              "fn.inverse\ninvert_increasing(g, t, 0, 1, d)\n")
    assert inverse_methods(source) == [
        (2, "def inverse"), (4, "fn.inverse(2.0)"), (5, "self.inner.inverse(v)")]


def test_package_has_no_inverse_method():
    package = pathlib.Path(tsvar.__file__).parent
    files = sorted(package.glob("*.py"))
    assert files
    found = {f.name: inverse_methods(f.read_text()) for f in files}
    assert {name: c for name, c in found.items() if c} == {}
