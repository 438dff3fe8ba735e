"""tsvar solves every problem kind with one body, solvers.solve, from the
kind's row of solvers.KINDS: no module of the package defines a solve_*
function or builds a Solution anywhere else, so a second closed form, with
its own value formula and its own extremum rule, cannot come back
unnoticed."""

import ast
import pathlib

import tsvar


def closed_forms(source, allowed=None):
    """(line, text) of each function named solve_* and each call of a name
    or attribute Solution outside the module-level function named allowed,
    in Python source."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("solve_"):
                found.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Solution":
                found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for node in ast.parse(source).body:
        visit(node, isinstance(node, ast.FunctionDef) and node.name == allowed)
    return sorted(found)


def test_guard_sees_each_form():
    source = ("def solve_power(p):\n    return Solution(1, 2, 3, 4)\n"
              "def solve(p):\n    return Solution(p, 0, 'min', 1)\n"
              "class K:\n    def solve_it(self):\n        pass\n"
              "x = solvers.Solution(1, 2, 3, 4)\nsolve_table = {}\n"
              "def solved(p):\n    return Solution\n")
    assert closed_forms(source, "solve") == [
        (1, "def solve_power"), (2, "Solution(1, 2, 3, 4)"),
        (6, "def solve_it"), (8, "solvers.Solution(1, 2, 3, 4)")]
    assert (4, "Solution(p, 0, 'min', 1)") in closed_forms(source)


def test_package_has_one_closed_form():
    package = pathlib.Path(tsvar.__file__).parent
    files = sorted(package.glob("*.py"))
    assert files
    found = {f.name: closed_forms(f.read_text(), "solve" if f.name == "solvers.py" else None)
             for f in files}
    assert {name: c for name, c in found.items() if c} == {}
    # and solve does build its Solution there
    assert closed_forms((package / "solvers.py").read_text())
