"""What makes a problem kind lives in one table, solvers.KINDS: no module
of the package compares an object's kind to a name, so a new kind, or a
new rule of one, is one entry of the table and not a branch in each place
that reads it."""

import ast
import pathlib

import tsvar


def kind_comparisons(source):
    """(line, source text) of each == or != comparison with an attribute
    named kind, in Python source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, sides, sides[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                    isinstance(side, ast.Attribute) and side.attr == "kind"
                    for side in (left, right)):
                found.append((node.lineno, ast.unparse(node)))
                break
    return found


def test_guard_sees_each_form():
    source = ("p.kind == 'a'\n'b' != self.kind\nkind == 'c'\n"
              "self.kind not in KINDS\n0 < p.kind == 'd'\np.kindred == 'e'\n")
    assert kind_comparisons(source) == [
        (1, "p.kind == 'a'"), (2, "'b' != self.kind"), (5, "0 < p.kind == 'd'")]


def test_package_compares_no_kind():
    package = pathlib.Path(tsvar.__file__).parent
    files = sorted(package.glob("*.py"))
    assert files
    found = {f.name: kind_comparisons(f.read_text()) for f in files}
    assert {name: c for name, c in found.items() if c} == {}
