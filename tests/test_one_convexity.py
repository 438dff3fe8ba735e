"""tsvar decides convexity one way, the sign rule of
functions.classify_samples: no module of the package compares a sample of a
second derivative with a number of its own, so an absolute threshold, which
reads a tiny but signed F'' as zero, cannot come back unnoticed; and the
report's directions are spelled only in jensen's one mapping from a kind of
F to a direction, so no checker can orient a gap by a rule of its own."""

import ast
import pathlib

import tsvar

DIRECTIONS = ("convex_ge", "concave_le")


def _numbers(tree):
    """Names bound at module level to a numeric literal, as -1e-12 is."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            and _is_number(node.value, set())
            for target in node.targets if isinstance(target, ast.Name)}


def _is_number(node, numbers):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Name):
        return node.id in numbers
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float)))


def _second_derivative(node, samples):
    """node calls a deriv2 method or reads a name in samples, directly or
    through numpy; what another function returns is not a sample."""
    if isinstance(node, ast.Name):
        return node.id in samples
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "deriv2":
            return True
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "np"):
            return False
    return any(_second_derivative(child, samples)
               for child in ast.iter_child_nodes(node))


def _scope_comparisons(scope, numbers):
    samples = set()
    assigns = [node for node in ast.walk(scope) if isinstance(node, ast.Assign)]
    while True:     # names bound to deriv2 values, and to values made from them
        grown = samples | {target.id for node in assigns
                           if _second_derivative(node.value, samples)
                           for target in node.targets for target in ast.walk(target)
                           if isinstance(target, ast.Name)}
        if grown == samples:
            break
        samples = grown
    for node in ast.walk(scope):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(_second_derivative(side, samples) for side in sides)
                    and any(_is_number(side, numbers) for side in sides)):
                yield node.lineno, ast.unparse(node)


def threshold_comparisons(source):
    """(line, source text) of each comparison of a second-derivative sample
    with a numeric literal, or a module-level name bound to one; a name holds
    a sample within the function that binds it."""
    tree = ast.parse(source)
    scopes = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    return sorted({found for scope in scopes
                   for found in _scope_comparisons(scope, _numbers(tree))})


def direction_strings(source, mapping=None):
    """(line, text) of each "convex_ge" or "concave_le" string in Python
    source, except those inside the module-level dict bound to mapping."""
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == mapping
                        for t in node.targets)):
            allowed |= {id(sub) for sub in ast.walk(node.value)}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in DIRECTIONS
                  and id(node) not in allowed)


def test_guard_sees_each_threshold():
    source = ("TOL = 1e-12\n"
              "d2 = F.deriv2(xs)\n"
              "pos = d2 > TOL\n"
              "neg = d2 < -1e-12\n"
              "F.deriv2(x) == 0\n"
              "curv = np.abs(d2) * 2\n"
              "curv <= 3\n"
              "d2 > err\n"
              "F.deriv(x) > 0\n"
              "kind = classify(d2)\n"
              "kind == 1\n"
              "def f(F):\n"
              "    s = np.sign(F.deriv2(0.5))\n"
              "    return s > 0\n")
    assert threshold_comparisons(source) == [
        (3, "d2 > TOL"), (4, "d2 < -1e-12"), (5, "F.deriv2(x) == 0"),
        (7, "curv <= 3"), (14, "s > 0")]


def test_guard_sees_each_direction_string():
    source = ("MAP = {'convex': ('convex_ge', False)}\n"
              "OTHER = {'concave': 'concave_le'}\n"
              "d = 'convex_ge' if x else 'concave_le'\n"
              "'convex_ge is a word'\n")
    assert direction_strings(source, "MAP") == [
        (2, "concave_le"), (3, "concave_le"), (3, "convex_ge")]
    assert direction_strings(source) == [
        (1, "convex_ge"), (2, "concave_le"), (3, "concave_le"), (3, "convex_ge")]


def _package_sources():
    package = pathlib.Path(tsvar.__file__).parent
    files = sorted(package.glob("*.py"))
    assert files
    return {f.name: f.read_text() for f in files}


def test_no_threshold_on_a_second_derivative():
    found = {name: threshold_comparisons(text)
             for name, text in _package_sources().items()}
    assert {name: c for name, c in found.items() if c} == {}


def test_directions_spelled_in_one_mapping():
    sources = _package_sources()
    found = {name: direction_strings(text, "_DIRECTIONS" if name == "jensen.py" else None)
             for name, text in sources.items()}
    assert {name: c for name, c in found.items() if c} == {}
    # and the mapping is there, naming both
    assert len(direction_strings(sources["jensen.py"])) >= 2
