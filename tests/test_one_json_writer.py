"""tsvar writes indented JSON one way, the streaming writer ``cli._dump_json``:
no module of the package calls ``json.dump`` or ``json.dumps`` with an
``indent``, which would run json's pure-Python encoder over every number."""

import ast
import pathlib

import tsvar


def indented_dumps(source):
    """(line, source text) of each json.dump or json.dumps call with an
    indent keyword, in Python source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and any(k.arg == "indent" for k in node.keywords)):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_guard_sees_each_form():
    source = ("json.dump(s, fh, indent=2, sort_keys=True)\n"
              "json.dumps(s, indent=None)\n"
              "json.dumps(s, sort_keys=True)\njson.dump(s, fh)\n"
              "other.dumps(s, indent=2)\n_dump_json(s, fh)\n")
    assert indented_dumps(source) == [
        (1, "json.dump(s, fh, indent=2, sort_keys=True)"),
        (2, "json.dumps(s, indent=None)")]


def test_package_has_no_indented_json_dump():
    package = pathlib.Path(tsvar.__file__).parent
    files = sorted(package.glob("*.py"))
    assert files
    found = {f.name: indented_dumps(f.read_text()) for f in files}
    assert {name: c for name, c in found.items() if c} == {}
