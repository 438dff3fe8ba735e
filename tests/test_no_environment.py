"""tsvar reads no environment variable: every setting comes from a problem
file or a call's arguments, so two processes given the same inputs compute
the same results."""

import ast
import pathlib

import tsvar

READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """(line, name) of each os.environ / os.getenv read and each import of
    one from os, in Python source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {a.name}")
                      for a in node.names if a.name in READERS]
    return sorted(found)


def test_guard_sees_each_form():
    source = ("import os\nfrom os import getenv\nos.environ.get('X')\n"
              "os.getenv('X')\nos.path.join('a')\n")
    assert environment_reads(source) == [
        (2, "from os import getenv"), (3, "os.environ"), (4, "os.getenv")]


def test_package_reads_no_environment():
    package = pathlib.Path(tsvar.__file__).parent
    files = sorted(package.glob("*.py"))
    assert files
    reads = {f.name: environment_reads(f.read_text()) for f in files}
    assert {name: r for name, r in reads.items() if r} == {}
