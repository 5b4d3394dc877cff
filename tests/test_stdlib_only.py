"""The library imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "qmult"


def non_stdlib_imports(source):
    """(line, module) of every absolute import whose top-level package is not
    in the standard library; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] not in sys.stdlib_module_names:
                found.append((node.lineno, module))
    return found


def test_checker_flags_third_party_imports():
    source = "import json\nimport numpy.linalg\nfrom sympy import Rational\nfrom . import exact\n"
    assert non_stdlib_imports(source) == [(2, "numpy.linalg"), (3, "sympy")]


def test_library_imports_only_the_standard_library():
    paths = sorted(LIBRARY.glob("*.py"))
    assert len(paths) >= 8
    offenders = {
        path.name: found
        for path in paths
        if (found := non_stdlib_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
