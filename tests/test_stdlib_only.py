"""The library and the qmult-free oracles import nothing outside the Python
standard library, and each shared test model and oracle is defined once."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
LIBRARY = TESTS.parent / "src" / "qmult"
SHARED = {
    "worked_examples.py": (
        "poly",
        "xy_fixture",
        "zero_fixture",
        "jst_fixture",
        "hypersurface_fixture",
        "neg_growth_fixture",
    ),
    "exact_oracles.py": (
        "brute_stabilized_delta",
        "laurent_complexity",
        "laurent_e_delta",
        "horner",
        "divide_out_root",
        "trim",
        "poly_add",
        "poly_mul",
        "poly_pow",
        "compose_linear",
        "forward_difference",
        "newton_interpolate",
        "power_series",
        "exact_quotient",
        "coefficient_over_one_plus_t",
    ),
}


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


def test_exact_oracles_import_only_the_standard_library():
    assert non_stdlib_imports((TESTS / "exact_oracles.py").read_text(encoding="utf-8")) == []


def test_shared_models_and_oracles_are_defined_once():
    homes = {name: home for home, names in SHARED.items() for name in names}
    defined = [
        (path.name, node.name)
        for path in sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in homes
    ]
    assert sorted(defined) == sorted((home, name) for name, home in homes.items())
