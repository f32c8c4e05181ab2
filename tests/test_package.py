import ast
import glob
import importlib
import os
import pkgutil
import re

import pytest

import gel
from gel.dynamics import _TABLE

MODULES = ["gel"] + sorted(f"gel.{m.name}" for m in pkgutil.iter_modules(gel.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # tools such as perfbench's tracer getattr every listed name
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


#: The functions that draw random numbers, by module: only they may reach
#: numpy.random, whose import (with OpenSSL, through secrets and hashlib) is
#: 4 MB of the peak RSS of a command that draws none, such as ``gel suite``.
RANDOM_DRAWS = {
    "graphs.py": "erdos_renyi",
    "config.py": "initial_features",
    "cli.py": "preset_bipartite_demo",
}


def test_no_module_asserts_or_reads_debug():
    # a run computes the same with and without python -O, and fails by
    # GelError; and only the functions that draw random numbers touch
    # numpy.random
    package = os.path.dirname(os.path.abspath(gel.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        draws = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == RANDOM_DRAWS.get(name)
        ]
        found += [
            (name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Name) and node.id == "__debug__")
            or (_reaches_numpy_random(node)
                and not any(node.lineno in lines for lines in draws))
        ]
    assert found == []


def _reaches_numpy_random(node: ast.AST) -> bool:
    """``np.random`` or ``numpy.random`` read as an attribute, or imported
    by any form of ``import`` statement."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        module = (node.module or "").split(".")
        return module[:2] == ["numpy", "random"] or (
            module == ["numpy"] and any(alias.name == "random" for alias in node.names))
    return False


@pytest.mark.parametrize("source, flagged", [
    ("np.random.default_rng(0)", True),
    ("import numpy.random", True),
    ("import numpy.random as npr", True),
    ("from numpy.random import default_rng", True),
    ("from numpy import random", True),
    ("from numpy import linalg, random as r", True),
    ("import numpy as np", False),
    ("from numpy import linalg", False),
    ("import random", False),
    ("rng.random(3)", False),
])
def test_the_numpy_random_lint_sees_imports_and_attributes(source, flagged):
    assert any(map(_reaches_numpy_random, ast.walk(ast.parse(source)))) == flagged


def test_package_data_ships_every_suite_witness():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["gel"]
    package = os.path.join(root, "src", "gel")
    packaged = {os.path.relpath(path, package)
                for pattern in patterns for path in glob.glob(os.path.join(package, pattern))}
    shipped = {os.path.join("suite", name) for name in os.listdir(os.path.join(package, "suite"))}
    assert len(shipped) == 45 and shipped <= packaged


def _readme_key_table() -> dict[str, set[str]]:
    """The README's "which variant reads which key" table under "Config
    keys": each key of a row mapped to the variants the row names."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Config keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\s*\| (`.*`) \| (`.*`) \|$", section, flags=re.M)
    return {key: set(re.findall(r"`(\w+)`", variants))
            for keys, variants in rows for key in re.findall(r"`(\w+)`", keys)}


def test_readme_key_table_is_the_variant_table():
    # W is left out: the README says every variant accepts it
    table = _readme_key_table()
    assert "W" not in table and len(table) == 8
    for key, variants in table.items():
        field = "omega_diag" if key == "omega" else key
        readers = {v for v, entry in _TABLE.items() if field in (entry.required,) + entry.reads}
        assert variants == readers, key
    named = {f for entry in _TABLE.values() for f in (entry.required,) + entry.reads}
    assert named - {None, "weights"} == {"omega_diag" if k == "omega" else k for k in table}
