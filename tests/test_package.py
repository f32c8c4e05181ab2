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


def test_no_module_asserts_or_reads_debug():
    # a run computes the same with and without python -O, and fails by GelError
    package = os.path.dirname(os.path.abspath(gel.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Name) and node.id == "__debug__")
        ]
    assert found == []


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
