import glob
import importlib
import os
import pkgutil

import pytest

import gel

MODULES = ["gel"] + sorted(f"gel.{m.name}" for m in pkgutil.iter_modules(gel.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # tools such as perfbench's tracer getattr every listed name
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


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
