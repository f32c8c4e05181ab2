import importlib
import pkgutil

import pytest

import gel

MODULES = ["gel"] + sorted(f"gel.{m.name}" for m in pkgutil.iter_modules(gel.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # tools such as perfbench's tracer getattr every listed name
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
