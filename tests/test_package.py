import importlib
import pkgutil

import pytest

import magnon

MODULES = ["magnon"] + [
    f"magnon.{info.name}" for info in pkgutil.iter_modules(magnon.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    # tools that wrap the public API look up every __all__ entry
    mod = importlib.import_module(name)
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []
