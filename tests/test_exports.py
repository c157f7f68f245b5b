import importlib
import pkgutil

import pytest

import cavitytd

MODULES = sorted(m.name for m in pkgutil.iter_modules(cavitytd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(f"cavitytd.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from cavitytd.{name} import *", namespace)
    assert set(exported) <= set(namespace)
