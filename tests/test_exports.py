import importlib
import pkgutil

import pytest

import so3fft

MODULES = ["so3fft"] + [
    f"so3fft.{info.name}" for info in pkgutil.iter_modules(so3fft.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
