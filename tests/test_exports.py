"""Every ``__all__`` name resolves in its module, and every exported function
is defined there: the benchmark tracer wraps each one by name."""

import importlib
import inspect

import pytest

MODULES = ["curveflow", "curveflow.curves", "curveflow.dyadic", "curveflow.fixtures",
           "curveflow.gridfn", "curveflow.harness", "curveflow.kernel", "curveflow.operators"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_in_its_module(name):
    mod = importlib.import_module(name)
    for export in mod.__all__:
        assert hasattr(mod, export), f"{name}.__all__ names missing {export!r}"
        obj = getattr(mod, export)
        if inspect.isfunction(obj):
            assert obj.__module__ == name, f"{name}.{export} is defined in {obj.__module__}"
