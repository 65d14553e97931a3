"""Every name a module exports through ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import flowbridge

_MODULES = sorted(
    info.name for info in pkgutil.walk_packages(flowbridge.__path__, prefix="flowbridge.")
)


def test_every_module_is_walked():
    assert {"flowbridge.training", "flowbridge.nn.model"} <= set(_MODULES)


@pytest.mark.parametrize("name", ["flowbridge", *_MODULES])
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
