"""The package namespace re-exports every module's public names."""

import importlib

import pytest

import ontofield

MODULES = ["cyclic", "ladder", "lattice", "kernels", "dynamics", "vacuum"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_re_exported_by_the_package(name):
    module = importlib.import_module(f"ontofield.{name}")
    for attr in module.__all__:
        assert attr in ontofield.__all__, attr
        assert getattr(ontofield, attr) is getattr(module, attr), attr

