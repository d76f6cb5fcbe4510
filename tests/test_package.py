"""The package's public names: every export resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import ybias

MODULES = ["ybias"] + [f"ybias.{info.name}" for info in pkgutil.iter_modules(ybias.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from ybias import *", namespace)
    assert set(ybias.__all__) <= namespace.keys()
