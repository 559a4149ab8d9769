"""Every exported name resolves, and no module exports a name twice."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import subpix

MODULES = ["subpix"] + [f"subpix.{m.name}" for m in pkgutil.iter_modules(subpix.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
